#include "core/front_door.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hpp"
#include "common/slab.hpp"
#include "common/strutil.hpp"
#include "common/topic_intern.hpp"
#include "obs/metrics.hpp"
#include "proto/codec.hpp"
#include "proto/http_stream.hpp"
#include "proto/websocket.hpp"

namespace md::core {

namespace {

/// The verbs a client may send; anything else (a peer or reply frame) on a
/// client port is a protocol error.
bool IsClientVerb(const Frame& frame) noexcept {
  switch (TypeOf(frame)) {
    case FrameType::kConnect:
    case FrameType::kSubscribe:
    case FrameType::kUnsubscribe:
    case FrameType::kPublish:
    case FrameType::kPing:
    case FrameType::kDisconnect:
      return true;
    default:
      return false;
  }
}

}  // namespace

// A WS endpoint must see a proper Close frame (1013 "try again later"), not a
// mid-stream TCP reset.
WireBuffer EvictionNotice(const Session& client) {
  const auto mode = client.CurrentMode();
  auto notice = AcquireWireBuffer();
  if (mode == Session::Mode::kWs) {
    Bytes payload{static_cast<std::uint8_t>(ws::kClosePolicyTryAgainLater >> 8),
                  static_cast<std::uint8_t>(ws::kClosePolicyTryAgainLater)};
    static constexpr std::string_view kReason = "slow consumer";
    payload.insert(payload.end(), kReason.begin(), kReason.end());
    ws::EncodeWsFrame(ws::Opcode::kClose, BytesView(payload), *notice);
  } else {
    EncodeForMode(Frame(DisconnectFrame{std::string(kSlowConsumerReason)}), mode,
                  *notice);
  }
  return notice;
}

namespace {

/// Wraps the frame body already encoded at out[bodyStart..] in the flavour
/// of a session in `mode`, in place.
void FrameForMode(Session::Mode mode, Bytes& out, std::size_t bodyStart) {
  if (mode == Session::Mode::kWs) {
    ws::FrameInPlace(ws::Opcode::kBinary, out, bodyStart);
  } else if (mode == Session::Mode::kHttp) {
    http::ChunkInPlace(out, bodyStart);
  } else {
    PrefixVarintLength(out, bodyStart);
  }
}

}  // namespace

void EncodeForMode(const Frame& frame, Session::Mode mode, Bytes& out) {
  const std::size_t start = out.size();
  EncodeFrame(frame, out);
  FrameForMode(mode, out, start);
}

void EncodeDeliverForMode(const Message& msg, Session::Mode mode, Bytes& out) {
  const std::size_t start = out.size();
  EncodeDeliver(msg, out);
  FrameForMode(mode, out, start);
}

ClientFrontDoor::ClientFrontDoor(obs::MetricsRegistry& metrics, Options options,
                                 Sink sink)
    : metrics_(metrics),
      opts_(std::move(options)),
      sink_(std::move(sink)),
      m_(metrics_, opts_.labels),
      slow_(opts_.backpressure, metrics_, opts_.labels, opts_.monitor) {}

// ---------------------------------------------------------------------------
// Accept, parse, close (the session's loop)
// ---------------------------------------------------------------------------

void ClientFrontDoor::Accept(EventLoop& loop, std::size_t ioIndex,
                             ConnectionPtr conn) {
  auto session = MakeSession();
  session->handle = nextHandle_.fetch_add(1, std::memory_order_relaxed);
  session->ioIndex = ioIndex;
  session->conn = std::move(conn);
  session->loop = &loop;
  slow_.Attach(*session);
  if (opts_.batch) {
    session->batcher = std::make_unique<Batcher>(
        *opts_.batch, [this, weak = std::weak_ptr<Session>(session)](WireBuffer wire) {
          if (auto s = weak.lock()) Send(*s, std::move(wire));
        });
  }
  m_.accepted.Inc();
  m_.active.Add(1);
  sessions_.Insert(session);

  // The table owns the session; the handlers hold it weakly, so a connection
  // still open when its host goes away leaves no reference cycle behind.
  const std::weak_ptr<Session> weak = session;
  session->conn->SetDataHandler([this, weak](BytesView data) {
    if (auto s = weak.lock()) {
      s->in.Append(data);
      ParseFrames(s);
    }
  });
  session->conn->SetCloseHandler([this, weak] {
    if (auto s = weak.lock()) OnClosed(s);
  });
}

void ClientFrontDoor::ParseFrames(const SessionPtr& session) {
  using Mode = Session::Mode;
  ByteQueue& in = session->in;

  // The session's loop is the only writer of `mode`; transitions are relaxed
  // stores (Workers observing the mode are ordered behind the frame hand-off
  // through their queue).
  if (session->CurrentMode() == Mode::kDetect) {
    if (in.size() < 4) return;
    const auto head = AsStringView(in.Peek()).substr(0, 4);
    session->mode.store(head == "GET "   ? Mode::kWsHandshake    // WS upgrade
                        : head == "POST" ? Mode::kHttpHandshake  // HTTP stream
                                         : Mode::kRaw,
                        std::memory_order_relaxed);
  }

  if (session->CurrentMode() == Mode::kWsHandshake) {
    // A plain-HTTP GET of /metrics (or /inject) shares the "GET " prefix with
    // the WebSocket upgrade; peek the request line and intercept it before
    // the handshake parser (which requires Upgrade headers) rejects it.
    const auto text = AsStringView(in.Peek());
    const auto lineEnd = text.find("\r\n");
    if (lineEnd == std::string_view::npos && text.size() > 8 * 1024) {
      Fail(*session, Err(ErrorCode::kProtocol, "request line too long"));
      return;
    }
    const auto line = text.substr(0, lineEnd);  // "GET <path> HTTP/1.1"
    const auto pathStart = line.find(' ');
    const auto pathEnd = line.find(' ', pathStart + 1);
    if (lineEnd != std::string_view::npos && pathEnd != std::string_view::npos) {
      const auto path = line.substr(pathStart + 1, pathEnd - pathStart - 1);
      const bool inject = opts_.injectEndpoint && opts_.monitor != nullptr &&
                          path.rfind("/inject", 0) == 0;
      if (path == "/metrics" || inject) {
        if (text.find("\r\n\r\n") == std::string_view::npos) return;
        inject ? ServeInject(session, path) : ServeMetrics(session);
        return;
      }
    }
    auto hs = ws::ParseClientHandshake(in);
    if (!hs.status.ok()) {
      Fail(*session, hs.status);
      return;
    }
    if (!hs.handshake) return;  // need more bytes
    Send(*session, ToWire(ws::BuildServerHandshakeResponse(hs.handshake->key)));
    session->mode.store(Mode::kWs, std::memory_order_relaxed);
  }

  if (session->CurrentMode() == Mode::kHttpHandshake) {
    auto req = http::ParseStreamRequest(in);
    if (!req.status.ok()) {
      Fail(*session, req.status);
      return;
    }
    if (!req.complete) return;
    Send(*session, ToWire(http::BuildStreamResponse()));
    session->mode.store(Mode::kHttp, std::memory_order_relaxed);
  }

  // A close — the sink's, a protocol error's, an eviction's — ends parsing:
  // frames behind it never reach the host.
  while (!session->closing) {
    auto r = NextFrame(*session);
    if (r.status.ok() && r.frame) {
      m_.frames.Inc();
      r.status = IsClientVerb(*r.frame)
                     ? sink_.onFrame(session, std::move(*r.frame))
                     : Err(ErrorCode::kProtocol, "not a client frame");
    }
    if (!r.status.ok()) {
      Fail(*session, r.status);
      return;
    }
    if (!r.frame) return;  // need more bytes
  }
}

FrameExtractResult ClientFrontDoor::NextFrame(Session& session) {
  if (session.CurrentMode() == Session::Mode::kRaw) {
    return ExtractFrame(session.in, kMaxClientFrame);
  }
  std::optional<Bytes> body;
  if (session.CurrentMode() == Session::Mode::kHttp) {
    auto r = http::ExtractChunk(session.in, kMaxClientFrame);
    if (!r.status.ok()) return {std::nullopt, r.status};
    if (r.endOfStream) Close(session);
    body = std::move(r.payload);
  } else {
    while (!body) {
      auto r = ws::ExtractWsFrame(session.in, /*expectMasked=*/true, kMaxClientFrame);
      if (!r.status.ok()) return {std::nullopt, r.status};
      if (!r.frame) return {};
      if (r.frame->opcode == ws::Opcode::kBinary) {
        body = std::move(r.frame->payload);
      } else if (r.frame->opcode == ws::Opcode::kPing) {
        // Keepalive skips the batcher: the pong goes out on this pass.
        auto pong = AcquireWireBuffer();
        ws::EncodeWsFrame(ws::Opcode::kPong, BytesView(r.frame->payload), *pong);
        Send(session, std::move(pong));
      } else if (r.frame->opcode == ws::Opcode::kClose) {
        Close(session);
        return {};
      }  // text/pong/continuation ignored
    }
  }
  if (!body) return {};
  auto decoded = DecodeFrame(BytesView(*body));
  if (!decoded.ok()) return {std::nullopt, decoded.status()};
  return {std::move(*decoded), OkStatus()};
}

void ClientFrontDoor::Fail(Session& session, const Status& status) {
  MD_DEBUG("closing session %llu: %s",
           static_cast<unsigned long long>(session.handle),
           status.ToString().c_str());
  m_.protoErrors.Inc();
  Close(session);
}

void ClientFrontDoor::OnClosed(const SessionPtr& session) {
  if (!session->open.exchange(false)) return;
  m_.active.Add(-1);
  slow_.LeaveOverSoft(*session);
  sessions_.Erase(session->handle);
  sink_.onClosed(session);
}

void ClientFrontDoor::Close(Session& session) {
  session.closing = true;
  session.conn->Close();
}

void ClientFrontDoor::CloseAfterFlush(const SessionPtr& session) {
  if (session->closing) return;
  if (session->batcher) session->batcher->Flush();
  session->closing = true;
  session->conn->CloseAfterFlush();
}

void ClientFrontDoor::CloseAll() {
  for (const SessionPtr& session : sessions_.All()) Close(*session);
}

std::size_t ClientFrontDoor::MaxPendingBytes() const {
  std::size_t maxPending = 0;
  for (const SessionPtr& session : sessions_.All()) {
    maxPending = std::max(maxPending, session->conn->PendingBytes());
  }
  return maxPending;
}

void ClientFrontDoor::RefreshBytesPerSession() const {
  // Slab accounting covers sessions (allocate_shared slots), registry
  // FlatMap arrays + SmallVector spill, and cache deque blocks; the session
  // table's hash nodes and the interned-name storage are the only engine
  // state outside the arena, so they are added explicitly.
  const std::uint64_t active =
      static_cast<std::uint64_t>(std::max<std::int64_t>(m_.active.Value(), 0));
  const SlabStats slab = SlabArena::Default().Stats();
  const std::uint64_t engineBytes = slab.bytesInUse + sessions_.MemoryBytes() +
                                    TopicTable::Default().MemoryBytes();
  m_.bytesPerSession.Set(
      static_cast<std::int64_t>(engineBytes / std::max<std::uint64_t>(active, 1)));
}

// ---------------------------------------------------------------------------
// Plain-HTTP endpoints
// ---------------------------------------------------------------------------

void ClientFrontDoor::ServeMetrics(const SessionPtr& session) {
  RefreshBytesPerSession();  // gauge is scrape-time derived, not event-driven
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Every scrape doubles as a consistency check: the monitor flags any
  // counter that went backwards since the previous scrape.
  if (opts_.monitor != nullptr) opts_.monitor->OnMetricsSnapshot(snapshot);
  Respond(session, "200 OK", "text/plain; version=0.0.4; charset=utf-8",
          obs::RenderPrometheus(std::move(snapshot), RealClock::Instance().Now()));
}

void ClientFrontDoor::ServeInject(const SessionPtr& session, std::string_view path) {
  // "GET /inject?kind=<order|gap|duplicate|backpressure|metrics>" arms a
  // one-shot observation fault on the embedded monitor.
  std::optional<verify::ViolationKind> kind;
  if (const auto q = path.find("kind="); q != std::string_view::npos) {
    const auto value = path.substr(q + 5);
    kind = verify::ParseViolationKind(value.substr(0, value.find('&')));
  }
  if (!kind) {
    Respond(session, "400 Bad Request", "text/plain",
            "usage: /inject?kind=order|gap|duplicate|backpressure|metrics\n");
    return;
  }
  opts_.monitor->InjectFault(*kind);
  Respond(session, "200 OK", "text/plain",
          std::string("armed ") + verify::ViolationKindName(*kind) + "\n");
}

void ClientFrontDoor::Respond(const SessionPtr& session, std::string_view status,
                              std::string_view contentType, std::string_view body) {
  const std::string head = Format(
      "HTTP/1.1 %.*s\r\nContent-Type: %.*s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      static_cast<int>(status.size()), status.data(),
      static_cast<int>(contentType.size()), contentType.data(), body.size());
  auto wire = AcquireWireBuffer();
  wire->reserve(head.size() + body.size());
  wire->insert(wire->end(), head.begin(), head.end());
  wire->insert(wire->end(), body.begin(), body.end());
  Send(*session, std::move(wire));
  CloseAfterFlush(session);
}

// ---------------------------------------------------------------------------
// Egress (the session's loop)
// ---------------------------------------------------------------------------

void ClientFrontDoor::WriteOut(const SessionPtr& session, WireBuffer wire) {
  if (!session->batcher) {
    Send(*session, std::move(wire));
    return;
  }
  // The batcher holds the reference; its flush hands each frame to the
  // slow-consumer policy, and the connection writes the batch in one pass.
  session->batcher->Enqueue(std::move(wire), session->loop->Now());
  if (!session->flushTimerArmed && session->batcher->PendingBytes() > 0) {
    session->flushTimerArmed = true;
    session->loop->ScheduleTimer(opts_.batch->maxDelay,
                                 [this, session] { FlushBatch(session); });
  }
}

void ClientFrontDoor::Send(Session& session, WireBuffer wire) {
  const std::size_t size = wire->size();
  if (slow_.Send(session, std::move(wire))) m_.bytesOut.Inc(size);
}

void ClientFrontDoor::FlushBatch(const SessionPtr& session) {
  session->flushTimerArmed = false;
  if (session->closing || !session->batcher) return;
  session->batcher->OnTime(session->loop->Now());
  if (const auto deadline = session->batcher->Deadline()) {
    session->flushTimerArmed = true;
    session->loop->ScheduleTimer(*deadline - session->loop->Now(),
                                 [this, session] { FlushBatch(session); });
  }
}

// ---------------------------------------------------------------------------
// Handle-addressed frame API
// ---------------------------------------------------------------------------

void ClientFrontDoor::Send(ClientHandle client, const Frame& frame) {
  const SessionPtr session = sessions_.Find(client);
  if (!session || session->closing) return;
  Observe(client, frame);
  auto wire = AcquireWireBuffer();
  EncodeForMode(frame, session->CurrentMode(), *wire);
  WriteOut(session, std::move(wire));
}

void ClientFrontDoor::Deliver(const std::vector<ClientHandle>& clients,
                              const Message& msg) {
  // One encode per flavour shared across every target's send queue: N
  // subscribers cost zero per-subscriber copies. Each write still goes
  // through the slow-consumer policy, so one stalled subscriber cannot
  // buffer the host to death.
  std::array<WireBuffer, Session::kModeCount> wires{};
  for (const ClientHandle client : clients) {
    const SessionPtr session = sessions_.Find(client);
    if (!session || session->closing) continue;
    if (opts_.monitor != nullptr) {
      opts_.monitor->OnDelivery(client, msg.topic, PosOf(msg), msg.pubId);
    }
    const Session::Mode mode = session->CurrentMode();
    WireBuffer& wire = wires[static_cast<std::size_t>(mode)];
    if (!wire) {
      auto bytes = AcquireWireBuffer();
      EncodeDeliverForMode(msg, mode, *bytes);
      wire = std::move(bytes);
    }
    WriteOut(session, wire);
  }
}

void ClientFrontDoor::CloseAfterFlush(ClientHandle client) {
  if (const SessionPtr session = sessions_.Find(client)) CloseAfterFlush(session);
}

void ClientFrontDoor::Observe(ClientHandle client, const Frame& frame) {
  if (opts_.monitor == nullptr) return;
  if (const auto* deliver = std::get_if<DeliverFrame>(&frame)) {
    opts_.monitor->OnDelivery(client, deliver->msg.topic, PosOf(deliver->msg),
                              deliver->msg.pubId);
  }
}

}  // namespace md::core
