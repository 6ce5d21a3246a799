#include "core/server.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "proto/http_stream.hpp"
#include "common/strutil.hpp"

namespace md::core {

// Session itself lives in core/session.hpp (DESIGN.md §15): slab-allocated
// via MakeSession() so the footprint bench exercises the identical struct.

namespace {

/// Encodes a frame in the session's transport flavour. Mode values mirror
/// Session::Mode (kept as a raw byte so proto stays decoupled from core).
void EncodeForMode(const Frame& frame, std::uint8_t mode, Bytes& out) {
  if (mode == 2 /*kWs*/) {
    Bytes body;
    EncodeFrame(frame, body);
    ws::EncodeWsFrame(ws::Opcode::kBinary, BytesView(body), out);
  } else if (mode == 4 /*kHttp*/) {
    Bytes body;
    EncodeFrame(frame, body);
    http::EncodeChunk(BytesView(body), out);
  } else {
    EncodeFramed(frame, out);
  }
}

/// Copies bytes that were not encoded into a wire buffer (handshake and HTTP
/// responses, batcher output).
WireBuffer CopyToWire(BytesView data) {
  auto wire = AcquireWireBuffer();
  wire->assign(data.begin(), data.end());
  return wire;
}

/// The slow-consumer close notice in the session's transport flavour: a WS
/// endpoint must see a proper Close frame (1013 "try again later"), not a
/// mid-stream TCP reset.
WireBuffer EvictionNotice(const PolicedClient& client) {
  const auto mode = static_cast<const Session&>(client).CurrentMode();
  auto notice = AcquireWireBuffer();
  if (mode == Session::Mode::kWs) {
    Bytes payload{static_cast<std::uint8_t>(ws::kClosePolicyTryAgainLater >> 8),
                  static_cast<std::uint8_t>(ws::kClosePolicyTryAgainLater)};
    static constexpr std::string_view kReason = "slow consumer";
    payload.insert(payload.end(), kReason.begin(), kReason.end());
    ws::EncodeWsFrame(ws::Opcode::kClose, BytesView(payload), *notice);
  } else {
    EncodeForMode(Frame(DisconnectFrame{std::string(kSlowConsumerReason)}),
                  static_cast<std::uint8_t>(mode), *notice);
  }
  return notice;
}

/// The embedded runtime monitor (nullptr unless cfg.runtimeVerify), scoped
/// to the server id unless the config names a scope. Its families register
/// here, not in RegisterStandardFamilies: a server without runtimeVerify
/// keeps its exposition schema (and the checked-in goldens) byte-stable.
std::unique_ptr<verify::Monitor> MakeMonitor(ServerConfig& cfg,
                                             obs::MetricsRegistry& registry) {
  if (!cfg.runtimeVerify) return nullptr;
  if (cfg.verifyConfig.scope.empty()) cfg.verifyConfig.scope = cfg.serverId;
  return std::make_unique<verify::Monitor>(registry, cfg.verifyConfig);
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      metrics_(cfg_.metrics != nullptr ? *cfg_.metrics
                                       : obs::MetricsRegistry::Default()),
      m_(metrics_, obs::ServerLabel(cfg_.serverId)),
      tm_(metrics_),
      wm_(metrics_, obs::ServerLabel(cfg_.serverId)),
      tracer_(metrics_, [] { return RealClock::Instance().Now(); }, "wall"),
      monitor_(MakeMonitor(cfg_, metrics_)),
      slow_(cfg_.backpressure, metrics_, obs::ServerLabel(cfg_.serverId),
            monitor_.get(), EvictionNotice),
      cache_(cfg_.cache) {
  // Pre-register the full schema so GET /metrics exposes every family from
  // the first scrape, not just the ones that have seen traffic.
  obs::RegisterStandardFamilies(metrics_);
  if (cfg_.ioThreads < 1) cfg_.ioThreads = 1;
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (!cfg_.wal.dir.empty()) {
    wal_ = std::make_unique<wal::Log>(wal::PosixEnv::Instance(), cfg_.wal, &wm_);
    cache_.AttachWal(wal_.get());
  }
  if (monitor_) {
    tracer_.SetStageSink([m = monitor_.get()](const obs::TraceKey& key,
                                              obs::Stage stage) {
      m->OnStage(key, stage);
    });
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.exchange(true)) return Err(ErrorCode::kAlreadyExists, "running");

  // Replay the WAL before anything can publish: the cache regains its
  // history and the sequencer resumes AFTER the newest recovered position
  // per topic (re-issuing a durable position would fork the stream).
  if (wal_) {
    const TimePoint now = RealClock::Instance().Now();
    walRecovery_ = wal_->Recover(
        [this, now](Message&& msg) { cache_.InsertRecovered(msg, now); });
    if (walRecovery_.records != 0 || walRecovery_.tornTails != 0 ||
        walRecovery_.corruptSkipped != 0 || walRecovery_.badSegments != 0) {
      MD_INFO(
          "server %s WAL recovery: %llu records from %llu segments "
          "(%llu torn tails, %llu corrupt skipped, %llu bad segments)",
          cfg_.serverId.c_str(),
          static_cast<unsigned long long>(walRecovery_.records),
          static_cast<unsigned long long>(walRecovery_.segments),
          static_cast<unsigned long long>(walRecovery_.tornTails),
          static_cast<unsigned long long>(walRecovery_.corruptSkipped),
          static_cast<unsigned long long>(walRecovery_.badSegments));
    }
  }

  // The single-node server sequences every group itself at epoch 1.
  for (std::uint32_t g = 0; g < cfg_.cache.topicGroups; ++g) {
    sequencer_.BeginEpoch(g, 1);
    if (wal_) {
      for (const auto& [topic, pos] : cache_.GroupPositions(g)) {
        sequencer_.PrimeTopic(g, topic, pos);
      }
    }
  }

  if (wal_ && cfg_.wal.fsync == wal::FsyncPolicy::kGroupCommit) {
    walFlusherStop_.store(false);
    walFlusher_ = std::thread([this] {
      while (!walFlusherStop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(cfg_.wal.flushInterval));
        wal_->Flush(RealClock::Instance().Now());
      }
    });
  }

  for (int i = 0; i < cfg_.ioThreads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->loop = CreateNetLoop(cfg_.eventLoop);
    io->loop->SetMetrics(&tm_);
    auto listener = io->loop->Listen(boundPort_ != 0 ? boundPort_ : cfg_.port);
    if (!listener.ok()) {
      running_.store(false);
      return listener.status();
    }
    io->listener = std::move(*listener);
    boundPort_ = io->listener->Port();
    const std::size_t index = static_cast<std::size_t>(i);
    io->listener->SetAcceptHandler(
        [this, index](ConnectionPtr conn) { OnAccept(index, std::move(conn)); });
    ioThreads_.push_back(std::move(io));
  }
  for (auto& io : ioThreads_) {
    io->thread = std::thread([loop = io->loop.get()] { loop->Run(); });
  }

  for (int i = 0; i < cfg_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->outboxes.resize(ioThreads_.size());
    workers_.push_back(std::move(worker));
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerMain(i); });
  }

  MD_INFO("server %s listening on port %u (%d io threads, %d workers)",
          cfg_.serverId.c_str(), boundPort_, cfg_.ioThreads, cfg_.workers);
  return OkStatus();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  if (walFlusher_.joinable()) {
    walFlusherStop_.store(true);
    walFlusher_.join();
  }
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& io : ioThreads_) io->loop->Stop();
  for (auto& io : ioThreads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  sessions_.Clear();
  workers_.clear();
  ioThreads_.clear();
  if (wal_) wal_->Close();  // clean shutdown: everything synced on disk
}

void Server::RefreshBytesPerSession() const {
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

ServerStats Server::Stats() const {
  RefreshBytesPerSession();
  ServerStats s;
  s.connectionsAccepted = m_.accepted.Value();
  s.connectionsActive = static_cast<std::uint64_t>(m_.active.Value());
  s.framesReceived = m_.frames.Value();
  s.published = m_.published.Value();
  s.delivered = m_.delivered.Value();
  s.bytesOut = m_.bytesOut.Value();
  s.protocolErrors = m_.protoErrors.Value();
  return s;
}

// ---------------------------------------------------------------------------
// I/O layer (runs on IoThreads)
// ---------------------------------------------------------------------------

void Server::OnAccept(std::size_t ioIndex, ConnectionPtr conn) {
  auto session = MakeSession();
  session->handle = nextHandle_.fetch_add(1);
  session->ioIndex = ioIndex;
  // Clients are balanced among Workers by a hash of their identity and stay
  // pinned for their connection lifetime (paper hashes the IP address; the
  // connection handle balances equally and is stable the same way).
  session->workerIndex = MixU64(session->handle) % workers_.size();
  session->conn = std::move(conn);
  session->loop = ioThreads_[ioIndex]->loop.get();
  slow_.Attach(*session);
  if (cfg_.enableBatching) {
    session->batcher = std::make_unique<Batcher>(
        cfg_.batch, [this, weak = std::weak_ptr<Session>(session)](BytesView data) {
          if (auto s = weak.lock()) Send(*s, CopyToWire(data));
        });
  }
  if (cfg_.enableConflation) {
    // Emits the newest message per topic at each window close (IoThread).
    // This is the delivery path for every session, and `delivered` advances
    // per emission (suppressed duplicates never count).
    session->conflator = std::make_unique<Conflator>(
        cfg_.conflate, [this, weak = std::weak_ptr<Session>(session)](const Message& m) {
          auto s = weak.lock();
          if (!s || !s->open.load(std::memory_order_relaxed)) return;
          auto wire = AcquireWireBuffer();
          EncodeForMode(Frame(DeliverFrame{m}),
                        static_cast<std::uint8_t>(s->CurrentMode()), *wire);
          m_.delivered.Inc();
          WriteOut(s, std::move(wire));
        });
  }

  m_.accepted.Inc();
  m_.active.Add(1);
  sessions_.Insert(session);

  session->conn->SetDataHandler(
      [this, session](BytesView data) { OnData(session, data); });
  session->conn->SetCloseHandler([this, session] { OnClosed(session); });
}

void Server::OnData(const SessionPtr& session, BytesView data) {
  session->in.Append(data);
  ParseFrames(session);
}

void Server::ParseFrames(const SessionPtr& session) {
  using Mode = Session::Mode;

  // The session's IoThread is the only writer of `mode`; keep a local copy
  // and publish transitions with relaxed stores (Workers observing the mode
  // are ordered behind the frame handoff through the Worker queue).
  Mode mode = session->CurrentMode();
  const auto setMode = [&](Mode m) {
    mode = m;
    session->mode.store(m, std::memory_order_relaxed);
  };

  if (mode == Mode::kDetect) {
    if (session->in.size() < 4) return;
    const auto head = AsStringView(session->in.Peek()).substr(0, 4);
    if (head == "GET ") {
      setMode(Mode::kWsHandshake);  // WebSocket upgrade
    } else if (head == "POST") {
      setMode(Mode::kHttpHandshake);  // HTTP chunked-stream fallback
    } else {
      setMode(Mode::kRaw);
    }
  }

  if (mode == Mode::kWsHandshake) {
    // A plain-HTTP scrape of /metrics shares the "GET " prefix with the
    // WebSocket upgrade; peek the request line and intercept it before the
    // handshake parser (which requires Upgrade headers) rejects it.
    const auto text = AsStringView(session->in.Peek());
    const auto lineEnd = text.find("\r\n");
    if (lineEnd != std::string_view::npos) {
      const auto line = text.substr(0, lineEnd);  // "GET <path> HTTP/1.1"
      const auto pathStart = line.find(' ');
      const auto pathEnd = line.find(' ', pathStart + 1);
      if (pathStart != std::string_view::npos &&
          pathEnd != std::string_view::npos) {
        const auto path = line.substr(pathStart + 1, pathEnd - pathStart - 1);
        if (path == "/metrics") {
          if (text.find("\r\n\r\n") == std::string_view::npos) return;
          ServeMetrics(session);
          return;
        }
        if (cfg_.verifyInjectEndpoint && monitor_ != nullptr &&
            path.rfind("/inject", 0) == 0) {
          if (text.find("\r\n\r\n") == std::string_view::npos) return;
          ServeInject(session, path);
          return;
        }
      }
    } else if (text.size() > 8 * 1024) {
      FailSession(session, Err(ErrorCode::kProtocol, "request line too long"));
      return;
    }
    auto hs = ws::ParseClientHandshake(session->in);
    if (!hs.status.ok()) {
      FailSession(session, hs.status);
      return;
    }
    if (!hs.handshake) return;  // need more bytes
    const std::string response = ws::BuildServerHandshakeResponse(hs.handshake->key);
    Send(*session, CopyToWire(AsBytes(response)));
    setMode(Mode::kWs);
  }

  if (mode == Mode::kHttpHandshake) {
    auto req = http::ParseStreamRequest(session->in);
    if (!req.status.ok()) {
      FailSession(session, req.status);
      return;
    }
    if (!req.complete) return;
    const std::string response = http::BuildStreamResponse();
    Send(*session, CopyToWire(AsBytes(response)));
    setMode(Mode::kHttp);
  }

  while (session->open.load(std::memory_order_relaxed)) {
    std::optional<Frame> frame;
    if (mode == Mode::kWs) {
      auto r = ws::ExtractWsFrame(session->in, /*expectMasked=*/true, cfg_.maxFrameSize);
      if (!r.status.ok()) {
        FailSession(session, r.status);
        return;
      }
      if (!r.frame) break;
      switch (r.frame->opcode) {
        case ws::Opcode::kBinary: {
          auto decoded = DecodeFrame(BytesView(r.frame->payload));
          if (!decoded.ok()) {
            FailSession(session, decoded.status());
            return;
          }
          frame = std::move(*decoded);
          break;
        }
        case ws::Opcode::kPing: {
          // Keepalive skips the batcher: the pong goes out on this pass.
          auto pong = AcquireWireBuffer();
          ws::EncodeWsFrame(ws::Opcode::kPong, BytesView(r.frame->payload), *pong);
          Send(*session, std::move(pong));
          continue;
        }
        case ws::Opcode::kClose:
          session->conn->Close();
          return;
        default:
          continue;  // text/pong/continuation ignored
      }
    } else if (mode == Mode::kHttp) {
      auto r = http::ExtractChunk(session->in, cfg_.maxFrameSize);
      if (!r.status.ok()) {
        FailSession(session, r.status);
        return;
      }
      if (r.endOfStream) {
        session->conn->Close();
        return;
      }
      if (!r.payload) break;
      auto decoded = DecodeFrame(BytesView(*r.payload));
      if (!decoded.ok()) {
        FailSession(session, decoded.status());
        return;
      }
      frame = std::move(*decoded);
    } else {
      auto r = ExtractFrame(session->in, cfg_.maxFrameSize);
      if (!r.status.ok()) {
        FailSession(session, r.status);
        return;
      }
      if (!r.frame) break;
      frame = std::move(*r.frame);
    }

    m_.frames.Inc();
    Worker& worker = *workers_[session->workerIndex];
    if (!worker.queue.TryPush(Job{session, std::move(frame)}).ok()) {
      // Worker overloaded: shed this client rather than buffer unboundedly.
      FailSession(session, Err(ErrorCode::kCapacity, "worker queue full"));
      return;
    }
  }
}

void Server::ServeMetrics(const SessionPtr& session) {
  RefreshBytesPerSession();  // gauge is scrape-time derived, not event-driven
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Every scrape doubles as a consistency check: the monitor flags any
  // counter that went backwards since the previous scrape.
  if (monitor_) monitor_->OnMetricsSnapshot(snapshot);
  const std::string body =
      obs::RenderPrometheus(std::move(snapshot), RealClock::Instance().Now());
  std::string response =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n"
      "\r\n";
  response += body;
  Send(*session, CopyToWire(AsBytes(response)));
  session->conn->CloseAfterFlush();
}

void Server::ServeInject(const SessionPtr& session, std::string_view path) {
  // "GET /inject?kind=<order|gap|duplicate|backpressure|metrics>" arms a
  // one-shot observation fault on the embedded monitor (debug builds only —
  // gated on ServerConfig::verifyInjectEndpoint).
  std::string body;
  std::string statusLine = "HTTP/1.1 200 OK";
  std::optional<verify::ViolationKind> kind;
  const auto q = path.find("kind=");
  if (q != std::string_view::npos) {
    auto value = path.substr(q + 5);
    const auto amp = value.find('&');
    if (amp != std::string_view::npos) value = value.substr(0, amp);
    kind = verify::ParseViolationKind(value);
  }
  if (kind) {
    monitor_->InjectFault(*kind);
    body = std::string("armed ") + verify::ViolationKindName(*kind) + "\n";
  } else {
    statusLine = "HTTP/1.1 400 Bad Request";
    body = "usage: /inject?kind=order|gap|duplicate|backpressure|metrics\n";
  }
  std::string response = statusLine +
                         "\r\n"
                         "Content-Type: text/plain\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) +
                         "\r\n"
                         "Connection: close\r\n"
                         "\r\n" +
                         body;
  Send(*session, CopyToWire(AsBytes(response)));
  session->conn->CloseAfterFlush();
}

void Server::FailSession(const SessionPtr& session, const Status& status) {
  MD_DEBUG("closing session %llu: %s",
           static_cast<unsigned long long>(session->handle),
           status.ToString().c_str());
  m_.protoErrors.Inc();
  session->conn->Close();
}

void Server::OnClosed(const SessionPtr& session) {
  if (!session->open.exchange(false)) return;
  m_.active.Add(-1);
  slow_.LeaveOverSoft(*session);  // close handler runs on the session's IoThread
  // Let the session's Worker clean up subscriptions in order with any frames
  // still queued ahead.
  Worker& worker = *workers_[session->workerIndex];
  if (!worker.queue.TryPush(Job{session, std::nullopt}).ok()) {
    DropSession(session);  // queue closed/full during shutdown: clean inline
  }
}

// ---------------------------------------------------------------------------
// Logic layer (runs on Workers)
// ---------------------------------------------------------------------------

void Server::WorkerMain(std::size_t index) {
  Worker& worker = *workers_[index];
  std::vector<Job> batch;
  batch.reserve(256);
  while (true) {
    batch.clear();
    if (worker.queue.PopBatchBlocking(batch, 256) == 0) return;  // closed+drained
    for (Job& job : batch) {
      if (!job.frame) {
        DropSession(job.session);
      } else {
        HandleFrame(worker, job.session, *job.frame);
      }
    }
    // The batch is the flush boundary: one hand-off per IoThread, however
    // many acks and fan-outs the batch produced.
    for (std::size_t io = 0; io < worker.outboxes.size(); ++io) {
      FlushOutbox(worker, io);
    }
  }
}

void Server::HandleFrame(Worker& w, const SessionPtr& session,
                         const Frame& frame) {
  if (const auto* connect = std::get_if<ConnectFrame>(&frame)) {
    session->clientId = connect->clientId;
    Reply(w, session, ConnAckFrame{cfg_.serverId});
    return;
  }
  if (const auto* sub = std::get_if<SubscribeFrame>(&frame)) {
    HandleSubscribe(w, session, *sub);
    return;
  }
  if (const auto* unsub = std::get_if<UnsubscribeFrame>(&frame)) {
    registry_.Unsubscribe(unsub->topic, session->handle);
    if (monitor_) monitor_->Forget(session->handle, unsub->topic);
    return;
  }
  if (const auto* pub = std::get_if<PublishFrame>(&frame)) {
    HandlePublish(w, session, *pub);
    return;
  }
  if (const auto* ping = std::get_if<PingFrame>(&frame)) {
    Reply(w, session, PongFrame{ping->nonce});
    return;
  }
  // Closes go through the outbox too: they run on the session's IoThread,
  // after the frames this Worker queued for it earlier.
  if (std::get_if<DisconnectFrame>(&frame) == nullptr) {
    // Cluster frames are not valid on a single-node client port.
    MD_DEBUG("closing session %llu: unexpected frame type",
             static_cast<unsigned long long>(session->handle));
    m_.protoErrors.Inc();
  }
  Enqueue(w, session, Egress{.kind = EgressKind::kClose});
}

void Server::HandleSubscribe(Worker& w, const SessionPtr& session,
                             const SubscribeFrame& sub) {
  registry_.Subscribe(sub.topic, session->handle);
  // A (re)subscribe starts a fresh logical stream — the resume backfill may
  // legitimately replay positions an earlier subscription already emitted.
  if (monitor_) monitor_->Forget(session->handle, sub.topic);
  Reply(w, session, SubAckFrame{sub.topic, true});
  if (!sub.hasResumePos) return;
  // Recovery: replay everything cached after the client's last position.
  for (const Message& missed : cache_.GetAfter(sub.topic, sub.resumeAfter)) {
    m_.delivered.Inc();
    if (monitor_) {
      monitor_->OnDelivery(session->handle, missed.topic, PosOf(missed),
                           missed.pubId);
    }
    Reply(w, session, DeliverFrame{missed});
  }
  // Live fan-out from other Workers may reach this session from the moment
  // it entered the registry; hand the backfill over now rather than at the
  // end of the batch, so it is not overtaken (the client drops replayed
  // positions below one it has already seen).
  FlushOutbox(w, session->ioIndex);
}

void Server::HandlePublish(Worker& w, const SessionPtr& session,
                           const PublishFrame& pub) {
  const obs::TraceKey traceKey{pub.pubId.clientHash, pub.pubId.counter};
  tracer_.Begin(traceKey);

  const std::uint32_t group = cache_.GroupOf(pub.topic);
  const auto pos = sequencer_.Assign(group, pub.topic);
  if (!pos) {
    tracer_.Discard(traceKey);
    if (pub.wantAck) {
      Reply(w, session, PubAckFrame{pub.pubId, PubAckCode::kFailed});
    }
    return;
  }
  tracer_.Stamp(traceKey, obs::Stage::kSequenced);

  Message msg;
  msg.topic = pub.topic;
  msg.payload = pub.payload;
  msg.epoch = pos->epoch;
  msg.seq = pos->seq;
  msg.pubId = pub.pubId;
  msg.publishTs = pub.publishTs;
  cache_.Append(msg, RealClock::Instance().Now());
  tracer_.Stamp(traceKey, obs::Stage::kCached);
  m_.published.Inc();

  // Acknowledge after the message is durably cached (single-node guarantee;
  // the cluster version acks after replication to 2 servers — see
  // src/cluster).
  if (pub.wantAck) Reply(w, session, PubAckFrame{pub.pubId, PubAckCode::kOk});

  // Fan-out: grab the topic's CoW subscriber snapshot (lock-brief shared_ptr
  // copy) and resolve handles through the sharded session table.
  const SubscriberSnapshot subscribers = registry_.Snapshot(pub.topic);
  if (!subscribers || subscribers->empty()) {
    tracer_.Discard(traceKey);
    return;
  }
  std::vector<SessionPtr>& live = w.fanout;
  for (const ClientHandle h : *subscribers) {
    SessionPtr target = FindSession(h);
    if (!target || !target->open.load(std::memory_order_relaxed)) continue;
    live.push_back(std::move(target));
  }
  if (live.empty()) {
    tracer_.Discard(traceKey);  // every subscriber already closed
    return;
  }
  tracer_.Stamp(traceKey, obs::Stage::kFannedOut);

  if (cfg_.enableConflation) {
    // Conflation works on messages, so encoding happens per emission (the
    // delivered counter advances there as suppressed duplicates are
    // intentionally never delivered). Emission is decoupled from this
    // publish, so its trace ends here.
    tracer_.Discard(traceKey);
    const Egress offer{.kind = EgressKind::kOfferConflated,
                       .msg = std::make_shared<const Message>(std::move(msg))};
    for (const SessionPtr& target : live) Enqueue(w, target, offer);
    live.clear();
    return;
  }

  const Frame deliver{DeliverFrame{std::move(msg)}};
  const Message& delivered = std::get<DeliverFrame>(deliver).msg;

  // Encode once per transport flavour present among the targets; every
  // subscriber on every IoThread queues a reference to the same bytes. The
  // first live socket write finalizes the trace (first-subscriber latency).
  std::array<Egress, Session::kModeCount> frames{};
  std::optional<obs::TraceKey> trace = traceKey;
  for (const SessionPtr& target : live) {
    const auto mode = static_cast<std::size_t>(target->CurrentMode());
    Egress& frame = frames[mode];
    if (!frame.wire) {
      auto bytes = AcquireWireBuffer();
      EncodeForMode(deliver, static_cast<std::uint8_t>(mode), *bytes);
      frame = Egress{.wire = std::move(bytes)};
    }
    if (monitor_) {
      monitor_->OnDelivery(target->handle, delivered.topic, PosOf(delivered),
                           delivered.pubId);
    }
    Enqueue(w, target, frame, std::exchange(trace, std::nullopt));
  }
  m_.delivered.Inc(live.size());
  live.clear();
}

void Server::DropSession(const SessionPtr& session) {
  // DropClient purges the registry's reverse index and any emptied topic
  // entries, so churn leaves no interned-topic back-references behind.
  registry_.DropClient(session->handle);
  sessions_.Erase(session->handle);
}

// ---------------------------------------------------------------------------
// Worker -> IoThread hand-off, then the send path (IoThread only)
// ---------------------------------------------------------------------------

void Server::Reply(Worker& w, const SessionPtr& session, const Frame& frame) {
  auto wire = AcquireWireBuffer();
  EncodeForMode(frame, static_cast<std::uint8_t>(session->CurrentMode()), *wire);
  Enqueue(w, session, Egress{.wire = std::move(wire)});
}

void Server::Enqueue(Worker& w, const SessionPtr& target, const Egress& frame,
                     std::optional<obs::TraceKey> trace) {
  Outbox& box = w.outboxes[target->ioIndex];
  const auto at = static_cast<std::uint32_t>(box.targets.size());
  box.targets.push_back(target);
  if (!trace && !box.entries.empty()) {
    Egress& last = box.entries.back();
    if (last.end == at && last.kind == frame.kind && last.wire == frame.wire &&
        last.msg == frame.msg) {
      last.end = at + 1;
      return;
    }
  }
  Egress& entry = box.entries.emplace_back(frame);
  entry.begin = at;
  entry.end = at + 1;
  entry.trace = trace;
}

void Server::FlushOutbox(Worker& w, std::size_t io) {
  Outbox& box = w.outboxes[io];
  if (box.entries.empty()) return;
  auto batch = std::make_shared<const Outbox>(std::move(box));
  box.targets.clear();  // moved-from: make the empty state explicit
  box.entries.clear();
  ioThreads_[io]->loop->Post([this, batch] { WriteOutbox(*batch); });
}

void Server::WriteOutbox(const Outbox& box) {
  // All writes funnel through the session's IoThread: the connection, the
  // batcher and the conflator are only ever touched here.
  for (const Egress& e : box.entries) {
    bool stamped = false;
    for (std::uint32_t i = e.begin; i < e.end; ++i) {
      const SessionPtr& s = box.targets[i];
      if (!s->open.load(std::memory_order_relaxed)) continue;
      if (e.kind == EgressKind::kClose) {
        s->conn->Close();
      } else if (e.kind == EgressKind::kOfferConflated) {
        OfferConflatedOnLoop(s, *e.msg);
      } else {
        WriteOut(s, e.wire);
        if (e.trace && !stamped) {
          tracer_.Stamp(*e.trace, obs::Stage::kSocketWritten);
          stamped = true;
        }
      }
    }
    if (e.trace && !stamped) tracer_.Discard(*e.trace);  // all closed meanwhile
  }
}

void Server::WriteOut(const SessionPtr& session, WireBuffer wire) {
  if (!session->batcher) {
    Send(*session, std::move(wire));
    return;
  }
  // The batcher coalesces frames into its own buffer; its flush copies them
  // into one wire buffer and sends that.
  session->batcher->Enqueue(BytesView(*wire), session->loop->Now());
  if (!session->flushTimerArmed && session->batcher->PendingBytes() > 0) {
    session->flushTimerArmed = true;
    session->loop->ScheduleTimer(cfg_.batch.maxDelay,
                                 [this, session] { FlushBatch(session); });
  }
}

void Server::Send(Session& session, WireBuffer wire) {
  const std::size_t size = wire->size();
  if (slow_.Send(session, std::move(wire))) m_.bytesOut.Inc(size);
}

void Server::OfferConflatedOnLoop(const SessionPtr& session, const Message& msg) {
  if (!session->open.load(std::memory_order_relaxed) || !session->conflator) {
    return;
  }
  session->conflator->Offer(msg, session->loop->Now());
  if (!session->conflateTimerArmed) {
    session->conflateTimerArmed = true;
    session->loop->ScheduleTimer(cfg_.conflate.interval,
                                 [this, session] { FlushConflator(session); });
  }
}

void Server::FlushConflator(const SessionPtr& session) {
  session->conflateTimerArmed = false;
  if (!session->open.load(std::memory_order_relaxed) || !session->conflator) return;
  session->conflator->OnTime(session->loop->Now());
  if (const auto deadline = session->conflator->Deadline()) {
    session->conflateTimerArmed = true;
    session->loop->ScheduleTimer(*deadline - session->loop->Now(),
                                 [this, session] { FlushConflator(session); });
  }
}

void Server::FlushBatch(const SessionPtr& session) {
  session->flushTimerArmed = false;
  if (!session->open.load(std::memory_order_relaxed) || !session->batcher) return;
  session->batcher->OnTime(session->loop->Now());
  if (const auto deadline = session->batcher->Deadline()) {
    session->flushTimerArmed = true;
    session->loop->ScheduleTimer(*deadline - session->loop->Now(),
                                 [this, session] { FlushBatch(session); });
  }
}

}  // namespace md::core
