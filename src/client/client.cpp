#include "client/client.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "proto/http_stream.hpp"

namespace md::client {

Client::Client(EventLoop& loop, ClientConfig cfg)
    : loop_(loop), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  clientHash_ = Fnv1a64(cfg_.clientId);
}

Client::~Client() { Stop(); }

void Client::Start() {
  if (state_ != State::kIdle && state_ != State::kStopped) return;
  state_ = State::kIdle;
  ConnectToSomeServer();
}

void Client::Stop() {
  state_ = State::kStopped;
  for (auto& [counter, pending] : pendingPublishes_) {
    loop_.CancelTimer(pending.retryTimer);
    if (pending.onAck) pending.onAck(Err(ErrorCode::kClosed, "client stopped"));
  }
  pendingPublishes_.clear();
  if (conn_) {
    conn_->SetCloseHandler(nullptr);
    conn_->Close();
    conn_.reset();
  }
}

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

std::optional<std::size_t> Client::PickServer() {
  // A HANDOFF redirect names the new partition owner explicitly; honor it
  // once (even if blacklisted — the redirect is authoritative and fresher
  // than any blacklist entry), then fall back to weighted random.
  if (!handoffTargetId_.empty()) {
    const std::string target = std::move(handoffTargetId_);
    handoffTargetId_.clear();
    for (std::size_t i = 0; i < cfg_.servers.size(); ++i) {
      if (cfg_.servers[i].id == target) {
        blacklist_.erase(i);
        return i;
      }
    }
  }
  const TimePoint now = loop_.Now();
  // Expire blacklist entries ("previously-failed servers are periodically
  // removed from the client blacklist", §5.2.3).
  for (auto it = blacklist_.begin(); it != blacklist_.end();) {
    it = it->second <= now ? blacklist_.erase(it) : std::next(it);
  }

  double totalWeight = 0;
  for (std::size_t i = 0; i < cfg_.servers.size(); ++i) {
    if (!blacklist_.contains(i)) totalWeight += cfg_.servers[i].weight;
  }
  if (totalWeight <= 0) {
    // Everything blacklisted: clear and retry the full list rather than
    // stalling (a restarted server reuses its address, §5.1).
    blacklist_.clear();
    for (const auto& s : cfg_.servers) totalWeight += s.weight;
    if (totalWeight <= 0) return std::nullopt;
  }

  double pick = rng_.NextDouble() * totalWeight;
  for (std::size_t i = 0; i < cfg_.servers.size(); ++i) {
    if (blacklist_.contains(i)) continue;
    pick -= cfg_.servers[i].weight;
    if (pick <= 0) return i;
  }
  for (std::size_t i = cfg_.servers.size(); i-- > 0;) {
    if (!blacklist_.contains(i)) return i;
  }
  return std::nullopt;
}

void Client::ConnectToSomeServer() {
  if (state_ == State::kStopped) return;
  const auto pick = PickServer();
  if (!pick) {
    MD_WARN("client %s: no servers configured", cfg_.clientId.c_str());
    return;
  }
  currentServer_ = pick;
  state_ = State::kConnecting;
  const ServerAddress& addr = cfg_.servers[*pick];
  loop_.Connect(addr.host, addr.port, [this](Result<ConnectionPtr> r) {
    if (state_ == State::kStopped) return;
    if (!r.ok()) {
      OnConnectionLost();
      return;
    }
    OnConnected(std::move(r).value());
  });
}

void Client::OnConnected(ConnectionPtr conn) {
  conn_ = std::move(conn);
  in_.Clear();
  conn_->SetDataHandler([this](BytesView data) { OnData(data); });
  conn_->SetCloseHandler([this] { OnConnectionLost(); });
  // A paused client stays paused across reconnects (chaos fault windows span
  // the eviction + reconnect cycle they are meant to exercise).
  if (readPaused_) conn_->SetReadPaused(true);

  const ServerAddress& addr = cfg_.servers[*currentServer_];
  switch (cfg_.transport) {
    case Transport::kWebSocket: {
      state_ = State::kWsHandshake;
      wsKey_ = ws::GenerateKey(rng_);
      (void)conn_->Send(ToWire(ws::BuildClientHandshake(
          addr.host + ":" + std::to_string(addr.port), "/", wsKey_)));
      break;
    }
    case Transport::kHttpStream: {
      state_ = State::kHttpHandshake;
      (void)conn_->Send(ToWire(http::BuildStreamRequest(
          addr.host + ":" + std::to_string(addr.port))));
      break;
    }
    case Transport::kRawFraming:
      state_ = State::kEstablished;
      OnEstablished();
      break;
  }
}

void Client::OnConnectionLost() {
  if (state_ == State::kStopped) return;
  ++connGen_;
  awaitingPong_ = false;
  const bool wasEstablished = state_ == State::kEstablished;
  if (conn_) {
    conn_->SetCloseHandler(nullptr);
    conn_->Close();
    conn_.reset();
  }
  // Blacklist the failed server temporarily (§5.2.3).
  if (currentServer_ && cfg_.servers.size() > 1) {
    blacklist_[*currentServer_] = loop_.Now() + cfg_.blacklistTtl;
  }
  if (wasEstablished && connectionListener_) connectionListener_(false);
  state_ = State::kIdle;
  serverId_.clear();
  if (cfg_.autoReconnect) ScheduleReconnect();
}

Duration Client::ComputeReconnectDelay(const ClientConfig& cfg, int attempt,
                                       Rng& rng) {
  if (cfg.reconnectPolicy == ReconnectPolicy::kRandomWait) {
    // "a random wait between reconnection intervals" (§5.2.3).
    return static_cast<Duration>(
        rng.NextBelow(static_cast<std::uint64_t>(cfg.randomWaitMax)));
  }
  // "a truncated exponential back-off strategy" (§5.2.3), with full jitter.
  Duration ceiling = cfg.backoffBase;
  for (int i = 1; i < attempt && ceiling < cfg.backoffMax; ++i) ceiling *= 2;
  ceiling = std::min(ceiling, cfg.backoffMax);
  return static_cast<Duration>(
      rng.NextBelow(static_cast<std::uint64_t>(ceiling) + 1));
}

void Client::ScheduleReconnect() {
  ++reconnectAttempts_;
  ++stats_.reconnects;
  const Duration delay = ComputeReconnectDelay(cfg_, reconnectAttempts_, rng_);
  loop_.ScheduleTimer(delay, [this] {
    if (state_ == State::kIdle) ConnectToSomeServer();
  });
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

void Client::OnData(BytesView data) {
  in_.Append(data);

  if (state_ == State::kWsHandshake) {
    auto r = ws::ParseServerHandshakeResponse(in_, wsKey_);
    if (!r.status.ok()) {
      MD_WARN("client %s: websocket handshake failed: %s", cfg_.clientId.c_str(),
              r.status.ToString().c_str());
      OnConnectionLost();
      return;
    }
    if (!r.complete) return;
    state_ = State::kEstablished;
    OnEstablished();
  }

  if (state_ == State::kHttpHandshake) {
    auto r = http::ParseStreamResponse(in_);
    if (!r.status.ok()) {
      MD_WARN("client %s: http stream rejected: %s", cfg_.clientId.c_str(),
              r.status.ToString().c_str());
      OnConnectionLost();
      return;
    }
    if (!r.complete) return;
    state_ = State::kEstablished;
    OnEstablished();
  }

  while (state_ == State::kEstablished) {
    std::optional<Frame> frame;
    if (cfg_.transport == Transport::kWebSocket) {
      auto r = ws::ExtractWsFrame(in_, /*expectMasked=*/false);
      if (!r.status.ok()) {
        OnConnectionLost();
        return;
      }
      if (!r.frame) break;
      if (r.frame->opcode == ws::Opcode::kPing) {
        auto pong = AcquireWireBuffer();
        ws::EncodeWsFrame(ws::Opcode::kPong, BytesView(r.frame->payload), *pong,
                          rng_.Next() & 0xFFFFFFFF);
        (void)conn_->Send(std::move(pong));
        continue;
      }
      if (r.frame->opcode == ws::Opcode::kClose) {
        OnConnectionLost();
        return;
      }
      if (r.frame->opcode != ws::Opcode::kBinary) continue;
      auto decoded = DecodeFrame(BytesView(r.frame->payload));
      if (!decoded.ok()) {
        OnConnectionLost();
        return;
      }
      frame = std::move(*decoded);
    } else if (cfg_.transport == Transport::kHttpStream) {
      auto r = http::ExtractChunk(in_);
      if (!r.status.ok() || r.endOfStream) {
        OnConnectionLost();
        return;
      }
      if (!r.payload) break;
      auto decoded = DecodeFrame(BytesView(*r.payload));
      if (!decoded.ok()) {
        OnConnectionLost();
        return;
      }
      frame = std::move(*decoded);
    } else {
      auto r = ExtractFrame(in_);
      if (!r.status.ok()) {
        OnConnectionLost();
        return;
      }
      if (!r.frame) break;
      frame = std::move(*r.frame);
    }
    HandleFrame(*frame);
  }
}

void Client::SendFrame(const Frame& frame) {
  if (!conn_ || state_ != State::kEstablished) return;
  // Encoded once into a pooled buffer and queued by reference, as the
  // hosts do; the loop's flush pass writes it.
  auto wire = AcquireWireBuffer();
  EncodeFrame(frame, *wire);
  switch (cfg_.transport) {
    case Transport::kWebSocket:
      // Client-to-server frames must be masked (RFC 6455 §5.3).
      ws::FrameInPlace(ws::Opcode::kBinary, *wire, 0,
                       static_cast<std::uint32_t>(rng_.Next()));
      break;
    case Transport::kHttpStream:
      http::ChunkInPlace(*wire, 0);
      break;
    case Transport::kRawFraming:
      PrefixVarintLength(*wire, 0);
      break;
  }
  (void)conn_->Send(std::move(wire));
}

void Client::OnEstablished() {
  reconnectAttempts_ = 0;
  ++connGen_;
  awaitingPong_ = false;
  if (cfg_.pingInterval > 0) SchedulePing();
  SendFrame(ConnectFrame{cfg_.clientId});
  // Re-subscribe everything, resuming after the last received position so
  // the server replays whatever we missed (§5.2.3).
  for (const auto& [topic, ts] : topics_) SendSubscribe(topic, ts);
  // Re-send unacknowledged publications (at-least-once).
  for (auto& [counter, pending] : pendingPublishes_) {
    SendPublish(pending);
    ++stats_.republishes;
  }
  if (connectionListener_) connectionListener_(true);
}

void Client::HandleFrame(const Frame& frame) {
  if (const auto* connAck = std::get_if<ConnAckFrame>(&frame)) {
    serverId_ = connAck->serverId;
    return;
  }
  if (const auto* deliver = std::get_if<DeliverFrame>(&frame)) {
    HandleDeliver(deliver->msg);
    return;
  }
  if (const auto* pubAck = std::get_if<PubAckFrame>(&frame)) {
    auto node = pendingPublishes_.extract(pubAck->pubId.counter);
    if (node.empty()) return;  // late/duplicate ack
    loop_.CancelTimer(node.mapped().retryTimer);
    if (pubAck->ok()) {
      if (node.mapped().onAck) node.mapped().onAck(OkStatus());
    } else if (pubAck->code == PubAckCode::kNoQuorum) {
      // Retryable rejection: the contact server sits in a partitioned
      // minority and refuses to sequence. Re-arm the ack timer without
      // resending — the retry lands after backoff, by which time the
      // partition has healed or reconnection moved us to the majority side.
      ++stats_.quorumRejects;
      PendingPublish pending = std::move(node.mapped());
      ArmAckTimer(pending);
      pendingPublishes_.emplace(pending.pubId.counter, std::move(pending));
    } else {
      // Publication failed (e.g. coordinator race, §5.2.2 footnote 3):
      // republish — guaranteed to eventually succeed via updated routing.
      PendingPublish pending = std::move(node.mapped());
      ++stats_.republishes;
      SendPublish(pending);
      ArmAckTimer(pending);
      pendingPublishes_.emplace(pending.pubId.counter, std::move(pending));
    }
    return;
  }
  if (const auto* handoff = std::get_if<HandoffFrame>(&frame)) {
    // Our subscriber partition moved. Adopt the transferred delivered-through
    // cursors for topics we hold no position on (our own lastPos is
    // authoritative when present — the server cursor can run ahead of bytes
    // dropped with the old connection, and skipping those would lose
    // messages), then reconnect straight to the new owner.
    ++stats_.handoffs;
    for (const auto& [topic, pos] : handoff->cursors) {
      const auto it = topics_.find(topic);
      if (it != topics_.end() && !it->second.lastPos) it->second.lastPos = pos;
    }
    handoffTargetId_ = handoff->targetServerId;
    if (handoffListener_) handoffListener_(*handoff);
    OnConnectionLost();
    return;
  }
  if (const auto* pong = std::get_if<PongFrame>(&frame)) {
    if (pong->nonce == pingNonce_) awaitingPong_ = false;
    return;
  }
  if (std::get_if<DisconnectFrame>(&frame) != nullptr) {
    // Server-initiated close (e.g. partition self-fencing): reconnect
    // elsewhere.
    OnConnectionLost();
    return;
  }
  if (const auto* subAck = std::get_if<SubAckFrame>(&frame)) {
    const auto it = topics_.find(subAck->topic);
    if (it != topics_.end() && subAck->ok && it->second.onSubscribed) {
      it->second.onSubscribed();
    }
    return;
  }
  // Pong and anything else: no action needed.
}

// ---------------------------------------------------------------------------
// Connection liveness (client-side failure detector, paper §5.2.3 / §6.2)
// ---------------------------------------------------------------------------

void Client::SchedulePing() {
  const std::uint64_t gen = connGen_;
  loop_.ScheduleTimer(cfg_.pingInterval, [this, gen] {
    if (gen != connGen_ || state_ != State::kEstablished) return;
    if (awaitingPong_) return;  // check timer already in flight
    awaitingPong_ = true;
    SendFrame(PingFrame{++pingNonce_});
    loop_.ScheduleTimer(cfg_.pongTimeout, [this, gen] {
      if (gen != connGen_ || state_ != State::kEstablished) return;
      if (awaitingPong_) {
        // Dead or unresponsive connection: force a reconnection elsewhere.
        MD_WARN("client %s: ping timeout, reconnecting", cfg_.clientId.c_str());
        OnConnectionLost();
        return;
      }
      SchedulePing();
    });
  });
}

// ---------------------------------------------------------------------------
// Subscribing
// ---------------------------------------------------------------------------

void Client::Subscribe(const std::string& topic, MessageHandler handler,
                       std::function<void()> onSubscribed) {
  TopicState& ts = topics_[topic];
  ts.handler = std::move(handler);
  ts.onSubscribed = std::move(onSubscribed);
  if (state_ == State::kEstablished) SendSubscribe(topic, ts);
}

void Client::SendSubscribe(const std::string& topic, const TopicState& ts) {
  SubscribeFrame sub;
  sub.topic = topic;
  if (ts.lastPos) {
    sub.hasResumePos = true;
    sub.resumeAfter = *ts.lastPos;
  }
  SendFrame(sub);
}

void Client::Unsubscribe(const std::string& topic) {
  if (topics_.erase(topic) > 0 && state_ == State::kEstablished) {
    SendFrame(UnsubscribeFrame{topic});
  }
}

bool Client::IsDuplicate(const Message& msg, TopicState& ts) {
  // Re-sequenced republications carry a fresh (epoch, seq) but the same
  // publication id — the id buffer catches those. A null id means the
  // origin did not stamp one; only position-based filtering applies then.
  if (msg.pubId != PublicationId{} && recentIds_.contains(msg.pubId)) return true;
  // Position-based filtering catches replayed prefixes after resume.
  if (ts.lastPos && PosOf(msg) <= *ts.lastPos) return true;
  return false;
}

void Client::RememberPubId(const PublicationId& id) {
  if (cfg_.dedupBufferSize == 0 || id == PublicationId{}) return;
  if (recentIds_.insert(id).second) {
    recentIdOrder_.push_back(id);
    while (recentIdOrder_.size() > cfg_.dedupBufferSize) {
      recentIds_.erase(recentIdOrder_.front());
      recentIdOrder_.pop_front();
    }
  }
}

void Client::HandleDeliver(const Message& msg) {
  auto it = topics_.find(msg.topic);
  if (it == topics_.end()) return;  // not subscribed (stale delivery)
  TopicState& ts = it->second;

  if (IsDuplicate(msg, ts)) {
    ++stats_.duplicatesFiltered;
    // A filtered duplicate is still a stream-position observation: a
    // re-sequenced duplicate occupies its own position, and the connection
    // delivers in order, so the cursor must advance past it — otherwise a
    // later resume (reconnect or hand-off) would fetch it yet again.
    if (!ts.lastPos || PosOf(msg) > *ts.lastPos) ts.lastPos = PosOf(msg);
    if (deliveryObserver_) deliveryObserver_(msg, /*duplicate=*/true);
    return;
  }
  RememberPubId(msg.pubId);
  if (ts.lastPos && msg.epoch == ts.lastPos->epoch &&
      msg.seq > ts.lastPos->seq + 1) {
    // A visible gap would mean the cache replay missed something; track it
    // as recovered-later when the missing piece arrives out of band. With
    // TCP ordering this should not occur; counted for observability.
    MD_DEBUG("client %s: gap on %s (%llu -> %llu)", cfg_.clientId.c_str(),
             msg.topic.c_str(),
             static_cast<unsigned long long>(ts.lastPos->seq),
             static_cast<unsigned long long>(msg.seq));
  }
  if (ts.lastPos && PosOf(msg) > *ts.lastPos && stats_.reconnects > 0 &&
      state_ == State::kEstablished) {
    // Heuristic: deliveries that advance past a pre-reconnect position right
    // after resume are recovered messages. Only counted, not acted upon.
  }
  ts.lastPos = PosOf(msg);
  ++stats_.messagesReceived;
  if (deliveryObserver_) deliveryObserver_(msg, /*duplicate=*/false);
  if (ts.handler) ts.handler(msg);
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

void Client::Publish(const std::string& topic, Bytes payload, AckHandler onAck) {
  PendingPublish pending;
  pending.topic = topic;
  pending.payload = std::move(payload);
  pending.pubId = {clientHash_, ++pubCounter_};
  pending.publishTs = loop_.Now();
  pending.onAck = std::move(onAck);

  SendPublish(pending);
  ArmAckTimer(pending);
  pendingPublishes_.emplace(pending.pubId.counter, std::move(pending));
}

void Client::PublishNoAck(const std::string& topic, Bytes payload) {
  PublishFrame pub;
  pub.topic = topic;
  pub.payload = std::move(payload);
  pub.pubId = {clientHash_, ++pubCounter_};
  pub.wantAck = false;
  pub.publishTs = loop_.Now();
  SendFrame(pub);
}

void Client::SendPublish(const PendingPublish& pending) {
  PublishFrame pub;
  pub.topic = pending.topic;
  pub.payload = pending.payload;
  pub.pubId = pending.pubId;
  pub.wantAck = true;
  pub.publishTs = pending.publishTs;
  SendFrame(pub);
}

void Client::ArmAckTimer(PendingPublish& pending) {
  const std::uint64_t counter = pending.pubId.counter;
  pending.retryTimer = loop_.ScheduleTimer(cfg_.ackTimeout, [this, counter] {
    const auto it = pendingPublishes_.find(counter);
    if (it == pendingPublishes_.end()) return;
    // No ack in time: republish (the service may deliver a duplicate, which
    // subscribers filter by publication id — §3).
    ++stats_.republishes;
    SendPublish(it->second);
    ArmAckTimer(it->second);
  });
}

}  // namespace md::client
