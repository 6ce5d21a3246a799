#include "core/server.hpp"

#include <utility>

#include "common/logging.hpp"

namespace md::core {
namespace {

/// The topic of a PUBLISH, SUBSCRIBE or UNSUBSCRIBE; nullptr for other verbs.
const std::string* TopicOf(const Frame& frame) {
  if (const auto* pub = std::get_if<PublishFrame>(&frame)) return &pub->topic;
  if (const auto* sub = std::get_if<SubscribeFrame>(&frame)) return &sub->topic;
  if (const auto* unsub = std::get_if<UnsubscribeFrame>(&frame)) return &unsub->topic;
  return nullptr;
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
      stages_(metrics_),
      monitor_(verify::MakeHostMonitor(cfg_.runtimeVerify, cfg_.verifyConfig,
                                       cfg_.serverId, metrics_)),
      owners_(cfg_.cache.topicGroups),
      cache_(cfg_.cache),
      door_(metrics_,
            {.labels = obs::ServerLabel(cfg_.serverId),
             .backpressure = cfg_.backpressure,
             .batch = cfg_.enableBatching ? std::optional(cfg_.batch) : std::nullopt,
             .monitor = monitor_.get(),
             .injectEndpoint = cfg_.verifyInjectEndpoint},
            {.onFrame = [this](const SessionPtr& s, Frame&& f) {
               return OnFrame(s, std::move(f));
             },
             .onClosed = [this](const SessionPtr& s) { OnClosed(s); }}) {
  // Pre-register the full schema so GET /metrics exposes every family from
  // the first scrape, not just the ones that have seen traffic.
  obs::RegisterStandardFamilies(metrics_);
  if (cfg_.ioThreads < 1) cfg_.ioThreads = 1;
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (!cfg_.wal.dir.empty()) {
    wal_ = std::make_unique<wal::Log>(wal::PosixEnv::Instance(), cfg_.wal, &wm_);
    cache_.AttachWal(wal_.get());
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.exchange(true)) return Err(ErrorCode::kAlreadyExists, "running");

  // Replay the WAL before anything can publish: the cache regains its
  // history and the sequencer resumes AFTER the newest recovered position
  // per topic (re-issuing a durable position would fork the stream).
  if (wal_) {
    walRecovery_ = wal_->Recover(
        [this](Message&& msg) { cache_.InsertRecovered(msg); });
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

  for (int i = 0; i < cfg_.ioThreads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->loop = std::make_unique<EpollLoop>();
    io->loop->SetMetrics(&tm_);
    auto listener = io->loop->Listen(boundPort_ != 0 ? boundPort_ : cfg_.port);
    if (!listener.ok()) {
      running_.store(false);
      return listener.status();
    }
    io->listener = std::move(*listener);
    boundPort_ = io->listener->Port();
    io->listener->SetAcceptHandler(
        [this, index = static_cast<std::size_t>(i),
         loop = io->loop.get()](ConnectionPtr conn) {
          door_.Accept(*loop, index, std::move(conn));
        });
    ioThreads_.push_back(std::move(io));
  }
  // Every listener is bound: no error return remains, so the group-commit
  // sync thread starts here and Stop() always joins it.
  if (wal_ && cfg_.wal.fsync == wal::FsyncPolicy::kGroupCommit) {
    walSyncer_ =
        std::jthread([this](std::stop_token stop) { wal_->SyncLoop(stop); });
  }
  // Workers exist before any IoThread runs: the front door's sink hands
  // frames to them from the first accepted connection on.
  for (int i = 0; i < cfg_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = static_cast<std::uint32_t>(i);
    worker->outboxes.resize(ioThreads_.size());
    workers_.push_back(std::move(worker));
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerMain(i); });
  }
  for (auto& io : ioThreads_) {
    io->thread = std::thread([loop = io->loop.get()] { loop->Run(); });
  }

  MD_INFO("server %s listening on port %u (%d io threads, %d workers)",
          cfg_.serverId.c_str(), boundPort_, cfg_.ioThreads, cfg_.workers);
  return OkStatus();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  if (walSyncer_.joinable()) {
    walSyncer_.request_stop();
    walSyncer_.join();
  }
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& io : ioThreads_) io->loop->Stop();
  for (auto& io : ioThreads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  door_.Clear();
  workers_.clear();
  ioThreads_.clear();
  if (wal_) wal_->Close();  // clean shutdown: everything synced on disk
}

ServerStats Server::Stats() const {
  door_.RefreshBytesPerSession();
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
// Front-door sink (runs on IoThreads)
// ---------------------------------------------------------------------------

Status Server::OnFrame(const SessionPtr& session, Frame&& frame) {
  if (const auto* connect = std::get_if<ConnectFrame>(&frame)) {
    // Answered here, before any later frame of the session reaches a Worker:
    // the ConnAck precedes every reply, whichever Worker sends it.
    session->clientId = connect->clientId;
    auto wire = AcquireWireBuffer();
    EncodeForMode(ConnAckFrame{cfg_.serverId}, session->CurrentMode(), *wire);
    door_.WriteOut(session, std::move(wire));
    return OkStatus();
  }
  if (!WorkerOf(*session).queue.TryPush(Job{.session = session,
                                            .frame = std::move(frame)})
           .ok()) {
    // Worker overloaded: shed this client rather than buffer unboundedly.
    return Err(ErrorCode::kCapacity, "worker queue full");
  }
  return OkStatus();
}

void Server::OnClosed(const SessionPtr& session) {
  // Let the session's Worker clean up subscriptions in order with any frames
  // still queued ahead.
  if (!WorkerOf(*session)
           .queue.TryPush(Job{.kind = JobKind::kClosed, .session = session})
           .ok()) {
    // Queue closed/full during shutdown: clean inline.
    registry_.DropClient(session->handle);
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
      switch (job.kind) {
        case JobKind::kFrame:
          HandleFrame(worker, job);
          break;
        case JobKind::kClosed:
          CloseSession(worker, job.session);
          break;
        case JobKind::kDisconnect:
          FinishDisconnect(worker, job.session, *job.unflushed);
          break;
      }
    }
    // The batch is the flush boundary: one hand-off per IoThread, however
    // many acks and fan-outs the batch produced.
    for (std::size_t io = 0; io < worker.outboxes.size(); ++io) {
      FlushOutbox(worker, io);
    }
  }
}

Server::Worker& Server::OwnerOf(Worker& w, std::uint32_t group, bool claim) {
  std::atomic<std::uint32_t>& owner = owners_[group];
  std::uint32_t current = owner.load();
  if (current == 0 && claim && owner.compare_exchange_strong(current, w.index + 1)) {
    current = w.index + 1;
  }
  return current == 0 ? w : *workers_[current - 1];
}

void Server::HandleFrame(Worker& w, Job& job) {
  const SessionPtr& session = job.session;
  const Frame& frame = *job.frame;
  // A topic verb runs on its group's owner. The session's Worker passes it
  // on in arrival order, so the owner sees one session's verbs in the order
  // the client sent them.
  std::uint32_t group = 0;
  if (const std::string* topic = TopicOf(frame)) {
    group = cache_.GroupOf(*topic);
    Worker& owner =
        OwnerOf(w, group, /*claim=*/std::holds_alternative<PublishFrame>(frame));
    if (&owner != &w) {
      PassOn(w, owner, std::move(job));
      return;
    }
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
    HandlePublish(w, session, group, *pub);
    return;
  }
  if (const auto* ping = std::get_if<PingFrame>(&frame)) {
    Reply(w, session, PongFrame{ping->nonce});
    return;
  }
  // DISCONNECT, the one verb left here (the IoThread answers CONNECT; the
  // front door rejects every other frame).
  Disconnect(w, session);
}

void Server::PassOn(Worker& w, Worker& owner, Job&& job) {
  const SessionPtr session = job.session;
  if (!owner.queue.TryPush(std::move(job)).ok()) {
    // Owner overloaded: shed this client, as OnFrame does when the client's
    // own Worker is full.
    Enqueue(w, session, Egress{.kind = EgressKind::kCloseAfterFlush});
  }
}

void Server::Disconnect(Worker& w, const SessionPtr& session) {
  // Every Worker this session passed a verb to may still hold its replies.
  // The close waits for all of them: each Worker takes its share behind the
  // frames queued on it before, and the last one queues the close.
  auto unflushed = std::make_shared<std::atomic<std::size_t>>(workers_.size());
  for (const auto& other : workers_) {
    if (other.get() == &w) continue;
    if (!other->queue
             .TryPush(Job{.kind = JobKind::kDisconnect,
                          .session = session,
                          .unflushed = unflushed})
             .ok()) {
      --*unflushed;  // shutting down
    }
  }
  FinishDisconnect(w, session, *unflushed);
}

void Server::FinishDisconnect(Worker& w, const SessionPtr& session,
                              std::atomic<std::size_t>& unflushed) {
  // Hand over what this Worker queued for the session before counting
  // down: the last Worker's close is posted after every other Worker's
  // frames, and runs on the session's IoThread behind them.
  FlushOutbox(w, session->ioIndex);
  if (--unflushed == 0) {
    Enqueue(w, session, Egress{.kind = EgressKind::kCloseAfterFlush});
  }
}

void Server::CloseSession(Worker& w, const SessionPtr& session) {
  // DropClient purges the registry's reverse index and any emptied topic
  // entries, so churn leaves no interned-topic back-references behind.
  registry_.DropClient(session->handle);
  if (&w != &WorkerOf(*session)) return;
  // A SUBSCRIBE this session passed on may still wait on its owner: every
  // other Worker drops the session again, behind whatever it was passed.
  for (const auto& other : workers_) {
    if (other.get() == &w) continue;
    (void)other->queue.TryPush(
        Job{.kind = JobKind::kClosed, .session = session});
  }
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
  // A group no PUBLISH has claimed yet runs its SUBSCRIBE here, and a
  // PUBLISH may claim it for another Worker at any moment: live fan-out
  // from there may reach this session from the moment it entered the
  // registry. Hand the backfill over now rather than at the end of the
  // batch, so it is not overtaken (the client drops replayed positions below
  // one it has already seen).
  FlushOutbox(w, session->ioIndex);
}

void Server::HandlePublish(Worker& w, const SessionPtr& session,
                           std::uint32_t group, const PublishFrame& pub) {
  // The stamps travel with the first delivery and are recorded at its first
  // live socket write; a publication that never gets there records nothing.
  obs::StageTimes times;
  times.Stamp(obs::Stage::kPublishReceived);

  const auto pos = sequencer_.Assign(group, pub.topic);
  if (!pos) {
    if (pub.wantAck) {
      Reply(w, session, PubAckFrame{pub.pubId, PubAckCode::kFailed});
    }
    return;
  }
  times.Stamp(obs::Stage::kSequenced);

  Message msg;
  msg.topic = pub.topic;
  msg.payload = pub.payload;
  msg.epoch = pos->epoch;
  msg.seq = pos->seq;
  msg.pubId = pub.pubId;
  msg.publishTs = pub.publishTs;
  cache_.Append(msg, RealClock::Instance().Now());
  times.Stamp(obs::Stage::kCached);
  m_.published.Inc();

  // Acknowledge after the message is durably cached (single-node guarantee;
  // the cluster version acks after replication to 2 servers — see
  // src/cluster).
  if (pub.wantAck) Reply(w, session, PubAckFrame{pub.pubId, PubAckCode::kOk});

  // Fan-out: grab the topic's CoW subscriber snapshot (lock-brief shared_ptr
  // copy) and resolve handles through the sharded session table.
  const SubscriberSnapshot subscribers = registry_.Snapshot(pub.topic);
  if (!subscribers || subscribers->empty()) return;
  std::vector<SessionPtr>& live = w.fanout;
  for (const ClientHandle h : *subscribers) {
    SessionPtr target = door_.Find(h);
    if (!target || !target->open.load(std::memory_order_relaxed)) continue;
    live.push_back(std::move(target));
  }
  if (live.empty()) return;  // every subscriber already closed
  times.Stamp(obs::Stage::kFannedOut);

  if (cfg_.enableConflation) {
    // Conflation works on messages, so encoding happens per emission (the
    // delivered counter advances there as suppressed duplicates are
    // intentionally never delivered). Emission is decoupled from this
    // publish, so it is not traced.
    const Egress offer{.kind = EgressKind::kOfferConflated,
                       .msg = std::make_shared<const Message>(std::move(msg))};
    for (const SessionPtr& target : live) Enqueue(w, target, offer);
    live.clear();
    return;
  }

  // Encode once per transport flavour present among the targets; every
  // subscriber on every IoThread queues a reference to the same bytes. The
  // first live socket write records the stages (first-subscriber latency).
  std::array<Egress, Session::kModeCount> frames{};
  const obs::StageTimes* trace = &times;
  for (const SessionPtr& target : live) {
    const Session::Mode mode = target->CurrentMode();
    Egress& frame = frames[static_cast<std::size_t>(mode)];
    if (!frame.wire) {
      auto bytes = AcquireWireBuffer();
      EncodeDeliverForMode(msg, mode, *bytes);
      frame = Egress{.wire = std::move(bytes)};
    }
    if (monitor_) {
      monitor_->OnDelivery(target->handle, msg.topic, PosOf(msg), msg.pubId);
    }
    Enqueue(w, target, frame, std::exchange(trace, nullptr));
  }
  m_.delivered.Inc(live.size());
  live.clear();
}

// ---------------------------------------------------------------------------
// Worker -> IoThread hand-off, then conflation (IoThread only)
// ---------------------------------------------------------------------------

void Server::Reply(Worker& w, const SessionPtr& session, const Frame& frame) {
  auto wire = AcquireWireBuffer();
  EncodeForMode(frame, session->CurrentMode(), *wire);
  Enqueue(w, session, Egress{.wire = std::move(wire)});
}

void Server::Enqueue(Worker& w, const SessionPtr& target, const Egress& frame,
                     const obs::StageTimes* trace) {
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
  if (trace) entry.trace = *trace;
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
    bool recorded = false;
    for (std::uint32_t i = e.begin; i < e.end; ++i) {
      const SessionPtr& s = box.targets[i];
      if (!s->open.load(std::memory_order_relaxed)) continue;
      if (e.kind == EgressKind::kCloseAfterFlush) {
        door_.CloseAfterFlush(s);
      } else if (e.kind == EgressKind::kOfferConflated) {
        OfferConflatedOnLoop(s, *e.msg);
      } else {
        door_.WriteOut(s, e.wire);
        if (e.trace && !recorded) {
          obs::StageTimes times = *e.trace;
          times.Stamp(obs::Stage::kSocketWritten);
          stages_.Record(times);
          recorded = true;
        }
      }
    }
  }
}

void Server::OfferConflatedOnLoop(const SessionPtr& session, const Message& msg) {
  if (!session->conflator) {
    // Emits the newest message per topic at each window close. This is the
    // delivery path for every session, and `delivered` advances per
    // emission (suppressed duplicates never count).
    session->conflator = std::make_unique<Conflator>(
        cfg_.conflate, [this, weak = std::weak_ptr<Session>(session)](const Message& m) {
          auto s = weak.lock();
          if (!s || !s->open.load(std::memory_order_relaxed)) return;
          auto wire = AcquireWireBuffer();
          EncodeDeliverForMode(m, s->CurrentMode(), *wire);
          m_.delivered.Inc();
          door_.WriteOut(s, std::move(wire));
        });
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

}  // namespace md::core
