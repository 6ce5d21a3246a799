#include "cluster/node.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace md::cluster {

ClusterNode::ClusterNode(ClusterConfig cfg, ClusterEnv& env,
                         coord::CoordNode& coord, std::vector<std::string> peerIds)
    : cfg_([&] {
        cfg.cache.topicGroups = cfg.topicGroups;
        return cfg;
      }()),
      env_(env),
      coord_(coord),
      peers_(std::move(peerIds)),
      cache_(cfg_.cache),
      cm_(cfg_.metrics != nullptr ? *cfg_.metrics
                                  : obs::MetricsRegistry::Default(),
          obs::ServerLabel(cfg_.serverId)),
      wm_(cfg_.metrics != nullptr ? *cfg_.metrics
                                  : obs::MetricsRegistry::Default(),
          obs::ServerLabel(cfg_.serverId)) {
  if (!cfg_.wal.dir.empty()) {
    wal::Env& env = cfg_.walEnv != nullptr
                        ? *cfg_.walEnv
                        : static_cast<wal::Env&>(wal::PosixEnv::Instance());
    wal_ = std::make_unique<wal::Log>(env, cfg_.wal, &wm_);
    cache_.AttachWal(wal_.get());
  }
  if (cfg_.elastic) {
    quorum_ = Quorum(cfg_.minQuorumVotes);
    memberUniverse_ = peers_;
    memberUniverse_.push_back(cfg_.serverId);
    std::sort(memberUniverse_.begin(), memberUniverse_.end());
    for (const std::string& id : memberUniverse_) quorum_.AddNode(id);
  }
}

ClusterNodeStats ClusterNode::stats() const {
  ClusterNodeStats s;
  s.published = cm_.published.Value();
  s.forwarded = cm_.forwarded.Value();
  s.delivered = cm_.delivered.Value();
  s.rejects = cm_.rejects.Value();
  s.takeovers = cm_.takeovers.Value();
  s.fences = cm_.fences.Value();
  s.recoveredMessages = cm_.backfilled.Value();
  s.handoffs = cm_.handoffs.Value();
  s.handoffAborts = cm_.handoffAborts.Value();
  s.quorumRejects = cm_.quorumRejects.Value();
  s.fenceRefusals = cm_.fenceRefusals.Value();
  s.rebalances = cm_.rebalances.Value();
  return s;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void ClusterNode::Start() {
  started_ = true;
  crashed_ = false;
  fenced_ = false;
  SetupWatches();
  fenceTimer_ = env_.Schedule(cfg_.fenceCheckInterval, [this] { CheckFence(); });
  if (wal_ && wal_->config().fsync == wal::FsyncPolicy::kGroupCommit) {
    walFlushTimer_ =
        env_.Schedule(wal_->config().flushInterval, [this] { WalFlushTick(); });
  }
  if (cfg_.elastic) JoinMembership();
}

void ClusterNode::Crash() {
  crashed_ = true;
  started_ = false;
  env_.Cancel(fenceTimer_);
  env_.Cancel(walFlushTimer_);
  walFlushTimer_ = 0;
  // kill -9 semantics for the WAL: drop open segment handles WITHOUT a final
  // sync. Whatever the fsync policy left unsynced is at the storage layer's
  // mercy (the sim's MemEnv then tears it realistically).
  if (wal_) wal_->Abandon();
  // Fail-stop: every piece of volatile state disappears.
  for (const ClientHandle client : clients_) registry_.DropClient(client);
  clients_.clear();
  cache_.Clear();
  gossip_.clear();
  for (const std::uint32_t g : myGroups_) sequencer_.EndEpoch(g);
  myGroups_.clear();
  electing_.clear();
  parked_.clear();
  pendingContact_.clear();
  cm_.replicationPending.Add(-static_cast<std::int64_t>(pendingCoord_.size()));
  pendingCoord_.clear();
  syncing_.clear();
  for (const auto& [topic, timer] : gapStalled_) env_.Cancel(timer);
  gapStalled_.clear();
  deliveryCursor_.clear();
  fenceStart_ = -1;  // a crash supersedes any open fence span
  // Elastic state is volatile too: the next incarnation rejoins with a fresh
  // fence epoch and rebuilds its membership view from the coordination store.
  env_.Cancel(rebalanceTimer_);
  rebalanceTimer_ = 0;
  env_.Cancel(joinTimer_);
  joinTimer_ = 0;
  for (auto& [id, handoff] : outHandoffs_) env_.Cancel(handoff.timeoutTimer);
  outHandoffs_.clear();
  pendingAttach_.clear();
  clientIds_.clear();
  memberEpoch_.clear();
  peerEpochFloor_.clear();
  assignment_ = {};
  leaving_ = false;
  leaveDone_ = nullptr;
  for (const std::string& id : memberUniverse_) quorum_.SetOnline(id, false);
}

void ClusterNode::Restart() {
  // Local WAL first: everything that survived on this node's own disk is
  // back in the cache before any peer is asked, so the CacheSyncReq cursors
  // describe the recovered state and peers only ship the delta.
  RecoverFromWal();
  Start();
  // Paper §5.2.2: "If a cluster member experiences a crash failure and
  // restarts, it reconstructs its cache by asking all members of the cluster
  // in parallel."
  StartCacheReconstruction();
}

void ClusterNode::RecoverFromWal() {
  if (!wal_) return;
  lastRecovery_ = wal_->Recover([this](Message&& msg) {
    // InsertRecovered: sorted + deduped, and does NOT re-append to the WAL.
    cache_.InsertRecovered(msg);
  });
  if (lastRecovery_.records > 0 || lastRecovery_.tornTails > 0 ||
      lastRecovery_.corruptSkipped > 0) {
    MD_INFO("%s: WAL replay: %llu records, %llu corrupt skipped, %llu torn "
            "tails, %llu bad segments",
            cfg_.serverId.c_str(),
            static_cast<unsigned long long>(lastRecovery_.records),
            static_cast<unsigned long long>(lastRecovery_.corruptSkipped),
            static_cast<unsigned long long>(lastRecovery_.tornTails),
            static_cast<unsigned long long>(lastRecovery_.badSegments));
  }
}

void ClusterNode::WalFlushTick() {
  if (crashed_ || !started_ || !wal_) return;
  wal_->Flush(env_.Now());
  walFlushTimer_ =
      env_.Schedule(wal_->config().flushInterval, [this] { WalFlushTick(); });
}

void ClusterNode::SetupWatches() {
  if (watchesInstalled_) return;
  watchesInstalled_ = true;
  // Watch every group mapping: deletions signal coordinator failure and
  // trigger the takeover race (paper §5.2.1).
  for (std::uint32_t g = 0; g < cfg_.topicGroups; ++g) {
    coord_.Watch(GroupKey(g), [this, g](const coord::WatchEvent& event) {
      if (crashed_ || !started_) return;
      switch (event.type) {
        case coord::WatchEventType::kCreated:
        case coord::WatchEventType::kChanged:
          if (event.value != cfg_.serverId) {
            // Another server coordinates now; epoch arrives via gossip.
            myGroups_.erase(g);
            sequencer_.EndEpoch(g);
          }
          break;
        case coord::WatchEventType::kDeleted:
          myGroups_.erase(g);
          sequencer_.EndEpoch(g);
          gossip_.erase(g);
          // Race to take over groups we hold state for. Idle groups are
          // re-assigned lazily by the next publication.
          if (!cache_.GroupPositions(g).empty()) AttemptTakeover(g);
          break;
      }
    });
  }
  if (!cfg_.elastic) return;
  // Membership watches: an ephemeral members/<id> appearing or vanishing is
  // the join/leave signal that drives the quorum view, the per-peer fence
  // floors, and the (debounced) rebalance.
  for (const std::string& id : memberUniverse_) {
    coord_.Watch(coord::MemberKey(id),
                 [this, id](const coord::WatchEvent& event) {
                   if (crashed_ || !started_) return;
                   OnMemberEvent(id, event);
                 });
  }
}

// ---------------------------------------------------------------------------
// Client events
// ---------------------------------------------------------------------------

void ClusterNode::OnClientConnect(ClientHandle client, const std::string& clientId) {
  // A node that has not joined yet (or is draining out) refuses new
  // sessions; the client library blacklists the address and picks another.
  if (crashed_ || fenced_ || !started_ || leaving_) {
    env_.CloseClient(client);
    return;
  }
  clients_.insert(client);
  if (!clientId.empty()) clientIds_[client] = clientId;
  env_.SendToClient(client, ConnAckFrame{cfg_.serverId});
}

void ClusterNode::OnClientDisconnect(ClientHandle client) {
  clients_.erase(client);
  clientIds_.erase(client);
  registry_.DropClient(client);
}

void ClusterNode::OnClientFrame(ClientHandle client, const Frame& frame) {
  if (crashed_) return;
  if (const auto* connect = std::get_if<ConnectFrame>(&frame)) {
    // Routed even when not (yet / any longer) serving: OnClientConnect
    // refuses by closing the connection, which is what tells the client to
    // black-list this address and fail over. Silently dropping the frame
    // would leave the client waiting on a CONNACK from a node that will
    // never answer — a deferred-start member must bounce, not absorb.
    OnClientConnect(client, connect->clientId);
    return;
  }
  if (!started_) return;
  if (const auto* sub = std::get_if<SubscribeFrame>(&frame)) {
    HandleSubscribe(client, *sub);
    return;
  }
  if (const auto* unsub = std::get_if<UnsubscribeFrame>(&frame)) {
    registry_.Unsubscribe(unsub->topic, client);
    return;
  }
  if (const auto* pub = std::get_if<PublishFrame>(&frame)) {
    HandlePublish(client, *pub);
    return;
  }
  if (const auto* ping = std::get_if<PingFrame>(&frame)) {
    env_.SendToClient(client, PongFrame{ping->nonce});
    return;
  }
  if (std::get_if<DisconnectFrame>(&frame) != nullptr) {
    env_.CloseClient(client);
    OnClientDisconnect(client);
    return;
  }
}

void ClusterNode::HandleSubscribe(ClientHandle client, const SubscribeFrame& sub) {
  registry_.Subscribe(sub.topic, client);
  env_.SendToClient(client, SubAckFrame{sub.topic, true});
  bool hasResume = sub.hasResumePos;
  StreamPos resumeAfter = sub.resumeAfter;
  if (!hasResume) {
    // A redirected hand-off session subscribing fresh adopts the transferred
    // cursor as its resume floor, so the backfill starts exactly at the
    // ownership boundary (consumed once per topic).
    const auto idIt = clientIds_.find(client);
    if (idIt != clientIds_.end()) {
      const auto attachIt = pendingAttach_.find(idIt->second);
      if (attachIt != pendingAttach_.end()) {
        auto& cursors = attachIt->second;
        for (auto it = cursors.begin(); it != cursors.end(); ++it) {
          if (it->first != sub.topic) continue;
          hasResume = true;
          resumeAfter = it->second;
          cursors.erase(it);
          break;
        }
        if (cursors.empty()) pendingAttach_.erase(attachIt);
      }
    }
  }
  if (hasResume) {
    // While this topic's group has a cache sync outstanding (or the topic is
    // gap-stalled) the cache may hold interior holes, and the client-side
    // duplicate filter is position-based — once it accepts a message past a
    // hole, the late hole-fill would be dropped as a duplicate. Serve only
    // the provably contiguous prefix of the backfill and let the post-sync
    // DeliverInOrder flush hand over the rest (already-caught-up subscribers
    // filter the overlap).
    const bool suspect = syncing_.contains(GroupOf(sub.topic)) ||
                         gapStalled_.contains(sub.topic);
    StreamPos last = resumeAfter;
    bool truncated = false;
    for (const Message& missed : cache_.GetAfter(sub.topic, resumeAfter)) {
      if (suspect) {
        const StreamPos pos = PosOf(missed);
        if (pos.epoch != last.epoch || pos.seq != last.seq + 1) {
          truncated = true;
          break;
        }
        last = pos;
      }
      cm_.delivered.Inc();
      env_.SendToClient(client, DeliverFrame{missed});
    }
    if (truncated) {
      // Rewind the shared fan-out cursor to the boundary so the post-sync
      // flush re-delivers from there; clients already past it dedup.
      auto [it, inserted] = deliveryCursor_.try_emplace(sub.topic, last);
      if (!inserted && last < it->second) it->second = last;
      StallDelivery(sub.topic);
    }
  }
}

void ClusterNode::HandlePublish(ClientHandle client, const PublishFrame& pub) {
  ParkedPublication p;
  p.topic = pub.topic;
  p.payload = pub.payload;
  p.pubId = pub.pubId;
  p.publishTs = pub.publishTs;
  p.publisher = pub.wantAck ? client : 0;
  RoutePublication(std::move(p));
}

// ---------------------------------------------------------------------------
// Publication routing (paper §5.2.2)
// ---------------------------------------------------------------------------

void ClusterNode::RoutePublication(ParkedPublication pub) {
  if (fenced_) {
    if (!pub.originServerId.empty()) {
      env_.SendToPeer(pub.originServerId, ForwardRejectFrame{pub.pubId, pub.topic});
    } else if (pub.publisher != 0) {
      env_.SendToClient(pub.publisher,
                        PubAckFrame{pub.pubId, PubAckCode::kFailed});
    }
    return;
  }
  if (!HasWriteQuorum()) {
    // Quorum gate (DESIGN.md §12): a partitioned minority must not sequence.
    // Local publishers get the retryable kNoQuorum status; forwarded
    // publications bounce to their contact server, which answers its own
    // publisher.
    cm_.quorumRejects.Inc();
    if (!pub.originServerId.empty()) {
      env_.SendToPeer(pub.originServerId, ForwardRejectFrame{pub.pubId, pub.topic});
    } else if (pub.publisher != 0) {
      if (pendingContact_.contains(pub.pubId)) {
        AckContactPending(pub.pubId, false);
      } else {
        env_.SendToClient(pub.publisher,
                          PubAckFrame{pub.pubId, PubAckCode::kNoQuorum});
      }
    }
    return;
  }
  const std::uint32_t group = GroupOf(pub.topic);

  if (myGroups_.contains(group)) {
    SequenceAndBroadcast(pub);
    return;
  }

  if (electing_.contains(group)) {
    parked_[group].push_back(std::move(pub));  // takeover already running
    return;
  }

  // The contact server remembers the publication until the sequenced
  // broadcast comes back (the signal that two copies exist), then acks.
  if (pub.originServerId.empty() && pub.publisher != 0) {
    PendingContact pending;
    pending.publisher = pub.publisher;
    pending.topic = pub.topic;
    const PublicationId pubId = pub.pubId;
    pending.timeoutTimer = env_.Schedule(cfg_.forwardTimeout, [this, pubId] {
      AckContactPending(pubId, false);  // publisher will republish
    });
    pendingContact_[pub.pubId] = pending;
  }

  const auto it = gossip_.find(group);
  if (it != gossip_.end() && it->second.serverId != cfg_.serverId) {
    // Known coordinator: forward.
    cm_.forwarded.Inc();
    ForwardPubFrame fwd;
    fwd.topic = pub.topic;
    fwd.payload = pub.payload;
    fwd.pubId = pub.pubId;
    fwd.originServerId = cfg_.serverId;
    fwd.publishTs = pub.publishTs;
    fwd.electIfUnassigned = false;
    env_.SendToPeer(it->second.serverId, fwd);
    return;
  }

  // Unassigned group: delegate coordinator acquisition to a random server
  // (avoids a publisher's contact point accumulating every coordinator
  // role — paper footnote 2). The random pick may be ourselves.
  const std::size_t pick = env_.Random() % (peers_.size() + 1);
  if (pick == peers_.size()) {
    parked_[group].push_back(std::move(pub));
    AttemptTakeover(group);
  } else {
    cm_.forwarded.Inc();
    ForwardPubFrame fwd;
    fwd.topic = pub.topic;
    fwd.payload = pub.payload;
    fwd.pubId = pub.pubId;
    fwd.originServerId = cfg_.serverId;
    fwd.publishTs = pub.publishTs;
    fwd.electIfUnassigned = true;
    env_.SendToPeer(peers_[pick], fwd);
  }
}

void ClusterNode::SequenceAndBroadcast(const ParkedPublication& pub) {
  const std::uint32_t group = GroupOf(pub.topic);
  const auto pos = sequencer_.Assign(group, pub.topic);
  if (!pos) {
    // Lost coordination between routing and sequencing; retry routing.
    ParkedPublication copy = pub;
    RoutePublication(std::move(copy));
    return;
  }

  Message msg;
  msg.topic = pub.topic;
  msg.payload = pub.payload;
  msg.epoch = pos->epoch;
  msg.seq = pos->seq;
  msg.pubId = pub.pubId;
  msg.publishTs = pub.publishTs;

  if (!deliveryCursor_.contains(msg.topic)) {
    deliveryCursor_[msg.topic] = cache_.LastPos(msg.topic).value_or(StreamPos{});
  }
  cache_.Append(msg, env_.Now());
  cm_.published.Inc();

  // Track the pending ack. A local publisher is acknowledged after
  // ackCopies-1 replication confirmations. A forwarded publication is
  // acknowledged by its contact server — which, at the default two copies,
  // simply waits for the broadcast to arrive; with more copies it waits for
  // this coordinator's ReplicatedNotice, sent at the same threshold.
  if (pub.originServerId.empty() && pub.publisher != 0) {
    // The contact-side entry (registered before the coordinator was known)
    // is superseded: we became the coordinator ourselves.
    if (auto contact = pendingContact_.extract(pub.pubId); !contact.empty()) {
      env_.Cancel(contact.mapped().timeoutTimer);
    }
    pendingCoord_[{msg.topic, msg.epoch, msg.seq}] =
        PendingCoord{pub.publisher, {}, pub.pubId, 0, env_.Now()};
    cm_.replicationPending.Add(1);
  } else if (!pub.originServerId.empty() && cfg_.ackCopies > 2) {
    pendingCoord_[{msg.topic, msg.epoch, msg.seq}] =
        PendingCoord{0, pub.originServerId, pub.pubId, 0, env_.Now()};
    cm_.replicationPending.Add(1);
  }

  BroadcastFrame bcast;
  bcast.msg = msg;
  bcast.group = group;
  bcast.coordinatorId = cfg_.serverId;
  bcast.fenceEpoch = fenceEpoch_;
  for (const std::string& peer : peers_) env_.SendToPeer(peer, bcast);

  DeliverInOrder(msg.topic);
}

void ClusterNode::AttemptTakeover(std::uint32_t group) {
  // A leaving member must not acquire new coordinator roles — it is about to
  // delete the very group entries a takeover would create.
  if (crashed_ || fenced_ || leaving_ || myGroups_.contains(group) ||
      electing_.contains(group)) {
    return;
  }
  electing_.insert(group);
  // Atomic create in MiniZK: at most one server wins (paper §5.2.1).
  coord_.CreateEphemeral(
      GroupKey(group), cfg_.serverId, [this, group](Status s, std::uint64_t) {
        if (crashed_ || !started_) return;
        if (!s.ok()) {
          // Lost the race (or no quorum): unpark with a reject so
          // publishers republish toward the actual winner.
          electing_.erase(group);
          RejectParked(group);
          return;
        }
        // Won: derive the new epoch from a linearized counter — the version
        // of a persistent per-group key is strictly increasing across
        // takeovers, so each coordinator epoch supersedes its predecessors.
        coord_.Put(EpochKey(group), cfg_.serverId,
                   [this, group](Status ps, std::uint64_t version) {
                     if (crashed_ || !started_) return;
                     electing_.erase(group);
                     if (!ps.ok()) {
                       coord_.Delete(GroupKey(group), {});
                       RejectParked(group);
                       return;
                     }
                     FinishTakeover(group, static_cast<std::uint32_t>(version));
                   });
      });
}

void ClusterNode::FinishTakeover(std::uint32_t group, std::uint32_t epoch) {
  cm_.takeovers.Inc();
  myGroups_.insert(group);
  sequencer_.BeginEpoch(group, epoch);
  // Never reissue sequence numbers for positions already cached.
  for (const auto& [topic, pos] : cache_.GroupPositions(group)) {
    sequencer_.PrimeTopic(group, topic, pos);
  }
  gossip_[group] = {cfg_.serverId, epoch};
  MD_DEBUG("%s: coordinating group %u at epoch %u", cfg_.serverId.c_str(), group,
           epoch);

  // Populate peers' gossip maps (paper §5.2.1).
  const GossipAnnounceFrame announce{group, epoch, cfg_.serverId};
  for (const std::string& peer : peers_) env_.SendToPeer(peer, announce);

  DrainParked(group);
}

void ClusterNode::DrainParked(std::uint32_t group) {
  auto node = parked_.extract(group);
  if (node.empty()) return;
  for (ParkedPublication& pub : node.mapped()) {
    RoutePublication(std::move(pub));
  }
}

void ClusterNode::RejectParked(std::uint32_t group) {
  auto node = parked_.extract(group);
  if (node.empty()) return;
  for (const ParkedPublication& pub : node.mapped()) {
    cm_.rejects.Inc();
    if (!pub.originServerId.empty()) {
      env_.SendToPeer(pub.originServerId, ForwardRejectFrame{pub.pubId, pub.topic});
    } else if (pub.publisher != 0) {
      if (pendingContact_.contains(pub.pubId)) {
        AckContactPending(pub.pubId, false);
      } else {
        env_.SendToClient(pub.publisher,
                          PubAckFrame{pub.pubId, PubAckCode::kFailed});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Peer events
// ---------------------------------------------------------------------------

void ClusterNode::OnPeerFrame(const std::string& from, const Frame& frame) {
  if (crashed_ || !started_) return;
  if (const auto* bcast = std::get_if<BroadcastFrame>(&frame)) {
    OnBroadcast(from, *bcast);
    return;
  }
  if (const auto* ack = std::get_if<BroadcastAckFrame>(&frame)) {
    OnBroadcastAck(from, *ack);
    return;
  }
  if (const auto* fwd = std::get_if<ForwardPubFrame>(&frame)) {
    OnForwardPub(from, *fwd);
    return;
  }
  if (const auto* reject = std::get_if<ForwardRejectFrame>(&frame)) {
    OnForwardReject(*reject);
    return;
  }
  if (const auto* notice = std::get_if<ReplicatedNoticeFrame>(&frame)) {
    OnReplicatedNotice(*notice);
    return;
  }
  if (const auto* announce = std::get_if<GossipAnnounceFrame>(&frame)) {
    OnGossipAnnounce(*announce);
    return;
  }
  if (const auto* req = std::get_if<CacheSyncReqFrame>(&frame)) {
    OnCacheSyncReq(from, *req);
    return;
  }
  if (const auto* resp = std::get_if<CacheSyncRespFrame>(&frame)) {
    OnCacheSyncResp(*resp);
    return;
  }
  if (const auto* begin = std::get_if<HandoffBeginFrame>(&frame)) {
    OnHandoffBegin(from, *begin);
    return;
  }
  if (const auto* ack = std::get_if<HandoffAckFrame>(&frame)) {
    OnHandoffAck(*ack);
    return;
  }
}

void ClusterNode::OnBroadcast(const std::string& from, const BroadcastFrame& bcast) {
  // Epoch fencing (DESIGN.md §12): a broadcast stamped with an incarnation
  // below the sender's announced fence floor comes from an evicted node
  // replaying buffered writes — refuse it (and send no ack, so the stale
  // sender cannot complete replication either). Epoch 0 marks a sender not
  // running elastic membership and is always accepted.
  if (RefuseStaleEpoch(from, bcast.fenceEpoch)) return;
  // Refresh gossip from live traffic: broadcasts carry the coordinator.
  auto& entry = gossip_[bcast.group];
  if (bcast.msg.epoch >= entry.epoch) {
    entry = {bcast.coordinatorId, bcast.msg.epoch};
  }

  // The transport is FIFO, so a sequence gap means broadcasts were lost to a
  // connection break (partition, link fault). Appending past the gap would
  // bake a hole into the cache that reconstruction can no longer see — the
  // sync "have" positions report only the newest entry — so ask the
  // coordinator to backfill first (§5.2.2: "ask from the cache of the peer
  // the messages after the last sequence number it previously received").
  // An epoch jump is indistinguishable from a gap locally; sync then too
  // (the response is empty when nothing was missed).
  const auto last = cache_.LastPos(bcast.msg.topic);
  if (last && PosOf(bcast.msg) > *last &&
      (bcast.msg.epoch > last->epoch || bcast.msg.seq > last->seq + 1)) {
    CacheSyncReqFrame req;
    req.group = bcast.group;
    req.have = cache_.GroupPositions(bcast.group);
    env_.SendToPeer(from, req);
    // Local fan-out stalls until the backfill lands: subscribers must see the
    // hole's messages before anything sequenced after them. Replication and
    // publisher acks are not held up.
    StallDelivery(bcast.msg.topic);
  }
  if (!deliveryCursor_.contains(bcast.msg.topic)) {
    deliveryCursor_[bcast.msg.topic] = last.value_or(StreamPos{});
  }

  cache_.Append(bcast.msg, env_.Now());
  env_.SendToPeer(from, BroadcastAckFrame{bcast.group, bcast.msg.epoch,
                                          bcast.msg.seq, bcast.msg.topic});

  // If we forwarded this publication, the broadcast's arrival means two
  // copies exist (coordinator + us). At the default replication degree that
  // is the ack condition; with more copies we wait for the coordinator's
  // ReplicatedNotice instead.
  if (cfg_.ackCopies <= 2) AckContactPending(bcast.msg.pubId, true);

  DeliverInOrder(bcast.msg.topic);
}

void ClusterNode::OnBroadcastAck(const std::string&, const BroadcastAckFrame& ack) {
  // Replication confirmation for a message we sequenced. At the default
  // configuration one confirmation suffices (paper §5.2.2: "As soon as a
  // single confirmation is received, it can acknowledge the publisher");
  // with a higher replication degree we wait for ackCopies-1 distinct
  // confirmations before acknowledging or notifying the contact server.
  const auto it = pendingCoord_.find(CoordAckKey{ack.topic, ack.epoch, ack.seq});
  if (it == pendingCoord_.end()) return;
  PendingCoord& pending = it->second;
  ++pending.acksReceived;
  if (pending.acksReceived + 1 < cfg_.ackCopies) return;  // self counts as one

  if (pending.publisher != 0) {
    env_.SendToClient(pending.publisher,
                      PubAckFrame{pending.pubId, PubAckCode::kOk});
  } else if (!pending.originServerId.empty()) {
    env_.SendToPeer(pending.originServerId,
                    ReplicatedNoticeFrame{pending.pubId, ack.topic});
  }
  cm_.replicationAckNs.Record(env_.Now() - pending.start);
  cm_.replicationPending.Add(-1);
  pendingCoord_.erase(it);
}

void ClusterNode::OnReplicatedNotice(const ReplicatedNoticeFrame& notice) {
  // The coordinator confirms the configured replication degree was reached.
  AckContactPending(notice.pubId, true);
}

void ClusterNode::OnForwardPub(const std::string& from, const ForwardPubFrame& fwd) {
  if (fenced_) {
    // A fenced node cannot win elections or replicate; bounce immediately so
    // the publisher retries toward a healthy server.
    const std::string origin = fwd.originServerId.empty() ? from : fwd.originServerId;
    env_.SendToPeer(origin, ForwardRejectFrame{fwd.pubId, fwd.topic});
    return;
  }
  ParkedPublication pub;
  pub.topic = fwd.topic;
  pub.payload = fwd.payload;
  pub.pubId = fwd.pubId;
  pub.publishTs = fwd.publishTs;
  pub.originServerId = fwd.originServerId.empty() ? from : fwd.originServerId;

  const std::uint32_t group = GroupOf(pub.topic);
  if (myGroups_.contains(group)) {
    SequenceAndBroadcast(pub);
    return;
  }
  if (electing_.contains(group)) {
    parked_[group].push_back(std::move(pub));
    return;
  }
  // Not the coordinator. Whether designated for election or holding stale
  // gossip at the sender, the right move is to run for coordinator: the
  // MiniZK create arbitrates.
  parked_[group].push_back(std::move(pub));
  AttemptTakeover(group);
}

void ClusterNode::OnForwardReject(const ForwardRejectFrame& reject) {
  // Paper footnote 3: the designated node lost the race; tell the publisher
  // the publication failed so it republishes (by then gossip has the
  // winner).
  AckContactPending(reject.pubId, false);
  cm_.rejects.Inc();
}

void ClusterNode::OnGossipAnnounce(const GossipAnnounceFrame& announce) {
  auto& entry = gossip_[announce.group];
  if (announce.epoch >= entry.epoch) {
    entry = {announce.serverId, announce.epoch};
    if (announce.serverId != cfg_.serverId) {
      myGroups_.erase(announce.group);
      sequencer_.EndEpoch(announce.group);
    }
    DrainParked(announce.group);
  }
}

void ClusterNode::OnCacheSyncReq(const std::string& from, const CacheSyncReqFrame& req) {
  // Serve everything we hold for the group outside the requester's covered
  // span [head, have]: newer than its cursor, or older than its earliest
  // surviving record (head-hole backfill).
  std::map<std::string, StreamPos> have(req.have.begin(), req.have.end());
  std::map<std::string, StreamPos> head(req.head.begin(), req.head.end());
  CacheSyncRespFrame resp;
  resp.group = req.group;
  for (const Message& msg : cache_.GroupSnapshot(req.group)) {
    const auto it = have.find(msg.topic);
    if (it != have.end() && PosOf(msg) <= it->second) {
      const auto h = head.find(msg.topic);
      if (h == head.end() || PosOf(msg) >= h->second) continue;
    }
    resp.messages.push_back(msg);
    if (resp.messages.size() >= cfg_.cacheSyncChunk) {
      resp.done = false;
      env_.SendToPeer(from, resp);
      resp.messages.clear();
      resp.done = true;
    }
  }
  env_.SendToPeer(from, resp);
}

void ClusterNode::OnCacheSyncResp(const CacheSyncRespFrame& resp) {
  for (const Message& msg : resp.messages) {
    if (cache_.Insert(msg, env_.Now())) cm_.backfilled.Inc();
  }
  if (!resp.done) return;
  syncing_.erase(resp.group);
  // A completed sync is the release condition for topics stalled behind a
  // sequence gap in this group.
  for (auto it = gapStalled_.begin(); it != gapStalled_.end();) {
    if (GroupOf(it->first) != resp.group) {
      ++it;
      continue;
    }
    env_.Cancel(it->second);
    it = gapStalled_.erase(it);
  }
  // Flush every live stream in the group past the backfill. This also covers
  // holes no broadcast ever exposed — a stream's tail lost to a link fault is
  // recovered by the reconnection sync, and subscribers must still see it.
  for (const auto& [topic, cursor] : deliveryCursor_) {
    if (GroupOf(topic) == resp.group) DeliverInOrder(topic);
  }
}

// ---------------------------------------------------------------------------
// Replication-confirmation bookkeeping
// ---------------------------------------------------------------------------

void ClusterNode::AckContactPending(const PublicationId& pubId, bool ok) {
  auto node = pendingContact_.extract(pubId);
  if (node.empty()) return;
  env_.Cancel(node.mapped().timeoutTimer);
  env_.SendToClient(
      node.mapped().publisher,
      PubAckFrame{pubId, ok ? PubAckCode::kOk : PubAckCode::kFailed});
}

// ---------------------------------------------------------------------------
// Fan-out
// ---------------------------------------------------------------------------

void ClusterNode::DeliverToLocalSubscribers(const Message& msg) {
  if (deliveryHook_) deliveryHook_(msg);
  // CoW snapshot + batched host delivery: the registry lock is held only for
  // a shared_ptr copy, and the env encodes the frame once for all targets.
  const core::SubscriberSnapshot subs = registry_.Snapshot(msg.topic);
  if (!subs || subs->empty()) return;
  cm_.delivered.Inc(subs->size());
  env_.SendToClients(*subs, DeliverFrame{msg});
}

void ClusterNode::DeliverInOrder(const std::string& topic) {
  if (gapStalled_.contains(topic)) return;
  StreamPos& cursor = deliveryCursor_[topic];
  for (const Message& msg : cache_.GetAfter(topic, cursor)) {
    cursor = PosOf(msg);
    DeliverToLocalSubscribers(msg);
  }
}

void ClusterNode::StallDelivery(const std::string& topic) {
  if (gapStalled_.contains(topic)) return;
  gapStalled_[topic] = env_.Schedule(cfg_.gapSyncTimeout, [this, topic] {
    // The backfill never completed (peer gone mid-sync). Resume with what the
    // cache holds rather than stalling the stream forever.
    gapStalled_.erase(topic);
    DeliverInOrder(topic);
  });
}

// ---------------------------------------------------------------------------
// Partition self-fencing (paper §5.2.2)
// ---------------------------------------------------------------------------

void ClusterNode::CheckFence() {
  if (crashed_ || !started_) return;
  fenceTimer_ = env_.Schedule(cfg_.fenceCheckInterval, [this] { CheckFence(); });

  const bool quorum = coord_.HasQuorumContact();
  if (!quorum && !fenced_) {
    Fence();
  } else if (quorum && fenced_) {
    Unfence();
  }
}

void ClusterNode::Fence() {
  // "The disconnected cluster member preventively closes the connections to
  // its local clients, and lets them reconnect to the other cluster
  // members."
  fenced_ = true;
  fenceStart_ = env_.Now();
  cm_.fences.Inc();
  MD_INFO("%s: lost quorum contact — fencing, closing %zu clients",
          cfg_.serverId.c_str(), clients_.size());
  const auto clients = clients_;  // CloseClient may reenter OnClientDisconnect
  for (const ClientHandle client : clients) {
    env_.SendToClient(client, DisconnectFrame{"server fenced: lost cluster quorum"});
    env_.CloseClient(client);
    registry_.DropClient(client);
  }
  clients_.clear();
  clientIds_.clear();
  // In-flight hand-offs cannot complete without the peers; their sessions are
  // among the connections just closed.
  for (auto& [id, handoff] : outHandoffs_) env_.Cancel(handoff.timeoutTimer);
  outHandoffs_.clear();
  env_.Cancel(rebalanceTimer_);
  rebalanceTimer_ = 0;
  env_.Cancel(joinTimer_);
  joinTimer_ = 0;
  leaving_ = false;
  leaveDone_ = nullptr;
  // Coordination roles are forfeited: the ephemerals will expire server-side.
  for (const std::uint32_t g : myGroups_) sequencer_.EndEpoch(g);
  myGroups_.clear();
  electing_.clear();
  // Parked and pending publications cannot complete.
  for (auto& [group, queue] : parked_) {
    for (const auto& pub : queue) {
      if (!pub.originServerId.empty()) continue;  // origin will time out
      if (pub.publisher != 0) cm_.rejects.Inc();
    }
  }
  parked_.clear();
  cm_.replicationPending.Add(-static_cast<std::int64_t>(pendingCoord_.size()));
  pendingCoord_.clear();
}

void ClusterNode::Unfence() {
  MD_INFO("%s: quorum contact restored — recovering", cfg_.serverId.c_str());
  fenced_ = false;
  cm_.unfences.Inc();
  if (fenceStart_ >= 0) {
    const Duration span = env_.Now() - fenceStart_;
    cm_.failoverLastNs.Set(span);
    cm_.failoverNs.Record(span);
    fenceStart_ = -1;
  }
  gossip_.clear();  // stale after the partition
  // "When the partition is restored, the server can recover following the
  // same procedure as for a crash failure."
  StartCacheReconstruction();
  // Rejoin the elastic membership under a fresh fence epoch: the eviction may
  // have expired our ephemeral and bumped every peer's floor against the old
  // incarnation, so any writes we buffered while partitioned stay refused.
  if (cfg_.elastic) JoinMembership();
}

void ClusterNode::StartCacheReconstruction() {
  if (peers_.empty()) return;
  for (std::uint32_t g = 0; g < cfg_.topicGroups; ++g) {
    syncing_.insert(g);
    CacheSyncReqFrame req;
    req.group = g;
    // Contiguous-prefix cursors, not newest positions: a WAL-recovered
    // history can have interior holes (corrupt records skipped, ENOSPC
    // windows) and a cursor past a hole would hide it from peers forever.
    // Peers resend the suspicious span; Insert dedups the overlap.
    req.have = cache_.GroupContiguousPositions(g);
    // The cursor can only prove "nothing missing AFTER it". A hole BEFORE
    // the first surviving record — a bit flip or ENOSPC window that took a
    // topic's head — looks identical to a history that simply started
    // later, so also tell peers where our history begins and let them
    // resend anything older they still hold.
    req.head = cache_.GroupEarliestPositions(g);
    for (const std::string& peer : peers_) env_.SendToPeer(peer, req);
  }
}

// ---------------------------------------------------------------------------
// Elastic membership, rebalancing, hand-off (DESIGN.md §12)
// ---------------------------------------------------------------------------

void ClusterNode::JoinMembership() {
  if (!cfg_.elastic || crashed_ || !started_) return;
  // Clear any stale incarnation's znode first (rejoin where the coordination
  // session survived), then bump the fence key — the linearized version the
  // Put commits at *is* this incarnation's epoch — and announce it in the
  // ephemeral member entry.
  coord_.Delete(coord::MemberKey(cfg_.serverId), [this](Status, std::uint64_t) {
    if (crashed_ || !started_) return;
    coord_.Put(
        coord::FenceKey(cfg_.serverId), cfg_.serverId,
        [this](Status s, std::uint64_t version) {
          if (crashed_ || !started_) return;
          if (!s.ok()) {
            RetryJoin();
            return;
          }
          fenceEpoch_ = static_cast<std::uint32_t>(version);
          coord_.CreateEphemeral(
              coord::MemberKey(cfg_.serverId), std::to_string(fenceEpoch_),
              [this](Status cs, std::uint64_t) {
                if (crashed_ || !started_) return;
                if (!cs.ok()) {
                  RetryJoin();
                  return;
                }
                MD_DEBUG("%s: joined membership at fence epoch %u",
                         cfg_.serverId.c_str(), fenceEpoch_);
                quorum_.SetOnline(cfg_.serverId, true);
                RefreshMembershipFromStore();
                ScheduleRebalance();
              });
        });
  });
}

void ClusterNode::RetryJoin() {
  env_.Cancel(joinTimer_);
  joinTimer_ = env_.Schedule(cfg_.fenceCheckInterval, [this] {
    joinTimer_ = 0;
    JoinMembership();
  });
}

void ClusterNode::RefreshMembershipFromStore() {
  // Rebuild the live view from the local replica: watches only narrate
  // changes from now on, and a rejoining node missed the ones before it.
  for (const std::string& id : memberUniverse_) {
    const auto kv = coord_.Read(coord::MemberKey(id));
    if (kv) {
      if (const auto epoch = coord::ParseMemberEpoch(kv->value)) {
        memberEpoch_[id] = *epoch;
        auto& floor = peerEpochFloor_[id];
        if (*epoch > floor) floor = *epoch;
      }
      quorum_.SetOnline(id, true);
    } else if (id != cfg_.serverId) {
      quorum_.SetOnline(id, false);
    }
  }
}

void ClusterNode::OnMemberEvent(const std::string& memberId,
                                const coord::WatchEvent& event) {
  switch (event.type) {
    case coord::WatchEventType::kCreated:
    case coord::WatchEventType::kChanged: {
      if (const auto epoch = coord::ParseMemberEpoch(event.value)) {
        memberEpoch_[memberId] = *epoch;
        // Floor rises to the announced incarnation: anything the previous
        // incarnation still has buffered is refused from here on.
        auto& floor = peerEpochFloor_[memberId];
        if (*epoch > floor) floor = *epoch;
      }
      quorum_.SetOnline(memberId, true);
      break;
    }
    case coord::WatchEventType::kDeleted:
      quorum_.SetOnline(memberId, false);
      // The departed incarnation must never write again (fencing): even its
      // exact last epoch is now stale.
      if (const auto it = memberEpoch_.find(memberId); it != memberEpoch_.end()) {
        auto& floor = peerEpochFloor_[memberId];
        floor = std::max(floor, it->second + 1);
      }
      break;
  }
  ScheduleRebalance();
}

bool ClusterNode::RefuseStaleEpoch(const std::string& senderId,
                                   std::uint32_t epoch) {
  if (epoch == 0) return false;  // legacy / non-elastic sender
  const auto it = peerEpochFloor_.find(senderId);
  if (it == peerEpochFloor_.end() || epoch >= it->second) return false;
  cm_.fenceRefusals.Inc();
  MD_DEBUG("%s: refused write from %s at stale epoch %u (floor %u)",
           cfg_.serverId.c_str(), senderId.c_str(), epoch, it->second);
  return true;
}

void ClusterNode::ScheduleRebalance() {
  if (!cfg_.elastic || leaving_) return;
  env_.Cancel(rebalanceTimer_);
  rebalanceTimer_ = env_.Schedule(cfg_.rebalanceDebounce, [this] {
    rebalanceTimer_ = 0;
    if (crashed_ || !started_ || fenced_ || leaving_) return;
    Rebalance();
  });
}

void ClusterNode::Rebalance() {
  std::vector<std::string> members;
  for (const std::string& id : memberUniverse_) {
    if (quorum_.IsOnline(id)) members.push_back(id);
  }
  cm_.activeMembers.Set(static_cast<std::int64_t>(members.size()));
  if (members.empty()) return;
  const Assignment next =
      Rebalancer::Compute(cfg_.subscriberPartitions, members);
  if (next == assignment_) return;
  assignment_ = next;
  cm_.rebalances.Inc();

  // Every subscriber partition hosted here whose sessions now belong to a
  // different owner starts a hand-off (at most one in flight per partition).
  std::set<std::uint32_t> hosted;
  for (const ClientHandle client : clients_) {
    const auto it = clientIds_.find(client);
    if (it != clientIds_.end()) hosted.insert(PartitionOfClient(it->second));
  }
  std::set<std::uint32_t> inFlight;
  for (const auto& [id, handoff] : outHandoffs_) inFlight.insert(handoff.partition);
  for (const std::uint32_t partition : hosted) {
    const std::string& owner = next.OwnerOf(partition);
    if (owner.empty() || owner == cfg_.serverId) continue;
    if (!inFlight.contains(partition)) StartHandoff(partition, owner);
  }
}

void ClusterNode::StartHandoff(std::uint32_t partition, const std::string& target) {
  // Freeze the slice: the registry excludes frozen sessions from fan-out
  // snapshots, so the per-topic delivery cursors captured right here are the
  // exact delivered-through boundary of every migrating session.
  HandoffBeginFrame begin;
  begin.partition = partition;
  begin.fenceEpoch = fenceEpoch_;
  begin.fromServerId = cfg_.serverId;
  PendingHandoff handoff;
  handoff.partition = partition;
  handoff.target = target;
  for (const ClientHandle client : clients_) {
    const auto it = clientIds_.find(client);
    if (it == clientIds_.end() || PartitionOfClient(it->second) != partition) {
      continue;
    }
    HandoffSession session;
    session.clientId = it->second;
    for (const std::string& topic : registry_.SetFrozen(client, true)) {
      const auto cur = deliveryCursor_.find(topic);
      const StreamPos pos = cur != deliveryCursor_.end()
                                ? cur->second
                                : cache_.LastPos(topic).value_or(StreamPos{});
      session.cursors.emplace_back(topic, pos);
    }
    begin.sessions.push_back(session);
    handoff.sessions.emplace_back(client, std::move(session));
  }
  if (handoff.sessions.empty()) return;

  const std::uint64_t id = nextHandoffId_++;
  begin.handoffId = id;
  cm_.handoffs.Inc();
  cm_.handoffSessions.Inc(handoff.sessions.size());
  MD_DEBUG("%s: hand-off %llu of partition %u (%zu sessions) -> %s",
           cfg_.serverId.c_str(), static_cast<unsigned long long>(id),
           partition, handoff.sessions.size(), target.c_str());
  handoff.timeoutTimer =
      env_.Schedule(cfg_.handoffAckTimeout, [this, id] { AbortHandoff(id); });
  outHandoffs_[id] = std::move(handoff);
  env_.SendToPeer(target, begin);
}

void ClusterNode::OnHandoffBegin(const std::string& from,
                                 const HandoffBeginFrame& begin) {
  HandoffAckFrame ack;
  ack.handoffId = begin.handoffId;
  ack.partition = begin.partition;
  ack.fenceEpoch = fenceEpoch_;
  // A fenced-out incarnation pushing a buffered Begin is refused exactly like
  // a stale broadcast; likewise a node that cannot itself see quorum must not
  // adopt sessions.
  if (RefuseStaleEpoch(begin.fromServerId, begin.fenceEpoch) || fenced_ ||
      !HasWriteQuorum()) {
    ack.ok = false;
    env_.SendToPeer(from, ack);
    return;
  }
  // Idempotent adopt: a re-sent Begin overwrites the held cursors and is
  // re-acked, so a lost ack only costs a retry, never a divergent state.
  for (const HandoffSession& session : begin.sessions) {
    pendingAttach_[session.clientId] = session.cursors;
  }
  // Record the ownership move durably; routing layers and tests watch it.
  coord_.Put(coord::AssignKey(begin.partition),
             coord::EncodeAssignment({cfg_.serverId, fenceEpoch_}), {});
  ack.ok = true;
  env_.SendToPeer(from, ack);
}

void ClusterNode::OnHandoffAck(const HandoffAckFrame& ack) {
  auto node = outHandoffs_.extract(ack.handoffId);
  if (node.empty()) return;  // duplicate ack, or already aborted: ignore
  PendingHandoff& handoff = node.mapped();
  env_.Cancel(handoff.timeoutTimer);
  if (!ack.ok) {
    outHandoffs_.insert(std::move(node));
    AbortHandoff(ack.handoffId);
    return;
  }
  // Release phase: redirect each frozen session to the new owner with its
  // freeze-point cursors, then close. The transport flushes in-flight bytes
  // before the close, so the client sees backlog, redirect, EOF — in order.
  for (const auto& [client, session] : handoff.sessions) {
    if (!clients_.contains(client)) continue;
    HandoffFrame redirect;
    redirect.targetServerId = handoff.target;
    redirect.partition = handoff.partition;
    redirect.rebalanceEpoch = fenceEpoch_;
    redirect.cursors = session.cursors;
    env_.SendToClient(client, redirect);
    env_.CloseClient(client);
    OnClientDisconnect(client);
  }
  MaybeFinishLeave();
}

void ClusterNode::AbortHandoff(std::uint64_t handoffId) {
  auto node = outHandoffs_.extract(handoffId);
  if (node.empty()) return;
  PendingHandoff& handoff = node.mapped();
  env_.Cancel(handoff.timeoutTimer);
  cm_.handoffAborts.Inc();
  // Unfreeze-and-catch-up: replay from the cache exactly the window each
  // session missed while frozen (freeze cursor -> current delivery cursor),
  // then thaw it back into fan-out. No gap, no duplicate.
  for (const auto& [client, session] : handoff.sessions) {
    if (!clients_.contains(client)) continue;
    for (const auto& [topic, frozenAt] : session.cursors) {
      const auto cur = deliveryCursor_.find(topic);
      if (cur == deliveryCursor_.end()) continue;
      for (const Message& missed : cache_.GetAfter(topic, frozenAt)) {
        if (cur->second < PosOf(missed)) break;
        cm_.delivered.Inc();
        env_.SendToClient(client, DeliverFrame{missed});
      }
    }
    registry_.SetFrozen(client, false);
  }
  MaybeFinishLeave();
}

void ClusterNode::Leave(std::function<void()> done) {
  if (!cfg_.elastic || crashed_ || !started_) {
    if (done) done();
    return;
  }
  leaving_ = true;
  env_.Cancel(rebalanceTimer_);
  rebalanceTimer_ = 0;
  leaveDone_ = std::move(done);
  quorum_.SetOnline(cfg_.serverId, false);

  std::vector<std::string> rest;
  for (const std::string& id : memberUniverse_) {
    if (id != cfg_.serverId && quorum_.IsOnline(id)) rest.push_back(id);
  }
  if (!rest.empty()) {
    assignment_ = Rebalancer::Compute(cfg_.subscriberPartitions, rest);
    std::set<std::uint32_t> hosted;
    for (const ClientHandle client : clients_) {
      const auto it = clientIds_.find(client);
      if (it != clientIds_.end()) hosted.insert(PartitionOfClient(it->second));
    }
    std::set<std::uint32_t> inFlight;
    for (const auto& [id, handoff] : outHandoffs_) {
      inFlight.insert(handoff.partition);
    }
    for (const std::uint32_t partition : hosted) {
      const std::string& owner = assignment_.OwnerOf(partition);
      if (owner.empty() || owner == cfg_.serverId) continue;
      if (!inFlight.contains(partition)) StartHandoff(partition, owner);
    }
  }
  MaybeFinishLeave();
}

void ClusterNode::MaybeFinishLeave() {
  if (!leaving_ || !outHandoffs_.empty()) return;
  leaving_ = false;
  // Shed coordinator roles before deregistering: the group deletions fire
  // peers' watches and whoever holds replicated state races to take over
  // (§5.2.1). Without this, publications for our groups would keep routing
  // to a member that no longer exists.
  for (const std::uint32_t g : myGroups_) {
    sequencer_.EndEpoch(g);
    gossip_.erase(g);
    coord_.Delete(GroupKey(g), {});
  }
  myGroups_.clear();
  // The ephemeral delete is the leave event peers observe; their floors rise
  // past this incarnation so nothing it still has buffered can land.
  coord_.Delete(coord::MemberKey(cfg_.serverId), {});
  // A departed member is inert until Restart(): it must not accept clients,
  // serve frames, or retake the groups its own deletions just freed.
  started_ = false;
  env_.Cancel(fenceTimer_);
  MD_DEBUG("%s: left membership (epoch %u retired)", cfg_.serverId.c_str(),
           fenceEpoch_);
  if (auto done = std::exchange(leaveDone_, nullptr)) done();
}

void ClusterNode::SyncFromPeer(const std::string& peerId) {
  // Paper §5.2.2: after an inter-server connection recovers, "it is
  // sufficient for the current member to ask from the cache of the peer the
  // messages after the last sequence number it previously received".
  if (crashed_ || !started_) return;
  for (std::uint32_t g = 0; g < cfg_.topicGroups; ++g) {
    CacheSyncReqFrame req;
    req.group = g;
    req.have = cache_.GroupContiguousPositions(g);
    env_.SendToPeer(peerId, req);
  }
}

}  // namespace md::cluster
