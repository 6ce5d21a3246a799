#include "cluster/node.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.hpp"

namespace md::cluster {

namespace {

/// Contact server gives up on a forwarded publication after this long and
/// answers the publisher "failed" (it republishes).
constexpr Duration kForwardTimeout = 2 * kSecond;
/// Period of the partition self-fencing check (paper §5.2.2); also the
/// membership join retry delay.
constexpr Duration kFenceCheckInterval = 200 * kMillisecond;
/// A topic whose broadcast stream shows a sequence gap stalls local fan-out
/// while the backfill sync runs; after this long it resumes with whatever the
/// cache holds (the syncing peer may have crashed mid-answer).
constexpr Duration kGapSyncTimeout = kSecond;
/// Membership events are debounced this long before recomputing the
/// assignment, so a rolling join/leave wave coalesces into one hand-off set.
constexpr Duration kRebalanceDebounce = 100 * kMillisecond;
/// Old owner aborts a hand-off (unfreezes the slice and catches it up from
/// the cache) if the new owner's ack does not arrive within this window.
constexpr Duration kHandoffAckTimeout = kSecond;

}  // namespace

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
      groups_(cfg_.topicGroups),
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
    memberUniverse_ = peers_;
    memberUniverse_.push_back(cfg_.serverId);
    std::sort(memberUniverse_.begin(), memberUniverse_.end());
    for (const std::string& id : memberUniverse_) quorum_.AddNode(id);
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void ClusterNode::Start() {
  started_ = true;
  crashed_ = false;
  fenced_ = false;
  SetupWatches();
  fenceTimer_ = env_.Schedule(kFenceCheckInterval, [this] { CheckFence(); });
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
  for (const auto& [client, id] : clients_) registry_.DropClient(client);
  clients_.clear();
  cache_.Clear();
  DropInFlightWork();
  groups_.assign(cfg_.topicGroups, GroupState{});
  pendingContact_.clear();
  for (const auto& [topic, state] : topics_) {
    if (state.stallTimer) env_.Cancel(*state.stallTimer);
  }
  topics_.clear();
  fenceStart_ = -1;  // a crash supersedes any open fence span
  // Elastic state is volatile too: the next incarnation rejoins with a fresh
  // fence epoch and rebuilds its membership view from the coordination store.
  pendingAttach_.clear();
  memberEpoch_.clear();
  peerEpochFloor_.clear();
  assignment_ = {};
  for (const std::string& id : memberUniverse_) quorum_.SetOnline(id, false);
}

void ClusterNode::DropInFlightWork() {
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    sequencer_.EndEpoch(g);
    groups_[g].electing = false;
    groups_[g].parked.clear();
  }
  cm_.replicationPending.Add(-static_cast<std::int64_t>(pendingCoord_.size()));
  pendingCoord_.clear();
  for (auto& [id, handoff] : outHandoffs_) env_.Cancel(handoff.timeoutTimer);
  outHandoffs_.clear();
  env_.Cancel(rebalanceTimer_);
  rebalanceTimer_ = 0;
  env_.Cancel(joinTimer_);
  joinTimer_ = 0;
  leaving_ = false;
  leaveDone_ = nullptr;
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
            sequencer_.EndEpoch(g);
          }
          break;
        case coord::WatchEventType::kDeleted:
          sequencer_.EndEpoch(g);
          groups_[g].gossip.reset();
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
  // A repeated CONNECT without an id keeps the id the session already has.
  std::string& id = clients_[client];
  if (!clientId.empty()) id = clientId;
  env_.SendToClient(client, ConnAckFrame{cfg_.serverId});
}

void ClusterNode::OnClientDisconnect(ClientHandle client) {
  clients_.erase(client);
  registry_.DropClient(client);
}

void ClusterNode::OnClientFrame(ClientHandle client, Frame&& frame) {
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
  if (auto* pub = std::get_if<PublishFrame>(&frame)) {
    HandlePublish(client, std::move(*pub));
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
    const auto idIt = clients_.find(client);
    if (idIt != clients_.end() && !idIt->second.empty()) {
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
    const auto topicIt = topics_.find(sub.topic);
    const bool suspect = groups_[GroupOf(sub.topic)].syncing ||
                         (topicIt != topics_.end() && topicIt->second.stallTimer);
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
      std::optional<StreamPos>& cursor = topics_[sub.topic].cursor;
      if (!cursor || last < *cursor) cursor = last;
      StallDelivery(sub.topic);
    }
  }
}

void ClusterNode::HandlePublish(ClientHandle client, PublishFrame&& pub) {
  ParkedPublication p;
  p.topic = std::move(pub.topic);
  p.payload = std::move(pub.payload);
  p.pubId = pub.pubId;
  p.publishTs = pub.publishTs;
  p.publisher = pub.wantAck ? client : 0;
  RoutePublication(std::move(p));
}

// ---------------------------------------------------------------------------
// Publication routing (paper §5.2.2)
// ---------------------------------------------------------------------------

void ClusterNode::RoutePublication(ParkedPublication pub, bool elect) {
  if (fenced_) {
    Refuse(pub, PubAckCode::kFailed);
    return;
  }
  if (!HasWriteQuorum()) {
    // Quorum gate (DESIGN.md §12): a partitioned minority must not sequence.
    // Local publishers get the retryable kNoQuorum status; forwarded
    // publications bounce to their contact server, which answers its own
    // publisher.
    cm_.quorumRejects.Inc();
    Refuse(pub, PubAckCode::kNoQuorum);
    return;
  }
  const std::uint32_t group = GroupOf(pub.topic);
  if (const auto pos = sequencer_.Assign(group, pub.topic)) {
    SequenceAndBroadcast(std::move(pub), *pos);
    return;
  }

  GroupState& state = groups_[group];
  if (state.electing) {
    state.parked.push_back(std::move(pub));  // takeover already running
    return;
  }
  if (elect) {
    // Not the coordinator. Whether designated for election or holding stale
    // gossip at the sender, the right move is to run for coordinator: the
    // MiniZK create arbitrates. A leaving member runs for nothing
    // (AttemptTakeover refuses), so it bounces the publication at once and
    // the contact server's publisher retries elsewhere.
    if (leaving_) {
      cm_.rejects.Inc();
      Refuse(pub, PubAckCode::kFailed);
      return;
    }
    state.parked.push_back(std::move(pub));
    AttemptTakeover(group);
    return;
  }

  // The contact server remembers the publication until the sequenced
  // broadcast comes back (the signal that two copies exist), then acks.
  if (pub.originServerId.empty() && pub.publisher != 0) {
    const PublicationId pubId = pub.pubId;
    pendingContact_[pubId] = PendingContact{
        pub.publisher, env_.Schedule(kForwardTimeout, [this, pubId] {
          AckContactPending(pubId, false);  // publisher will republish
        })};
  }

  if (state.gossip && state.gossip->serverId != cfg_.serverId) {
    Forward(std::move(pub), state.gossip->serverId, /*electIfUnassigned=*/false);
    return;
  }

  // Unassigned group: delegate coordinator acquisition to a random server
  // (avoids a publisher's contact point accumulating every coordinator
  // role — paper footnote 2). The random pick may be ourselves, unless we
  // are leaving: then the same draw picks a peer, which runs for us.
  const std::uint64_t draw = env_.Random();
  std::size_t pick = draw % (peers_.size() + 1);
  if (pick == peers_.size() && leaving_ && !peers_.empty()) pick = draw % peers_.size();
  if (pick == peers_.size()) {
    state.parked.push_back(std::move(pub));
    AttemptTakeover(group);
  } else {
    Forward(std::move(pub), peers_[pick], /*electIfUnassigned=*/true);
  }
}

void ClusterNode::Forward(ParkedPublication&& pub, const std::string& to,
                          bool electIfUnassigned) {
  cm_.forwarded.Inc();
  env_.SendToPeer(to, ForwardPubFrame{std::move(pub.topic), std::move(pub.payload),
                                      pub.pubId, cfg_.serverId, pub.publishTs,
                                      electIfUnassigned});
}

void ClusterNode::Refuse(const ParkedPublication& pub, PubAckCode code) {
  if (!pub.originServerId.empty()) {
    env_.SendToPeer(pub.originServerId, ForwardRejectFrame{pub.pubId, pub.topic});
  } else if (pub.publisher != 0) {
    if (pendingContact_.contains(pub.pubId)) {
      AckContactPending(pub.pubId, false);
    } else {
      env_.SendToClient(pub.publisher, PubAckFrame{pub.pubId, code});
    }
  }
}

void ClusterNode::SequenceAndBroadcast(ParkedPublication&& pub, StreamPos pos) {
  // The publication moves into the broadcast frame. The cache stores the one
  // copy this member makes; local delivery reads the frame's message.
  const std::uint32_t group = GroupOf(pub.topic);
  const Frame frame{BroadcastFrame{
      Message{std::move(pub.topic), std::move(pub.payload), pos.epoch, pos.seq,
              pub.pubId, pub.publishTs},
      group, cfg_.serverId, fenceEpoch_}};
  const Message& msg = std::get<BroadcastFrame>(frame).msg;

  std::optional<StreamPos>& cursor = topics_[msg.topic].cursor;
  if (!cursor) cursor = cache_.LastPos(msg.topic).value_or(StreamPos{});
  const bool cached = cache_.Append(msg, env_.Now());
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

  env_.SendToPeers(peers_, frame);
  DeliverInOrder(msg.topic, cached ? &msg : nullptr);
}

void ClusterNode::AttemptTakeover(std::uint32_t group) {
  // A leaving member must not acquire new coordinator roles — it is about to
  // delete the very group entries a takeover would create.
  if (crashed_ || fenced_ || leaving_ || sequencer_.IsSequencing(group) ||
      groups_[group].electing) {
    return;
  }
  groups_[group].electing = true;
  // Atomic create in MiniZK: at most one server wins (paper §5.2.1).
  coord_.CreateEphemeral(
      GroupKey(group), cfg_.serverId, [this, group](Status s, std::uint64_t) {
        if (crashed_ || !started_) return;
        if (!s.ok()) {
          // Lost the race (or no quorum): unpark with a reject so
          // publishers republish toward the actual winner.
          groups_[group].electing = false;
          RejectParked(group);
          return;
        }
        // Won: derive the new epoch from a linearized counter — the version
        // of a persistent per-group key is strictly increasing across
        // takeovers, so each coordinator epoch supersedes its predecessors.
        coord_.Put(EpochKey(group), cfg_.serverId,
                   [this, group](Status ps, std::uint64_t version) {
                     if (crashed_ || !started_) return;
                     groups_[group].electing = false;
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
  sequencer_.BeginEpoch(group, epoch);
  // Never reissue sequence numbers for positions already cached.
  for (const auto& [topic, pos] : cache_.GroupPositions(group)) {
    sequencer_.PrimeTopic(group, topic, pos);
  }
  groups_[group].gossip = Gossip{cfg_.serverId, epoch};
  MD_DEBUG("%s: coordinating group %u at epoch %u", cfg_.serverId.c_str(), group,
           epoch);

  // Populate peers' gossip maps (paper §5.2.1).
  const GossipAnnounceFrame announce{group, epoch, cfg_.serverId};
  for (const std::string& peer : peers_) env_.SendToPeer(peer, announce);

  DrainParked(group);
}

void ClusterNode::DrainParked(std::uint32_t group) {
  // Taken out first: routing may park a publication in this group again.
  for (ParkedPublication& pub : std::exchange(groups_[group].parked, {})) {
    RoutePublication(std::move(pub));
  }
}

void ClusterNode::RejectParked(std::uint32_t group) {
  for (const ParkedPublication& pub : std::exchange(groups_[group].parked, {})) {
    cm_.rejects.Inc();
    Refuse(pub, PubAckCode::kFailed);
  }
}

// ---------------------------------------------------------------------------
// Peer events
// ---------------------------------------------------------------------------

void ClusterNode::OnPeerFrame(const std::string& from, Frame&& frame) {
  if (crashed_ || !started_) return;
  // Frames that name a topic group index the per-group record: one naming a
  // group this cluster does not have is malformed and dropped whole.
  const std::uint32_t* group = nullptr;
  if (const auto* bcast = std::get_if<BroadcastFrame>(&frame)) group = &bcast->group;
  if (const auto* ann = std::get_if<GossipAnnounceFrame>(&frame)) group = &ann->group;
  if (const auto* req = std::get_if<CacheSyncReqFrame>(&frame)) group = &req->group;
  if (const auto* resp = std::get_if<CacheSyncRespFrame>(&frame)) group = &resp->group;
  if (group != nullptr && *group >= groups_.size()) {
    MD_WARN("%s: dropped a frame from %s naming group %u of %zu",
            cfg_.serverId.c_str(), from.c_str(), *group, groups_.size());
    return;
  }
  if (const auto* bcast = std::get_if<BroadcastFrame>(&frame)) {
    OnBroadcast(from, *bcast);
    return;
  }
  if (const auto* ack = std::get_if<BroadcastAckFrame>(&frame)) {
    OnBroadcastAck(from, *ack);
    return;
  }
  if (auto* fwd = std::get_if<ForwardPubFrame>(&frame)) {
    OnForwardPub(from, std::move(*fwd));
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
  std::optional<Gossip>& gossip = groups_[bcast.group].gossip;
  if (!gossip || bcast.msg.epoch >= gossip->epoch) {
    gossip = Gossip{bcast.coordinatorId, bcast.msg.epoch};
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
  std::optional<StreamPos>& cursor = topics_[bcast.msg.topic].cursor;
  if (!cursor) cursor = last.value_or(StreamPos{});

  const bool cached = cache_.Append(bcast.msg, env_.Now());
  env_.SendToPeer(from, BroadcastAckFrame{bcast.group, bcast.msg.epoch,
                                          bcast.msg.seq, bcast.msg.topic});

  // If we forwarded this publication, the broadcast's arrival means two
  // copies exist (coordinator + us). At the default replication degree that
  // is the ack condition; with more copies we wait for the coordinator's
  // ReplicatedNotice instead.
  if (cfg_.ackCopies <= 2) AckContactPending(bcast.msg.pubId, true);

  DeliverInOrder(bcast.msg.topic, cached ? &bcast.msg : nullptr);
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

void ClusterNode::OnForwardPub(const std::string& from, ForwardPubFrame&& fwd) {
  ParkedPublication pub;
  pub.topic = std::move(fwd.topic);
  pub.payload = std::move(fwd.payload);
  pub.pubId = fwd.pubId;
  pub.publishTs = fwd.publishTs;
  pub.originServerId = fwd.originServerId.empty() ? from : fwd.originServerId;
  RoutePublication(std::move(pub), /*elect=*/true);
}

void ClusterNode::OnForwardReject(const ForwardRejectFrame& reject) {
  // Paper footnote 3: the designated node lost the race; tell the publisher
  // the publication failed so it republishes (by then gossip has the
  // winner).
  AckContactPending(reject.pubId, false);
  cm_.rejects.Inc();
}

void ClusterNode::OnGossipAnnounce(const GossipAnnounceFrame& announce) {
  std::optional<Gossip>& gossip = groups_[announce.group].gossip;
  if (!gossip || announce.epoch >= gossip->epoch) {
    gossip = Gossip{announce.serverId, announce.epoch};
    if (announce.serverId != cfg_.serverId) sequencer_.EndEpoch(announce.group);
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
    if (resp.messages.size() >= kCacheSyncChunk) {
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
  groups_[resp.group].syncing = false;
  // A completed sync is the release condition for topics stalled behind a
  // sequence gap in this group. Then flush every live stream in the group
  // past the backfill. This also covers holes no broadcast ever exposed — a
  // stream's tail lost to a link fault is recovered by the reconnection
  // sync, and subscribers must still see it.
  for (auto& [topic, state] : topics_) {
    if (GroupOf(topic) != resp.group) continue;
    if (state.stallTimer) {
      env_.Cancel(*state.stallTimer);
      state.stallTimer.reset();
    }
    if (state.cursor) DeliverInOrder(topic);
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
  env_.Deliver(*subs, msg);
}

void ClusterNode::DeliverInOrder(const std::string& topic, const Message* appended) {
  TopicState& state = topics_[topic];
  if (state.stallTimer) return;
  StreamPos& cursor = state.cursor ? *state.cursor : state.cursor.emplace();
  // The cache's newest entry right behind the cursor is all GetAfter would
  // return: no position lies between (e, s) and (e, s + 1).
  if (appended != nullptr && PosOf(*appended) == StreamPos{cursor.epoch, cursor.seq + 1}) {
    cursor = PosOf(*appended);
    DeliverToLocalSubscribers(*appended);
    return;
  }
  for (const Message& msg : cache_.GetAfter(topic, cursor)) {
    cursor = PosOf(msg);
    DeliverToLocalSubscribers(msg);
  }
}

void ClusterNode::StallDelivery(const std::string& topic) {
  TopicState& state = topics_[topic];
  if (state.stallTimer) return;
  state.stallTimer = env_.Schedule(kGapSyncTimeout, [this, topic] {
    // The backfill never completed (peer gone mid-sync). Resume with what the
    // cache holds rather than stalling the stream forever.
    topics_[topic].stallTimer.reset();
    DeliverInOrder(topic);
  });
}

// ---------------------------------------------------------------------------
// Partition self-fencing (paper §5.2.2)
// ---------------------------------------------------------------------------

void ClusterNode::CheckFence() {
  if (crashed_ || !started_) return;
  fenceTimer_ = env_.Schedule(kFenceCheckInterval, [this] { CheckFence(); });

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
  const auto clients = std::exchange(clients_, {});  // CloseClient may reenter
  for (const auto& [client, id] : clients) {
    env_.SendToClient(client, DisconnectFrame{"server fenced: lost cluster quorum"});
    env_.CloseClient(client);
    registry_.DropClient(client);
  }
  // Parked local publications cannot complete (forwarded ones time out at
  // their origin). In-flight hand-offs cannot complete without the peers;
  // their sessions are among the connections just closed. Coordination
  // roles are forfeited: the ephemerals will expire server-side.
  for (const GroupState& state : groups_) {
    for (const ParkedPublication& pub : state.parked) {
      if (pub.originServerId.empty() && pub.publisher != 0) cm_.rejects.Inc();
    }
  }
  DropInFlightWork();
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
  for (GroupState& state : groups_) state.gossip.reset();  // stale after the partition
  // "When the partition is restored, the server can recover following the
  // same procedure as for a crash failure."
  StartCacheReconstruction();
  // Rejoin the elastic membership under a fresh fence epoch: the eviction may
  // have expired our ephemeral and bumped every peer's floor against the old
  // incarnation, so any writes we buffered while partitioned stay refused.
  if (cfg_.elastic) JoinMembership();
}

void ClusterNode::StartCacheReconstruction() {
  RequestSync(peers_, /*reconstruct=*/true);
}

void ClusterNode::RequestSync(const std::vector<std::string>& peers,
                              bool reconstruct) {
  if (peers.empty()) return;
  for (std::uint32_t g = 0; g < cfg_.topicGroups; ++g) {
    if (reconstruct) groups_[g].syncing = true;
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
    // later, so a reconstruction also tells peers where our history begins
    // and lets them resend anything older they still hold.
    if (reconstruct) req.head = cache_.GroupEarliestPositions(g);
    for (const std::string& peer : peers) env_.SendToPeer(peer, req);
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
  joinTimer_ = env_.Schedule(kFenceCheckInterval, [this] {
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
  rebalanceTimer_ = env_.Schedule(kRebalanceDebounce, [this] {
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
  Assignment next = Rebalancer::Compute(kSubscriberPartitions, members);
  if (next == assignment_) return;
  assignment_ = std::move(next);
  cm_.rebalances.Inc();
  HandOffMovedPartitions();
}

void ClusterNode::HandOffMovedPartitions() {
  // At most one hand-off in flight per partition.
  std::set<std::uint32_t> hosted;
  for (const auto& [client, id] : clients_) {
    if (!id.empty()) hosted.insert(Rebalancer::PartitionOf(id, kSubscriberPartitions));
  }
  std::set<std::uint32_t> inFlight;
  for (const auto& [id, handoff] : outHandoffs_) inFlight.insert(handoff.partition);
  for (const std::uint32_t partition : hosted) {
    const std::string& owner = assignment_.OwnerOf(partition);
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
  for (const auto& [client, id] : clients_) {
    if (id.empty() ||
        Rebalancer::PartitionOf(id, kSubscriberPartitions) != partition) {
      continue;
    }
    HandoffSession session;
    session.clientId = id;
    for (const std::string& topic : registry_.SetFrozen(client, true)) {
      const auto cur = topics_.find(topic);
      const StreamPos pos = cur != topics_.end() && cur->second.cursor
                                ? *cur->second.cursor
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
      env_.Schedule(kHandoffAckTimeout, [this, id] { AbortHandoff(id); });
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
      const auto cur = topics_.find(topic);
      if (cur == topics_.end() || !cur->second.cursor) continue;
      for (const Message& missed : cache_.GetAfter(topic, frozenAt)) {
        if (*cur->second.cursor < PosOf(missed)) break;
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
    assignment_ = Rebalancer::Compute(kSubscriberPartitions, rest);
    HandOffMovedPartitions();
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
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    if (!sequencer_.IsSequencing(g)) continue;
    sequencer_.EndEpoch(g);
    groups_[g].gossip.reset();
    coord_.Delete(GroupKey(g), {});
  }
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
  RequestSync({peerId}, /*reconstruct=*/false);
}

}  // namespace md::cluster
