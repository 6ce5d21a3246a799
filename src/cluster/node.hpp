// Multi-server MigratoryData protocol (paper §5): subscriber partitioning,
// coordinator-per-topic-group sequencing through MiniZK, gossip-based
// coordinator lookup, replication broadcast with ack-after-two-copies, cache
// reconstruction after crash/partition, and partition self-fencing.
//
// ClusterNode is a deterministic, single-threaded state machine. All I/O is
// delegated to a ClusterEnv so the same code runs under the simulation
// harness (tests, failover benchmarks) and under a real event loop.
//
// Protocol walk-through (paper §5.2.2):
//   - A publication arrives at its publisher's *contact server*.
//   - If the contact server coordinates the topic's group, it assigns
//     (epoch, seq) and broadcasts; it acknowledges the publisher after the
//     first replication confirmation (two copies exist).
//   - Otherwise it forwards to the coordinator from its gossip map, or — if
//     the group is unassigned — to a uniformly random peer, which attempts
//     to become coordinator via an atomic MiniZK create. The contact server
//     acknowledges its publisher when the sequenced broadcast arrives back
//     (it then holds the second copy).
//   - A node that fails to win the coordinator race rejects the forward; the
//     contact server answers "failed" and the publisher republishes.
//   - Coordinator failure deletes its ephemeral mapping; watchers race to
//     take over, the winner bumping the group's epoch (a linearized MiniZK
//     version) so streams across coordinators stay totally ordered.
//
// State: one GroupState per topic group (gossip entry, running election,
// outstanding cache sync, publications parked behind the election), one
// record per client (its application id) and one per topic (delivery cursor,
// gap-stall timer). Whether this node coordinates a group is the Sequencer's
// answer alone. Every publication, local or forwarded, is routed, gated and
// refused through one path (RoutePublication, Refuse).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.hpp"
#include "obs/families.hpp"
#include "cluster/quorum.hpp"
#include "cluster/rebalance.hpp"
#include "coord/assign.hpp"
#include "coord/node.hpp"
#include "core/cache.hpp"
#include "core/registry.hpp"
#include "core/sequencer.hpp"
#include "proto/frames.hpp"
#include "wal/env.hpp"
#include "wal/log.hpp"

namespace md::cluster {

using core::ClientHandle;

/// Subscriber partitions for the rendezvous session assignment.
inline constexpr std::uint32_t kSubscriberPartitions = 16;
/// Peers answer cache-sync requests in chunks of this many messages.
inline constexpr std::size_t kCacheSyncChunk = 512;

struct ClusterConfig {
  std::string serverId;
  std::uint32_t topicGroups = 100;
  core::CacheConfig cache;  // cache.topicGroups is overwritten by topicGroups
  /// Copies that must exist before a publication is acknowledged (paper
  /// §5.2: default 2 = contact + coordinator, tolerating one fault; raising
  /// it tolerates more concurrent faults at higher ack latency — the
  /// extension the paper sketches). Must be <= cluster size.
  std::size_t ackCopies = 2;
  /// Metrics destination; nullptr uses the process-wide default registry.
  /// The registry must outlive the node.
  obs::MetricsRegistry* metrics = nullptr;

  // --- elastic membership (DESIGN.md §12) -----------------------------------
  /// Opt-in: register an ephemeral members/ znode, watch the membership,
  /// rebalance subscriber partitions across live members on join/leave with a
  /// coordinated hand-off per moved partition, and gate sequencing on a
  /// majority of the messaging membership being reachable (a minority answers
  /// local publishers with a retryable kNoQuorum and bounces forwarded
  /// publications to their contact server, so it cannot split-brain a
  /// stream). Off = fixed membership, byte-identical behavior to the
  /// pre-elastic cluster.
  bool elastic = false;

  // --- durable topic cache (DESIGN.md §13) ----------------------------------
  /// Segmented WAL underneath the cache. wal.dir empty = no WAL (volatile
  /// cache, pre-durability behavior). A crash-restarted node then replays
  /// its local WAL first and asks peers only for the delta.
  wal::WalConfig wal;
  /// Storage backing the WAL. nullptr = PosixEnv (real files); the sim
  /// cluster passes a MemEnv with crash/disk-fault injection. Must outlive
  /// the node.
  wal::Env* walEnv = nullptr;
};

/// Host environment: client/peer I/O, timers, randomness.
class ClusterEnv {
 public:
  virtual ~ClusterEnv() = default;
  virtual void SendToPeer(const std::string& serverId, const Frame& frame) = 0;
  /// One frame to several peers, in order (a coordinator's broadcast). The
  /// TCP host encodes it once and queues the same bytes on every link; the
  /// default is one SendToPeer per peer.
  virtual void SendToPeers(const std::vector<std::string>& serverIds,
                           const Frame& frame) {
    for (const std::string& serverId : serverIds) SendToPeer(serverId, frame);
  }
  virtual void SendToClient(ClientHandle client, const Frame& frame) = 0;
  /// Batched fan-out of a DELIVER of `msg` (the local-delivery cursor path
  /// hands whole subscriber snapshots here). Both hosts forward it to the
  /// client front door, which encodes straight from the message once per
  /// transport flavour and shares the bytes across every socket write; the
  /// default preserves per-client semantics exactly.
  virtual void Deliver(const std::vector<ClientHandle>& clients, const Message& msg) {
    for (const ClientHandle client : clients) SendToClient(client, DeliverFrame{msg});
  }
  /// Forcibly close a client connection (self-fencing).
  virtual void CloseClient(ClientHandle client) = 0;
  virtual std::uint64_t Schedule(Duration delay, std::function<void()> fn) = 0;
  virtual void Cancel(std::uint64_t timerId) = 0;
  [[nodiscard]] virtual TimePoint Now() const = 0;
  virtual std::uint64_t Random() = 0;
};

class ClusterNode {
 public:
  ClusterNode(ClusterConfig cfg, ClusterEnv& env, coord::CoordNode& coord,
              std::vector<std::string> peerIds);

  // --- lifecycle -------------------------------------------------------------
  void Start();
  void Crash();    // fail-stop: drops all volatile state (incl. cache)
  /// Rejoin: replay the local WAL (if configured) into the cache, then ask
  /// peers only for the delta past the recovered per-topic cursors.
  void Restart();
  /// Graceful scale-in (elastic only): hand every locally hosted subscriber
  /// partition to its post-leave owner, deregister from the membership, then
  /// invoke `done`. Non-elastic nodes complete immediately.
  void Leave(std::function<void()> done = {});
  [[nodiscard]] bool IsCrashed() const noexcept { return crashed_; }
  [[nodiscard]] bool IsFenced() const noexcept { return fenced_; }
  [[nodiscard]] bool IsLeaving() const noexcept { return leaving_; }

  // --- client-side events (invoked by the host) ------------------------------
  void OnClientConnect(ClientHandle client, const std::string& clientId);
  /// Takes the frame by rvalue: a publication's topic and payload move on
  /// into the forward or the broadcast; the cache keeps the one copy.
  void OnClientFrame(ClientHandle client, Frame&& frame);
  void OnClientDisconnect(ClientHandle client);

  // --- peer events ------------------------------------------------------------
  void OnPeerFrame(const std::string& fromServerId, Frame&& frame);

  /// Incremental cache sync against one peer — invoked by the host when an
  /// inter-server connection is (re)established (paper §5.2.2).
  void SyncFromPeer(const std::string& peerId);

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] const std::string& serverId() const noexcept { return cfg_.serverId; }
  [[nodiscard]] const obs::ClusterMetrics& metrics() const noexcept { return cm_; }
  [[nodiscard]] const core::Cache& cache() const noexcept { return cache_; }
  [[nodiscard]] std::size_t LocalClientCount() const noexcept { return clients_.size(); }
  [[nodiscard]] bool CoordinatesGroup(std::uint32_t group) const {
    return sequencer_.IsSequencing(group);
  }
  [[nodiscard]] std::optional<std::pair<std::string, std::uint32_t>> GossipEntry(
      std::uint32_t group) const {
    if (group >= groups_.size() || !groups_[group].gossip) return std::nullopt;
    const Gossip& gossip = *groups_[group].gossip;
    return std::make_pair(gossip.serverId, gossip.epoch);
  }
  /// This incarnation's membership fence epoch (0 until joined).
  [[nodiscard]] std::uint32_t FenceEpoch() const noexcept { return fenceEpoch_; }
  /// Current subscriber-partition assignment (empty until first rebalance).
  [[nodiscard]] const Assignment& assignment() const noexcept { return assignment_; }
  /// The data-plane quorum verdict this node gates publishes on. Always true
  /// when elastic membership is off.
  [[nodiscard]] bool HasWriteQuorum() const {
    if (!cfg_.elastic) return true;
    return quorum_.Quorumed() && coord_.HasQuorumContact();
  }
  [[nodiscard]] const Quorum& quorum() const noexcept { return quorum_; }
  /// What the most recent WAL replay found (zeros when no WAL or no restart
  /// yet). Chaos/bench harnesses read this right after Restart().
  [[nodiscard]] const wal::RecoveryStats& lastWalRecovery() const noexcept {
    return lastRecovery_;
  }

  /// Instrumentation tap: invoked once per message as it becomes available
  /// for local fan-out on this server (used by the failover benchmark to
  /// attach a modeled subscriber population; no protocol effect).
  void SetLocalDeliveryHook(std::function<void(const Message&)> hook) {
    deliveryHook_ = std::move(hook);
  }

 private:
  /// Who sequences a group, as last learned from a broadcast or an
  /// announcement (the paper's gossip map, §5.2.1).
  struct Gossip {
    std::string serverId;
    std::uint32_t epoch = 0;
  };

  /// Publication waiting at the contact server for its second copy.
  struct PendingContact {
    ClientHandle publisher = 0;
    std::uint64_t timeoutTimer = 0;
  };

  /// Publication sequenced here, waiting for replication confirmations.
  /// Keyed by (topic, epoch, seq) — what BroadcastAck frames carry.
  struct PendingCoord {
    ClientHandle publisher = 0;      // publisher connected to this server, or 0
    std::string originServerId;      // contact server awaiting a notice, or ""
    PublicationId pubId;
    std::size_t acksReceived = 0;
    TimePoint start = 0;             // broadcast time, for replication-ack latency
  };
  using CoordAckKey = std::tuple<std::string, std::uint32_t, std::uint64_t>;

  /// Outgoing partition hand-off awaiting the new owner's ack. Cursors are
  /// captured at freeze time — the exact delivered-through boundary — and are
  /// what both the Begin frame and the client redirect carry.
  struct PendingHandoff {
    std::uint32_t partition = 0;
    std::string target;
    std::vector<std::pair<ClientHandle, HandoffSession>> sessions;
    std::uint64_t timeoutTimer = 0;
  };

  /// A publication on its way to being sequenced: a local client's, or one a
  /// contact server forwarded here (originServerId set).
  struct ParkedPublication {
    std::string topic;
    Bytes payload;
    PublicationId pubId;
    std::int64_t publishTs = 0;
    std::string originServerId;  // empty: local client publication
    ClientHandle publisher = 0;
  };

  /// Everything this node holds for one topic group. Whether it coordinates
  /// the group is the Sequencer's answer (IsSequencing), not a field here.
  struct GroupState {
    std::optional<Gossip> gossip;
    bool electing = false;  // takeover in flight
    bool syncing = false;   // cache sync outstanding
    std::deque<ParkedPublication> parked;  // waiting for the election
  };

  /// Local fan-out state of one topic.
  struct TopicState {
    /// Last position handed to local subscribers. Live broadcasts advance it
    /// through the cache so a backfilled gap is delivered before anything
    /// sequenced after it.
    std::optional<StreamPos> cursor;
    /// Set while a sequence gap stalls fan-out: the timer that resumes it
    /// if the backfill never completes.
    std::optional<std::uint64_t> stallTimer;
  };

  // Client protocol.
  void HandlePublish(ClientHandle client, PublishFrame&& pub);
  void HandleSubscribe(ClientHandle client, const SubscribeFrame& sub);

  // Publication routing. A publication forwarded here (`elect`) that this
  // node does not sequence runs it for coordinator — the MiniZK create
  // arbitrates — instead of taking the contact-server path.
  void RoutePublication(ParkedPublication pub, bool elect = false);
  void SequenceAndBroadcast(ParkedPublication&& pub, StreamPos pos);
  void Forward(ParkedPublication&& pub, const std::string& to,
               bool electIfUnassigned);
  /// Answers a publication that will not be sequenced: forwarded ones bounce
  /// to their contact server, local ones fail their publisher with `code`
  /// (or kFailed through the contact-side wait, when one is registered).
  void Refuse(const ParkedPublication& pub, PubAckCode code);
  void AttemptTakeover(std::uint32_t group);
  void FinishTakeover(std::uint32_t group, std::uint32_t epoch);
  void DrainParked(std::uint32_t group);
  void RejectParked(std::uint32_t group);

  // Peer protocol.
  void OnBroadcast(const std::string& from, const BroadcastFrame& bcast);
  void OnBroadcastAck(const std::string& from, const BroadcastAckFrame& ack);
  void OnForwardPub(const std::string& from, ForwardPubFrame&& fwd);
  void OnForwardReject(const ForwardRejectFrame& reject);
  void OnReplicatedNotice(const ReplicatedNoticeFrame& notice);
  void OnGossipAnnounce(const GossipAnnounceFrame& announce);
  void OnCacheSyncReq(const std::string& from, const CacheSyncReqFrame& req);
  void OnCacheSyncResp(const CacheSyncRespFrame& resp);

  // Elastic membership, rebalancing, hand-off (DESIGN.md §12).
  void JoinMembership();
  void RetryJoin();
  void RefreshMembershipFromStore();
  void OnMemberEvent(const std::string& memberId, const coord::WatchEvent& event);
  void ScheduleRebalance();
  void Rebalance();
  /// Starts a hand-off for every locally hosted subscriber partition that
  /// assignment_ gives to another member and that has none in flight.
  void HandOffMovedPartitions();
  void StartHandoff(std::uint32_t partition, const std::string& target);
  void OnHandoffBegin(const std::string& from, const HandoffBeginFrame& begin);
  void OnHandoffAck(const HandoffAckFrame& ack);
  void AbortHandoff(std::uint64_t handoffId);
  void MaybeFinishLeave();
  [[nodiscard]] bool RefuseStaleEpoch(const std::string& senderId,
                                      std::uint32_t epoch);

  // Reliability machinery.
  void SetupWatches();
  void CheckFence();
  void Fence();
  void Unfence();
  /// Drops what neither a crash nor a fence lets complete: coordinator roles,
  /// elections and parked publications, replication waits, hand-offs, the
  /// rebalance and join timers, and a pending leave.
  void DropInFlightWork();
  void StartCacheReconstruction();
  /// One CacheSyncReq per group to each of `peers`, carrying the contiguous
  /// per-topic cursors; a reconstruction also sends each topic's earliest
  /// position (head-hole backfill) and marks every group syncing.
  void RequestSync(const std::vector<std::string>& peers, bool reconstruct);
  void RecoverFromWal();
  void WalFlushTick();
  void DeliverToLocalSubscribers(const Message& msg);
  /// Hands local subscribers everything the cache holds past the topic's
  /// cursor. `appended` is a message the cache just accepted as its newest
  /// entry: when it is the cursor's immediate successor it is the only such
  /// message and is delivered as is, without reading the cache back.
  void DeliverInOrder(const std::string& topic, const Message* appended = nullptr);
  void StallDelivery(const std::string& topic);
  void AckContactPending(const PublicationId& pubId, bool ok);

  [[nodiscard]] std::uint32_t GroupOf(const std::string& topic) const noexcept {
    return TopicGroupOf(topic, cfg_.topicGroups);
  }
  [[nodiscard]] std::string GroupKey(std::uint32_t group) const {
    return "group/" + std::to_string(group);
  }
  [[nodiscard]] std::string EpochKey(std::uint32_t group) const {
    return "epoch/" + std::to_string(group);
  }

  ClusterConfig cfg_;
  ClusterEnv& env_;
  coord::CoordNode& coord_;
  std::vector<std::string> peers_;  // other servers' ids

  bool started_ = false;
  bool crashed_ = false;
  bool fenced_ = false;
  bool watchesInstalled_ = false;
  std::uint64_t fenceTimer_ = 0;

  core::SubscriptionRegistry registry_;
  core::Cache cache_;
  core::Sequencer sequencer_;

  /// Connected clients and their application ids ("" when the client gave
  /// none; such sessions never hand off).
  std::map<ClientHandle, std::string> clients_;
  std::vector<GroupState> groups_;  // indexed by group, sized topicGroups
  std::map<std::string, TopicState> topics_;
  std::map<PublicationId, PendingContact> pendingContact_;
  std::map<CoordAckKey, PendingCoord> pendingCoord_;
  std::function<void(const Message&)> deliveryHook_;

  // --- elastic membership state (all volatile; rebuilt on rejoin) -----------
  Quorum quorum_;
  std::vector<std::string> memberUniverse_;  // peers_ + self, the voting set
  std::uint32_t fenceEpoch_ = 0;             // my incarnation's epoch
  std::map<std::string, std::uint32_t> memberEpoch_;     // last announced epoch
  std::map<std::string, std::uint32_t> peerEpochFloor_;  // min accepted epoch
  Assignment assignment_;
  std::uint64_t rebalanceTimer_ = 0;
  std::uint64_t joinTimer_ = 0;
  std::uint64_t nextHandoffId_ = 1;
  std::map<std::uint64_t, PendingHandoff> outHandoffs_;
  /// New-owner side: transferred resume cursors awaiting the redirected
  /// client's reconnect, keyed by application client id. Consumed per topic
  /// by the first subscribe without its own resume position.
  std::map<std::string, std::vector<std::pair<std::string, StreamPos>>>
      pendingAttach_;
  bool leaving_ = false;
  std::function<void()> leaveDone_;

  obs::ClusterMetrics cm_;
  obs::WalMetrics wm_;
  TimePoint fenceStart_ = -1;  // Now() at the last Fence(); -1 = not fenced

  // --- durable cache state (survives Crash() by design) ---------------------
  std::unique_ptr<wal::Log> wal_;  // nullptr when cfg_.wal.dir is empty
  std::uint64_t walFlushTimer_ = 0;
  wal::RecoveryStats lastRecovery_;
};

}  // namespace md::cluster
