// MiniZK node: leader-based replicated KV (simplified Raft) with sessions,
// ephemeral entries and watches — the ZooKeeper stand-in (DESIGN.md §1).
//
// One CoordNode runs alongside each MigratoryData server (paper §5.2.1: "We
// deploy an instance of the ZooKeeper coordination service alongside each
// MigratoryData server"). The co-located server is the node's only client:
//   - writes (atomic create / put / delete) are linearized through the
//     leader's replicated log; callbacks fire once the command commits,
//   - reads are served from the local replica (sequentially consistent),
//   - entries created with an ephemeral owner disappear when the owner's
//     session expires (leader-side failure detection),
//   - watches fire locally as committed commands are applied.
//
// The node is a deterministic state machine: all I/O goes through Env
// (message send, timers, randomness), so it runs identically under the
// simulation scheduler and under a real event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "obs/families.hpp"
#include "coord/messages.hpp"
#include "coord/store.hpp"

namespace md::coord {

/// Environment a node runs in: messaging, timers, randomness.
class Env {
 public:
  virtual ~Env() = default;
  virtual void Send(NodeId to, const CoordMsg& msg) = 0;
  virtual std::uint64_t Schedule(Duration delay, std::function<void()> fn) = 0;
  virtual void Cancel(std::uint64_t timerId) = 0;
  [[nodiscard]] virtual TimePoint Now() const = 0;
  virtual std::uint64_t Random() = 0;
};

struct CoordConfig {
  /// Metrics destination; nullptr uses the process-wide default registry.
  /// The registry must outlive the node.
  obs::MetricsRegistry* metrics = nullptr;
};

enum class Role : std::uint8_t { kFollower, kCandidate, kLeader };

class CoordNode {
 public:
  using WriteCallback = std::function<void(Status, std::uint64_t version)>;

  CoordNode(NodeId id, std::vector<NodeId> members, Env& env, CoordConfig cfg = {});

  // --- lifecycle -------------------------------------------------------------
  void Start();
  /// Fail-stop: stops processing; volatile state (role, commit progress,
  /// store) is lost; durable state (term, votedFor, log) survives.
  void Crash();
  /// Come back after a Crash with durable state intact.
  void Restart();
  [[nodiscard]] bool IsCrashed() const noexcept { return crashed_; }

  /// Deliver a protocol message from a peer (wired up by the harness).
  void HandleMessage(NodeId from, const CoordMsg& msg);

  // --- client API (used by the co-located MigratoryData server) -------------
  void CreateEphemeral(const std::string& key, const std::string& value,
                       WriteCallback cb);
  void Put(const std::string& key, const std::string& value, WriteCallback cb);
  void Delete(const std::string& key, WriteCallback cb);
  [[nodiscard]] std::optional<KeyValue> Read(const std::string& key) const {
    return store_.Get(key);
  }
  void Watch(const std::string& key, WatchFn fn) { store_.Watch(key, std::move(fn)); }
  [[nodiscard]] std::vector<std::string> KeysWithPrefix(const std::string& p) const {
    return store_.KeysWithPrefix(p);
  }

  /// False when this node has not heard from a quorum recently — the signal
  /// MigratoryData uses to preventively close client connections.
  [[nodiscard]] bool HasQuorumContact() const;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool IsLeader() const noexcept { return role_ == Role::kLeader; }
  [[nodiscard]] Term term() const noexcept { return currentTerm_; }
  [[nodiscard]] LogIndex CommitIndex() const noexcept { return commitIndex_; }
  [[nodiscard]] const KvStore& store() const noexcept { return store_; }
  [[nodiscard]] std::optional<NodeId> KnownLeader() const noexcept { return leaderHint_; }

 private:
  // Consensus internals.
  void Tick();
  void StartElection();
  void BecomeFollower(Term term);
  void BecomeLeader();
  void BroadcastHeartbeats();
  void SendAppend(NodeId peer);
  void AdvanceCommit();
  void ApplyCommitted();
  void CheckSessions();
  void CheckLeaderLease();
  void ResetElectionDeadline();

  void OnRequestVote(NodeId from, const RequestVote& msg);
  void OnVoteReply(NodeId from, const VoteReply& msg);
  void OnAppendEntries(NodeId from, const AppendEntries& msg);
  void OnAppendReply(NodeId from, const AppendReply& msg);
  void OnClientRequest(NodeId from, const ClientRequest& msg);
  void OnClientReply(const ClientReply& msg);

  // Write-path internals.
  void SubmitWrite(Command cmd, WriteCallback cb);
  void LeaderAccept(Command cmd, std::uint64_t requestId, NodeId origin);
  void FailPending(const Status& status);

  [[nodiscard]] LogIndex LastLogIndex() const noexcept { return log_.size(); }
  [[nodiscard]] Term LastLogTerm() const noexcept {
    return log_.empty() ? 0 : log_.back().term;
  }
  [[nodiscard]] Term TermAt(LogIndex idx) const noexcept {
    return idx == 0 || idx > log_.size() ? 0 : log_[idx - 1].term;
  }
  [[nodiscard]] std::size_t Majority() const noexcept {
    return members_.size() / 2 + 1;
  }

  const NodeId id_;
  const std::vector<NodeId> members_;  // includes self
  Env& env_;

  // Durable state (survives Crash/Restart).
  Term currentTerm_ = 0;
  std::optional<NodeId> votedFor_;
  std::vector<LogEntry> log_;  // log_[i] holds index i+1

  // Volatile state.
  bool started_ = false;
  bool crashed_ = false;
  Role role_ = Role::kFollower;
  std::optional<NodeId> leaderHint_;
  LogIndex commitIndex_ = 0;
  LogIndex lastApplied_ = 0;
  KvStore store_;
  TimePoint electionDeadline_ = 0;
  TimePoint lastQuorumEvidence_ = 0;
  std::uint64_t tickTimer_ = 0;

  // Candidate state.
  std::set<NodeId> votesGranted_;

  // Leader state.
  std::map<NodeId, LogIndex> nextIndex_;
  std::map<NodeId, LogIndex> matchIndex_;
  std::map<NodeId, TimePoint> lastAck_;
  std::set<NodeId> expiredSessions_;
  TimePoint lastHeartbeat_ = 0;

  // Client write tracking.
  std::uint64_t nextRequestId_ = 1;
  struct PendingLocal {
    WriteCallback cb;
    std::uint64_t timeoutTimer = 0;
  };
  std::map<std::uint64_t, PendingLocal> pendingLocal_;  // requests I originated

  obs::CoordMetrics om_;
};

}  // namespace md::coord
