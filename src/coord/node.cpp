#include "coord/node.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace md::coord {

namespace {

constexpr Duration kElectionTimeoutMin = 150 * kMillisecond;
constexpr Duration kElectionTimeoutMax = 300 * kMillisecond;
constexpr Duration kHeartbeatInterval = 50 * kMillisecond;
constexpr Duration kTickInterval = 10 * kMillisecond;
/// Leader expires a member's session after this much silence.
constexpr Duration kSessionTimeout = 2 * kSecond;
/// A node reports loss of quorum contact after this much silence (drives the
/// MigratoryData partition self-fencing, paper §5.2.2).
constexpr Duration kQuorumLossThreshold = 1 * kSecond;
/// Origin-side timeout for forwarded writes.
constexpr Duration kRequestTimeout = 1 * kSecond;

}  // namespace

CoordNode::CoordNode(NodeId id, std::vector<NodeId> members, Env& env,
                     CoordConfig cfg)
    : id_(id),
      members_(std::move(members)),
      env_(env),
      om_(cfg.metrics != nullptr ? *cfg.metrics
                                 : obs::MetricsRegistry::Default(),
          obs::NodeLabel(std::to_string(id_))) {
  store_.SetFireCounter(&om_.watchFires);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void CoordNode::Start() {
  started_ = true;
  crashed_ = false;
  lastQuorumEvidence_ = env_.Now();
  ResetElectionDeadline();
  tickTimer_ = env_.Schedule(kTickInterval, [this] { Tick(); });
}

void CoordNode::Crash() {
  crashed_ = true;
  started_ = false;
  env_.Cancel(tickTimer_);
  // Volatile state is lost.
  role_ = Role::kFollower;
  leaderHint_.reset();
  commitIndex_ = 0;
  lastApplied_ = 0;
  store_.Reset();
  votesGranted_.clear();
  nextIndex_.clear();
  matchIndex_.clear();
  lastAck_.clear();
  expiredSessions_.clear();
  FailPending(Err(ErrorCode::kUnavailable, "node crashed"));
}

void CoordNode::Restart() {
  // Durable state (currentTerm_, votedFor_, log_) is intact; rejoin as
  // follower and let the leader replay commitment.
  Start();
}

void CoordNode::Tick() {
  if (crashed_) return;
  tickTimer_ = env_.Schedule(kTickInterval, [this] { Tick(); });
  const TimePoint now = env_.Now();

  if (role_ == Role::kLeader) {
    if (now - lastHeartbeat_ >= kHeartbeatInterval) BroadcastHeartbeats();
    CheckSessions();
    CheckLeaderLease();
    return;
  }

  if (now >= electionDeadline_) StartElection();
}

void CoordNode::ResetElectionDeadline() {
  const auto span =
      static_cast<std::uint64_t>(kElectionTimeoutMax - kElectionTimeoutMin);
  electionDeadline_ = env_.Now() + kElectionTimeoutMin +
                      static_cast<Duration>(span ? env_.Random() % span : 0);
}

// ---------------------------------------------------------------------------
// Elections
// ---------------------------------------------------------------------------

void CoordNode::StartElection() {
  om_.elections.Inc();
  role_ = Role::kCandidate;
  currentTerm_ += 1;
  votedFor_ = id_;
  votesGranted_ = {id_};
  leaderHint_.reset();
  ResetElectionDeadline();
  MD_DEBUG("coord %u: starting election for term %llu", id_,
           static_cast<unsigned long long>(currentTerm_));

  const RequestVote req{currentTerm_, id_, LastLogIndex(), LastLogTerm()};
  for (const NodeId peer : members_) {
    if (peer != id_) env_.Send(peer, req);
  }
  if (votesGranted_.size() >= Majority()) BecomeLeader();  // single-node cluster
}

void CoordNode::BecomeFollower(Term term) {
  if (term > currentTerm_) {
    currentTerm_ = term;
    votedFor_.reset();
  }
  if (role_ != Role::kFollower) {
    MD_DEBUG("coord %u: stepping down in term %llu", id_,
             static_cast<unsigned long long>(currentTerm_));
  }
  role_ = Role::kFollower;
  votesGranted_.clear();
  ResetElectionDeadline();
}

void CoordNode::BecomeLeader() {
  role_ = Role::kLeader;
  leaderHint_ = id_;
  const TimePoint now = env_.Now();
  lastQuorumEvidence_ = now;
  nextIndex_.clear();
  matchIndex_.clear();
  lastAck_.clear();
  expiredSessions_.clear();
  for (const NodeId peer : members_) {
    nextIndex_[peer] = LastLogIndex() + 1;
    matchIndex_[peer] = 0;
    lastAck_[peer] = now;  // grace period for session expiry
  }
  MD_INFO("coord %u: elected leader for term %llu", id_,
          static_cast<unsigned long long>(currentTerm_));
  // Commit a no-op to learn the commit point of previous terms (Raft §8).
  log_.push_back(LogEntry{currentTerm_, NoopCmd{}, 0, 0});
  matchIndex_[id_] = LastLogIndex();
  BroadcastHeartbeats();
  AdvanceCommit();
}

void CoordNode::OnRequestVote(NodeId from, const RequestVote& msg) {
  if (msg.term > currentTerm_) BecomeFollower(msg.term);

  bool granted = false;
  if (msg.term == currentTerm_ &&
      (!votedFor_ || *votedFor_ == msg.candidate)) {
    // Candidate's log must be at least as up-to-date as ours.
    const bool upToDate =
        msg.lastLogTerm > LastLogTerm() ||
        (msg.lastLogTerm == LastLogTerm() && msg.lastLogIndex >= LastLogIndex());
    if (upToDate) {
      granted = true;
      votedFor_ = msg.candidate;
      ResetElectionDeadline();
    }
  }
  env_.Send(from, VoteReply{currentTerm_, granted});
}

void CoordNode::OnVoteReply(NodeId from, const VoteReply& msg) {
  if (msg.term > currentTerm_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kCandidate || msg.term != currentTerm_ || !msg.granted) return;
  votesGranted_.insert(from);
  if (votesGranted_.size() >= Majority()) BecomeLeader();
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

void CoordNode::BroadcastHeartbeats() {
  lastHeartbeat_ = env_.Now();
  for (const NodeId peer : members_) {
    if (peer != id_) SendAppend(peer);
  }
}

void CoordNode::SendAppend(NodeId peer) {
  const LogIndex next = nextIndex_[peer];
  AppendEntries msg;
  msg.term = currentTerm_;
  msg.leader = id_;
  msg.prevLogIndex = next - 1;
  msg.prevLogTerm = TermAt(next - 1);
  msg.leaderCommit = commitIndex_;
  // Bound batch size to keep message sizes sane.
  constexpr std::size_t kMaxBatch = 512;
  for (LogIndex i = next; i <= LastLogIndex() && msg.entries.size() < kMaxBatch; ++i) {
    msg.entries.push_back(log_[i - 1]);
  }
  env_.Send(peer, msg);
}

void CoordNode::OnAppendEntries(NodeId from, const AppendEntries& msg) {
  if (msg.term < currentTerm_) {
    env_.Send(from, AppendReply{currentTerm_, false, 0});
    return;
  }
  if (msg.term > currentTerm_ || role_ != Role::kFollower) BecomeFollower(msg.term);
  leaderHint_ = msg.leader;
  lastQuorumEvidence_ = env_.Now();
  ResetElectionDeadline();

  // Consistency check.
  if (msg.prevLogIndex > LastLogIndex() ||
      TermAt(msg.prevLogIndex) != msg.prevLogTerm) {
    env_.Send(from, AppendReply{currentTerm_, false, 0});
    return;
  }

  // Append / overwrite conflicting suffix.
  LogIndex idx = msg.prevLogIndex;
  for (const LogEntry& entry : msg.entries) {
    ++idx;
    if (idx <= LastLogIndex()) {
      if (TermAt(idx) != entry.term) {
        log_.resize(idx - 1);  // drop conflicting suffix
        log_.push_back(entry);
      }
    } else {
      log_.push_back(entry);
    }
  }

  const LogIndex newCommit = std::min<LogIndex>(msg.leaderCommit, LastLogIndex());
  if (newCommit > commitIndex_) {
    commitIndex_ = newCommit;
    ApplyCommitted();
  }
  env_.Send(from, AppendReply{currentTerm_, true, idx});
}

void CoordNode::OnAppendReply(NodeId from, const AppendReply& msg) {
  if (msg.term > currentTerm_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kLeader || msg.term != currentTerm_) return;

  // One follower's reply is not quorum evidence: CheckLeaderLease counts a
  // majority of fresh acks before renewing the lease.
  lastAck_[from] = env_.Now();
  // A re-acking node is alive again; allow its session to be revived.
  expiredSessions_.erase(from);

  if (msg.success) {
    matchIndex_[from] = std::max(matchIndex_[from], msg.matchIndex);
    nextIndex_[from] = matchIndex_[from] + 1;
    AdvanceCommit();
    if (nextIndex_[from] <= LastLogIndex()) SendAppend(from);
  } else {
    // Back off and retry immediately.
    if (nextIndex_[from] > 1) nextIndex_[from] -= 1;
    SendAppend(from);
  }
}

void CoordNode::AdvanceCommit() {
  matchIndex_[id_] = LastLogIndex();
  for (LogIndex n = LastLogIndex(); n > commitIndex_; --n) {
    if (TermAt(n) != currentTerm_) break;  // only commit own-term entries
    std::size_t count = 0;
    for (const NodeId peer : members_) {
      if (matchIndex_[peer] >= n) ++count;
    }
    if (count >= Majority()) {
      commitIndex_ = n;
      ApplyCommitted();
      break;
    }
  }
}

void CoordNode::ApplyCommitted() {
  while (lastApplied_ < commitIndex_) {
    ++lastApplied_;
    // Copy, do not reference: applying a command fires watches, and a watch
    // callback may submit a new write that appends to (and reallocates)
    // log_, dangling any reference held across the Apply call.
    const LogEntry entry = log_[lastApplied_ - 1];
    const ApplyResult result = store_.Apply(entry.cmd);

    if (entry.requestId == 0) continue;
    if (role_ != Role::kLeader) continue;  // only the leader replies

    const ClientReply reply{entry.requestId, result.errorCode, result.version};
    if (entry.requestOrigin == id_) {
      OnClientReply(reply);
    } else {
      env_.Send(entry.requestOrigin, reply);
    }
  }
}

// ---------------------------------------------------------------------------
// Sessions & leases
// ---------------------------------------------------------------------------

void CoordNode::CheckSessions() {
  const TimePoint now = env_.Now();
  for (const NodeId peer : members_) {
    if (peer == id_) continue;
    if (expiredSessions_.contains(peer)) continue;
    if (now - lastAck_[peer] > kSessionTimeout) {
      MD_INFO("coord %u: expiring session of node %u", id_, peer);
      om_.sessionExpirations.Inc();
      expiredSessions_.insert(peer);
      log_.push_back(LogEntry{currentTerm_, ExpireSessionCmd{peer}, 0, 0});
      BroadcastHeartbeats();
      AdvanceCommit();
    }
  }
}

void CoordNode::CheckLeaderLease() {
  // Count peers heard from within the quorum-loss threshold (self included).
  const TimePoint now = env_.Now();
  std::size_t fresh = 1;
  for (const NodeId peer : members_) {
    if (peer == id_) continue;
    if (now - lastAck_[peer] <= kQuorumLossThreshold) ++fresh;
  }
  if (fresh >= Majority()) {
    lastQuorumEvidence_ = now;
  } else if (now - lastQuorumEvidence_ > kQuorumLossThreshold) {
    MD_WARN("coord %u: lost quorum contact, stepping down", id_);
    FailPending(Err(ErrorCode::kUnavailable, "leader lost quorum"));
    BecomeFollower(currentTerm_);
  }
}

bool CoordNode::HasQuorumContact() const {
  if (crashed_ || !started_) return false;
  if (members_.size() == 1) return true;
  return env_.Now() - lastQuorumEvidence_ <= kQuorumLossThreshold;
}

// ---------------------------------------------------------------------------
// Client writes
// ---------------------------------------------------------------------------

void CoordNode::CreateEphemeral(const std::string& key, const std::string& value,
                                WriteCallback cb) {
  SubmitWrite(CreateCmd{key, value, id_}, std::move(cb));
}

void CoordNode::Put(const std::string& key, const std::string& value,
                    WriteCallback cb) {
  SubmitWrite(PutCmd{key, value}, std::move(cb));
}

void CoordNode::Delete(const std::string& key, WriteCallback cb) {
  SubmitWrite(DeleteCmd{key, 0}, std::move(cb));
}

void CoordNode::SubmitWrite(Command cmd, WriteCallback cb) {
  if (crashed_ || !started_) {
    if (cb) cb(Err(ErrorCode::kUnavailable, "node down"), 0);
    return;
  }
  const std::uint64_t requestId = nextRequestId_++;

  PendingLocal pending;
  // Wrap the callback so every completion path — commit, timeout, FailPending
  // — lands in the client-visible write-latency histogram.
  pending.cb = [this, start = env_.Now(), cb = std::move(cb)](
                   Status s, std::uint64_t version) {
    om_.writeNs.Record(env_.Now() - start);
    if (cb) cb(std::move(s), version);
  };
  pending.timeoutTimer = env_.Schedule(kRequestTimeout, [this, requestId] {
    auto node = pendingLocal_.extract(requestId);
    if (node.empty()) return;
    if (node.mapped().cb) {
      node.mapped().cb(Err(ErrorCode::kTimeout, "write timed out (no quorum?)"), 0);
    }
  });
  pendingLocal_.emplace(requestId, std::move(pending));

  if (role_ == Role::kLeader) {
    LeaderAccept(std::move(cmd), requestId, id_);
  } else if (leaderHint_ && *leaderHint_ != id_) {
    env_.Send(*leaderHint_, ClientRequest{requestId, id_, std::move(cmd)});
  }
  // No known leader: keep the request pending; it fails via its timeout.
  // (Matches ZK behaviour: writes block while leaderless, then time out.)
}

void CoordNode::LeaderAccept(Command cmd, std::uint64_t requestId, NodeId origin) {
  log_.push_back(LogEntry{currentTerm_, std::move(cmd), requestId, origin});
  BroadcastHeartbeats();
  AdvanceCommit();  // single-node clusters commit immediately
}

void CoordNode::OnClientRequest(NodeId from, const ClientRequest& msg) {
  if (role_ != Role::kLeader) {
    // Bounce with an error so the origin can retry via its new hint.
    env_.Send(from, ClientReply{msg.requestId,
                                static_cast<std::uint8_t>(ErrorCode::kNotLeader), 0});
    return;
  }
  LeaderAccept(msg.cmd, msg.requestId, msg.origin);
}

void CoordNode::OnClientReply(const ClientReply& msg) {
  auto node = pendingLocal_.extract(msg.requestId);
  if (node.empty()) return;  // already timed out
  env_.Cancel(node.mapped().timeoutTimer);
  if (!node.mapped().cb) return;
  if (msg.errorCode == 0) {
    node.mapped().cb(OkStatus(), msg.version);
  } else {
    node.mapped().cb(Status(static_cast<ErrorCode>(msg.errorCode)), msg.version);
  }
}

void CoordNode::FailPending(const Status& status) {
  auto pending = std::move(pendingLocal_);
  pendingLocal_.clear();
  for (auto& [id, p] : pending) {
    env_.Cancel(p.timeoutTimer);
    if (p.cb) p.cb(status, 0);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void CoordNode::HandleMessage(NodeId from, const CoordMsg& msg) {
  if (crashed_ || !started_) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RequestVote>) {
          OnRequestVote(from, m);
        } else if constexpr (std::is_same_v<T, VoteReply>) {
          OnVoteReply(from, m);
        } else if constexpr (std::is_same_v<T, AppendEntries>) {
          OnAppendEntries(from, m);
        } else if constexpr (std::is_same_v<T, AppendReply>) {
          OnAppendReply(from, m);
        } else if constexpr (std::is_same_v<T, ClientRequest>) {
          OnClientRequest(from, m);
        } else if constexpr (std::is_same_v<T, ClientReply>) {
          OnClientReply(m);
        }
      },
      msg);
}

}  // namespace md::coord
