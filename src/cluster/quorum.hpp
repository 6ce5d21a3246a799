// Majority quorum gate for elastic cluster membership (modeled on the Red Hat
// cluster suite's cman quorum: named members, a majority-derived minQuorum
// and a quorumed() verdict — see SNIPPETS.md).
//
// The data-plane quorum is deliberately separate from MiniZK's Raft quorum:
// coordination liveness (HasQuorumContact) says "my coord replica can commit",
// while this gate says "a majority of *messaging* members is reachable from
// my vantage". ClusterNode ANDs the two before sequencing a publication, so a
// partitioned minority rejects publishes with a retryable status instead of
// split-braining (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace md::cluster {

/// Tracks the voting membership of the cluster (one vote per member) and
/// answers "do the members I can currently see form a majority?". Not
/// thread-safe; owned and driven by the single-threaded ClusterNode state
/// machine.
class Quorum {
 public:
  /// Registers a voting member. Members start offline; every registered
  /// member counts toward the total, reachable or not — quorum is measured
  /// against the provisioned universe, never against whoever answered last.
  void AddNode(const std::string& name) { online_.try_emplace(name, false); }

  /// Marks a member reachable/unreachable from this node's vantage.
  void SetOnline(const std::string& name, bool online) {
    const auto it = online_.find(name);
    if (it != online_.end()) it->second = online;
  }

  [[nodiscard]] bool IsOnline(const std::string& name) const {
    const auto it = online_.find(name);
    return it != online_.end() && it->second;
  }

  [[nodiscard]] std::uint32_t TotalVotes() const noexcept {
    return static_cast<std::uint32_t>(online_.size());
  }

  [[nodiscard]] std::uint32_t OnlineVotes() const noexcept {
    std::uint32_t online = 0;
    for (const auto& [name, up] : online_) online += up ? 1 : 0;
    return online;
  }

  /// Majority = floor(total/2) + 1. An even split is *not* quorate (2 of 4
  /// votes < 3): exactly the cman rule that makes a symmetric partition fence
  /// both halves rather than neither.
  [[nodiscard]] std::uint32_t MinQuorum() const noexcept {
    return TotalVotes() / 2 + 1;
  }

  /// True when the reachable members form a majority. An empty universe is
  /// not quorate — a node that has not learned membership yet must not
  /// sequence.
  [[nodiscard]] bool Quorumed() const noexcept {
    if (online_.empty()) return false;
    return OnlineVotes() >= MinQuorum();
  }

 private:
  std::map<std::string, bool> online_;  // member -> reachable
};

}  // namespace md::cluster
