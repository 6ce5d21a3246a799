// Shared white-box harness for ClusterNode unit tests: a mock ClusterEnv
// that records every outgoing frame, and a coord::Env bridged onto the
// simulation scheduler so a single-member MiniZK commits writes instantly.
// Used by node_unit_test and the elastic-membership suites (quorum_test,
// fencing_test).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "simnet/scheduler.hpp"

namespace md::cluster::testutil {

class MockClusterEnv final : public ClusterEnv {
 public:
  explicit MockClusterEnv(sim::Scheduler& sched) : sched_(sched) {}

  void SendToPeer(const std::string& serverId, const Frame& frame) override {
    toPeers.emplace_back(serverId, frame);
  }
  void SendToClient(ClientHandle client, const Frame& frame) override {
    toClients.emplace_back(client, frame);
  }
  void CloseClient(ClientHandle client) override { closed.push_back(client); }
  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return sched_.Schedule(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { sched_.Cancel(timerId); }
  [[nodiscard]] TimePoint Now() const override { return sched_.Now(); }
  std::uint64_t Random() override { return randomValue; }

  template <typename T>
  [[nodiscard]] std::vector<std::pair<std::string, T>> PeersOf() const {
    std::vector<std::pair<std::string, T>> out;
    for (const auto& [to, f] : toPeers) {
      if (const auto* typed = std::get_if<T>(&f)) out.emplace_back(to, *typed);
    }
    return out;
  }
  template <typename T>
  [[nodiscard]] std::vector<std::pair<ClientHandle, T>> ClientsOf() const {
    std::vector<std::pair<ClientHandle, T>> out;
    for (const auto& [to, f] : toClients) {
      if (const auto* typed = std::get_if<T>(&f)) out.emplace_back(to, *typed);
    }
    return out;
  }
  void Clear() {
    toPeers.clear();
    toClients.clear();
    closed.clear();
  }

  std::vector<std::pair<std::string, Frame>> toPeers;
  std::vector<std::pair<ClientHandle, Frame>> toClients;
  std::vector<ClientHandle> closed;
  std::uint64_t randomValue = 2;  // "pick self" in a 2-peer election

 private:
  sim::Scheduler& sched_;
};

class CoordEnvOnSched final : public coord::Env {
 public:
  explicit CoordEnvOnSched(sim::Scheduler& sched) : sched_(sched) {}
  void Send(coord::NodeId, const coord::CoordMsg&) override {}
  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return sched_.Schedule(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { sched_.Cancel(timerId); }
  [[nodiscard]] TimePoint Now() const override { return sched_.Now(); }
  std::uint64_t Random() override { return 42; }

 private:
  sim::Scheduler& sched_;
};

}  // namespace md::cluster::testutil
