// Deterministic full-cluster harness.
//
// Wires, on a single simulation scheduler:
//   - one SimNetwork host per MigratoryData server,
//   - a MiniZK node on each host (SimCoordCluster) — partitions and crashes
//     cut coordination traffic exactly like data traffic,
//   - a ClusterNode per server whose peer frames travel over SimNetwork
//     links (latency + bandwidth + partitions),
//   - an InprocLoop listener per server behind the shared client front door
//     (core/front_door.hpp), speaking the real byte protocol, so tests
//     attach the *real client library* (md::client::Client) and exercise
//     reconnection, resume and duplicate filtering end to end.
//
// Fault API: CrashServer / RestartServer (fail-stop; client connections are
// severed), PartitionServer / HealServer (server cut from its peers but NOT
// from its clients — the paper's fault model, which the node detects through
// MiniZK quorum loss and answers by self-fencing).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "cluster/node.hpp"
#include "coord/sim_harness.hpp"
#include "core/front_door.hpp"
#include "proto/codec.hpp"
#include "simnet/network.hpp"
#include "transport/inproc.hpp"
#include "wal/mem_env.hpp"

namespace md::cluster {

/// Rough wire size of a peer frame for the bandwidth model.
inline std::size_t EstimateFrameSize(const Frame& frame) {
  Bytes bytes;
  EncodeFrame(frame, bytes);
  return bytes.size() + 40;  // + TCP/IP framing overhead
}

class SimCluster {
 public:
  struct Options {
    std::size_t servers = 3;
    ClusterConfig nodeConfig;              // serverId is set per node
    coord::CoordConfig coordConfig;
    sim::LinkParams serverLinks;           // inter-server network
    Duration clientLinkDelay = 2 * kMillisecond;
    std::uint64_t seed = 42;
    /// Shared metrics registry for every node in the cluster; nullptr gives
    /// the cluster its own private registry (keeps repeated sim runs in one
    /// process from accumulating into the process-wide default).
    obs::MetricsRegistry* metrics = nullptr;
    /// Slow-consumer watermarks and grace for every client connection.
    /// Defaults are generous relative to sim traffic (256 KiB soft / 1 MiB
    /// hard) so only tests that deliberately stall a client ever cross them.
    core::BackpressureConfig clientBackpressure{
        /*softWatermark=*/256 * 1024, /*hardWatermark=*/1024 * 1024,
        /*lowWatermark=*/64 * 1024, /*evictGrace=*/250 * kMillisecond};
    /// Servers whose ClusterNode does NOT start with StartAll() — elastic
    /// scale-out tests boot them later with JoinServer(). Their coordination
    /// replica runs from t=0: the coordination ensemble is provisioned
    /// statically, only the messaging membership is elastic.
    std::set<std::size_t> deferredStart;
    /// Give every server a MemEnv-backed WAL under its cache. CrashServer
    /// then tears the unsynced tail realistically and RestartServer replays
    /// the survivors before asking peers for the delta. nodeConfig.wal is
    /// used as the template (its dir is overridden per server; an empty dir
    /// gets a default).
    bool durableCache = false;
  };

  explicit SimCluster(sim::Scheduler& sched, Options options)
      : sched_(sched),
        opts_(options),
        net_(sched, Rng(options.seed), options.serverLinks),
        clientLoop_(sched, options.clientLinkDelay) {
    if (opts_.metrics == nullptr) {
      ownedRegistry_ = std::make_unique<obs::MetricsRegistry>();
      opts_.metrics = ownedRegistry_.get();
    }
    opts_.coordConfig.metrics = opts_.metrics;
    std::vector<sim::HostId> hosts;
    for (std::size_t i = 0; i < opts_.servers; ++i) {
      hosts.push_back(net_.AddHost("server-" + std::to_string(i + 1)));
    }
    coordCluster_ = std::make_unique<coord::SimCoordCluster>(
        sched_, net_, hosts, opts_.coordConfig, opts_.seed);

    std::vector<std::string> ids;
    for (std::size_t i = 0; i < opts_.servers; ++i) {
      ids.push_back("server-" + std::to_string(i + 1));
    }
    for (std::size_t i = 0; i < opts_.servers; ++i) {
      auto server = std::make_unique<ServerHost>();
      server->index = i;
      server->id = ids[i];
      server->host = hosts[i];
      std::vector<std::string> peers;
      for (std::size_t j = 0; j < opts_.servers; ++j) {
        if (j != i) peers.push_back(ids[j]);
      }
      server->env = std::make_unique<NodeEnv>(*this, i, opts_.seed + 100 + i);
      ClusterConfig cfg = opts_.nodeConfig;
      cfg.serverId = ids[i];
      cfg.metrics = opts_.metrics;
      if (opts_.durableCache) {
        server->walEnv = std::make_unique<wal::MemEnv>();
        cfg.walEnv = server->walEnv.get();
        if (cfg.wal.dir.empty()) cfg.wal.dir = "wal/" + ids[i];
      } else {
        cfg.wal.dir.clear();  // no WAL without a fault-injectable env
      }
      server->node = std::make_unique<ClusterNode>(cfg, *server->env,
                                                   coordCluster_->node(i), peers);
      ClusterNode& node = *server->node;
      server->door = std::make_unique<core::ClientFrontDoor>(
          *opts_.metrics,
          core::ClientFrontDoor::Options{.labels = "",
                                         .backpressure = opts_.clientBackpressure,
                                         .batch = std::nullopt,
                                         .monitor = nullptr,
                                         .injectEndpoint = false},
          core::ClientFrontDoor::Sink{
              .onFrame = [&node](const core::SessionPtr& s, Frame&& f) {
                node.OnClientFrame(s->handle, std::move(f));
                return OkStatus();
              },
              .onClosed = [&node](const core::SessionPtr& s) {
                node.OnClientDisconnect(s->handle);
              }});
      servers_.push_back(std::move(server));
    }
    for (auto& server : servers_) OpenListener(*server);
  }

  void StartAll() {
    coordCluster_->StartAll();
    for (auto& server : servers_) {
      if (!opts_.deferredStart.contains(server->index)) server->node->Start();
    }
  }

  /// Client port of server i (connect the real client library here).
  [[nodiscard]] std::uint16_t ClientPort(std::size_t i) const {
    return static_cast<std::uint16_t>(10000 + i);
  }
  [[nodiscard]] InprocLoop& clientLoop() noexcept { return clientLoop_; }
  [[nodiscard]] ClusterNode& node(std::size_t i) { return *servers_.at(i)->node; }
  [[nodiscard]] coord::CoordNode& coordNode(std::size_t i) {
    return coordCluster_->node(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return servers_.size(); }
  [[nodiscard]] sim::SimNetwork& network() noexcept { return net_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *opts_.metrics; }
  [[nodiscard]] sim::HostId HostOf(std::size_t i) const {
    return servers_.at(i)->host;
  }
  /// Largest send-queue depth among server i's client connections — the
  /// quantity the backpressure invariant bounds by the hard watermark.
  [[nodiscard]] std::size_t MaxClientPending(std::size_t i) const {
    return servers_.at(i)->door->MaxPendingBytes();
  }

  // --- faults ----------------------------------------------------------------

  void CrashServer(std::size_t i) {
    ServerHost& server = *servers_.at(i);
    coordCluster_->CrashNode(i);  // host goes down too
    server.node->Crash();  // abandons WAL handles (no final sync) first...
    if (server.walEnv) {
      // ...then the storage loses everything unsynced, keeping a random
      // prefix of each file's unsynced tail — the kill -9 torn-write shapes.
      server.walEnv->Crash(opts_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)) ^
                           ++server.walCrashes);
    }
    // TCP connections to a dead host break.
    server.listener.reset();
    server.door->CloseAll();
  }

  void RestartServer(std::size_t i) {
    ServerHost& server = *servers_.at(i);
    coordCluster_->RestartNode(i);
    OpenListener(server);
    server.node->Restart();
  }

  /// Cut server i from all *other servers* (clients stay connected).
  void PartitionServer(std::size_t i) {
    for (std::size_t j = 0; j < servers_.size(); ++j) {
      if (j != i) net_.Partition(servers_[i]->host, servers_[j]->host);
    }
  }

  void HealServer(std::size_t i) { net_.HealAll(servers_[i]->host); }

  // --- disk faults (durableCache only; no-ops otherwise) ---------------------

  [[nodiscard]] bool HasDurableCache() const noexcept {
    return opts_.durableCache;
  }

  /// Flips one random bit somewhere in server i's WAL; false if it has no
  /// WAL bytes yet.
  bool FlipWalBit(std::size_t i, std::uint64_t salt) {
    ServerHost& server = *servers_.at(i);
    if (!server.walEnv) return false;
    return server.walEnv->FlipRandomBit(opts_.seed ^ salt ^ (i * 0x5851F42DULL));
  }

  /// Truncates a random tail off one of server i's WAL files (latent torn
  /// write); returns bytes removed.
  std::size_t TearWalTail(std::size_t i, std::uint64_t salt) {
    ServerHost& server = *servers_.at(i);
    if (!server.walEnv) return 0;
    return server.walEnv->TruncateRandomTail(opts_.seed ^ salt ^
                                             (i * 0x2545F491ULL));
  }

  /// ENOSPC switch for server i's WAL device. While full, WAL appends fail
  /// (counted); the in-memory cache keeps serving.
  void SetWalFull(std::size_t i, bool full) {
    ServerHost& server = *servers_.at(i);
    if (server.walEnv) server.walEnv->SetFull(full);
  }

  // --- elastic membership ----------------------------------------------------

  /// Scale-out: boot server i's node mid-run. Restart (not Start) so the
  /// fresh member warms its cache from peers before it can own resumed
  /// sessions — the paper's §5.2.2 reconstruction, reused for joins.
  void JoinServer(std::size_t i) {
    ServerHost& server = *servers_.at(i);
    if (!server.listener) OpenListener(server);
    server.node->Restart();
  }

  /// Scale-in: graceful leave. The node drains its hand-off wave, sheds its
  /// coordinator roles and deregisters; then the harness severs whatever is
  /// left (clients with no hand-off target reconnect elsewhere) and runs
  /// `done`.
  void LeaveServer(std::size_t i, std::function<void()> done = {}) {
    servers_.at(i)->node->Leave([this, i, done = std::move(done)] {
      ServerHost& server = *servers_.at(i);
      server.listener.reset();
      server.door->CloseAll();
      if (done) done();
    });
  }

  /// Cut servers [0, count) from servers [count, N) in both directions; the
  /// minority stays internally connected. This is the quorum-gate fault: the
  /// majority keeps sequencing while the minority must reject publishes with
  /// the retryable kNoQuorum status until healed.
  void PartitionMinority(std::size_t count) {
    for (std::size_t i = 0; i < count && i < servers_.size(); ++i) {
      for (std::size_t j = count; j < servers_.size(); ++j) {
        net_.Partition(servers_[i]->host, servers_[j]->host);
      }
    }
  }

  void HealMinority(std::size_t count) {
    for (std::size_t i = 0; i < count && i < servers_.size(); ++i) {
      net_.HealAll(servers_[i]->host);
    }
  }

  /// Link-recovery cache sync between two servers — what the real TCP host
  /// does when an inter-server connection re-establishes after a link fault
  /// (see TcpClusterHost). Call after healing a link flap: in-flight frames
  /// dropped by the flap model a broken TCP connection, and this models its
  /// recovery handshake.
  void ResyncLink(std::size_t i, std::size_t j) {
    servers_.at(i)->node->SyncFromPeer(servers_.at(j)->id);
    servers_.at(j)->node->SyncFromPeer(servers_.at(i)->id);
  }

 private:
  struct ServerHost {
    std::size_t index = 0;
    std::string id;
    sim::HostId host = 0;
    std::unique_ptr<ClusterEnv> env;
    std::unique_ptr<wal::MemEnv> walEnv;  // set when Options::durableCache
    std::uint64_t walCrashes = 0;         // crash-seed diversifier
    std::unique_ptr<ClusterNode> node;
    std::unique_ptr<core::ClientFrontDoor> door;  // outlives restarts
    ListenerPtr listener;
  };

  class NodeEnv final : public ClusterEnv {
   public:
    NodeEnv(SimCluster& cluster, std::size_t index, std::uint64_t seed)
        : cluster_(cluster), index_(index), rng_(seed) {}

    void SendToPeer(const std::string& serverId, const Frame& frame) override {
      const auto target = cluster_.IndexOf(serverId);
      if (!target) return;
      cluster_.net_.Send(
          cluster_.servers_[index_]->host, cluster_.servers_[*target]->host,
          EstimateFrameSize(frame),
          [&cluster = cluster_, from = cluster_.servers_[index_]->id,
           to = *target, frame] {
            // A copy per delivery: a duplicating link runs this twice.
            cluster.servers_[to]->node->OnPeerFrame(from, Frame(frame));
          });
    }

    void SendToClient(ClientHandle client, const Frame& frame) override {
      door().Send(client, frame);
    }
    void Deliver(const std::vector<ClientHandle>& clients,
                 const Message& msg) override {
      door().Deliver(clients, msg);
    }
    void CloseClient(ClientHandle client) override { door().CloseAfterFlush(client); }

    std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
      return cluster_.sched_.Schedule(delay, std::move(fn));
    }
    void Cancel(std::uint64_t timerId) override { cluster_.sched_.Cancel(timerId); }
    [[nodiscard]] TimePoint Now() const override { return cluster_.sched_.Now(); }
    std::uint64_t Random() override { return rng_.Next(); }

   private:
    core::ClientFrontDoor& door() { return *cluster_.servers_[index_]->door; }

    SimCluster& cluster_;
    std::size_t index_;
    Rng rng_;
  };

  [[nodiscard]] std::optional<std::size_t> IndexOf(const std::string& serverId) const {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->id == serverId) return i;
    }
    return std::nullopt;
  }

  void OpenListener(ServerHost& server) {
    auto listener = clientLoop_.Listen(ClientPort(server.index));
    if (!listener.ok()) return;
    server.listener = std::move(*listener);
    server.listener->SetAcceptHandler([this, &server](ConnectionPtr conn) {
      server.door->Accept(clientLoop_, 0, std::move(conn));
    });
  }

  sim::Scheduler& sched_;
  Options opts_;
  std::unique_ptr<obs::MetricsRegistry> ownedRegistry_;
  sim::SimNetwork net_;
  InprocLoop clientLoop_;
  std::unique_ptr<coord::SimCoordCluster> coordCluster_;
  std::vector<std::unique_ptr<ServerHost>> servers_;
};

}  // namespace md::cluster
