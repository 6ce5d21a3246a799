// md_server — standalone MigratoryData server daemon.
//
// Single-node mode (the §4 engine):
//   md_server --port 8800 --io-threads 4 --workers 4 [--batching]
//             [--batch-delay-ms 10] [--conflation] [--conflate-ms 100]
//             [--wal-dir /var/lib/md/wal] [--wal-fsync always|group|os]
//             [--wal-flush-ms 5] [--wal-segment-mb 4] [--wal-retain 8]
//
// Cluster mode (the §5 protocol; one process per member):
//   md_server --id server-1 --node 1
//             --client-port 8800 --peer-port 8801 --coord-port 8802
//             --peer server-2,2,127.0.0.1,8811,8812
//             --peer server-3,3,127.0.0.1,8821,8822
//
// Runs until SIGINT/SIGTERM; prints a stats line every few seconds.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "cluster/tcp_host.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "core/server.hpp"
#include "tools/flags.hpp"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int RunSingleNode(const md::tools::Flags& flags) {
  md::core::ServerConfig cfg;
  cfg.port = static_cast<std::uint16_t>(flags.GetInt("port", 8800));
  cfg.ioThreads = static_cast<int>(flags.GetInt("io-threads", 2));
  cfg.workers = static_cast<int>(flags.GetInt("workers", 2));
  cfg.serverId = flags.Get("id", "server-1");
  cfg.enableBatching = flags.GetBool("batching");
  cfg.batch.maxDelay = flags.GetInt("batch-delay-ms", 10) * md::kMillisecond;
  cfg.enableConflation = flags.GetBool("conflation");
  cfg.conflate.interval = flags.GetInt("conflate-ms", 100) * md::kMillisecond;
  cfg.cache.maxMessagesPerTopic =
      static_cast<std::size_t>(flags.GetInt("cache-messages", 1000));
  cfg.runtimeVerify = flags.GetBool("verify");
  cfg.verifyInjectEndpoint = flags.GetBool("verify-inject");
  cfg.verifyConfig.sampleEvery =
      static_cast<std::uint64_t>(flags.GetInt("verify-sample", 1));
  cfg.verifyConfig.byteBudget = static_cast<std::size_t>(
      flags.GetInt("verify-budget", 4 * 1024 * 1024));
  cfg.wal.dir = flags.Get("wal-dir", "");
  if (flags.Has("wal-fsync")) {
    const auto policy = md::wal::ParseFsyncPolicy(flags.Get("wal-fsync", ""));
    if (!policy) {
      std::fprintf(stderr, "bad --wal-fsync '%s' (want always|group|os)\n",
                   flags.Get("wal-fsync", "").c_str());
      return 2;
    }
    cfg.wal.fsync = *policy;
  }
  cfg.wal.flushInterval = flags.GetInt("wal-flush-ms", 5) * md::kMillisecond;
  cfg.wal.segmentBytes =
      static_cast<std::uint64_t>(flags.GetInt("wal-segment-mb", 4)) * 1024 * 1024;
  cfg.wal.retainSegments =
      static_cast<std::uint32_t>(flags.GetInt("wal-retain", 8));

  md::core::Server server(cfg);
  if (md::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s: single-node server on port %u (%d io threads, %d workers%s%s%s%s)\n",
              cfg.serverId.c_str(), server.Port(), cfg.ioThreads, cfg.workers,
              cfg.enableBatching ? ", batching" : "",
              cfg.enableConflation ? ", conflation" : "",
              cfg.runtimeVerify ? ", verify" : "",
              cfg.wal.dir.empty() ? "" : ", wal");
  if (!cfg.wal.dir.empty() && server.walRecovery().records > 0) {
    std::printf("wal: recovered %llu records (%llu torn, %llu corrupt)\n",
                static_cast<unsigned long long>(server.walRecovery().records),
                static_cast<unsigned long long>(server.walRecovery().tornTails),
                static_cast<unsigned long long>(
                    server.walRecovery().corruptSkipped));
  }

  md::core::ServerStats last{};
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    const auto stats = server.Stats();
    std::printf("conns=%llu pub/s=%.0f deliver/s=%.0f out=%.2f MB/s\n",
                static_cast<unsigned long long>(stats.connectionsActive),
                static_cast<double>(stats.published - last.published) / 5.0,
                static_cast<double>(stats.delivered - last.delivered) / 5.0,
                static_cast<double>(stats.bytesOut - last.bytesOut) / 5.0 / 1e6);
    std::fflush(stdout);
    last = stats;
  }
  server.Stop();
  return 0;
}

int RunClusterMember(const md::tools::Flags& flags) {
  md::cluster::TcpHostConfig cfg;
  cfg.serverId = flags.Get("id", "server-1");
  cfg.nodeId = static_cast<md::coord::NodeId>(flags.GetInt("node", 1));
  cfg.clientPort = static_cast<std::uint16_t>(flags.GetInt("client-port", 8800));
  cfg.peerPort = static_cast<std::uint16_t>(flags.GetInt("peer-port", 8801));
  cfg.coordPort = static_cast<std::uint16_t>(flags.GetInt("coord-port", 8802));
  cfg.cluster.ackCopies =
      static_cast<std::size_t>(flags.GetInt("ack-copies", 2));
  cfg.seed = static_cast<std::uint64_t>(flags.GetInt("seed", cfg.nodeId));
  cfg.runtimeVerify = flags.GetBool("verify");

  for (const std::string& peerSpec : flags.GetAll("peer")) {
    const auto parts = md::SplitView(peerSpec, ',');
    if (parts.size() != 5) {
      std::fprintf(stderr,
                   "bad --peer '%s' (want id,node,host,peerPort,coordPort)\n",
                   peerSpec.c_str());
      return 2;
    }
    md::cluster::TcpPeerAddress peer;
    peer.serverId = std::string(parts[0]);
    peer.nodeId = static_cast<md::coord::NodeId>(std::atoi(std::string(parts[1]).c_str()));
    peer.host = std::string(parts[2]);
    peer.peerPort = static_cast<std::uint16_t>(std::atoi(std::string(parts[3]).c_str()));
    peer.coordPort = static_cast<std::uint16_t>(std::atoi(std::string(parts[4]).c_str()));
    cfg.peers.push_back(std::move(peer));
  }

  md::cluster::TcpClusterHost host(cfg);
  if (md::Status s = host.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s: cluster member up (client %u, peer %u, coord %u, %zu peers)\n",
              cfg.serverId.c_str(), host.ClientPort(), host.PeerPort(),
              host.CoordPort(), cfg.peers.size());

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    unsigned long long published = 0, forwarded = 0, delivered = 0, takeovers = 0;
    std::size_t clients = 0;
    bool fenced = false;
    host.WithNode([&](md::cluster::ClusterNode& node) {
      const auto& m = node.metrics();
      published = m.published.Value();
      forwarded = m.forwarded.Value();
      delivered = m.delivered.Value();
      takeovers = m.takeovers.Value();
      clients = node.LocalClientCount();
      fenced = node.IsFenced();
    });
    std::printf("clients=%zu published=%llu forwarded=%llu delivered=%llu "
                "takeovers=%llu%s\n",
                clients, published, forwarded, delivered, takeovers,
                fenced ? " FENCED" : "");
    std::fflush(stdout);
  }
  host.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  md::SetLogLevel(md::LogLevel::kInfo);

  const md::tools::Flags flags(
      argc, argv,
      {"ack-copies", "batch-delay-ms", "batching", "cache-messages",
       "client-port", "conflate-ms", "conflation", "coord-port",
       "help", "id", "io-threads", "node", "peer", "peer-port",
       "port", "seed", "verify", "verify-budget", "verify-inject",
       "verify-sample", "wal-dir", "wal-flush-ms", "wal-fsync", "wal-retain",
       "wal-segment-mb", "workers"});
  if (flags.GetBool("help")) {
    std::printf("see the header comment of tools/md_server.cpp\n");
    return 0;
  }
  // Cluster mode when any peer is configured.
  if (!flags.GetAll("peer").empty() || flags.Has("peer-port")) {
    return RunClusterMember(flags);
  }
  return RunSingleNode(flags);
}
