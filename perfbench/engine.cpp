// pb_engine — the engine under test, one server role per process.
//
//   pb_engine single [--wal-dir DIR]   (the WAL uses the group fsync policy)
//   pb_engine probe   (prints whether this kernel can run io_uring)
//   pb_engine member --node N --client-port P --peer-port P --coord-port P
//                    --peer id,node,host,peerPort,coordPort ...
//
// Runs a core::Server with the default config (2 IoThreads, 2 Workers) or
// one TcpClusterHost (ackCopies = 2) on loopback, prints "READY <port>" and
// then answers line commands on stdin:
//
//   status   -> "STATUS <1 if a MiniZK leader is known (always 1 single)>"
//   metrics  -> the process's metrics registry, one line per sample:
//               "S\t<name>\t<labels>\t<value>" for counters and gauges,
//               "H\t<name>\t<labels>\t<bound>:<n>,<bound>:<n>,..." for
//               histograms (n samples at or below each grid bound in ns
//               and above the previous one; empty cells left out), then
//               "END"
//   quit/EOF -> stops the engine and exits 0
//
// The process reads and writes nothing but stdin/stdout and the WAL
// directory it is given.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/tcp_host.hpp"
#include "common/strutil.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"

namespace {

struct Args {
  std::string mode;
  std::vector<std::pair<std::string, std::string>> flags;

  [[nodiscard]] std::string Get(const std::string& name,
                                const std::string& fallback = "") const {
    for (const auto& [k, v] : flags) {
      if (k == name) return v;
    }
    return fallback;
  }
  [[nodiscard]] std::vector<std::string> GetAll(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : flags) {
      if (k == name) out.push_back(v);
    }
    return out;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    args->flags.emplace_back(key.substr(2), argv[i + 1]);
  }
  return args->mode == "single" || args->mode == "member" || args->mode == "probe";
}

// Histogram cells: 32 per power of two (~2% wide) up to 2^40 ns. Cell
// counts of two scrapes subtract, so a reader gets the percentiles of just
// what happened between them.
constexpr int kCellsPerOctave = 32;
constexpr int kOctaves = 40;

void PrintHistogram(const md::obs::FamilySnapshot& family,
                    const md::obs::SampleSnapshot& sample) {
  const md::Histogram h = md::obs::MetricsRegistry::Default()
                              .GetHistogram(family.name, family.help, sample.labels)
                              .Merged();
  std::printf("H\t%s\t%s\t", family.name.c_str(), sample.labels.c_str());
  std::uint64_t below = 0;
  std::int64_t prev = -1;
  const char* sep = "";
  for (int i = 0; i <= kOctaves * kCellsPerOctave && below < h.Count(); ++i) {
    const auto bound = static_cast<std::int64_t>(
        std::llround(std::exp2(static_cast<double>(i) / kCellsPerOctave)));
    if (bound <= prev) continue;
    prev = bound;
    const std::uint64_t cum = h.CountAtOrBelow(bound);
    if (cum == below) continue;
    std::printf("%s%lld:%llu", sep, static_cast<long long>(bound),
                static_cast<unsigned long long>(cum - below));
    sep = ",";
    below = cum;
  }
  if (below < h.Count()) {
    std::printf("%s%lld:%llu", sep, static_cast<long long>(h.Max()),
                static_cast<unsigned long long>(h.Count() - below));
  }
  std::printf("\n");
}

void PrintMetrics() {
  const md::obs::MetricsSnapshot snap = md::obs::MetricsRegistry::Default().Snapshot();
  for (const auto& family : snap.families) {
    for (const auto& s : family.samples) {
      if (family.kind == md::obs::MetricKind::kHistogram) {
        PrintHistogram(family, s);
      } else {
        std::printf("S\t%s\t%s\t%.17g\n", family.name.c_str(), s.labels.c_str(),
                    s.value);
      }
    }
  }
  std::printf("END\n");
  std::fflush(stdout);
}

/// Serves stdin commands until quit/EOF. `leaderKnown` answers "status".
void CommandLoop(const std::function<bool()>& leaderKnown) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line == "status") {
      std::printf("STATUS %d\n", leaderKnown() ? 1 : 0);
      std::fflush(stdout);
    } else if (line == "metrics") {
      PrintMetrics();
    }
  }
}

int RunSingle(const Args& args) {
  md::core::ServerConfig cfg;
  cfg.port = 0;
  cfg.wal.dir = args.Get("wal-dir");
  if (!cfg.wal.dir.empty()) cfg.wal.fsync = md::wal::FsyncPolicy::kGroupCommit;
  md::core::Server server(cfg);
  if (md::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "pb_engine: start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", server.Port());
  std::fflush(stdout);
  CommandLoop([] { return true; });
  server.Stop();
  return 0;
}

std::uint16_t PortFlag(const Args& args, const std::string& name) {
  return static_cast<std::uint16_t>(std::atoi(args.Get(name, "0").c_str()));
}

int RunMember(const Args& args) {
  md::cluster::TcpHostConfig cfg;
  cfg.nodeId = static_cast<md::coord::NodeId>(std::atoi(args.Get("node", "1").c_str()));
  cfg.serverId = "server-" + std::to_string(cfg.nodeId);
  cfg.clientPort = PortFlag(args, "client-port");
  cfg.peerPort = PortFlag(args, "peer-port");
  cfg.coordPort = PortFlag(args, "coord-port");
  cfg.cluster.ackCopies = 2;
  cfg.seed = cfg.nodeId;
  for (const std::string& spec : args.GetAll("peer")) {
    const auto parts = md::SplitView(spec, ',');
    if (parts.size() != 5) return 2;
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
    std::fprintf(stderr, "pb_engine: member start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", host.ClientPort());
  std::fflush(stdout);
  CommandLoop([&host] {
    bool known = false;
    host.WithCoord([&](md::coord::CoordNode& c) { known = c.KnownLeader().has_value(); });
    return known;
  });
  host.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header comment of perfbench/engine.cpp\n");
    return 2;
  }
  if (args.mode == "probe") {
    std::string whyNot;
    if (md::IoUringAvailable(&whyNot)) {
      std::printf("available\n");
    } else {
      std::printf("unavailable: %s\n", whyNot.c_str());
    }
    return 0;
  }
  return args.mode == "single" ? RunSingle(args) : RunMember(args);
}
