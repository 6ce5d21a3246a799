// Durability ablation benchmark (DESIGN.md §13).
//
// Part A — append-path overhead, real disk (PosixEnv, a temp dir):
//   cache append ns/op with the WAL off, and with each fsync policy
//   (os / group / always), and the fsyncs each policy made per append.
//   This is the price of "ack implies durable". Under `group` the Log's
//   SyncLoop runs on a thread of its own, as in core::Server, so its
//   fsyncs are counted but run beside the appends, not inside them.
//
// Part B — recovery-path ablation, simulated 3-server cluster (MemEnv WAL):
//   kill -9 one server mid-stream and restart it,
//     (a) volatile cache: the restarted node reconstructs its ENTIRE cache
//         from peers (the pre-WAL §5.2.2 path), vs
//     (b) durable cache: the node replays its local WAL and asks peers only
//         for the delta past its per-topic (epoch, seq) cursors.
//   The headline is peer-backfill volume (messages actually inserted from
//   CacheSyncResp) — local WAL + delta backfill must beat full peer
//   reconstruction — plus the WAL replay record count and wall time.
//
// Environment overrides:
//   MD_BENCH_DUR_APPENDS   Part A appends per policy   (default 4000)
//   MD_BENCH_DUR_MSGS      Part B publications         (default 600)
//   MD_BENCH_DUR_OUT       JSON output path (default BENCH_durability.json)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/table.hpp"
#include "cluster/sim_cluster.hpp"
#include "core/cache.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "wal/log.hpp"

using namespace md;
using namespace md::bench;

namespace {

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Message BenchMessage(std::uint64_t seq) {
  Message m;
  m.topic = "bench/" + std::to_string(seq % 8);
  m.payload.assign(256, static_cast<std::uint8_t>(seq));
  m.epoch = 1;
  m.seq = seq / 8 + 1;
  m.pubId = {0xBE7C4, seq};
  m.publishTs = static_cast<std::int64_t>(seq);
  return m;
}

// --- Part A ----------------------------------------------------------------

struct AppendResult {
  std::string policy;  // "off" | "os" | "group" | "always"
  double nsPerOp = 0;
  std::uint64_t appends = 0;
  double fsyncsPerAppend = 0;
};

AppendResult RunAppend(const std::string& policy, long appends,
                       const std::string& dir) {
  AppendResult r;
  r.policy = policy;
  r.appends = static_cast<std::uint64_t>(appends);

  core::CacheConfig ccfg;
  ccfg.topicGroups = 8;
  core::Cache cache(ccfg);
  obs::MetricsRegistry registry;
  obs::WalMetrics metrics(registry);
  std::unique_ptr<wal::Log> log;
  std::jthread syncer;
  if (policy != "off") {
    wal::WalConfig wcfg;
    wcfg.dir = dir + "/" + policy;
    wcfg.fsync = *wal::ParseFsyncPolicy(policy);
    log = std::make_unique<wal::Log>(wal::PosixEnv::Instance(), wcfg, &metrics);
    cache.AttachWal(log.get());
    if (wcfg.fsync == wal::FsyncPolicy::kGroupCommit) {
      syncer = std::jthread(
          [&log](std::stop_token stop) { log->SyncLoop(stop); });
    }
  }

  // Appends back to back from one thread. The 8 topics' groups all share
  // the one journal, so under `group` the sync thread fsyncs at most once
  // per 5 ms flushInterval whatever the append rate.
  const double t0 = NowSec();
  for (long i = 0; i < appends; ++i) {
    cache.Append(BenchMessage(static_cast<std::uint64_t>(i)));
  }
  if (syncer.joinable()) {
    syncer.request_stop();
    syncer.join();
  }
  if (log) log->Close();
  const double elapsed = NowSec() - t0;
  r.nsPerOp = elapsed * 1e9 / static_cast<double>(appends);
  r.fsyncsPerAppend = static_cast<double>(metrics.fsyncs.Value()) /
                      static_cast<double>(appends);
  return r;
}

// --- Part B ----------------------------------------------------------------

struct RecoveryResult {
  std::uint64_t published = 0;      // messages in every cache pre-crash
  std::uint64_t walRecovered = 0;   // records replayed from the local WAL
  std::uint64_t peerBackfilled = 0; // messages inserted from CacheSyncResp
  double walReplayMs = 0;           // WAL replay portion of the restart
  double restartWallMs = 0;         // host wall time, restart -> converged
  std::uint64_t finalCached = 0;    // victim's cache after convergence
};

RecoveryResult RunRecovery(bool durable, long msgs) {
  RecoveryResult r;
  sim::Scheduler sched;
  cluster::SimCluster::Options o;
  o.servers = 3;
  o.seed = 42;
  o.durableCache = durable;
  o.nodeConfig.topicGroups = 8;
  o.nodeConfig.wal.fsync = wal::FsyncPolicy::kAlways;
  o.nodeConfig.wal.segmentBytes = 256 * 1024;
  o.nodeConfig.wal.retainSegments = 64;
  cluster::SimCluster cluster(sched, o);
  cluster.StartAll();
  sched.RunFor(2 * kSecond);  // membership + gossip settle

  // Publish through server 0's real client path (acks to the phantom
  // handle are dropped by the sim env; sequencing/broadcast is the same).
  cluster.node(0).OnClientConnect(1, "bench-pub");
  for (long i = 0; i < msgs; ++i) {
    PublishFrame pub;
    pub.topic = "bench/" + std::to_string(i % 8);
    pub.payload.assign(256, static_cast<std::uint8_t>(i));
    pub.pubId = {0xBE7C4, static_cast<std::uint64_t>(i + 1)};
    pub.wantAck = false;
    cluster.node(0).OnClientFrame(1, Frame(pub));
    sched.RunFor(2 * kMillisecond);
  }
  sched.RunFor(2 * kSecond);
  r.published = cluster.node(1).cache().TotalMessages();

  cluster.CrashServer(1);
  sched.RunFor(500 * kMillisecond);

  const double t0 = NowSec();
  cluster.RestartServer(1);   // WAL replay happens synchronously in here
  const double t1 = NowSec();
  sched.RunFor(5 * kSecond);  // peer sync + convergence
  const double t2 = NowSec();

  const auto& rec = cluster.node(1).lastWalRecovery();
  r.walRecovered = rec.records;
  r.walReplayMs = (t1 - t0) * 1e3;
  r.restartWallMs = (t2 - t0) * 1e3;
  r.peerBackfilled = cluster.node(1).metrics().backfilled.Value();
  r.finalCached = cluster.node(1).cache().TotalMessages();
  return r;
}

void PrintRecovery(const char* label, const RecoveryResult& r) {
  std::printf(
      "%-8s | pre-crash cached %llu | wal replayed %llu (%.2f ms) | "
      "peer backfilled %llu | restart wall %.2f ms | final cached %llu\n",
      label, static_cast<unsigned long long>(r.published),
      static_cast<unsigned long long>(r.walRecovered), r.walReplayMs,
      static_cast<unsigned long long>(r.peerBackfilled), r.restartWallMs,
      static_cast<unsigned long long>(r.finalCached));
}

}  // namespace

int main() {
  const long appends = std::max(500L, EnvLong("MD_BENCH_DUR_APPENDS", 4000));
  const long msgs = std::max(100L, EnvLong("MD_BENCH_DUR_MSGS", 600));
  const char* outPath = std::getenv("MD_BENCH_DUR_OUT");
  if (outPath == nullptr) outPath = "BENCH_durability.json";

  // --- Part A: append overhead per fsync policy (real disk) ---------------
  char dirTemplate[] = "/tmp/md_bench_durXXXXXX";
  const char* dir = mkdtemp(dirTemplate);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  std::printf("=== Part A: cache append ns/op, %ld appends, 256 B payload "
              "(dir %s) ===\n", appends, dir);
  std::vector<AppendResult> appendResults;
  for (const char* policy : {"off", "os", "group", "always"}) {
    appendResults.push_back(RunAppend(policy, appends, dir));
    std::printf("  fsync=%-7s %10.0f ns/op  %8.4f fsyncs/append\n",
                appendResults.back().policy.c_str(),
                appendResults.back().nsPerOp,
                appendResults.back().fsyncsPerAppend);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // --- Part B: recovery ablation ------------------------------------------
  std::printf("\n=== Part B: kill -9 + restart of one of 3 servers, %ld "
              "publications ===\n", msgs);
  const RecoveryResult fullRebuild = RunRecovery(/*durable=*/false, msgs);
  PrintRecovery("volatile", fullRebuild);
  const RecoveryResult walDelta = RunRecovery(/*durable=*/true, msgs);
  PrintRecovery("wal", walDelta);

  std::vector<ShapeCheck> checks;
  checks.push_back({"volatile: rebuilds everything from peers",
                    static_cast<double>(fullRebuild.published),
                    static_cast<double>(fullRebuild.peerBackfilled),
                    fullRebuild.peerBackfilled >= fullRebuild.published});
  checks.push_back({"wal: local replay recovers the bulk", 1.0,
                    static_cast<double>(walDelta.walRecovered),
                    walDelta.walRecovered >= 1});
  checks.push_back({"wal: delta backfill beats full reconstruction",
                    static_cast<double>(fullRebuild.peerBackfilled),
                    static_cast<double>(walDelta.peerBackfilled),
                    walDelta.peerBackfilled < fullRebuild.peerBackfilled});
  checks.push_back({"both: victim converges to the full stream",
                    static_cast<double>(fullRebuild.published),
                    static_cast<double>(walDelta.finalCached),
                    walDelta.finalCached >= fullRebuild.published &&
                        fullRebuild.finalCached >= fullRebuild.published});
  PrintShapeChecks(checks);

  std::FILE* f = std::fopen(outPath, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"durability\",\n"
               "  \"runs\": 1,\n"
               "  \"note\": \"a single run: no spread is measured\",\n"
               "  \"config\": {\"appends\": %ld, \"payload_bytes\": 256, "
               "\"recovery_publications\": %ld},\n"
               "  \"append_ns_per_op\": {",
               appends, msgs);
  for (std::size_t i = 0; i < appendResults.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.0f", i ? ", " : "",
                 appendResults[i].policy.c_str(), appendResults[i].nsPerOp);
  }
  std::fprintf(f, "},\n  \"fsyncs_per_append\": {");
  for (std::size_t i = 0; i < appendResults.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.4f", i ? ", " : "",
                 appendResults[i].policy.c_str(),
                 appendResults[i].fsyncsPerAppend);
  }
  std::fprintf(f, "},\n");
  const auto writeRecovery = [f](const char* key, const RecoveryResult& r,
                                 bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\"pre_crash_cached\": %llu, "
                 "\"wal_replayed\": %llu, \"wal_replay_ms\": %.3f, "
                 "\"peer_backfilled\": %llu, \"restart_wall_ms\": %.3f, "
                 "\"final_cached\": %llu}%s\n",
                 key, static_cast<unsigned long long>(r.published),
                 static_cast<unsigned long long>(r.walRecovered),
                 r.walReplayMs,
                 static_cast<unsigned long long>(r.peerBackfilled),
                 r.restartWallMs,
                 static_cast<unsigned long long>(r.finalCached),
                 comma ? "," : "");
  };
  writeRecovery("recovery_volatile", fullRebuild, true);
  writeRecovery("recovery_wal_delta", walDelta, false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", outPath);

  bool ok = true;
  for (const auto& c : checks) ok = ok && c.pass;
  return ok ? 0 : 1;
}
