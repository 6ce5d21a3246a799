// C10M footprint bench (paper §6.1, [16]): 10 million concurrent clients on
// a single server, each the sole subscriber of its own topic. At that scale
// the binding constraint is BYTES PER SESSION, so this bench is honest about
// it: instead of only running the calibrated latency model, it allocates N
// REAL sessions — same `core::Session` struct, same slab allocator, same
// `SessionTable`, real subscriptions through the real
// `SubscriptionRegistry` — and reports measured RSS and slab-accounted
// bytes/session against a hard budget.
//
// Legs:
//   1. footprint   N real sessions + subscriptions; VmRSS delta and exact
//                  slab/registry/table accounting; budget gate.
//   2. churn       drop and re-admit 10% of the population; slab occupancy
//                  and chunk count must return to the pre-churn level
//                  (steady-state churn allocates nothing new).
//   3. latency     the calibrated fan-out model at 10M clients (unchanged:
//                  same engine constants as Table 1; the reference blog post
//                  reports 61 ms mean with the stock JVM).
//   4. smoke       a small real-socket population through the real engine,
//                  scraping md_core_bytes_per_session from the live
//                  registry.
//
// Environment overrides:
//   MD_BENCH_C10M_SESSIONS  footprint population   (default 1,000,000;
//                           scale up to 10M when the machine has the RAM)
//   MD_BENCH_C10M_BUDGET    engine bytes/session budget (default 1024)
//   MD_BENCH_C10M_SMOKE     smoke-leg client count (default 200; 0 skips)
//   MD_BENCH_SECONDS / MD_BENCH_WARMUP   model leg, simulated seconds
//   MD_BENCH_C10M_OUT       JSON output path (default BENCH_c10m.json)
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "bench_support/engine_model.hpp"
#include "bench_support/table.hpp"
#include "client/client.hpp"
#include "common/histogram.hpp"
#include "common/slab.hpp"
#include "common/topic_intern.hpp"
#include "core/registry.hpp"
#include "core/server.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "transport/epoll_loop.hpp"

using namespace md;
using namespace md::bench;
using namespace std::chrono_literals;

namespace {

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

Duration EnvSeconds(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return (v ? std::atol(v) : fallback) * kSecond;
}

/// VmRSS in bytes from /proc/self/status (Linux-only, like the transport).
std::uint64_t ReadRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::string TopicName(long i) { return "c10m/topic-" + std::to_string(i); }

/// Engine-accounted footprint: slab bytes (sessions + registry FlatMap
/// arrays + SmallVector spill all draw from the arena, so one number covers
/// them without double counting) plus the two estimated non-slab tables.
/// Mirrors core::ClientFrontDoor::RefreshBytesPerSession.
std::uint64_t EngineBytes(const core::SessionTable& table) {
  return SlabArena::Default().Stats().bytesInUse + table.MemoryBytes() +
         TopicTable::Default().MemoryBytes();
}

struct FootprintResult {
  long sessions = 0;
  std::uint64_t rssBefore = 0;
  std::uint64_t rssAfter = 0;
  std::uint64_t engineBytes = 0;
  SlabStats slab;
  core::RegistryFootprint registry;
  std::uint64_t sessionTableBytes = 0;
  std::uint64_t topicTableBytes = 0;
  double rssPerSession = 0;
  double bytesPerSession = 0;
};

}  // namespace

int main() {
  const long sessions = std::max(1L, EnvLong("MD_BENCH_C10M_SESSIONS", 1'000'000));
  const long budget = EnvLong("MD_BENCH_C10M_BUDGET", 1024);
  const long smokeClients = EnvLong("MD_BENCH_C10M_SMOKE", 200);
  const Duration measure = EnvSeconds("MD_BENCH_SECONDS", 600);
  const Duration warmup = EnvSeconds("MD_BENCH_WARMUP", 120);
  const char* outPath = std::getenv("MD_BENCH_C10M_OUT");
  if (outPath == nullptr) outPath = "BENCH_c10m.json";

  std::printf(
      "=== C10M: millions of concurrent clients, single server ===\n"
      "Footprint: %ld REAL sessions (slab-allocated core::Session, real\n"
      "SubscriptionRegistry, each client sole subscriber of its own topic),\n"
      "budget %ld B/session. Latency: calibrated model at 10M clients.\n\n",
      sessions, budget);

  // ---- Leg 1: footprint -------------------------------------------------
  core::SessionTable table;
  core::SubscriptionRegistry registry;

  FootprintResult fp;
  fp.sessions = sessions;
  fp.rssBefore = ReadRssBytes();
  const SlabStats baseline = SlabArena::Default().Stats();
  const auto allocStart = std::chrono::steady_clock::now();
  for (long i = 0; i < sessions; ++i) {
    const core::ClientHandle handle = static_cast<core::ClientHandle>(i + 1);
    core::SessionPtr s = core::MakeSession();
    s->handle = handle;
    s->ioIndex = static_cast<std::size_t>(i) & 1u;
    s->clientId = "c" + std::to_string(handle);  // SSO: no heap string
    table.Insert(s);  // the table's shared_ptr is the only long-lived ref
    registry.Subscribe(TopicName(i), handle);
    if ((i + 1) % 1'000'000 == 0) {
      std::printf("  ... %ldM sessions, slab %.1f MiB in use\n", (i + 1) / 1'000'000,
                  SlabArena::Default().Stats().bytesInUse / 1048576.0);
    }
  }
  const double allocSecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - allocStart)
          .count();

  fp.rssAfter = ReadRssBytes();
  fp.slab = SlabArena::Default().Stats();
  fp.registry = registry.Footprint();
  fp.sessionTableBytes = table.MemoryBytes();
  fp.topicTableBytes = TopicTable::Default().MemoryBytes();
  fp.engineBytes = EngineBytes(table);
  fp.rssPerSession =
      static_cast<double>(fp.rssAfter - fp.rssBefore) / static_cast<double>(sessions);
  fp.bytesPerSession =
      static_cast<double>(fp.engineBytes) / static_cast<double>(sessions);

  std::printf(
      "allocated %ld sessions + subscriptions in %.1f s (%.0f/s)\n"
      "  RSS            %.1f MiB -> %.1f MiB  (%.0f B/session)\n"
      "  slab in use    %.1f MiB in %llu slots, %llu chunks (%.1f MiB reserved)\n"
      "  slab oversize  %llu allocations, %.1f MiB\n"
      "  registry       %zu topics, %zu clients, %.1f MiB (slab-backed)\n"
      "  session table  %.1f MiB   topic intern  %.1f MiB (%zu ids)\n"
      "  engine bytes/session: %.0f (budget %ld)\n\n",
      sessions, allocSecs, sessions / allocSecs,
      fp.rssBefore / 1048576.0, fp.rssAfter / 1048576.0, fp.rssPerSession,
      fp.slab.bytesInUse / 1048576.0,
      static_cast<unsigned long long>(fp.slab.slotsInUse),
      static_cast<unsigned long long>(fp.slab.chunks),
      fp.slab.bytesReserved / 1048576.0,
      static_cast<unsigned long long>(fp.slab.oversize),
      fp.slab.oversizeBytes / 1048576.0, fp.registry.topicEntries,
      fp.registry.clientEntries, fp.registry.bytes / 1048576.0,
      fp.sessionTableBytes / 1048576.0, fp.topicTableBytes / 1048576.0,
      TopicTable::Default().Size(), fp.bytesPerSession, budget);

  // ---- Leg 2: churn -----------------------------------------------------
  // Drop the last 10% and re-admit the same count under fresh handles
  // (re-subscribing to the dropped topics — ids are already interned). A
  // slab that actually recycles shows the same occupancy and chunk count;
  // a leak shows monotonic growth here long before it shows at 10M.
  const long churn = std::max(1L, sessions / 10);
  const SlabStats preChurn = SlabArena::Default().Stats();
  for (long i = sessions - churn; i < sessions; ++i) {
    const core::ClientHandle handle = static_cast<core::ClientHandle>(i + 1);
    registry.DropClient(handle);
    table.Erase(handle);  // last ref: Session returns to the slab freelist
  }
  const SlabStats dropped = SlabArena::Default().Stats();
  for (long i = sessions - churn; i < sessions; ++i) {
    const core::ClientHandle handle = static_cast<core::ClientHandle>(sessions + (i + 1));
    core::SessionPtr s = core::MakeSession();
    s->handle = handle;
    s->clientId = "c" + std::to_string(handle);
    table.Insert(s);
    registry.Subscribe(TopicName(i), handle);
  }
  const SlabStats postChurn = SlabArena::Default().Stats();
  const bool churnSlotsOk = postChurn.slotsInUse == preChurn.slotsInUse;
  const bool churnChunksOk = postChurn.chunks == preChurn.chunks;
  std::printf(
      "churn %ld sessions: slots %llu -> %llu -> %llu, chunks %llu -> %llu "
      "(%s)\n\n",
      churn, static_cast<unsigned long long>(preChurn.slotsInUse),
      static_cast<unsigned long long>(dropped.slotsInUse),
      static_cast<unsigned long long>(postChurn.slotsInUse),
      static_cast<unsigned long long>(preChurn.chunks),
      static_cast<unsigned long long>(postChurn.chunks),
      churnSlotsOk && churnChunksOk ? "recycled" : "LEAKED");

  // Release the footprint population before the model + smoke legs.
  for (long i = 0; i < sessions; ++i) {
    registry.DropClient(static_cast<core::ClientHandle>(i + 1));
  }
  table.Clear();

  // ---- Leg 3: calibrated latency model at 10M ---------------------------
  constexpr std::uint32_t kModelClients = 10'000'000;
  EngineModelConfig modelCfg;
  modelCfg.payloadBytes = 512;
  EngineModel model(modelCfg, /*seed=*/424242);
  const auto r = model.Run(/*topics=*/kModelClients,
                           /*subscribersPerTopic=*/1,
                           /*publishInterval=*/kMinute, warmup, measure,
                           /*latencySamplesPerFanout=*/16);
  PrintLatencyTableHeader("Clients");
  PrintLatencyRow({"10M", r.latency, r.cpuFraction * 100.0, r.gbpsOut,
                   static_cast<int>(kModelClients)});
  const double rate =
      static_cast<double>(r.deliveries) / ToSeconds(warmup + measure);

  // ---- Leg 4: real-engine smoke -----------------
  std::uint64_t smokeExpected = 0;
  std::atomic<std::uint64_t> smokeReceived{0};
  double liveBytesPerSession = 0;
  bool smokeRan = false;
  if (smokeClients > 0) {
    smokeRan = true;
    constexpr int kSmokeTopics = 10;
    constexpr long kSmokeBursts = 3;
    std::printf("\nsmoke: %ld live clients through the real engine\n",
                smokeClients);

    obs::MetricsRegistry metrics;
    core::ServerConfig serverCfg;
    serverCfg.ioThreads = 2;
    serverCfg.workers = 2;
    serverCfg.serverId = "c10m";
    serverCfg.metrics = &metrics;
    core::Server server(serverCfg);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "smoke server start failed\n");
      return 1;
    }

    EpollLoop loop;
    std::thread loopThread([&loop] { loop.Run(); });
    std::atomic<long> subscribed{0};  // counted at SUBACK
    std::vector<std::unique_ptr<client::Client>> subs;
    Rng rng(7);
    for (long c = 0; c < smokeClients; ++c) {
      client::ClientConfig cfg;
      cfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
      cfg.clientId = "c10m-smoke-" + std::to_string(c);
      cfg.seed = rng.Next();
      cfg.autoReconnect = false;
      auto sub = std::make_unique<client::Client>(loop, cfg);
      auto* subPtr = sub.get();
      const std::string topic = TopicName(c % kSmokeTopics);
      loop.Post([&subscribed, &smokeReceived, subPtr, topic] {
        subPtr->Subscribe(
            topic, [&smokeReceived](const Message&) { smokeReceived.fetch_add(1); },
            [&subscribed] { subscribed.fetch_add(1); });
        subPtr->Start();
      });
      subs.push_back(std::move(sub));
    }
    const auto connectStart = std::chrono::steady_clock::now();
    while (subscribed.load() < smokeClients &&
           std::chrono::steady_clock::now() - connectStart < 60s) {
      std::this_thread::sleep_for(5ms);
    }

    client::ClientConfig pubCfg;
    pubCfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
    pubCfg.clientId = "c10m-smoke-pub";
    pubCfg.seed = 2;
    client::Client pub(loop, pubCfg);
    loop.Post([&pub] { pub.Start(); });
    while (!pub.IsConnected()) std::this_thread::sleep_for(1ms);

    smokeExpected = static_cast<std::uint64_t>(subscribed.load()) *
                    static_cast<std::uint64_t>(kSmokeBursts);
    const auto publishStart = std::chrono::steady_clock::now();
    for (long b = 0; b < kSmokeBursts; ++b) {
      loop.Post([&pub] {
        for (int t = 0; t < kSmokeTopics; ++t) {
          pub.Publish(TopicName(t), Bytes(512, 0x42));
        }
      });
      std::this_thread::sleep_for(50ms);
    }
    while (smokeReceived.load() < smokeExpected &&
           std::chrono::steady_clock::now() - publishStart < 30s) {
      std::this_thread::sleep_for(5ms);
    }

    // The live gauge the /metrics endpoint exposes, refreshed by Stats().
    (void)server.Stats();
    liveBytesPerSession = metrics.Snapshot().Value("md_core_bytes_per_session",
                                                   "server=\"c10m\"");
    std::printf("smoke: delivered %llu/%llu, live "
                "md_core_bytes_per_session %.0f\n",
                static_cast<unsigned long long>(smokeReceived.load()),
                static_cast<unsigned long long>(smokeExpected),
                liveBytesPerSession);

    for (auto& sub : subs) loop.Post([s = sub.get()] { s->Stop(); });
    loop.Post([&pub] { pub.Stop(); });
    std::this_thread::sleep_for(100ms);
    loop.Stop();
    loopThread.join();
    server.Stop();
  }

  // ---- Shape checks + JSON ----------------------------------------------
  std::vector<ShapeCheck> checks;
  checks.push_back({"bytes/session within budget", static_cast<double>(budget),
                    fp.bytesPerSession, fp.bytesPerSession <= budget});
  // Sessions and registry nodes must be slab-served; the only allocations
  // allowed above the largest class are the FlatMap backing arrays — a few
  // per registry shard, independent of the session count.
  const std::uint64_t oversizeGrowth = fp.slab.oversize - baseline.oversize;
  checks.push_back({"oversize allocations are O(1) tables, not O(N) sessions",
                    256, static_cast<double>(oversizeGrowth),
                    oversizeGrowth <= 256});
  checks.push_back({"churn performs no oversize (heap) allocations",
                    static_cast<double>(preChurn.oversize),
                    static_cast<double>(postChurn.oversize),
                    postChurn.oversize == preChurn.oversize});
  checks.push_back({"slab occupancy recycled across churn",
                    static_cast<double>(preChurn.slotsInUse),
                    static_cast<double>(postChurn.slotsInUse), churnSlotsOk});
  checks.push_back({"no new chunks during churn",
                    static_cast<double>(preChurn.chunks),
                    static_cast<double>(postChurn.chunks), churnChunksOk});
  checks.push_back({"~166,667 deliveries/s sustained (model)", 166'667, rate,
                    rate > 150'000 && rate < 180'000});
  checks.push_back({"outgoing traffic ~ 1 Gbps (model)", 0.95, r.gbpsOut,
                    r.gbpsOut > 0.7 && r.gbpsOut < 1.2});
  checks.push_back({"mean latency within web-acceptable range (< 100 ms)",
                    61.0, r.latency.meanMs, r.latency.meanMs < 100.0});
  if (smokeRan) {
    checks.push_back({"smoke: every notification delivered",
                      static_cast<double>(smokeExpected),
                      static_cast<double>(smokeReceived.load()),
                      smokeReceived.load() == smokeExpected});
  }
  PrintShapeChecks(checks);

  std::FILE* f = std::fopen(outPath, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"c10m\",\n"
      "  \"runs\": 1,\n"
      "  \"note\": \"a single run: no spread is measured\",\n"
      "  \"config\": {\"sessions\": %ld, \"budget_bytes_per_session\": %ld},\n"
      "  \"footprint\": {\n"
      "    \"sessions\": %ld,\n"
      "    \"alloc_per_sec\": %.0f,\n"
      "    \"rss_before_bytes\": %llu,\n"
      "    \"rss_after_bytes\": %llu,\n"
      "    \"rss_bytes_per_session\": %.1f,\n"
      "    \"engine_bytes\": %llu,\n"
      "    \"engine_bytes_per_session\": %.1f,\n"
      "    \"slab_bytes_in_use\": %llu,\n"
      "    \"slab_bytes_reserved\": %llu,\n"
      "    \"slab_slots_in_use\": %llu,\n"
      "    \"slab_chunks\": %llu,\n"
      "    \"slab_oversize\": %llu,\n"
      "    \"registry_bytes\": %zu,\n"
      "    \"session_table_bytes\": %llu,\n"
      "    \"topic_table_bytes\": %llu,\n"
      "    \"budget_ok\": %s\n"
      "  },\n"
      "  \"churn\": {\"sessions\": %ld, \"slots_recycled\": %s, "
      "\"chunks_stable\": %s},\n"
      "  \"model_10m\": {\n"
      "    \"deliveries_per_sec\": %.0f,\n"
      "    \"gbps_out\": %.3f,\n"
      "    \"cpu_fraction\": %.3f,\n"
      "    \"mean_ms\": %.2f,\n"
      "    \"median_ms\": %.2f,\n"
      "    \"p99_ms\": %.2f\n"
      "  },\n",
      sessions, budget, fp.sessions,
      sessions / allocSecs, static_cast<unsigned long long>(fp.rssBefore),
      static_cast<unsigned long long>(fp.rssAfter), fp.rssPerSession,
      static_cast<unsigned long long>(fp.engineBytes), fp.bytesPerSession,
      static_cast<unsigned long long>(fp.slab.bytesInUse),
      static_cast<unsigned long long>(fp.slab.bytesReserved),
      static_cast<unsigned long long>(fp.slab.slotsInUse),
      static_cast<unsigned long long>(fp.slab.chunks),
      static_cast<unsigned long long>(fp.slab.oversize),
      fp.registry.bytes, static_cast<unsigned long long>(fp.sessionTableBytes),
      static_cast<unsigned long long>(fp.topicTableBytes),
      fp.bytesPerSession <= budget ? "true" : "false", churn,
      churnSlotsOk ? "true" : "false", churnChunksOk ? "true" : "false", rate,
      r.gbpsOut, r.cpuFraction, r.latency.meanMs, r.latency.medianMs,
      r.latency.p99Ms);
  if (smokeRan) {
    std::fprintf(f,
                 "  \"smoke\": {\"clients\": %ld, "
                 "\"expected\": %llu, \"delivered\": %llu, "
                 "\"live_bytes_per_session\": %.0f}\n}\n",
                 smokeClients,
                 static_cast<unsigned long long>(smokeExpected),
                 static_cast<unsigned long long>(smokeReceived.load()),
                 liveBytesPerSession);
  } else {
    std::fprintf(f, "  \"smoke\": \"skipped\"\n}\n");
  }
  std::fclose(f);
  std::printf("\nwrote %s\n", outPath);

  bool ok = fp.bytesPerSession <= budget && churnSlotsOk && churnChunksOk;
  if (smokeRan) ok = ok && smokeReceived.load() == smokeExpected;
  return ok ? 0 : 1;
}
