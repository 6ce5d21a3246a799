// Slow-consumer backpressure benchmark: one stalled subscriber plus N healthy
// ones on the real epoll engine, with the watermark policy ENFORCED (small
// soft/hard marks, eviction after a short grace) vs UNBOUNDED (the pre-fix
// behaviour: no hard mark, a grace period that never elapses), in one binary.
//
// The headline metrics are the peak send-queue depth any session ever pinned
// (max of the md_slow_consumer_queue_depth_bytes histogram — the hard
// watermark must bound it) and the healthy subscribers' end-to-end latency,
// which must not degrade because one peer stopped reading. The unbounded mode
// demonstrates the failure the policy exists to prevent: the stalled session
// buffers the whole flood in server memory and is never evicted.
//
// Environment overrides:
//   MD_BENCH_SLOWCONS_CLIENTS  healthy subscriber population (default 16)
//   MD_BENCH_SLOWCONS_MSGS     flood size in 16 KiB messages (default 900)
//   MD_BENCH_SLOWCONS_OUT      JSON output path (default BENCH_slow_consumer.json)
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_support/table.hpp"
#include "client/client.hpp"
#include "transport/epoll_loop.hpp"
#include "common/histogram.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"

using namespace md;
using namespace md::bench;
using namespace std::chrono_literals;

namespace {

constexpr std::size_t kPayload = 16 * 1024;
constexpr std::size_t kHardMark = 512 * 1024;  // enforced-mode hard watermark

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

struct ModeResult {
  std::uint64_t expected = 0;   // healthy deliveries (probe + flood)
  std::uint64_t delivered = 0;  // healthy deliveries observed
  double elapsedSec = 0;
  double peakPendingBytes = 0;  // max(md_slow_consumer_queue_depth_bytes)
  double softOverflows = 0;
  double disconnects = 0;
  LatencySummary latency;  // healthy clients' publish -> receipt
};

bool RunMode(bool enforced, long clients, long msgs, ModeResult& out) {
  obs::MetricsRegistry registry;
  core::ServerConfig serverCfg;
  serverCfg.ioThreads = 2;
  serverCfg.workers = 2;
  serverCfg.serverId = enforced ? "sc-enforced" : "sc-unbounded";
  serverCfg.metrics = &registry;
  serverCfg.backpressure.softWatermark = 128 * 1024;
  serverCfg.backpressure.lowWatermark = 16 * 1024;
  if (enforced) {
    serverCfg.backpressure.hardWatermark = kHardMark;
    serverCfg.backpressure.evictGrace = 150 * kMillisecond;
  } else {
    // Pre-fix behaviour: the hard mark is never reached and the eviction
    // grace never elapses within the run, so the queue grows without bound.
    serverCfg.backpressure.hardWatermark = SIZE_MAX;
    serverCfg.backpressure.evictGrace = 3600 * kSecond;
  }
  core::Server server(serverCfg);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return false;
  }

  EpollLoop loop;
  std::thread loopThread([&loop] { loop.Run(); });

  Histogram latency;
  std::mutex histMutex;
  std::atomic<std::uint64_t> healthyReceived{0};
  std::atomic<std::uint64_t> stalledReceived{0};
  std::atomic<long> subscribed{0};  // counted at SUBACK
  const std::string topic = "slowcons/feed";

  auto makeConfig = [&](const std::string& id) {
    client::ClientConfig cfg;
    cfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
    cfg.clientId = id;
    cfg.seed = Fnv1a64(id);
    cfg.autoReconnect = false;  // an evicted victim stays evicted: one stall,
                                // one eviction, no reconnect churn in the data
    return cfg;
  };

  std::vector<std::unique_ptr<client::Client>> healthy;
  for (long c = 0; c < clients; ++c) {
    auto sub = std::make_unique<client::Client>(
        loop, makeConfig((enforced ? "sc-h-" : "sc-hu-") + std::to_string(c)));
    auto* subPtr = sub.get();
    loop.Post([&, subPtr] {
      subPtr->Subscribe(
          topic,
          [&](const Message& m) {
            healthyReceived.fetch_add(1);
            const Duration lat = RealClock::Instance().Now() - m.publishTs;
            std::lock_guard lock(histMutex);
            latency.Record(lat);
          },
          [&] { subscribed.fetch_add(1); });
      subPtr->Start();
    });
    healthy.push_back(std::move(sub));
  }
  auto stalled = std::make_unique<client::Client>(
      loop, makeConfig(enforced ? "sc-stall" : "sc-stall-u"));
  loop.Post([&] {
    stalled->Subscribe(
        topic, [&](const Message&) { stalledReceived.fetch_add(1); },
        [&] { subscribed.fetch_add(1); });
    stalled->Start();
  });

  const auto connectStart = std::chrono::steady_clock::now();
  while (subscribed.load() < clients + 1 &&
         std::chrono::steady_clock::now() - connectStart < 30s) {
    std::this_thread::sleep_for(2ms);
  }
  if (subscribed.load() < clients + 1) {
    std::fprintf(stderr, "only %ld/%ld subscribers subscribed\n",
                 subscribed.load(), clients + 1);
    return false;
  }

  EpollLoop pubLoop;
  std::thread pubThread([&pubLoop] { pubLoop.Run(); });
  client::Client pub(pubLoop, makeConfig(enforced ? "sc-pub" : "sc-pub-u"));
  pubLoop.Post([&] { pub.Start(); });
  while (!pub.IsConnected()) std::this_thread::sleep_for(1ms);

  // Paced publish in acked batches: healthy subscribers reading at loopback
  // speed keep up per batch (the grace must protect them in enforced mode),
  // while the stalled one accumulates the full volume against its marks.
  std::atomic<long> acked{0};
  auto publishBatch = [&](long base, long n) {
    pubLoop.Post([&, base, n] {
      for (long i = base; i < base + n; ++i) {
        Bytes payload(kPayload, static_cast<std::uint8_t>(i & 0xFF));
        pub.Publish(topic, std::move(payload), [&](Status s) {
          if (s.ok()) acked.fetch_add(1);
        });
      }
    });
    while (acked.load() < base + n) std::this_thread::sleep_for(1ms);
  };

  // Probe: confirm the stalled client's subscription is live, then stall it.
  publishBatch(0, 1);
  while (stalledReceived.load() < 1) std::this_thread::sleep_for(1ms);
  while (healthyReceived.load() < static_cast<std::uint64_t>(clients)) {
    std::this_thread::sleep_for(1ms);
  }
  std::atomic<bool> paused{false};
  loop.Post([&] {
    stalled->PauseReads(true);
    paused.store(true);
  });
  while (!paused.load()) std::this_thread::sleep_for(1ms);

  out.expected = static_cast<std::uint64_t>(clients) *
                 static_cast<std::uint64_t>(msgs + 1);
  const auto floodStart = std::chrono::steady_clock::now();
  constexpr long kBatch = 50;
  for (long base = 1; base <= msgs; base += kBatch) {
    publishBatch(base, std::min(kBatch, msgs - base + 1));
  }
  while (healthyReceived.load() < out.expected &&
         std::chrono::steady_clock::now() - floodStart < 120s) {
    std::this_thread::sleep_for(2ms);
  }
  out.elapsedSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - floodStart)
                       .count();

  const obs::MetricsSnapshot snap = registry.Snapshot();
  out.delivered = healthyReceived.load();
  out.softOverflows = snap.Total("md_slow_consumer_soft_overflows_total");
  out.disconnects = snap.Total("md_slow_consumer_disconnects_total");
  if (const auto* fam = snap.Family("md_slow_consumer_queue_depth_bytes")) {
    for (const auto& s : fam->samples) {
      if (s.count > 0) {
        out.peakPendingBytes =
            std::max(out.peakPendingBytes, static_cast<double>(s.max));
      }
    }
  }
  {
    std::lock_guard lock(histMutex);
    out.latency = SummarizeNanos(latency);
  }

  for (auto& sub : healthy) loop.Post([s = sub.get()] { s->Stop(); });
  loop.Post([s = stalled.get()] { s->Stop(); });
  pubLoop.Post([&] { pub.Stop(); });
  std::this_thread::sleep_for(100ms);
  pubLoop.Stop();
  pubThread.join();
  loop.Stop();
  loopThread.join();
  server.Stop();
  return true;
}

void PrintMode(const char* label, const ModeResult& r) {
  std::printf(
      "%-10s healthy %llu/%llu in %.2f s | peak pending %.0f B | "
      "soft overflows %.0f | evictions %.0f | e2e p50 %.2f ms p99 %.2f ms\n",
      label, static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.expected), r.elapsedSec,
      r.peakPendingBytes, r.softOverflows, r.disconnects, r.latency.medianMs,
      r.latency.p99Ms);
}

void WriteJsonMode(std::FILE* f, const char* key, const ModeResult& r,
                   bool trailingComma) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"healthy_expected\": %llu,\n"
               "    \"healthy_delivered\": %llu,\n"
               "    \"elapsed_sec\": %.4f,\n"
               "    \"peak_pending_bytes\": %.0f,\n"
               "    \"soft_overflows\": %.0f,\n"
               "    \"evictions\": %.0f,\n"
               "    \"e2e_p50_ms\": %.3f,\n"
               "    \"e2e_p99_ms\": %.3f\n"
               "  }%s\n",
               key, static_cast<unsigned long long>(r.expected),
               static_cast<unsigned long long>(r.delivered), r.elapsedSec,
               r.peakPendingBytes, r.softOverflows, r.disconnects,
               r.latency.medianMs, r.latency.p99Ms, trailingComma ? "," : "");
}

}  // namespace

int main() {
  const long clients = std::max(1L, EnvLong("MD_BENCH_SLOWCONS_CLIENTS", 16));
  const long msgs = std::max(100L, EnvLong("MD_BENCH_SLOWCONS_MSGS", 900));
  const char* outPath = std::getenv("MD_BENCH_SLOWCONS_OUT");
  if (outPath == nullptr) outPath = "BENCH_slow_consumer.json";

  std::printf(
      "=== Slow-consumer backpressure: 1 stalled + %ld healthy subscribers, "
      "%ld x %zu KiB flood ===\n"
      "Watermarks enforced (soft 128 KiB, hard 512 KiB, evict after 150 ms "
      "grace)\nvs unbounded (pre-fix: no hard mark, no eviction).\n\n",
      clients, msgs, kPayload / 1024);

  ModeResult enforced;
  ModeResult unbounded;
  if (!RunMode(/*enforced=*/true, clients, msgs, enforced)) return 1;
  PrintMode("enforced", enforced);
  if (!RunMode(/*enforced=*/false, clients, msgs, unbounded)) return 1;
  PrintMode("unbounded", unbounded);

  std::vector<ShapeCheck> checks;
  checks.push_back({"enforced: healthy subscribers lose nothing",
                    static_cast<double>(enforced.expected),
                    static_cast<double>(enforced.delivered),
                    enforced.delivered == enforced.expected});
  checks.push_back({"enforced: stalled session evicted", 1.0,
                    enforced.disconnects, enforced.disconnects >= 1.0});
  checks.push_back({"enforced: peak pending <= hard watermark",
                    static_cast<double>(kHardMark), enforced.peakPendingBytes,
                    enforced.peakPendingBytes <= static_cast<double>(kHardMark)});
  checks.push_back({"unbounded: healthy subscribers lose nothing",
                    static_cast<double>(unbounded.expected),
                    static_cast<double>(unbounded.delivered),
                    unbounded.delivered == unbounded.expected});
  // The failure mode the policy prevents: without the hard mark the stalled
  // session pins multiples of the enforced bound in server memory.
  checks.push_back({"unbounded: peak pending exceeds enforced hard mark",
                    static_cast<double>(kHardMark), unbounded.peakPendingBytes,
                    unbounded.peakPendingBytes > static_cast<double>(kHardMark)});
  checks.push_back({"unbounded: stalled session never evicted (the bug)", 0.0,
                    unbounded.disconnects, unbounded.disconnects == 0.0});
  PrintShapeChecks(checks);

  std::FILE* f = std::fopen(outPath, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"slow_consumer\",\n"
               "  \"runs\": 1,\n"
               "  \"note\": \"a single run: no spread is measured\",\n"
               "  \"config\": {\"healthy_clients\": %ld, \"messages\": %ld, "
               "\"payload_bytes\": %zu, \"hard_watermark\": %zu},\n",
               clients, msgs, kPayload, kHardMark);
  WriteJsonMode(f, "enforced", enforced, /*trailingComma=*/true);
  WriteJsonMode(f, "unbounded", unbounded, /*trailingComma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", outPath);

  bool ok = true;
  for (const auto& c : checks) ok = ok && c.pass;
  return ok ? 0 : 1;
}
