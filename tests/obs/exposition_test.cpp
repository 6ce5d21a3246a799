// Golden-output tests for the Prometheus text exposition.
//
// Three layers, each stricter than the last:
//   1. a hand-driven registry rendered byte-exactly against a checked-in
//      golden (format regressions: ordering, label syntax, suffixes),
//   2. a fixed-seed simulated cluster run whose normalized exposition must
//      be byte-identical to a golden AND across repeated runs (virtual-time
//      determinism extends to every metric value),
//   3. a live core::Server scraped over a real TCP socket (endpoint wiring,
//      HTTP framing, full standard-family schema).
//
// Regenerate goldens after an intentional format change with:
//   MD_REGEN_GOLDEN=1 ./obs_test --gtest_filter='ExpositionGolden*'
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "client/client.hpp"
#include "cluster/chaos.hpp"
#include "common/hash.hpp"
#include "core/server.hpp"
#include "support/http_get.hpp"
#include "transport/epoll_loop.hpp"
#include "verify/monitor.hpp"

namespace md::obs {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(MD_SOURCE_DIR) + "/tests/obs/golden/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Byte-compares `got` against the golden; under MD_REGEN_GOLDEN=1 rewrites
// the golden instead (and fails, so a regen run is never mistaken for green).
void CompareGolden(const std::string& name, const std::string& got) {
  const std::string path = GoldenPath(name);
  if (std::getenv("MD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << got;
    FAIL() << "regenerated " << path << " — rerun without MD_REGEN_GOLDEN";
  }
  const std::string want = ReadFileOrEmpty(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (run with MD_REGEN_GOLDEN=1 to create)";
  EXPECT_EQ(got, want) << "exposition drifted from " << path;
}

// --- 1. hand-driven format golden -------------------------------------------

TEST(ExpositionGoldenTest, HandDrivenRegistryRendersByteExactly) {
  MetricsRegistry registry;
  Counter& plain = registry.GetCounter("demo_events_total", "Demo events.");
  plain.Inc(3);
  Counter& labeled = registry.GetCounter("demo_events_total", "Demo events.",
                                         "shard=\"a\",zone=\"eu\"");
  labeled.Inc(41);
  Gauge& gauge = registry.GetGauge("demo_queue_depth", "Demo queue depth.");
  gauge.Set(-7);
  LatencyHistogram& hist =
      registry.GetHistogram("demo_latency_ns", "Demo latency.", "path=\"hot\"");
  hist.Record(500);                    // below first bound
  hist.Record(90 * kMicrosecond);      // mid-range
  hist.Record(2 * kMillisecond);
  hist.Record(7 * kSecond);            // above second-to-last bound
  hist.Record(30 * kSecond);           // beyond every finite bound

  const std::string text = RenderPrometheus(registry.Snapshot(), 12345);
  CompareGolden("exposition_format.golden", text);

  // The normalizer rewrites only the scrape timestamp line.
  const std::string normalized = NormalizeExposition(text);
  EXPECT_NE(normalized.find("# scraped_at TS"), std::string::npos);
  EXPECT_EQ(NormalizeExposition(normalized), normalized);

  // The value mask keeps names/labels and folds every sample value to V.
  const std::string masked = MaskExpositionValues(text);
  EXPECT_NE(masked.find("demo_events_total{shard=\"a\",zone=\"eu\"} V"),
            std::string::npos);
  EXPECT_EQ(masked.find(" 41"), std::string::npos);
}

// --- 1b. runtime-monitor families golden ------------------------------------

// The verify::Monitor registers its families in its constructor (not in
// RegisterStandardFamilies), so servers without runtimeVerify keep the
// goldens above byte-stable. This golden pins the monitor's own schema:
// md_invariant_violations_total{kind=...} plus every md_monitor_* family,
// with deterministic values (fixed cost constants, deterministic sampling).
TEST(ExpositionGoldenTest, MonitorFamiliesRenderByteExactly) {
  MetricsRegistry registry;
  verify::MonitorConfig cfg;
  cfg.scope = "mon-1";
  cfg.sampleEvery = 2;
  cfg.recentIds = 4;
  verify::Monitor monitor(registry, cfg);

  // MixU64 decides which session keys the 1-in-2 sampling keeps; resolve one
  // of each in code so the feed below is platform-independent.
  std::uint64_t in = 0;
  while (MixU64(in) % 2 != 0) ++in;
  std::uint64_t out = 0;
  while (MixU64(out) % 2 == 0) ++out;

  for (std::uint64_t i = 1; i <= 3; ++i) {
    monitor.OnDelivery(in, "g/t", {1, i}, {7, i});
  }
  monitor.OnDelivery(out, "g/t", {1, 1}, {7, 1});     // sampled out
  monitor.OnDelivery(in, "g/t", {1, 2}, {9, 4});      // real [order]
  monitor.OnDelivery(in, "g/t", {1, 9}, {7, 5});      // real [gap]
  monitor.InjectFault(verify::ViolationKind::kDuplicate);
  monitor.OnDelivery(in, "g/t", {1, 10}, {7, 6});     // injected [duplicate]
  monitor.OnBackpressure(5, 700, 600);                // real [backpressure]
  monitor.OnCounterSample("demo_total{}", 5);
  monitor.OnCounterSample("demo_total{}", 3);         // real [metrics]
  monitor.OnRecoveryAudit("server-1", 1);             // real [durability]
  monitor.Forget(in, "g/t");
  monitor.OnDelivery(in, "g/other", {1, 1}, {7, 7});  // one live stream left

  EXPECT_EQ(monitor.ViolationCount(), 6u);
  EXPECT_EQ(monitor.TrackedStreams(), 1u);
  EXPECT_EQ(monitor.TrackedBytes(), monitor.EntryCost("g/other"));

  const std::string text = RenderPrometheus(registry.Snapshot(), 12345);
  CompareGolden("exposition_monitor.golden", text);
}

// --- 2. fixed-seed simulated cluster golden ---------------------------------

cluster::ChaosReport FixedSeedRun() {
  cluster::ChaosOptions opts;
  opts.seed = 5;
  opts.plan = cluster::FaultPlan::Parse("crash:0@1500+2500;part:1@11000+6000", 3);
  return cluster::ChaosDriver(opts).Run();
}

TEST(ExpositionGoldenTest, SimulatedClusterExpositionIsDeterministic) {
  const cluster::ChaosReport a = FixedSeedRun();
  ASSERT_TRUE(a.Passed());
  const std::string textA = NormalizeExposition(RenderPrometheus(a.metrics, 0));

  // Virtual time makes every counter, gauge and histogram value — not just
  // the schema — identical across runs.
  const cluster::ChaosReport b = FixedSeedRun();
  const std::string textB = NormalizeExposition(RenderPrometheus(b.metrics, 0));
  EXPECT_EQ(textA, textB) << "same seed produced different metric values";

  CompareGolden("exposition_sim.golden", textA);
}

// --- 3. live server scrape ---------------------------------------------------

using test_support::HttpGet;

std::size_t CountOccurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(MetricsEndpointTest, LiveServerServesFullSchemaOverHttp) {
  MetricsRegistry registry;
  core::ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  cfg.serverId = "metrics-live";
  cfg.metrics = &registry;
  core::Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  const std::string response = HttpGet(server.Port(), "/metrics");
  ASSERT_FALSE(response.empty()) << "no response from /metrics";
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response.substr(0, 80);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  const std::size_t bodyAt = response.find("\r\n\r\n");
  ASSERT_NE(bodyAt, std::string::npos);
  const std::string body = response.substr(bodyAt + 4);

  // The standard schema spans every subsystem, >= 12 families, even before
  // any traffic (RegisterStandardFamilies pre-registers unlabeled children).
  EXPECT_GE(CountOccurrences(body, "# TYPE "), 12u);
  for (const char* family : {
           "md_core_connections_active",
           "md_core_published_total",
           "md_core_bytes_out_total",
           "md_core_cache_bytes",
           "md_transport_loop_iterations_total",
           "md_transport_bytes_written_total",
           "md_cluster_fences_total",
           "md_cluster_failover_ns",
           "md_cluster_replication_ack_ns",
           "md_coord_write_ns",
           "md_coord_session_expirations_total",
           "md_trace_end_to_end_ns",
           "md_trace_stage_ns",
       }) {
    EXPECT_NE(body.find(std::string("# TYPE ") + family), std::string::npos)
        << "family missing from exposition: " << family;
  }
  EXPECT_NE(body.find("# scraped_at "), std::string::npos);
  // Without runtimeVerify the monitor families are absent — the exposition
  // schema (and the goldens above) must not drift when the flag is off.
  EXPECT_EQ(body.find("md_monitor_"), std::string::npos);
  EXPECT_EQ(body.find("md_invariant_violations_total"), std::string::npos);

  // Traffic moves the counters the next scrape reports.
  EpollLoop loop;
  std::thread loopThread([&] { loop.Run(); });
  client::ClientConfig ccfg;
  ccfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
  ccfg.clientId = "scraper";
  ccfg.seed = 7;
  auto cli = std::make_unique<client::Client>(loop, ccfg);
  std::atomic<int> received{0};
  std::atomic<bool> acked{false};
  std::atomic<bool> connected{false};
  loop.Post([&] {
    cli->SetConnectionListener([&](bool up) { connected.store(up); });
    cli->Subscribe("obs", [&](const Message&) { received.fetch_add(1); });
    cli->Start();
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!connected.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(connected.load());
  loop.Post([&] {
    cli->Publish("obs", Bytes{1, 2, 3}, [&](Status s) { acked.store(s.ok()); });
  });
  while ((!acked.load() || received.load() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(acked.load());
  EXPECT_EQ(received.load(), 1);

  const std::string after = HttpGet(server.Port(), "/metrics");
  EXPECT_NE(after.find("md_core_published_total{server=\"metrics-live\"} 1"),
            std::string::npos);
  EXPECT_NE(after.find("md_core_delivered_total{server=\"metrics-live\"} 1"),
            std::string::npos);
  // The cached publication shows on the cache gauge, refreshed by the scrape.
  const std::string cacheSeries = "md_core_cache_bytes{server=\"metrics-live\"} ";
  const std::size_t cacheAt = after.find(cacheSeries);
  ASSERT_NE(cacheAt, std::string::npos);
  EXPECT_GT(std::stoll(after.substr(cacheAt + cacheSeries.size())), 0);
  // That publication's stage record reached the wall-domain histograms.
  EXPECT_NE(after.find("md_trace_end_to_end_ns_count{domain=\"wall\"} 1"),
            std::string::npos);

  // Non-metrics HTTP paths still go through the WebSocket handshake parser
  // (and fail it), not the metrics endpoint.
  const std::string other = HttpGet(server.Port(), "/other");
  EXPECT_EQ(other.find("md_core_published_total"), std::string::npos);

  loop.Post([&] { cli->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.Stop();
  loopThread.join();
  server.Stop();
}

// A server started with runtimeVerify exposes the monitor families next to
// the standard schema, and each scrape feeds the snapshot back through the
// monitor's counter-monotonicity rule (so events move scrape over scrape).
TEST(MetricsEndpointTest, VerifyingServerExposesMonitorFamilies) {
  MetricsRegistry registry;
  core::ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  cfg.serverId = "metrics-verify";
  cfg.metrics = &registry;
  cfg.runtimeVerify = true;
  core::Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  const std::string first = HttpGet(server.Port(), "/metrics");
  for (const char* family : {
           "# TYPE md_invariant_violations_total",
           "# TYPE md_monitor_events_total",
           "# TYPE md_monitor_tracked_bytes",
       }) {
    EXPECT_NE(first.find(family), std::string::npos)
        << "monitor family missing: " << family;
  }
  EXPECT_NE(first.find("md_invariant_violations_total{kind=\"order\","
                       "server=\"metrics-verify\"} 0"),
            std::string::npos);

  // The first scrape fed every counter series into the monitor; the second
  // scrape samples them again, so the monitor's event counter advanced.
  const std::string second = HttpGet(server.Port(), "/metrics");
  const std::string prefix =
      "md_monitor_events_total{server=\"metrics-verify\"} ";
  const auto at = second.find(prefix);
  ASSERT_NE(at, std::string::npos);
  const double events = std::atof(second.c_str() + at + prefix.size());
  EXPECT_GT(events, 0.0) << "scrape did not feed the monitor";
  server.Stop();
}

}  // namespace
}  // namespace md::obs
