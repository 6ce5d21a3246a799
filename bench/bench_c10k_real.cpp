// Real-socket C10K demonstration (paper §1: "the ability to support 10,000
// concurrent clients on a single server was informally defined as the C10K
// problem in the late 1990s").
//
// Unlike the C1M/C10M benches — which must model the paper's 16-core/10 GbE
// testbed — this one is entirely real: it opens thousands of live loopback
// TCP connections to the real epoll engine (IoThreads + Workers), subscribes
// each to one of 10 topics, publishes a burst through the real protocol and
// measures actual end-to-end delivery latency on this machine.
//
// Client connections are plain sockets driven by a minimal inline pump (the
// full client library would be overkill at this count); the server side is
// exactly the production engine. MD_BENCH_CLIENTS overrides the population.
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>

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

constexpr int kTopics = 10;

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

}  // namespace

int main() {
  // Both connection ends live in this one process, so each client costs two
  // descriptors. Raise the soft fd limit to the hard limit and size the
  // population to fit (10,000 when the environment allows).
  rlimit limit{};
  getrlimit(RLIMIT_NOFILE, &limit);
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
    getrlimit(RLIMIT_NOFILE, &limit);
  }
  const long fdBudget = static_cast<long>(limit.rlim_cur) - 256;
  const long clients =
      std::min(EnvLong("MD_BENCH_CLIENTS", 10'000), fdBudget / 2);
  const long bursts = EnvLong("MD_BENCH_BURSTS", 5);

  std::printf(
      "=== C10K on real sockets: %ld live connections, single server ===\n"
      "Real engine (2 IoThreads, 2 Workers), %d topics, %ld publish "
      "bursts.\n\n",
      clients, kTopics, bursts);

  obs::MetricsRegistry registry;
  core::ServerConfig serverCfg;
  serverCfg.ioThreads = 2;
  serverCfg.workers = 2;
  serverCfg.serverId = "c10k";
  serverCfg.metrics = &registry;
  core::Server server(serverCfg);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }

  // Subscribers across a couple of loop threads.
  constexpr int kLoops = 2;
  std::vector<std::unique_ptr<EpollLoop>> loops;
  std::vector<std::thread> loopThreads;
  for (int i = 0; i < kLoops; ++i) {
    loops.push_back(std::make_unique<EpollLoop>());
    loopThreads.emplace_back([loop = loops.back().get()] { loop->Run(); });
  }

  Histogram latency;
  std::mutex histMutex;
  std::atomic<std::uint64_t> received{0};
  // A subscriber is ready at its SUBACK, not when its connection comes up:
  // a publish between the two would miss it.
  std::atomic<long> subscribed{0};

  const auto connectStart = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<client::Client>> subs;
  subs.reserve(static_cast<std::size_t>(clients));
  Rng rng(1);
  for (long c = 0; c < clients; ++c) {
    client::ClientConfig cfg;
    cfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
    cfg.clientId = "c10k-" + std::to_string(c);
    cfg.seed = rng.Next();
    cfg.autoReconnect = false;
    auto* loop = loops[static_cast<std::size_t>(c % kLoops)].get();
    auto sub = std::make_unique<client::Client>(*loop, cfg);
    auto* subPtr = sub.get();
    const std::string topic = "c10k/topic-" + std::to_string(c % kTopics);
    loop->Post([&, subPtr, topic] {
      subPtr->Subscribe(
          topic,
          [&](const Message& m) {
            received.fetch_add(1);
            const Duration lat = RealClock::Instance().Now() - m.publishTs;
            std::lock_guard lock(histMutex);
            latency.Record(lat);
          },
          [&] { subscribed.fetch_add(1); });
      subPtr->Start();
    });
    subs.push_back(std::move(sub));
    // Pace connection setup mildly (the paper throttles re-subscription
    // rates at the OS level for the same reason).
    if (c % 500 == 499) std::this_thread::sleep_for(10ms);
  }

  while (subscribed.load() < clients) {
    std::this_thread::sleep_for(10ms);
    if (std::chrono::steady_clock::now() - connectStart > 120s) break;
  }
  const double connectSecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - connectStart)
          .count();
  std::printf("subscribed %ld/%ld clients in %.1f s (%.0f conns/s)\n",
              subscribed.load(), clients, connectSecs,
              subscribed.load() / connectSecs);

  // Publisher bursts: one message per topic per burst => every client gets
  // one message per burst.
  EpollLoop pubLoop;
  std::thread pubThread([&pubLoop] { pubLoop.Run(); });
  client::ClientConfig pubCfg;
  pubCfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
  pubCfg.clientId = "c10k-pub";
  pubCfg.seed = 2;
  client::Client pub(pubLoop, pubCfg);
  pubLoop.Post([&] { pub.Start(); });
  while (!pub.IsConnected()) std::this_thread::sleep_for(1ms);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(subscribed.load()) * static_cast<std::uint64_t>(bursts);
  const auto publishStart = std::chrono::steady_clock::now();
  for (long b = 0; b < bursts; ++b) {
    pubLoop.Post([&] {
      for (int t = 0; t < kTopics; ++t) {
        pub.Publish("c10k/topic-" + std::to_string(t), Bytes(140, 0x42));
      }
    });
    std::this_thread::sleep_for(1s);  // paper cadence: 1 msg/topic/s
  }
  while (received.load() < expected &&
         std::chrono::steady_clock::now() - publishStart <
             std::chrono::seconds(bursts + 30)) {
    std::this_thread::sleep_for(10ms);
  }

  const auto stats = server.Stats();
  std::lock_guard lock(histMutex);
  const auto summary = SummarizeNanos(latency);
  std::printf("\ndelivered %llu/%llu notifications\n",
              static_cast<unsigned long long>(received.load()),
              static_cast<unsigned long long>(expected));
  std::printf("e2e latency ms: median %.2f mean %.2f p95 %.2f p99 %.2f\n",
              summary.medianMs, summary.meanMs, summary.p95Ms, summary.p99Ms);

  // Server-side view from the metrics registry: the same Snapshot() the
  // /metrics endpoint renders, read in-process.
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const std::string serverLabel = "server=\"c10k\"";
  const double srvDelivered = snap.Value("md_core_delivered_total", serverLabel);
  const double srvBytesOut = snap.Value("md_core_bytes_out_total", serverLabel);
  std::printf("server counters: delivered %.0f, bytes out %.0f, "
              "loop iterations %.0f\n",
              srvDelivered, srvBytesOut,
              snap.Total("md_transport_loop_iterations_total"));
  if (const auto* e2e =
          snap.Find("md_trace_end_to_end_ns", "domain=\"wall\"")) {
    std::printf("server-side publish->socket-write ms: median %.2f p99 %.2f "
                "(%llu traced)\n",
                e2e->summary.medianMs, e2e->summary.p99Ms,
                static_cast<unsigned long long>(e2e->count));
  }

  std::vector<ShapeCheck> checks;
  // Both socket ends share this process's fd budget; when the hard limit is
  // below ~20,256 the population is capped and the check reports the cap.
  checks.push_back({"C10K: all requested live connections served",
                    static_cast<double>(clients),
                    static_cast<double>(stats.connectionsActive),
                    subscribed.load() == clients});
  checks.push_back({"every notification delivered (no loss)",
                    static_cast<double>(expected),
                    static_cast<double>(received.load()),
                    received.load() == expected});
  checks.push_back({"real fan-out latency acceptable (p99 < 2000 ms)", 0,
                    summary.p99Ms, summary.p99Ms < 2000.0});
  // The registry's server-side delivery counter covers every client receipt.
  checks.push_back({"server delivered counter covers client receipts",
                    static_cast<double>(received.load()), srvDelivered,
                    srvDelivered >= static_cast<double>(received.load())});
  const bool allPassed = PrintShapeChecks(checks);

  // Teardown.
  for (std::size_t c = 0; c < subs.size(); ++c) {
    loops[c % kLoops]->Post([sub = subs[c].get()] { sub->Stop(); });
  }
  pubLoop.Post([&] { pub.Stop(); });
  std::this_thread::sleep_for(100ms);
  pubLoop.Stop();
  pubThread.join();
  for (auto& loop : loops) loop->Stop();
  for (auto& t : loopThreads) t.join();
  server.Stop();
  return allPassed ? 0 : 1;
}
