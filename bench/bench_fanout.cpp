// Zero-contention fan-out benchmark: measures the publish->socket delivery
// path of the real network engine under a topics x subscribers sweep. Every
// row hands each Worker batch's frames to each IoThread in one posted task
// and queues refcounted shared wire buffers, flushed with one sendmsg per
// connection per loop pass:
//
//   batched_zerocopy        the default data path
//   batched_zerocopy_verify the same with the runtime verification monitor on
//
// Headline metrics per row: cross-thread posts per publish (from
// md_transport_tasks_posted_total), sendmsg calls per publish and per
// delivery and all syscalls per delivery (from
// md_transport_syscalls_total{op=send|sendmsg|recv}), copied bytes per
// delivery (md_transport_copy_bytes_total), throughput, and client-observed
// e2e latency. The verify leg also writes BENCH_monitor_overhead.json.
//
// Environment overrides:
//   MD_BENCH_FANOUT_CLIENTS  subscriber population        (default 400)
//   MD_BENCH_FANOUT_TOPICS   topic count                  (default 8)
//   MD_BENCH_FANOUT_BURSTS   publish bursts (1 msg/topic) (default 100)
//   MD_BENCH_FANOUT_OUT      JSON output path             (default BENCH_fanout.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

constexpr int kIoThreads = 2;
/// Posted tasks per publish over a burst of >= 800 publishes: about five
/// times the highest reading at the change that introduced the bound.
constexpr double kMaxPostsPerPublish = 0.25;

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

struct ModeSpec {
  const char* key;    // JSON key / print label
  bool verify = false;
  int seed = 0;       // distinct client-id namespace per leg
};

struct ModeResult {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  double serverDelivered = 0;   // md_core_delivered_total
  double elapsedSec = 0;
  double msgsPerSec = 0;
  double nsPerDelivery = 0;
  double postsPerPublish = 0;   // md_transport_tasks_posted_total delta / publishes
  double sendmsgPerPublish = 0;    // sendmsg delta / publishes
  double sendmsgPerDelivery = 0;   // sendmsg delta / deliveries
  double syscallsPerDelivery = 0;  // send+sendmsg+recv delta / deliveries
  double sendmsgShare = 0;         // sendmsg / (send+sendmsg) egress calls
  double copyBytesPerDelivery = 0; // md_transport_copy_bytes_total delta / deliveries
  double monitorEvents = 0;     // md_monitor_events_total (verify mode only)
  double monitorViolations = 0; // md_invariant_violations_total, all kinds
  LatencySummary latency;       // client-observed publish timestamp -> receipt
};

bool RunMode(const ModeSpec& mode, long clients, long topics, long bursts,
             ModeResult& out) {
  obs::MetricsRegistry registry;
  core::ServerConfig serverCfg;
  serverCfg.ioThreads = kIoThreads;
  serverCfg.workers = 2;
  serverCfg.serverId = "fanout";
  serverCfg.runtimeVerify = mode.verify;
  serverCfg.metrics = &registry;
  core::Server server(serverCfg);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return false;
  }

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
  std::atomic<long> connected{0};

  std::vector<std::unique_ptr<client::Client>> subs;
  subs.reserve(static_cast<std::size_t>(clients));
  Rng rng(static_cast<std::uint64_t>(mode.seed) + 1);
  for (long c = 0; c < clients; ++c) {
    client::ClientConfig cfg;
    cfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
    cfg.clientId =
        "fo-" + std::to_string(mode.seed) + "-" + std::to_string(c);
    cfg.seed = rng.Next();
    cfg.autoReconnect = false;
    auto* loop = loops[static_cast<std::size_t>(c % kLoops)].get();
    auto sub = std::make_unique<client::Client>(*loop, cfg);
    auto* subPtr = sub.get();
    const std::string topic = "fanout/topic-" + std::to_string(c % topics);
    loop->Post([&, subPtr, topic] {
      subPtr->SetConnectionListener([&](bool up) {
        if (up) connected.fetch_add(1);
      });
      subPtr->Subscribe(topic, [&](const Message& m) {
        received.fetch_add(1);
        const Duration lat = RealClock::Instance().Now() - m.publishTs;
        std::lock_guard lock(histMutex);
        latency.Record(lat);
      });
      subPtr->Start();
    });
    subs.push_back(std::move(sub));
    if (c % 500 == 499) std::this_thread::sleep_for(10ms);
  }
  const auto connectStart = std::chrono::steady_clock::now();
  while (connected.load() < clients &&
         std::chrono::steady_clock::now() - connectStart < 60s) {
    std::this_thread::sleep_for(5ms);
  }
  if (connected.load() < clients) {
    std::fprintf(stderr, "only %ld/%ld subscribers connected\n",
                 connected.load(), clients);
  }

  EpollLoop pubLoop;
  std::thread pubThread([&pubLoop] { pubLoop.Run(); });
  client::ClientConfig pubCfg;
  pubCfg.servers = {{"127.0.0.1", server.Port(), 1.0}};
  pubCfg.clientId = std::string("fo-pub-") + mode.key;
  pubCfg.seed = 99;
  client::Client pub(pubLoop, pubCfg);
  pubLoop.Post([&] { pub.Start(); });
  while (!pub.IsConnected()) std::this_thread::sleep_for(1ms);

  // Counter baselines: everything posted from here on is publish-path work
  // (Worker-batch hand-offs carrying acks and fan-out).
  const obs::MetricsSnapshot before = registry.Snapshot();
  const double postsBefore = before.Total("md_transport_tasks_posted_total");
  const double syscallsBefore = before.Total("md_transport_syscalls_total");
  const double sendBefore =
      before.Value("md_transport_syscalls_total", "op=\"send\"");
  const double sendmsgBefore =
      before.Value("md_transport_syscalls_total", "op=\"sendmsg\"");
  const double copyBefore = before.Total("md_transport_copy_bytes_total");

  const std::uint64_t publishes =
      static_cast<std::uint64_t>(bursts) * static_cast<std::uint64_t>(topics);
  out.expected = static_cast<std::uint64_t>(connected.load()) *
                 static_cast<std::uint64_t>(bursts);
  const auto publishStart = std::chrono::steady_clock::now();
  for (long b = 0; b < bursts; ++b) {
    pubLoop.Post([&, topics] {
      for (long t = 0; t < topics; ++t) {
        pub.Publish("fanout/topic-" + std::to_string(t), Bytes(64, 0x42));
      }
    });
    // Light pacing keeps the publisher's socket from backing up without
    // serializing the sweep the way the paper's 1 msg/topic/s cadence would.
    if (b % 10 == 9) std::this_thread::sleep_for(1ms);
  }
  while (received.load() < out.expected &&
         std::chrono::steady_clock::now() - publishStart < 120s) {
    std::this_thread::sleep_for(2ms);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    publishStart)
          .count();

  const obs::MetricsSnapshot after = registry.Snapshot();
  out.delivered = received.load();
  out.serverDelivered =
      after.Value("md_core_delivered_total", "server=\"fanout\"");
  out.elapsedSec = elapsed;
  out.msgsPerSec = out.delivered / elapsed;
  out.nsPerDelivery =
      out.delivered == 0 ? 0 : elapsed * 1e9 / static_cast<double>(out.delivered);
  out.postsPerPublish =
      (after.Total("md_transport_tasks_posted_total") - postsBefore) /
      static_cast<double>(publishes);
  const double deliveredD =
      out.delivered == 0 ? 1 : static_cast<double>(out.delivered);
  out.syscallsPerDelivery =
      (after.Total("md_transport_syscalls_total") - syscallsBefore) /
      deliveredD;
  const double sendCalls =
      after.Value("md_transport_syscalls_total", "op=\"send\"") - sendBefore;
  const double sendmsgCalls =
      after.Value("md_transport_syscalls_total", "op=\"sendmsg\"") -
      sendmsgBefore;
  out.sendmsgPerPublish = sendmsgCalls / static_cast<double>(publishes);
  out.sendmsgPerDelivery = sendmsgCalls / deliveredD;
  out.sendmsgShare = (sendCalls + sendmsgCalls) > 0
                         ? sendmsgCalls / (sendCalls + sendmsgCalls)
                         : 0;
  out.copyBytesPerDelivery =
      (after.Total("md_transport_copy_bytes_total") - copyBefore) / deliveredD;
  out.monitorEvents = after.Value("md_monitor_events_total", "server=\"fanout\"");
  out.monitorViolations = after.Total("md_invariant_violations_total");
  {
    std::lock_guard lock(histMutex);
    out.latency = SummarizeNanos(latency);
  }

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
  return true;
}

void PrintMode(const char* label, const ModeResult& r) {
  std::printf(
      "%-22s delivered %llu/%llu in %.2f s | %.0f msgs/s | %.0f ns/delivery | "
      "%.3f posts/publish | %.3f sendmsg/publish | %.4f sendmsg/delivery | "
      "%.3f syscalls/delivery | %.1f copy B/delivery | "
      "e2e p50 %.2f ms p99 %.2f ms\n",
      label, static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.expected), r.elapsedSec, r.msgsPerSec,
      r.nsPerDelivery, r.postsPerPublish, r.sendmsgPerPublish,
      r.sendmsgPerDelivery, r.syscallsPerDelivery,
      r.copyBytesPerDelivery, r.latency.medianMs, r.latency.p99Ms);
}

void WriteJsonMode(std::FILE* f, const char* key, const ModeResult& r,
                   bool trailingComma) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"expected\": %llu,\n"
               "    \"delivered\": %llu,\n"
               "    \"server_delivered_total\": %.0f,\n"
               "    \"elapsed_sec\": %.4f,\n"
               "    \"msgs_per_sec\": %.1f,\n"
               "    \"ns_per_delivery\": %.1f,\n"
               "    \"posts_per_publish\": %.3f,\n"
               "    \"sendmsg_per_publish\": %.3f,\n"
               "    \"sendmsg_per_delivery\": %.4f,\n"
               "    \"syscalls_per_delivery\": %.4f,\n"
               "    \"sendmsg_share\": %.3f,\n"
               "    \"copy_bytes_per_delivery\": %.1f,\n"
               "    \"e2e_p50_ms\": %.3f,\n"
               "    \"e2e_p99_ms\": %.3f\n"
               "  }%s\n",
               key, static_cast<unsigned long long>(r.expected),
               static_cast<unsigned long long>(r.delivered),
               r.serverDelivered, r.elapsedSec, r.msgsPerSec, r.nsPerDelivery,
               r.postsPerPublish, r.sendmsgPerPublish, r.sendmsgPerDelivery,
               r.syscallsPerDelivery, r.sendmsgShare, r.copyBytesPerDelivery,
               r.latency.medianMs, r.latency.p99Ms, trailingComma ? "," : "");
}

}  // namespace

int main() {
  rlimit limit{};
  getrlimit(RLIMIT_NOFILE, &limit);
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
    getrlimit(RLIMIT_NOFILE, &limit);
  }
  const long fdBudget = static_cast<long>(limit.rlim_cur) - 256;
  const long clients =
      std::min(EnvLong("MD_BENCH_FANOUT_CLIENTS", 400), fdBudget / 2);
  const long topics = std::max(1L, EnvLong("MD_BENCH_FANOUT_TOPICS", 8));
  const long bursts = std::max(1L, EnvLong("MD_BENCH_FANOUT_BURSTS", 100));
  const char* outPath = std::getenv("MD_BENCH_FANOUT_OUT");
  if (outPath == nullptr) outPath = "BENCH_fanout.json";

  std::printf(
      "=== Fan-out egress ablation: %ld subscribers, %ld topics, %ld bursts "
      "===\n"
      "Real network engine (%d IoThreads, 2 Workers); zero-copy egress\n"
      "without and with the runtime monitor.\n\n",
      clients, topics, bursts, kIoThreads);

  const ModeSpec kZeroCopy{"batched_zerocopy", /*verify=*/false, /*seed=*/3};
  const ModeSpec kVerify{"batched_zerocopy_verify", /*verify=*/true, 5};

  ModeResult zeroCopyRes, verifiedRes;
  if (!RunMode(kZeroCopy, clients, topics, bursts, zeroCopyRes)) return 1;
  PrintMode(kZeroCopy.key, zeroCopyRes);
  // Monitor overhead leg: the default data path with the runtime verification
  // monitor riding every fan-out emission — the overhead budget is <= 5% on
  // the publish-path post count (DESIGN.md §11).
  if (!RunMode(kVerify, clients, topics, bursts, verifiedRes)) return 1;
  PrintMode(kVerify.key, verifiedRes);

  // What one delivery puts on a raw-framed subscriber's wire: the size the
  // copy-bytes bound below is relative to.
  Message sample;
  sample.topic = "fanout/topic-0";
  sample.payload = Bytes(64, 0x42);
  sample.epoch = 1;
  sample.seq = static_cast<std::uint64_t>(bursts);
  sample.pubId = PublicationId{Fnv1a64("fo-pub"), static_cast<std::uint64_t>(bursts)};
  sample.publishTs = RealClock::Instance().Now();
  Bytes deliverWire;
  EncodeFramed(Frame(DeliverFrame{sample}), deliverWire);
  const double deliverBytes = static_cast<double>(deliverWire.size());
  std::printf("\ncopy bytes per delivery: %.1f (deliver frame %.0f B)\n",
              zeroCopyRes.copyBytesPerDelivery, deliverBytes);

  std::vector<ShapeCheck> checks;
  for (const auto& [spec, res] : {std::pair{&kZeroCopy, &zeroCopyRes},
                                   std::pair{&kVerify, &verifiedRes}}) {
    checks.push_back({std::string(spec->key) + ": every notification delivered",
                      static_cast<double>(res->expected),
                      static_cast<double>(res->delivered),
                      res->delivered == res->expected});
  }
  // The server-side delivered counter (metrics Snapshot) covers every client
  // receipt — the batched handoff loses nothing between worker and IoThread.
  checks.push_back({"server delivered counter covers client receipts",
                    static_cast<double>(zeroCopyRes.delivered),
                    zeroCopyRes.serverDelivered,
                    zeroCopyRes.serverDelivered >=
                        static_cast<double>(zeroCopyRes.delivered)});
  // Worker-batch hand-off: a Worker batch posts at most one task per
  // IoThread for all its acks and fan-out, and under a burst a batch holds
  // many publishes. The default 800-publish burst read 0.018-0.052 posts per
  // publish (one post per ack plus one per fan-out read 3.00). A small sweep
  // can run one publish per batch, so it is held to the structural bound.
  const double publishes = static_cast<double>(bursts * topics);
  const double postsBound =
      publishes >= 800 ? kMaxPostsPerPublish : static_cast<double>(kIoThreads);
  char postsLabel[64];
  std::snprintf(postsLabel, sizeof(postsLabel), "zerocopy posts/publish <= %.2f",
                postsBound);
  checks.push_back({postsLabel, postsBound, zeroCopyRes.postsPerPublish,
                    zeroCopyRes.postsPerPublish <= postsBound});
  // Zero-copy egress must eliminate (nearly all) per-delivery memcpy into
  // session buffers: a delivery copies less than a tenth of its own frame.
  checks.push_back({"zerocopy copy-bytes/delivery < 10% of the deliver frame",
                    deliverBytes * 0.1, zeroCopyRes.copyBytesPerDelivery,
                    zeroCopyRes.copyBytesPerDelivery < deliverBytes * 0.1});
  // Scatter-gather batching: the zero-copy path should issue well under one
  // egress syscall per delivery (one writev covers a whole fan-out batch).
  checks.push_back({"zerocopy syscalls/delivery < 1",
                    1.0, zeroCopyRes.syscallsPerDelivery,
                    zeroCopyRes.syscallsPerDelivery < 1.0});
  // Monitor overhead leg: observation must be complete, silent on clean
  // traffic, and must not add cross-thread posts to the publish path.
  const double postsOverheadPct =
      zeroCopyRes.postsPerPublish > 0
          ? (verifiedRes.postsPerPublish - zeroCopyRes.postsPerPublish) /
                zeroCopyRes.postsPerPublish * 100.0
          : 0;
  const double throughputDeltaPct =
      zeroCopyRes.msgsPerSec > 0
          ? (zeroCopyRes.msgsPerSec - verifiedRes.msgsPerSec) /
                zeroCopyRes.msgsPerSec * 100.0
          : 0;
  checks.push_back({"monitor observed every delivery",
                    static_cast<double>(verifiedRes.delivered),
                    verifiedRes.monitorEvents,
                    verifiedRes.monitorEvents >=
                        static_cast<double>(verifiedRes.delivered)});
  checks.push_back({"monitor flagged zero violations on clean traffic", 0,
                    verifiedRes.monitorViolations,
                    verifiedRes.monitorViolations == 0});
  // Posts per publish depend on how Worker batches form, so two legs' ratio
  // swings by tens of percent either way; a monitor that posted per delivery
  // or per publish would land far above the hand-off bound.
  std::snprintf(postsLabel, sizeof(postsLabel),
                "monitor leg posts/publish <= %.2f", postsBound);
  checks.push_back({postsLabel, postsBound, verifiedRes.postsPerPublish,
                    verifiedRes.postsPerPublish <= postsBound});
  PrintShapeChecks(checks);
  std::printf("\nmonitor overhead: posts/publish %+.2f%%, throughput %+.2f%% "
              "(%.0f -> %.0f msgs/s), %.0f observations\n",
              postsOverheadPct, throughputDeltaPct, zeroCopyRes.msgsPerSec,
              verifiedRes.msgsPerSec, verifiedRes.monitorEvents);

  std::FILE* f = std::fopen(outPath, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fanout\",\n"
               "  \"config\": {\"clients\": %ld, \"topics\": %ld, "
               "\"bursts\": %ld, \"io_threads\": %d},\n",
               clients, topics, bursts, kIoThreads);
  WriteJsonMode(f, kZeroCopy.key, zeroCopyRes, /*trailingComma=*/true);
  WriteJsonMode(f, kVerify.key, verifiedRes, /*trailingComma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", outPath);

  const char* overheadPath = std::getenv("MD_BENCH_MONITOR_OUT");
  if (overheadPath == nullptr) overheadPath = "BENCH_monitor_overhead.json";
  std::FILE* of = std::fopen(overheadPath, "w");
  if (of == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", overheadPath);
    return 1;
  }
  std::fprintf(of,
               "{\n"
               "  \"bench\": \"monitor_overhead\",\n"
               "  \"config\": {\"clients\": %ld, \"topics\": %ld, "
               "\"bursts\": %ld, \"io_threads\": %d},\n",
               clients, topics, bursts, kIoThreads);
  WriteJsonMode(of, "baseline_batched", zeroCopyRes, /*trailingComma=*/true);
  WriteJsonMode(of, "runtime_verify", verifiedRes, /*trailingComma=*/true);
  std::fprintf(of,
               "  \"monitor_events\": %.0f,\n"
               "  \"monitor_violations\": %.0f,\n"
               "  \"posts_per_publish_overhead_pct\": %.2f,\n"
               "  \"throughput_delta_pct\": %.2f\n}\n",
               verifiedRes.monitorEvents, verifiedRes.monitorViolations,
               postsOverheadPct, throughputDeltaPct);
  std::fclose(of);
  std::printf("wrote %s\n", overheadPath);

  const bool lossFree = zeroCopyRes.delivered == zeroCopyRes.expected &&
                        verifiedRes.delivered == verifiedRes.expected &&
                        verifiedRes.monitorViolations == 0;
  return lossFree ? 0 : 1;
}
