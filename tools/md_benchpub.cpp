// md_benchpub — the paper's Benchpub tool (§6): "generates messages of a
// configurable size and sends them to the MigratoryData cluster at a
// configurable rate".
//
//   md_benchpub --server 127.0.0.1:8800 [--server ...] --topics 100
//               --rate 100 --size 140 --seconds 60 [--transport ws|http|raw]
//
// Publishes `rate` messages/s round-robin over `topics` topics (topic i is
// "bench/topic-<i>") and reports the publish-acknowledgement latency
// distribution — the replication-confirmation time, not end-to-end delivery
// (md_benchsub measures that side).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "client/client.hpp"
#include "common/hash.hpp"
#include "transport/epoll_loop.hpp"
#include "common/histogram.hpp"
#include "common/strutil.hpp"
#include "tools/flags.hpp"

namespace {

std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

md::client::Transport ParseTransport(const std::string& name) {
  if (name == "ws" || name == "websocket") return md::client::Transport::kWebSocket;
  if (name == "http") return md::client::Transport::kHttpStream;
  return md::client::Transport::kRawFraming;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, HandleSignal);
  const md::tools::Flags flags(
      argc, argv,
      {"id", "rate", "seconds", "server", "size", "topics", "transport"});

  md::client::ClientConfig cfg;
  for (const std::string& server : flags.GetAll("server")) {
    const auto parts = md::SplitView(server, ':');
    if (parts.size() != 2) {
      std::fprintf(stderr, "bad --server '%s' (want host:port)\n", server.c_str());
      return 2;
    }
    cfg.servers.push_back(
        {std::string(parts[0]),
         static_cast<std::uint16_t>(std::atoi(std::string(parts[1]).c_str())), 1.0});
  }
  if (cfg.servers.empty()) cfg.servers = {{"127.0.0.1", 8800, 1.0}};
  cfg.clientId = flags.Get("id", "benchpub");
  cfg.transport = ParseTransport(flags.Get("transport", "raw"));
  cfg.seed = md::Fnv1a64(cfg.clientId);

  const long topics = flags.GetInt("topics", 100);
  const long rate = flags.GetInt("rate", 100);        // msgs/s
  const long size = flags.GetInt("size", 140);        // payload bytes
  const long seconds = flags.GetInt("seconds", 60);

  md::EpollLoop loop;
  std::thread loopThread([&loop] { loop.Run(); });
  md::client::Client pub(loop, cfg);
  loop.Post([&] { pub.Start(); });

  std::printf("benchpub: %ld msgs/s over %ld topics, %ld B payloads, %ld s\n",
              rate, topics, size, seconds);

  md::Histogram ackLatency;
  std::mutex histMutex;
  std::atomic<std::uint64_t> sent{0}, acked{0}, failed{0};

  const auto interval = std::chrono::nanoseconds(1'000'000'000L / std::max(1L, rate));
  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  long topic = 0;
  while (!g_stop.load()) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed > std::chrono::seconds(seconds)) break;
    std::this_thread::sleep_until(next);
    next += interval;

    const std::string topicName = "bench/topic-" + std::to_string(topic);
    topic = (topic + 1) % std::max(1L, topics);
    loop.Post([&, topicName] {
      const md::TimePoint published = md::RealClock::Instance().Now();
      pub.Publish(topicName, md::Bytes(static_cast<std::size_t>(size), 0x42),
                  [&, published](md::Status s) {
                    if (s.ok()) {
                      acked.fetch_add(1);
                      std::lock_guard lock(histMutex);
                      ackLatency.Record(md::RealClock::Instance().Now() - published);
                    } else {
                      failed.fetch_add(1);
                    }
                  });
      sent.fetch_add(1);
    });
  }

  // Drain outstanding acks briefly.
  for (int i = 0; i < 200 && acked.load() + failed.load() < sent.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  loop.Post([&] { pub.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.Stop();
  loopThread.join();

  std::lock_guard lock(histMutex);
  const auto summary = md::SummarizeNanos(ackLatency);
  std::printf("sent=%llu acked=%llu failed=%llu\n",
              static_cast<unsigned long long>(sent.load()),
              static_cast<unsigned long long>(acked.load()),
              static_cast<unsigned long long>(failed.load()));
  std::printf("ack latency ms: median %.2f mean %.2f p95 %.2f p99 %.2f\n",
              summary.medianMs, summary.meanMs, summary.p95Ms, summary.p99Ms);
  return 0;
}
