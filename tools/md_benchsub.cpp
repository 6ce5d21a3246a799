// md_benchsub — the paper's Benchsub tool (§6): "opens a configurable number
// of concurrent WebSocket connections to the MigratoryData cluster,
// subscribing to a configurable number of subjects, and computing the
// end-to-end latency for the received notifications".
//
//   md_benchsub --server 127.0.0.1:8800 [--server ...] --clients 1000
//               --topics 100 --seconds 60 [--transport ws|http|raw]
//
// Each simulated client subscribes to one topic picked at random from
// "bench/topic-<0..topics-1>" (the paper's workload). End-to-end latency is
// computed from the publisher timestamp each message carries — run
// md_benchpub on the same machine so clocks agree (the paper does exactly
// this: "we record latency only for Benchpub/Benchsub couples located on the
// same machine").
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
      {"clients", "io-threads", "seconds", "seed", "server", "topics",
       "transport"});

  std::vector<md::client::ServerAddress> servers;
  for (const std::string& server : flags.GetAll("server")) {
    const auto parts = md::SplitView(server, ':');
    if (parts.size() != 2) {
      std::fprintf(stderr, "bad --server '%s' (want host:port)\n", server.c_str());
      return 2;
    }
    servers.push_back(
        {std::string(parts[0]),
         static_cast<std::uint16_t>(std::atoi(std::string(parts[1]).c_str())), 1.0});
  }
  if (servers.empty()) servers = {{"127.0.0.1", 8800, 1.0}};

  const long clients = flags.GetInt("clients", 100);
  const long topics = flags.GetInt("topics", 100);
  const long seconds = flags.GetInt("seconds", 60);
  const long loops = flags.GetInt("io-threads", 2);
  const auto transport = ParseTransport(flags.Get("transport", "raw"));

  std::printf("benchsub: %ld clients over %ld topics, %ld s\n", clients, topics,
              seconds);

  // Clients spread across a few event-loop threads.
  std::vector<std::unique_ptr<md::EpollLoop>> eventLoops;
  std::vector<std::thread> threads;
  for (long i = 0; i < loops; ++i) {
    eventLoops.push_back(std::make_unique<md::EpollLoop>());
    threads.emplace_back([loop = eventLoops.back().get()] { loop->Run(); });
  }

  md::Histogram latency;
  std::mutex histMutex;
  std::atomic<std::uint64_t> received{0};
  std::atomic<long> connected{0};

  md::Rng rng(flags.GetInt("seed", 7));
  std::vector<std::unique_ptr<md::client::Client>> subs;
  subs.reserve(static_cast<std::size_t>(clients));
  for (long c = 0; c < clients; ++c) {
    md::client::ClientConfig cfg;
    cfg.servers = servers;
    cfg.clientId = "benchsub-" + std::to_string(c);
    cfg.transport = transport;
    cfg.seed = rng.Next();
    auto* loop = eventLoops[static_cast<std::size_t>(c % loops)].get();
    auto sub = std::make_unique<md::client::Client>(*loop, cfg);
    const std::string topic =
        "bench/topic-" + std::to_string(rng.NextBelow(static_cast<std::uint64_t>(
                             std::max(1L, topics))));
    auto* subPtr = sub.get();
    loop->Post([&, subPtr, topic] {
      subPtr->SetConnectionListener([&](bool up) {
        connected.fetch_add(up ? 1 : -1);
      });
      subPtr->Subscribe(topic, [&](const md::Message& m) {
        received.fetch_add(1);
        if (m.publishTs != 0) {
          const md::Duration lat = md::RealClock::Instance().Now() - m.publishTs;
          std::lock_guard lock(histMutex);
          latency.Record(lat);
        }
      });
      subPtr->Start();
    });
    subs.push_back(std::move(sub));
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t lastReceived = 0;
  while (!g_stop.load() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(seconds)) {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    const std::uint64_t now = received.load();
    std::printf("connected=%ld received/s=%.0f total=%llu\n", connected.load(),
                static_cast<double>(now - lastReceived) / 5.0,
                static_cast<unsigned long long>(now));
    std::fflush(stdout);
    lastReceived = now;
  }

  for (std::size_t c = 0; c < subs.size(); ++c) {
    auto* loop = eventLoops[c % static_cast<std::size_t>(loops)].get();
    loop->Post([sub = subs[c].get()] { sub->Stop(); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (auto& loop : eventLoops) loop->Stop();
  for (auto& t : threads) t.join();

  std::lock_guard lock(histMutex);
  const auto summary = md::SummarizeNanos(latency);
  std::printf("received=%llu\n", static_cast<unsigned long long>(received.load()));
  std::printf("e2e latency ms: median %.2f mean %.2f stddev %.2f p90 %.2f "
              "p95 %.2f p99 %.2f\n",
              summary.medianMs, summary.meanMs, summary.stdDevMs, summary.p90Ms,
              summary.p95Ms, summary.p99Ms);
  return 0;
}
