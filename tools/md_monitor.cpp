// md_monitor — standalone runtime-verification sidecar (DESIGN.md §11).
//
// Attaches to a live server from the outside and checks the delivery
// invariants the chaos harness checks in simulation, with zero server-side
// cooperation beyond the public endpoints:
//
//   - a canary publisher/subscriber pair runs real traffic through the
//     server; every delivery the subscriber's connection emits feeds a
//     verify::Monitor (order / gap / duplicate rules, keyed by connection
//     generation so reconnect backfills re-baseline),
//   - the /metrics endpoint is scraped periodically and every counter series
//     is checked for monotonicity; the scrape also carries the server's own
//     md_invariant_violations_total when it runs an embedded monitor.
//
//   md_monitor --port 8800 [--host 127.0.0.1] [--duration-ms 5000]
//              [--topic monitor/canary] [--canary-ms 200] [--scrape-ms 500]
//              [--inject KIND --expect KIND]   # self-test the sidecar rules
//              [--server-inject KIND]          # drive the server's /inject
//                                              # endpoint (md_server --verify
//                                              # --verify-inject) and require
//                                              # its violation counter to move
//
// Exit code 0: clean run (and every --expect / --server-inject assertion
// held). Non-zero: a violation fired that was not asked for, or an injected
// one failed to fire — either way the monitor/server pair is not telling the
// truth and the run must not be trusted.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "client/client.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "tools/flags.hpp"
#include "transport/epoll_loop.hpp"
#include "verify/monitor.hpp"

namespace {

/// One-shot blocking HTTP GET (the scrape loop runs off the event loop, so
/// plain sockets keep it simple).
std::string HttpGet(const std::string& host, std::uint16_t port,
                    const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto headerEnd = response.find("\r\n\r\n");
  return headerEnd == std::string::npos ? std::string{}
                                        : response.substr(headerEnd + 4);
}

/// Feeds every counter sample of a Prometheus text exposition into the
/// monitor and returns the summed value of `watchFamily` (for the
/// --server-inject assertion). Counter families are identified by their
/// preceding "# TYPE <name> counter" line.
double FeedExposition(md::verify::Monitor& monitor, const std::string& body,
                      const std::string& watchFamily) {
  double watched = 0;
  std::string counterFamily;
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string_view line{body.data() + start, end - start};
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      counterFamily.clear();
      if (line.rfind("# TYPE ", 0) == 0) {
        const auto rest = line.substr(7);
        const auto space = rest.find(' ');
        if (space != std::string_view::npos &&
            rest.substr(space + 1) == "counter") {
          counterFamily.assign(rest.substr(0, space));
        }
      }
      continue;
    }
    if (counterFamily.empty()) continue;
    // "name{labels} value" or "name value"; series key = everything before
    // the final space, which is unique per (family, labels).
    const auto valueAt = line.rfind(' ');
    if (valueAt == std::string_view::npos) continue;
    const auto series = line.substr(0, valueAt);
    if (series.substr(0, counterFamily.size()) != counterFamily) continue;
    const double value = std::atof(std::string(line.substr(valueAt + 1)).c_str());
    monitor.OnCounterSample(series, value);
    if (!watchFamily.empty() &&
        series.substr(0, watchFamily.size()) == watchFamily) {
      watched += value;
    }
  }
  return watched;
}

}  // namespace

int main(int argc, char** argv) {
  const md::tools::Flags flags(
      argc, argv,
      {"canary-ms", "duration-ms", "expect", "host", "inject", "port",
       "scrape-ms", "server-inject", "topic"});
  const std::string host = flags.Get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.GetInt("port", 8800));
  const std::string topic = flags.Get("topic", "monitor/canary");
  const long durationMs = flags.GetInt("duration-ms", 5000);
  const long canaryMs = flags.GetInt("canary-ms", 200);
  const long scrapeMs = flags.GetInt("scrape-ms", 500);

  std::optional<md::verify::ViolationKind> inject, expect, serverInject;
  if (flags.Has("inject")) inject = md::verify::ParseViolationKind(flags.Get("inject"));
  if (flags.Has("expect")) expect = md::verify::ParseViolationKind(flags.Get("expect"));
  if (flags.Has("server-inject")) {
    serverInject = md::verify::ParseViolationKind(flags.Get("server-inject"));
  }
  if ((flags.Has("inject") && !inject) || (flags.Has("expect") && !expect) ||
      (flags.Has("server-inject") && !serverInject)) {
    std::fprintf(stderr, "md_monitor: bad violation kind (want "
                         "order|gap|duplicate|backpressure|metrics)\n");
    return 2;
  }

  md::obs::MetricsRegistry registry;
  md::verify::MonitorConfig mcfg;
  mcfg.scope = "sidecar";
  md::verify::Monitor monitor(registry, mcfg);

  md::EpollLoop loop;
  std::thread loopThread([&loop] { loop.Run(); });

  // Canary subscriber: its pre-filter delivery stream (keyed by connection
  // generation) is exactly what the monitor's rules are sound against.
  md::client::ClientConfig subCfg;
  subCfg.servers = {{host, port, 1.0}};
  subCfg.clientId = "md-monitor-sub";
  subCfg.seed = 0x5EEDF00DULL;
  md::client::Client sub(loop, subCfg);
  auto generation = std::make_shared<std::uint64_t>(0);
  std::atomic<std::uint64_t> received{0};
  loop.Post([&] {
    sub.SetConnectionListener([generation](bool up) {
      if (up) ++*generation;
    });
    sub.SetDeliveryObserver([&monitor, generation, &received](
                                const md::Message& m, bool /*duplicate*/) {
      received.fetch_add(1, std::memory_order_relaxed);
      monitor.OnDelivery(
          md::MixU64(md::Fnv1a64("md-monitor-sub") ^
                     (*generation * 0x9E3779B97F4A7C15ULL)),
          m.topic, md::PosOf(m), m.pubId);
    });
    sub.Subscribe(topic, [](const md::Message&) {});
    sub.Start();
  });

  // Canary publisher: steady low-rate traffic so the delivery rules always
  // have a live stream to judge.
  md::client::ClientConfig pubCfg;
  pubCfg.servers = {{host, port, 1.0}};
  pubCfg.clientId = "md-monitor-pub";
  pubCfg.seed = 0xCAFEF00DULL;
  md::client::Client pub(loop, pubCfg);
  auto tick = std::make_shared<std::function<void()>>();
  loop.Post([&, tick] {
    pub.Start();
    *tick = [&, weak = std::weak_ptr<std::function<void()>>(tick)] {
      pub.Publish(topic, md::Bytes{0xCA, 0x9A});
      if (auto self = weak.lock()) {
        loop.ScheduleTimer(canaryMs * md::kMillisecond, *self);
      }
    };
    loop.ScheduleTimer(canaryMs * md::kMillisecond, *tick);
  });

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(durationMs);
  const auto half = start + std::chrono::milliseconds(durationMs / 2);
  bool armed = false;
  double serverViolations = 0;
  const std::string watch = serverInject ? "md_invariant_violations_total"
                                         : std::string{};
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(scrapeMs));
    const std::string body = HttpGet(host, port, "/metrics");
    if (!body.empty()) {
      serverViolations = FeedExposition(monitor, body, watch);
    }
    if (!armed && std::chrono::steady_clock::now() >= half) {
      armed = true;
      if (inject) {
        std::printf("md_monitor: arming %s fault on the sidecar monitor\n",
                    md::verify::ViolationKindName(*inject));
        monitor.InjectFault(*inject);
      }
      if (serverInject) {
        const std::string path =
            std::string("/inject?kind=") +
            md::verify::ViolationKindName(*serverInject);
        std::printf("md_monitor: GET %s\n", path.c_str());
        (void)HttpGet(host, port, path);
      }
    }
  }

  loop.Post([&] {
    pub.Stop();
    sub.Stop();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop.Stop();
  loopThread.join();

  int rc = 0;
  std::printf("md_monitor: %llu deliveries observed, %llu violation(s)\n",
              static_cast<unsigned long long>(received.load()),
              static_cast<unsigned long long>(monitor.ViolationCount()));
  for (const auto& v : monitor.Reports()) {
    std::printf("  %s\n", v.detail.c_str());
  }
  if (expect) {
    const std::uint64_t hits = monitor.ViolationCount(*expect);
    if (hits != 1 || monitor.ViolationCount() != 1) {
      std::printf("md_monitor: FAIL expected exactly one %s violation, saw "
                  "%llu (of %llu total)\n",
                  md::verify::ViolationKindName(*expect),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(monitor.ViolationCount()));
      rc = 1;
    } else {
      std::printf("md_monitor: OK injected %s was caught\n",
                  md::verify::ViolationKindName(*expect));
    }
  } else if (monitor.ViolationCount() != 0) {
    std::printf("md_monitor: FAIL unexpected violation(s)\n");
    rc = 1;
  }
  if (serverInject) {
    if (serverViolations < 1.0) {
      std::printf("md_monitor: FAIL server did not report the injected %s "
                  "violation (md_invariant_violations_total=%g)\n",
                  md::verify::ViolationKindName(*serverInject),
                  serverViolations);
      rc = 1;
    } else {
      std::printf("md_monitor: OK server reported injected %s "
                  "(md_invariant_violations_total=%g)\n",
                  md::verify::ViolationKindName(*serverInject),
                  serverViolations);
    }
  }
  return rc;
}
