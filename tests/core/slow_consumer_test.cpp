// End-to-end slow-consumer backpressure tests: real Server (epoll IoThreads +
// Workers), real client library, loopback TCP and WebSocket.
//
// Scenario under test (the paper's "one stalled subscriber must not buffer
// the server to death"): a subscriber stops reading, the server's send queue
// toward it crosses the configured watermarks, and the slow-consumer policy
// evicts the session after the grace period — while healthy subscribers keep
// receiving everything, gap-free and in order. The evicted at-least-once
// subscriber reconnects with its resume position and converges to exactly
// the full stream.
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "transport/epoll_loop.hpp"
#include "proto/websocket.hpp"

namespace md::core {
namespace {

using namespace std::chrono_literals;

class ClientLoopThread {
 public:
  ClientLoopThread() : thread_([this] { loop_.Run(); }) {}
  ~ClientLoopThread() {
    loop_.Stop();
    thread_.join();
  }
  EpollLoop& loop() { return loop_; }

  template <typename Fn>
  void RunOnLoop(Fn fn) {
    std::atomic<bool> done{false};
    loop_.Post([&] {
      fn();
      done.store(true);
    });
    WaitFor([&] { return done.load(); });
  }

  static void WaitFor(const std::function<bool()>& pred,
                      std::chrono::milliseconds timeout = 60000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
      std::this_thread::sleep_for(1ms);
    }
  }

 private:
  EpollLoop loop_;
  std::thread thread_;
};

client::ClientConfig MakeClientConfig(
    std::uint16_t port, const std::string& id,
    client::Transport transport = client::Transport::kRawFraming) {
  client::ClientConfig cfg;
  cfg.servers = {{"127.0.0.1", port, 1.0}};
  cfg.clientId = id;
  cfg.transport = transport;
  cfg.ackTimeout = 2 * kSecond;
  cfg.backoffBase = 10 * kMillisecond;
  cfg.backoffMax = 100 * kMillisecond;
  cfg.seed = Fnv1a64(id);
  return cfg;
}

/// Records one subscriber's application-visible stream and checks it is
/// strictly increasing by (epoch, seq) with no publication seen twice.
struct StreamTracker {
  std::mutex mutex;
  std::vector<std::uint64_t> counters;  // pubId.counter, in delivery order
  std::set<std::uint64_t> seen;
  std::uint64_t duplicates = 0;
  std::uint64_t orderViolations = 0;
  std::uint32_t lastEpoch = 0;
  std::uint64_t lastSeq = 0;

  void Record(const Message& m) {
    std::lock_guard lock(mutex);
    if (std::pair{m.epoch, m.seq} <= std::pair{lastEpoch, lastSeq} &&
        !counters.empty()) {
      ++orderViolations;
    }
    lastEpoch = m.epoch;
    lastSeq = m.seq;
    if (!seen.insert(m.pubId.counter).second) ++duplicates;
    counters.push_back(m.pubId.counter);
  }

  std::size_t DistinctCount() {
    std::lock_guard lock(mutex);
    return seen.size();
  }
};

constexpr std::size_t kPayload = 16 * 1024;
constexpr int kMessages = 600;  // ~9.6 MiB: far beyond kernel + hard mark

ServerConfig SmallWatermarkConfig(obs::MetricsRegistry* metrics) {
  ServerConfig cfg;
  cfg.ioThreads = 2;
  cfg.workers = 2;
  cfg.serverId = "bp-server";
  cfg.backpressure.softWatermark = 64 * 1024;
  cfg.backpressure.hardWatermark = 200 * 1024;
  cfg.backpressure.lowWatermark = 8 * 1024;
  cfg.backpressure.evictGrace = 100 * kMillisecond;
  cfg.metrics = metrics;
  return cfg;
}

/// Publishes `count` payloads of kPayload bytes and waits for all acks.
/// Paced in acked batches: a healthy subscriber reading at loopback speed
/// keeps up with each burst (the eviction grace must protect it), while a
/// stalled one accumulates the full volume against its watermarks.
void PublishAll(ClientLoopThread& lt, client::Client& pub,
                const std::string& topic, int count) {
  constexpr int kBatch = 50;
  std::atomic<int> acked{0};
  for (int base = 0; base < count; base += kBatch) {
    const int n = std::min(kBatch, count - base);
    lt.RunOnLoop([&, base, n] {
      for (int i = base; i < base + n; ++i) {
        Bytes payload(kPayload, static_cast<std::uint8_t>(i & 0xFF));
        pub.Publish(topic, std::move(payload), [&](Status s) {
          if (s.ok()) acked.fetch_add(1);
        });
      }
    });
    ClientLoopThread::WaitFor([&] { return acked.load() >= base + n; });
  }
}

TEST(SlowConsumerTest, StalledSubscriberEvictedHealthyUnaffectedThenReconverges) {
  obs::MetricsRegistry registry;
  auto server = std::make_unique<Server>(SmallWatermarkConfig(&registry));
  ASSERT_TRUE(server->Start().ok());
  ClientLoopThread lt;

  auto slowSub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "slow-sub"));
  auto healthySub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "healthy-sub"));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "bp-pub"));

  StreamTracker slowStream;
  StreamTracker healthyStream;
  lt.RunOnLoop([&] {
    slowSub->Subscribe("bp", [&](const Message& m) { slowStream.Record(m); });
    healthySub->Subscribe("bp",
                          [&](const Message& m) { healthyStream.Record(m); });
    slowSub->Start();
    healthySub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return slowSub->IsConnected() && healthySub->IsConnected() &&
           pub->IsConnected();
  });

  // Stall one subscriber, then push ~9.6 MiB through a 200 KiB hard mark.
  lt.RunOnLoop([&] { slowSub->PauseReads(true); });
  PublishAll(lt, *pub, "bp", kMessages);

  // The policy must have evicted the stalled session at least once…
  ClientLoopThread::WaitFor([&] {
    return registry.Snapshot().Total("md_slow_consumer_disconnects_total") >= 1;
  });
  EXPECT_GE(registry.Snapshot().Total("md_slow_consumer_soft_overflows_total"),
            1.0);

  // …while the healthy subscriber got the complete stream, in order.
  ClientLoopThread::WaitFor(
      [&] { return healthyStream.DistinctCount() == kMessages; });
  EXPECT_EQ(healthyStream.duplicates, 0u);
  EXPECT_EQ(healthyStream.orderViolations, 0u);

  // Resume the stalled client: it drains the backlog + eviction notice,
  // reconnects with its resume position, and backfill hands it every missed
  // message — exactly once, in order.
  lt.RunOnLoop([&] { slowSub->PauseReads(false); });
  ClientLoopThread::WaitFor(
      [&] { return slowStream.DistinctCount() == kMessages; });
  // Allow any trailing redelivery to arrive, then assert exactly-once.
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(slowStream.duplicates, 0u);
  EXPECT_EQ(slowStream.orderViolations, 0u);
  EXPECT_GE(slowSub->stats().reconnects, 1u);
  EXPECT_EQ(healthySub->stats().reconnects, 0u);

  // The over-soft session gauge is transient state: all excursions resolved.
  ClientLoopThread::WaitFor([&] {
    return registry.Snapshot().Total("md_slow_consumer_sessions_over_soft") == 0;
  });

  lt.RunOnLoop([&] {
    slowSub->Stop();
    healthySub->Stop();
    pub->Stop();
  });
  server->Stop();
}

// ---------------------------------------------------------------------------
// WebSocket specifics
// ---------------------------------------------------------------------------

/// A hand-rolled WebSocket subscriber on a raw TcpConnection: lets the test
/// stop reading mid-stream and then inspect the exact bytes the server sent,
/// down to the final Close frame.
struct RawWsClient {
  ConnectionPtr conn;
  ByteQueue in;       // loop thread only
  bool handshook = false;
  std::string wsKey;
  std::atomic<bool> closed{false};
  std::atomic<std::size_t> bytesSeen{0};

  void SendWsFrame(const Frame& frame) {
    Bytes body;
    EncodeFrame(frame, body);
    auto wire = AcquireWireBuffer();
    ws::EncodeWsFrame(ws::Opcode::kBinary, BytesView(body), *wire,
                      /*maskKey=*/0xA1B2C3D4u);  // clients MUST mask
    ASSERT_TRUE(conn->Send(std::move(wire)).ok());
  }
};

TEST(SlowConsumerTest, EvictedWebSocketClientReceivesClose1013) {
  obs::MetricsRegistry registry;
  auto cfg = SmallWatermarkConfig(&registry);
  cfg.backpressure.evictGrace = 50 * kMillisecond;
  auto server = std::make_unique<Server>(cfg);
  ASSERT_TRUE(server->Start().ok());
  ClientLoopThread lt;

  RawWsClient raw;
  std::atomic<bool> connected{false};
  lt.RunOnLoop([&] {
    lt.loop().Connect("127.0.0.1", server->Port(),
                      [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
      raw.conn = *r;
      raw.conn->SetDataHandler([&](BytesView d) {
        raw.in.Append(d);
        raw.bytesSeen.fetch_add(d.size());
      });
      raw.conn->SetCloseHandler([&] { raw.closed.store(true); });
      connected.store(true);
    });
  });
  ClientLoopThread::WaitFor([&] { return connected.load(); });

  // HTTP upgrade, then CONNECT + SUBSCRIBE over masked binary frames.
  lt.RunOnLoop([&] {
    Rng rng(42);
    raw.wsKey = ws::GenerateKey(rng);
    const std::string req =
        ws::BuildClientHandshake("127.0.0.1", "/", raw.wsKey);
    ASSERT_TRUE(raw.conn->Send(ToWire(req)).ok());
  });
  ClientLoopThread::WaitFor([&] { return raw.bytesSeen.load() > 0; });
  lt.RunOnLoop([&] {
    const auto r = ws::ParseServerHandshakeResponse(raw.in, raw.wsKey);
    ASSERT_TRUE(r.status.ok());
    ASSERT_TRUE(r.complete);
    raw.handshook = true;
    raw.SendWsFrame(Frame(ConnectFrame{"raw-ws-sub"}));
    raw.SendWsFrame(Frame(SubscribeFrame{"ws-bp", false, {}}));
  });

  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "ws-bp-pub"));
  lt.RunOnLoop([&] { pub->Start(); });
  ClientLoopThread::WaitFor([&] { return pub->IsConnected(); });

  // Confirm the subscription is live (a delivery reaches the raw socket),
  // then stall it and flood until the policy evicts the session.
  const std::size_t beforeProbe = raw.bytesSeen.load();
  PublishAll(lt, *pub, "ws-bp", 1);
  ClientLoopThread::WaitFor([&] { return raw.bytesSeen.load() > beforeProbe; });
  lt.RunOnLoop([&] { raw.conn->SetReadPaused(true); });
  PublishAll(lt, *pub, "ws-bp", kMessages);
  ClientLoopThread::WaitFor([&] {
    return registry.Snapshot().Total("md_slow_consumer_disconnects_total") >= 1;
  });

  // Resume: the buffered backlog drains in order and the stream must end
  // with a proper RFC 6455 Close carrying 1013 (policy violation / try
  // again later) — not a silent RST.
  lt.RunOnLoop([&] { raw.conn->SetReadPaused(false); });
  ClientLoopThread::WaitFor([&] { return raw.closed.load(); });

  lt.RunOnLoop([&] {
    std::optional<ws::WsFrame> last;
    while (true) {
      auto r = ws::ExtractWsFrame(raw.in, /*expectMasked=*/false);
      ASSERT_TRUE(r.status.ok());
      if (!r.frame) break;
      last = std::move(r.frame);
    }
    ASSERT_TRUE(last.has_value()) << "no complete frame before close";
    EXPECT_EQ(last->opcode, ws::Opcode::kClose);
    ASSERT_GE(last->payload.size(), 2u);
    const std::uint16_t code = static_cast<std::uint16_t>(
        (last->payload[0] << 8) | last->payload[1]);
    EXPECT_EQ(code, ws::kClosePolicyTryAgainLater);
  });

  lt.RunOnLoop([&] { pub->Stop(); });
  server->Stop();
}

TEST(SlowConsumerTest, WsPingPongStaysResponsiveDuringAnotherClientsStall) {
  obs::MetricsRegistry registry;
  auto server = std::make_unique<Server>(SmallWatermarkConfig(&registry));
  ASSERT_TRUE(server->Start().ok());
  ClientLoopThread lt;

  auto healthyCfg = MakeClientConfig(server->Port(), "ws-healthy",
                                     client::Transport::kWebSocket);
  // Aggressive liveness monitoring: any server-side stall in answering pings
  // (e.g. an IoThread wedged on the stalled session) forces a reconnect,
  // which the test asserts never happens.
  healthyCfg.pingInterval = 100 * kMillisecond;
  healthyCfg.pongTimeout = 1 * kSecond;
  auto healthy = std::make_unique<client::Client>(lt.loop(), healthyCfg);
  auto stalled = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "ws-stalled",
                                  client::Transport::kWebSocket));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "ws-pub"));

  StreamTracker healthyStream;
  lt.RunOnLoop([&] {
    healthy->Subscribe("ws-ping",
                       [&](const Message& m) { healthyStream.Record(m); });
    stalled->Subscribe("ws-ping", [](const Message&) {});
    healthy->Start();
    stalled->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return healthy->IsConnected() && stalled->IsConnected() &&
           pub->IsConnected();
  });

  lt.RunOnLoop([&] { stalled->PauseReads(true); });
  PublishAll(lt, *pub, "ws-ping", 300);
  ClientLoopThread::WaitFor(
      [&] { return healthyStream.DistinctCount() == 300; });

  // Several ping intervals with the other session stalled/evicted: the
  // healthy WS client's keepalive must never have missed a pong.
  std::this_thread::sleep_for(500ms);
  EXPECT_TRUE(healthy->IsConnected());
  EXPECT_EQ(healthy->stats().reconnects, 0u);
  EXPECT_EQ(healthyStream.duplicates, 0u);
  EXPECT_EQ(healthyStream.orderViolations, 0u);

  lt.RunOnLoop([&] { stalled->PauseReads(false); });
  lt.RunOnLoop([&] {
    healthy->Stop();
    stalled->Stop();
    pub->Stop();
  });
  server->Stop();
}

}  // namespace
}  // namespace md::core
