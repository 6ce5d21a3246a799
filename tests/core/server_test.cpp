// End-to-end tests: real Server (epoll IoThreads + Workers) and real Client
// library over loopback TCP, raw framing and WebSocket.
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include "client/client.hpp"
#include "obs/families.hpp"
#include "support/raw_framed_client.hpp"
#include "transport/epoll_loop.hpp"

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

  // Generous ceiling: these tests run under ASan/TSan and a 15x repeat gate
  // in CI, where scheduling stalls of seconds are normal. The wait is
  // condition-based, so the ceiling only ever costs time on real failures.
  static void WaitFor(const std::function<bool()>& pred,
                      std::chrono::milliseconds timeout = 20000ms) {
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
  // Far above any loopback round-trip, even sanitized and contended: a
  // too-tight ack timeout makes the client re-publish mid-test, and the
  // retry racing the original ack was the main source of flakes here.
  cfg.ackTimeout = 5 * kSecond;
  cfg.backoffBase = 10 * kMillisecond;
  cfg.backoffMax = 100 * kMillisecond;
  cfg.seed = Fnv1a64(id);
  return cfg;
}

class ServerClientTest : public ::testing::TestWithParam<client::Transport> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.ioThreads = 2;
    cfg.workers = 2;
    cfg.serverId = "test-server";
    server = std::make_unique<Server>(cfg);
    ASSERT_TRUE(server->Start().ok());
  }

  void TearDown() override { server->Stop(); }

  [[nodiscard]] client::Transport UseWebSocket() const { return GetParam(); }

  std::unique_ptr<Server> server;
  ClientLoopThread lt;
};

TEST_P(ServerClientTest, SubscribePublishDeliver) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-1", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-1", UseWebSocket()));

  std::atomic<int> received{0};
  std::atomic<bool> subscribed{false};
  std::string lastPayload;
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "scores",
        [&](const Message& m) {
          lastPayload.assign(m.payload.begin(), m.payload.end());
          received.fetch_add(1);
        },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  // The SUBSCRIBE and the PUBLISH travel on different sessions handled by
  // different workers; only the SubAck (sent after the registry write, on the
  // subscriber's worker) orders the subscription before the fan-out snapshot.
  // Publishing after IsConnected() alone races the subscription, and a missed
  // publish is acked so the client never retries it.
  ClientLoopThread::WaitFor([&] {
    return sub->IsConnected() && pub->IsConnected() && subscribed.load();
  });

  std::atomic<bool> acked{false};
  lt.RunOnLoop([&] {
    pub->Publish("scores", Bytes{'3', '-', '1'},
                 [&](Status s) { acked.store(s.ok()); });
  });
  ClientLoopThread::WaitFor([&] { return received.load() == 1 && acked.load(); });
  EXPECT_EQ(lastPayload, "3-1");

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, InOrderDeliveryOfManyMessages) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-ord", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-ord", UseWebSocket()));

  constexpr int kMessages = 200;
  std::atomic<int> received{0};
  std::atomic<bool> ordered{true};
  std::atomic<bool> subscribed{false};
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "stream",
        [&, next = std::uint64_t(1)](const Message& m) mutable {
          if (m.seq != next++) ordered.store(false);
          received.fetch_add(1);
        },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return sub->IsConnected() && pub->IsConnected() && subscribed.load();
  });

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) {
      pub->Publish("stream", Bytes{static_cast<std::uint8_t>(i)});
    }
  });
  ClientLoopThread::WaitFor([&] { return received.load() == kMessages; });
  EXPECT_TRUE(ordered.load());

  const auto stats = server->Stats();
  EXPECT_GE(stats.published, static_cast<std::uint64_t>(kMessages));
  EXPECT_GE(stats.delivered, static_cast<std::uint64_t>(kMessages));

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, FanOutToManySubscribers) {
  constexpr int kSubs = 20;
  std::vector<std::unique_ptr<client::Client>> subs;
  std::atomic<int> received{0};
  std::atomic<int> subscribed{0};

  lt.RunOnLoop([&] {
    for (int i = 0; i < kSubs; ++i) {
      auto c = std::make_unique<client::Client>(
          lt.loop(),
          MakeClientConfig(server->Port(), "sub-" + std::to_string(i), UseWebSocket()));
      c->Subscribe(
          "game", [&](const Message&) { received.fetch_add(1); },
          [&] { subscribed.fetch_add(1); });
      c->Start();
      subs.push_back(std::move(c));
    }
  });
  ClientLoopThread::WaitFor([&] { return subscribed.load() == kSubs; });

  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-fan", UseWebSocket()));
  lt.RunOnLoop([&] { pub->Start(); });
  ClientLoopThread::WaitFor([&] { return pub->IsConnected(); });

  lt.RunOnLoop([&] { pub->Publish("game", Bytes{1}); });
  ClientLoopThread::WaitFor([&] { return received.load() == kSubs; });

  lt.RunOnLoop([&] {
    for (auto& c : subs) c->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, ReconnectRecoversMissedMessages) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-rec", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-rec", UseWebSocket()));

  std::vector<std::uint64_t> seqs;
  std::mutex seqsMutex;
  std::atomic<int> subscribed{0};  // fires again on each resubscribe
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "recovery",
        [&](const Message& m) {
          std::lock_guard lock(seqsMutex);
          seqs.push_back(m.seq);
        },
        [&] { subscribed.fetch_add(1); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return pub->IsConnected() && subscribed.load() >= 1;
  });

  // Receive message 1 live.
  std::atomic<bool> acked1{false};
  lt.RunOnLoop([&] {
    pub->Publish("recovery", Bytes{1}, [&](Status) { acked1.store(true); });
  });
  ClientLoopThread::WaitFor([&] {
    std::lock_guard lock(seqsMutex);
    return seqs.size() == 1;
  });

  // Simulate a network drop: stop the subscriber, publish while it is away,
  // then reconnect with resume (Start reuses the same Client state).
  lt.RunOnLoop([&] { sub->Stop(); });
  std::atomic<int> ackedAway{0};
  lt.RunOnLoop([&] {
    pub->Publish("recovery", Bytes{2}, [&](Status) { ackedAway.fetch_add(1); });
    pub->Publish("recovery", Bytes{3}, [&](Status) { ackedAway.fetch_add(1); });
  });
  ClientLoopThread::WaitFor([&] { return ackedAway.load() == 2; });

  lt.RunOnLoop([&] { sub->Start(); });
  ClientLoopThread::WaitFor([&] {
    std::lock_guard lock(seqsMutex);
    return seqs.size() == 3;
  });
  {
    std::lock_guard lock(seqsMutex);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
  }

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, PingPongKeepsConnectionResponsive) {
  // Covered indirectly: publish after idle still works.
  auto c = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "idle", UseWebSocket()));
  lt.RunOnLoop([&] { c->Start(); });
  ClientLoopThread::WaitFor([&] { return c->IsConnected(); });
  std::this_thread::sleep_for(50ms);
  std::atomic<bool> acked{false};
  lt.RunOnLoop([&] { c->Publish("t", Bytes{1}, [&](Status s) { acked.store(s.ok()); }); });
  ClientLoopThread::WaitFor([&] { return acked.load(); });
  lt.RunOnLoop([&] { c->Stop(); });
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, ServerClientTest,
    ::testing::Values(client::Transport::kRawFraming,
                      client::Transport::kWebSocket,
                      client::Transport::kHttpStream),
    [](const ::testing::TestParamInfo<client::Transport>& info) {
      switch (info.param) {
        case client::Transport::kRawFraming: return "RawFraming";
        case client::Transport::kWebSocket: return "WebSocket";
        case client::Transport::kHttpStream: return "HttpStream";
      }
      return "Unknown";
    });

// With batching on, a session's frames wait in its batcher (as references)
// and leave together: the 50-publish burst below writes 50 acks to the
// publisher and 50 deliveries to the subscriber, yet costs the server only a
// handful of sendmsg calls (one sendmsg takes up to 64 frames). Measured on
// a 4-core x86 container: 2 calls per burst, one per session, in 8 of 8
// runs. The bound, 10 for 100 frames, leaves room for a batch window split
// by a slow scheduler.
TEST(ServerBatchingTest, BatchingReducesWritesButDeliversAll) {
  obs::MetricsRegistry registry;
  ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  cfg.enableBatching = true;
  cfg.batch.maxDelay = 20 * kMillisecond;
  cfg.batch.maxBytes = 1 << 20;
  cfg.metrics = &registry;
  Server server(cfg);
  ASSERT_TRUE(server.Start().ok());
  obs::TransportMetrics transport(registry);

  ClientLoopThread lt;
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "sub-batch"));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "pub-batch"));

  constexpr int kMessages = 50;
  std::atomic<int> received{0};
  std::atomic<int> acked{0};
  std::atomic<bool> subscribed{false};
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "hot", [&](const Message&) { received.fetch_add(1); },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return pub->IsConnected() && subscribed.load();
  });
  // Let the batches holding the handshake replies leave (3x maxDelay)
  // before the count starts.
  std::this_thread::sleep_for(60ms);
  const std::uint64_t sendmsgBefore = transport.sendmsgCalls.Value();

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) {
      pub->Publish("hot", Bytes{1}, [&](Status s) {
        if (s.ok()) acked.fetch_add(1);
      });
    }
  });
  ClientLoopThread::WaitFor([&] {
    return received.load() == kMessages && acked.load() == kMessages;
  });
  const std::uint64_t sendmsgCalls = transport.sendmsgCalls.Value() - sendmsgBefore;
  EXPECT_GT(sendmsgCalls, 0u);
  EXPECT_LE(sendmsgCalls, 10u) << "100 frames should leave in a few batches";

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
  server.Stop();
}

// The Worker -> IoThread hand-off: every frame a Worker produces waits in
// its per-IoThread outbox until the Worker's batch ends. These tests pin the
// ordering that hand-off must keep.
class ServerFanoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.ioThreads = 2;
    cfg.workers = 2;
    // Own registry: raw clients close without waiting for the server to see
    // it, and a gauge left behind must not leak into other tests' counts.
    cfg.metrics = &registry;
    server = std::make_unique<Server>(cfg);
    ASSERT_TRUE(server->Start().ok());
  }

  void TearDown() override { server->Stop(); }

  obs::MetricsRegistry registry;
  std::unique_ptr<Server> server;
};

using test_support::RawFramedClient;

PublishFrame Publication(const std::string& topic, std::uint64_t counter) {
  PublishFrame pub;
  pub.topic = topic;
  pub.payload = Bytes{static_cast<std::uint8_t>(counter)};
  pub.pubId = PublicationId{Fnv1a64("raw-pub"), counter};
  pub.wantAck = true;
  return pub;
}

std::vector<Frame> Publications(const std::string& topic, std::uint64_t first,
                                 std::uint64_t count) {
  std::vector<Frame> frames;
  for (std::uint64_t c = first; c < first + count; ++c) {
    frames.emplace_back(Publication(topic, c));
  }
  return frames;
}

// Per-subscriber in-order delivery across the fan-out path, with enough
// subscribers to span both IoThreads and enough messages to interleave
// Worker batches.
TEST_F(ServerFanoutTest, BatchedFanOutPreservesPerSubscriberOrder) {
  constexpr int kSubs = 8;
  constexpr int kMessages = 100;
  ClientLoopThread lt;
  std::vector<std::unique_ptr<client::Client>> subs;
  std::array<std::atomic<int>, kSubs> received{};
  std::array<std::atomic<bool>, kSubs> ordered{};
  for (auto& o : ordered) o.store(true);
  std::atomic<int> subscribed{0};

  lt.RunOnLoop([&] {
    for (int i = 0; i < kSubs; ++i) {
      auto c = std::make_unique<client::Client>(
          lt.loop(), MakeClientConfig(server->Port(), "fo-sub-" + std::to_string(i)));
      c->Subscribe(
          "ladder",
          [&, i, next = std::uint64_t(1)](const Message& m) mutable {
            if (m.seq != next++) ordered[i].store(false);
            received[i].fetch_add(1);
          },
          [&] { subscribed.fetch_add(1); });
      c->Start();
      subs.push_back(std::move(c));
    }
  });
  ClientLoopThread::WaitFor([&] { return subscribed.load() == kSubs; });

  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "fo-pub"));
  lt.RunOnLoop([&] { pub->Start(); });
  ClientLoopThread::WaitFor([&] { return pub->IsConnected(); });

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) {
      pub->Publish("ladder", Bytes{static_cast<std::uint8_t>(i)});
    }
  });
  ClientLoopThread::WaitFor([&] {
    for (int i = 0; i < kSubs; ++i) {
      if (received[i].load() != kMessages) return false;
    }
    return true;
  });
  for (int i = 0; i < kSubs; ++i) {
    EXPECT_TRUE(ordered[i].load()) << "subscriber " << i << " saw out-of-order seq";
  }
  EXPECT_GE(server->Stats().delivered,
            static_cast<std::uint64_t>(kSubs) * kMessages);

  lt.RunOnLoop([&] {
    for (auto& c : subs) c->Stop();
    pub->Stop();
  });
}

// A publisher subscribed to its own topic gets, per publish, the ack before
// the delivery and both before the next publish's ack: acks and fan-out of
// one batch share the session's outbox and leave in production order.
TEST_F(ServerFanoutTest, AckPrecedesDeliveryForEveryPublishOfOneWrite) {
  constexpr std::uint64_t kPublishes = 300;
  RawFramedClient raw(server->Port());
  ASSERT_TRUE(raw.connected());
  std::vector<Frame> write{Frame(ConnectFrame{"raw-pub"}),
                           Frame(SubscribeFrame{"echo", false, {}})};
  for (Frame& f : Publications("echo", 1, kPublishes)) write.push_back(std::move(f));
  ASSERT_TRUE(raw.SendAll(write));

  ASSERT_TRUE(raw.Expect<ConnAckFrame>());
  const auto subAck = raw.Expect<SubAckFrame>();
  ASSERT_TRUE(subAck && subAck->topic == "echo");
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    const auto ack = raw.Expect<PubAckFrame>();
    ASSERT_TRUE(ack) << "frame " << i << " is not the PubAck";
    ASSERT_EQ(ack->pubId.counter, i);
    ASSERT_TRUE(ack->ok());
    const auto deliver = raw.Expect<DeliverFrame>();
    ASSERT_TRUE(deliver) << "frame after PubAck " << i << " is not its Deliver";
    ASSERT_EQ(deliver->msg.pubId.counter, i);
    ASSERT_EQ(deliver->msg.seq, i);
  }
}

// Subscribers elsewhere receive the same one-write burst gap-free and in
// order. Six subscriber connections land on the publisher's IoThread and on
// the other one (all six share the publisher's with probability 2^-6).
TEST_F(ServerFanoutTest, WholeBurstReachesEverySubscriberInOrder) {
  constexpr std::uint64_t kPublishes = 300;
  constexpr int kSubs = 6;
  std::vector<std::unique_ptr<RawFramedClient>> subs;
  for (int i = 0; i < kSubs; ++i) {
    auto sub = std::make_unique<RawFramedClient>(server->Port());
    ASSERT_TRUE(sub->connected());
    ASSERT_TRUE(sub->SendAll({Frame(SubscribeFrame{"burst", false, {}})}));
    ASSERT_TRUE(sub->Expect<SubAckFrame>());
    subs.push_back(std::move(sub));
  }

  RawFramedClient pub(server->Port());
  ASSERT_TRUE(pub.connected());
  ASSERT_TRUE(pub.SendAll(Publications("burst", 1, kPublishes)));
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    const auto ack = pub.Expect<PubAckFrame>();
    ASSERT_TRUE(ack && ack->ok());
    ASSERT_EQ(ack->pubId.counter, i);
  }
  for (int s = 0; s < kSubs; ++s) {
    for (std::uint64_t i = 1; i <= kPublishes; ++i) {
      const auto deliver = subs[s]->Expect<DeliverFrame>();
      ASSERT_TRUE(deliver) << "subscriber " << s << " stopped at " << i;
      ASSERT_EQ(deliver->msg.seq, i) << "subscriber " << s;
      ASSERT_EQ(deliver->msg.pubId.counter, i) << "subscriber " << s;
    }
  }
}

// A resume subscribe written together with live publishes to the same topic
// gets its whole backfill before the first live delivery.
TEST_F(ServerFanoutTest, ResumeBackfillPrecedesLiveDeliveriesOfSameWrite) {
  constexpr std::uint64_t kHistory = 20;
  constexpr std::uint64_t kResumeAfter = 5;
  constexpr std::uint64_t kLive = 50;
  {
    RawFramedClient history(server->Port());
    ASSERT_TRUE(history.connected());
    ASSERT_TRUE(history.SendAll(Publications("resume", 1, kHistory)));
    for (std::uint64_t i = 1; i <= kHistory; ++i) {
      ASSERT_TRUE(history.Expect<PubAckFrame>());
    }
  }

  RawFramedClient raw(server->Port());
  ASSERT_TRUE(raw.connected());
  std::vector<Frame> write{
      Frame(SubscribeFrame{"resume", true, StreamPos{1, kResumeAfter}})};
  for (Frame& f : Publications("resume", kHistory + 1, kLive)) {
    write.push_back(std::move(f));
  }
  ASSERT_TRUE(raw.SendAll(write));

  ASSERT_TRUE(raw.Expect<SubAckFrame>());
  // Backfill: seq 6..20, nothing interleaved.
  for (std::uint64_t seq = kResumeAfter + 1; seq <= kHistory; ++seq) {
    const auto deliver = raw.Expect<DeliverFrame>();
    ASSERT_TRUE(deliver) << "backfill interrupted before seq " << seq;
    ASSERT_EQ(deliver->msg.seq, seq);
  }
  // Live: each publish's ack, then its delivery.
  for (std::uint64_t seq = kHistory + 1; seq <= kHistory + kLive; ++seq) {
    const auto ack = raw.Expect<PubAckFrame>();
    ASSERT_TRUE(ack && ack->ok());
    ASSERT_EQ(ack->pubId.counter, seq);
    const auto deliver = raw.Expect<DeliverFrame>();
    ASSERT_TRUE(deliver);
    ASSERT_EQ(deliver->msg.seq, seq);
  }
}

// Stage tracing rides with the first delivery: one publish fanned out to
// three subscribers (on both IoThreads with probability 3/4) adds exactly one
// end-to-end sample and one sample per stage, and a publish to a topic
// nobody subscribes to adds none.
TEST_F(ServerFanoutTest, OnePublishRecordsOneStageSampleWhateverItsFanOut) {
  const auto samples = [&](std::string_view name, const std::string& labels) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const obs::SampleSnapshot* sample = snap.Find(name, labels);
    return sample == nullptr ? std::uint64_t{0} : sample->count;
  };
  const auto endToEnd = [&] {
    return samples("md_trace_end_to_end_ns", "domain=\"wall\"");
  };

  RawFramedClient pub(server->Port());
  ASSERT_TRUE(pub.connected());
  ASSERT_TRUE(pub.SendAll({Frame(Publication("traced/nobody", 1))}));
  ASSERT_TRUE(pub.Expect<PubAckFrame>());
  EXPECT_EQ(endToEnd(), 0u);

  constexpr int kSubs = 3;
  std::vector<std::unique_ptr<RawFramedClient>> subs;
  for (int i = 0; i < kSubs; ++i) {
    auto sub = std::make_unique<RawFramedClient>(server->Port());
    ASSERT_TRUE(sub->connected());
    ASSERT_TRUE(sub->SendAll({Frame(SubscribeFrame{"traced", false, {}})}));
    ASSERT_TRUE(sub->Expect<SubAckFrame>());
    subs.push_back(std::move(sub));
  }
  ASSERT_TRUE(pub.SendAll({Frame(Publication("traced", 2))}));
  ASSERT_TRUE(pub.Expect<PubAckFrame>());
  for (auto& sub : subs) ASSERT_TRUE(sub->Expect<DeliverFrame>());

  ClientLoopThread::WaitFor([&] { return endToEnd() >= 1; });
  EXPECT_EQ(endToEnd(), 1u);
  for (const obs::Stage stage :
       {obs::Stage::kSequenced, obs::Stage::kCached, obs::Stage::kFannedOut,
        obs::Stage::kSocketWritten}) {
    EXPECT_EQ(samples("md_trace_stage_ns",
                      std::string("domain=\"wall\",stage=\"") +
                          obs::StageName(stage) + "\""),
              1u)
        << obs::StageName(stage);
  }
}

TEST(ServerStatsTest, CountsConnectionsAndTraffic) {
  ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  ClientLoopThread lt;
  auto c = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "stat"));
  lt.RunOnLoop([&] { c->Start(); });
  ClientLoopThread::WaitFor([&] { return c->IsConnected(); });
  ClientLoopThread::WaitFor(
      [&] { return server.Stats().connectionsActive == 1; });
  EXPECT_GE(server.Stats().connectionsAccepted, 1u);

  lt.RunOnLoop([&] { c->Stop(); });
  ClientLoopThread::WaitFor(
      [&] { return server.Stats().connectionsActive == 0; });
  server.Stop();
}

}  // namespace
}  // namespace md::core
