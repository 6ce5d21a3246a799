// End-to-end tests: real Server (epoll IoThreads + Workers) and real Client
// library over loopback TCP, raw framing and WebSocket.
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "client/client.hpp"
#include "common/histogram.hpp"
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

// Publishers of one topic on both Workers: the topic's group runs on one
// Worker, so a subscriber sees every acked publication at strictly rising
// positions, and a resume from (0,0) finds every one of them in the cache.
// Eight publisher connections land on both Workers (all eight on one with
// probability 2^-7); each round takes a fresh topic, so its group's owner is
// claimed anew.
TEST_F(ServerFanoutTest, PublishersOnBothWorkersKeepOneTopicInOrder) {
  constexpr int kRounds = 10;
  constexpr int kPublishers = 8;
  constexpr std::uint64_t kEach = 100;
  constexpr std::uint64_t kTotal = kPublishers * kEach;
  for (int round = 0; round < kRounds; ++round) {
    const std::string topic = "order/" + std::to_string(round);
    RawFramedClient sub(server->Port());
    ASSERT_TRUE(sub.connected());
    ASSERT_TRUE(sub.SendAll({Frame(SubscribeFrame{topic, false, {}})}));
    ASSERT_TRUE(sub.Expect<SubAckFrame>());

    std::vector<std::unique_ptr<RawFramedClient>> pubs;
    for (int p = 0; p < kPublishers; ++p) {
      pubs.push_back(std::make_unique<RawFramedClient>(server->Port()));
      ASSERT_TRUE(pubs.back()->connected());
    }
    std::vector<std::thread> writers;
    for (int p = 0; p < kPublishers; ++p) {
      writers.emplace_back([&, p] {
        std::vector<Frame> frames;
        for (std::uint64_t i = 1; i <= kEach; ++i) {
          PublishFrame pub = Publication(topic, i);
          pub.pubId = PublicationId{Fnv1a64("order-pub-" + std::to_string(p)), i};
          frames.emplace_back(std::move(pub));
        }
        pubs[static_cast<std::size_t>(p)]->SendAll(frames);
      });
    }
    for (std::thread& t : writers) t.join();

    std::set<PublicationId> acked;
    for (auto& pub : pubs) {
      for (std::uint64_t i = 1; i <= kEach; ++i) {
        const auto ack = pub->Expect<PubAckFrame>();
        ASSERT_TRUE(ack && ack->ok()) << "round " << round;
        acked.insert(ack->pubId);
      }
    }
    ASSERT_EQ(acked.size(), kTotal);

    StreamPos last{};
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      const auto deliver = sub.Expect<DeliverFrame>();
      ASSERT_TRUE(deliver) << "round " << round << ": delivery " << i << " missing";
      ASSERT_TRUE(last < PosOf(deliver->msg))
          << "round " << round << ": delivery " << i << " out of order";
      last = PosOf(deliver->msg);
    }

    RawFramedClient reader(server->Port());
    ASSERT_TRUE(reader.connected());
    ASSERT_TRUE(reader.SendAll({Frame(SubscribeFrame{topic, true, StreamPos{0, 0}})}));
    ASSERT_TRUE(reader.Expect<SubAckFrame>());
    std::set<PublicationId> cached;
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      const auto deliver = reader.Expect<DeliverFrame>();
      ASSERT_TRUE(deliver) << "round " << round << ": the cache holds " << i - 1
                           << " of " << kTotal << " acked publications";
      cached.insert(deliver->msg.pubId);
    }
    EXPECT_EQ(cached, acked) << "round " << round;
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

// ---------------------------------------------------------------------------
// Fan-out to many library clients on loopback, with the server's own
// counters read from its registry.

struct LoopbackFanout {
  int subscribers = 0;
  int topics = 0;
  int bursts = 0;  // one publish per topic each
  std::chrono::milliseconds pause{0};  // between bursts
  bool runtimeVerify = false;
};

struct LoopbackFanoutResult {
  int subscribed = 0;  // SUBACKs seen
  std::uint64_t expected = 0;
  std::uint64_t received = 0;
  double serverDelivered = 0;  // md_core_delivered_total
  double postsPerPublish = 0;  // md_transport_tasks_posted_total delta
  double syscallsPerDelivery = 0;  // md_transport_syscalls_total delta
  double monitorEvents = 0;
  double monitorViolations = 0;
  double p99Ms = 0;  // publish timestamp -> client receipt
};

/// Subscribers spread over two client loops, subscriber c on topic
/// c % topics; then a publisher sends `bursts` bursts of one publish per
/// topic. Counter deltas cover the publishes only.
LoopbackFanoutResult RunLoopbackFanout(const LoopbackFanout& shape) {
  // Both ends of every connection live in this process.
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  const rlim_t needed = static_cast<rlim_t>(2 * shape.subscribers + 256);
  if (limit.rlim_cur < needed && limit.rlim_max >= needed) {
    limit.rlim_cur = needed;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }

  obs::MetricsRegistry registry;
  ServerConfig cfg;
  cfg.ioThreads = 2;
  cfg.workers = 2;
  cfg.serverId = "fanout";
  cfg.metrics = &registry;
  cfg.runtimeVerify = shape.runtimeVerify;
  Server server(cfg);
  EXPECT_TRUE(server.Start().ok());

  const auto topicOf = [&](int i) { return "fanout/topic-" + std::to_string(i % shape.topics); };
  LoopbackFanoutResult r;
  std::atomic<std::uint64_t> received{0};
  std::atomic<int> subscribed{0};
  Histogram latency;
  std::mutex latencyMutex;
  std::array<ClientLoopThread, 2> loops;
  std::vector<std::unique_ptr<client::Client>> subs;
  for (int c = 0; c < shape.subscribers; ++c) {
    ClientLoopThread& lt = loops[static_cast<std::size_t>(c % 2)];
    client::ClientConfig subCfg =
        MakeClientConfig(server.Port(), "fanout-sub-" + std::to_string(c));
    subCfg.autoReconnect = false;
    subs.push_back(std::make_unique<client::Client>(lt.loop(), subCfg));
    lt.loop().Post([&, sub = subs.back().get(), topic = topicOf(c)] {
      sub->Subscribe(
          topic,
          [&](const Message& m) {
            const Duration lat = RealClock::Instance().Now() - m.publishTs;
            {
              std::lock_guard lock(latencyMutex);
              latency.Record(lat);
            }
            received.fetch_add(1);
          },
          [&] { subscribed.fetch_add(1); });
      sub->Start();
    });
  }
  ClientLoopThread::WaitFor([&] { return subscribed.load() == shape.subscribers; });
  r.subscribed = subscribed.load();

  ClientLoopThread pubLoop;
  client::Client pub(pubLoop.loop(), MakeClientConfig(server.Port(), "fanout-pub"));
  pubLoop.RunOnLoop([&] { pub.Start(); });
  ClientLoopThread::WaitFor([&] { return pub.IsConnected(); });

  const obs::MetricsSnapshot before = registry.Snapshot();
  const auto publishes = static_cast<double>(shape.bursts * shape.topics);
  r.expected = static_cast<std::uint64_t>(r.subscribed) *
               static_cast<std::uint64_t>(shape.bursts);
  for (int b = 0; b < shape.bursts; ++b) {
    pubLoop.loop().Post([&] {
      for (int t = 0; t < shape.topics; ++t) pub.Publish(topicOf(t), Bytes(64, 0x42));
    });
    std::this_thread::sleep_for(shape.pause);
  }
  ClientLoopThread::WaitFor([&] { return received.load() >= r.expected; });
  // Anything beyond the expected count would be a duplicate delivery.
  std::this_thread::sleep_for(50ms);
  r.received = received.load();

  const obs::MetricsSnapshot after = registry.Snapshot();
  r.serverDelivered = after.Value("md_core_delivered_total", "server=\"fanout\"");
  r.postsPerPublish = (after.Total("md_transport_tasks_posted_total") -
                       before.Total("md_transport_tasks_posted_total")) /
                      publishes;
  r.syscallsPerDelivery = (after.Total("md_transport_syscalls_total") -
                           before.Total("md_transport_syscalls_total")) /
                          static_cast<double>(std::max<std::uint64_t>(r.received, 1));
  r.monitorEvents = after.Value("md_monitor_events_total", "server=\"fanout\"");
  r.monitorViolations = after.Total("md_invariant_violations_total");
  {
    std::lock_guard lock(latencyMutex);
    r.p99Ms = static_cast<double>(latency.Percentile(0.99)) / 1e6;
  }

  for (std::size_t i = 0; i < loops.size(); ++i) {
    loops[i].RunOnLoop([&] {
      for (std::size_t c = i; c < subs.size(); c += loops.size()) subs[c]->Stop();
    });
  }
  pubLoop.RunOnLoop([&] { pub.Stop(); });
  server.Stop();
  return r;
}

// The fan-out path with the runtime monitor on: every notification arrives
// once, egress writes batch several deliveries per syscall, the monitor
// observes every delivery and flags nothing, and a Worker batch posts at most
// one task per IoThread (so at most two per publish, however many acks and
// deliveries it holds).
TEST(ServerMonitoredFanoutTest, EveryDeliveryArrivesAndIsObservedSilently) {
  const LoopbackFanoutResult r = RunLoopbackFanout(
      {.subscribers = 64, .topics = 4, .bursts = 10, .runtimeVerify = true});
  EXPECT_EQ(r.subscribed, 64);
  EXPECT_EQ(r.received, r.expected);
  EXPECT_GE(r.serverDelivered, static_cast<double>(r.received));
  EXPECT_LT(r.syscallsPerDelivery, 1.0);
  EXPECT_GE(r.monitorEvents, static_cast<double>(r.received));
  EXPECT_EQ(r.monitorViolations, 0);
  EXPECT_LE(r.postsPerPublish, 2.0);
}

// C10K's shape at a test's scale: 300 live loopback subscribers over ten
// topics each get their SUBACK and every notification of five paced bursts,
// the server's delivered counter covers every receipt, and p99 latency from
// publish to receipt stays under 2 s.
TEST(ServerC10kTest, ThreeHundredLoopbackSubscribersGetEveryDelivery) {
  const LoopbackFanoutResult r = RunLoopbackFanout(
      {.subscribers = 300, .topics = 10, .bursts = 5, .pause = 100ms});
  EXPECT_EQ(r.subscribed, 300);
  EXPECT_EQ(r.received, r.expected);
  EXPECT_GE(r.serverDelivered, static_cast<double>(r.received));
  EXPECT_LT(r.p99Ms, 2000.0);
}

// ---------------------------------------------------------------------------
// A Server on a WAL directory (DESIGN.md §13).

/// A fresh directory under the system temp dir, removed with its contents.
class TempDir {
 public:
  TempDir() {
    std::string path =
        (std::filesystem::temp_directory_path() / "md_server_walXXXXXX").string();
    if (::mkdtemp(path.data()) != nullptr) path_ = path;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ServerWalTest : public ::testing::TestWithParam<wal::FsyncPolicy> {
 protected:
  /// A started Server with 2 Workers on `dir`, reporting into `registry`.
  std::unique_ptr<Server> StartServer(obs::MetricsRegistry& registry) {
    ServerConfig cfg;
    cfg.ioThreads = 2;
    cfg.workers = 2;
    cfg.metrics = &registry;
    cfg.wal.dir = dir.path();
    cfg.wal.fsync = GetParam();
    auto server = std::make_unique<Server>(cfg);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  TempDir dir;
};

// Every acked publication of a stopped server is back after a restart on the
// same directory: the resume backfill replays each topic's stream in order,
// and sequencing continues behind the recovered positions.
TEST_P(ServerWalTest, RestartRecoversEveryAckedPublication) {
  constexpr std::uint64_t kPublications = 300;
  constexpr std::uint64_t kTopics = 200;
  ASSERT_FALSE(dir.path().empty());
  const auto topicOf = [](std::uint64_t counter) {
    return "wal/" + std::to_string(counter % kTopics);
  };

  obs::MetricsRegistry firstRegistry;
  auto first = StartServer(firstRegistry);
  {
    RawFramedClient pub(first->Port());
    ASSERT_TRUE(pub.connected());
    std::vector<Frame> write;
    for (std::uint64_t c = 1; c <= kPublications; ++c) {
      write.emplace_back(Publication(topicOf(c), c));
    }
    ASSERT_TRUE(pub.SendAll(write));
    for (std::uint64_t i = 1; i <= kPublications; ++i) {
      const auto ack = pub.Expect<PubAckFrame>();
      ASSERT_TRUE(ack && ack->ok()) << "publication " << i;
    }
  }
  first->Stop();
  first.reset();

  obs::MetricsRegistry secondRegistry;
  auto second = StartServer(secondRegistry);
  EXPECT_EQ(second->walRecovery().records, kPublications);

  // Topics 1 and 57 carry two publications each (c and c + 200), 150 one.
  const std::vector<std::pair<std::string, std::vector<std::uint64_t>>> topics{
      {"wal/1", {1, 201}}, {"wal/57", {57, 257}}, {"wal/150", {150}}};
  RawFramedClient sub(second->Port());
  ASSERT_TRUE(sub.connected());
  std::vector<Frame> resume;
  for (const auto& [topic, counters] : topics) {
    resume.emplace_back(SubscribeFrame{topic, true, StreamPos{1, 0}});
  }
  ASSERT_TRUE(sub.SendAll(resume));
  for (const auto& [topic, counters] : topics) {
    const auto subAck = sub.Expect<SubAckFrame>();
    ASSERT_TRUE(subAck && subAck->topic == topic);
    for (std::size_t i = 0; i < counters.size(); ++i) {
      const auto deliver = sub.Expect<DeliverFrame>();
      ASSERT_TRUE(deliver) << topic << " replay stopped at " << i;
      EXPECT_EQ(deliver->msg.topic, topic);
      EXPECT_EQ(deliver->msg.seq, i + 1) << topic;
      EXPECT_EQ(deliver->msg.pubId.counter, counters[i]) << topic;
      EXPECT_EQ(deliver->msg.payload,
                Bytes{static_cast<std::uint8_t>(counters[i])});
    }
  }

  // The next publish continues the stream: its ack, then its delivery at
  // the seq after the recovered one, with no replay left in between.
  ASSERT_TRUE(sub.SendAll({Frame(Publication("wal/1", kPublications + 1))}));
  const auto ack = sub.Expect<PubAckFrame>();
  ASSERT_TRUE(ack && ack->ok());
  EXPECT_EQ(ack->pubId.counter, kPublications + 1);
  const auto live = sub.Expect<DeliverFrame>();
  ASSERT_TRUE(live);
  EXPECT_EQ(live->msg.topic, "wal/1");
  EXPECT_EQ(live->msg.seq, 3U);
  second->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    FsyncPolicies, ServerWalTest,
    ::testing::Values(wal::FsyncPolicy::kAlways, wal::FsyncPolicy::kGroupCommit,
                      wal::FsyncPolicy::kOs),
    [](const ::testing::TestParamInfo<wal::FsyncPolicy>& info) {
      return std::string(wal::FsyncPolicyName(info.param));
    });

// Start() that fails to bind must leave nothing running: the Server is then
// destroyed without Stop() doing any work, and a thread still running at
// that point would end the process.
TEST(ServerWalTest, FailedStartWithGroupCommitShutsDownCleanly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        int code = 0;
        {
          TempDir dir;
          // A loopback listener without SO_REUSEPORT: the Server's own
          // listeners cannot share its port.
          const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
          sockaddr_in addr{};
          addr.sin_family = AF_INET;
          addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
          socklen_t len = sizeof(addr);
          if (dir.path().empty() || blocker < 0 ||
              ::bind(blocker, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
              ::listen(blocker, 1) != 0 ||
              ::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr),
                            &len) != 0) {
            std::exit(2);
          }
          ServerConfig cfg;
          cfg.port = ntohs(addr.sin_port);
          cfg.wal.dir = dir.path();
          cfg.wal.fsync = wal::FsyncPolicy::kGroupCommit;
          {
            Server server(cfg);
            if (server.Start().ok()) code = 3;
          }
          ::close(blocker);
        }  // the directory goes before exit(), which runs no destructors
        std::exit(code);
      },
      ::testing::ExitedWithCode(0), "");
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
