// Client-library unit tests against a scripted fake server over the
// deterministic in-process transport: server selection, blacklist, backoff,
// resume positions, duplicate filtering, republish, keepalive, unsubscribe.
#include "client/client.hpp"

#include <gtest/gtest.h>

#include "transport/inproc.hpp"

namespace md::client {
namespace {

/// Minimal scripted server: accepts raw framed connections, records frames,
/// and lets tests send arbitrary frames back.
class FakeServer {
 public:
  FakeServer(InprocLoop& loop, std::uint16_t port, std::string serverId)
      : loop_(loop), serverId_(std::move(serverId)) {
    auto listener = loop.Listen(port);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    listener_->SetAcceptHandler([this](ConnectionPtr conn) {
      ++accepted_;
      conn_ = conn;
      auto inbox = std::make_shared<ByteQueue>();
      // Capture the connection weakly: the FakeServer owns it via conn_;
      // a strong self-capture would leak it through a handler cycle.
      conn->SetDataHandler([this, inbox](BytesView data) {
        inbox->Append(data);
        while (true) {
          auto r = ExtractFrame(*inbox);
          ASSERT_TRUE(r.status.ok());
          if (!r.frame) return;
          OnFrame(*r.frame);
        }
      });
    });
  }

  void OnFrame(const Frame& frame) {
    received_.push_back(frame);
    if (!autoRespond_) return;
    if (std::get_if<ConnectFrame>(&frame) != nullptr) {
      Send(ConnAckFrame{serverId_});
    } else if (const auto* sub = std::get_if<SubscribeFrame>(&frame)) {
      Send(SubAckFrame{sub->topic, true});
    } else if (const auto* pub = std::get_if<PublishFrame>(&frame)) {
      if (pub->wantAck && ackPublishes_) Send(PubAckFrame{pub->pubId, PubAckCode::kOk});
    } else if (const auto* ping = std::get_if<PingFrame>(&frame)) {
      if (answerPings_) Send(PongFrame{ping->nonce});
    }
  }

  void Send(const Frame& frame) {
    if (!conn_) return;
    auto wire = AcquireWireBuffer();
    EncodeFramed(frame, *wire);
    (void)conn_->Send(std::move(wire));
  }

  /// Delivers with a unique publication id by default (as the real service
  /// does); pass an explicit id to exercise republication dedup.
  void Deliver(const std::string& topic, std::uint32_t epoch, std::uint64_t seq,
               std::optional<PublicationId> pubId = {}) {
    Message m;
    m.topic = topic;
    m.payload = {static_cast<std::uint8_t>(seq)};
    m.epoch = epoch;
    m.seq = seq;
    m.pubId = pubId.value_or(PublicationId{0xFEED, ++pubCounter_});
    Send(DeliverFrame{m});
  }

  void CloseConnection() {
    if (conn_) conn_->Close();
    conn_.reset();
  }

  template <typename T>
  [[nodiscard]] std::vector<T> FramesOf() const {
    std::vector<T> out;
    for (const auto& f : received_) {
      if (const auto* typed = std::get_if<T>(&f)) out.push_back(*typed);
    }
    return out;
  }

  [[nodiscard]] int accepted() const { return accepted_; }
  [[nodiscard]] bool connected() const { return conn_ && conn_->IsOpen(); }
  void SetAnswerPings(bool v) { answerPings_ = v; }
  void SetAckPublishes(bool v) { ackPublishes_ = v; }

 private:
  InprocLoop& loop_;
  std::string serverId_;
  ListenerPtr listener_;
  ConnectionPtr conn_;
  std::vector<Frame> received_;
  int accepted_ = 0;
  std::uint64_t pubCounter_ = 0;
  bool autoRespond_ = true;
  bool answerPings_ = true;
  bool ackPublishes_ = true;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientConfig BaseConfig(std::vector<std::uint16_t> ports) {
    ClientConfig cfg;
    for (const auto p : ports) cfg.servers.push_back({"srv", p, 1.0});
    cfg.clientId = "test-client";
    cfg.seed = 99;
    cfg.backoffBase = 50 * kMillisecond;
    cfg.backoffMax = 500 * kMillisecond;
    cfg.blacklistTtl = 5 * kSecond;
    cfg.ackTimeout = kSecond;
    return cfg;
  }

  sim::Scheduler sched;
  InprocLoop loop{sched};
};

TEST_F(ClientTest, ConnectsAndIdentifiesServer) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);
  EXPECT_TRUE(client.IsConnected());
  EXPECT_EQ(client.ConnectedServerId(), "fake-1");
  const auto connects = server.FramesOf<ConnectFrame>();
  ASSERT_EQ(connects.size(), 1u);
  EXPECT_EQ(connects[0].clientId, "test-client");
}

TEST_F(ClientTest, SubscribeSentOnEstablishAndResubscribedOnReconnect) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  client.Subscribe("topic-a", [](const Message&) {});
  client.Start();
  sched.RunFor(kSecond);
  ASSERT_EQ(server.FramesOf<SubscribeFrame>().size(), 1u);
  EXPECT_FALSE(server.FramesOf<SubscribeFrame>()[0].hasResumePos);

  // Deliver one message, then kill the connection: the re-subscription must
  // carry the resume position of the last received message (§5.2.3).
  server.Deliver("topic-a", 1, 7);
  sched.RunFor(100 * kMillisecond);
  server.CloseConnection();
  sched.RunFor(2 * kSecond);

  const auto subs = server.FramesOf<SubscribeFrame>();
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_TRUE(subs[1].hasResumePos);
  EXPECT_EQ(subs[1].resumeAfter, (StreamPos{1, 7}));
}

TEST_F(ClientTest, FailedServerIsBlacklistedAndOtherPicked) {
  // Only server on port 2000 exists; port 1000 refuses connections.
  FakeServer server(loop, 2000, "alive");
  auto cfg = BaseConfig({1000, 2000});
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(5 * kSecond);
  EXPECT_TRUE(client.IsConnected());
  EXPECT_EQ(client.ConnectedServerId(), "alive");
}

TEST_F(ClientTest, AllServersBlacklistedClearsAndRetries) {
  auto cfg = BaseConfig({1000, 2000});
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(2 * kSecond);  // both fail repeatedly
  EXPECT_FALSE(client.IsConnected());
  // A server appears on 1000: the cleared blacklist lets the client reach it.
  FakeServer server(loop, 1000, "late");
  sched.RunFor(10 * kSecond);
  EXPECT_TRUE(client.IsConnected());
}

TEST_F(ClientTest, WeightedSelectionPrefersHeavyServer) {
  // Run the selection many times by reconnecting against closed ports and
  // count attempts statistically instead: simpler — construct many clients.
  int heavy = 0;
  for (int i = 0; i < 200; ++i) {
    ClientConfig cfg;
    cfg.servers = {{"srv", 1000, 1.0}, {"srv", 2000, 9.0}};
    cfg.clientId = "w" + std::to_string(i);
    cfg.seed = static_cast<std::uint64_t>(i) + 1;
    cfg.autoReconnect = false;
    Client client(loop, cfg);
    client.Start();
    sched.RunFor(10 * kMillisecond);
    if (client.CurrentServerIndex() == std::optional<std::size_t>(1)) ++heavy;
    client.Stop();
  }
  EXPECT_GT(heavy, 150);  // ~90% expected
  EXPECT_LT(heavy, 200);
}

TEST_F(ClientTest, DuplicateSeqFiltered) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  int delivered = 0;
  client.Subscribe("t", [&](const Message&) { ++delivered; });
  client.Start();
  sched.RunFor(kSecond);

  server.Deliver("t", 1, 1);
  server.Deliver("t", 1, 2);
  server.Deliver("t", 1, 2);  // duplicate position
  server.Deliver("t", 1, 1);  // stale
  server.Deliver("t", 1, 3);
  sched.RunFor(kSecond);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(client.stats().duplicatesFiltered, 2u);
}

TEST_F(ClientTest, RepublishedPubIdFilteredEvenWithNewSeq) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  int delivered = 0;
  client.Subscribe("t", [&](const Message&) { ++delivered; });
  client.Start();
  sched.RunFor(kSecond);

  // An at-least-once republication is re-sequenced: same pubId, higher seq.
  server.Deliver("t", 1, 1, PublicationId{42, 7});
  server.Deliver("t", 1, 2, PublicationId{42, 7});
  sched.RunFor(kSecond);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(client.stats().duplicatesFiltered, 1u);
}

TEST_F(ClientTest, NewerEpochAcceptedDespiteLowerSeq) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  std::vector<StreamPos> got;
  client.Subscribe("t", [&](const Message& m) { got.push_back(PosOf(m)); });
  client.Start();
  sched.RunFor(kSecond);

  server.Deliver("t", 1, 10);
  server.Deliver("t", 2, 1);  // coordinator change: epoch up, seq resets
  sched.RunFor(kSecond);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], (StreamPos{2, 1}));
}

TEST_F(ClientTest, UnackedPublishIsRepublished) {
  FakeServer server(loop, 1000, "fake-1");
  server.SetAckPublishes(false);
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);

  bool acked = false;
  client.Publish("t", Bytes{1}, [&](Status s) { acked = s.ok(); });
  sched.RunFor(3 * kSecond);  // > 2 ack timeouts
  const auto pubs = server.FramesOf<PublishFrame>();
  ASSERT_GE(pubs.size(), 3u);
  // Same publication id on every retry (dedup depends on it).
  EXPECT_EQ(pubs[0].pubId, pubs[1].pubId);
  EXPECT_EQ(pubs[0].pubId, pubs[2].pubId);
  EXPECT_FALSE(acked);

  server.SetAckPublishes(true);
  sched.RunFor(2 * kSecond);
  EXPECT_TRUE(acked);
}

TEST_F(ClientTest, FailedAckTriggersImmediateRepublish) {
  FakeServer server(loop, 1000, "fake-1");
  server.SetAckPublishes(false);
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);

  client.Publish("t", Bytes{1});
  sched.RunFor(100 * kMillisecond);
  const auto first = server.FramesOf<PublishFrame>();
  ASSERT_EQ(first.size(), 1u);
  server.Send(PubAckFrame{first[0].pubId, PubAckCode::kFailed});  // coordinator race lost
  sched.RunFor(500 * kMillisecond);
  EXPECT_GE(server.FramesOf<PublishFrame>().size(), 2u);
  EXPECT_GE(client.stats().republishes, 1u);
}

TEST_F(ClientTest, PendingPublishesResentAfterReconnect) {
  FakeServer server(loop, 1000, "fake-1");
  server.SetAckPublishes(false);
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);

  client.Publish("t", Bytes{1});
  sched.RunFor(100 * kMillisecond);
  server.CloseConnection();
  sched.RunFor(2 * kSecond);  // reconnects
  // The unacked publication was retransmitted on the new connection.
  EXPECT_GE(server.FramesOf<PublishFrame>().size(), 2u);
}

TEST_F(ClientTest, KeepaliveDetectsDeadConnection) {
  FakeServer server(loop, 1000, "fake-1");
  server.SetAnswerPings(false);  // simulates a hung/black-holed server
  auto cfg = BaseConfig({1000});
  cfg.pingInterval = 500 * kMillisecond;
  cfg.pongTimeout = 500 * kMillisecond;
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(300 * kMillisecond);  // before the first pong deadline
  ASSERT_TRUE(client.IsConnected());
  const auto reconnectsBefore = client.stats().reconnects;

  sched.RunFor(5 * kSecond);
  // Ping timeouts forced at least one reconnection.
  EXPECT_GT(client.stats().reconnects, reconnectsBefore);
  EXPECT_GE(server.FramesOf<PingFrame>().size(), 1u);
}

TEST_F(ClientTest, KeepaliveQuietWhenServerResponds) {
  FakeServer server(loop, 1000, "fake-1");
  auto cfg = BaseConfig({1000});
  cfg.pingInterval = 200 * kMillisecond;
  cfg.pongTimeout = 200 * kMillisecond;
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(kSecond);
  const auto reconnectsBefore = client.stats().reconnects;
  sched.RunFor(5 * kSecond);
  EXPECT_EQ(client.stats().reconnects, reconnectsBefore);
  EXPECT_GE(server.FramesOf<PingFrame>().size(), 10u);
}

TEST_F(ClientTest, UnsubscribeSendsFrameAndStopsDelivery) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  int delivered = 0;
  client.Subscribe("t", [&](const Message&) { ++delivered; });
  client.Start();
  sched.RunFor(kSecond);

  server.Deliver("t", 1, 1);
  sched.RunFor(100 * kMillisecond);
  EXPECT_EQ(delivered, 1);

  client.Unsubscribe("t");
  sched.RunFor(100 * kMillisecond);
  EXPECT_EQ(server.FramesOf<UnsubscribeFrame>().size(), 1u);

  // Deliveries for the dropped topic are ignored client-side too.
  server.Deliver("t", 1, 2);
  sched.RunFor(100 * kMillisecond);
  EXPECT_EQ(delivered, 1);
}

TEST_F(ClientTest, ReconnectPolicyRandomWaitStaysWithinBound) {
  auto cfg = BaseConfig({1000});  // no server: every attempt fails
  cfg.reconnectPolicy = ReconnectPolicy::kRandomWait;
  cfg.randomWaitMax = 300 * kMillisecond;
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(10 * kSecond);
  // Reconnect attempts happen at most every randomWaitMax (plus connect
  // round trip): in 10s there must be at least ~25 attempts.
  EXPECT_GE(client.stats().reconnects, 25u);
}

TEST_F(ClientTest, ExponentialBackoffSlowsRetries) {
  auto cfg = BaseConfig({1000});  // no server
  cfg.reconnectPolicy = ReconnectPolicy::kExponentialBackoff;
  cfg.backoffBase = 100 * kMillisecond;
  cfg.backoffMax = 2 * kSecond;
  Client client(loop, cfg);
  client.Start();
  sched.RunFor(10 * kSecond);
  const auto early = client.stats().reconnects;
  sched.RunFor(10 * kSecond);
  const auto late = client.stats().reconnects - early;
  // Once backed off to the 2s ceiling (full jitter => ~1s mean), the steady
  // rate is bounded; and strictly fewer attempts than random-wait's ~33/10s.
  EXPECT_LE(late, 25u);
  EXPECT_GE(late, 4u);
}

TEST_F(ClientTest, StopFailsPendingPublishes) {
  FakeServer server(loop, 1000, "fake-1");
  server.SetAckPublishes(false);
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);
  Status ackStatus = OkStatus();
  client.Publish("t", Bytes{1}, [&](Status s) { ackStatus = s; });
  sched.RunFor(100 * kMillisecond);
  client.Stop();
  EXPECT_EQ(ackStatus.code(), ErrorCode::kClosed);
}

TEST_F(ClientTest, RestartOfSameServerDoesNotRedeliverReceivedMessages) {
  // Crash + restart of the *same* server: the restarted instance reconstructs
  // its cache and replays from the start of the stream (a fresh FakeServer
  // ignores the resume position entirely — the worst case). The client must
  // filter everything at or below its resume position and deliver only the
  // genuinely new tail.
  auto server = std::make_unique<FakeServer>(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  std::vector<std::uint64_t> seqs;
  client.Subscribe("t", [&](const Message& m) { seqs.push_back(m.seq); });
  client.Start();
  sched.RunFor(kSecond);

  server->Deliver("t", 1, 1, PublicationId{0xFEED, 1});
  server->Deliver("t", 1, 2, PublicationId{0xFEED, 2});
  server->Deliver("t", 1, 3, PublicationId{0xFEED, 3});
  sched.RunFor(100 * kMillisecond);
  ASSERT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));

  // Fail-stop: connection severed, listener gone while the server is down.
  server->CloseConnection();
  server.reset();
  sched.RunFor(kSecond);
  EXPECT_FALSE(client.IsConnected());

  // Restart on the same port, then replay the whole cached stream 1..5.
  server = std::make_unique<FakeServer>(loop, 1000, "fake-1");
  sched.RunFor(5 * kSecond);
  ASSERT_TRUE(client.IsConnected());
  const auto subs = server->FramesOf<SubscribeFrame>();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0].hasResumePos);
  EXPECT_EQ(subs[0].resumeAfter, (StreamPos{1, 3}));

  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    server->Deliver("t", 1, seq, PublicationId{0xFEED, seq});
  }
  sched.RunFor(kSecond);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(client.stats().duplicatesFiltered, 3u);
}

TEST_F(ClientTest, DeliveryForUnknownTopicIgnored) {
  FakeServer server(loop, 1000, "fake-1");
  Client client(loop, BaseConfig({1000}));
  client.Start();
  sched.RunFor(kSecond);
  server.Deliver("never-subscribed", 1, 1);
  sched.RunFor(100 * kMillisecond);
  EXPECT_EQ(client.stats().messagesReceived, 0u);
}

}  // namespace
}  // namespace md::client
