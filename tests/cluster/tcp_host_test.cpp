// End-to-end cluster tests over REAL TCP: three TcpClusterHosts (each its
// own event-loop thread: cluster node + MiniZK node + peer/coord links) on
// loopback, driven by the real client library or by raw framed sockets.
#include "cluster/tcp_host.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "client/client.hpp"
#include "support/http_get.hpp"
#include "support/raw_framed_client.hpp"
#include "transport/epoll_loop.hpp"

namespace md::cluster {
namespace {

using namespace std::chrono_literals;
using test_support::HttpGet;
using test_support::RawFramedClient;

void WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds timeout = 15000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(2ms);
  }
}

PublishFrame Publication(const std::string& topic, const std::string& publisher,
                         std::uint64_t counter, std::size_t size = 1) {
  PublishFrame frame;
  frame.topic = topic;
  frame.payload = Bytes(size, static_cast<std::uint8_t>(counter));
  frame.pubId = PublicationId{Fnv1a64(publisher), counter};
  return frame;
}

/// Publishes `frame` until it is acked kOk. The first publication on a
/// topic group can lose the race for the group's coordinator and come back
/// kFailed — never sequenced — and publishers republish those (the client
/// library does so on its own).
void PublishUntilAcked(RawFramedClient& pub, const PublishFrame& frame) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(pub.SendAll({frame}));
    const auto ack = pub.Expect<PubAckFrame>();
    ASSERT_TRUE(ack.has_value());
    if (ack->ok()) return;
    std::this_thread::sleep_for(20ms);
  }
  FAIL() << "publication never acked";
}

/// A loopback port picked by the kernel and held until the host listening on
/// it has bound. The socket carries the listeners' SO_REUSEADDR and
/// SO_REUSEPORT so the host can bind next to it, but it never listens, so
/// it receives no connections. While it is held the kernel hands the port to
/// no other bind(0) or connect() — test processes running side by side
/// (ctest -j) cannot end up sharing a cluster's ports.
class PortReservation {
 public:
  PortReservation() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~PortReservation() {
    if (fd_ >= 0) ::close(fd_);
  }
  PortReservation(const PortReservation&) = delete;
  PortReservation& operator=(const PortReservation&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

class TcpClusterTest : public ::testing::Test {
 protected:
  /// Starts `n` members, each with its own metrics registry; `tweak` edits
  /// every member's config before it starts.
  void StartCluster(std::size_t n = 3,
                    const std::function<void(TcpHostConfig&)>& tweak = {}) {
    // Reserve every port before any member starts, so each config can name
    // its peers; the reservations are released once the listeners hold the
    // ports.
    std::vector<std::unique_ptr<PortReservation>> reserved;
    const auto reserve = [&] {
      reserved.push_back(std::make_unique<PortReservation>());
      return reserved.back()->port();
    };
    std::vector<TcpHostConfig> cfgs(n);
    for (std::size_t i = 0; i < n; ++i) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
      cfgs[i].serverId = "tcp-server-" + std::to_string(i + 1);
      cfgs[i].nodeId = static_cast<coord::NodeId>(i + 1);
      cfgs[i].clientPort = reserve();
      cfgs[i].peerPort = reserve();
      cfgs[i].coordPort = reserve();
      cfgs[i].seed = 1000 + i;
      cfgs[i].cluster.metrics = registries[i].get();
      if (tweak) tweak(cfgs[i]);
    }
    for (const auto& r : reserved) ASSERT_NE(r->port(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        cfgs[i].peers.push_back({cfgs[j].serverId, cfgs[j].nodeId, "127.0.0.1",
                                 cfgs[j].peerPort, cfgs[j].coordPort});
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<TcpClusterHost>(cfgs[i]));
      ASSERT_TRUE(hosts[i]->Start().ok());
    }
    // Wait for MiniZK to elect a leader (real time).
    WaitFor([&] {
      int leaders = 0;
      for (auto& host : hosts) {
        host->WithCoord([&](coord::CoordNode& c) {
          if (c.IsLeader()) ++leaders;
        });
      }
      return leaders == 1;
    });
  }

  void TearDown() override {
    for (auto& host : hosts) host->Stop();
  }

  client::ClientConfig ClientCfg(const std::string& id) {
    client::ClientConfig cfg;
    for (auto& host : hosts) {
      cfg.servers.push_back({"127.0.0.1", host->ClientPort(), 1.0});
    }
    cfg.clientId = id;
    cfg.seed = Fnv1a64(id);
    cfg.ackTimeout = 2 * kSecond;
    cfg.backoffBase = 50 * kMillisecond;
    cfg.backoffMax = 300 * kMillisecond;
    return cfg;
  }

  /// Connects `sub` to member `member` as `clientId` on `topic`; the test
  /// then stops reading it. Publishes 1 KiB messages through the next
  /// member until that subscriber's deliveries have backed up in the
  /// member's own send queue (past the kernel's socket buffers), and sets
  /// `published` to how many went out. Every publication is acked and
  /// handed to the subscriber's connection before the next burst goes out.
  void QueueDeliveries(RawFramedClient& sub, std::size_t member,
                       const std::string& clientId, const std::string& topic,
                       std::uint64_t& published) {
    ASSERT_TRUE(sub.SendAll({ConnectFrame{clientId}, SubscribeFrame{topic}}));
    ASSERT_TRUE(sub.Expect<ConnAckFrame>());
    ASSERT_TRUE(sub.Expect<SubAckFrame>());

    const std::string publisher = clientId + "-pub";
    RawFramedClient pub(hosts[(member + 1) % hosts.size()]->ClientPort());
    ASSERT_TRUE(pub.SendAll({ConnectFrame{publisher}}));
    ASSERT_TRUE(pub.Expect<ConnAckFrame>());
    constexpr std::size_t kPayload = 1024;
    ASSERT_NO_FATAL_FAILURE(
        PublishUntilAcked(pub, Publication(topic, publisher, 1, kPayload)));
    published = 1;

    obs::TransportMetrics transport(*registries[member]);
    constexpr std::uint64_t kBurst = 64;
    constexpr std::int64_t kQueued = 256 * 1024;
    while (true) {
      WaitFor([&] {
        std::uint64_t delivered = 0;
        hosts[member]->WithNode(
            [&](ClusterNode& node) { delivered = node.metrics().delivered.Value(); });
        return delivered == published;
      });
      if (HasFailure() || transport.sendQueueBytes.Value() >= kQueued) return;
      ASSERT_LT(published, 16384u) << "the send queue never backed up";
      std::vector<Frame> burst;
      for (std::uint64_t i = 1; i <= kBurst; ++i) {
        burst.emplace_back(Publication(topic, publisher, published + i, kPayload));
      }
      ASSERT_TRUE(pub.SendAll(burst));
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        const auto ack = pub.Expect<PubAckFrame>();
        ASSERT_TRUE(ack && ack->ok());
      }
      published += kBurst;
    }
  }

  /// Reads what `sub` receives after its member closed it: all `published`
  /// deliveries in publish order, then exactly one T (copied to `closing`
  /// when given), then EOF.
  template <typename T>
  void ExpectBacklogThenFrameThenEof(RawFramedClient& sub,
                                     std::uint64_t published,
                                     T* closing = nullptr) {
    std::uint64_t delivered = 0;
    std::optional<Frame> frame;
    while ((frame = sub.Next()) && std::holds_alternative<DeliverFrame>(*frame)) {
      EXPECT_EQ(std::get<DeliverFrame>(*frame).msg.pubId.counter, delivered + 1);
      ++delivered;
    }
    EXPECT_EQ(delivered, published) << "queued deliveries were discarded";
    ASSERT_TRUE(frame.has_value()) << "EOF before the closing frame";
    ASSERT_TRUE(std::holds_alternative<T>(*frame));
    if (closing != nullptr) *closing = std::get<T>(*frame);
    EXPECT_TRUE(sub.AtEof());
  }

  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;  // outlive hosts
  std::vector<std::unique_ptr<TcpClusterHost>> hosts;
};

TEST_F(TcpClusterTest, PublishSubscribeAcrossServersOverRealTcp) {
  StartCluster();

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });

  // Subscriber pinned to server 1, publisher to server 2: the publication
  // must traverse the real peer links (forward + broadcast).
  auto subCfg = ClientCfg("tcp-sub");
  subCfg.servers = {{"127.0.0.1", hosts[0]->ClientPort(), 1.0}};
  auto pubCfg = ClientCfg("tcp-pub");
  pubCfg.servers = {{"127.0.0.1", hosts[1]->ClientPort(), 1.0}};

  client::Client sub(clientLoop, subCfg);
  client::Client pub(clientLoop, pubCfg);

  std::atomic<int> received{0};
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    sub.Subscribe("tcp/topic", [&](const Message&) { received.fetch_add(1); },
                  [&] { subscribed.store(true); });
    sub.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  std::atomic<int> acked{0};
  clientLoop.Post([&] {
    for (int i = 0; i < 5; ++i) {
      pub.Publish("tcp/topic", Bytes{static_cast<std::uint8_t>(i)},
                  [&](Status s) {
                    if (s.ok()) acked.fetch_add(1);
                  });
    }
  });
  WaitFor([&] { return acked.load() == 5 && received.load() == 5; });

  // The message was replicated into every server's cache via real TCP.
  for (auto& host : hosts) {
    std::size_t cached = 0;
    host->WithNode([&](ClusterNode& node) {
      cached = node.cache().GetAfter("tcp/topic", {0, 0}).size();
    });
    EXPECT_EQ(cached, 5u) << host->serverId();
  }

  clientLoop.Post([&] {
    sub.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

TEST_F(TcpClusterTest, FailoverOverRealTcp) {
  StartCluster();

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });

  client::Client sub(clientLoop, ClientCfg("fo-sub"));
  client::Client pub(clientLoop, ClientCfg("fo-pub"));

  std::vector<std::uint8_t> payloads;
  std::mutex payloadsMutex;
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    sub.Subscribe(
        "fo/topic",
        [&](const Message& m) {
          std::lock_guard lock(payloadsMutex);
          payloads.push_back(m.payload.at(0));
        },
        [&] { subscribed.store(true); });
    sub.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  auto publishAndAwait = [&](std::uint8_t k) {
    std::atomic<bool> acked{false};
    clientLoop.Post([&] {
      pub.Publish("fo/topic", Bytes{k}, [&](Status s) {
        if (s.ok()) acked.store(true);
      });
    });
    WaitFor([&] { return acked.load(); }, 20000ms);
  };

  publishAndAwait(1);
  WaitFor([&] {
    std::lock_guard lock(payloadsMutex);
    return payloads.size() == 1;
  });

  // Fail-stop the subscriber's server (a real host with real sockets).
  std::size_t subServer = sub.CurrentServerIndex().value();
  hosts[subServer]->Stop();

  // Keep publishing; the publisher may itself need to fail over.
  for (std::uint8_t k = 2; k <= 4; ++k) publishAndAwait(k);

  // The subscriber reconnects to a survivor and recovers everything.
  WaitFor([&] {
    std::lock_guard lock(payloadsMutex);
    return payloads.size() == 4;
  }, 30000ms);
  {
    std::lock_guard lock(payloadsMutex);
    EXPECT_EQ(payloads, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  }
  EXPECT_GT(sub.stats().reconnects, 0u);

  clientLoop.Post([&] {
    sub.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

// A member that loses quorum contact fences: it tells each local client
// why (DisconnectFrame) and closes it. Egress is deferred to the loop's flush
// pass, so the close must flush first — deliveries already queued for a
// client, then the DisconnectFrame, then EOF, in that order.
TEST_F(TcpClusterTest, FenceFlushesQueuedDeliveriesAndDisconnectBeforeEof) {
  StartCluster(3, [](TcpHostConfig& cfg) {
    // The backlog under test must stay queued, not trip slow-consumer eviction.
    cfg.clientBackpressure.softWatermark = 64 * 1024 * 1024;
    cfg.clientBackpressure.hardWatermark = 64 * 1024 * 1024;
  });
  RawFramedClient sub(hosts[0]->ClientPort(), 4096);
  std::uint64_t published = 0;
  ASSERT_NO_FATAL_FAILURE(QueueDeliveries(sub, 0, "fence-sub", "fence/topic", published));

  // Losing the local MiniZK node is losing quorum contact: the next fence
  // check closes every client.
  hosts[0]->WithCoord([](coord::CoordNode& coord) { coord.Crash(); });
  WaitFor([&] {
    bool fenced = false;
    hosts[0]->WithNode([&](ClusterNode& node) { fenced = node.IsFenced(); });
    return fenced;
  });
  ExpectBacklogThenFrameThenEof<DisconnectFrame>(sub, published);
}

// Graceful scale-in hands a departing member's subscriber partitions to
// their new owners; the release phase redirects each client (HandoffFrame)
// and closes it — behind the deliveries already queued for it.
TEST_F(TcpClusterTest, HandoffFlushesQueuedDeliveriesAndRedirectBeforeEof) {
  StartCluster(3, [](TcpHostConfig& cfg) {
    cfg.cluster.elastic = true;
    cfg.clientBackpressure.softWatermark = 64 * 1024 * 1024;
    cfg.clientBackpressure.hardWatermark = 64 * 1024 * 1024;
  });
  // Let every member settle on the three-member assignment, then pick a
  // client id whose partition member 1 owns: no rebalance moves it until
  // member 1 leaves.
  std::vector<std::string> ids;
  for (const auto& host : hosts) ids.push_back(host->serverId());
  const std::uint32_t partitions = kSubscriberPartitions;
  const Assignment settled = Rebalancer::Compute(partitions, ids);
  WaitFor([&] {
    for (const auto& host : hosts) {
      bool same = false;
      host->WithNode([&](ClusterNode& node) { same = node.assignment() == settled; });
      if (!same) return false;
    }
    return true;
  });
  std::string clientId;
  for (int i = 0; clientId.empty(); ++i) {
    const std::string candidate = "handoff-sub-" + std::to_string(i);
    if (settled.OwnerOf(Rebalancer::PartitionOf(candidate, partitions)) == ids[0]) {
      clientId = candidate;
    }
  }
  RawFramedClient sub(hosts[0]->ClientPort(), 4096);
  std::uint64_t published = 0;
  ASSERT_NO_FATAL_FAILURE(QueueDeliveries(sub, 0, clientId, "handoff/topic", published));

  hosts[0]->WithNode([](ClusterNode& node) { node.Leave(); });
  WaitFor([&] {
    std::size_t local = 1;
    hosts[0]->WithNode([&](ClusterNode& node) { local = node.LocalClientCount(); });
    return local == 0;
  });
  ExpectBacklogThenFrameThenEof<HandoffFrame>(sub, published);
}

// A member evicts a client that stays over the soft watermark for the whole
// grace period. Eviction flushes: once the client reads again it gets every
// delivery queued before the eviction, in order, then the slow-consumer
// DisconnectFrame, then EOF.
TEST_F(TcpClusterTest, StalledClientEvictedAfterGraceWithBacklogThenDisconnect) {
  StartCluster(3, [](TcpHostConfig& cfg) {
    // The hard mark sits far above the flood, so the eviction comes from the
    // grace timer and the close notice still fits behind the backlog.
    cfg.clientBackpressure.softWatermark = 16 * 1024;
    cfg.clientBackpressure.lowWatermark = 4 * 1024;
    cfg.clientBackpressure.hardWatermark = 64 * 1024 * 1024;
    cfg.clientBackpressure.evictGrace = 500 * kMillisecond;
  });
  const std::string topic = "stall/topic";
  RawFramedClient sub(hosts[0]->ClientPort(), 4096);
  ASSERT_TRUE(sub.SendAll({ConnectFrame{"stall-sub"}, SubscribeFrame{topic}}));
  ASSERT_TRUE(sub.Expect<ConnAckFrame>());
  ASSERT_TRUE(sub.Expect<SubAckFrame>());
  // The test stops reading `sub` here.

  RawFramedClient pub(hosts[1]->ClientPort());
  ASSERT_TRUE(pub.SendAll({ConnectFrame{"stall-pub"}}));
  ASSERT_TRUE(pub.Expect<ConnAckFrame>());
  constexpr std::size_t kPayload = 1024;
  ASSERT_NO_FATAL_FAILURE(
      PublishUntilAcked(pub, Publication(topic, "stall-pub", 1, kPayload)));
  std::uint64_t published = 1;

  // Flood in acked bursts until the subscriber's member holds it over the
  // soft mark; the grace timer starts there.
  obs::SlowConsumerMetrics slow(*registries[0],
                                obs::ServerLabel(hosts[0]->serverId()));
  constexpr std::uint64_t kBurst = 64;
  while (slow.sessionsOverSoft.Value() == 0) {
    ASSERT_LT(published, 16384u) << "the subscriber never went over soft";
    std::vector<Frame> burst;
    for (std::uint64_t i = 1; i <= kBurst; ++i) {
      burst.emplace_back(Publication(topic, "stall-pub", published + i, kPayload));
    }
    ASSERT_TRUE(pub.SendAll(burst));
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      const auto ack = pub.Expect<PubAckFrame>();
      ASSERT_TRUE(ack && ack->ok());
    }
    published += kBurst;
    WaitFor([&] {
      std::uint64_t delivered = 0;
      hosts[0]->WithNode(
          [&](ClusterNode& node) { delivered = node.metrics().delivered.Value(); });
      return delivered == published;
    });
  }
  EXPECT_EQ(slow.disconnects.Value(), 0u) << "evicted before the flood ended";

  WaitFor([&] { return slow.disconnects.Value() == 1; });
  DisconnectFrame notice;
  ASSERT_NO_FATAL_FAILURE(
      ExpectBacklogThenFrameThenEof<DisconnectFrame>(sub, published, &notice));
  EXPECT_EQ(notice.reason.rfind("slow consumer", 0), 0u) << notice.reason;
  WaitFor([&] { return slow.sessionsOverSoft.Value() == 0; });
  EXPECT_EQ(slow.disconnects.Value(), 1u);
}

// Every frame a member writes — client acks and deliveries, peer frames,
// MiniZK traffic — is queued for the loop's flush pass, which writes what a
// dispatch round queued with one sendmsg: a burst of 200 publishes costs each
// member at least 200 client frames but far fewer sendmsg calls. Measured on
// a 4-core x86 container: 16 on the publisher's member (400 client frames),
// 8 on each of the others (200), in 6 of 6 runs; the bound leaves 3-6x for
// sanitizer builds and loaded machines.
TEST_F(TcpClusterTest, PublishBurstSendsOnlyThroughTheFlushPass) {
  StartCluster();
  const std::string topic = "burst/topic";
  std::vector<std::unique_ptr<RawFramedClient>> subs;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    subs.push_back(std::make_unique<RawFramedClient>(hosts[i]->ClientPort()));
    ASSERT_TRUE(subs[i]->SendAll(
        {ConnectFrame{"burst-sub-" + std::to_string(i)}, SubscribeFrame{topic}}));
    ASSERT_TRUE(subs[i]->Expect<ConnAckFrame>());
    ASSERT_TRUE(subs[i]->Expect<SubAckFrame>());
  }
  RawFramedClient pub(hosts[0]->ClientPort());
  ASSERT_TRUE(pub.SendAll({ConnectFrame{"burst-pub"}}));
  ASSERT_TRUE(pub.Expect<ConnAckFrame>());
  // Settle the topic's coordinator first, so the burst is all steady state.
  ASSERT_NO_FATAL_FAILURE(PublishUntilAcked(pub, Publication(topic, "burst-pub", 1)));
  for (auto& sub : subs) ASSERT_TRUE(sub->Expect<DeliverFrame>());

  std::vector<std::unique_ptr<obs::TransportMetrics>> transport;
  std::vector<std::uint64_t> flushesBefore;
  for (const auto& registry : registries) {
    transport.push_back(std::make_unique<obs::TransportMetrics>(*registry));
    flushesBefore.push_back(transport.back()->sendmsgCalls.Value());
  }

  constexpr std::uint64_t kPublishes = 200;
  std::vector<Frame> burst;
  for (std::uint64_t i = 2; i <= kPublishes + 1; ++i) {
    burst.emplace_back(Publication(topic, "burst-pub", i));
  }
  ASSERT_TRUE(pub.SendAll(burst));
  for (std::uint64_t i = 2; i <= kPublishes + 1; ++i) {
    const auto ack = pub.Expect<PubAckFrame>();
    ASSERT_TRUE(ack && ack->ok()) << "publish " << i;
  }
  for (auto& sub : subs) {
    for (std::uint64_t i = 2; i <= kPublishes + 1; ++i) {
      const auto deliver = sub->Expect<DeliverFrame>();
      ASSERT_TRUE(deliver) << "delivery " << i;
      EXPECT_EQ(deliver->msg.pubId.counter, i);
    }
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::uint64_t flushes = transport[i]->sendmsgCalls.Value() - flushesBefore[i];
    EXPECT_GT(flushes, 0u) << hosts[i]->serverId();
    EXPECT_LT(flushes, kPublishes / 4) << hosts[i]->serverId();
  }
}

// A member's client port is the same front door as a single-node server's: a
// WebSocket client subscribes through the upgrade handshake and receives a
// publish stream, forwarded from another member, in publish order.
TEST_F(TcpClusterTest, WebSocketClientReceivesPublishStreamFromMemberInOrder) {
  StartCluster(2);

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });

  auto subCfg = ClientCfg("ws-sub");
  subCfg.servers = {{"127.0.0.1", hosts[0]->ClientPort(), 1.0}};
  subCfg.transport = client::Transport::kWebSocket;
  auto pubCfg = ClientCfg("ws-pub");
  pubCfg.servers = {{"127.0.0.1", hosts[1]->ClientPort(), 1.0}};
  client::Client sub(clientLoop, subCfg);
  client::Client pub(clientLoop, pubCfg);

  std::vector<std::uint8_t> payloads;
  std::mutex payloadsMutex;
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    sub.Subscribe(
        "ws/topic",
        [&](const Message& m) {
          std::lock_guard lock(payloadsMutex);
          payloads.push_back(m.payload.at(0));
        },
        [&] { subscribed.store(true); });
    sub.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  // The first publication settles the topic group's coordinator (a lost
  // race comes back kFailed and is republished out of order); the burst
  // after it is sequenced in publish order.
  constexpr int kMessages = 50;
  std::atomic<int> acked{0};
  const auto publish = [&](int i) {
    pub.Publish("ws/topic", Bytes{static_cast<std::uint8_t>(i)}, [&](Status st) {
      if (st.ok()) acked.fetch_add(1);
    });
  };
  clientLoop.Post([&] { publish(0); });
  WaitFor([&] { return acked.load() == 1; });
  clientLoop.Post([&] {
    for (int i = 1; i < kMessages; ++i) publish(i);
  });
  WaitFor([&] {
    std::lock_guard lock(payloadsMutex);
    return acked.load() == kMessages && payloads.size() == kMessages;
  });
  std::vector<std::uint8_t> expected(kMessages);
  std::iota(expected.begin(), expected.end(), 0);
  {
    std::lock_guard lock(payloadsMutex);
    EXPECT_EQ(payloads, expected);
  }
  EXPECT_EQ(sub.stats().reconnects, 0u);

  clientLoop.Post([&] {
    sub.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

// A plain-HTTP GET /metrics on a member's client port answers with the
// member's registry: its cluster families and its front door's md_core_*.
TEST_F(TcpClusterTest, MetricsScrapeOfMemberClientPortReturnsClusterFamilies) {
  StartCluster(1);
  const std::string response = HttpGet(hosts[0]->ClientPort(), "/metrics");
  ASSERT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response.substr(0, 200);
  EXPECT_NE(response.find("# TYPE md_cluster_"), std::string::npos);
  EXPECT_NE(response.find("md_core_connections_accepted_total{server=\"" +
                          hosts[0]->serverId() + "\"} 1"),
            std::string::npos);
}

// Every host holds client frames to one 1 MiB cap: a member closes a client
// that announces a 2 MiB PUBLISH as a protocol error, and the publication
// never reaches a subscriber.
TEST_F(TcpClusterTest, OversizedClientFrameClosesClientAndDeliversNothing) {
  StartCluster(2);
  const std::string topic = "cap/topic";
  RawFramedClient sub(hosts[0]->ClientPort());
  ASSERT_TRUE(sub.SendAll({ConnectFrame{"cap-sub"}, SubscribeFrame{topic}}));
  ASSERT_TRUE(sub.Expect<ConnAckFrame>());
  ASSERT_TRUE(sub.Expect<SubAckFrame>());

  RawFramedClient big(hosts[1]->ClientPort());
  ASSERT_TRUE(big.SendAll({ConnectFrame{"cap-big"}}));
  ASSERT_TRUE(big.Expect<ConnAckFrame>());
  // The member may close before it has read the whole frame, so the send
  // itself can fail; what matters is what comes back.
  (void)big.SendAll({Publication(topic, "cap-big", 1, 2 * 1024 * 1024)});
  EXPECT_FALSE(big.Next().has_value()) << "the oversized PUBLISH was answered";
  obs::CoreMetrics core(*registries[1], obs::ServerLabel(hosts[1]->serverId()));
  EXPECT_EQ(core.protoErrors.Value(), 1u);

  RawFramedClient pub(hosts[1]->ClientPort());
  ASSERT_TRUE(pub.SendAll({ConnectFrame{"cap-pub"}}));
  ASSERT_TRUE(pub.Expect<ConnAckFrame>());
  ASSERT_NO_FATAL_FAILURE(PublishUntilAcked(pub, Publication(topic, "cap-pub", 7)));
  const auto deliver = sub.Expect<DeliverFrame>();
  ASSERT_TRUE(deliver.has_value());
  EXPECT_EQ(deliver->msg.pubId.counter, 7u) << "the oversized publication was delivered";
}

// A member's front door takes client verbs only: a peer frame sent to its
// client port closes that client as one protocol error.
TEST_F(TcpClusterTest, PeerFrameOnClientPortClosesAsProtocolError) {
  StartCluster(1);
  RawFramedClient client(hosts[0]->ClientPort());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll({BroadcastFrame{}}));
  EXPECT_FALSE(client.Next().has_value()) << "the peer frame was answered";
  EXPECT_TRUE(client.AtEof());
  obs::CoreMetrics core(*registries[0], obs::ServerLabel(hosts[0]->serverId()));
  EXPECT_EQ(core.protoErrors.Value(), 1u);
}

// A member's runtime monitor starts a stream afresh on re-subscribe: a
// client that resumes from behind what it has already received gets the
// replay as a new stream, not as [duplicate]s.
TEST_F(TcpClusterTest, ResubscribeWithResumeRaisesNoMonitorViolation) {
  StartCluster(2, [](TcpHostConfig& cfg) { cfg.runtimeVerify = true; });
  const std::string topic = "verify/resume";
  RawFramedClient sub(hosts[0]->ClientPort());
  ASSERT_TRUE(sub.SendAll({ConnectFrame{"resume-sub"}, SubscribeFrame{topic}}));
  ASSERT_TRUE(sub.Expect<ConnAckFrame>());
  ASSERT_TRUE(sub.Expect<SubAckFrame>());

  RawFramedClient pub(hosts[0]->ClientPort());
  ASSERT_TRUE(pub.SendAll({ConnectFrame{"resume-pub"}}));
  ASSERT_TRUE(pub.Expect<ConnAckFrame>());
  constexpr std::uint64_t kPublishes = 5;
  ASSERT_NO_FATAL_FAILURE(PublishUntilAcked(pub, Publication(topic, "resume-pub", 1)));
  for (std::uint64_t i = 2; i <= kPublishes; ++i) {
    ASSERT_TRUE(pub.SendAll({Publication(topic, "resume-pub", i)}));
    const auto ack = pub.Expect<PubAckFrame>();
    ASSERT_TRUE(ack && ack->ok());
  }
  std::vector<Message> seen;
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    const auto deliver = sub.Expect<DeliverFrame>();
    ASSERT_TRUE(deliver.has_value()) << "delivery " << i << " never arrived";
    seen.push_back(deliver->msg);
  }

  // Resume after the 2nd: the member replays the 3rd to the 5th.
  ASSERT_TRUE(sub.SendAll({SubscribeFrame{topic, true, PosOf(seen[1])}}));
  ASSERT_TRUE(sub.Expect<SubAckFrame>());
  for (std::uint64_t i = 3; i <= kPublishes; ++i) {
    const auto deliver = sub.Expect<DeliverFrame>();
    ASSERT_TRUE(deliver.has_value()) << "replay of " << i << " never arrived";
    EXPECT_EQ(deliver->msg.pubId.counter, i);
  }
  EXPECT_EQ(registries[0]->Snapshot().Total("md_invariant_violations_total"), 0.0);
}

}  // namespace
}  // namespace md::cluster
