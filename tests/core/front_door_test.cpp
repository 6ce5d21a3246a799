// The client front door behind a real core::Server (epoll IoThreads +
// Workers) on loopback: how a session's close treats the frames queued
// before it, and which frames it lets through.
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "support/raw_framed_client.hpp"

namespace md::core {
namespace {

using test_support::RawFramedClient;

class ServerFrontDoorTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.ioThreads = 2;
    cfg.workers = 2;
    cfg.serverId = "front-door-server";
    cfg.metrics = &registry;
    cfg.enableBatching = GetParam();
    server = std::make_unique<Server>(cfg);
    ASSERT_TRUE(server->Start().ok());
  }

  void TearDown() override { server->Stop(); }

  obs::MetricsRegistry registry;  // outlives the server
  std::unique_ptr<Server> server;
};

constexpr std::uint64_t kPublishes = 64;

/// `kPublishes` acked publishes to `topic`, then a DISCONNECT.
std::vector<Frame> PublishesThenDisconnect(const std::string& topic,
                                           const std::string& publisher) {
  std::vector<Frame> frames;
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    PublishFrame pub;
    pub.topic = topic;
    pub.payload = Bytes{static_cast<std::uint8_t>(i)};
    pub.pubId = PublicationId{Fnv1a64(publisher), i};
    pub.wantAck = true;
    frames.emplace_back(std::move(pub));
  }
  frames.emplace_back(DisconnectFrame{"done"});
  return frames;
}

/// Reads all `kPublishes` PubAcks in order, then requires EOF.
void ExpectAcksThenEof(RawFramedClient& client) {
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    const auto ack = client.Expect<PubAckFrame>();
    ASSERT_TRUE(ack.has_value()) << "PubAck " << i << " never arrived";
    EXPECT_TRUE(ack->ok());
    EXPECT_EQ(ack->pubId.counter, i);
  }
  EXPECT_TRUE(client.AtEof());
}

// A client's DISCONNECT closes its session behind the acks its Worker queued
// first: all 64 PubAcks of publishes sent in the same write arrive (through
// the batcher, when the session has one), then EOF.
TEST_P(ServerFrontDoorTest, DisconnectFlushesAcksQueuedBeforeIt) {
  RawFramedClient client(server->Port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll(PublishesThenDisconnect("front-door/topic", "front-door-pub")));
  ExpectAcksThenEof(client);
  EXPECT_EQ(server->Stats().protocolErrors, 0u);
}

// The same when another Worker owns the topic's group: a first publisher's
// PUBLISHes claim it, and every later publisher whose own Worker is the
// other one has its publishes acked there. Its DISCONNECT still closes only
// after all 64 PubAcks. Eight publishers: all eight share the first one's
// Worker with probability 2^-8.
TEST_P(ServerFrontDoorTest, DisconnectFlushesAcksQueuedOnTheTopicOwner) {
  const std::string topic = "front-door/owned";
  RawFramedClient owner(server->Port());
  ASSERT_TRUE(owner.connected());
  ASSERT_TRUE(owner.SendAll(PublishesThenDisconnect(topic, "owner")));
  ExpectAcksThenEof(owner);

  constexpr int kPublishers = 8;
  std::vector<std::unique_ptr<RawFramedClient>> clients;
  for (int p = 0; p < kPublishers; ++p) {
    clients.push_back(std::make_unique<RawFramedClient>(server->Port()));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_TRUE(clients.back()->SendAll(
        PublishesThenDisconnect(topic, "publisher-" + std::to_string(p))));
  }
  for (int p = 0; p < kPublishers; ++p) {
    SCOPED_TRACE("publisher " + std::to_string(p));
    ExpectAcksThenEof(*clients[static_cast<std::size_t>(p)]);
  }
  EXPECT_EQ(server->Stats().protocolErrors, 0u);
}

// Only client verbs pass the front door: a peer frame on a client port
// closes the session as one protocol error, before any Worker sees it.
TEST_P(ServerFrontDoorTest, NonClientFrameClosesAsProtocolError) {
  RawFramedClient client(server->Port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll({BroadcastFrame{}}));
  EXPECT_FALSE(client.Next().has_value()) << "the peer frame was answered";
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server->Stats().protocolErrors, 1u);
}

INSTANTIATE_TEST_SUITE_P(Batching, ServerFrontDoorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Batched" : "Direct");
                         });

}  // namespace
}  // namespace md::core
