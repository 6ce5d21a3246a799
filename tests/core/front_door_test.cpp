// The client front door behind a real core::Server (epoll IoThreads +
// Workers) on loopback: how a session's close treats the frames queued
// before it, and which frames it lets through.
#include "core/server.hpp"

#include <gtest/gtest.h>

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

// A client's DISCONNECT closes its session behind the acks its Worker queued
// first: all 64 PubAcks of publishes sent in the same write arrive (through
// the batcher, when the session has one), then EOF.
TEST_P(ServerFrontDoorTest, DisconnectFlushesAcksQueuedBeforeIt) {
  RawFramedClient client(server->Port());
  ASSERT_TRUE(client.connected());
  constexpr std::uint64_t kPublishes = 64;
  std::vector<Frame> frames;
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    PublishFrame pub;
    pub.topic = "front-door/topic";
    pub.payload = Bytes{static_cast<std::uint8_t>(i)};
    pub.pubId = PublicationId{Fnv1a64("front-door-pub"), i};
    pub.wantAck = true;
    frames.emplace_back(std::move(pub));
  }
  frames.emplace_back(DisconnectFrame{"done"});
  ASSERT_TRUE(client.SendAll(frames));

  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    const auto ack = client.Expect<PubAckFrame>();
    ASSERT_TRUE(ack.has_value()) << "PubAck " << i << " never arrived";
    EXPECT_TRUE(ack->ok());
    EXPECT_EQ(ack->pubId.counter, i);
  }
  EXPECT_TRUE(client.AtEof());
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
