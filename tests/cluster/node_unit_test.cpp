// White-box unit tests for ClusterNode: drive a single node with a mock
// environment and a local single-member MiniZK (commits instantly) to pin
// down routing, sequencing, ack and recovery mechanics without a full
// cluster harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/mock_cluster_env.hpp"
#include "coord/assign.hpp"

namespace md::cluster {
namespace {

using testutil::CoordEnvOnSched;
using testutil::MockClusterEnv;

class ClusterNodeUnitTest : public ::testing::Test {
 protected:
  ClusterNodeUnitTest()
      : env(sched),
        coordEnv(sched),
        // Single-member coordination group: elects itself immediately and
        // commits every write on the spot — perfect for unit-driving.
        coordNode(1, {1}, coordEnv),
        node(MakeConfig(), env, coordNode, {"peer-a", "peer-b"}) {
    coordNode.Start();
    sched.RunFor(2 * kSecond);  // single-node election
    node.Start();
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig cfg;
    cfg.serverId = "me";
    cfg.topicGroups = 4;  // small, predictable mapping
    return cfg;
  }

  PublishFrame Pub(const std::string& topic, std::uint64_t counter) {
    PublishFrame pub;
    pub.topic = topic;
    pub.payload = {1};
    pub.pubId = {7, counter};
    pub.wantAck = true;
    return pub;
  }

  sim::Scheduler sched;
  MockClusterEnv env;
  CoordEnvOnSched coordEnv;
  coord::CoordNode coordNode;
  ClusterNode node;
};

TEST_F(ClusterNodeUnitTest, LocalPublishSelfElectionBroadcastAndAck) {
  env.randomValue = 2;  // random pick == peers.size() => run for coordinator
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 1)));
  sched.RunFor(kSecond);  // takeover completes via the local MiniZK

  // The node became coordinator, sequenced and broadcast to both peers.
  const auto broadcasts = env.PeersOf<BroadcastFrame>();
  ASSERT_EQ(broadcasts.size(), 2u);
  EXPECT_EQ(broadcasts[0].second.msg.seq, 1u);
  EXPECT_EQ(broadcasts[0].second.coordinatorId, "me");
  EXPECT_TRUE(node.CoordinatesGroup(TopicGroupOf("t", 4)));

  // No ack yet: replication unconfirmed.
  EXPECT_TRUE(env.ClientsOf<PubAckFrame>().empty());

  // First BroadcastAck confirms two copies => publisher acked.
  const auto& msg = broadcasts[0].second.msg;
  node.OnPeerFrame("peer-a", Frame(BroadcastAckFrame{broadcasts[0].second.group,
                                                     msg.epoch, msg.seq, "t"}));
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, 10u);
  EXPECT_TRUE(acks[0].second.ok());
  // A duplicate ack from the other peer does not double-ack.
  node.OnPeerFrame("peer-b", Frame(BroadcastAckFrame{broadcasts[0].second.group,
                                                     msg.epoch, msg.seq, "t"}));
  EXPECT_EQ(env.ClientsOf<PubAckFrame>().size(), 1u);
}

TEST_F(ClusterNodeUnitTest, KnownCoordinatorForwardsInsteadOfElecting) {
  // Teach the gossip map that peer-a coordinates every group.
  for (std::uint32_t g = 0; g < 4; ++g) {
    node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{g, 1, "peer-a"}));
  }
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 1)));

  const auto forwards = env.PeersOf<ForwardPubFrame>();
  ASSERT_EQ(forwards.size(), 1u);
  EXPECT_EQ(forwards[0].first, "peer-a");
  EXPECT_EQ(forwards[0].second.originServerId, "me");
  EXPECT_FALSE(forwards[0].second.electIfUnassigned);
  EXPECT_EQ(node.metrics().forwarded.Value(), 1u);
}

TEST_F(ClusterNodeUnitTest, BroadcastArrivalAcksForwardedPublication) {
  for (std::uint32_t g = 0; g < 4; ++g) {
    node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{g, 1, "peer-a"}));
  }
  node.OnClientConnect(10, "pub");
  node.OnClientFrame(10, Frame(Pub("t", 5)));
  env.Clear();

  // The coordinator's sequenced broadcast comes back with our pubId.
  Message m;
  m.topic = "t";
  m.payload = {1};
  m.epoch = 1;
  m.seq = 1;
  m.pubId = {7, 5};
  node.OnPeerFrame("peer-a", Frame(BroadcastFrame{m, TopicGroupOf("t", 4), "peer-a"}));

  // We cached it (2nd copy), acked the broadcast, and acked the publisher.
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 1u);
  EXPECT_EQ(env.PeersOf<BroadcastAckFrame>().size(), 1u);
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].second.ok());
}

TEST_F(ClusterNodeUnitTest, ForwardTimeoutFailsThePublication) {
  for (std::uint32_t g = 0; g < 4; ++g) {
    node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{g, 1, "peer-a"}));
  }
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 5)));
  // No broadcast ever arrives (coordinator died): the forward timeout fires
  // and the publisher is told to republish.
  sched.RunFor(3 * kSecond);
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].second.ok());
}

TEST_F(ClusterNodeUnitTest, ForwardRejectFailsThePublicationImmediately) {
  for (std::uint32_t g = 0; g < 4; ++g) {
    node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{g, 1, "peer-a"}));
  }
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 5)));
  node.OnPeerFrame("peer-a", Frame(ForwardRejectFrame{{7, 5}, "t"}));
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].second.ok());
  EXPECT_EQ(node.metrics().rejects.Value(), 1u);
}

TEST_F(ClusterNodeUnitTest, CacheSyncServesChunkedResponses) {
  // Fill one group past two chunks via broadcasts: 5 messages on sync-topic
  // plus filler topics of the same group (a topic caches at most 1000).
  const std::uint32_t group = TopicGroupOf("sync-topic", 4);
  auto broadcast = [&](const std::string& topic, std::uint64_t seq) {
    Message m;
    m.topic = topic;
    m.payload = {static_cast<std::uint8_t>(seq)};
    m.epoch = 1;
    m.seq = seq;
    m.pubId = {9, seq};
    node.OnPeerFrame("peer-a", Frame(BroadcastFrame{m, group, "peer-a"}));
  };
  for (std::uint64_t s = 1; s <= 5; ++s) broadcast("sync-topic", s);
  const std::size_t held = 2 * kCacheSyncChunk + 1;
  std::size_t filled = 5;
  for (int f = 0; filled < held; ++f) {
    const std::string topic = "filler-" + std::to_string(f);
    if (TopicGroupOf(topic, 4) != group) continue;
    for (std::uint64_t s = 1; s <= 300 && filled < held; ++s, ++filled) {
      broadcast(topic, s);
    }
  }
  env.Clear();

  // Peer-b reconstructs: has nothing yet.
  node.OnPeerFrame("peer-b", Frame(CacheSyncReqFrame{group, {}, {}}));
  const auto responses = env.PeersOf<CacheSyncRespFrame>();
  // 2 chunks + 1 message => chunk, chunk, 1, with only the last marked done.
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].second.done);
  EXPECT_FALSE(responses[1].second.done);
  EXPECT_TRUE(responses[2].second.done);
  EXPECT_EQ(responses[0].second.messages.size(), kCacheSyncChunk);
  EXPECT_EQ(responses[2].second.messages.size(), 1u);
  std::size_t total = 0;
  for (const auto& [to, resp] : responses) {
    EXPECT_EQ(to, "peer-b");
    total += resp.messages.size();
  }
  EXPECT_EQ(total, held);

  // The sync-topic sequence numbers a request brings back (filler topics
  // carry no cursor in these requests, so they come back whole).
  auto syncTopicSeqs = [&] {
    std::vector<std::uint64_t> seqs;
    for (const auto& [to, resp] : env.PeersOf<CacheSyncRespFrame>()) {
      for (const auto& m : resp.messages) {
        if (m.topic == "sync-topic") seqs.push_back(m.seq);
      }
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };

  env.Clear();
  // With a have-position of (1,3) only 4 and 5 are sent.
  node.OnPeerFrame("peer-b",
                   Frame(CacheSyncReqFrame{group, {{"sync-topic", {1, 3}}}, {}}));
  EXPECT_EQ(syncTopicSeqs(), (std::vector<std::uint64_t>{4, 5}));

  env.Clear();
  // A head of (1,2) says the requester's surviving history STARTS at seq 2:
  // seq 1 fell to a WAL head-hole and must come back too, alongside 4 and 5.
  node.OnPeerFrame("peer-b",
                   Frame(CacheSyncReqFrame{
                       group, {{"sync-topic", {1, 3}}}, {{"sync-topic", {1, 2}}}}));
  EXPECT_EQ(syncTopicSeqs(), (std::vector<std::uint64_t>{1, 4, 5}));
}

TEST_F(ClusterNodeUnitTest, CacheSyncRespBackfillsViaInsert) {
  // Receive newer messages first (e.g. live broadcasts during recovery)...
  const std::uint32_t group = TopicGroupOf("bf", 4);
  Message newer;
  newer.topic = "bf";
  newer.epoch = 1;
  newer.seq = 9;
  newer.pubId = {3, 9};
  node.OnPeerFrame("peer-a", Frame(BroadcastFrame{newer, group, "peer-a"}));

  // ...then the sync response with the older history.
  CacheSyncRespFrame resp;
  resp.group = group;
  for (std::uint64_t s = 7; s <= 8; ++s) {
    Message m;
    m.topic = "bf";
    m.epoch = 1;
    m.seq = s;
    m.pubId = {3, s};
    resp.messages.push_back(m);
  }
  node.OnPeerFrame("peer-a", Frame(resp));

  const auto cached = node.cache().GetAfter("bf", {0, 0});
  ASSERT_EQ(cached.size(), 3u);
  EXPECT_EQ(cached[0].seq, 7u);
  EXPECT_EQ(cached[2].seq, 9u);
  EXPECT_EQ(node.metrics().backfilled.Value(), 2u);
}

TEST_F(ClusterNodeUnitTest, FrameNamingAnOutOfRangeGroupIsDropped) {
  // topicGroups = 4: a peer frame naming group 4 or above is malformed and
  // must change nothing (the per-group record is indexed by it).
  Message m;
  m.topic = "t";
  m.epoch = 1;
  m.seq = 1;
  m.pubId = {9, 1};
  env.Clear();
  node.OnPeerFrame("peer-a", Frame(BroadcastFrame{m, 4, "peer-a"}));
  node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{7, 1, "peer-a"}));
  node.OnPeerFrame("peer-a", Frame(CacheSyncReqFrame{0xFFFFFFFFu, {}, {}}));
  CacheSyncRespFrame resp;
  resp.group = 100;
  resp.messages.push_back(m);
  node.OnPeerFrame("peer-a", Frame(resp));
  EXPECT_TRUE(env.toPeers.empty());
  EXPECT_TRUE(node.cache().GetAfter("t", {0, 0}).empty());
  EXPECT_FALSE(node.GossipEntry(7).has_value());

  // The same broadcast naming the topic's own group lands.
  node.OnPeerFrame("peer-a", Frame(BroadcastFrame{m, TopicGroupOf("t", 4), "peer-a"}));
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 1u);
}

TEST_F(ClusterNodeUnitTest, GossipWithHigherEpochWinsLowerIgnored) {
  node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{0, 5, "peer-a"}));
  node.OnPeerFrame("peer-b", Frame(GossipAnnounceFrame{0, 3, "peer-b"}));  // stale
  const auto entry = node.GossipEntry(0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first, "peer-a");
  EXPECT_EQ(entry->second, 5u);
}

TEST_F(ClusterNodeUnitTest, CrashedNodeIgnoresEverything) {
  node.Crash();
  node.OnClientFrame(10, Frame(Pub("t", 1)));
  node.OnPeerFrame("peer-a", Frame(GossipAnnounceFrame{0, 1, "peer-a"}));
  EXPECT_TRUE(env.toPeers.empty());
  EXPECT_TRUE(env.toClients.empty());
  EXPECT_FALSE(node.GossipEntry(0).has_value());
}

// --- A leaving member (elastic) ----------------------------------------------

class ClusterNodeLeaveTest : public ::testing::Test {
 protected:
  ClusterNodeLeaveTest()
      : env(sched),
        coordEnv(sched),
        coordNode(1, {1}, coordEnv),
        node(MakeConfig(registry), env, coordNode, {"peer-a", "peer-b"}) {
    coordNode.Start();
    sched.RunFor(2 * kSecond);  // single-node election
    node.Start();
    sched.RunFor(kSecond);  // membership join settles
    for (const char* peer : {"peer-a", "peer-b"}) {
      coordNode.CreateEphemeral(coord::MemberKey(peer), "1", [](Status, std::uint64_t) {});
    }
    sched.RunFor(500 * kMillisecond);  // watches fire, rebalance debounce
    // A client with an application id: leaving hands its partition to a
    // peer, and the node stays leaving until that hand-off is acked.
    node.OnClientConnect(10, "pub");
    node.Leave();
    env.Clear();
  }

  static ClusterConfig MakeConfig(obs::MetricsRegistry& reg) {
    ClusterConfig cfg;
    cfg.serverId = "me";
    cfg.topicGroups = 4;
    cfg.elastic = true;
    cfg.metrics = &reg;
    return cfg;
  }

  sim::Scheduler sched;
  obs::MetricsRegistry registry;
  MockClusterEnv env;
  CoordEnvOnSched coordEnv;
  coord::CoordNode coordNode;
  ClusterNode node;
};

TEST_F(ClusterNodeLeaveTest, LocalPublishPickingItselfIsForwardedToAPeer) {
  ASSERT_TRUE(node.IsLeaving());
  ASSERT_TRUE(node.HasWriteQuorum());
  // The draw that picks this node among {peer-a, peer-b, me} for the
  // unassigned group. A leaving member runs for no coordinator role, so the
  // same draw picks a peer and the publication goes there at once.
  env.randomValue = 2;
  PublishFrame pub;
  pub.topic = "t";
  pub.payload = {1};
  pub.pubId = {7, 1};
  pub.wantAck = true;
  node.OnClientFrame(10, Frame(pub));
  sched.RunFor(100 * kMillisecond);

  const auto forwards = env.PeersOf<ForwardPubFrame>();
  ASSERT_EQ(forwards.size(), 1u);
  EXPECT_EQ(forwards[0].first, "peer-a");
  EXPECT_TRUE(forwards[0].second.electIfUnassigned);
  EXPECT_EQ(forwards[0].second.originServerId, "me");
  EXPECT_TRUE(env.PeersOf<BroadcastFrame>().empty());
  EXPECT_TRUE(env.ClientsOf<PubAckFrame>().empty());  // waits for the broadcast
}

TEST_F(ClusterNodeLeaveTest, ForwardedElectionIsRefusedAtOnce) {
  ASSERT_TRUE(node.IsLeaving());
  ForwardPubFrame fwd;
  fwd.topic = "t";
  fwd.payload = {1};
  fwd.pubId = {8, 1};
  fwd.originServerId = "peer-b";
  fwd.electIfUnassigned = true;
  node.OnPeerFrame("peer-b", Frame(fwd));

  const auto rejects = env.PeersOf<ForwardRejectFrame>();
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].first, "peer-b");
  EXPECT_EQ(rejects[0].second.pubId, (PublicationId{8, 1}));
  EXPECT_FALSE(node.CoordinatesGroup(TopicGroupOf("t", 4)));
}

}  // namespace
}  // namespace md::cluster
