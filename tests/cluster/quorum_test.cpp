// Quorum gating for the elastic cluster (DESIGN.md §12): unit coverage for
// the majority Quorum itself (majority edges, even splits), then node-level
// tests that a minority node bounces publishes with the retryable kNoQuorum
// status — locally and for forwarded publications, also on a node that
// already coordinates the group — and resumes sequencing after the
// membership heals.
#include "cluster/quorum.hpp"

#include <gtest/gtest.h>

#include "mock_cluster_env.hpp"
#include "coord/assign.hpp"

namespace md::cluster {
namespace {

// --- Quorum vote counting ---------------------------------------------------

TEST(QuorumTest, MajorityDerivedFromVoteTotal) {
  Quorum q;
  q.AddNode("a");
  q.AddNode("b");
  q.AddNode("c");
  EXPECT_EQ(q.TotalVotes(), 3u);
  EXPECT_EQ(q.MinQuorum(), 2u);

  // Members start offline; votes count toward the total regardless.
  EXPECT_EQ(q.OnlineVotes(), 0u);
  EXPECT_FALSE(q.Quorumed());
  q.SetOnline("a", true);
  EXPECT_FALSE(q.Quorumed());  // 1 of 3
  q.SetOnline("b", true);
  EXPECT_TRUE(q.Quorumed());  // 2 of 3
  q.SetOnline("b", false);
  EXPECT_FALSE(q.Quorumed());
}

TEST(QuorumTest, EvenSplitIsNotQuorate) {
  // The cman rule: 2 of 4 votes is below floor(4/2)+1 = 3, so a symmetric
  // partition fences both halves rather than neither.
  Quorum q;
  for (const char* n : {"a", "b", "c", "d"}) q.AddNode(n);
  EXPECT_EQ(q.MinQuorum(), 3u);
  q.SetOnline("a", true);
  q.SetOnline("b", true);
  EXPECT_EQ(q.OnlineVotes(), 2u);
  EXPECT_FALSE(q.Quorumed());
  q.SetOnline("c", true);
  EXPECT_TRUE(q.Quorumed());
}

TEST(QuorumTest, SingleNodeIsItsOwnQuorum) {
  Quorum q;
  q.AddNode("solo");
  EXPECT_EQ(q.MinQuorum(), 1u);
  EXPECT_FALSE(q.Quorumed());
  q.SetOnline("solo", true);
  EXPECT_TRUE(q.Quorumed());
}

TEST(QuorumTest, EmptyUniverseIsNotQuorate) {
  // A node that has not learned membership yet must not sequence.
  Quorum q;
  EXPECT_FALSE(q.Quorumed());
}

// --- Node-level quorum gating -----------------------------------------------

class QuorumGateTest : public ::testing::Test {
 protected:
  QuorumGateTest()
      : env(sched),
        coordEnv(sched),
        // Single-member coordination group: elects itself immediately and
        // commits every write on the spot, so the node's join (fence bump +
        // ephemeral member create) completes within the first RunFor.
        coordNode(1, {1}, coordEnv),
        node(MakeConfig(registry), env, coordNode, {"peer-a", "peer-b"}) {
    coordNode.Start();
    sched.RunFor(2 * kSecond);  // single-node election
    node.Start();
    sched.RunFor(kSecond);  // membership join + first rebalance settle
    env.Clear();
  }

  static ClusterConfig MakeConfig(obs::MetricsRegistry& reg) {
    ClusterConfig cfg;
    cfg.serverId = "me";
    cfg.topicGroups = 4;
    cfg.elastic = true;
    cfg.metrics = &reg;  // per-fixture counters: tests must not share stats
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

  void PeerJoins(const std::string& peer, std::uint32_t epoch) {
    coordNode.CreateEphemeral(coord::MemberKey(peer), std::to_string(epoch),
                              [](Status, std::uint64_t) {});
    sched.RunFor(500 * kMillisecond);  // watch fires + rebalance debounce
  }

  void PeerLeaves(const std::string& peer) {
    coordNode.Delete(coord::MemberKey(peer), [](Status, std::uint64_t) {});
    sched.RunFor(500 * kMillisecond);
  }

  sim::Scheduler sched;
  obs::MetricsRegistry registry;
  testutil::MockClusterEnv env;
  testutil::CoordEnvOnSched coordEnv;
  coord::CoordNode coordNode;
  ClusterNode node;
};

TEST_F(QuorumGateTest, MinorityNodeRejectsLocalPublishWithRetryableStatus) {
  // Universe {me, peer-a, peer-b}: only self is online, 1 of 3 votes.
  EXPECT_EQ(node.quorum().TotalVotes(), 3u);
  EXPECT_EQ(node.quorum().MinQuorum(), 2u);
  EXPECT_EQ(node.quorum().OnlineVotes(), 1u);
  EXPECT_FALSE(node.HasWriteQuorum());

  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 1)));

  // The publisher gets kNoQuorum — retryable, distinct from kFailed — and
  // nothing was sequenced, forwarded, or broadcast.
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, 10u);
  EXPECT_EQ(acks[0].second.code, PubAckCode::kNoQuorum);
  EXPECT_FALSE(acks[0].second.ok());
  EXPECT_TRUE(env.PeersOf<BroadcastFrame>().empty());
  EXPECT_TRUE(env.PeersOf<ForwardPubFrame>().empty());
  EXPECT_EQ(node.metrics().quorumRejects.Value(), 1u);
  EXPECT_EQ(node.metrics().published.Value(), 0u);
}

TEST_F(QuorumGateTest, ForwardedPublicationBouncesToContactServer) {
  ASSERT_FALSE(node.HasWriteQuorum());
  ForwardPubFrame fwd;
  fwd.topic = "t";
  fwd.payload = {1};
  fwd.pubId = {7, 5};
  fwd.originServerId = "peer-a";
  node.OnPeerFrame("peer-a", Frame(fwd));

  const auto rejects = env.PeersOf<ForwardRejectFrame>();
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].first, "peer-a");
  EXPECT_EQ(rejects[0].second.pubId, (PublicationId{7, 5}));
  EXPECT_EQ(node.metrics().quorumRejects.Value(), 1u);
}

TEST_F(QuorumGateTest, PeerJoinRestoresQuorumAndPublishingFlows) {
  PeerJoins("peer-a", 1);
  EXPECT_EQ(node.quorum().OnlineVotes(), 2u);
  EXPECT_TRUE(node.HasWriteQuorum());

  env.randomValue = 2;  // random pick == peers.size() => run for coordinator
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 1)));
  sched.RunFor(kSecond);  // takeover completes via the local MiniZK

  const auto broadcasts = env.PeersOf<BroadcastFrame>();
  ASSERT_EQ(broadcasts.size(), 2u);
  EXPECT_EQ(broadcasts[0].second.coordinatorId, "me");
  // Elastic broadcasts are stamped with the sender's fence epoch.
  EXPECT_EQ(broadcasts[0].second.fenceEpoch, node.FenceEpoch());
  EXPECT_GT(node.FenceEpoch(), 0u);

  // Replication confirmation completes the publish.
  const auto& msg = broadcasts[0].second.msg;
  node.OnPeerFrame("peer-a",
                   Frame(BroadcastAckFrame{broadcasts[0].second.group,
                                           msg.epoch, msg.seq, "t"}));
  const auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].second.ok());
  EXPECT_EQ(node.metrics().quorumRejects.Value(), 0u);
}

TEST_F(QuorumGateTest, QuorumLossAndReadmissionRoundTrip) {
  PeerJoins("peer-a", 1);
  ASSERT_TRUE(node.HasWriteQuorum());

  // The peer's ephemeral vanishes (crash or leave): back to a 1-of-3
  // minority, publishes bounce again.
  PeerLeaves("peer-a");
  EXPECT_FALSE(node.HasWriteQuorum());
  node.OnClientConnect(10, "pub");
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 1)));
  auto acks = env.ClientsOf<PubAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].second.code, PubAckCode::kNoQuorum);

  // Re-admission after heal: the peer rejoins at its next incarnation and
  // the very same node can sequence again.
  PeerJoins("peer-a", 2);
  EXPECT_TRUE(node.HasWriteQuorum());
  env.Clear();
  node.OnClientFrame(10, Frame(Pub("t", 2)));
  sched.RunFor(kSecond);
  EXPECT_EQ(env.PeersOf<BroadcastFrame>().size(), 2u);
  const auto retryAcks = env.ClientsOf<PubAckFrame>();
  for (const auto& [client, ack] : retryAcks) {
    EXPECT_NE(ack.code, PubAckCode::kNoQuorum);
  }
}

TEST_F(QuorumGateTest, CoordinatorWithoutQuorumBouncesForwardedPublication) {
  // Become the coordinator of t's group while the membership is quorate.
  PeerJoins("peer-a", 1);
  env.randomValue = 2;  // random pick == peers.size() => run for coordinator
  node.OnClientConnect(10, "pub");
  node.OnClientFrame(10, Frame(Pub("t", 1)));
  sched.RunFor(kSecond);
  ASSERT_TRUE(node.CoordinatesGroup(TopicGroupOf("t", 4)));
  const auto rejectsBefore = node.metrics().quorumRejects.Value();

  // The peer leaves: a 1-of-3 minority that still holds the coordinator
  // role. A publication forwarded here must meet the same gate as a local
  // one: bounced to its contact server, never sequenced or broadcast.
  PeerLeaves("peer-a");
  ASSERT_FALSE(node.HasWriteQuorum());
  env.Clear();
  ForwardPubFrame fwd;
  fwd.topic = "t";
  fwd.payload = {1};
  fwd.pubId = {8, 1};
  fwd.originServerId = "peer-b";
  node.OnPeerFrame("peer-b", Frame(fwd));

  const auto rejects = env.PeersOf<ForwardRejectFrame>();
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].first, "peer-b");
  EXPECT_EQ(rejects[0].second.pubId, (PublicationId{8, 1}));
  EXPECT_TRUE(env.PeersOf<BroadcastFrame>().empty());
  EXPECT_EQ(node.metrics().quorumRejects.Value(), rejectsBefore + 1);
}

TEST_F(QuorumGateTest, CoordContactAndMembershipQuorumAreAnded) {
  // HasWriteQuorum requires BOTH the messaging-membership majority and live
  // coordination quorum contact; with a single-member MiniZK the latter is
  // always true here, so the verdict tracks the membership view exactly.
  EXPECT_TRUE(coordNode.HasQuorumContact());
  EXPECT_FALSE(node.HasWriteQuorum());
  PeerJoins("peer-a", 1);
  EXPECT_TRUE(node.HasWriteQuorum());
  PeerJoins("peer-b", 1);
  EXPECT_TRUE(node.HasWriteQuorum());
  EXPECT_EQ(node.quorum().OnlineVotes(), 3u);
}

}  // namespace
}  // namespace md::cluster
