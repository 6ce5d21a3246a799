// Epoch-based fencing and the hand-off choreography (DESIGN.md §12), driven
// white-box through a single ClusterNode: an evicted incarnation replaying
// buffered replication writes is refused (no cache insert, no ack — so the
// stale sender can never complete replication either), a rejoined
// incarnation at a higher epoch is accepted, stale or quorum-less hand-off
// Begins are nacked, and the Begin/Ack exchange is idempotent under
// duplicated frames.
#include <gtest/gtest.h>

#include "mock_cluster_env.hpp"
#include "cluster/rebalance.hpp"
#include "coord/assign.hpp"

namespace md::cluster {
namespace {

class FencingTest : public ::testing::Test {
 protected:
  FencingTest()
      : env(sched),
        coordEnv(sched),
        coordNode(1, {1}, coordEnv),
        node(MakeConfig(&registry), env, coordNode, {"peer-a", "peer-b"}) {
    coordNode.Start();
    sched.RunFor(2 * kSecond);  // single-node election
    node.Start();
    sched.RunFor(kSecond);  // membership join settles
    env.Clear();
  }

  static ClusterConfig MakeConfig(obs::MetricsRegistry* reg = nullptr) {
    ClusterConfig cfg;
    cfg.serverId = "me";
    cfg.topicGroups = 4;
    cfg.elastic = true;
    cfg.metrics = reg;  // per-fixture counters: tests must not share stats
    return cfg;
  }

  /// Announce `peer` as a member at `epoch` (its members/ znode value) and
  /// let the watch + rebalance debounce fire.
  void PeerJoins(const std::string& peer, std::uint32_t epoch) {
    coordNode.CreateEphemeral(coord::MemberKey(peer), std::to_string(epoch),
                              [](Status, std::uint64_t) {});
    sched.RunFor(500 * kMillisecond);
  }

  void PeerEvicted(const std::string& peer) {
    coordNode.Delete(coord::MemberKey(peer), [](Status, std::uint64_t) {});
    sched.RunFor(500 * kMillisecond);
  }

  BroadcastFrame Bcast(const std::string& topic, std::uint64_t seq,
                       const std::string& coordinator, std::uint32_t fenceEpoch) {
    Message m;
    m.topic = topic;
    m.payload = {static_cast<std::uint8_t>(seq)};
    m.epoch = 1;
    m.seq = seq;
    m.pubId = {9, seq};
    return BroadcastFrame{m, TopicGroupOf(topic, 4), coordinator, fenceEpoch};
  }

  sim::Scheduler sched;
  obs::MetricsRegistry registry;
  testutil::MockClusterEnv env;
  testutil::CoordEnvOnSched coordEnv;
  coord::CoordNode coordNode;
  ClusterNode node;
};

TEST_F(FencingTest, EvictedIncarnationsBufferedWritesAreRefused) {
  PeerJoins("peer-a", 5);
  PeerJoins("peer-b", 1);  // quorum for later accepts

  // A live broadcast at the announced epoch lands: cached and acked.
  node.OnPeerFrame("peer-a", Frame(Bcast("t", 1, "peer-a", 5)));
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 1u);
  EXPECT_EQ(env.PeersOf<BroadcastAckFrame>().size(), 1u);

  // The member vanishes: its floor rises past its own last epoch, so even
  // writes stamped with the exact epoch it held are now stale.
  PeerEvicted("peer-a");
  env.Clear();
  node.OnPeerFrame("peer-a", Frame(Bcast("t", 2, "peer-a", 5)));
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 1u);  // not cached
  EXPECT_TRUE(env.PeersOf<BroadcastAckFrame>().empty());     // no ack either
  EXPECT_EQ(node.metrics().fenceRefusals.Value(), 1u);

  // The next incarnation rejoins at a higher epoch and is accepted again.
  PeerJoins("peer-a", 7);
  env.Clear();
  node.OnPeerFrame("peer-a", Frame(Bcast("t", 2, "peer-a", 7)));
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 2u);
  EXPECT_EQ(env.PeersOf<BroadcastAckFrame>().size(), 1u);
  EXPECT_EQ(node.metrics().fenceRefusals.Value(), 1u);
}

TEST_F(FencingTest, LegacyEpochZeroSendersAreAlwaysAccepted) {
  PeerJoins("peer-a", 5);
  PeerEvicted("peer-a");
  env.Clear();
  // Epoch 0 marks a sender not running elastic membership; the fence floor
  // does not apply (mixed-version cluster compatibility).
  node.OnPeerFrame("peer-a", Frame(Bcast("t", 1, "peer-a", 0)));
  EXPECT_EQ(node.cache().GetAfter("t", {0, 0}).size(), 1u);
  EXPECT_EQ(node.metrics().fenceRefusals.Value(), 0u);
}

TEST_F(FencingTest, StaleHandoffBeginIsNacked) {
  PeerJoins("peer-a", 5);
  PeerJoins("peer-b", 1);
  PeerEvicted("peer-a");  // floor for peer-a is now 6
  env.Clear();

  HandoffBeginFrame begin;
  begin.partition = 3;
  begin.fenceEpoch = 5;  // the evicted incarnation's epoch: stale
  begin.handoffId = 77;
  begin.fromServerId = "peer-a";
  HandoffSession session;
  session.clientId = "alice";
  session.cursors.emplace_back("t", StreamPos{1, 4});
  begin.sessions.push_back(session);
  node.OnPeerFrame("peer-a", Frame(begin));

  const auto acks = env.PeersOf<HandoffAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, "peer-a");
  EXPECT_EQ(acks[0].second.handoffId, 77u);
  EXPECT_FALSE(acks[0].second.ok);
  EXPECT_EQ(node.metrics().fenceRefusals.Value(), 1u);
  // The refused slice was not adopted: no ownership record was written.
  sched.RunFor(100 * kMillisecond);
  EXPECT_FALSE(coordNode.Read(coord::AssignKey(3)).has_value());
}

TEST_F(FencingTest, HandoffBeginWithoutQuorumIsNacked) {
  // Only self online (1 of 3): a minority node must not adopt sessions — it
  // could not serve them anyway, and acking would release them at the sender.
  ASSERT_FALSE(node.HasWriteQuorum());
  HandoffBeginFrame begin;
  begin.partition = 1;
  begin.fenceEpoch = 0;
  begin.handoffId = 12;
  begin.fromServerId = "peer-a";
  node.OnPeerFrame("peer-a", Frame(begin));
  const auto acks = env.PeersOf<HandoffAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].second.ok);
}

TEST_F(FencingTest, AcceptedHandoffBeginAdoptsCursorsAndRecordsOwnership) {
  PeerJoins("peer-a", 1);  // quorate

  HandoffBeginFrame begin;
  begin.partition = 3;
  begin.fenceEpoch = 1;
  begin.handoffId = 41;
  begin.fromServerId = "peer-a";
  HandoffSession session;
  session.clientId = "alice";
  session.cursors.emplace_back("t", StreamPos{1, 4});
  begin.sessions.push_back(session);
  node.OnPeerFrame("peer-a", Frame(begin));

  auto acks = env.PeersOf<HandoffAckFrame>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].second.ok);
  EXPECT_EQ(acks[0].second.fenceEpoch, node.FenceEpoch());

  // A duplicated Begin (lost ack, sender retry) is re-acked, not corrupted.
  node.OnPeerFrame("peer-a", Frame(begin));
  acks = env.PeersOf<HandoffAckFrame>();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_TRUE(acks[1].second.ok);

  // The ownership record landed in the store: "me@<my epoch>".
  sched.RunFor(100 * kMillisecond);
  const auto kv = coordNode.Read(coord::AssignKey(3));
  ASSERT_TRUE(kv.has_value());
  const auto rec = coord::ParseAssignment(kv->value);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->owner, "me");
  EXPECT_EQ(rec->epoch, node.FenceEpoch());

  // The transferred cursor is the redirected client's resume floor: fill the
  // cache past it, attach the client, and only positions after (1,4) arrive.
  for (std::uint64_t s = 1; s <= 6; ++s) {
    node.OnPeerFrame("peer-a", Frame(BroadcastFrame{
        Message{"t", {1}, 1, s, {9, s}, 0}, TopicGroupOf("t", 4), "peer-a", 1}));
  }
  env.Clear();
  node.OnClientConnect(10, "alice");
  node.OnClientFrame(10, Frame(SubscribeFrame{"t", false, {}}));
  const auto delivered = env.ClientsOf<DeliverFrame>();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].second.msg.seq, 5u);
  EXPECT_EQ(delivered[1].second.msg.seq, 6u);
}

// --- outgoing hand-off lifecycle (sender side) ------------------------------

class HandoffSenderTest : public FencingTest {
 protected:
  /// Connect a client whose subscriber partition the {me, peer-a} assignment
  /// gives to peer-a, so the next rebalance must start a hand-off.
  std::string ConnectMigratingClient(ClientHandle handle) {
    const Assignment next =
        Rebalancer::Compute(kSubscriberPartitions, {"me", "peer-a"});
    for (int i = 0; i < 1000; ++i) {
      const std::string id = "client-" + std::to_string(i);
      const std::uint32_t p =
          Rebalancer::PartitionOf(id, kSubscriberPartitions);
      if (next.OwnerOf(p) != "peer-a") continue;
      node.OnClientConnect(handle, id);
      node.OnClientFrame(handle, Frame(SubscribeFrame{"t", false, {}}));
      return id;
    }
    ADD_FAILURE() << "no client id maps to a peer-a partition";
    return {};
  }
};

TEST_F(HandoffSenderTest, JoinTriggersHandoffAndAckReleasesTheSession) {
  const std::string clientId = ConnectMigratingClient(10);
  ASSERT_FALSE(clientId.empty());
  env.Clear();

  PeerJoins("peer-a", 1);  // assignment changes: the hosted slice moves

  const auto begins = env.PeersOf<HandoffBeginFrame>();
  ASSERT_EQ(begins.size(), 1u);
  EXPECT_EQ(begins[0].first, "peer-a");
  EXPECT_EQ(begins[0].second.fromServerId, "me");
  EXPECT_EQ(begins[0].second.fenceEpoch, node.FenceEpoch());
  ASSERT_EQ(begins[0].second.sessions.size(), 1u);
  EXPECT_EQ(begins[0].second.sessions[0].clientId, clientId);
  EXPECT_EQ(node.metrics().handoffs.Value(), 1u);

  // The new owner's ack releases the slice: redirect (with the freeze-point
  // cursors) then close, in that order on the same connection.
  HandoffAckFrame ack;
  ack.handoffId = begins[0].second.handoffId;
  ack.partition = begins[0].second.partition;
  ack.fenceEpoch = 1;
  ack.ok = true;
  node.OnPeerFrame("peer-a", Frame(ack));

  const auto redirects = env.ClientsOf<HandoffFrame>();
  ASSERT_EQ(redirects.size(), 1u);
  EXPECT_EQ(redirects[0].first, 10u);
  EXPECT_EQ(redirects[0].second.targetServerId, "peer-a");
  EXPECT_EQ(redirects[0].second.cursors, begins[0].second.sessions[0].cursors);
  ASSERT_EQ(env.closed.size(), 1u);
  EXPECT_EQ(env.closed[0], 10u);
  EXPECT_EQ(node.LocalClientCount(), 0u);

  // A duplicated ack (retransmit) is ignored: no second redirect, no crash.
  node.OnPeerFrame("peer-a", Frame(ack));
  EXPECT_EQ(env.ClientsOf<HandoffFrame>().size(), 1u);
  EXPECT_EQ(env.closed.size(), 1u);
  EXPECT_EQ(node.metrics().handoffAborts.Value(), 0u);
}

TEST_F(HandoffSenderTest, NackAbortsAndKeepsTheSessionLocal) {
  const std::string clientId = ConnectMigratingClient(10);
  ASSERT_FALSE(clientId.empty());
  env.Clear();
  PeerJoins("peer-a", 1);

  const auto begins = env.PeersOf<HandoffBeginFrame>();
  ASSERT_EQ(begins.size(), 1u);
  HandoffAckFrame nack;
  nack.handoffId = begins[0].second.handoffId;
  nack.partition = begins[0].second.partition;
  nack.fenceEpoch = 1;
  nack.ok = false;
  node.OnPeerFrame("peer-a", Frame(nack));

  // Aborted: the client was neither redirected nor closed, and stays served.
  EXPECT_TRUE(env.ClientsOf<HandoffFrame>().empty());
  EXPECT_TRUE(env.closed.empty());
  EXPECT_EQ(node.LocalClientCount(), 1u);
  EXPECT_EQ(node.metrics().handoffAborts.Value(), 1u);
}

TEST_F(HandoffSenderTest, MissingAckTimesOutAndAborts) {
  const std::string clientId = ConnectMigratingClient(10);
  ASSERT_FALSE(clientId.empty());
  env.Clear();
  PeerJoins("peer-a", 1);
  ASSERT_EQ(env.PeersOf<HandoffBeginFrame>().size(), 1u);

  // No ack ever arrives: the sender aborts after the 1 s hand-off ack
  // timeout and thaws the slice back into local fan-out.
  sched.RunFor(2 * kSecond);
  EXPECT_EQ(node.metrics().handoffAborts.Value(), 1u);
  EXPECT_TRUE(env.ClientsOf<HandoffFrame>().empty());
  EXPECT_EQ(node.LocalClientCount(), 1u);
}

}  // namespace
}  // namespace md::cluster
