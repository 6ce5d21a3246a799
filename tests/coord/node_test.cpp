// MiniZK cluster behaviour under the deterministic simulation harness:
// elections, replication, ephemeral sessions, watches, crashes, partitions.
#include "coord/node.hpp"

#include <gtest/gtest.h>

#include "coord/sim_harness.hpp"

namespace md::coord {
namespace {

class CoordClusterTest : public ::testing::Test {
 protected:
  void MakeCluster(std::size_t n, std::uint64_t seed = 42) {
    net = std::make_unique<sim::SimNetwork>(sched, Rng(seed));
    std::vector<sim::HostId> hosts;
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back(net->AddHost("coord-" + std::to_string(i)));
    }
    cluster = std::make_unique<SimCoordCluster>(sched, *net, hosts, CoordConfig{}, seed);
    cluster->StartAll();
  }

  /// Runs until a unique leader exists (or fails the test after 10 s).
  std::size_t AwaitLeader() {
    for (int i = 0; i < 100; ++i) {
      sched.RunFor(100 * kMillisecond);
      if (const auto leader = cluster->LeaderIndex()) return *leader;
    }
    ADD_FAILURE() << "no leader elected within 10s";
    return 0;
  }

  /// Issues a write on node `i` and runs until its callback fires.
  Status WriteOn(std::size_t i, const std::string& key, const std::string& value,
                 bool ephemeral = true) {
    std::optional<Status> result;
    auto cb = [&](Status s, std::uint64_t) { result = s; };
    if (ephemeral) {
      cluster->node(i).CreateEphemeral(key, value, cb);
    } else {
      cluster->node(i).Put(key, value, cb);
    }
    for (int step = 0; step < 100 && !result; ++step) {
      sched.RunFor(50 * kMillisecond);
    }
    return result.value_or(Err(ErrorCode::kTimeout, "no callback"));
  }

  sim::Scheduler sched;
  std::unique_ptr<sim::SimNetwork> net;
  std::unique_ptr<SimCoordCluster> cluster;
};

TEST_F(CoordClusterTest, ElectsExactlyOneLeader) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  int leaderCount = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).IsLeader()) ++leaderCount;
  }
  EXPECT_EQ(leaderCount, 1);
  EXPECT_TRUE(cluster->node(leader).IsLeader());
}

TEST_F(CoordClusterTest, SingleNodeClusterLeadsImmediately) {
  MakeCluster(1);
  AwaitLeader();
  EXPECT_TRUE(cluster->node(0).IsLeader());
  EXPECT_TRUE(WriteOn(0, "k", "v").ok());
  EXPECT_EQ(cluster->node(0).Read("k")->value, "v");
}

TEST_F(CoordClusterTest, WriteOnLeaderReplicatesEverywhere) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  ASSERT_TRUE(WriteOn(leader, "group/7", "server-2").ok());
  sched.RunFor(500 * kMillisecond);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto kv = cluster->node(i).Read("group/7");
    ASSERT_TRUE(kv.has_value()) << "node " << i;
    EXPECT_EQ(kv->value, "server-2");
  }
}

TEST_F(CoordClusterTest, WriteOnFollowerForwardsToLeader) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  const std::size_t follower = (leader + 1) % 3;
  ASSERT_TRUE(WriteOn(follower, "k", "v").ok());
  sched.RunFor(500 * kMillisecond);
  EXPECT_EQ(cluster->node(leader).Read("k")->value, "v");
}

TEST_F(CoordClusterTest, AtomicCreateAdmitsExactlyOneWinner) {
  MakeCluster(3);
  AwaitLeader();
  // All three nodes race to create the same key (coordinator election).
  std::vector<Status> results(3, OkStatus());
  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    cluster->node(i).CreateEphemeral("group/42", "server-" + std::to_string(i),
                                     [&results, &done, i](Status s, std::uint64_t) {
                                       results[i] = s;
                                       ++done;
                                     });
  }
  for (int step = 0; step < 100 && done < 3; ++step) sched.RunFor(50 * kMillisecond);
  ASSERT_EQ(done, 3);
  int winners = 0;
  for (const auto& s : results) {
    if (s.ok()) ++winners;
    else EXPECT_EQ(s.code(), ErrorCode::kConflict);
  }
  EXPECT_EQ(winners, 1);
}

TEST_F(CoordClusterTest, DuplicateCreateConflicts) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  ASSERT_TRUE(WriteOn(leader, "k", "v").ok());
  EXPECT_EQ(WriteOn(leader, "k", "other").code(), ErrorCode::kConflict);
}

TEST_F(CoordClusterTest, LeaderCrashTriggersReelection) {
  MakeCluster(3);
  const std::size_t oldLeader = AwaitLeader();
  cluster->CrashNode(oldLeader);
  sched.RunFor(2 * kSecond);
  const auto newLeader = cluster->LeaderIndex();
  ASSERT_TRUE(newLeader.has_value());
  EXPECT_NE(*newLeader, oldLeader);
}

TEST_F(CoordClusterTest, CommittedWritesSurviveLeaderCrash) {
  MakeCluster(3);
  const std::size_t oldLeader = AwaitLeader();
  ASSERT_TRUE(WriteOn(oldLeader, "durable", "yes", /*ephemeral=*/false).ok());
  cluster->CrashNode(oldLeader);
  sched.RunFor(2 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i == oldLeader) continue;
    const auto kv = cluster->node(i).Read("durable");
    ASSERT_TRUE(kv.has_value()) << "node " << i;
    EXPECT_EQ(kv->value, "yes");
  }
}

TEST_F(CoordClusterTest, EphemeralsExpireWhenOwnerCrashes) {
  MakeCluster(3);
  AwaitLeader();
  // Node 0 creates an ephemeral entry, then crashes.
  ASSERT_TRUE(WriteOn(0, "group/1", "server-0").ok());
  // If node 0 was the leader, the new leader must still expire its session.
  cluster->CrashNode(0);
  sched.RunFor(5 * kSecond);  // > the 2 s session timeout
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_FALSE(cluster->node(i).Read("group/1").has_value()) << "node " << i;
  }
}

TEST_F(CoordClusterTest, WatchersSeeEphemeralExpiry) {
  MakeCluster(3);
  AwaitLeader();
  ASSERT_TRUE(WriteOn(0, "group/9", "server-0").ok());
  sched.RunFor(500 * kMillisecond);

  bool node1SawDelete = false;
  cluster->node(1).Watch("group/9", [&](const WatchEvent& e) {
    if (e.type == WatchEventType::kDeleted) node1SawDelete = true;
  });
  cluster->CrashNode(0);
  sched.RunFor(5 * kSecond);
  EXPECT_TRUE(node1SawDelete);
}

TEST_F(CoordClusterTest, PartitionedMinorityLosesQuorumContact) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  const std::size_t victim = (leader + 1) % 3;
  net->Isolate(cluster->HostOf(victim));
  sched.RunFor(3 * kSecond);
  EXPECT_FALSE(cluster->node(victim).HasQuorumContact());
  // The rest of the cluster retains quorum.
  for (std::size_t i = 0; i < 3; ++i) {
    if (i == victim) continue;
    EXPECT_TRUE(cluster->node(i).HasQuorumContact()) << "node " << i;
  }
}

TEST_F(CoordClusterTest, PartitionedLeaderStepsDown) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  net->Isolate(cluster->HostOf(leader));
  sched.RunFor(3 * kSecond);
  EXPECT_FALSE(cluster->node(leader).IsLeader());
  EXPECT_FALSE(cluster->node(leader).HasQuorumContact());
  // Majority side elected a replacement.
  const auto newLeader = cluster->LeaderIndex();
  ASSERT_TRUE(newLeader.has_value());
  EXPECT_NE(*newLeader, leader);
}

// The leader lease counts a majority of fresh acks, never one follower's
// reply: a leader cut off with one follower in a 5-node ensemble (a minority
// of two that still hear each other) must step down, and both must then
// report lost quorum contact so their servers fence (paper §5.2.2).
TEST_F(CoordClusterTest, MinorityOfTwoWithTheLeaderLosesQuorumContact) {
  // MiniZK's quorum-loss threshold and tick (coord/node.cpp).
  constexpr Duration kThreshold = kSecond;
  constexpr Duration kTick = 10 * kMillisecond;
  MakeCluster(5);
  const std::size_t leader = AwaitLeader();
  const std::size_t follower = (leader + 1) % 5;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == leader || i == follower) continue;
    net->Partition(cluster->HostOf(leader), cluster->HostOf(i));
    net->Partition(cluster->HostOf(follower), cluster->HostOf(i));
  }
  const TimePoint cut = sched.Now();
  TimePoint leaderLost = -1;
  TimePoint followerLost = -1;
  while (sched.Now() - cut < 10 * kSecond && (leaderLost < 0 || followerLost < 0)) {
    sched.RunFor(kTick);
    if (leaderLost < 0 && !cluster->node(leader).HasQuorumContact()) {
      leaderLost = sched.Now();
    }
    if (followerLost < 0 && !cluster->node(follower).HasQuorumContact()) {
      followerLost = sched.Now();
    }
  }
  // The majority's acks go stale after one threshold and the lease they
  // renewed lasts one more; the leader then steps down.
  ASSERT_GE(leaderLost, 0) << "the minority leader never lost quorum contact";
  EXPECT_LE(leaderLost - cut, 2 * kThreshold + kTick);
  EXPECT_FALSE(cluster->node(leader).IsLeader());
  // The follower hears no leader after the step-down.
  ASSERT_GE(followerLost, 0) << "the minority follower never lost quorum contact";
  EXPECT_LE(followerLost - leaderLost, kThreshold + kTick);

  // Neither regains contact while cut off; the majority side keeps it.
  sched.RunFor(3 * kSecond);
  EXPECT_FALSE(cluster->node(leader).HasQuorumContact());
  EXPECT_FALSE(cluster->node(follower).HasQuorumContact());
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == leader || i == follower) continue;
    EXPECT_TRUE(cluster->node(i).HasQuorumContact()) << "node " << i;
  }
}

TEST_F(CoordClusterTest, WritesFailOnPartitionedNode) {
  MakeCluster(3);
  AwaitLeader();
  const std::size_t victim = 0;
  net->Isolate(cluster->HostOf(victim));
  sched.RunFor(2 * kSecond);
  const Status s = WriteOn(victim, "k", "v");
  EXPECT_FALSE(s.ok());
}

TEST_F(CoordClusterTest, HealedPartitionRejoinsAndCatchesUp) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  const std::size_t victim = (leader + 1) % 3;
  net->Isolate(cluster->HostOf(victim));
  sched.RunFor(2 * kSecond);
  // Write on the majority side while the victim is cut off.
  const auto majorityLeader = cluster->LeaderIndex();
  ASSERT_TRUE(majorityLeader.has_value());
  ASSERT_TRUE(WriteOn(*majorityLeader, "during/partition", "v", false).ok());

  net->HealAll(cluster->HostOf(victim));
  sched.RunFor(3 * kSecond);
  EXPECT_TRUE(cluster->node(victim).HasQuorumContact());
  const auto kv = cluster->node(victim).Read("during/partition");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->value, "v");
}

TEST_F(CoordClusterTest, CrashedNodeRestartsAndCatchesUp) {
  MakeCluster(3);
  const std::size_t leader = AwaitLeader();
  ASSERT_TRUE(WriteOn(leader, "before", "1", false).ok());
  const std::size_t victim = (leader + 1) % 3;
  cluster->CrashNode(victim);
  sched.RunFor(1 * kSecond);
  const auto stillLeader = cluster->LeaderIndex();
  ASSERT_TRUE(stillLeader.has_value());
  ASSERT_TRUE(WriteOn(*stillLeader, "while/down", "2", false).ok());

  cluster->RestartNode(victim);
  sched.RunFor(3 * kSecond);
  EXPECT_EQ(cluster->node(victim).Read("before")->value, "1");
  EXPECT_EQ(cluster->node(victim).Read("while/down")->value, "2");
}

TEST_F(CoordClusterTest, FiveNodeClusterToleratesTwoFaults) {
  MakeCluster(5);
  const std::size_t leader = AwaitLeader();
  cluster->CrashNode((leader + 1) % 5);
  cluster->CrashNode((leader + 2) % 5);
  sched.RunFor(2 * kSecond);
  const auto still = cluster->LeaderIndex();
  ASSERT_TRUE(still.has_value());
  EXPECT_TRUE(WriteOn(*still, "k", "v").ok());
}

// Safety property under randomized crash/restart churn: committed writes are
// never lost, and no two nodes ever disagree on a committed key's value.
class CoordChurnProperty : public CoordClusterTest,
                           public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(CoordChurnProperty, CommittedWritesSurviveChurn) {
  MakeCluster(3, GetParam());
  Rng rng(GetParam() * 977);
  std::map<std::string, std::string> committed;

  for (int round = 0; round < 8; ++round) {
    // Random fault action.
    const auto action = rng.NextBelow(3);
    const std::size_t victim = rng.NextBelow(3);
    if (action == 0 && !cluster->node(victim).IsCrashed()) {
      cluster->CrashNode(victim);
    } else if (action == 1 && cluster->node(victim).IsCrashed()) {
      cluster->RestartNode(victim);
    }
    sched.RunFor(2 * kSecond);

    // Ensure at most one node is down (the paper's single-fault model — and
    // a 3-node quorum requires 2 up).
    std::size_t down = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      if (cluster->node(i).IsCrashed()) ++down;
    }
    if (down > 1) {
      cluster->RestartNode(victim);
      sched.RunFor(2 * kSecond);
    }

    // Try a write on a random live node.
    const std::string key = "key-" + std::to_string(round);
    const std::string value = "val-" + std::to_string(round);
    std::size_t writer = rng.NextBelow(3);
    while (cluster->node(writer).IsCrashed()) writer = (writer + 1) % 3;
    if (WriteOn(writer, key, value, false).ok()) committed[key] = value;
  }

  // Heal everything and verify all committed writes on all nodes.
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).IsCrashed()) cluster->RestartNode(i);
  }
  sched.RunFor(5 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& [key, value] : committed) {
      const auto kv = cluster->node(i).Read(key);
      ASSERT_TRUE(kv.has_value()) << "node " << i << " lost " << key;
      EXPECT_EQ(kv->value, value) << "node " << i << " diverged on " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordChurnProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace md::coord
