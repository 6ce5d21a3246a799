// Full-cluster integration tests: three MigratoryData servers + MiniZK over
// the deterministic simulation, with the *real client library* attached over
// the in-process transport. Exercises the paper's §5 protocol end to end:
// coordinator election, replication acks, failover recovery, partition
// self-fencing.
#include "cluster/sim_cluster.hpp"

#include <gtest/gtest.h>

#include "client/client.hpp"

namespace md::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void MakeCluster(std::size_t servers = 3, std::uint64_t seed = 42) {
    SimCluster::Options opts;
    opts.servers = servers;
    opts.seed = seed;
    cluster = std::make_unique<SimCluster>(sched, opts);
    cluster->StartAll();
    // Let MiniZK elect a leader before clients arrive.
    sched.RunFor(2 * kSecond);
  }

  client::ClientConfig ClientCfg(const std::string& id,
                                 std::optional<std::size_t> onlyServer = {}) {
    client::ClientConfig cfg;
    if (onlyServer) {
      cfg.servers = {{"server", cluster->ClientPort(*onlyServer), 1.0}};
    } else {
      for (std::size_t i = 0; i < cluster->size(); ++i) {
        cfg.servers.push_back({"server", cluster->ClientPort(i), 1.0});
      }
    }
    cfg.clientId = id;
    cfg.seed = Fnv1a64(id);
    cfg.ackTimeout = 3 * kSecond;
    cfg.backoffBase = 50 * kMillisecond;
    cfg.backoffMax = 500 * kMillisecond;
    cfg.blacklistTtl = 10 * kSecond;
    return cfg;
  }

  std::unique_ptr<client::Client> MakeClient(const std::string& id,
                                             std::optional<std::size_t> server = {}) {
    auto c = std::make_unique<client::Client>(cluster->clientLoop(), ClientCfg(id, server));
    c->Start();
    return c;
  }

  /// Publishes and runs until the ack arrives; returns the ack status.
  Status PublishAndWait(client::Client& pub, const std::string& topic, Bytes payload) {
    std::optional<Status> acked;
    pub.Publish(topic, std::move(payload), [&](Status s) { acked = s; });
    for (int i = 0; i < 200 && !acked; ++i) sched.RunFor(50 * kMillisecond);
    return acked.value_or(Err(ErrorCode::kTimeout, "no ack"));
  }

  sim::Scheduler sched;
  std::unique_ptr<SimCluster> cluster;
};

TEST_F(ClusterTest, PublishReachesSubscribersOnAllServers) {
  MakeCluster();
  // One subscriber pinned to each server.
  std::vector<std::unique_ptr<client::Client>> subs;
  std::vector<std::vector<std::uint64_t>> got(3);
  for (std::size_t i = 0; i < 3; ++i) {
    subs.push_back(MakeClient("sub-" + std::to_string(i), i));
    subs[i]->Subscribe("scores", [&got, i](const Message& m) {
      got[i].push_back(m.seq);
    });
  }
  auto pub = MakeClient("pub", 0);
  sched.RunFor(kSecond);

  for (int k = 0; k < 5; ++k) {
    EXPECT_TRUE(PublishAndWait(*pub, "scores", Bytes{static_cast<std::uint8_t>(k)}).ok());
  }
  sched.RunFor(kSecond);

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], (std::vector<std::uint64_t>{1, 2, 3, 4, 5})) << "server " << i;
  }
}

TEST_F(ClusterTest, TotalOrderAcrossPublishersOnDifferentServers) {
  MakeCluster();
  auto subA = MakeClient("sub-a", 0);
  auto subB = MakeClient("sub-b", 2);
  std::vector<StreamPos> gotA, gotB;
  subA->Subscribe("game", [&](const Message& m) { gotA.push_back(PosOf(m)); });
  subB->Subscribe("game", [&](const Message& m) { gotB.push_back(PosOf(m)); });

  auto pub1 = MakeClient("pub-1", 0);
  auto pub2 = MakeClient("pub-2", 1);
  sched.RunFor(kSecond);

  // Interleave publications from two publishers on different servers.
  for (int k = 0; k < 10; ++k) {
    auto& pub = (k % 2 == 0) ? *pub1 : *pub2;
    EXPECT_TRUE(PublishAndWait(pub, "game", Bytes{static_cast<std::uint8_t>(k)}).ok());
  }
  sched.RunFor(kSecond);

  // Both subscribers saw the same total order ("two users subscribed to the
  // same topic expect to receive its notifications in the same order").
  ASSERT_EQ(gotA.size(), 10u);
  EXPECT_EQ(gotA, gotB);
  for (std::size_t i = 1; i < gotA.size(); ++i) EXPECT_LT(gotA[i - 1], gotA[i]);
}

TEST_F(ClusterTest, CoordinatorIsSingleAndGossipPropagates) {
  MakeCluster();
  auto pub = MakeClient("pub", 0);
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "topic-x", Bytes{1}).ok());
  sched.RunFor(kSecond);

  const std::uint32_t group = TopicGroupOf("topic-x", 100);
  int coordinators = 0;
  std::set<std::string> gossipTargets;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).CoordinatesGroup(group)) ++coordinators;
    if (const auto entry = cluster->node(i).GossipEntry(group)) {
      gossipTargets.insert(entry->first);
    }
  }
  EXPECT_EQ(coordinators, 1);
  EXPECT_EQ(gossipTargets.size(), 1u);  // everyone agrees on the coordinator
}

TEST_F(ClusterTest, MessageReplicatedToAllCaches) {
  MakeCluster();
  auto pub = MakeClient("pub", 1);
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "replicated", Bytes{9}).ok());
  sched.RunFor(kSecond);
  // An acked publication is broadcast to all correct nodes (§5.2).
  for (std::size_t i = 0; i < 3; ++i) {
    const auto cached = cluster->node(i).cache().GetAfter("replicated", {0, 0});
    ASSERT_EQ(cached.size(), 1u) << "server " << i;
    EXPECT_EQ(cached[0].payload, Bytes{9});
  }
}

TEST_F(ClusterTest, SubscriberFailoverRecoversAllMessages) {
  MakeCluster();
  // Both clients carry the full server list (the paper's client-side
  // load-balancing model).
  auto sub = MakeClient("sub", {});
  std::vector<StreamPos> positions;
  std::vector<std::uint8_t> payloads;
  sub->Subscribe("failover", [&](const Message& m) {
    positions.push_back(PosOf(m));
    payloads.push_back(m.payload.at(0));
  });
  auto pub = MakeClient("pub-f", {});
  sched.RunFor(kSecond);

  ASSERT_TRUE(PublishAndWait(*pub, "failover", Bytes{1}).ok());
  sched.RunFor(500 * kMillisecond);
  ASSERT_EQ(positions.size(), 1u);

  // Crash the server the subscriber is attached to (indices of the client's
  // server list match cluster indices).
  const std::size_t subServer = sub->CurrentServerIndex().value();
  cluster->CrashServer(subServer);

  // Publish 5 more messages while the subscriber is reconnecting. The
  // publisher may itself be reconnecting; PublishAndWait absorbs retries.
  for (int k = 2; k <= 6; ++k) {
    EXPECT_TRUE(PublishAndWait(*pub, "failover", Bytes{static_cast<std::uint8_t>(k)}).ok());
  }
  sched.RunFor(5 * kSecond);

  // All messages received, in (epoch, seq) order, exactly once ("All clients
  // recover all messages published during the failover time from the cache
  // of the two remaining servers").
  EXPECT_EQ(payloads, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  for (std::size_t i = 1; i < positions.size(); ++i) {
    EXPECT_LT(positions[i - 1], positions[i]);
  }
  EXPECT_GT(sub->stats().reconnects, 0u);
}

TEST_F(ClusterTest, CoordinatorCrashElectsNewEpoch) {
  MakeCluster();
  auto pub = MakeClient("pub", {});
  auto sub = MakeClient("sub", {});
  std::vector<StreamPos> got;
  sub->Subscribe("epochs", [&](const Message& m) { got.push_back(PosOf(m)); });
  sched.RunFor(kSecond);

  ASSERT_TRUE(PublishAndWait(*pub, "epochs", Bytes{1}).ok());
  sched.RunFor(kSecond);

  const std::uint32_t group = TopicGroupOf("epochs", 100);
  std::size_t coordIndex = 99;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).CoordinatesGroup(group)) coordIndex = i;
  }
  ASSERT_LT(coordIndex, 3u);
  const std::uint32_t epochBefore = got.back().epoch;

  cluster->CrashServer(coordIndex);
  sched.RunFor(8 * kSecond);  // session expiry + watch + takeover

  // Publishing continues under a strictly higher epoch.
  ASSERT_TRUE(PublishAndWait(*pub, "epochs", Bytes{2}).ok());
  sched.RunFor(2 * kSecond);
  ASSERT_GE(got.size(), 2u);
  EXPECT_GT(got.back().epoch, epochBefore);
  // Order across the epoch change is preserved.
  for (std::size_t i = 1; i < got.size(); ++i) EXPECT_LT(got[i - 1], got[i]);
}

TEST_F(ClusterTest, PartitionedServerFencesItsClients) {
  MakeCluster();
  auto sub = MakeClient("sub", {});
  sub->Subscribe("fence-topic", [](const Message&) {});
  sched.RunFor(kSecond);
  ASSERT_TRUE(sub->IsConnected());

  // Which server is the subscriber on?
  const std::size_t victim = sub->CurrentServerIndex().value();
  ASSERT_EQ(cluster->node(victim).LocalClientCount(), 1u);

  cluster->PartitionServer(victim);
  sched.RunFor(5 * kSecond);

  // The partitioned node fenced itself ("preventively closes the connections
  // to its local clients") and the client reconnected elsewhere.
  EXPECT_TRUE(cluster->node(victim).IsFenced());
  EXPECT_GT(cluster->node(victim).metrics().fences.Value(), 0u);
  EXPECT_TRUE(sub->IsConnected());
  EXPECT_NE(sub->CurrentServerIndex().value(), victim);
  EXPECT_EQ(cluster->node(victim).LocalClientCount(), 0u);
}

TEST_F(ClusterTest, PartitionHealUnfencesAndRecoversCache) {
  MakeCluster();
  auto pub = MakeClient("pub", {});
  sched.RunFor(kSecond);

  const std::size_t victim = 2;
  cluster->PartitionServer(victim);
  sched.RunFor(5 * kSecond);
  ASSERT_TRUE(cluster->node(victim).IsFenced());

  // Publish while the victim is cut off (publisher must not be on victim —
  // it gets fenced off anyway and reconnects).
  ASSERT_TRUE(PublishAndWait(*pub, "during-partition", Bytes{7}).ok());
  sched.RunFor(kSecond);
  EXPECT_TRUE(cluster->node(victim).cache().GetAfter("during-partition", {0, 0}).empty());

  cluster->HealServer(victim);
  sched.RunFor(8 * kSecond);
  EXPECT_FALSE(cluster->node(victim).IsFenced());
  // Cache reconstructed from peers (§5.2.2 recovery procedure).
  const auto recovered = cluster->node(victim).cache().GetAfter("during-partition", {0, 0});
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].payload, Bytes{7});
}

TEST_F(ClusterTest, CrashedServerRestartsAndRebuildsCache) {
  MakeCluster();
  auto pub = MakeClient("pub", 0);
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "before-crash", Bytes{1}).ok());
  sched.RunFor(kSecond);

  cluster->CrashServer(2);
  sched.RunFor(2 * kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "while-down", Bytes{2}).ok());
  sched.RunFor(kSecond);

  cluster->RestartServer(2);
  sched.RunFor(8 * kSecond);

  // The restarted server rebuilt its cache by asking all members (§5.2.2).
  EXPECT_EQ(cluster->node(2).cache().GetAfter("before-crash", {0, 0}).size(), 1u);
  EXPECT_EQ(cluster->node(2).cache().GetAfter("while-down", {0, 0}).size(), 1u);
  EXPECT_GT(cluster->node(2).metrics().backfilled.Value(), 0u);
}

struct RestartOutcome {
  std::size_t published = 0;       // messages in the victim's cache pre-crash
  std::uint64_t walRecovered = 0;  // records replayed from its local WAL
  std::uint64_t peerBackfilled = 0;  // messages inserted from CacheSyncResp
  std::size_t finalCached = 0;     // its cache after convergence
};

/// Three servers, 200 publications over 8 topics through server 0, then a
/// kill -9 and restart of server 1. With `durable` every server keeps a
/// MemEnv WAL under its cache, fsynced per append.
RestartOutcome CrashAndRestartOneOfThree(bool durable) {
  sim::Scheduler sched;
  SimCluster::Options o;
  o.servers = 3;
  o.seed = 42;
  o.durableCache = durable;
  o.nodeConfig.topicGroups = 8;
  o.nodeConfig.wal.fsync = wal::FsyncPolicy::kAlways;
  o.nodeConfig.wal.segmentBytes = 256 * 1024;
  o.nodeConfig.wal.retainSegments = 64;
  SimCluster cluster(sched, o);
  cluster.StartAll();
  sched.RunFor(2 * kSecond);  // membership + gossip settle

  // Publish through server 0's client path (acks to the phantom handle are
  // dropped by the sim env; sequencing and broadcast are the same).
  cluster.node(0).OnClientConnect(1, "restart-pub");
  for (std::uint64_t i = 0; i < 200; ++i) {
    PublishFrame pub;
    pub.topic = "restart/" + std::to_string(i % 8);
    pub.payload.assign(256, static_cast<std::uint8_t>(i));
    pub.pubId = {0xBE7C4, i + 1};
    pub.wantAck = false;
    cluster.node(0).OnClientFrame(1, Frame(pub));
    sched.RunFor(2 * kMillisecond);
  }
  sched.RunFor(2 * kSecond);

  RestartOutcome r;
  r.published = cluster.node(1).cache().TotalMessages();
  cluster.CrashServer(1);
  sched.RunFor(500 * kMillisecond);
  cluster.RestartServer(1);  // replays the WAL before it rejoins
  sched.RunFor(5 * kSecond);  // peer sync + convergence
  r.walRecovered = cluster.node(1).lastWalRecovery().records;
  r.peerBackfilled = cluster.node(1).metrics().backfilled.Value();
  r.finalCached = cluster.node(1).cache().TotalMessages();
  return r;
}

// A restart with a volatile cache rebuilds everything from its peers
// (§5.2.2); with a WAL it replays its own records and asks the peers only for
// the delta past its cursors. Both end with the full stream.
TEST(ClusterRecoveryTest, WalReplayLeavesPeersOnlyTheDelta) {
  const RestartOutcome volatileRestart = CrashAndRestartOneOfThree(false);
  const RestartOutcome walRestart = CrashAndRestartOneOfThree(true);
  ASSERT_GT(volatileRestart.published, 0u);
  EXPECT_GE(volatileRestart.peerBackfilled, volatileRestart.published);
  EXPECT_GE(walRestart.walRecovered, 1u);
  EXPECT_LT(walRestart.peerBackfilled, volatileRestart.peerBackfilled);
  EXPECT_GE(volatileRestart.finalCached, volatileRestart.published);
  EXPECT_GE(walRestart.finalCached, volatileRestart.published);
}

TEST_F(ClusterTest, ManyTopicsSpreadCoordinatorsAcrossServers) {
  MakeCluster();
  auto pub = MakeClient("pub", 0);
  sched.RunFor(kSecond);
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(PublishAndWait(*pub, "spread-" + std::to_string(t), Bytes{1}).ok());
  }
  sched.RunFor(kSecond);

  // Coordinator responsibilities should not all pile on one server (the
  // random-designation indirection, paper footnote 2).
  int perServer[3] = {0, 0, 0};
  for (int t = 0; t < 20; ++t) {
    const std::uint32_t group = TopicGroupOf("spread-" + std::to_string(t), 100);
    for (std::size_t i = 0; i < 3; ++i) {
      if (cluster->node(i).CoordinatesGroup(group)) perServer[i]++;
    }
  }
  const int total = perServer[0] + perServer[1] + perServer[2];
  EXPECT_GE(total, 15);               // groups may repeat across topics
  EXPECT_LT(perServer[0], total);     // not everything on server 0
}

// Property: under a random single fault injected mid-stream, every acked
// publication is delivered to a continuously-reconnecting subscriber exactly
// once and in order.
class ClusterFaultProperty : public ClusterTest,
                             public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(ClusterFaultProperty, AckedMessagesSurviveOneFault) {
  MakeCluster(3, GetParam());
  Rng rng(GetParam() * 13 + 7);

  auto sub = MakeClient("sub", {});
  std::vector<StreamPos> positions;
  std::vector<std::uint8_t> payloads;
  sub->Subscribe("prop", [&](const Message& m) {
    positions.push_back(PosOf(m));
    payloads.push_back(m.payload.at(0));
  });
  auto pub = MakeClient("pub", {});
  sched.RunFor(kSecond);

  std::set<std::uint8_t> acked;
  const int faultAt = 3 + static_cast<int>(rng.NextBelow(5));
  std::optional<std::size_t> crashed;
  for (int k = 0; k < 12; ++k) {
    if (k == faultAt) {
      // Crash or partition a random server (single-fault model).
      const std::size_t victim = rng.NextBelow(3);
      if (rng.NextBool(0.5)) {
        cluster->CrashServer(victim);
        crashed = victim;
      } else {
        cluster->PartitionServer(victim);
        sched.RunFor(3 * kSecond);  // let it fence
      }
    }
    if (PublishAndWait(*pub, "prop", Bytes{static_cast<std::uint8_t>(k)}).ok()) {
      acked.insert(static_cast<std::uint8_t>(k));
    }
    sched.RunFor(200 * kMillisecond);
  }
  if (crashed) cluster->RestartServer(*crashed);
  sched.RunFor(10 * kSecond);

  // Completeness: every acked publication was delivered.
  const std::set<std::uint8_t> seen(payloads.begin(), payloads.end());
  for (const std::uint8_t k : acked) {
    EXPECT_TRUE(seen.contains(k)) << "acked publication " << int(k) << " lost";
  }
  // Exactly-once at the application: no duplicates survived the filter.
  EXPECT_EQ(seen.size(), payloads.size());
  // Total order by (epoch, seq) — raw seq restarts when the epoch bumps.
  for (std::size_t i = 1; i < positions.size(); ++i) {
    EXPECT_LT(positions[i - 1], positions[i]) << "order violated at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFaultProperty,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace md::cluster
