// Deterministic chaos harness tests: seed-swept fault schedules against the
// full simulated cluster with delivery-invariant checking (chaos.hpp), plus
// unit coverage for the FaultPlan generator/parser and the InvariantChecker
// itself (it must actually detect broken streams, or green runs mean
// nothing).
#include "cluster/chaos.hpp"

#include <gtest/gtest.h>

#include "common/hash.hpp"

namespace md::cluster {
namespace {

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, GenerateIsDeterministicAndMeetsMinimum) {
  const FaultPlan a = FaultPlan::Generate(7, 3, 5);
  const FaultPlan b = FaultPlan::Generate(7, 3, 5);
  EXPECT_EQ(a.events, b.events);
  EXPECT_GE(a.events.size(), 5u);
  const FaultPlan c = FaultPlan::Generate(8, 3, 5);
  EXPECT_NE(a.events, c.events);
}

TEST(FaultPlanTest, WindowsAreSerializedWithRecoveryGaps) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(seed, 3, 5);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      const auto& ev = plan.events[i];
      EXPECT_LT(ev.victim, 3u);
      EXPECT_GT(ev.duration, 0);
      if (ev.kind == FaultEvent::Kind::kLinkFlap) {
        EXPECT_NE(ev.victim, ev.peer);
        EXPECT_LT(ev.peer, 3u);
      }
      if (ev.kind == FaultEvent::Kind::kPartition) {
        // Long enough to observe quorum-loss fencing.
        EXPECT_GE(ev.duration, ChaosDriver::kFenceObservable);
      }
      if (i > 0) {
        // Single-fault model: the previous window ended, plus a recovery gap.
        const auto& prev = plan.events[i - 1];
        EXPECT_GE(ev.at, prev.at + prev.duration + 5 * kSecond);
      }
    }
  }
}

TEST(FaultPlanTest, ToStringParseRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(seed, 3, 5);
    const auto parsed = FaultPlan::Parse(plan.ToString(), 3);
    ASSERT_TRUE(parsed.has_value()) << plan.ToString();
    EXPECT_EQ(parsed->events, plan.events) << plan.ToString();
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::Parse("nonsense", 3).has_value());
  EXPECT_FALSE(FaultPlan::Parse("crash:5@100+200", 3).has_value());  // victim
  EXPECT_FALSE(FaultPlan::Parse("crash:1@100", 3).has_value());      // no dur
  EXPECT_FALSE(FaultPlan::Parse("flap:1@100+200", 3).has_value());   // no peer
  EXPECT_FALSE(FaultPlan::Parse("crash:1@100+0", 3).has_value());    // dur 0
  const auto ok = FaultPlan::Parse("crash:1@100+200;flap:0-2@900+300", 3);
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->events.size(), 2u);
  EXPECT_EQ(ok->events[1].kind, FaultEvent::Kind::kLinkFlap);
  EXPECT_EQ(ok->events[1].peer, 2u);
  EXPECT_EQ(ok->events[1].at, 900 * kMillisecond);
}

TEST(FaultPlanTest, SlowSubscriberEventsGenerateAndRoundTrip) {
  // "slow" victims index *subscribers*, not servers — their bound is the
  // subscriber count, even on a single-server plan.
  const auto ok = FaultPlan::Parse("slow:2@1000+4000", /*servers=*/1,
                                   /*subscribers=*/3);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->events[0].kind, FaultEvent::Kind::kSlowSubscriber);
  EXPECT_EQ(ok->events[0].victim, 2u);
  EXPECT_EQ(ok->ToString(), "slow:2@1000+4000");
  EXPECT_FALSE(
      FaultPlan::Parse("slow:3@1000+4000", 3, /*subscribers=*/3).has_value());

  // The generator mixes slow-subscriber windows into the schedule (and never
  // emits them when there are no subscribers to stall).
  std::size_t slowEvents = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const auto& ev :
         FaultPlan::Generate(seed, 3, 5, /*subscribers=*/3).events) {
      if (ev.kind == FaultEvent::Kind::kSlowSubscriber) {
        ++slowEvents;
        EXPECT_LT(ev.victim, 3u);
        // Long enough to overrun soft watermark + eviction grace.
        EXPECT_GE(ev.duration, 4 * kSecond);
      }
    }
    for (const auto& ev :
         FaultPlan::Generate(seed, 3, 5, /*subscribers=*/0).events) {
      EXPECT_NE(ev.kind, FaultEvent::Kind::kSlowSubscriber);
    }
  }
  EXPECT_GE(slowEvents, 5u);
}

TEST(FaultPlanTest, DurabilityKindsParseAndRoundTrip) {
  // Cluster-wide kill -9.
  auto plan = FaultPlan::Parse("crash:all@5000+3000", 3);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 1u);
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kCrashAll);
  EXPECT_EQ(plan->events[0].at, 5000 * kMillisecond);
  EXPECT_EQ(plan->ToString(), "crash:all@5000+3000");

  // Latent disk damage events are one-way: no "+duration".
  plan = FaultPlan::Parse("flip:1@2000", 3);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kWalBitFlip);
  EXPECT_EQ(plan->events[0].victim, 1u);
  EXPECT_EQ(plan->ToString(), "flip:1@2000");

  plan = FaultPlan::Parse("torn:0@2500", 3);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kWalTornTail);
  EXPECT_EQ(plan->ToString(), "torn:0@2500");

  // ENOSPC is a window: appends fail while it lasts, then the disk frees up.
  plan = FaultPlan::Parse("full:2@8000+3000", 3);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kDiskFull);
  EXPECT_EQ(plan->events[0].duration, 3000 * kMillisecond);
  EXPECT_EQ(plan->ToString(), "full:2@8000+3000");

  // Victim bounds still apply to the WAL kinds.
  EXPECT_FALSE(FaultPlan::Parse("flip:3@2000", 3).has_value());
  EXPECT_FALSE(FaultPlan::Parse("torn:9@2000", 3).has_value());
  EXPECT_FALSE(FaultPlan::Parse("full:3@2000+1000", 3).has_value());
}

TEST(FaultPlanTest, GenerateDurabilityIsDeterministicAndModeConsistent) {
  const FaultPlan a = FaultPlan::GenerateDurability(7, 3, 4);
  const FaultPlan b = FaultPlan::GenerateDurability(7, 3, 4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.events, FaultPlan::GenerateDurability(8, 3, 4).events);

  std::size_t crashAllPlans = 0;
  std::size_t diskFaultPlans = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = FaultPlan::GenerateDurability(seed, 3, 4);
    EXPECT_GE(plan.events.size(), 1u);
    bool hasCrashAll = false;
    bool hasDiskFault = false;
    for (const auto& ev : plan.events) {
      if (ev.kind != FaultEvent::Kind::kCrashAll &&
          ev.kind != FaultEvent::Kind::kSlowSubscriber) {
        EXPECT_LT(ev.victim, 3u);
      }
      if (ev.kind == FaultEvent::Kind::kCrashAll) hasCrashAll = true;
      if (ev.kind == FaultEvent::Kind::kWalBitFlip ||
          ev.kind == FaultEvent::Kind::kWalTornTail ||
          ev.kind == FaultEvent::Kind::kDiskFull) {
        hasDiskFault = true;
      }
    }
    // The union audit after a cluster-wide kill -9 is only sound when no
    // disk was damaged: the generator must never mix the two modes.
    EXPECT_FALSE(hasCrashAll && hasDiskFault) << "seed " << seed;
    crashAllPlans += hasCrashAll;
    diskFaultPlans += hasDiskFault;
  }
  // Both modes actually occur across the sweep.
  EXPECT_GE(crashAllPlans, 5u);
  EXPECT_GE(diskFaultPlans, 5u);

  // A single server cannot run mode B (peer backfill needs a peer).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const auto& ev : FaultPlan::GenerateDurability(seed, 1, 3).events) {
      EXPECT_NE(ev.kind, FaultEvent::Kind::kWalBitFlip);
      EXPECT_NE(ev.kind, FaultEvent::Kind::kWalTornTail);
    }
  }
}

// --- InvariantChecker -------------------------------------------------------

Message Msg(const std::string& topic, std::uint32_t epoch, std::uint64_t seq,
            std::uint64_t pubCounter) {
  Message m;
  m.topic = topic;
  m.payload = {static_cast<std::uint8_t>(pubCounter)};
  m.epoch = epoch;
  m.seq = seq;
  m.pubId = {0xABCD, pubCounter};
  return m;
}

TEST(InvariantCheckerTest, CleanStreamPasses) {
  InvariantChecker c;
  c.AddSubscription("s", "t");
  c.OnAck("t", {0xABCD, 1});
  c.OnAck("t", {0xABCD, 2});
  c.OnDelivery("s", Msg("t", 1, 1, 1), false);
  c.OnDelivery("s", Msg("t", 1, 2, 2), false);
  c.OnDelivery("s", Msg("t", 1, 2, 2), true);  // filtered duplicate: fine
  EXPECT_TRUE(c.Check().empty());
  EXPECT_EQ(c.duplicatesFiltered(), 1u);
}

TEST(InvariantCheckerTest, DetectsOrderRegression) {
  InvariantChecker c;
  c.OnDelivery("s", Msg("t", 1, 5, 1), false);
  c.OnDelivery("s", Msg("t", 1, 4, 2), false);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[order]"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsUnfilteredDuplicate) {
  InvariantChecker c;
  c.OnDelivery("s", Msg("t", 1, 1, 7), false);
  c.OnDelivery("s", Msg("t", 2, 1, 7), false);  // same pubId re-delivered
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[dup]"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsLossOfAckedPublication) {
  InvariantChecker c;
  c.AddSubscription("s1", "t");
  c.AddSubscription("s2", "t");
  c.OnAck("t", {0xABCD, 1});
  c.OnDelivery("s1", Msg("t", 1, 1, 1), false);  // s2 never gets it
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[loss]"), std::string::npos) << v[0];
  EXPECT_NE(v[0].find("s2"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsPositionDisagreement) {
  InvariantChecker c;
  c.OnDelivery("s1", Msg("t", 1, 1, 1), false);
  c.OnDelivery("s2", Msg("t", 1, 1, 2), false);  // different data, same pos
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[agreement]"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsFencingFailures) {
  InvariantChecker c;
  c.OnPartitionObservation(1, /*fenced=*/false, 0);
  c.OnPartitionObservation(2, /*fenced=*/true, 3);  // kept its clients
  c.OnFinalFenceState(0, /*fenced=*/true);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 3u);
  for (const auto& s : v) EXPECT_NE(s.find("[fence]"), std::string::npos) << s;
}

TEST(InvariantCheckerTest, ConsistentMetricsTotalsPass) {
  InvariantChecker c;
  c.AddSubscription("s", "t");
  c.OnAck("t", {0xABCD, 1});
  c.OnDelivery("s", Msg("t", 1, 1, 1), false);
  c.OnDelivery("s", Msg("t", 1, 1, 1), true);  // filtered duplicate
  InvariantChecker::MetricsTotals t;
  t.published = 1;   // == acked
  t.delivered = 2;   // == post-filter + filtered receipts
  t.fences = 1;
  t.unfences = 1;
  t.failoverMaxNs = 2 * kSecond;
  t.failoverBound = 10 * kSecond;
  c.OnMetricsTotals(t);
  EXPECT_TRUE(c.Check().empty());
}

TEST(InvariantCheckerTest, DetectsCounterDriftFromGroundTruth) {
  InvariantChecker c;
  c.AddSubscription("s", "t");
  c.OnAck("t", {0xABCD, 1});
  c.OnDelivery("s", Msg("t", 1, 1, 1), false);
  c.OnDelivery("s", Msg("t", 1, 1, 1), true);
  InvariantChecker::MetricsTotals t;
  t.published = 0;  // below the 1 acked publication
  t.delivered = 1;  // below the 2 client-observed receipts
  c.OnMetricsTotals(t);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 2u);
  for (const auto& s : v) EXPECT_NE(s.find("[metrics]"), std::string::npos) << s;
}

TEST(InvariantCheckerTest, DetectsFenceCounterMismatch) {
  InvariantChecker c;
  c.OnPartitionObservation(1, /*fenced=*/true, 0);
  InvariantChecker::MetricsTotals t;
  t.fences = 0;    // a fenced partition was observed, so >= 1 expected
  t.unfences = 1;  // exceeds the fence count
  c.OnMetricsTotals(t);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 2u);
  for (const auto& s : v) EXPECT_NE(s.find("[metrics]"), std::string::npos) << s;
}

TEST(InvariantCheckerTest, DetectsUnterminatedFenceSpans) {
  InvariantChecker c;
  InvariantChecker::MetricsTotals t;
  t.fences = 3;  // only one crash and one unfence can absorb a span
  t.unfences = 1;
  t.crashFaults = 1;
  t.stillFenced = 0;
  c.OnMetricsTotals(t);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[metrics]"), std::string::npos) << v[0];
  EXPECT_NE(v[0].find("exceeds unfences"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsFailoverSpanBeyondBoundAndNegativeGauge) {
  InvariantChecker c;
  InvariantChecker::MetricsTotals t;
  t.failoverBound = 1 * kSecond;
  t.failoverMaxNs = 2 * kSecond;  // fence span exceeds the fault-window bound
  t.replicationPendingSum = -1;   // unbalanced gauge (double decrement)
  c.OnMetricsTotals(t);
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 2u);
  for (const auto& s : v) EXPECT_NE(s.find("[metrics]"), std::string::npos) << s;
}

TEST(InvariantCheckerTest, DetectsHardWatermarkOverrun) {
  InvariantChecker c;
  c.OnPendingSample(0, 400, 500);  // under the mark
  c.OnPendingSample(1, 500, 500);  // pinned exactly at the mark: allowed
  EXPECT_TRUE(c.Check().empty());
  EXPECT_EQ(c.maxPendingObserved(), 500u);
  c.OnPendingSample(2, 501, 500);  // one byte over: violation
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[backpressure] server 2"), std::string::npos) << v[0];
}

TEST(InvariantCheckerTest, DetectsCacheHole) {
  InvariantChecker c;
  c.OnAck("t", {0xABCD, 1});
  c.OnFinalCache(0, "t", {{0xABCD, 1}});
  c.OnFinalCache(1, "t", {});  // replication hole
  const auto v = c.Check();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("[cache] server 1"), std::string::npos) << v[0];
}

// --- End-to-end chaos runs --------------------------------------------------

// Each seed drives a distinct randomized schedule of >= 5 serialized fault
// windows (crashes, partitions, link flaps) against a 3-server cluster with
// real client-library traffic, then checks every delivery invariant. The
// second run of the same seed must produce a byte-identical event trace.
class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeeds, InvariantsHoldAndTraceIsReproducible) {
  ChaosOptions opts;
  opts.seed = GetParam();
  const ChaosReport a = ChaosDriver(opts).Run();

  EXPECT_GE(a.plan.events.size(), 5u);
  std::size_t faultsApplied = 0;
  for (const auto& line : a.trace) {
    if (line.rfind("fault ", 0) == 0) ++faultsApplied;
  }
  EXPECT_EQ(faultsApplied, a.plan.events.size());
  EXPECT_GT(a.acked, 0u);
  EXPECT_GT(a.deliveries, 0u);

  // The report's registry snapshot is coupled to the run: server-side
  // counters bound the client-side observations (also asserted as [metrics]
  // invariants inside Check(), repeated here against the exposed snapshot).
  EXPECT_GE(a.metrics.Total("md_cluster_published_total"),
            static_cast<double>(a.acked));
  EXPECT_GE(a.metrics.Total("md_cluster_delivered_total"),
            static_cast<double>(a.deliveries + a.duplicatesFiltered));
  EXPECT_NE(a.metrics.Family("md_cluster_failover_ns"), nullptr);

  std::string joined;
  for (const auto& v : a.violations) joined += "\n  " + v;
  EXPECT_TRUE(a.Passed()) << "seed " << GetParam() << " violations:" << joined
                          << "\nrepro: md_chaos --seed " << GetParam()
                          << " --events \"" << a.plan.ToString() << "\"";

  const ChaosReport b = ChaosDriver(opts).Run();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverged at line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

// Pins the protocol's observable behaviour across commits: the seeded runs
// above only compare two runs of one binary, so a refactor that changes what
// the cluster does would still pass them. Each constant is the FNV-1a hash of
// the run's trace lines, each followed by a newline, recorded before
// ClusterNode's per-group state was folded into one record. A constant may
// change only together with a CHANGES.md entry that names the trace lines
// that moved and explains why.
TEST(ChaosDriverTest, TracesMatchPinnedHashes) {
  struct Pinned {
    const char* name;
    ChaosOptions opts;
    std::uint64_t hash;
  };
  std::vector<Pinned> runs(4);
  runs[0] = {"seed 3", {}, 0x17e418287c4eb02cULL};
  runs[0].opts.seed = 3;
  runs[1] = {"seed 5 elastic", {}, 0xc8a1f909601127c4ULL};
  runs[1].opts.seed = 5;
  runs[1].opts.elastic = true;
  runs[2] = {"seed 4 durability", {}, 0x28e6c490c9bdc5c0ULL};
  runs[2].opts.seed = 4;
  runs[2].opts.durability = true;
  runs[3] = {"seed 7, 5 servers", {}, 0x3e51f843e55e5049ULL};
  runs[3].opts.seed = 7;
  runs[3].opts.servers = 5;
  for (const Pinned& run : runs) {
    const ChaosReport report = ChaosDriver(run.opts).Run();
    std::string joined;
    for (const std::string& line : report.trace) joined += line + "\n";
    EXPECT_EQ(Fnv1a64(joined), run.hash)
        << run.name << ": trace hash 0x" << std::hex << Fnv1a64(joined);
  }
}

// An explicit plan (as parsed from a --events repro line) replaces the
// generated schedule, so a reported violation replays outside the sweep.
TEST(ChaosDriverTest, ExplicitPlanOverridesGeneratedSchedule) {
  ChaosOptions opts;
  opts.seed = 3;
  opts.plan = FaultPlan::Parse("crash:0@1500+2500;part:1@11000+6000", 3);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();
  EXPECT_EQ(report.plan.events, opts.plan->events);
  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;
  bool sawCrash = false;
  bool sawPartition = false;
  for (const auto& line : report.trace) {
    if (line.rfind("fault crash server-0", 0) == 0) sawCrash = true;
    if (line.rfind("fault partition server-1", 0) == 0) sawPartition = true;
  }
  EXPECT_TRUE(sawCrash);
  EXPECT_TRUE(sawPartition);
}

// A subscriber whose reads stall for 6 simulated seconds must be *evicted*
// by the overflow policy (the send queue stays bounded by the hard
// watermark — the [backpressure] sampler checks that throughout), and after
// resuming it must reconnect and converge to the complete stream: the
// standard [loss]/[order]/[dup] invariants cover exactly-once recovery.
TEST(ChaosDriverTest, SlowSubscriberIsEvictedAndReconvergesAfterResume) {
  ChaosOptions opts;
  opts.seed = 11;
  opts.plan = FaultPlan::Parse("slow:0@2000+6000", opts.servers,
                               opts.subscribers);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();

  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;

  bool sawStall = false;
  bool sawResume = false;
  for (const auto& line : report.trace) {
    if (line.rfind("fault slow sub-0", 0) == 0) sawStall = true;
    if (line.rfind("recover slow-end sub-0", 0) == 0) sawResume = true;
  }
  EXPECT_TRUE(sawStall);
  EXPECT_TRUE(sawResume);

  // The policy did real work: the stalled session crossed the soft mark and
  // was disconnected at least once (chaos watermarks are sized so a 6 s
  // stall cannot ride out the grace period).
  EXPECT_GE(report.metrics.Total("md_slow_consumer_soft_overflows_total"), 1.0);
  EXPECT_GE(report.metrics.Total("md_slow_consumer_disconnects_total"), 1.0);
  // Excursions are transient state: nothing may stay over-soft post-quiesce.
  EXPECT_EQ(report.metrics.Total("md_slow_consumer_sessions_over_soft"), 0.0);
  // The queue depth is sampled on every over-soft send, not once per
  // crossing, so its max is the peak backlog — which the hard mark bounds.
  const auto* depth = report.metrics.Find("md_slow_consumer_queue_depth_bytes");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(static_cast<double>(depth->count),
            report.metrics.Total("md_slow_consumer_soft_overflows_total"));
  EXPECT_LE(depth->max,
            static_cast<std::int64_t>(opts.clientBackpressure.hardWatermark));
}

// --- Durability chaos -------------------------------------------------------

// The tentpole end-to-end property: kill -9 the WHOLE cluster mid-run and
// every acked publication must come back out of the local WALs — the union
// audit at the restart instant runs before any peer backfill or client
// republish can paper over a loss. The standard exactly-once invariants
// then cover the rest of the run.
TEST(ChaosDriverTest, ClusterWideKillNineRecoversAckedFromLocalWal) {
  ChaosOptions opts;
  opts.seed = 5;
  opts.durability = true;
  opts.plan = FaultPlan::Parse("crash:all@5000+3000", opts.servers);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();

  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;

  bool sawOutage = false;
  bool sawRestart = false;
  std::size_t audits = 0;
  for (const auto& line : report.trace) {
    if (line.rfind("fault crash all", 0) == 0) sawOutage = true;
    if (line.rfind("recover restart all", 0) == 0) sawRestart = true;
    if (line.rfind("observe durability ", 0) == 0) {
      ++audits;
      EXPECT_NE(line.find(" missing=0"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(sawOutage);
  EXPECT_TRUE(sawRestart);
  EXPECT_GE(audits, 1u) << "the union audit must actually have run";
  EXPECT_GT(report.acked, 0u);

  // WAL plumbing did real work and recovery was observed server-side.
  EXPECT_GE(report.metrics.Total("md_wal_appends_total"), 1.0);
  EXPECT_GE(report.metrics.Total("md_wal_recovered_records_total"), 1.0);
}

// Latent bit flip under one server's WAL, then kill -9 that server over the
// damage: recovery skips the corrupt record (counted, never a crash) and the
// per-topic (epoch, seq) cursors backfill the hole from peers, so the final
// cache-coherence check still passes.
TEST(ChaosDriverTest, BitFlipDamageIsHealedByPeerBackfill) {
  ChaosOptions opts;
  opts.seed = 9;
  opts.durability = true;
  opts.plan = FaultPlan::Parse("flip:1@3000;crash:1@6000+2500", opts.servers);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();

  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;

  bool sawFlip = false;
  bool sawRestart = false;
  for (const auto& line : report.trace) {
    if (line.rfind("fault wal-flip server-1", 0) == 0) sawFlip = true;
    if (line.rfind("recover restart server-1", 0) == 0) sawRestart = true;
  }
  EXPECT_TRUE(sawFlip);
  EXPECT_TRUE(sawRestart);
}

// Two kill -9s of the same server: the second recovery replays segments the
// first one wrote after ITS recovery (fresh segment indices above the old
// ones), so nothing from either generation is lost or doubled.
TEST(ChaosDriverTest, DoubleKillNineOfOneServerStaysExactlyOnce) {
  ChaosOptions opts;
  opts.seed = 13;
  opts.durability = true;
  opts.plan = FaultPlan::Parse("crash:1@2000+2500;crash:1@9500+2500",
                               opts.servers);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();
  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;
  std::size_t restarts = 0;
  for (const auto& line : report.trace) {
    if (line.rfind("recover restart server-1", 0) == 0) ++restarts;
  }
  EXPECT_EQ(restarts, 2u);
}

// ENOSPC window: appends fail (counted), the server keeps serving from
// memory, and once the disk frees up the log is usable again.
TEST(ChaosDriverTest, DiskFullWindowIsSurvivable) {
  ChaosOptions opts;
  opts.seed = 21;
  opts.durability = true;
  opts.plan = FaultPlan::Parse("full:0@4000+3000", opts.servers);
  ASSERT_TRUE(opts.plan.has_value());
  const ChaosReport report = ChaosDriver(opts).Run();
  std::string joined;
  for (const auto& v : report.violations) joined += "\n  " + v;
  EXPECT_TRUE(report.Passed()) << joined;
  bool sawFullEnd = false;
  for (const auto& line : report.trace) {
    if (line.rfind("recover wal-full-end server-0", 0) == 0) sawFullEnd = true;
  }
  EXPECT_TRUE(sawFullEnd);
}

// Durability seed sweep: generated crash/disk-fault schedules with the WAL
// under every cache; traces must be reproducible like the base sweep.
class DurabilityChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurabilityChaosSeeds, InvariantsHoldUnderWalFaults) {
  ChaosOptions opts;
  opts.seed = GetParam();
  opts.durability = true;
  const ChaosReport a = ChaosDriver(opts).Run();
  std::string joined;
  for (const auto& v : a.violations) joined += "\n  " + v;
  EXPECT_TRUE(a.Passed())
      << "seed " << GetParam() << " violations:" << joined
      << "\nrepro: md_chaos --seed " << GetParam()
      << " --durability --events \"" << a.plan.ToString() << "\"";
  EXPECT_GT(a.acked, 0u);
  EXPECT_GE(a.metrics.Total("md_wal_appends_total"), 1.0);

  const ChaosReport b = ChaosDriver(opts).Run();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverged at line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace md::cluster
