// Detection coverage for the runtime verification monitor: every invariant
// kind must fire — with the right md_invariant_violations_total{kind=...}
// label and a report naming the offending topic/session/position — both on
// real violating streams and through the one-shot InjectFault hook (which
// must fire *exactly once* and never cascade, because stream state always
// advances with the original event).
#include "verify/monitor.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cluster/chaos.hpp"
#include "obs/metrics.hpp"

namespace md::verify {
namespace {

constexpr std::uint64_t kSession = 42;
constexpr char kTopic[] = "sensors/a";

PublicationId Pub(std::uint64_t counter) { return {7, counter}; }

/// Feeds the clean continuation 1:from .. 1:to of the test stream.
void Feed(Monitor& m, std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t i = from; i <= to; ++i) {
    m.OnDelivery(kSession, kTopic, {1, i}, Pub(i));
  }
}

double KindValue(obs::MetricsRegistry& registry, ViolationKind kind) {
  return registry.Snapshot().Value(
      "md_invariant_violations_total",
      std::string("kind=\"") + ViolationKindName(kind) + "\"");
}

// --- real violations (no injection) -----------------------------------------

TEST(MonitorDetectTest, FlagsRealOrderRegression) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 3);
  m.OnDelivery(kSession, kTopic, {1, 2}, Pub(9));  // behind the stream head
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kOrder), 1u);
  EXPECT_EQ(KindValue(registry, ViolationKind::kOrder), 1.0);
  const auto reports = m.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, ViolationKind::kOrder);
  EXPECT_EQ(reports[0].detail,
            "[order] session 42/sensors/a: pos 1:2 delivered after 1:3");
}

TEST(MonitorDetectTest, FlagsRealSequenceGapButNotEpochTransition) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 2);
  m.OnDelivery(kSession, kTopic, {2, 1}, Pub(3));  // new epoch: not a gap
  EXPECT_EQ(m.ViolationCount(), 0u);
  m.OnDelivery(kSession, kTopic, {2, 6}, Pub(4));  // same-epoch jump of 5
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kGap), 1u);
  EXPECT_EQ(m.Reports()[0].detail,
            "[gap] session 42/sensors/a: seq jumped 2:1 -> 2:6 (4 missed)");
}

TEST(MonitorDetectTest, FlagsRealReplayViaRecentWindow) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 3);
  m.OnDelivery(kSession, kTopic, {1, 2}, Pub(2));  // exact (pos, id) replay
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kDuplicate), 1u);
  EXPECT_EQ(m.Reports()[0].detail,
            "[duplicate] session 42/sensors/a: publication 7#2 re-emitted "
            "at 1:2");
}

TEST(MonitorDetectTest, FlagsRealBackpressureOverrunButNotAtTheMark) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.OnBackpressure(9, 500, 500);  // pinned at the mark: allowed
  EXPECT_EQ(m.ViolationCount(), 0u);
  m.OnBackpressure(9, 501, 500);
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kBackpressure), 1u);
  EXPECT_EQ(m.Reports()[0].detail,
            "[backpressure] session 9 buffered 501 bytes toward one client, "
            "over the 500-byte hard watermark");
}

TEST(MonitorDetectTest, FlagsRealCounterRegression) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.OnCounterSample("md_x_total{server=\"a\"}", 5);
  m.OnCounterSample("md_x_total{server=\"a\"}", 7);  // monotone: fine
  EXPECT_EQ(m.ViolationCount(), 0u);
  m.OnCounterSample("md_x_total{server=\"a\"}", 3);
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kMetrics), 1u);
  EXPECT_EQ(m.Reports()[0].detail,
            "[metrics] counter md_x_total{server=\"a\"} regressed 7.000000 "
            "-> 3.000000");
}

TEST(MonitorDetectTest, FlagsRealRecoveryAuditMiss) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.OnRecoveryAudit("server-2", 0);  // clean audit: no violation
  EXPECT_EQ(m.ViolationCount(), 0u);
  m.OnRecoveryAudit("server-2", 3);
  ASSERT_EQ(m.ViolationCount(), 1u);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kDurability), 1u);
  EXPECT_EQ(m.Reports()[0].detail,
            "[durability] server-2: 3 acked publication(s) missing after "
            "recovery");
}

// --- injection: each kind fires exactly once --------------------------------

TEST(MonitorDetectTest, InjectedOrderFaultFiresExactlyOnce) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 3);
  m.InjectFault(ViolationKind::kOrder);
  Feed(m, 4, 13);  // first observation carries the fault; rest stay clean
  EXPECT_EQ(m.ViolationCount(ViolationKind::kOrder), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(KindValue(registry, ViolationKind::kOrder), 1.0);
  // The injected observation is judged against the *real* stream head (1:3),
  // so the report still names the live topic/session/position.
  EXPECT_EQ(m.Reports()[0].detail,
            "[order] session 42/sensors/a: pos 1:3 delivered after 1:3");
}

TEST(MonitorDetectTest, InjectedGapFaultFiresExactlyOnce) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 3);
  m.InjectFault(ViolationKind::kGap);
  Feed(m, 4, 13);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kGap), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(m.Reports()[0].detail,
            "[gap] session 42/sensors/a: seq jumped 1:3 -> 1:8 (4 missed)");
}

TEST(MonitorDetectTest, InjectedDuplicateFaultFiresExactlyOnce) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  Feed(m, 1, 3);
  m.InjectFault(ViolationKind::kDuplicate);
  Feed(m, 4, 13);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kDuplicate), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(m.Reports()[0].detail,
            "[duplicate] session 42/sensors/a: publication 7#3 re-emitted "
            "at 1:3");
}

TEST(MonitorDetectTest, InjectedBackpressureFaultFiresExactlyOnce) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.InjectFault(ViolationKind::kBackpressure);
  for (int i = 0; i < 10; ++i) m.OnBackpressure(9, 100, 500);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kBackpressure), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(m.Reports()[0].detail,
            "[backpressure] session 9 buffered 601 bytes toward one client, "
            "over the 500-byte hard watermark");
}

TEST(MonitorDetectTest, InjectedMetricsFaultFiresExactlyOnceAndKeepsTruth) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.OnCounterSample("md_x_total{}", 5);
  m.InjectFault(ViolationKind::kMetrics);
  m.OnCounterSample("md_x_total{}", 6);  // mutated to 4 for the verdict only
  m.OnCounterSample("md_x_total{}", 6);  // real value was stored: no regress
  m.OnCounterSample("md_x_total{}", 7);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kMetrics), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(m.Reports()[0].detail,
            "[metrics] counter md_x_total{} regressed 5.000000 -> 4.000000");
}

TEST(MonitorDetectTest, InjectedDurabilityFaultFiresExactlyOnce) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  m.InjectFault(ViolationKind::kDurability);
  for (int i = 0; i < 5; ++i) m.OnRecoveryAudit("server-1", 0);
  EXPECT_EQ(m.ViolationCount(ViolationKind::kDurability), 1u);
  EXPECT_EQ(m.ViolationCount(), 1u) << "injected fault cascaded";
  EXPECT_EQ(m.Reports()[0].detail,
            "[durability] server-1: 1 acked publication(s) missing after "
            "recovery");
}

TEST(MonitorDetectTest, EveryKindLabelIsPreRegisteredAndIndependent) {
  obs::MetricsRegistry registry;
  Monitor m(registry, {});
  // Schema complete before any violation.
  for (std::size_t k = 0; k < kViolationKindCount; ++k) {
    EXPECT_EQ(KindValue(registry, static_cast<ViolationKind>(k)), 0.0);
  }
  Feed(m, 1, 2);
  for (std::size_t k = 0; k < kViolationKindCount; ++k) {
    m.InjectFault(static_cast<ViolationKind>(k));
  }
  Feed(m, 3, 22);  // consumes duplicate, order, gap (one observation each)
  m.OnBackpressure(1, 0, 100);
  m.OnCounterSample("c{}", 1);
  m.OnCounterSample("c{}", 2);
  m.OnRecoveryAudit("server-1", 0);
  for (std::size_t k = 0; k < kViolationKindCount; ++k) {
    EXPECT_EQ(KindValue(registry, static_cast<ViolationKind>(k)), 1.0)
        << ViolationKindName(static_cast<ViolationKind>(k));
  }
  EXPECT_EQ(m.ViolationCount(), static_cast<std::uint64_t>(kViolationKindCount));
  EXPECT_EQ(registry.Snapshot().Value("md_monitor_injected_total"),
            static_cast<double>(kViolationKindCount));
}

TEST(MonitorDetectTest, ScopeLabelsEveryMonitorFamily) {
  obs::MetricsRegistry registry;
  MonitorConfig cfg;
  cfg.scope = "server-7";
  Monitor m(registry, cfg);
  m.OnDelivery(kSession, kTopic, {1, 1}, Pub(1));
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("md_monitor_events_total", "server=\"server-7\""),
            1.0);
  EXPECT_EQ(snapshot.Value("md_invariant_violations_total",
                           "kind=\"order\",server=\"server-7\""),
            0.0);
}

// --- injection through the chaos driver (end-to-end self-test) --------------

// The same path `md_chaos --monitor --inject KIND` exercises: a full
// simulated-cluster run with the monitor riding along and one fault armed
// mid-run must yield exactly one violation of exactly that kind, over real
// fan-out traffic under a fault schedule.
class ChaosInjection : public ::testing::TestWithParam<ViolationKind> {};

TEST_P(ChaosInjection, FiresExactlyOnceUnderChaosTraffic) {
  obs::MetricsRegistry registry;
  MonitorConfig mcfg;
  mcfg.scope = "sim";
  Monitor monitor(registry, mcfg);
  cluster::ChaosOptions opts;
  opts.seed = 3;
  opts.monitor = &monitor;
  opts.inject = GetParam();
  const cluster::ChaosReport report = cluster::ChaosDriver(opts).Run();
  EXPECT_TRUE(report.Passed()) << "injection must not disturb real traffic";
  EXPECT_EQ(monitor.ViolationCount(GetParam()), 1u)
      << ViolationKindName(GetParam());
  EXPECT_EQ(monitor.ViolationCount(), 1u)
      << "injected " << ViolationKindName(GetParam()) << " cascaded";
  const auto reports = monitor.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, GetParam());
  EXPECT_NE(reports[0].detail.find(
                std::string("[") + ViolationKindName(GetParam()) + "]"),
            std::string::npos)
      << reports[0].detail;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ChaosInjection,
    ::testing::Values(ViolationKind::kOrder, ViolationKind::kGap,
                      ViolationKind::kDuplicate, ViolationKind::kBackpressure,
                      ViolationKind::kMetrics, ViolationKind::kDurability),
    [](const ::testing::TestParamInfo<ViolationKind>& info) {
      return ViolationKindName(info.param);
    });

}  // namespace
}  // namespace md::verify
