// Quantile correctness of the log-linear histogram against a sorted-vector
// oracle, across distributions with very different shapes. The histogram
// backs every latency metric the exposition reports, so its error bound
// (one log-linear bucket, ~3.2% relative) is asserted here rather than
// trusted.
#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace md {
namespace {

// Uniform double in (0, 1) from the deterministic test Rng.
double UnitUniform(Rng& rng) {
  return (static_cast<double>(rng.Next() >> 11) + 0.5) * 0x1.0p-53;
}

std::vector<std::int64_t> ExponentialSample(std::uint64_t seed, std::size_t n,
                                            double meanNs) {
  Rng rng(seed);
  std::vector<std::int64_t> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(
        static_cast<std::int64_t>(-meanNs * std::log(UnitUniform(rng))));
  }
  return values;
}

std::vector<std::int64_t> UniformSample(std::uint64_t seed, std::size_t n,
                                        std::int64_t lo, std::int64_t hi) {
  Rng rng(seed);
  std::vector<std::int64_t> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(lo + static_cast<std::int64_t>(rng.NextBelow(
                              static_cast<std::uint64_t>(hi - lo))));
  }
  return values;
}

// Latency-shaped bimodal mix: a fast path around 50us and a slow tail
// around 20ms — quantiles straddle the gap between the modes.
std::vector<std::int64_t> BimodalSample(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::int64_t> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool slow = rng.NextBelow(10) == 0;  // 10% slow mode
    const double mean = slow ? 20'000'000.0 : 50'000.0;
    values.push_back(
        static_cast<std::int64_t>(-mean * std::log(UnitUniform(rng))));
  }
  return values;
}

// Oracle quantile with the same convention as Histogram::Percentile: the
// value at rank ceil(q * n).
std::int64_t OracleQuantile(std::vector<std::int64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

// One log-linear bucket of relative error (64 sub-buckets per octave gives
// bucket width <= value/32) plus the midpoint representation, with a small
// absolute floor for near-zero values.
void ExpectWithinBucketError(std::int64_t got, std::int64_t oracle) {
  const double slack =
      std::max(2.0, 0.04 * static_cast<double>(std::max(got, oracle)));
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(oracle), slack)
      << "quantile drifted by more than one bucket";
}

// A plain enum rather than a function pointer, so gtest prints the parameter
// as a stable integer instead of an address that changes from run to run.
enum Distribution { kExponential, kUniform, kBimodal };

std::vector<std::int64_t> Sample(Distribution d) {
  switch (d) {
    case kExponential: return ExponentialSample(11, 20'000, 2'000'000.0);
    case kUniform: return UniformSample(12, 20'000, 1'000, 50'000'000);
    case kBimodal: break;
  }
  return BimodalSample(13, 20'000);
}

class HistogramOracleTest : public ::testing::TestWithParam<Distribution> {};

TEST_P(HistogramOracleTest, QuantilesMatchSortedVectorOracle) {
  const std::vector<std::int64_t> values = Sample(GetParam());
  Histogram h;
  for (const std::int64_t v : values) h.Record(v);

  ASSERT_EQ(h.Count(), values.size());
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    ExpectWithinBucketError(h.Percentile(q), OracleQuantile(values, q));
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  EXPECT_EQ(h.Min(), *lo);
  EXPECT_EQ(h.Max(), *hi);

  double sum = 0;
  for (const std::int64_t v : values) sum += static_cast<double>(v);
  EXPECT_NEAR(h.Mean(), sum / static_cast<double>(values.size()),
              1e-6 * sum / static_cast<double>(values.size()));
}

TEST_P(HistogramOracleTest, CumulativeCountsMatchOracleAtExpositionBounds) {
  const std::vector<std::int64_t> values = Sample(GetParam());
  Histogram h;
  for (const std::int64_t v : values) h.Record(v);

  std::uint64_t prev = 0;
  for (const std::int64_t bound : obs::ExpositionBucketBounds()) {
    const std::uint64_t got = h.CountAtOrBelow(bound);
    // Bucket-granular: never counts a value above the bound, never misses
    // one more than a bucket width (4%) below it.
    std::uint64_t exact = 0;
    std::uint64_t safelyBelow = 0;
    for (const std::int64_t v : values) {
      if (v <= bound) ++exact;
      if (static_cast<double>(v) <= 0.96 * static_cast<double>(bound) - 2.0) {
        ++safelyBelow;
      }
    }
    EXPECT_LE(got, exact) << "bound " << bound;
    EXPECT_GE(got, safelyBelow) << "bound " << bound;
    EXPECT_GE(got, prev) << "cumulative counts must be monotone";
    prev = got;
  }
  // One bucket width past the max covers everything (the max's own bucket
  // may have its upper edge above the max).
  EXPECT_EQ(h.CountAtOrBelow(h.Max() + h.Max() / 16 + 2), h.Count());
  EXPECT_EQ(h.CountAtOrBelow(-1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramOracleTest,
                         ::testing::Values(kExponential, kUniform, kBimodal),
                         [](const auto& info) {
                           switch (info.param) {
                             case kExponential: return "Exponential";
                             case kUniform: return "Uniform";
                             default: return "Bimodal";
                           }
                         });

TEST(HistogramMergeTest, MergeIsAssociativeAndOrderInsensitive) {
  const auto a = ExponentialSample(21, 5'000, 300'000.0);
  const auto b = UniformSample(22, 5'000, 10, 1'000'000);
  const auto c = BimodalSample(23, 5'000);

  Histogram ha, hb, hc;
  for (const auto v : a) ha.Record(v);
  for (const auto v : b) hb.Record(v);
  for (const auto v : c) hc.Record(v);

  // (a + b) + c
  Histogram left;
  left.Merge(ha);
  left.Merge(hb);
  left.Merge(hc);
  // a + (c + b)
  Histogram inner;
  inner.Merge(hc);
  inner.Merge(hb);
  Histogram right;
  right.Merge(ha);
  right.Merge(inner);

  EXPECT_EQ(left.Count(), right.Count());
  EXPECT_EQ(left.Min(), right.Min());
  EXPECT_EQ(left.Max(), right.Max());
  EXPECT_DOUBLE_EQ(left.Mean(), right.Mean());
  EXPECT_DOUBLE_EQ(left.StdDev(), right.StdDev());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(left.Percentile(q), right.Percentile(q)) << "q=" << q;
  }
  for (const std::int64_t bound : obs::ExpositionBucketBounds()) {
    EXPECT_EQ(left.CountAtOrBelow(bound), right.CountAtOrBelow(bound));
  }

  // Merging equals recording everything into one histogram.
  Histogram all;
  for (const auto* vs : {&a, &b, &c}) {
    for (const auto v : *vs) all.Record(v);
  }
  EXPECT_EQ(all.Count(), left.Count());
  EXPECT_EQ(all.Percentile(0.99), left.Percentile(0.99));
  EXPECT_DOUBLE_EQ(all.Mean(), left.Mean());
}

TEST(HistogramMergeTest, MergeFromEmptyAndIntoEmpty) {
  Histogram empty;
  Histogram h;
  h.Record(1'000);
  h.Record(2'000'000);

  Histogram intoEmpty;
  intoEmpty.Merge(h);
  EXPECT_EQ(intoEmpty.Count(), 2u);
  EXPECT_EQ(intoEmpty.Min(), 1'000);
  EXPECT_EQ(intoEmpty.Max(), 2'000'000);

  h.Merge(empty);  // no-op: min/max/count unchanged
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Min(), 1'000);
  EXPECT_EQ(h.Max(), 2'000'000);
}

TEST(HistogramOverflowTest, ValuesBeyondRangeClampIntoLastBucket) {
  Histogram h;
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  h.Record(huge);
  h.Record(huge - 1);
  h.Record(100);

  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Max(), huge);
  EXPECT_EQ(h.Min(), 100);
  // The overflow values share the top bucket: the cumulative count below
  // any exposition bound excludes them...
  for (const std::int64_t bound : obs::ExpositionBucketBounds()) {
    EXPECT_LE(h.CountAtOrBelow(bound), 1u) << "bound " << bound;
  }
  // ...and high quantiles land in (the midpoint of) that bucket, far above
  // every finite exposition bound.
  EXPECT_GT(h.Percentile(0.99), obs::ExpositionBucketBounds().back());
  // Recording more overflow values keeps accumulating, not wrapping.
  for (int i = 0; i < 100; ++i) h.Record(huge);
  EXPECT_EQ(h.Count(), 103u);
  EXPECT_EQ(h.Max(), huge);
}

TEST(HistogramOverflowTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.CountAtOrBelow(0), 1u);
}

}  // namespace
}  // namespace md
