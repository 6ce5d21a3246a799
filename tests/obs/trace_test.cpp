// StageRecorder unit tests on manual timestamps: stage deltas and the
// end-to-end span land in the right registry histograms, and skipped stages
// record nothing.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

namespace md::obs {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  [[nodiscard]] const SampleSnapshot* StageSample(Stage stage) {
    snap_ = registry_.Snapshot();
    const std::string labels = std::string("domain=\"wall\",stage=\"") +
                               StageName(stage) + "\"";
    return snap_.Find("md_trace_stage_ns", labels);
  }

  [[nodiscard]] const SampleSnapshot* EndToEndSample() {
    snap_ = registry_.Snapshot();
    return snap_.Find("md_trace_end_to_end_ns", "domain=\"wall\"");
  }

  MetricsRegistry registry_;
  StageRecorder recorder_{registry_};
  MetricsSnapshot snap_;
};

TEST_F(TracerTest, RecordsConsecutiveStageDeltasAndEndToEnd) {
  StageTimes times;
  times.Stamp(Stage::kPublishReceived, 1'000);
  times.Stamp(Stage::kSequenced, 3'000);      // +2000
  times.Stamp(Stage::kCached, 4'500);         // +1500
  times.Stamp(Stage::kFannedOut, 5'000);      // +500
  times.Stamp(Stage::kSocketWritten, 9'000);  // +4000
  recorder_.Record(times);

  const auto* seq = StageSample(Stage::kSequenced);
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->count, 1u);
  EXPECT_EQ(seq->min, 2'000);
  const auto* cached = StageSample(Stage::kCached);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->min, 1'500);
  const auto* fanned = StageSample(Stage::kFannedOut);
  ASSERT_NE(fanned, nullptr);
  EXPECT_EQ(fanned->min, 500);
  const auto* written = StageSample(Stage::kSocketWritten);
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->min, 4'000);
  const auto* e2e = EndToEndSample();
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 1u);
  EXPECT_EQ(e2e->min, 8'000);
}

TEST_F(TracerTest, SkippedStagesRecordNothingButEndToEndStillLands) {
  StageTimes times;
  times.Stamp(Stage::kPublishReceived, 100);
  times.Stamp(Stage::kSocketWritten, 700);  // skips 3 middle stages
  recorder_.Record(times);

  const auto* e2e = EndToEndSample();
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 1u);
  EXPECT_EQ(e2e->min, 600);
  const auto* written = StageSample(Stage::kSocketWritten);
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->min, 600);
  const auto* seq = StageSample(Stage::kSequenced);
  ASSERT_TRUE(seq == nullptr || seq->count == 0);
}

}  // namespace
}  // namespace md::obs
