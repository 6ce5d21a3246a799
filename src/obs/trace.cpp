#include "obs/trace.hpp"

#include <string>

namespace md::obs {

const char* StageName(Stage stage) noexcept {
  switch (stage) {
    case Stage::kPublishReceived: return "publish_received";
    case Stage::kSequenced: return "sequenced";
    case Stage::kCached: return "cached";
    case Stage::kFannedOut: return "fanned_out";
    case Stage::kSocketWritten: return "socket_written";
  }
  return "unknown";
}

StageRecorder::StageRecorder(MetricsRegistry& registry)
    : endToEnd_(registry.GetHistogram(
          "md_trace_end_to_end_ns",
          "Publish-received to terminal-stage latency per publication",
          "domain=\"wall\"")) {
  // Stage 0 has no predecessor; slots 1..N-1 hold consecutive-stage deltas.
  for (std::size_t i = 1; i < kStageCount; ++i) {
    stage_[i] = &registry.GetHistogram(
        "md_trace_stage_ns", "Latency between consecutive pipeline stages",
        std::string("domain=\"wall\",stage=\"") +
            StageName(static_cast<Stage>(i)) + "\"");
  }
}

void StageRecorder::Record(const StageTimes& times) {
  const TimePoint first = times.at[0];
  TimePoint last = first;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    const TimePoint at = times.at[i];
    if (at == StageTimes::kUnset) continue;  // stage skipped
    stage_[i]->Record(at - last);
    last = at;
  }
  endToEnd_.Record(last - first);
}

}  // namespace md::obs
