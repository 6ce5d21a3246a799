// Per-publication stage timing.
//
// A publication's path through the broker is stamped stage by stage:
//   publish-received -> sequenced -> cached -> fanned-out -> socket-written
// into a StageTimes value that travels with the publication itself
// (core::Server carries it from the Worker to the IoThread in the outbox
// entry of the first delivery). A StageRecorder turns a finished record into
// the delta between consecutive stages plus the end-to-end span, in registry
// histograms: md_trace_stage_ns{domain="wall",stage=...} and
// md_trace_end_to_end_ns{domain="wall"}.
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace md::obs {

enum class Stage : std::uint8_t {
  kPublishReceived = 0,
  kSequenced,
  kCached,
  kFannedOut,
  kSocketWritten,
};
inline constexpr std::size_t kStageCount = 5;

[[nodiscard]] const char* StageName(Stage stage) noexcept;

/// One publication's stage timestamps. A stage it never reached stays kUnset.
struct StageTimes {
  static constexpr TimePoint kUnset = INT64_MIN;

  std::array<TimePoint, kStageCount> at = {kUnset, kUnset, kUnset, kUnset,
                                           kUnset};

  /// Stamps `stage` at `t` (the wall clock by default).
  void Stamp(Stage stage, TimePoint t = RealClock::Instance().Now()) noexcept {
    at[static_cast<std::size_t>(stage)] = t;
  }
};

/// Records finished StageTimes into the md_trace_* histograms. Thread-safe.
class StageRecorder {
 public:
  /// Registers the histograms once; `registry` must outlive the recorder.
  explicit StageRecorder(MetricsRegistry& registry);

  /// Records each reached stage's delta from the reached stage before it and
  /// the span from kPublishReceived to the last reached stage.
  /// kPublishReceived must be stamped.
  void Record(const StageTimes& times);

 private:
  std::array<LatencyHistogram*, kStageCount> stage_{};  // [i]: delta into i
  LatencyHistogram& endToEnd_;
};

}  // namespace md::obs
