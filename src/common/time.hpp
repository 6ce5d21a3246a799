// Time abstractions.
//
// All protocol and engine code takes time from a Clock interface so the same
// logic can run against the wall clock (real deployments, examples) or a
// manually-advanced clock (simulation, deterministic tests).
#pragma once

#include <chrono>
#include <cstdint>

namespace md {

/// Nanoseconds since an arbitrary (per-clock) epoch. Signed so durations and
/// differences are safe to compute.
using TimePoint = std::int64_t;
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;
constexpr Duration kMinute = 60 * kSecond;

constexpr double ToMillis(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr double ToSeconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint Now() const noexcept = 0;
};

/// Wall/monotonic clock backed by std::chrono::steady_clock.
class RealClock final : public Clock {
 public:
  [[nodiscard]] TimePoint Now() const noexcept override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Process-wide instance (clocks are stateless).
  static RealClock& Instance() noexcept {
    static RealClock clock;
    return clock;
  }
};

}  // namespace md
