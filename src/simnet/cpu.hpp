// Multi-core CPU cost model for simulated hosts.
//
// Work items are charged to the earliest-available core (the paper's engine
// balances clients across IoThreads/Workers pinned to CPUs, so
// earliest-available is a faithful abstraction of a balanced system). The
// model yields both completion times (queueing delay emerges when offered
// load approaches capacity) and utilization (CPU% columns of Tables 1 & 2).
//
// An optional PauseModel injects JVM garbage-collection pauses: work that
// would complete inside a pause window is pushed past it (stop-the-world) or
// slightly inflated (concurrent collector).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"

namespace md::sim {

/// Injects collector pauses into CPU completion times.
class PauseModel {
 public:
  virtual ~PauseModel() = default;
  /// Returns the adjusted completion time for work finishing at `t`.
  [[nodiscard]] virtual TimePoint Adjust(TimePoint t) const noexcept = 0;
};

/// Pre-generated stop-the-world pause schedule: during [start, end) nothing
/// completes; completion times inside a pause are pushed to its end.
class StopTheWorldPauses final : public PauseModel {
 public:
  struct Pause {
    TimePoint start;
    TimePoint end;
  };

  explicit StopTheWorldPauses(std::vector<Pause> pauses)
      : pauses_(std::move(pauses)) {}

  [[nodiscard]] TimePoint Adjust(TimePoint t) const noexcept override {
    // Pauses are sorted and non-overlapping; find the first pause ending
    // after t and check containment.
    auto it = std::upper_bound(
        pauses_.begin(), pauses_.end(), t,
        [](TimePoint v, const Pause& p) { return v < p.end; });
    if (it != pauses_.end() && t >= it->start) return it->end;
    return t;
  }

  [[nodiscard]] const std::vector<Pause>& pauses() const noexcept { return pauses_; }

 private:
  std::vector<Pause> pauses_;
};

/// Concurrent collector (C4-style): no global stops, only a small constant
/// per-operation overhead factor.
class ConcurrentCollector final : public PauseModel {
 public:
  explicit ConcurrentCollector(Duration jitterCeiling) noexcept
      : jitterCeiling_(jitterCeiling) {}

  [[nodiscard]] TimePoint Adjust(TimePoint t) const noexcept override {
    // Deterministic sub-millisecond smear derived from the completion time
    // itself (no shared RNG: Adjust must be pure).
    const auto h = static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ULL;
    return t + static_cast<Duration>(h % static_cast<std::uint64_t>(jitterCeiling_ + 1));
  }

 private:
  Duration jitterCeiling_;
};

class SimCpu {
 public:
  explicit SimCpu(int cores) : coreFree_(static_cast<std::size_t>(cores), 0) {}

  /// Work interval on a core: [start, done).
  struct Span {
    TimePoint start;
    TimePoint done;
  };

  /// Charge `cost` of CPU work arriving at `now`; returns completion time.
  TimePoint Charge(TimePoint now, Duration cost) noexcept {
    return ChargeSpan(now, cost).done;
  }

  /// Like Charge, but also reports when the work actually started (after
  /// queueing behind earlier work) — needed to place individual deliveries
  /// within a fan-out batch.
  Span ChargeSpan(TimePoint now, Duration cost) noexcept {
    // Pick the earliest-available core.
    auto it = std::min_element(coreFree_.begin(), coreFree_.end());
    const TimePoint start = std::max(now, *it);
    TimePoint done = start + cost;
    if (pauses_ != nullptr) done = pauses_->Adjust(done);
    *it = done;
    busy_ += done - start;
    return {start, done};
  }

  /// Attach a GC pause model (nullptr clears it).
  void SetPauseModel(const PauseModel* pauses) noexcept { pauses_ = pauses; }

  /// Fraction of total core-time spent busy in [windowStart, windowEnd].
  /// Uses cumulative busy time; callers snapshot BusyTime() at window edges.
  [[nodiscard]] Duration BusyTime() const noexcept { return busy_; }

  [[nodiscard]] int cores() const noexcept {
    return static_cast<int>(coreFree_.size());
  }

  /// Drop all queued work (crash / restart).
  void Reset(TimePoint now) noexcept {
    for (auto& f : coreFree_) f = now;
  }

  static double Utilization(Duration busyDelta, Duration window, int cores) noexcept {
    if (window <= 0 || cores <= 0) return 0.0;
    const double u = static_cast<double>(busyDelta) /
                     (static_cast<double>(window) * static_cast<double>(cores));
    // Overload charges work past the window end; physically the machine was
    // simply pegged for the whole window.
    return u > 1.0 ? 1.0 : u;
  }

 private:
  std::vector<TimePoint> coreFree_;
  Duration busy_ = 0;
  const PauseModel* pauses_ = nullptr;
};

}  // namespace md::sim
