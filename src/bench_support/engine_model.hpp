// Calibrated single-server fan-out model for the scale experiments.
//
// The evaluation hardware (2× 8-core Xeon E5-2670, 10 GbE, 1M–10M real
// WebSocket clients across four machines) is not available here, so the
// vertical-scalability experiments (Table 1 / Figure 3, C10M, GC ablation)
// run against this mechanistic model instead (DESIGN.md §1):
//
//   - One SimCpu with 16 cores stands in for the server; the engine's
//     per-delivery CPU cost is charged for every notification. The cost
//     constant (~10.5 µs of core time per delivered message) is derived from
//     the paper's own measurements: Table 1 reports 69.1 % CPU of 16 cores
//     at 1 M deliveries/s, i.e. ≈ 11 core-µs per message, and the
//     100 K-subscriber row implies ≈ 3 % fixed background load.
//   - Each publication's fan-out to a topic's subscribers is split evenly
//     across the worker threads (as the real engine pins clients to
//     threads); a subscriber's delivery completes at a uniformly random
//     position within its thread's batch. Queueing delay, saturation knees
//     and tail blow-up all *emerge* from the CPU model.
//   - JVM stop-the-world GC pauses (the evaluation ran the stock JVM) are
//     injected with frequency proportional to the allocation rate (message
//     rate) — they drive the mean and P99 far above the median, exactly the
//     effect visible in Table 1's last rows.
//   - Client-side constants (network propagation, client stack, Benchsub
//     receive queueing) are lumped into a base latency with jitter.
//
// Everything here is deterministic under a seed.
#pragma once

#include <cstdint>
#include <memory>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "simnet/cpu.hpp"
#include "simnet/gc.hpp"
#include "simnet/scheduler.hpp"

namespace md::bench {

struct EngineModelConfig {
  int cores = 16;  // 2x 8-core Xeon E5-2670
  // Per-delivery engine cost (decode amortized, match, encode, socket
  // write) in core time; calibrated from Table 1 (see header comment).
  Duration perDeliveryCost = 10'500;  // ns
  // Per-publication cost (read, decode, sequence, cache append).
  Duration perPublicationCost = 20 * kMicrosecond;
  // Constant background work (timers, kernel, JVM service threads):
  // fraction of total machine capacity.
  double backgroundLoad = 0.031;
  // Base end-to-end constant outside the server (propagation + client
  // stack + Benchsub receive path) and its jitter.
  Duration baseLatency = 8 * kMillisecond;
  Duration baseJitter = 6 * kMillisecond;
  // Stock-JVM stop-the-world GC. Pause frequency scales with allocation
  // (message) rate; pause length with heap pressure. gcReferenceRate is the
  // msgs/s at which gcMeanInterval applies.
  bool gcEnabled = true;
  double gcReferenceRate = 1'000'000.0;
  Duration gcMeanInterval = 3 * kSecond;   // at the reference rate
  Duration gcPauseMean = 120 * kMillisecond;
  Duration gcPauseStdDev = 90 * kMillisecond;
  // Wire size per delivered message (payload + WebSocket/TCP/IP framing).
  std::size_t payloadBytes = 140;
  std::size_t perMessageOverheadBytes = 75;
};

struct EngineRunResult {
  LatencySummary latency;
  double cpuFraction = 0;   // of the whole machine
  double gbpsOut = 0;       // outgoing notification traffic
  std::uint64_t deliveries = 0;
  std::uint64_t publications = 0;
};

/// Runs the fan-out model for a workload of `topics` topics, each published
/// once per `publishInterval`, with `subscribersPerTopic` subscribers, for
/// `duration` after `warmup` (only post-warmup samples are recorded).
class EngineModel {
 public:
  EngineModel(EngineModelConfig cfg, std::uint64_t seed);

  /// `aggregateTicks`: when a "topic" has very few subscribers (C10M: one),
  /// publications are aggregated into ticks of this many per event to bound
  /// event counts; 1 = one event per publication.
  EngineRunResult Run(std::uint32_t topics, std::uint32_t subscribersPerTopic,
                      Duration publishInterval, Duration warmup, Duration duration,
                      std::uint32_t latencySamplesPerFanout = 64);

  /// Replace the GC model before Run (used by the ablation bench).
  void UseConcurrentCollector(Duration jitterCeiling) {
    cfg_.gcEnabled = false;
    concurrentGc_ = std::make_unique<sim::ConcurrentCollector>(jitterCeiling);
  }

 private:
  EngineModelConfig cfg_;
  Rng rng_;
  std::unique_ptr<sim::ConcurrentCollector> concurrentGc_;
};

}  // namespace md::bench
