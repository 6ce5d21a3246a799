// Always-on runtime verification monitor (the ROADMAP's "online runtime
// verification" item; cf. "Runtime Verification Containers for
// Publish/Subscribe Networks", PAPERS.md).
//
// A Monitor checks the chaos harness's streaming invariants — in-order,
// gap-free, duplicate-free per-stream delivery, bounded send queues, and
// monotone counters — against live traffic, in bounded memory:
//
//   - one observation per emitted delivery, keyed by (session, topic); the
//     shared rules live in verify/invariants.hpp so simulation and
//     production enforce identical semantics,
//   - per-stream state (last position + a small recent-publication window)
//     lives in sharded LRU tables under an explicit byte budget; a stream
//     evicted and later re-observed re-baselines silently (soundness over
//     completeness: eviction can hide a violation, never invent one),
//   - optional sampling (track 1/N streams by key hash) trades coverage for
//     hot-path cost on million-session servers,
//   - every verdict and every cost is exported through MetricsRegistry:
//     md_invariant_violations_total{kind=...} plus md_monitor_* self-metrics.
//
// The observation contract is *per-connection emission order*: feed the
// monitor the deliveries one connection's stream emits, in the order the
// engine emits them (core::Server feeds worker-side fan-out, TcpClusterHost
// feeds its loop-thread sends, the chaos driver and md_monitor sidecar feed
// per-connection-generation client streams). Under that contract the rules
// are sound — no false positives on reconnects, resume backfills, or
// at-least-once re-sequencing.
//
// A monitor that has never seen a violation is untested: InjectFault arms a
// one-shot mutation of the next eligible *observation* (never the real
// traffic), so tests and the md_server /inject debug endpoint can prove each
// rule fires — exactly once, because stream state is always advanced with
// the original event, so an injected fault can never cascade.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/message.hpp"
#include "verify/invariants.hpp"

namespace md::verify {

struct MonitorConfig {
  /// Ceiling on tracked-stream state, bytes (approximate, deterministic
  /// accounting — see Monitor::EntryCost). LRU eviction enforces it.
  std::size_t byteBudget = 4 * 1024 * 1024;
  /// Track one in every N streams (by key hash); 1 = track everything.
  std::uint64_t sampleEvery = 1;
  /// Per-stream recent-publication window for duplicate detection.
  std::size_t recentIds = 8;
  /// Violation reports kept for inspection (counters keep counting past it).
  std::size_t maxReports = 256;
  /// Label value for this monitor's metric families (usually the server id);
  /// empty = unlabeled.
  std::string scope;
};

struct Violation {
  ViolationKind kind = ViolationKind::kOrder;
  std::string detail;
};

class Monitor {
 public:
  Monitor(obs::MetricsRegistry& registry, MonitorConfig cfg);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// One emitted delivery on `sessionKey`'s stream of `topic`. Thread-safe;
  /// per-stream calls must arrive in the connection's emission order.
  void OnDelivery(std::uint64_t sessionKey, std::string_view topic,
                  StreamPos pos, const PublicationId& id);

  /// A partition hand-off re-attached `sessionKey`'s stream of `topic` to a
  /// new owner with `from` as the transferred resume cursor. Seeds (or
  /// re-baselines) the stream at `from` and marks the next delivery as the
  /// ownership boundary: it is checked with the stricter [rebalance]
  /// continuity rule instead of the steady-state [order]/[gap] pair.
  void OnHandoffResume(std::uint64_t sessionKey, std::string_view topic,
                       StreamPos from);

  /// A send-queue depth sample for one connection against its hard watermark.
  void OnBackpressure(std::uint64_t sessionKey, std::size_t pendingBytes,
                      std::size_t hardWatermark);

  /// A post-recovery durability audit result for `subject` (a server id or
  /// "cluster"): how many acknowledged publications within retention are
  /// missing from the recovered cache. Zero means the audit passed.
  void OnRecoveryAudit(const std::string& subject, std::size_t missingAcked);

  /// One sample of a monotone counter series (name + label text); flags a
  /// regression against the previous sample of the same series.
  void OnCounterSample(std::string_view series, double value);

  /// Feeds every counter family of a snapshot through OnCounterSample —
  /// core::Server calls this on each /metrics scrape, so every scrape
  /// doubles as a consistency check.
  void OnMetricsSnapshot(const obs::MetricsSnapshot& snapshot);

  /// Drops one stream's state (the engine calls this on unsubscribe, so a
  /// later resubscribe on the same connection re-baselines instead of being
  /// flagged as a gap).
  void Forget(std::uint64_t sessionKey, std::string_view topic);

  /// Arms a one-shot fault: the next eligible observation is mutated to
  /// violate `kind` (stream state still advances with the original event, so
  /// exactly one violation fires and nothing cascades).
  void InjectFault(ViolationKind kind);

  [[nodiscard]] std::vector<Violation> Reports() const;
  [[nodiscard]] std::uint64_t ViolationCount() const noexcept;
  [[nodiscard]] std::uint64_t ViolationCount(ViolationKind kind) const;
  [[nodiscard]] std::size_t TrackedStreams() const;
  [[nodiscard]] std::size_t TrackedBytes() const;
  [[nodiscard]] std::uint64_t Evictions() const;
  [[nodiscard]] const MonitorConfig& config() const noexcept { return cfg_; }

  /// Deterministic per-stream cost model (fixed constants, not sizeof, so
  /// golden expositions are identical across toolchains/sanitizers).
  [[nodiscard]] std::size_t EntryCost(std::string_view topic) const noexcept;

 private:
  struct RingSlot {
    StreamPos pos;
    PublicationId id;
  };
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t session = 0;
    std::string topic;
    std::size_t cost = 0;
    bool has = false;              // false until the baseline observation
    bool handoff = false;          // next delivery crosses an ownership change
    StreamPos last{};
    PublicationId lastId{};
    std::vector<RingSlot> ring;    // recent (pos, id) pairs, rotating
    std::size_t ringSize = 0;
    std::size_t ringNext = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently touched
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  static constexpr std::size_t kShards = 8;

  [[nodiscard]] static std::uint64_t StreamKey(std::uint64_t sessionKey,
                                               std::string_view topic) noexcept;
  Entry& TouchLocked(Shard& shard, std::uint64_t key, std::uint64_t sessionKey,
                     std::string_view topic);
  void EvictOldestLocked(Shard& shard);
  [[nodiscard]] bool InRing(const Entry& e, StreamPos pos,
                            const PublicationId& id) const noexcept;
  static void PushRing(Entry& e, StreamPos pos, const PublicationId& id);
  bool TakeInjection(ViolationKind kind);
  void Report(ViolationKind kind, std::string detail);

  MonitorConfig cfg_;
  std::size_t shardBudget_ = 0;

  std::array<Shard, kShards> shards_;

  std::atomic<std::uint32_t> armedMask_{0};
  std::atomic<std::uint64_t> totalViolations_{0};

  mutable std::mutex reportsMu_;
  std::vector<Violation> reports_;

  mutable std::mutex countersMu_;
  std::map<std::string, double, std::less<>> counterLast_;

  // Metric handles (registered in the constructor, not in
  // RegisterStandardFamilies: servers without runtimeVerify keep their
  // exposition schema — and the checked-in goldens — byte-stable).
  obs::Counter* violations_[kViolationKindCount] = {};
  obs::Counter& events_;
  obs::Counter& sampledOut_;
  obs::Counter& evictions_;
  obs::Counter& injected_;
  obs::Counter& reportsDropped_;
  obs::Gauge& trackedStreams_;
  obs::Gauge& trackedBytes_;
};

/// The monitor a host embeds (nullptr unless `enabled`), scoped to `host`
/// when `cfg` names no scope.
[[nodiscard]] std::unique_ptr<Monitor> MakeHostMonitor(
    bool enabled, MonitorConfig cfg, std::string_view host,
    obs::MetricsRegistry& registry);

}  // namespace md::verify
