#include "verify/monitor.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace md::verify {

namespace {

// Fixed accounting constants (bytes). Chosen at or above the real footprint
// of an Entry + its index slot on 64-bit platforms, and deliberately not
// sizeof-derived so tracked-bytes gauges are identical across toolchains —
// the exposition golden pins them.
constexpr std::size_t kEntryBaseCost = 192;   // Entry fields + list node
constexpr std::size_t kIndexSlotCost = 64;    // unordered_map bucket + node
constexpr std::size_t kRingSlotCost = 32;     // RingSlot, padded

std::string SessionStreamName(std::uint64_t sessionKey, std::string_view topic) {
  return "session " + std::to_string(sessionKey) + "/" + std::string(topic);
}

std::string WithScope(const MonitorConfig& cfg, std::string labels) {
  if (cfg.scope.empty()) return labels;
  if (!labels.empty()) labels += ',';
  labels += "server=\"" + cfg.scope + "\"";
  return labels;
}

}  // namespace

Monitor::Monitor(obs::MetricsRegistry& registry, MonitorConfig cfg)
    : cfg_(std::move(cfg)),
      events_(registry.GetCounter("md_monitor_events_total",
                                  "Observations fed to the runtime monitor",
                                  WithScope(cfg_, ""))),
      sampledOut_(registry.GetCounter(
          "md_monitor_sampled_out_total",
          "Delivery observations skipped by stream sampling",
          WithScope(cfg_, ""))),
      evictions_(registry.GetCounter(
          "md_monitor_evictions_total",
          "Tracked streams evicted to stay inside the byte budget",
          WithScope(cfg_, ""))),
      injected_(registry.GetCounter(
          "md_monitor_injected_total",
          "Deliberate one-shot violations applied by the injection hook",
          WithScope(cfg_, ""))),
      reportsDropped_(registry.GetCounter(
          "md_monitor_reports_dropped_total",
          "Violation reports discarded past the report buffer cap",
          WithScope(cfg_, ""))),
      trackedStreams_(registry.GetGauge("md_monitor_tracked_streams",
                                        "Streams with live monitor state",
                                        WithScope(cfg_, ""))),
      trackedBytes_(registry.GetGauge(
          "md_monitor_tracked_bytes",
          "Approximate bytes of tracked-stream state (bounded by the budget)",
          WithScope(cfg_, ""))) {
  if (cfg_.sampleEvery == 0) cfg_.sampleEvery = 1;
  if (cfg_.recentIds == 0) cfg_.recentIds = 1;
  shardBudget_ = std::max<std::size_t>(cfg_.byteBudget / kShards, 1);
  // Pre-register every kind so the exposition schema is complete from the
  // first scrape, violations or not.
  for (std::size_t k = 0; k < kViolationKindCount; ++k) {
    violations_[k] = &registry.GetCounter(
        "md_invariant_violations_total",
        "Delivery-invariant violations flagged by the runtime monitor",
        WithScope(cfg_, std::string("kind=\"") +
                            ViolationKindName(static_cast<ViolationKind>(k)) +
                            "\""));
  }
}

std::uint64_t Monitor::StreamKey(std::uint64_t sessionKey,
                                 std::string_view topic) noexcept {
  return MixU64(sessionKey ^ (Fnv1a64(topic) * 0x9E3779B97F4A7C15ULL));
}

std::size_t Monitor::EntryCost(std::string_view topic) const noexcept {
  return kEntryBaseCost + kIndexSlotCost + topic.size() +
         cfg_.recentIds * kRingSlotCost;
}

void Monitor::OnDelivery(std::uint64_t sessionKey, std::string_view topic,
                         StreamPos pos, const PublicationId& id) {
  events_.Inc();
  if (cfg_.sampleEvery > 1 && MixU64(sessionKey) % cfg_.sampleEvery != 0) {
    sampledOut_.Inc();
    return;
  }
  const std::uint64_t key = StreamKey(sessionKey, topic);
  Shard& shard = shards_[key % kShards];
  std::lock_guard lock(shard.mu);
  Entry& e = TouchLocked(shard, key, sessionKey, topic);

  // Injection mutates only the *observed* event; `e` is always advanced with
  // the original below, so an injected fault fires exactly once.
  StreamPos seenPos = pos;
  PublicationId seenId = id;
  bool syntheticBoundary = false;
  if (e.has && armedMask_.load(std::memory_order_relaxed) != 0) {
    if (TakeInjection(ViolationKind::kDuplicate)) {
      seenPos = e.last;
      seenId = e.lastId;
    } else if (TakeInjection(ViolationKind::kOrder)) {
      seenPos = e.last;          // not after its predecessor
      seenId.clientHash ^= 1;    // ...but not a replay either
    } else if (TakeInjection(ViolationKind::kGap)) {
      seenPos.epoch = e.last.epoch;
      seenPos.seq = e.last.seq + 5;
    } else if (TakeInjection(ViolationKind::kRebalance)) {
      // A hole at a (synthesized) ownership boundary: the new owner resumed
      // past messages the old owner had already sequenced.
      seenPos.epoch = e.last.epoch;
      seenPos.seq = e.last.seq + 3;
      seenId.clientHash ^= 1;
      syntheticBoundary = true;
    }
  }

  if (e.has) {
    const bool boundary = e.handoff || syntheticBoundary;
    if (boundary) {
      // The ownership-change rule subsumes order/gap/duplicate at the
      // boundary: any discontinuity here is a hand-off bug, flagged once.
      if (InRing(e, seenPos, seenId) ||
          ViolatesRebalanceContinuity(e.last, seenPos)) {
        Report(ViolationKind::kRebalance,
               FormatRebalanceViolation(SessionStreamName(sessionKey, topic),
                                        e.last, seenPos));
      }
    } else if (InRing(e, seenPos, seenId)) {
      Report(ViolationKind::kDuplicate,
             "[duplicate] " + SessionStreamName(sessionKey, topic) +
                 ": publication " + FormatPubId(seenId) + " re-emitted at " +
                 FormatPos(seenPos));
    } else if (ViolatesOrder(e.last, seenPos)) {
      Report(ViolationKind::kOrder,
             FormatOrderViolation(SessionStreamName(sessionKey, topic), e.last,
                                  seenPos));
    } else if (IsSequenceGap(e.last, seenPos)) {
      Report(ViolationKind::kGap,
             FormatGapViolation(SessionStreamName(sessionKey, topic), e.last,
                                seenPos));
    }
  }

  e.has = true;
  e.handoff = false;
  e.last = pos;
  e.lastId = id;
  PushRing(e, pos, id);
}

void Monitor::OnHandoffResume(std::uint64_t sessionKey, std::string_view topic,
                              StreamPos from) {
  events_.Inc();
  if (cfg_.sampleEvery > 1 && MixU64(sessionKey) % cfg_.sampleEvery != 0) {
    sampledOut_.Inc();
    return;
  }
  const std::uint64_t key = StreamKey(sessionKey, topic);
  Shard& shard = shards_[key % kShards];
  std::lock_guard lock(shard.mu);
  Entry& e = TouchLocked(shard, key, sessionKey, topic);
  // The transferred cursor is the authoritative boundary position — even for
  // a stream the monitor already tracked (old state belonged to the previous
  // owner's emission order).
  e.has = true;
  e.handoff = true;
  e.last = from;
}

void Monitor::OnBackpressure(std::uint64_t sessionKey, std::size_t pendingBytes,
                             std::size_t hardWatermark) {
  events_.Inc();
  std::size_t seen = pendingBytes;
  if (armedMask_.load(std::memory_order_relaxed) != 0 &&
      TakeInjection(ViolationKind::kBackpressure)) {
    seen = hardWatermark + 1 + pendingBytes;
  }
  if (ExceedsHardWatermark(seen, hardWatermark)) {
    Report(ViolationKind::kBackpressure,
           FormatBackpressureViolation(
               "session " + std::to_string(sessionKey), seen, hardWatermark));
  }
}

void Monitor::OnRecoveryAudit(const std::string& subject,
                              std::size_t missingAcked) {
  events_.Inc();
  std::size_t seen = missingAcked;
  if (armedMask_.load(std::memory_order_relaxed) != 0 &&
      TakeInjection(ViolationKind::kDurability)) {
    seen = missingAcked + 1;
  }
  if (ViolatesDurability(seen)) {
    Report(ViolationKind::kDurability, FormatDurabilityViolation(subject, seen));
  }
}

void Monitor::OnCounterSample(std::string_view series, double value) {
  events_.Inc();
  std::lock_guard lock(countersMu_);
  const auto it = counterLast_.find(series);
  if (it != counterLast_.end()) {
    double seen = value;
    if (armedMask_.load(std::memory_order_relaxed) != 0 &&
        TakeInjection(ViolationKind::kMetrics)) {
      seen = it->second - 1;
    }
    if (RegressedCounter(it->second, seen)) {
      Report(ViolationKind::kMetrics,
             FormatCounterRegression(it->first, it->second, seen));
    }
    it->second = value;  // the real sample, injected or not
    return;
  }
  // Bound the series table: a scrape target's schema is small, but a
  // misbehaving feed must not grow monitor state without limit.
  if (counterLast_.size() < 8192) counterLast_.emplace(series, value);
}

void Monitor::OnMetricsSnapshot(const obs::MetricsSnapshot& snapshot) {
  for (const auto& family : snapshot.families) {
    if (family.kind != obs::MetricKind::kCounter) continue;
    for (const auto& sample : family.samples) {
      OnCounterSample(family.name + "{" + sample.labels + "}", sample.value);
    }
  }
}

void Monitor::Forget(std::uint64_t sessionKey, std::string_view topic) {
  const std::uint64_t key = StreamKey(sessionKey, topic);
  Shard& shard = shards_[key % kShards];
  std::lock_guard lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  shard.bytes -= it->second->cost;
  trackedBytes_.Add(-static_cast<std::int64_t>(it->second->cost));
  trackedStreams_.Add(-1);
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

void Monitor::InjectFault(ViolationKind kind) {
  armedMask_.fetch_or(1u << static_cast<std::uint32_t>(kind),
                      std::memory_order_relaxed);
}

std::vector<Violation> Monitor::Reports() const {
  std::lock_guard lock(reportsMu_);
  return reports_;
}

std::uint64_t Monitor::ViolationCount() const noexcept {
  return totalViolations_.load(std::memory_order_relaxed);
}

std::uint64_t Monitor::ViolationCount(ViolationKind kind) const {
  return violations_[static_cast<std::size_t>(kind)]->Value();
}

std::size_t Monitor::TrackedStreams() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

std::size_t Monitor::TrackedBytes() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

std::uint64_t Monitor::Evictions() const { return evictions_.Value(); }

Monitor::Entry& Monitor::TouchLocked(Shard& shard, std::uint64_t key,
                                     std::uint64_t sessionKey,
                                     std::string_view topic) {
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return *it->second;
  }
  const std::size_t cost = EntryCost(topic);
  while (shard.bytes + cost > shardBudget_ && !shard.lru.empty()) {
    EvictOldestLocked(shard);
  }
  shard.lru.emplace_front();
  Entry& e = shard.lru.front();
  e.key = key;
  e.session = sessionKey;
  e.topic.assign(topic);
  e.cost = cost;
  e.ring.resize(cfg_.recentIds);
  shard.index[key] = shard.lru.begin();
  shard.bytes += cost;
  trackedBytes_.Add(static_cast<std::int64_t>(cost));
  trackedStreams_.Add(1);
  return e;
}

void Monitor::EvictOldestLocked(Shard& shard) {
  const Entry& victim = shard.lru.back();
  shard.bytes -= victim.cost;
  trackedBytes_.Add(-static_cast<std::int64_t>(victim.cost));
  trackedStreams_.Add(-1);
  evictions_.Inc();
  shard.index.erase(victim.key);
  shard.lru.pop_back();
}

bool Monitor::InRing(const Entry& e, StreamPos pos,
                     const PublicationId& id) const noexcept {
  for (std::size_t i = 0; i < e.ringSize; ++i) {
    const RingSlot& slot = e.ring[i];
    if (slot.pos == pos && slot.id == id) return true;
  }
  return false;
}

void Monitor::PushRing(Entry& e, StreamPos pos, const PublicationId& id) {
  if (e.ring.empty()) return;
  e.ring[e.ringNext] = {pos, id};
  e.ringNext = (e.ringNext + 1) % e.ring.size();
  e.ringSize = std::min(e.ringSize + 1, e.ring.size());
}

bool Monitor::TakeInjection(ViolationKind kind) {
  const std::uint32_t bit = 1u << static_cast<std::uint32_t>(kind);
  std::uint32_t cur = armedMask_.load(std::memory_order_relaxed);
  while ((cur & bit) != 0) {
    if (armedMask_.compare_exchange_weak(cur, cur & ~bit,
                                         std::memory_order_relaxed)) {
      injected_.Inc();
      return true;
    }
  }
  return false;
}

void Monitor::Report(ViolationKind kind, std::string detail) {
  violations_[static_cast<std::size_t>(kind)]->Inc();
  totalViolations_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(reportsMu_);
  if (reports_.size() >= cfg_.maxReports) {
    reportsDropped_.Inc();
    return;
  }
  reports_.push_back({kind, std::move(detail)});
}

std::unique_ptr<Monitor> MakeHostMonitor(bool enabled, MonitorConfig cfg,
                                         std::string_view host,
                                         obs::MetricsRegistry& registry) {
  if (!enabled) return nullptr;
  if (cfg.scope.empty()) cfg.scope = host;
  return std::make_unique<Monitor>(registry, std::move(cfg));
}

}  // namespace md::verify
