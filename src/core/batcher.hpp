// Batching and conflation (paper §4).
//
// Batching collects encoded frames for a client until a byte budget or a
// time budget is reached, then emits them together, to leave in a single
// I/O operation.
// Conflation aggregates messages per topic over an interval and emits only
// the newest message of each topic — appropriate for "current value" streams
// (prices, scores) updated at high frequency.
//
// Both are deterministic, clock-driven components owned per client; the
// embedding server drives time via Deadline()/OnDeadline().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/hash.hpp"
#include "common/time.hpp"
#include "common/topic_intern.hpp"
#include "proto/message.hpp"
#include "transport/wire.hpp"

namespace md::core {

struct BatchConfig {
  Duration maxDelay = 10 * kMillisecond;  // flush at latest this long after 1st frame
  std::size_t maxBytes = 64 * 1024;       // flush when this much is pending
};

/// Frame-level batcher: holds references to already-encoded frames until a
/// budget is reached, then hands them over in order. Nothing is copied; the
/// connection's flush pass writes a whole batch with one sendmsg.
class Batcher {
 public:
  using FlushFn = std::function<void(WireBuffer)>;

  Batcher(BatchConfig cfg, FlushFn flush)
      : cfg_(cfg), flush_(std::move(flush)) {}

  /// Adds one encoded frame; may trigger an immediate size-based flush.
  void Enqueue(WireBuffer frame, TimePoint now) {
    if (pending_.empty()) firstEnqueued_ = now;
    pendingBytes_ += frame->size();
    pending_.push_back(std::move(frame));
    if (pendingBytes_ >= cfg_.maxBytes) Flush();
  }

  /// Earliest time a time-based flush is due (nullopt when nothing pending).
  [[nodiscard]] std::optional<TimePoint> Deadline() const {
    if (pending_.empty()) return std::nullopt;
    return firstEnqueued_ + cfg_.maxDelay;
  }

  /// Flushes if the deadline has passed.
  void OnTime(TimePoint now) {
    if (!pending_.empty() && now >= firstEnqueued_ + cfg_.maxDelay) Flush();
  }

  /// Hands every pending frame to the flush callback, oldest first.
  void Flush() {
    if (pending_.empty()) return;
    ++flushCount_;
    flushedBytes_ += pendingBytes_;
    pendingBytes_ = 0;
    for (WireBuffer& frame : std::exchange(pending_, {})) flush_(std::move(frame));
  }

  [[nodiscard]] std::size_t PendingBytes() const noexcept { return pendingBytes_; }
  [[nodiscard]] std::uint64_t FlushCount() const noexcept { return flushCount_; }
  [[nodiscard]] std::uint64_t FlushedBytes() const noexcept { return flushedBytes_; }

 private:
  BatchConfig cfg_;
  FlushFn flush_;
  std::vector<WireBuffer> pending_;
  std::size_t pendingBytes_ = 0;
  TimePoint firstEnqueued_ = 0;
  std::uint64_t flushCount_ = 0;
  std::uint64_t flushedBytes_ = 0;
};

struct ConflateConfig {
  Duration interval = 100 * kMillisecond;  // aggregation window
};

/// Message-level conflator: within a window, only the newest message per
/// topic survives. Emission preserves topic first-arrival order.
class Conflator {
 public:
  using EmitFn = std::function<void(const Message&)>;

  Conflator(ConflateConfig cfg, EmitFn emit)
      : cfg_(cfg), emit_(std::move(emit)) {}

  void Offer(const Message& msg, TimePoint now) {
    if (slots_.empty()) windowStart_ = now;
    ++offered_;
    // Slots are keyed by interned topic id: a 12-byte FlatMap entry per
    // live topic instead of a string-keyed hash node (DESIGN.md §15).
    const TopicId id = TopicTable::Default().Intern(msg.topic);
    if (auto* slot = bySlot_.Find(id)) {
      slots_[*slot] = msg;  // newest wins
    } else {
      bySlot_[id] = slots_.size();
      slots_.push_back(msg);
    }
  }

  [[nodiscard]] std::optional<TimePoint> Deadline() const {
    if (slots_.empty()) return std::nullopt;
    return windowStart_ + cfg_.interval;
  }

  void OnTime(TimePoint now) {
    if (!slots_.empty() && now >= windowStart_ + cfg_.interval) Flush();
  }

  void Flush() {
    if (slots_.empty()) return;
    for (const Message& m : slots_) {
      ++emitted_;
      emit_(m);
    }
    // Both containers keep their allocations across windows (vector clear()
    // retains capacity; unordered_map clear() retains its bucket array), so
    // a steady per-window topic set never reallocates. A one-off burst far
    // above the steady state releases the slot storage.
    slots_.clear();
    if (slots_.capacity() > kShrinkSlots) {
      std::vector<Message>().swap(slots_);
      slots_.reserve(kShrinkSlots / 4);
    }
    bySlot_.Clear();
  }

  /// Pre-sizes both containers for an expected per-window topic count.
  void Reserve(std::size_t topics) {
    slots_.reserve(topics);
    bySlot_.Reserve(topics);
  }

  [[nodiscard]] std::uint64_t OfferedCount() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t EmittedCount() const noexcept { return emitted_; }
  /// Retained slot capacity (tests assert no-realloc steady state).
  [[nodiscard]] std::size_t SlotCapacity() const noexcept {
    return slots_.capacity();
  }
  [[nodiscard]] std::size_t SlotBuckets() const noexcept {
    return bySlot_.capacity();
  }

  static constexpr std::size_t kShrinkSlots = 4096;

 private:
  ConflateConfig cfg_;
  EmitFn emit_;
  std::vector<Message> slots_;
  md::FlatMap<TopicId, std::size_t> bySlot_;
  TimePoint windowStart_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace md::core
