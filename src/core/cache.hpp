// Topic-history cache (paper §4).
//
// Maintains, per topic, the recent messages needed for (a) subscriber
// recovery after reconnection and (b) server cache reconstruction after a
// crash or partition. Topics are grouped into topic groups by hashing their
// name; each group's data structure is locked independently ("cache data
// structures for each group are locked independently"), which keeps writes
// mostly uncontended because each cluster member coordinates a distinct
// subset of groups.
//
// Footprint (DESIGN.md §15): inside a shard, histories are keyed by interned
// TopicId in a FlatMap (no per-topic string copies, no map nodes) and entry
// deques draw their blocks from the slab arena. Group assignment stays the
// FNV-1a hash of the topic NAME — ids are local and never affect which group
// (and therefore which cluster coordinator / WAL stream) a topic belongs to.
//
// Retention is bounded per topic, by message count.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/hash.hpp"
#include "common/slab.hpp"
#include "common/time.hpp"
#include "common/topic_intern.hpp"
#include "proto/message.hpp"
#include "wal/log.hpp"

namespace md::core {

struct CacheConfig {
  std::uint32_t topicGroups = 100;       // paper: "typical installation uses 100"
  std::size_t maxMessagesPerTopic = 1000;
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg = {});

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Routes every subsequent successful Append/Insert through `wal` (while
  /// the shard lock is held, so the WAL sees the cache's per-group order).
  /// Call before serving traffic; pass nullptr to detach. The Log must
  /// outlive the Cache.
  void AttachWal(wal::Log* wal) { wal_ = wal; }

  /// Appends a sequenced message to its topic's history. Out-of-date
  /// duplicates (pos <= last cached pos) are ignored; returns true if stored.
  bool Append(const Message& msg, TimePoint now = 0);

  /// Sorted insert for recovery merges: unlike Append, accepts messages
  /// older than the newest cached position and backfills them in order
  /// (duplicates still ignored). O(n) in the topic history — recovery only.
  bool Insert(const Message& msg, TimePoint now = 0);

  /// Insert WITHOUT writing the WAL — the apply path of WAL recovery (the
  /// record is already durable; re-appending it would double it on disk).
  bool InsertRecovered(const Message& msg);

  /// Messages of `topic` strictly after `pos`, in (epoch, seq) order.
  [[nodiscard]] std::vector<Message> GetAfter(const std::string& topic,
                                              StreamPos pos,
                                              std::size_t maxCount = SIZE_MAX) const;

  /// Position of the newest cached message of `topic` (nullopt if none).
  [[nodiscard]] std::optional<StreamPos> LastPos(const std::string& topic) const;

  /// Every cached message of every topic in `group`, ordered per topic —
  /// used to serve CacheSyncReq from recovering peers (paper §5.2.2).
  [[nodiscard]] std::vector<Message> GroupSnapshot(std::uint32_t group) const;

  /// Newest position per topic within `group` (the "have" list of a
  /// CacheSyncReq).
  [[nodiscard]] std::vector<std::pair<std::string, StreamPos>> GroupPositions(
      std::uint32_t group) const;

  /// Last position of the longest contiguous PREFIX per topic in `group`
  /// (consecutive entries with the same epoch and seq+1 steps). A WAL-
  /// recovered history can have interior holes — corrupt records skipped,
  /// ENOSPC windows — and a sync "have" cursor past a hole would stop peers
  /// from ever refilling it; this cursor makes them resend the suspicious
  /// span instead (Insert dedups the overlap).
  [[nodiscard]] std::vector<std::pair<std::string, StreamPos>>
  GroupContiguousPositions(std::uint32_t group) const;

  /// Per topic in `group`: the OLDEST position still cached. Cache-sync
  /// requests send these as the `head` list so peers resend anything older
  /// they still hold — a hole that falls before the surviving history (bit
  /// flip or ENOSPC that took a topic's first records) is invisible to any
  /// forward cursor and can only be healed from this side.
  [[nodiscard]] std::vector<std::pair<std::string, StreamPos>>
  GroupEarliestPositions(std::uint32_t group) const;

  /// Total cached messages (approximate under concurrency).
  [[nodiscard]] std::size_t TotalMessages() const;

  [[nodiscard]] std::uint32_t GroupOf(const std::string& topic) const noexcept {
    return TopicGroupOf(topic, cfg_.topicGroups);
  }
  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }

  void Clear();

 private:
  struct TopicHistory {
    // Ordered by (epoch, seq); blocks come from the slab arena so history
    // churn does not fragment the general heap.
    std::deque<Message, SlabAllocator<Message>> entries;
  };

  struct Shard {
    mutable std::mutex mutex;
    md::FlatMap<TopicId, TopicHistory> topics;
  };

  [[nodiscard]] Shard& ShardFor(const std::string& topic) {
    return shards_[GroupOf(topic)];
  }
  [[nodiscard]] const Shard& ShardFor(const std::string& topic) const {
    return shards_[GroupOf(topic)];
  }

  bool InsertLocked(Shard& shard, const Message& msg, TimePoint now,
                    bool writeWal);

  /// Sorted-by-name (topic id, name) list of a shard's non-empty histories.
  /// Group outputs iterate this so their order matches the old
  /// std::map<std::string, ...> behavior deterministically.
  static std::vector<std::pair<TopicId, std::string_view>> SortedTopicsLocked(
      const Shard& shard);

  CacheConfig cfg_;
  std::vector<Shard> shards_;  // one per topic group
  wal::Log* wal_ = nullptr;    // optional durability hook
};

}  // namespace md::core
