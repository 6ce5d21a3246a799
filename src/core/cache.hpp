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
// Footprint (DESIGN.md §15): a topic's history is a chain of heap chunks
// packed with records — a fixed 40-byte header (epoch, seq, publication id,
// publish timestamp, payload length) followed by the payload bytes — so a
// cached message costs its payload plus 40 bytes and no allocation of its
// own. The topic name is kept once, through its interned TopicId; a shard's
// histories sit in one vector sorted by id. Group assignment stays the
// FNV-1a hash of the topic NAME — ids are local and never affect which group
// (and therefore which cluster coordinator / WAL stream) a topic belongs to.
// None of it draws from the slab arena: Bytes() is the cache's exact share.
//
// Retention is bounded per topic, by message count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
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
  /// Largest chunk a topic's history allocates; a record that does not fit
  /// in one gets a chunk sized to it.
  static constexpr std::size_t kChunkCap = 4096;

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

  /// Bytes the cache holds: every history's chunks and chunk list plus the
  /// shards' per-topic records (the md_core_cache_bytes gauge).
  [[nodiscard]] std::size_t Bytes() const;

  [[nodiscard]] std::uint32_t GroupOf(const std::string& topic) const noexcept {
    return TopicGroupOf(topic, cfg_.topicGroups);
  }
  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }

  void Clear();

 private:
  struct Chunk;

  /// Where a record starts: chunk index and byte offset in that chunk.
  /// `chunk == chunks_.size()` is the end of the history.
  struct Cursor {
    std::size_t chunk = 0;
    std::uint32_t offset = 0;
  };

  /// One topic's messages, ordered by (epoch, seq), packed back to back
  /// into a chain of chunks (cache.cpp describes the record layout). A
  /// chunk is allocated only when the newest one is full and freed when
  /// eviction empties it. Chunks grow with the history — each holds at
  /// least half of the bytes already allocated, up to kChunkCap — so a
  /// topic with a few records wastes little and a long one allocates once
  /// per kChunkCap bytes; a record larger than that gets a chunk of its own.
  class TopicHistory {
   public:
    explicit TopicHistory(TopicId id) noexcept : id_(id) {}
    ~TopicHistory();
    TopicHistory(TopicHistory&& other) noexcept;
    TopicHistory& operator=(TopicHistory&& other) noexcept;

    [[nodiscard]] TopicId id() const noexcept { return id_; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    /// Oldest and newest positions; the history must not be empty.
    [[nodiscard]] StreamPos Front() const noexcept;
    [[nodiscard]] StreamPos Back() const noexcept;
    /// Chunk bytes plus the chunk list's array.
    [[nodiscard]] std::size_t Bytes() const noexcept;

    /// Appends `msg`, which must order after Back().
    void PushBack(const Message& msg);
    /// Drops the oldest record.
    void PopFront() noexcept;
    /// Places `msg` in order by rebuilding the chain; false if its position
    /// is already cached. O(n).
    bool InsertSorted(const Message& msg);

    /// The first record for which `before(position)` is false; `before`
    /// must hold for a prefix of the history. Binary search over the
    /// chunks' first positions, then a scan of one chunk.
    template <typename Before>
    [[nodiscard]] Cursor Seek(Before before) const;
    /// Calls `fn(record)` from `at` on, oldest first, while it returns true.
    template <typename Fn>
    void ForEachFrom(Cursor at, Fn&& fn) const;
    template <typename Fn>
    void ForEach(Fn&& fn) const;

   private:
    /// Room for a record of `recordBytes` at the end of the chain, adding a
    /// chunk when the newest one is full.
    std::byte* Reserve(std::size_t recordBytes);

    TopicId id_;
    std::uint32_t count_ = 0;
    std::size_t chunkBytes_ = 0;   // sum of the chunks' allocation sizes
    std::vector<Chunk*> chunks_;   // oldest first
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<TopicHistory> topics;  // sorted by TopicId
  };

  [[nodiscard]] static const TopicHistory* FindLocked(const Shard& shard,
                                                      TopicId id);
  static TopicHistory& FindOrAddLocked(Shard& shard, TopicId id);

  [[nodiscard]] Shard& ShardFor(const std::string& topic) {
    return shards_[GroupOf(topic)];
  }
  [[nodiscard]] const Shard& ShardFor(const std::string& topic) const {
    return shards_[GroupOf(topic)];
  }

  bool InsertLocked(Shard& shard, const Message& msg, TimePoint now,
                    bool writeWal);

  /// A shard's non-empty histories with their names, sorted by name: the
  /// deterministic per-topic order of every group output.
  static std::vector<std::pair<const TopicHistory*, std::string_view>>
  SortedTopicsLocked(const Shard& shard);

  CacheConfig cfg_;
  std::vector<Shard> shards_;  // one per topic group
  wal::Log* wal_ = nullptr;    // optional durability hook
};

}  // namespace md::core
