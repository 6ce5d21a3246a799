// Segmented write-ahead log underneath core::Cache (paper §4 durability gap).
//
// One Log instance serves all topic groups of a server; each group owns an
// independent segment sequence so recovery and retention are per-group.
// Appends are framed per format.hpp and made durable per FsyncPolicy:
//
//   kAlways       fsync after every append (ack implies durable)
//   kGroupCommit  fsync at most every flushInterval — either inline when an
//                 append notices the interval expired, or from the owner's
//                 flush timer (ClusterNode / Server schedule one)
//   kOs           never fsync on the append path; the OS page cache decides
//                 (segments are still synced once when sealed)
//
// Recovery replays every intact record oldest-to-newest per group, counts
// torn tails / corrupt records / unusable segments, and then starts a FRESH
// segment (maxIndex+1) — it never appends to a possibly-damaged tail.
//
// A segment is sealed once it reaches segmentBytes. Retention keeps the
// newest `retainSegments` sealed segments per group (plus the active one);
// callers must size segmentBytes * retainSegments above the cache history
// they want to survive a crash, or messages still cached in memory may not
// be recoverable after one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "obs/families.hpp"
#include "proto/message.hpp"
#include "wal/env.hpp"
#include "wal/format.hpp"

namespace md::wal {

enum class FsyncPolicy : std::uint8_t { kOs = 0, kGroupCommit = 1, kAlways = 2 };

[[nodiscard]] constexpr const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kOs: return "os";
    case FsyncPolicy::kGroupCommit: return "group";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

/// Parses "os" | "group" | "always"; nullopt otherwise.
[[nodiscard]] std::optional<FsyncPolicy> ParseFsyncPolicy(std::string_view s);

struct WalConfig {
  /// Root directory for segment files. Empty disables the WAL entirely.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Group-commit bound: an append syncs inline once this much time has
  /// passed since the group's last sync (owners also run a periodic Flush).
  Duration flushInterval = 5 * kMillisecond;
  /// Seal the active segment once it reaches this many bytes.
  std::uint64_t segmentBytes = 4ULL * 1024 * 1024;
  /// Sealed segments kept per group; older ones are deleted.
  std::uint32_t retainSegments = 8;
};

struct RecoveryStats {
  std::uint64_t records = 0;         // intact records replayed
  std::uint64_t corruptSkipped = 0;  // CRC-mismatch records dropped
  std::uint64_t tornTails = 0;       // segments truncated at a torn tail
  std::uint64_t badSegments = 0;     // unusable segment headers
  std::uint64_t segments = 0;        // segment files scanned
  Duration wallTime = 0;
};

/// Thread-safe segmented WAL. All methods may be called from any thread;
/// per-group state is guarded by one mutex (appends to the same group are
/// already serialized by the cache shard lock above this layer).
class Log {
 public:
  Log(Env& env, WalConfig cfg, obs::WalMetrics* metrics = nullptr);
  ~Log();

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  [[nodiscard]] bool enabled() const { return !cfg_.dir.empty(); }
  [[nodiscard]] const WalConfig& config() const { return cfg_; }

  /// Scans every segment under dir and replays intact records in order
  /// (oldest segment first within each group) through `apply`. Damage is
  /// counted, never fatal. Subsequent appends go to fresh segments.
  RecoveryStats Recover(const std::function<void(Message&&)>& apply);

  /// Appends one record to `group`'s active segment (opening it lazily) and
  /// applies the fsync policy. kCapacity when the disk is full — the caller
  /// keeps serving from memory and counts the error.
  Status Append(std::uint32_t group, const Message& msg, TimePoint now);

  /// Syncs every group with unsynced appends (group-commit timer, shutdown).
  void Flush(TimePoint now);

  /// Drops all open handles WITHOUT syncing — models kill -9. The Log stays
  /// usable; the next append opens a fresh segment.
  void Abandon();

  /// Flush + close all handles.
  void Close();

 private:
  struct GroupState {
    std::unique_ptr<WritableFile> file;  // active segment (lazily opened)
    std::uint64_t index = 0;             // active segment index
    std::uint64_t nextIndex = 0;         // index for the next segment opened
    std::uint64_t bytes = 0;             // bytes written to active segment
    TimePoint lastSyncAt = 0;
    bool dirty = false;                  // unsynced appends outstanding
    std::vector<std::uint64_t> sealed;   // sealed segment indices, ascending
  };

  [[nodiscard]] std::string SegmentPath(std::uint32_t group,
                                        std::uint64_t index) const;
  Status OpenSegment(std::uint32_t group, GroupState& g, TimePoint now);
  void SealSegment(std::uint32_t group, GroupState& g);
  void PruneRetention(std::uint32_t group, GroupState& g);
  Status SyncLocked(GroupState& g, TimePoint now);

  Env& env_;
  const WalConfig cfg_;
  obs::WalMetrics* metrics_;

  std::mutex mutex_;
  std::map<std::uint32_t, GroupState> groups_;
};

}  // namespace md::wal
