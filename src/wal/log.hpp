// Write-ahead journal underneath core::Cache (paper §4 durability gap).
//
// One Log is one server's journal: every topic group appends to the same
// chain of segments (format.hpp), in arrival order. Records carry their
// topic, so recovery routes each one without knowing its group. Appends are
// made durable per FsyncPolicy:
//
//   kAlways       fsync after every append, on the appending thread (ack
//                 implies durable)
//   kGroupCommit  Append only writes; the owner syncs. core::Server runs
//                 SyncLoop on a thread of its own, which sleeps while the
//                 journal is clean and fsyncs once the oldest unsynced append
//                 is flushInterval old; ClusterNode calls Flush from a timer
//                 every flushInterval, which keeps the simulator on one
//                 thread. Either way an append is durable within
//                 flushInterval plus one fsync, and all groups together cost
//                 at most about one fsync per interval.
//   kOs           never fsync on the append path; the OS page cache decides
//                 (segments are still synced once when sealed)
//
// Recovery replays every intact record oldest segment first, counts torn
// tails / corrupt records / unusable segments, and then starts a FRESH
// segment (maxIndex+1) — it never appends to a possibly-damaged tail.
//
// A segment is sealed once it reaches segmentBytes. Retention keeps the
// newest `retainSegments` sealed segments of the server (plus the active
// one); callers must size segmentBytes * retainSegments above the cache
// history of ALL topics they want to survive a crash, or messages still
// cached in memory may not be recoverable after one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
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
  /// Group-commit bound: the owner's sync (SyncLoop, or its Flush timer)
  /// makes every append durable within this long plus one fsync.
  Duration flushInterval = 5 * kMillisecond;
  /// Seal the active segment once it reaches this many bytes.
  std::uint64_t segmentBytes = 4ULL * 1024 * 1024;
  /// Sealed segments kept per server (all groups share them); older ones
  /// are deleted.
  std::uint32_t retainSegments = 8;
};

struct RecoveryStats {
  std::uint64_t records = 0;         // intact records replayed
  std::uint64_t corruptSkipped = 0;  // CRC-mismatch records dropped
  std::uint64_t tornTails = 0;       // segments truncated at a torn tail
  std::uint64_t badSegments = 0;     // unusable headers, version-1 files
  std::uint64_t segments = 0;        // segment files scanned
  Duration wallTime = 0;
};

/// Thread-safe segmented WAL. All methods may be called from any thread;
/// the journal's state is guarded by one mutex.
class Log {
 public:
  Log(Env& env, WalConfig cfg, obs::WalMetrics* metrics = nullptr);
  ~Log();

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  [[nodiscard]] bool enabled() const { return !cfg_.dir.empty(); }
  [[nodiscard]] const WalConfig& config() const { return cfg_; }

  /// Scans every segment under dir and replays intact records in order
  /// (oldest segment first) through `apply`. Damage is counted, never
  /// fatal; a version-1 g<group>-<index>.wal file is counted as a bad
  /// segment, logged and left alone. Subsequent appends go to a fresh
  /// segment.
  RecoveryStats Recover(const std::function<void(Message&&)>& apply);

  /// Appends one record to the active segment (opening it lazily); under
  /// kAlways also fsyncs it. kCapacity when the disk is full — the caller
  /// keeps serving from memory and counts the error. `group` and `now` are
  /// unused (all groups share the journal, and the sync clock is
  /// SyncLoop's); they stay because perfbench/ledger.cpp calls this
  /// signature.
  Status Append(std::uint32_t group, const Message& msg, TimePoint now);

  /// Syncs the journal if it has unsynced appends (ClusterNode's
  /// group-commit timer). `now` is unused, as in Append.
  void Flush(TimePoint now);

  /// kGroupCommit's sync thread: runs until `stop` is requested. While the
  /// journal is clean it waits without waking; once an append dirties it,
  /// it fsyncs flushInterval later, covering every append made meanwhile.
  /// Returns promptly on stop without syncing; Close() syncs the rest.
  void SyncLoop(std::stop_token stop);

  /// Drops the open handle WITHOUT syncing — models kill -9. The Log stays
  /// usable; the next append opens a fresh segment.
  void Abandon();

  /// Flush + close the active segment.
  void Close();

 private:
  [[nodiscard]] std::string SegmentPath(std::uint64_t index) const;
  /// Writes one encoded record (opening a segment if none is active) and
  /// applies kAlways and sealing.
  Status AppendLocked(const Bytes& frame);
  Status OpenSegment();
  void SealSegment();
  void PruneRetention();
  Status SyncLocked();

  Env& env_;
  const WalConfig cfg_;
  obs::WalMetrics* metrics_;

  std::mutex mutex_;
  std::condition_variable_any dirtied_;  // a clean journal got unsynced bytes
  std::unique_ptr<WritableFile> file_;   // active segment (lazily opened)
  std::uint64_t index_ = 0;              // active segment index
  std::uint64_t nextIndex_ = 0;          // index for the next segment opened
  std::uint64_t bytes_ = 0;              // bytes written to active segment
  bool dirty_ = false;                   // unsynced appends outstanding
  std::vector<std::uint64_t> sealed_;    // sealed segment indices, ascending
};

}  // namespace md::wal
