#include "wal/log.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"

namespace md::wal {

std::optional<FsyncPolicy> ParseFsyncPolicy(std::string_view s) {
  if (s == "os") return FsyncPolicy::kOs;
  if (s == "group") return FsyncPolicy::kGroupCommit;
  if (s == "always") return FsyncPolicy::kAlways;
  return std::nullopt;
}

Log::Log(Env& env, WalConfig cfg, obs::WalMetrics* metrics)
    : env_(env), cfg_(std::move(cfg)), metrics_(metrics) {
  if (enabled()) (void)env_.CreateDirs(cfg_.dir);
}

Log::~Log() { Close(); }

std::string Log::SegmentPath(std::uint64_t index) const {
  return cfg_.dir + "/" + SegmentFileName(index);
}

RecoveryStats Log::Recover(
    const std::function<void(Message&&)>& apply) {
  RecoveryStats stats;
  if (!enabled()) return stats;
  const TimePoint begin = RealClock::Instance().Now();

  std::vector<std::string> names;
  (void)env_.ListDir(cfg_.dir, &names);
  std::vector<std::uint64_t> indices;
  for (const auto& name : names) {
    if (const auto index = ParseSegmentFileName(name)) {
      indices.push_back(*index);
    } else if (name.ends_with(".wal")) {
      // A version-1 per-group segment (g<group>-<index>.wal): not replayed.
      ++stats.badSegments;
      MD_WARN("wal %s: skipping %s, a segment of the per-group layout",
              cfg_.dir.c_str(), name.c_str());
    }
  }
  std::sort(indices.begin(), indices.end());

  {
    std::lock_guard lock(mutex_);
    // Re-entrant recovery (double kill -9: the caller crashed mid-recovery
    // and is recovering again) starts from the on-disk truth, not stale
    // state. Never append to a possibly-damaged tail: the next append
    // starts a fresh segment.
    file_.reset();
    dirty_ = false;
    sealed_ = indices;
    nextIndex_ = indices.empty() ? 0 : indices.back() + 1;
  }
  // The scan holds no Log lock: `apply` takes the cache's shard locks,
  // which Cache::Append holds while it calls Append.
  for (const std::uint64_t index : indices) {
    ++stats.segments;
    Bytes data;
    if (!env_.ReadFile(SegmentPath(index), &data).ok()) {
      ++stats.badSegments;
      continue;
    }
    SegmentScanner scan(data);
    Message msg;
    while (scan.Next(&msg)) {
      ++stats.records;
      apply(std::move(msg));
    }
    if (scan.badHeader()) ++stats.badSegments;
    if (scan.torn()) ++stats.tornTails;
    stats.corruptSkipped += scan.corruptSkipped() + scan.undecodable();
  }
  stats.wallTime = RealClock::Instance().Now() - begin;

  if (metrics_ != nullptr) {
    metrics_->recoveredRecords.Inc(stats.records);
    metrics_->corruptSkipped.Inc(stats.corruptSkipped);
    metrics_->tornTruncated.Inc(stats.tornTails);
    metrics_->segments.Set(static_cast<std::int64_t>(stats.segments));
    metrics_->recoveryLastMs.Set(ToMillis(stats.wallTime));
  }
  return stats;
}

Status Log::Append(std::uint32_t /*group*/, const Message& msg,
                   TimePoint /*now*/) {
  if (!enabled()) return OkStatus();
  Bytes frame;
  EncodeRecord(msg, frame);
  bool dirtied = false;
  Status status;
  {
    std::lock_guard lock(mutex_);
    const bool wasClean = !dirty_;
    status = AppendLocked(frame);
    dirtied = wasClean && dirty_;
  }
  if (status.code() == ErrorCode::kCapacity && metrics_ != nullptr) {
    metrics_->enospcErrors.Inc();
  }
  // Wake SyncLoop after unlocking, so that it does not wake only to block on
  // the mutex this append still holds.
  if (dirtied && cfg_.fsync == FsyncPolicy::kGroupCommit) {
    dirtied_.notify_one();
  }
  return status;
}

Status Log::AppendLocked(const Bytes& frame) {
  if (!file_) {
    if (Status s = OpenSegment(); !s.ok()) return s;
  }
  if (Status s = file_->Append(frame); !s.ok()) return s;
  bytes_ += frame.size();
  dirty_ = true;
  if (metrics_ != nullptr) {
    metrics_->appends.Inc();
    metrics_->appendBytes.Inc(frame.size());
  }

  const Status syncStatus =
      cfg_.fsync == FsyncPolicy::kAlways ? SyncLocked() : OkStatus();
  if (bytes_ >= cfg_.segmentBytes) SealSegment();
  return syncStatus;
}

void Log::Flush(TimePoint /*now*/) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  (void)SyncLocked();
}

void Log::SyncLoop(std::stop_token stop) {
  if (!enabled()) return;
  const auto interval = std::chrono::nanoseconds(cfg_.flushInterval);
  std::unique_lock lock(mutex_);
  while (dirtied_.wait(lock, stop, [this] { return dirty_; })) {
    // The oldest unsynced append has just arrived: give the appends behind
    // it one interval to join the same fsync. A seal in between may sync
    // them first; SyncLocked then has nothing to do.
    dirtied_.wait_for(lock, stop, interval, [] { return false; });
    if (stop.stop_requested()) return;
    (void)SyncLocked();
  }
}

void Log::Abandon() {
  std::lock_guard lock(mutex_);
  file_.reset();  // deliberately no Sync: unsynced bytes are at risk
  dirty_ = false;
}

void Log::Close() {
  std::lock_guard lock(mutex_);
  if (!file_) return;
  (void)SyncLocked();
  (void)file_->Close();
  file_.reset();
}

Status Log::OpenSegment() {
  (void)env_.CreateDirs(cfg_.dir);
  std::unique_ptr<WritableFile> file;
  if (Status s = env_.NewWritableFile(SegmentPath(nextIndex_), &file);
      !s.ok()) {
    return s;
  }
  Bytes header;
  EncodeSegmentHeader(header);
  if (Status s = file->Append(header); !s.ok()) return s;
  file_ = std::move(file);
  index_ = nextIndex_++;
  bytes_ = header.size();
  dirty_ = true;
  if (metrics_ != nullptr) metrics_->segments.Add(1);
  return OkStatus();
}

void Log::SealSegment() {
  if (!file_) return;
  // A sealed segment is always synced once, even under kOs: bounded data at
  // risk is the whole point of sealing.
  (void)SyncLocked();
  (void)file_->Close();
  file_.reset();
  sealed_.push_back(index_);
  if (metrics_ != nullptr) metrics_->rotations.Inc();
  PruneRetention();
}

void Log::PruneRetention() {
  while (sealed_.size() > cfg_.retainSegments) {
    (void)env_.RemoveFile(SegmentPath(sealed_.front()));
    sealed_.erase(sealed_.begin());
    if (metrics_ != nullptr) metrics_->segments.Add(-1);
  }
}

Status Log::SyncLocked() {
  if (!file_ || !dirty_) return OkStatus();
  if (Status s = file_->Sync(); !s.ok()) return s;
  dirty_ = false;
  if (metrics_ != nullptr) metrics_->fsyncs.Inc();
  return OkStatus();
}

}  // namespace md::wal
