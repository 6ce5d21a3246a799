#include "wal/log.hpp"

#include <algorithm>

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

std::string Log::SegmentPath(std::uint32_t group, std::uint64_t index) const {
  return cfg_.dir + "/" + SegmentFileName(group, index);
}

RecoveryStats Log::Recover(
    const std::function<void(Message&&)>& apply) {
  RecoveryStats stats;
  if (!enabled()) return stats;
  const TimePoint begin = RealClock::Instance().Now();

  std::vector<std::string> names;
  (void)env_.ListDir(cfg_.dir, &names);
  std::map<std::uint32_t, std::vector<std::uint64_t>> byGroup;
  for (const auto& name : names) {
    if (const auto parsed = ParseSegmentFileName(name)) {
      byGroup[parsed->group].push_back(parsed->index);
    }
  }

  std::lock_guard lock(mutex_);
  // Re-entrant recovery (double kill -9: the caller crashed mid-recovery and
  // is recovering again) starts from the on-disk truth, not stale state.
  groups_.clear();
  for (auto& [group, indices] : byGroup) {
    std::sort(indices.begin(), indices.end());
    GroupState& g = groups_[group];
    for (const std::uint64_t index : indices) {
      ++stats.segments;
      Bytes data;
      if (!env_.ReadFile(SegmentPath(group, index), &data).ok()) {
        ++stats.badSegments;
      } else {
        SegmentScanner scan(data, group);
        Message msg;
        while (scan.Next(&msg)) {
          ++stats.records;
          // NB: apply() must not call back into this Log (mutex held);
          // Cache::InsertRecovered is the intended target.
          apply(std::move(msg));
        }
        if (scan.badHeader()) ++stats.badSegments;
        if (scan.torn()) ++stats.tornTails;
        stats.corruptSkipped += scan.corruptSkipped() + scan.undecodable();
      }
      g.sealed.push_back(index);
    }
    // Never append to a possibly-damaged tail: next append starts fresh.
    g.nextIndex = indices.back() + 1;
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

Status Log::Append(std::uint32_t group, const Message& msg,
                   TimePoint now) {
  if (!enabled()) return OkStatus();
  std::lock_guard lock(mutex_);
  GroupState& g = groups_[group];
  if (!g.file) {
    if (Status s = OpenSegment(group, g, now); !s.ok()) {
      if (s.code() == ErrorCode::kCapacity && metrics_ != nullptr) {
        metrics_->enospcErrors.Inc();
      }
      return s;
    }
  }

  Bytes frame;
  EncodeRecord(msg, frame);
  if (Status s = g.file->Append(frame); !s.ok()) {
    if (s.code() == ErrorCode::kCapacity && metrics_ != nullptr) {
      metrics_->enospcErrors.Inc();
    }
    return s;
  }
  g.bytes += frame.size();
  g.dirty = true;
  if (metrics_ != nullptr) {
    metrics_->appends.Inc();
    metrics_->appendBytes.Inc(frame.size());
  }

  Status syncStatus = OkStatus();
  switch (cfg_.fsync) {
    case FsyncPolicy::kAlways:
      syncStatus = SyncLocked(g, now);
      break;
    case FsyncPolicy::kGroupCommit:
      if (now - g.lastSyncAt >= cfg_.flushInterval) {
        syncStatus = SyncLocked(g, now);
      }
      break;
    case FsyncPolicy::kOs:
      break;
  }

  if (g.bytes >= cfg_.segmentBytes) SealSegment(group, g);
  return syncStatus;
}

void Log::Flush(TimePoint now) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  for (auto& [group, g] : groups_) {
    if (g.file && g.dirty) (void)SyncLocked(g, now);
  }
}

void Log::Abandon() {
  std::lock_guard lock(mutex_);
  for (auto& [group, g] : groups_) {
    g.file.reset();  // deliberately no Sync: unsynced bytes are at risk
    g.dirty = false;
  }
}

void Log::Close() {
  std::lock_guard lock(mutex_);
  for (auto& [group, g] : groups_) {
    if (!g.file) continue;
    if (g.dirty) (void)SyncLocked(g, g.lastSyncAt);
    (void)g.file->Close();
    g.file.reset();
  }
}

Status Log::OpenSegment(std::uint32_t group, GroupState& g, TimePoint now) {
  (void)env_.CreateDirs(cfg_.dir);
  std::unique_ptr<WritableFile> file;
  if (Status s = env_.NewWritableFile(SegmentPath(group, g.nextIndex), &file);
      !s.ok()) {
    return s;
  }
  Bytes header;
  EncodeSegmentHeader(group, header);
  if (Status s = file->Append(header); !s.ok()) return s;
  g.file = std::move(file);
  g.index = g.nextIndex++;
  g.bytes = header.size();
  g.lastSyncAt = now;
  g.dirty = true;
  if (metrics_ != nullptr) metrics_->segments.Add(1);
  return OkStatus();
}

void Log::SealSegment(std::uint32_t group, GroupState& g) {
  if (!g.file) return;
  // A sealed segment is always synced once, even under kOs: bounded data at
  // risk is the whole point of sealing.
  if (g.dirty) (void)SyncLocked(g, g.lastSyncAt);
  (void)g.file->Close();
  g.file.reset();
  g.sealed.push_back(g.index);
  if (metrics_ != nullptr) metrics_->rotations.Inc();
  PruneRetention(group, g);
}

void Log::PruneRetention(std::uint32_t group, GroupState& g) {
  while (g.sealed.size() > cfg_.retainSegments) {
    (void)env_.RemoveFile(SegmentPath(group, g.sealed.front()));
    g.sealed.erase(g.sealed.begin());
    if (metrics_ != nullptr) metrics_->segments.Add(-1);
  }
}

Status Log::SyncLocked(GroupState& g, TimePoint now) {
  if (!g.file || !g.dirty) return OkStatus();
  if (Status s = g.file->Sync(); !s.ok()) return s;
  g.dirty = false;
  g.lastSyncAt = now;
  if (metrics_ != nullptr) metrics_->fsyncs.Inc();
  return OkStatus();
}

}  // namespace md::wal
