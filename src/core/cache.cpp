#include "core/cache.hpp"

#include <algorithm>

namespace md::core {

namespace {

TopicTable& Topics() { return TopicTable::Default(); }

}  // namespace

Cache::Cache(CacheConfig cfg) : cfg_(cfg), shards_(cfg.topicGroups) {}

bool Cache::Append(const Message& msg, TimePoint now) {
  const TopicId id = Topics().Intern(msg.topic);
  if (id == kInvalidTopicId) return false;
  Shard& shard = ShardFor(msg.topic);
  std::lock_guard lock(shard.mutex);
  TopicHistory& history = shard.topics[id];

  if (!history.entries.empty()) {
    const StreamPos last = PosOf(history.entries.back());
    if (PosOf(msg) <= last) return false;  // duplicate or stale
  }
  history.entries.push_back(msg);
  while (history.entries.size() > cfg_.maxMessagesPerTopic) {
    history.entries.pop_front();
  }
  // Under the shard lock so the WAL records a group's appends in cache
  // order; failures (ENOSPC) are counted by the Log, the in-memory cache
  // stays authoritative for serving either way.
  if (wal_ != nullptr) (void)wal_->Append(GroupOf(msg.topic), msg, now);
  return true;
}

bool Cache::Insert(const Message& msg, TimePoint now) {
  Shard& shard = ShardFor(msg.topic);
  std::lock_guard lock(shard.mutex);
  return InsertLocked(shard, msg, now, /*writeWal=*/true);
}

bool Cache::InsertRecovered(const Message& msg) {
  Shard& shard = ShardFor(msg.topic);
  std::lock_guard lock(shard.mutex);
  return InsertLocked(shard, msg, /*now=*/0, /*writeWal=*/false);
}

bool Cache::InsertLocked(Shard& shard, const Message& msg, TimePoint now,
                         bool writeWal) {
  const TopicId id = Topics().Intern(msg.topic);
  if (id == kInvalidTopicId) return false;
  TopicHistory& history = shard.topics[id];
  auto& entries = history.entries;

  const auto it = std::lower_bound(
      entries.begin(), entries.end(), PosOf(msg),
      [](const Message& m, StreamPos p) { return PosOf(m) < p; });
  if (it != entries.end() && PosOf(*it) == PosOf(msg)) return false;
  entries.insert(it, msg);
  while (entries.size() > cfg_.maxMessagesPerTopic) entries.pop_front();
  if (writeWal && wal_ != nullptr) {
    (void)wal_->Append(GroupOf(msg.topic), msg, now);
  }
  return true;
}

std::vector<Message> Cache::GetAfter(const std::string& topic, StreamPos pos,
                                     std::size_t maxCount) const {
  const TopicId id = Topics().Find(topic);
  if (id == kInvalidTopicId) return {};
  const Shard& shard = ShardFor(topic);
  std::lock_guard lock(shard.mutex);
  std::vector<Message> out;
  const TopicHistory* history = shard.topics.Find(id);
  if (history == nullptr) return out;

  // Binary search: entries are ordered by (epoch, seq).
  const auto& entries = history->entries;
  auto first = std::upper_bound(
      entries.begin(), entries.end(), pos,
      [](StreamPos p, const Message& m) { return p < PosOf(m); });
  for (; first != entries.end() && out.size() < maxCount; ++first) {
    out.push_back(*first);
  }
  return out;
}

std::optional<StreamPos> Cache::LastPos(const std::string& topic) const {
  const TopicId id = Topics().Find(topic);
  if (id == kInvalidTopicId) return std::nullopt;
  const Shard& shard = ShardFor(topic);
  std::lock_guard lock(shard.mutex);
  const TopicHistory* history = shard.topics.Find(id);
  if (history == nullptr || history->entries.empty()) return std::nullopt;
  return PosOf(history->entries.back());
}

std::vector<std::pair<TopicId, std::string_view>> Cache::SortedTopicsLocked(
    const Shard& shard) {
  std::vector<std::pair<TopicId, std::string_view>> topics;
  topics.reserve(shard.topics.size());
  shard.topics.ForEach([&](TopicId id, const TopicHistory& history) {
    if (!history.entries.empty()) {
      topics.emplace_back(id, Topics().NameOf(id));
    }
  });
  std::sort(topics.begin(), topics.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return topics;
}

std::vector<Message> Cache::GroupSnapshot(std::uint32_t group) const {
  std::vector<Message> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [id, name] : SortedTopicsLocked(shard)) {
    const TopicHistory* history = shard.topics.Find(id);
    out.insert(out.end(), history->entries.begin(), history->entries.end());
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [id, name] : SortedTopicsLocked(shard)) {
    const TopicHistory* history = shard.topics.Find(id);
    out.emplace_back(std::string(name), PosOf(history->entries.back()));
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupEarliestPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [id, name] : SortedTopicsLocked(shard)) {
    const TopicHistory* history = shard.topics.Find(id);
    out.emplace_back(std::string(name), PosOf(history->entries.front()));
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupContiguousPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [id, name] : SortedTopicsLocked(shard)) {
    const auto& entries = shard.topics.Find(id)->entries;
    StreamPos last = PosOf(entries.front());
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const StreamPos next = PosOf(entries[i]);
      // Same contiguity rule as the live gap check: only a same-epoch +1
      // step is provably hole-free (epoch changes restart sequences).
      if (next.epoch != last.epoch || next.seq != last.seq + 1) break;
      last = next;
    }
    out.emplace_back(std::string(name), last);
  }
  return out;
}

std::size_t Cache::TotalMessages() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.topics.ForEach([&](TopicId, const TopicHistory& history) {
      total += history.entries.size();
    });
  }
  return total;
}

void Cache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.topics.Clear();
  }
}

}  // namespace md::core
