#include "core/cache.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace md::core {

namespace {

TopicTable& Topics() { return TopicTable::Default(); }

// A record is a fixed header followed by its payload bytes. Records sit back
// to back inside a chunk with no padding, so every field is read and written
// with memcpy (unaligned).
constexpr std::size_t kEpochAt = 0;       // u32
constexpr std::size_t kSeqAt = 4;         // u64
constexpr std::size_t kClientHashAt = 12; // u64 PublicationId::clientHash
constexpr std::size_t kCounterAt = 20;    // u64 PublicationId::counter
constexpr std::size_t kPublishTsAt = 28;  // i64
constexpr std::size_t kLengthAt = 36;     // u32 payload length
constexpr std::size_t kRecordHeader = 40;

template <typename T>
T Load(const std::byte* at) noexcept {
  T v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

template <typename T>
void Store(std::byte* at, T v) noexcept {
  std::memcpy(at, &v, sizeof v);
}

StreamPos PosAt(const std::byte* record) noexcept {
  return {Load<std::uint32_t>(record + kEpochAt),
          Load<std::uint64_t>(record + kSeqAt)};
}

std::size_t RecordBytes(const std::byte* record) noexcept {
  return kRecordHeader + Load<std::uint32_t>(record + kLengthAt);
}

Message Decode(const std::byte* record, std::string_view topic) {
  Message m;
  m.topic.assign(topic);
  const std::uint32_t length = Load<std::uint32_t>(record + kLengthAt);
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(record + kRecordHeader);
  m.payload.assign(payload, payload + length);
  m.epoch = Load<std::uint32_t>(record + kEpochAt);
  m.seq = Load<std::uint64_t>(record + kSeqAt);
  m.pubId.clientHash = Load<std::uint64_t>(record + kClientHashAt);
  m.pubId.counter = Load<std::uint64_t>(record + kCounterAt);
  m.publishTs = Load<std::int64_t>(record + kPublishTsAt);
  return m;
}

void Encode(const Message& msg, std::byte* record) noexcept {
  Store(record + kEpochAt, msg.epoch);
  Store(record + kSeqAt, msg.seq);
  Store(record + kClientHashAt, msg.pubId.clientHash);
  Store(record + kCounterAt, msg.pubId.counter);
  Store(record + kPublishTsAt, msg.publishTs);
  Store(record + kLengthAt, static_cast<std::uint32_t>(msg.payload.size()));
  if (!msg.payload.empty()) {
    std::memcpy(record + kRecordHeader, msg.payload.data(), msg.payload.size());
  }
}

constexpr std::size_t RoundUp16(std::size_t n) noexcept {
  return (n + 15) & ~std::size_t{15};
}

/// First history in an id-sorted shard whose id is not below `id`.
template <typename Histories>
auto LowerBound(Histories& histories, TopicId id) {
  return std::lower_bound(
      histories.begin(), histories.end(), id,
      [](const auto& history, TopicId key) { return history.id() < key; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Chunk chain
// ---------------------------------------------------------------------------

// A chunk's header; its records follow. Offsets count from the chunk's first
// byte, so live records span [head, tail) and `last` is the newest one.
struct Cache::Chunk {
  std::uint32_t size;  // allocation size, this header included
  std::uint32_t head;
  std::uint32_t tail;
  std::uint32_t last;

  std::byte* At(std::uint32_t offset) noexcept {
    return reinterpret_cast<std::byte*>(this) + offset;
  }
  const std::byte* At(std::uint32_t offset) const noexcept {
    return reinterpret_cast<const std::byte*>(this) + offset;
  }
  [[nodiscard]] StreamPos FirstPos() const noexcept { return PosAt(At(head)); }
};

Cache::TopicHistory::~TopicHistory() {
  for (Chunk* chunk : chunks_) ::operator delete(chunk);
}

Cache::TopicHistory::TopicHistory(TopicHistory&& other) noexcept
    : id_(other.id_),
      count_(std::exchange(other.count_, 0)),
      chunkBytes_(std::exchange(other.chunkBytes_, 0)),
      chunks_(std::move(other.chunks_)) {
  other.chunks_.clear();
}

Cache::TopicHistory& Cache::TopicHistory::operator=(
    TopicHistory&& other) noexcept {
  if (this != &other) {
    for (Chunk* chunk : chunks_) ::operator delete(chunk);
    id_ = other.id_;
    count_ = std::exchange(other.count_, 0);
    chunkBytes_ = std::exchange(other.chunkBytes_, 0);
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
  }
  return *this;
}

StreamPos Cache::TopicHistory::Front() const noexcept {
  return chunks_.front()->FirstPos();
}

StreamPos Cache::TopicHistory::Back() const noexcept {
  const Chunk* tail = chunks_.back();
  return PosAt(tail->At(tail->last));
}

std::size_t Cache::TopicHistory::Bytes() const noexcept {
  return chunkBytes_ + chunks_.capacity() * sizeof(Chunk*);
}

std::byte* Cache::TopicHistory::Reserve(std::size_t recordBytes) {
  Chunk* tail = chunks_.empty() ? nullptr : chunks_.back();
  if (tail == nullptr || tail->size - tail->tail < recordBytes) {
    // At least half of what the history already holds, up to the cap, cut
    // to a whole number of records the size of this one: a stream of
    // same-sized messages leaves no tail gap in its chunks.
    const std::size_t grow = std::min(kChunkCap, chunkBytes_ / 2);
    std::size_t size = sizeof(Chunk) + recordBytes;
    if (grow > size) {
      size = sizeof(Chunk) + (grow - sizeof(Chunk)) / recordBytes * recordBytes;
    }
    size = RoundUp16(size);
    tail = ::new (::operator new(size)) Chunk{
        .size = static_cast<std::uint32_t>(size),
        .head = sizeof(Chunk),
        .tail = sizeof(Chunk),
        .last = sizeof(Chunk)};
    chunks_.push_back(tail);
    chunkBytes_ += size;
  }
  tail->last = tail->tail;
  tail->tail += static_cast<std::uint32_t>(recordBytes);
  ++count_;
  return tail->At(tail->last);
}

void Cache::TopicHistory::PushBack(const Message& msg) {
  Encode(msg, Reserve(kRecordHeader + msg.payload.size()));
}

void Cache::TopicHistory::PopFront() noexcept {
  Chunk* head = chunks_.front();
  head->head += static_cast<std::uint32_t>(RecordBytes(head->At(head->head)));
  --count_;
  if (head->head == head->tail) {
    chunkBytes_ -= head->size;
    ::operator delete(head);
    chunks_.erase(chunks_.begin());
  }
}

template <typename Before>
Cache::Cursor Cache::TopicHistory::Seek(Before before) const {
  const auto it = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [&](const Chunk* chunk) { return before(chunk->FirstPos()); });
  if (it == chunks_.begin()) {
    return {0, chunks_.empty() ? 0 : chunks_.front()->head};
  }
  // Every chunk before `it` starts before the target, so the target is in
  // the last of them or is the first record of `it`.
  const std::size_t index = static_cast<std::size_t>(it - chunks_.begin()) - 1;
  const Chunk* chunk = chunks_[index];
  std::uint32_t offset = chunk->head;
  while (offset != chunk->tail && before(PosAt(chunk->At(offset)))) {
    offset += static_cast<std::uint32_t>(RecordBytes(chunk->At(offset)));
  }
  if (offset != chunk->tail) return {index, offset};
  return {index + 1, it == chunks_.end() ? 0 : (*it)->head};
}

template <typename Fn>
void Cache::TopicHistory::ForEachFrom(Cursor at, Fn&& fn) const {
  for (std::size_t c = at.chunk; c < chunks_.size(); ++c) {
    const Chunk* chunk = chunks_[c];
    for (std::uint32_t offset = c == at.chunk ? at.offset : chunk->head;
         offset != chunk->tail;
         offset += static_cast<std::uint32_t>(RecordBytes(chunk->At(offset)))) {
      if (!fn(chunk->At(offset))) return;
    }
  }
}

template <typename Fn>
void Cache::TopicHistory::ForEach(Fn&& fn) const {
  if (!chunks_.empty()) ForEachFrom({0, chunks_.front()->head}, fn);
}

bool Cache::TopicHistory::InsertSorted(const Message& msg) {
  const StreamPos pos = PosOf(msg);
  const Cursor at = Seek([pos](StreamPos p) { return p < pos; });
  if (at.chunk < chunks_.size() &&
      PosAt(chunks_[at.chunk]->At(at.offset)) == pos) {
    return false;
  }
  TopicHistory rebuilt(id_);
  bool placed = false;
  ForEach([&](const std::byte* record) {
    if (!placed && pos < PosAt(record)) {
      rebuilt.PushBack(msg);
      placed = true;
    }
    const std::size_t bytes = RecordBytes(record);
    std::memcpy(rebuilt.Reserve(bytes), record, bytes);
    return true;
  });
  if (!placed) rebuilt.PushBack(msg);
  *this = std::move(rebuilt);
  return true;
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

Cache::Cache(CacheConfig cfg) : cfg_(cfg), shards_(cfg.topicGroups) {}

const Cache::TopicHistory* Cache::FindLocked(const Shard& shard, TopicId id) {
  const auto it = LowerBound(shard.topics, id);
  return it != shard.topics.end() && it->id() == id ? &*it : nullptr;
}

Cache::TopicHistory& Cache::FindOrAddLocked(Shard& shard, TopicId id) {
  const auto it = LowerBound(shard.topics, id);
  if (it != shard.topics.end() && it->id() == id) return *it;
  return *shard.topics.emplace(it, id);
}

bool Cache::Append(const Message& msg, TimePoint now) {
  const TopicId id = Topics().Intern(msg.topic);
  if (id == kInvalidTopicId) return false;
  Shard& shard = ShardFor(msg.topic);
  std::lock_guard lock(shard.mutex);
  TopicHistory& history = FindOrAddLocked(shard, id);

  if (!history.empty() && PosOf(msg) <= history.Back()) {
    return false;  // duplicate or stale
  }
  history.PushBack(msg);
  while (history.size() > cfg_.maxMessagesPerTopic) history.PopFront();
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
  TopicHistory& history = FindOrAddLocked(shard, id);

  if (history.empty() || history.Back() < PosOf(msg)) {
    history.PushBack(msg);
  } else if (!history.InsertSorted(msg)) {
    return false;  // duplicate
  }
  while (history.size() > cfg_.maxMessagesPerTopic) history.PopFront();
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
  const TopicHistory* history = FindLocked(shard, id);
  if (history == nullptr || maxCount == 0) return out;

  history->ForEachFrom(
      history->Seek([pos](StreamPos p) { return p <= pos; }),
      [&](const std::byte* record) {
        out.push_back(Decode(record, topic));
        return out.size() < maxCount;
      });
  return out;
}

std::optional<StreamPos> Cache::LastPos(const std::string& topic) const {
  const TopicId id = Topics().Find(topic);
  if (id == kInvalidTopicId) return std::nullopt;
  const Shard& shard = ShardFor(topic);
  std::lock_guard lock(shard.mutex);
  const TopicHistory* history = FindLocked(shard, id);
  if (history == nullptr || history->empty()) return std::nullopt;
  return history->Back();
}

std::vector<std::pair<const Cache::TopicHistory*, std::string_view>>
Cache::SortedTopicsLocked(const Shard& shard) {
  std::vector<std::pair<const TopicHistory*, std::string_view>> topics;
  topics.reserve(shard.topics.size());
  for (const TopicHistory& history : shard.topics) {
    if (!history.empty()) {
      topics.emplace_back(&history, Topics().NameOf(history.id()));
    }
  }
  std::sort(topics.begin(), topics.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return topics;
}

std::vector<Message> Cache::GroupSnapshot(std::uint32_t group) const {
  std::vector<Message> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [history, name] : SortedTopicsLocked(shard)) {
    history->ForEach([&](const std::byte* record) {
      out.push_back(Decode(record, name));
      return true;
    });
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [history, name] : SortedTopicsLocked(shard)) {
    out.emplace_back(std::string(name), history->Back());
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupEarliestPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [history, name] : SortedTopicsLocked(shard)) {
    out.emplace_back(std::string(name), history->Front());
  }
  return out;
}

std::vector<std::pair<std::string, StreamPos>> Cache::GroupContiguousPositions(
    std::uint32_t group) const {
  std::vector<std::pair<std::string, StreamPos>> out;
  if (group >= shards_.size()) return out;
  const Shard& shard = shards_[group];
  std::lock_guard lock(shard.mutex);
  for (const auto& [history, name] : SortedTopicsLocked(shard)) {
    StreamPos last = history->Front();
    history->ForEach([&](const std::byte* record) {
      const StreamPos next = PosAt(record);
      if (next == last) return true;  // the oldest record itself
      // Same contiguity rule as the live gap check: only a same-epoch +1
      // step is provably hole-free (epoch changes restart sequences).
      if (next.epoch != last.epoch || next.seq != last.seq + 1) return false;
      last = next;
      return true;
    });
    out.emplace_back(std::string(name), last);
  }
  return out;
}

std::size_t Cache::TotalMessages() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const TopicHistory& history : shard.topics) total += history.size();
  }
  return total;
}

std::size_t Cache::Bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.topics.capacity() * sizeof(TopicHistory);
    for (const TopicHistory& history : shard.topics) total += history.Bytes();
  }
  return total;
}

void Cache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.topics = std::vector<TopicHistory>();
  }
}

}  // namespace md::core
