#include "core/cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

#include "common/rng.hpp"

namespace md::core {
namespace {

Message Msg(const std::string& topic, std::uint32_t epoch, std::uint64_t seq) {
  Message m;
  m.topic = topic;
  m.payload = {static_cast<std::uint8_t>(seq)};
  m.epoch = epoch;
  m.seq = seq;
  return m;
}

TEST(CacheTest, AppendAndGetAfter) {
  Cache cache;
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_TRUE(cache.Append(Msg("t", 1, s)));
  const auto after2 = cache.GetAfter("t", {1, 2});
  ASSERT_EQ(after2.size(), 3u);
  EXPECT_EQ(after2[0].seq, 3u);
  EXPECT_EQ(after2[2].seq, 5u);
}

TEST(CacheTest, GetAfterZeroReturnsEverything) {
  Cache cache;
  for (std::uint64_t s = 1; s <= 3; ++s) cache.Append(Msg("t", 1, s));
  EXPECT_EQ(cache.GetAfter("t", {0, 0}).size(), 3u);
}

TEST(CacheTest, GetAfterUnknownTopicIsEmpty) {
  Cache cache;
  EXPECT_TRUE(cache.GetAfter("nope", {0, 0}).empty());
}

TEST(CacheTest, DuplicateAndStaleAppendsIgnored) {
  Cache cache;
  EXPECT_TRUE(cache.Append(Msg("t", 1, 5)));
  EXPECT_FALSE(cache.Append(Msg("t", 1, 5)));  // duplicate
  EXPECT_FALSE(cache.Append(Msg("t", 1, 3)));  // stale
  EXPECT_TRUE(cache.Append(Msg("t", 1, 6)));
  EXPECT_EQ(cache.GetAfter("t", {0, 0}).size(), 2u);
}

TEST(CacheTest, EpochChangeOrdersAfterOldEpoch) {
  Cache cache;
  cache.Append(Msg("t", 1, 10));
  EXPECT_TRUE(cache.Append(Msg("t", 2, 1)));  // new epoch restarts seq
  const auto all = cache.GetAfter("t", {0, 0});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].epoch, 2u);
  // Resume from the old epoch's position returns the new epoch's messages.
  const auto resumed = cache.GetAfter("t", {1, 10});
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].epoch, 2u);
}

TEST(CacheTest, LastPosTracksNewest) {
  Cache cache;
  EXPECT_FALSE(cache.LastPos("t").has_value());
  cache.Append(Msg("t", 1, 1));
  cache.Append(Msg("t", 1, 2));
  const auto pos = cache.LastPos("t");
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, (StreamPos{1, 2}));
}

TEST(CacheTest, RetentionBoundPerTopic) {
  CacheConfig cfg;
  cfg.maxMessagesPerTopic = 10;
  Cache cache(cfg);
  for (std::uint64_t s = 1; s <= 100; ++s) cache.Append(Msg("t", 1, s));
  const auto all = cache.GetAfter("t", {0, 0});
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all.front().seq, 91u);  // oldest evicted
  EXPECT_EQ(all.back().seq, 100u);
}

TEST(CacheTest, MaxCountLimitsReplay) {
  Cache cache;
  for (std::uint64_t s = 1; s <= 50; ++s) cache.Append(Msg("t", 1, s));
  const auto limited = cache.GetAfter("t", {0, 0}, 7);
  ASSERT_EQ(limited.size(), 7u);
  EXPECT_EQ(limited.front().seq, 1u);  // in-order prefix, not suffix
}

TEST(CacheTest, GroupSnapshotCoversAllTopicsInGroup) {
  CacheConfig cfg;
  cfg.topicGroups = 1;  // everything in group 0
  Cache cache(cfg);
  cache.Append(Msg("a", 1, 1));
  cache.Append(Msg("a", 1, 2));
  cache.Append(Msg("b", 1, 1));
  const auto snapshot = cache.GroupSnapshot(0);
  EXPECT_EQ(snapshot.size(), 3u);
  EXPECT_TRUE(cache.GroupSnapshot(99).empty());  // out of range
}

TEST(CacheTest, GroupPositions) {
  CacheConfig cfg;
  cfg.topicGroups = 1;
  Cache cache(cfg);
  cache.Append(Msg("a", 1, 5));
  cache.Append(Msg("b", 2, 9));
  auto positions = cache.GroupPositions(0);
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0].first, "a");
  EXPECT_EQ(positions[0].second, (StreamPos{1, 5}));
  EXPECT_EQ(positions[1].second, (StreamPos{2, 9}));
}

TEST(CacheTest, TopicsLandInDifferentGroups) {
  Cache cache;  // 100 groups
  std::set<std::uint32_t> groups;
  for (int i = 0; i < 100; ++i) {
    groups.insert(cache.GroupOf("topic-" + std::to_string(i)));
  }
  EXPECT_GT(groups.size(), 50u);  // well spread
}

TEST(CacheTest, ClearRemovesEverything) {
  Cache cache;
  cache.Append(Msg("t", 1, 1));
  cache.Clear();
  EXPECT_EQ(cache.TotalMessages(), 0u);
}

TEST(CacheTest, ConcurrentAppendsToDistinctTopicsAreSafe) {
  Cache cache;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      const std::string topic = "topic-" + std::to_string(t);
      for (std::uint64_t s = 1; s <= kPerThread; ++s) {
        cache.Append(Msg(topic, 1, s));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.TotalMessages(), kThreads * 1000u);  // retention cap 1000
  for (int t = 0; t < kThreads; ++t) {
    const auto last = cache.LastPos("topic-" + std::to_string(t));
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->seq, kPerThread);
  }
}

// Property: GetAfter(pos) returns exactly the messages with position > pos,
// in order, for random append sequences.
class CacheReplayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheReplayProperty, ReplayMatchesReference) {
  Rng rng(GetParam());
  Cache cache;
  std::vector<Message> reference;
  std::uint32_t epoch = 1;
  std::uint64_t seq = 0;
  for (int i = 0; i < 300; ++i) {
    if (rng.NextBool(0.05)) {
      ++epoch;
      seq = 0;
    }
    ++seq;
    const Message m = Msg("t", epoch, seq);
    cache.Append(m);
    reference.push_back(m);
  }
  // Probe random resume positions.
  for (int probe = 0; probe < 20; ++probe) {
    const auto& ref = reference[rng.NextBelow(reference.size())];
    const StreamPos pos = PosOf(ref);
    const auto replay = cache.GetAfter("t", pos);
    std::vector<Message> expected;
    for (const auto& m : reference) {
      if (PosOf(m) > pos) expected.push_back(m);
    }
    // Retention cap may have evicted a prefix of `expected`.
    if (expected.size() > replay.size()) {
      expected.erase(expected.begin(),
                     expected.end() - static_cast<std::ptrdiff_t>(replay.size()));
    }
    ASSERT_EQ(replay.size(), expected.size());
    for (std::size_t i = 0; i < replay.size(); ++i) {
      EXPECT_EQ(PosOf(replay[i]), PosOf(expected[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheReplayProperty,
                         ::testing::Values(11, 22, 33, 44));

// Differential test of the packed history: a seeded random mix of appends,
// out-of-order inserts, duplicates and epoch changes drives the Cache and a
// plain reference model side by side, and every output is compared after
// each operation. Payloads run from empty to several chunk caps, so records
// that share a chunk and records that get one of their own both occur.
class CacheModel {
 public:
  explicit CacheModel(std::size_t maxPerTopic) : max_(maxPerTopic) {}

  bool Append(const Message& m) {
    auto& h = topics_[m.topic];
    if (!h.empty() && PosOf(m) <= PosOf(h.back())) return false;
    h.push_back(m);
    Evict(h);
    return true;
  }

  bool Insert(const Message& m) {
    auto& h = topics_[m.topic];
    const auto it = std::lower_bound(
        h.begin(), h.end(), PosOf(m),
        [](const Message& a, StreamPos p) { return PosOf(a) < p; });
    if (it != h.end() && PosOf(*it) == PosOf(m)) return false;
    h.insert(it, m);
    Evict(h);
    return true;
  }

  std::vector<Message> GetAfter(const std::string& topic, StreamPos pos,
                                std::size_t maxCount) const {
    std::vector<Message> out;
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return out;
    for (const Message& m : it->second) {
      if (out.size() >= maxCount) break;
      if (PosOf(m) > pos) out.push_back(m);
    }
    return out;
  }

  std::optional<StreamPos> LastPos(const std::string& topic) const {
    const auto it = topics_.find(topic);
    if (it == topics_.end() || it->second.empty()) return std::nullopt;
    return PosOf(it->second.back());
  }

  /// The topics of `group` with messages, in name order.
  std::vector<const std::vector<Message>*> Group(const Cache& cache,
                                                 std::uint32_t group) const {
    std::vector<const std::vector<Message>*> out;
    for (const auto& [topic, h] : topics_) {
      if (!h.empty() && cache.GroupOf(topic) == group) out.push_back(&h);
    }
    return out;
  }

  std::size_t Total() const {
    std::size_t n = 0;
    for (const auto& [topic, h] : topics_) n += h.size();
    return n;
  }

  const std::map<std::string, std::vector<Message>>& topics() const {
    return topics_;
  }

 private:
  void Evict(std::vector<Message>& h) const {
    if (h.size() > max_) {
      h.erase(h.begin(), h.end() - static_cast<std::ptrdiff_t>(max_));
    }
  }

  std::size_t max_;
  std::map<std::string, std::vector<Message>> topics_;
};

using Positions = std::vector<std::pair<std::string, StreamPos>>;

void ExpectSameGroup(const Cache& cache, const CacheModel& model,
                     std::uint32_t group) {
  std::vector<Message> snapshot;
  Positions newest;
  Positions earliest;
  Positions contiguous;
  for (const std::vector<Message>* h : model.Group(cache, group)) {
    snapshot.insert(snapshot.end(), h->begin(), h->end());
    const std::string& topic = h->front().topic;
    newest.emplace_back(topic, PosOf(h->back()));
    earliest.emplace_back(topic, PosOf(h->front()));
    StreamPos last = PosOf(h->front());
    for (std::size_t i = 1; i < h->size(); ++i) {
      const StreamPos next = PosOf((*h)[i]);
      if (next.epoch != last.epoch || next.seq != last.seq + 1) break;
      last = next;
    }
    contiguous.emplace_back(topic, last);
  }
  EXPECT_TRUE(cache.GroupSnapshot(group) == snapshot) << "group " << group;
  EXPECT_EQ(cache.GroupPositions(group), newest) << "group " << group;
  EXPECT_EQ(cache.GroupEarliestPositions(group), earliest) << "group " << group;
  EXPECT_EQ(cache.GroupContiguousPositions(group), contiguous)
      << "group " << group;
}

/// GetAfter from every cached position (and from before the first), with
/// and without a count limit, plus LastPos.
void ExpectSameTopic(const Cache& cache, const CacheModel& model,
                     const std::string& topic, Rng& rng) {
  EXPECT_EQ(cache.LastPos(topic), model.LastPos(topic)) << topic;
  std::vector<StreamPos> probes{StreamPos{0, 0}};
  if (const auto it = model.topics().find(topic); it != model.topics().end()) {
    for (const Message& m : it->second) {
      probes.push_back(PosOf(m));
      probes.push_back(StreamPos{m.epoch, m.seq + 1});  // between records
    }
  }
  for (const StreamPos pos : probes) {
    const std::size_t limit = rng.NextBool(0.5) ? SIZE_MAX : rng.NextBelow(4);
    ASSERT_TRUE(cache.GetAfter(topic, pos, limit) ==
                model.GetAfter(topic, pos, limit))
        << topic << " after (" << pos.epoch << "," << pos.seq << ") limit "
        << limit;
  }
}

class CacheDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheDifferential, MatchesReferenceModel) {
  Rng rng(GetParam());
  CacheConfig cfg;
  cfg.topicGroups = 3;
  cfg.maxMessagesPerTopic = 12;
  Cache cache(cfg);
  CacheModel model(cfg.maxMessagesPerTopic);

  constexpr int kTopics = 5;
  struct Stream {
    std::uint32_t epoch = 1;
    std::uint64_t seq = 0;
  };
  std::vector<Stream> streams(kTopics);
  const auto payloadSize = [&rng]() -> std::size_t {
    const std::uint64_t kind = rng.NextBelow(20);
    if (kind == 0) return 0;
    if (kind < 14) return 1 + rng.NextBelow(300);
    if (kind < 18) return 300 + rng.NextBelow(Cache::kChunkCap);
    return Cache::kChunkCap + rng.NextBelow(20 * 1024 - Cache::kChunkCap + 1);
  };

  for (int op = 0; op < 800; ++op) {
    const int t = static_cast<int>(rng.NextBelow(kTopics));
    Stream& stream = streams[t];
    Message m;
    m.topic = "diff/topic-" + std::to_string(t);
    m.payload.resize(payloadSize());
    for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng.NextBelow(256));
    m.pubId = {rng.Next(), rng.Next()};
    m.publishTs = static_cast<std::int64_t>(rng.Next() >> 1);

    const std::uint64_t kind = rng.NextBelow(10);
    bool got = false;
    bool want = false;
    if (kind < 6) {
      // Append past the newest: mostly the next seq, sometimes a gap or a
      // new epoch (which restarts the sequence).
      if (rng.NextBool(0.08)) {
        ++stream.epoch;
        stream.seq = 0;
      }
      stream.seq += rng.NextBool(0.15) ? 2 + rng.NextBelow(3) : 1;
      m.epoch = stream.epoch;
      m.seq = stream.seq;
      got = cache.Append(m);
      want = model.Append(m);
    } else if (kind < 8) {
      // Backfill: a position at or before the newest — a hole, an evicted
      // slot or an already cached one (a duplicate).
      m.epoch = 1 + static_cast<std::uint32_t>(rng.NextBelow(stream.epoch));
      m.seq = 1 + rng.NextBelow(stream.seq + 2);
      const bool recovered = rng.NextBool(0.5);
      got = recovered ? cache.InsertRecovered(m) : cache.Insert(m);
      want = model.Insert(m);
    } else {
      // A stale or duplicate append.
      m.epoch = 1 + static_cast<std::uint32_t>(rng.NextBelow(stream.epoch));
      m.seq = rng.NextBelow(stream.seq + 1);
      got = cache.Append(m);
      want = model.Append(m);
    }
    ASSERT_EQ(got, want) << "op " << op << " kind " << kind;
    ASSERT_NO_FATAL_FAILURE(ExpectSameTopic(cache, model, m.topic, rng))
        << "op " << op;
    ExpectSameGroup(cache, model, cache.GroupOf(m.topic));
    ASSERT_EQ(cache.TotalMessages(), model.Total()) << "op " << op;
    if (HasFailure()) FAIL() << "diverged at op " << op;
  }
  for (std::uint32_t g = 0; g < cfg.topicGroups; ++g) {
    ExpectSameGroup(cache, model, g);
  }
  cache.Clear();
  EXPECT_EQ(cache.TotalMessages(), 0u);
  EXPECT_EQ(cache.Bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Footprint bounds of the packed layout (DESIGN.md §15), read from
// Cache::Bytes().
Message Sized(const std::string& topic, std::uint64_t seq, std::size_t bytes) {
  Message m;
  m.topic = topic;
  m.payload.assign(bytes, 0x5A);
  m.epoch = 1;
  m.seq = seq;
  return m;
}

TEST(CacheFootprintTest, FullCacheCostsPayloadPlusHeader) {
  constexpr std::size_t kTopics = 100;
  constexpr std::size_t kPerTopic = 1000;
  constexpr std::size_t kPayload = 140;
  Cache cache;  // 1000 messages per topic, 100 groups
  std::vector<std::string> topics;
  for (std::size_t t = 0; t < kTopics; ++t) {
    topics.push_back("footprint/ticker-" + std::to_string(t));
  }
  std::uint64_t seq = 0;
  const auto round = [&] {
    ++seq;
    for (std::size_t i = 0; i < kPerTopic; ++i) {
      for (const std::string& topic : topics) {
        ASSERT_TRUE(cache.Append(Sized(topic, seq * kPerTopic + i, kPayload)));
      }
    }
  };
  const std::size_t bound =
      kTopics * kPerTopic * (kPayload + 48) + kTopics * 2 * Cache::kChunkCap;
  round();
  ASSERT_EQ(cache.TotalMessages(), kTopics * kPerTopic);
  EXPECT_LE(cache.Bytes(), bound);

  // Eviction recycles: over ten more rounds at the retention cap the
  // footprint moves by at most one chunk per topic. (Against the first fill
  // a steady history also holds a partly evicted oldest chunk, so the band
  // is taken over the rounds that evict.)
  std::size_t low = SIZE_MAX;
  std::size_t high = 0;
  for (int r = 0; r < 10; ++r) {
    round();
    ASSERT_EQ(cache.TotalMessages(), kTopics * kPerTopic);
    low = std::min(low, cache.Bytes());
    high = std::max(high, cache.Bytes());
  }
  EXPECT_LE(high, bound);
  EXPECT_LE(high - low, kTopics * Cache::kChunkCap)
      << "low " << low << " high " << high;

  cache.Clear();
  EXPECT_EQ(cache.Bytes(), 0u);
}

TEST(CacheFootprintTest, ManySmallTopicsCostPayloadPlusLittle) {
  constexpr std::size_t kTopics = 10'000;
  Cache cache;
  Rng rng(7);
  std::size_t payloadBytes = 0;
  for (std::size_t t = 0; t < kTopics; ++t) {
    // Log-uniform 64 B .. 4 KiB, like durable_recover's payloads.
    const auto bytes = static_cast<std::size_t>(
        64.0 * std::pow(64.0, static_cast<double>(rng.NextBelow(1'000'001)) /
                                  1'000'000.0));
    payloadBytes += bytes;
    ASSERT_TRUE(cache.Append(Sized("footprint/wide-" + std::to_string(t), 1,
                                   bytes)));
  }
  EXPECT_LE(cache.Bytes(), payloadBytes + kTopics * 192)
      << "payload " << payloadBytes;
  cache.Clear();
  EXPECT_EQ(cache.Bytes(), 0u);
}

}  // namespace
}  // namespace md::core
