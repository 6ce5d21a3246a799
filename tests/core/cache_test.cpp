#include "core/cache.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace md::core
