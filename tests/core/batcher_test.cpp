#include "core/batcher.hpp"

#include <gtest/gtest.h>

namespace md::core {
namespace {

Message Msg(const std::string& topic, std::uint64_t seq) {
  Message m;
  m.topic = topic;
  m.seq = seq;
  m.payload = {static_cast<std::uint8_t>(seq)};
  return m;
}

TEST(BatcherTest, SizeTriggeredFlush) {
  BatchConfig cfg;
  cfg.maxBytes = 10;
  std::vector<std::size_t> flushed;
  Batcher batcher(cfg, [&](WireBuffer w) { flushed.push_back(w->size()); });

  const WireBuffer frame = ToWire("abcd");
  batcher.Enqueue(frame, 0);  // 4 bytes pending
  batcher.Enqueue(frame, 0);  // 8
  EXPECT_TRUE(flushed.empty());
  batcher.Enqueue(frame, 0);  // 12 >= 10 -> flush
  EXPECT_EQ(flushed, (std::vector<std::size_t>{4, 4, 4}));
  EXPECT_EQ(batcher.FlushCount(), 1u);
  EXPECT_EQ(batcher.PendingBytes(), 0u);
}

TEST(BatcherTest, TimeTriggeredFlush) {
  BatchConfig cfg;
  cfg.maxDelay = 10 * kMillisecond;
  cfg.maxBytes = 1 << 20;
  int flushed = 0;
  Batcher batcher(cfg, [&](WireBuffer) { ++flushed; });

  batcher.Enqueue(ToWire("abcd"), 0);
  batcher.OnTime(5 * kMillisecond);  // too early
  EXPECT_EQ(flushed, 0);
  batcher.OnTime(10 * kMillisecond);
  EXPECT_EQ(flushed, 1);
}

TEST(BatcherTest, DeadlineTracksFirstEnqueue) {
  BatchConfig cfg;
  cfg.maxDelay = 100;
  Batcher batcher(cfg, [](WireBuffer) {});
  EXPECT_FALSE(batcher.Deadline().has_value());
  batcher.Enqueue(ToWire("a"), 50);
  batcher.Enqueue(ToWire("b"), 90);  // deadline stays at first enqueue
  ASSERT_TRUE(batcher.Deadline().has_value());
  EXPECT_EQ(*batcher.Deadline(), 150);
}

// A flush hands over the very buffers that were enqueued, in order: the
// batcher shares frames, it never copies them.
TEST(BatcherTest, BatchPreservesByteOrder) {
  BatchConfig cfg;
  std::vector<WireBuffer> got;
  Batcher batcher(cfg, [&](WireBuffer w) { got.push_back(std::move(w)); });
  const WireBuffer abc = ToWire("abc");
  const WireBuffer def = ToWire("def");
  batcher.Enqueue(abc, 0);
  batcher.Enqueue(def, 0);
  batcher.Flush();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], abc);
  EXPECT_EQ(got[1], def);
}

TEST(BatcherTest, CountsFlushesAndBytes) {
  BatchConfig cfg;
  Batcher batcher(cfg, [](WireBuffer) {});
  batcher.Enqueue(ToWire("1234"), 0);
  batcher.Flush();
  batcher.Enqueue(ToWire("56"), 0);
  batcher.Flush();
  batcher.Flush();  // empty: no-op
  EXPECT_EQ(batcher.FlushCount(), 2u);
  EXPECT_EQ(batcher.FlushedBytes(), 6u);
}

TEST(ConflatorTest, NewestMessagePerTopicWins) {
  ConflateConfig cfg;
  std::vector<Message> emitted;
  Conflator conflator(cfg, [&](const Message& m) { emitted.push_back(m); });

  conflator.Offer(Msg("a", 1), 0);
  conflator.Offer(Msg("a", 2), 0);
  conflator.Offer(Msg("a", 3), 0);
  conflator.Flush();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].seq, 3u);
}

TEST(ConflatorTest, TopicsPreserveFirstArrivalOrder) {
  ConflateConfig cfg;
  std::vector<std::string> order;
  Conflator conflator(cfg, [&](const Message& m) { order.push_back(m.topic); });
  conflator.Offer(Msg("x", 1), 0);
  conflator.Offer(Msg("y", 1), 0);
  conflator.Offer(Msg("x", 2), 0);  // update, does not reorder
  conflator.Flush();
  EXPECT_EQ(order, (std::vector<std::string>{"x", "y"}));
}

TEST(ConflatorTest, TimeWindowFlush) {
  ConflateConfig cfg;
  cfg.interval = 100;
  int emitted = 0;
  Conflator conflator(cfg, [&](const Message&) { ++emitted; });
  conflator.Offer(Msg("t", 1), 10);
  conflator.OnTime(100);  // window ends at 110
  EXPECT_EQ(emitted, 0);
  conflator.OnTime(110);
  EXPECT_EQ(emitted, 1);
}

TEST(ConflatorTest, WindowRestartsAfterFlush) {
  ConflateConfig cfg;
  cfg.interval = 100;
  Conflator conflator(cfg, [](const Message&) {});
  conflator.Offer(Msg("t", 1), 0);
  conflator.Flush();
  EXPECT_FALSE(conflator.Deadline().has_value());
  conflator.Offer(Msg("t", 2), 500);
  ASSERT_TRUE(conflator.Deadline().has_value());
  EXPECT_EQ(*conflator.Deadline(), 600);
}

TEST(ConflatorTest, CompressionRatioVisibleInCounters) {
  ConflateConfig cfg;
  Conflator conflator(cfg, [](const Message&) {});
  for (std::uint64_t s = 1; s <= 100; ++s) conflator.Offer(Msg("hot", s), 0);
  conflator.Offer(Msg("cold", 1), 0);
  conflator.Flush();
  EXPECT_EQ(conflator.OfferedCount(), 101u);
  EXPECT_EQ(conflator.EmittedCount(), 2u);  // 50x reduction on the hot topic
}

TEST(ConflatorTest, FlushOnEmptyIsNoop) {
  ConflateConfig cfg;
  int emitted = 0;
  Conflator conflator(cfg, [&](const Message&) { ++emitted; });
  conflator.Flush();
  conflator.OnTime(1000000);
  EXPECT_EQ(emitted, 0);
}

TEST(ConflatorTest, SteadyStateRetainsCapacityAcrossWindows) {
  ConflateConfig cfg;
  Conflator conflator(cfg, [](const Message&) {});
  constexpr int kTopics = 16;

  // Warm-up windows size the slot vector and the hash buckets.
  for (int window = 0; window < 3; ++window) {
    for (int t = 0; t < kTopics; ++t) {
      conflator.Offer(Msg("topic-" + std::to_string(t), 1), 0);
      conflator.Offer(Msg("topic-" + std::to_string(t), 2), 0);
    }
    conflator.Flush();
  }
  const std::size_t cap = conflator.SlotCapacity();
  const std::size_t buckets = conflator.SlotBuckets();
  ASSERT_GE(cap, static_cast<std::size_t>(kTopics));
  ASSERT_GT(buckets, 0u);

  // Steady state: the same per-window topic set never reallocates either
  // container.
  for (int window = 0; window < 100; ++window) {
    for (int t = 0; t < kTopics; ++t) {
      conflator.Offer(Msg("topic-" + std::to_string(t), 3), 0);
    }
    ASSERT_EQ(conflator.SlotCapacity(), cap) << "slot realloc, window " << window;
    conflator.Flush();
    ASSERT_EQ(conflator.SlotBuckets(), buckets)
        << "bucket realloc, window " << window;
  }
}

TEST(ConflatorTest, ReserveSizesContainersUpFront) {
  ConflateConfig cfg;
  Conflator conflator(cfg, [](const Message&) {});
  conflator.Reserve(64);
  const std::size_t cap = conflator.SlotCapacity();
  const std::size_t buckets = conflator.SlotBuckets();
  EXPECT_GE(cap, 64u);
  for (int t = 0; t < 64; ++t) {
    conflator.Offer(Msg("r-" + std::to_string(t), 1), 0);
  }
  EXPECT_EQ(conflator.SlotCapacity(), cap);
  EXPECT_EQ(conflator.SlotBuckets(), buckets);
}

TEST(ConflatorTest, BurstAboveShrinkLimitReleasesSlotStorage) {
  ConflateConfig cfg;
  Conflator conflator(cfg, [](const Message&) {});
  const std::size_t burst = Conflator::kShrinkSlots + 1;
  for (std::size_t t = 0; t < burst; ++t) {
    conflator.Offer(Msg("burst-" + std::to_string(t), 1), 0);
  }
  ASSERT_GE(conflator.SlotCapacity(), burst);
  conflator.Flush();
  EXPECT_LE(conflator.SlotCapacity(), Conflator::kShrinkSlots);
}

}  // namespace
}  // namespace md::core
