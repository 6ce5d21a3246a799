// Zero-copy egress tests.
//
// Part 1 — SendQueue unit tests: deterministic, in-memory. The central
// property is that Consume() at *every* byte offset across a multi-frame
// scatter-gather batch preserves the byte stream exactly (frames never
// interleave or tear), because short writes resume mid-node by construction.
//
// Part 2 — the egress contract over real loopback sockets on EpollLoop:
// mixed copied/shared sends, watermark semantics, close-mid-flight safety
// and graceful close.
#include <gtest/gtest.h>

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "transport/epoll_loop.hpp"

namespace md {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// SendQueue units
// ---------------------------------------------------------------------------

Bytes Pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((seed + i * 7) % 251);
  }
  return b;
}

/// Grows `out` to `n` bytes by reading from the front of the queue via
/// FillIovecs and consuming — exactly what a flush does after a short write.
void TakeFrontInto(SendQueue& q, std::size_t n, Bytes& out) {
  while (out.size() < n) {
    iovec iov[4];
    const std::size_t filled = q.FillIovecs(iov, 4);
    ASSERT_GT(filled, 0u) << "queue ran dry";
    std::size_t took = 0;
    std::size_t target = n;
    for (std::size_t i = 0; i < filled && out.size() < target; ++i) {
      const std::size_t want = target - out.size();
      const std::size_t len = iov[i].iov_len < want ? iov[i].iov_len : want;
      const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), base, base + len);
      took += len;
    }
    q.Consume(took);
  }
}

/// Builds the canonical mixed queue: shared / copied / copied (coalesced) /
/// shared / copied — five frames, four nodes. Returns the expected stream.
Bytes BuildMixedQueue(SendQueue& q) {
  const Bytes f1 = Pattern(61, 1);
  const Bytes f2 = Pattern(17, 2);
  const Bytes f3 = Pattern(29, 3);
  const Bytes f4 = Pattern(47, 4);
  const Bytes f5 = Pattern(5, 5);
  q.AppendShared(std::make_shared<const Bytes>(f1));
  q.AppendCopy(BytesView(f2));
  q.AppendCopy(BytesView(f3));  // coalesces with f2
  q.AppendShared(std::make_shared<const Bytes>(f4));
  q.AppendCopy(BytesView(f5));
  Bytes expected;
  for (const Bytes* f : {&f1, &f2, &f3, &f4, &f5}) {
    expected.insert(expected.end(), f->begin(), f->end());
  }
  return expected;
}

TEST(SendQueueTest, ConsumeAtEveryOffsetPreservesStream) {
  SendQueue probe;
  const Bytes expected = BuildMixedQueue(probe);
  probe.Clear();
  // For every chunk size k — i.e. a short write stalling at every possible
  // byte offset — draining the queue k bytes at a time must reproduce the
  // exact appended stream.
  for (std::size_t k = 1; k <= expected.size(); ++k) {
    SendQueue q;
    (void)BuildMixedQueue(q);
    ASSERT_EQ(q.size(), expected.size());
    Bytes got;
    while (!q.empty()) {
      const std::size_t step = k < q.size() ? k : q.size();
      TakeFrontInto(q, got.size() + step, got);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(got, expected) << "stream corrupted at chunk size " << k;
    ASSERT_EQ(q.size(), 0u);
  }
}

TEST(SendQueueTest, CopiedAppendsCoalesceSharedAppendsDoNot) {
  SendQueue q;
  q.AppendCopy(BytesView(Pattern(10, 1)));
  q.AppendCopy(BytesView(Pattern(10, 2)));
  iovec iov[8];
  EXPECT_EQ(q.FillIovecs(iov, 8), 1u);  // two copies, one coalesced node
  EXPECT_EQ(iov[0].iov_len, 20u);

  q.AppendShared(std::make_shared<const Bytes>(Pattern(10, 3)));
  q.AppendCopy(BytesView(Pattern(10, 4)));
  // copy+copy | shared | copy — the shared node ended the coalescing run.
  EXPECT_EQ(q.FillIovecs(iov, 8), 3u);
  EXPECT_EQ(q.size(), 40u);
}

TEST(SendQueueTest, PartialNodeConsumeAdjustsIovecBase) {
  SendQueue q;
  const Bytes frame = Pattern(100, 33);
  q.AppendShared(std::make_shared<const Bytes>(frame));
  q.Consume(37);  // short write mid-node
  iovec iov[2];
  ASSERT_EQ(q.FillIovecs(iov, 2), 1u);
  EXPECT_EQ(iov[0].iov_len, 63u);
  EXPECT_EQ(std::memcmp(iov[0].iov_base, frame.data() + 37, 63), 0);
}

TEST(WireBufferPoolTest, BuffersRecycleThroughThePool) {
  // Drain the pool into a holding pen so the test owns its state.
  std::vector<std::shared_ptr<Bytes>> pen;
  while (WireBufferPoolSize() > 0) pen.push_back(AcquireWireBuffer());

  {
    auto buf = AcquireWireBuffer();  // pool empty -> fresh allocation
    buf->assign(1024, 0xEE);
    EXPECT_EQ(WireBufferPoolSize(), 0u);
  }  // last reference dropped -> recycled, not freed
  EXPECT_EQ(WireBufferPoolSize(), 1u);

  auto again = AcquireWireBuffer();
  EXPECT_EQ(WireBufferPoolSize(), 0u);
  EXPECT_TRUE(again->empty()) << "recycled buffer must come back empty";
  EXPECT_GE(again->capacity(), 1024u) << "recycled capacity should be warm";
}

// ---------------------------------------------------------------------------
// The egress contract over real sockets
// ---------------------------------------------------------------------------

class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.Run(); }) {}
  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }
  EpollLoop& loop() { return loop_; }

  template <typename Fn>
  void RunOnLoop(Fn fn) {
    std::atomic<bool> done{false};
    loop_.Post([&] {
      fn();
      done.store(true);
    });
    WaitFor([&] { return done.load(); });
  }

  static void WaitFor(const std::function<bool()>& pred,
                      std::chrono::milliseconds timeout = 20000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
      std::this_thread::sleep_for(1ms);
    }
  }

 private:
  EpollLoop loop_;
  std::thread thread_;
};

class EpollEgressTest : public ::testing::Test {
 protected:
  struct Pair {
    ListenerPtr listener;
    ConnectionPtr client;
    ConnectionPtr server;
  };

  /// Loopback pair; the accepted side appends everything it reads to `sink`
  /// (loop thread only; callers synchronize via RunOnLoop + WaitFor).
  void ConnectPair(Pair& pair, Bytes* sink, std::atomic<std::size_t>* count,
                   bool startPaused = false) {
    std::atomic<std::uint16_t> port{0};
    std::atomic<bool> accepted{false};
    lt_.RunOnLoop([&] {
      auto r = lt_.loop().Listen(0);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      pair.listener = std::move(*r);
      pair.listener->SetAcceptHandler([&pair, sink, count, startPaused,
                                       &accepted](ConnectionPtr conn) {
        if (startPaused) conn->SetReadPaused(true);
        conn->SetDataHandler([sink, count](BytesView d) {
          if (sink != nullptr) sink->insert(sink->end(), d.begin(), d.end());
          if (count != nullptr) count->fetch_add(d.size());
        });
        pair.server = conn;
        accepted.store(true);
      });
      port.store(pair.listener->Port());
    });
    std::atomic<bool> connected{false};
    lt_.RunOnLoop([&] {
      lt_.loop().Connect("127.0.0.1", port.load(), [&](Result<ConnectionPtr> r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        pair.client = *r;
        connected.store(true);
      });
    });
    LoopThread::WaitFor([&] { return connected.load() && accepted.load(); });
  }

  LoopThread lt_;
};

TEST_F(EpollEgressTest, SharedAndCopiedSendsBothArrive) {
  Pair pair;
  Bytes sink;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, &sink, &count);

  const Bytes a = Pattern(64, 1);
  const Bytes b = Pattern(64, 2);
  lt_.RunOnLoop([&] {
    ASSERT_TRUE(pair.client->Send(BytesView(a)).ok());
    ASSERT_TRUE(pair.client->Send(std::make_shared<const Bytes>(b)).ok());
  });
  LoopThread::WaitFor([&] { return count.load() == 128; });
  Bytes expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  lt_.RunOnLoop([&] { EXPECT_EQ(sink, expected); });
  lt_.RunOnLoop([&] { pair.client->Close(); });
}

TEST_F(EpollEgressTest, MixedMultiFrameBatchesNeverInterleave) {
  // The partial-write torture test: many frames of prime-ish sizes, shared
  // and copied interleaved, enqueued in bursts against a stalled-then-resumed
  // reader so flushes hit short writes at arbitrary offsets mid-batch. The
  // receiver must observe the exact concatenation — any frame interleaving,
  // tearing, duplication or reordering breaks the byte-for-byte compare.
  Pair pair;
  Bytes sink;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, &sink, &count, /*startPaused=*/true);

  constexpr int kFrames = 400;
  Bytes expected;
  lt_.RunOnLoop([&] {
    pair.client->SetWatermarks({/*soft=*/64 * 1024 * 1024,
                                /*hard=*/SIZE_MAX, /*low=*/0});
  });
  for (int burst = 0; burst < 8; ++burst) {
    lt_.RunOnLoop([&, burst] {
      for (int i = 0; i < kFrames / 8; ++i) {
        const int n = burst * (kFrames / 8) + i;
        const std::size_t size = 1 + (static_cast<std::size_t>(n) * 977) % 40000;
        const auto seed = static_cast<std::uint8_t>(n);
        const Bytes frame = Pattern(size, seed);
        expected.insert(expected.end(), frame.begin(), frame.end());
        Status st = OkStatus();
        if (n % 2 == 0) {
          auto wire = AcquireWireBuffer();
          wire->assign(frame.begin(), frame.end());
          st = pair.client->Send(WireBuffer(std::move(wire)));
        } else {
          st = pair.client->Send(BytesView(frame));
        }
        ASSERT_TRUE(st.ok() || st.code() == ErrorCode::kCapacity)
            << st.ToString();
      }
    });
    // Let part of the backlog drain between bursts so the stream mixes
    // freshly-written and queue-resumed bytes.
    if (burst == 3) {
      lt_.RunOnLoop([&] { pair.server->SetReadPaused(false); });
    }
  }
  lt_.RunOnLoop([&] { pair.server->SetReadPaused(false); });
  const std::size_t total = expected.size();
  LoopThread::WaitFor([&] { return count.load() >= total; });
  lt_.RunOnLoop([&] {
    ASSERT_EQ(sink.size(), expected.size());
    EXPECT_TRUE(sink == expected) << "egress stream corrupted";
  });
  lt_.RunOnLoop([&] { pair.client->Close(); });
}

TEST_F(EpollEgressTest, WatermarkContractHoldsForSharedSends) {
  // Same invariants as TcpBackpressureTest, driven through Send(shared):
  // pending never exceeds hard, kCapacity-with-growth means accepted,
  // kCapacity-without-growth means whole-frame reject, drained fires once.
  Pair pair;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, nullptr, &count, /*startPaused=*/true);

  constexpr std::size_t kSoft = 128 * 1024;
  constexpr std::size_t kHard = 512 * 1024;
  constexpr std::size_t kFrame = 64 * 1024;
  constexpr int kSends = 200;

  std::atomic<int> drained{0};
  std::size_t acceptedBytes = 0;
  bool sawSoftAccept = false;
  bool everOverHard = false;
  int trailingHardRejects = 0;
  lt_.RunOnLoop([&] {
    pair.client->SetWatermarks({kSoft, kHard, /*low=*/16 * 1024});
    pair.client->SetDrainedHandler([&] { drained.fetch_add(1); });
    const auto frame = std::make_shared<const Bytes>(Bytes(kFrame, 0x5A));
    for (int i = 0; i < kSends; ++i) {
      const std::size_t before = pair.client->PendingBytes();
      const Status st = pair.client->Send(frame);
      const std::size_t after = pair.client->PendingBytes();
      if (after > kHard) everOverHard = true;
      if (st.ok()) {
        acceptedBytes += kFrame;
        trailingHardRejects = 0;
      } else {
        ASSERT_EQ(st.code(), ErrorCode::kCapacity) << st.ToString();
        if (after > before) {
          acceptedBytes += kFrame;
          sawSoftAccept = true;
          trailingHardRejects = 0;
        } else {
          ++trailingHardRejects;
        }
      }
    }
  });

  EXPECT_FALSE(everOverHard) << "pending bytes exceeded the hard watermark";
  EXPECT_TRUE(sawSoftAccept) << "never observed a soft-watermark advisory";
  EXPECT_GE(trailingHardRejects, 20);

  const std::size_t expected = acceptedBytes;
  lt_.RunOnLoop([&] { pair.server->SetReadPaused(false); });
  LoopThread::WaitFor([&] { return count.load() >= expected; });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(count.load(), expected);
  LoopThread::WaitFor([&] { return drained.load() == 1; });
  lt_.RunOnLoop([&] {
    pair.client->Close();
    pair.server->Close();
  });
}

TEST_F(EpollEgressTest, DeferredBytesAreNotBackpressure) {
  // Watermarks must measure kernel pushback, not flush latency. A healthy
  // (reading) peer with marks far below one task batch's volume: every
  // shared send must drain into the kernel and return OK — a kCapacity here
  // means the deferred queue itself was mistaken for a slow consumer (the
  // regression that evicted healthy subscribers in the slow-consumer suite).
  Pair pair;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, nullptr, &count);

  constexpr std::size_t kFrame = 16 * 1024;
  constexpr int kSends = 20;  // 320 KiB in one batch vs a 64 KiB hard mark
  lt_.RunOnLoop([&] {
    pair.client->SetWatermarks(
        {/*soft=*/8 * 1024, /*hard=*/64 * 1024, /*low=*/4 * 1024});
    const auto frame = std::make_shared<const Bytes>(Bytes(kFrame, 0xC3));
    for (int i = 0; i < kSends; ++i) {
      const Status st = pair.client->Send(frame);
      EXPECT_TRUE(st.ok()) << "send " << i << ": " << st.ToString();
    }
  });
  LoopThread::WaitFor([&] { return count.load() == kFrame * kSends; });
  lt_.RunOnLoop([&] { pair.client->Close(); });
}

TEST_F(EpollEgressTest, CloseMidFlushLeavesSharedBufferIntact) {
  // Two sessions share one wire buffer; one dies with the flush still in
  // flight. The survivor must still receive the exact bytes — under ASan
  // this is the use-after-free probe for the refcounted egress path.
  Pair alive;
  Bytes aliveSink;
  std::atomic<std::size_t> aliveCount{0};
  ConnectPair(alive, &aliveSink, &aliveCount);
  Pair doomed;
  std::atomic<std::size_t> doomedCount{0};
  ConnectPair(doomed, nullptr, &doomedCount, /*startPaused=*/true);

  auto wire = AcquireWireBuffer();
  *wire = Pattern(2 * 1024 * 1024, 77);  // bigger than any socket buffer
  const WireBuffer sharedWire(std::move(wire));
  lt_.RunOnLoop([&] {
    Status st = doomed.client->Send(sharedWire);
    ASSERT_TRUE(st.ok() || st.code() == ErrorCode::kCapacity);
    st = alive.client->Send(sharedWire);
    ASSERT_TRUE(st.ok() || st.code() == ErrorCode::kCapacity);
    // Kill the stalled session immediately — its queue still references the
    // shared buffer.
    doomed.client->Close();
  });
  LoopThread::WaitFor([&] { return aliveCount.load() == sharedWire->size(); });
  lt_.RunOnLoop([&] {
    EXPECT_TRUE(aliveSink == *sharedWire) << "survivor's bytes corrupted";
    EXPECT_FALSE(doomed.client->IsOpen());
    EXPECT_EQ(doomed.client->PendingBytes(), 0u);
    alive.client->Close();
  });
}

TEST_F(EpollEgressTest, CloseAfterFlushDeliversEverythingFirst) {
  Pair pair;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, nullptr, &count);

  const std::size_t kTotal = 3 * 1024 * 1024;
  lt_.RunOnLoop([&] {
    auto wire = AcquireWireBuffer();
    *wire = Pattern(kTotal, 11);
    ASSERT_TRUE(pair.client->Send(WireBuffer(std::move(wire))).ok());
    pair.client->CloseAfterFlush();  // goodbye frame semantics
  });
  LoopThread::WaitFor([&] { return count.load() == kTotal; });
}

// Once a graceful close has drained, nothing may keep the connection alive:
// the bounded-grace reaper timer is cancelled with the close, so the
// connection is freed right away rather than after kCloseFlushGrace.
TEST_F(EpollEgressTest, CloseAfterFlushReleasesTheConnectionOnceDrained) {
  Pair pair;
  std::atomic<std::size_t> count{0};
  ConnectPair(pair, nullptr, &count);

  // Under the inline-flush threshold, so the bytes are still queued when
  // CloseAfterFlush runs and the grace timer is armed.
  constexpr std::size_t kTotal = 128 * 1024;
  std::atomic<bool> peerSawEof{false};
  std::weak_ptr<Connection> closed;
  lt_.RunOnLoop([&] {
    pair.server->SetCloseHandler([&] { peerSawEof.store(true); });
    auto wire = AcquireWireBuffer();
    *wire = Pattern(kTotal, 12);
    ASSERT_TRUE(pair.client->Send(WireBuffer(std::move(wire))).ok());
    ASSERT_GT(pair.client->PendingBytes(), 0u);
    pair.client->CloseAfterFlush();
    closed = pair.client;
    pair.client.reset();
  });
  LoopThread::WaitFor([&] { return count.load() == kTotal && peerSawEof.load(); });
  LoopThread::WaitFor([&] { return closed.expired(); }, 1000ms);
}

}  // namespace
}  // namespace md
