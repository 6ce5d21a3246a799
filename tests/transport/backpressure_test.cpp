// Watermark-contract tests for slow-consumer backpressure, against both
// transports. The contract (transport.hpp):
//   - accepted bytes never exceed the hard watermark (whole-frame rejection),
//   - kCapacity with PendingBytes() growth  = soft-watermark advisory
//     (append-then-error: the bytes ARE queued and must eventually arrive),
//   - kCapacity without growth              = hard rejection (nothing queued),
//   - after an above-soft excursion, the drained handler fires exactly once
//     when the buffer falls back to <= low.
// The inproc test pins the exact per-send status sequence (deterministic);
// the TCP tests assert the same properties through real kernel buffering.
// Every send is a shared WireBuffer, the transport's only send path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/families.hpp"
#include "transport/epoll_loop.hpp"
#include "transport/inproc.hpp"

namespace md {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Inproc: deterministic contract
// ---------------------------------------------------------------------------

class InprocBackpressureTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  InprocLoop loop{sched};

  ConnectionPtr clientConn;
  ConnectionPtr serverConn;
  std::size_t receivedBytes = 0;

  void ConnectPair() {
    auto listener = loop.Listen(1000);
    ASSERT_TRUE(listener.ok());
    (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
      serverConn = c;
      c->SetDataHandler([&](BytesView d) { receivedBytes += d.size(); });
    });
    loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
      clientConn = *r;
    });
    sched.Run();
    ASSERT_TRUE(clientConn);
    ASSERT_TRUE(serverConn);
    listener_ = std::move(*listener);
  }

 private:
  ListenerPtr listener_;
};

TEST_F(InprocBackpressureTest, WatermarkContractExactSequence) {
  ConnectPair();
  clientConn->SetWatermarks({/*soft=*/250, /*hard=*/600, /*low=*/50});
  int drained = 0;
  clientConn->SetDrainedHandler([&] { ++drained; });
  serverConn->SetReadPaused(true);
  sched.Run();  // flush connection setup events

  const auto frame = std::make_shared<const Bytes>(100, 0xAB);
  // 100 -> 200: under soft, plain OK.
  EXPECT_TRUE(clientConn->Send(frame).ok());
  EXPECT_TRUE(clientConn->Send(frame).ok());
  EXPECT_EQ(clientConn->PendingBytes(), 200u);
  // 300..600: over soft — kCapacity, but the bytes are accepted.
  for (std::size_t expect : {300u, 400u, 500u, 600u}) {
    EXPECT_EQ(clientConn->Send(frame).code(), ErrorCode::kCapacity);
    EXPECT_EQ(clientConn->PendingBytes(), expect);
  }
  // 700 would cross hard: whole-frame rejection, pending unchanged.
  EXPECT_EQ(clientConn->Send(frame).code(), ErrorCode::kCapacity);
  EXPECT_EQ(clientConn->PendingBytes(), 600u);
  EXPECT_EQ(drained, 0);

  // Resume: the parked backlog drains in order, every accepted byte arrives,
  // and the drained notification fires exactly once (600 -> 0 <= low).
  sched.Run();
  serverConn->SetReadPaused(false);
  sched.Run();
  EXPECT_EQ(receivedBytes, 600u);
  EXPECT_EQ(clientConn->PendingBytes(), 0u);
  EXPECT_EQ(drained, 1);

  // The excursion is reset: the next send is a plain OK again.
  EXPECT_TRUE(clientConn->Send(frame).ok());
  sched.Run();
  EXPECT_EQ(drained, 1);  // no second excursion, no second notification
}

TEST_F(InprocBackpressureTest, ReceiverCloseRefundsParkedBytes) {
  ConnectPair();
  clientConn->SetWatermarks({/*soft=*/250, /*hard=*/600, /*low=*/50});
  int drained = 0;
  clientConn->SetDrainedHandler([&] { ++drained; });
  serverConn->SetReadPaused(true);
  sched.Run();

  const auto frame = std::make_shared<const Bytes>(100, 0xCD);
  for (int i = 0; i < 3; ++i) (void)clientConn->Send(frame);
  EXPECT_EQ(clientConn->PendingBytes(), 300u);
  sched.Run();  // deliveries park at the paused receiver

  // A receiver that dies with parked bytes must not leak the sender's
  // accounting: pending returns to zero and the drain excursion resolves.
  serverConn->Close();
  sched.Run();
  EXPECT_EQ(clientConn->PendingBytes(), 0u);
  EXPECT_EQ(drained, 1);
  EXPECT_EQ(receivedBytes, 0u);  // parked bytes were discarded, not consumed
}

// ---------------------------------------------------------------------------
// TCP: same contract over real sockets
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

struct TcpPair {
  ListenerPtr listener;
  ConnectionPtr client;
  ConnectionPtr server;  // accepted side
  std::atomic<std::size_t> receivedBytes{0};
};

/// Connects a loopback pair whose accepted side starts with reads paused
/// (a stalled consumer from the first byte).
void ConnectStalledPair(LoopThread& lt, TcpPair& pair) {
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> accepted{false};
  lt.RunOnLoop([&] {
    auto r = lt.loop().Listen(0);
    ASSERT_TRUE(r.ok());
    pair.listener = std::move(*r);
    pair.listener->SetAcceptHandler([&](ConnectionPtr conn) {
      conn->SetReadPaused(true);
      conn->SetDataHandler([&pair](BytesView d) {
        pair.receivedBytes.fetch_add(d.size());
      });
      pair.server = conn;
      accepted.store(true);
    });
    port.store(pair.listener->Port());
  });
  std::atomic<bool> connected{false};
  lt.RunOnLoop([&] {
    lt.loop().Connect("127.0.0.1", port.load(), [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
      pair.client = *r;
      connected.store(true);
    });
  });
  LoopThread::WaitFor([&] { return connected.load() && accepted.load(); });
}

TEST(TcpBackpressureTest, StalledPeerPendingPlateausAtHardWatermark) {
  LoopThread lt;
  TcpPair pair;
  ConnectStalledPair(lt, pair);

  constexpr std::size_t kSoft = 128 * 1024;
  constexpr std::size_t kHard = 512 * 1024;
  constexpr std::size_t kFrame = 64 * 1024;
  constexpr int kSends = 200;  // 12.8 MiB >> kernel buffering + hard mark

  std::atomic<int> drained{0};
  std::size_t acceptedBytes = 0;
  bool sawSoftAccept = false;
  bool everOverHard = false;
  int trailingHardRejects = 0;  // consecutive rejected sends at the end
  lt.RunOnLoop([&] {
    pair.client->SetWatermarks({kSoft, kHard, /*low=*/16 * 1024});
    pair.client->SetDrainedHandler([&] { drained.fetch_add(1); });
    const auto frame = std::make_shared<const Bytes>(kFrame, 0x5A);
    for (int i = 0; i < kSends; ++i) {
      const std::size_t before = pair.client->PendingBytes();
      const Status st = pair.client->Send(frame);
      const std::size_t after = pair.client->PendingBytes();
      if (after > kHard) everOverHard = true;
      if (st.ok()) {
        acceptedBytes += kFrame;
        trailingHardRejects = 0;
      } else {
        ASSERT_EQ(st.code(), ErrorCode::kCapacity);
        if (after > before) {
          // Append-then-error: the frame was queued despite the error.
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
  // With 12.8 MiB offered against a 512 KiB mark the tail of the loop must be
  // a stable plateau of whole-frame rejections.
  EXPECT_GE(trailingHardRejects, 20);
  EXPECT_LE(acceptedBytes, kHard + 8 * 1024 * 1024);  // kernel + user buffer

  // Resume the consumer: every *accepted* byte — and nothing more — arrives,
  // and the sender's drained notification fires for the one excursion.
  const std::size_t expected = acceptedBytes;
  lt.RunOnLoop([&] { pair.server->SetReadPaused(false); });
  LoopThread::WaitFor([&] { return pair.receivedBytes.load() >= expected; });
  std::this_thread::sleep_for(50ms);  // would-be overshoot window
  EXPECT_EQ(pair.receivedBytes.load(), expected);
  LoopThread::WaitFor([&] { return drained.load() == 1; });

  lt.RunOnLoop([&] {
    pair.client->Close();
    pair.server->Close();
  });
}

TEST(TcpBackpressureTest, SendQueueGaugeReturnsToZeroAfterChurn) {
  obs::MetricsRegistry registry;
  obs::TransportMetrics tm(registry);
  LoopThread lt;
  lt.RunOnLoop([&] { lt.loop().SetMetrics(&tm); });

  // Churn connections through every teardown path a buffered sender has:
  // abrupt close with bytes still queued, drain-then-close, and peer-side
  // close. The gauge must return to exactly zero each time — increments and
  // decrements are symmetric across Send, HandleWritable, CloseNow and the
  // destructor refund.
  for (int round = 0; round < 3; ++round) {
    TcpPair pair;
    ConnectStalledPair(lt, pair);
    lt.RunOnLoop([&] {
      const auto frame = std::make_shared<const Bytes>(64 * 1024, 0x77);
      for (int i = 0; i < 48; ++i) {  // 3 MiB: beyond kernel buffering
        (void)pair.client->Send(frame);
      }
    });
    switch (round) {
      case 0:  // abrupt sender close with a non-empty user-space queue
        lt.RunOnLoop([&] { pair.client->Close(); });
        break;
      case 1: {  // graceful: resume the peer, drain fully, then close
        lt.RunOnLoop([&] { pair.server->SetReadPaused(false); });
        LoopThread::WaitFor([&] {
          bool empty = false;
          std::atomic<bool> done{false};
          lt.loop().Post([&] {
            empty = pair.client->PendingBytes() == 0;
            done.store(true);
          });
          while (!done.load()) std::this_thread::sleep_for(1ms);
          return empty;
        });
        lt.RunOnLoop([&] { pair.client->Close(); });
        break;
      }
      case 2:  // peer closes underneath a buffered sender
        lt.RunOnLoop([&] { pair.server->Close(); });
        break;
    }
    lt.RunOnLoop([&] {
      if (pair.server) pair.server->Close();
      pair.client->Close();
    });
    LoopThread::WaitFor([&] { return tm.sendQueueBytes.Value() == 0; });
    EXPECT_EQ(tm.sendQueueBytes.Value(), 0);
  }
  lt.RunOnLoop([&] { lt.loop().SetMetrics(nullptr); });
}

}  // namespace
}  // namespace md
