// Real-socket tests for the epoll reactor. These run against loopback TCP
// with a dedicated loop thread per test.
#include "transport/epoll_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/families.hpp"

namespace md {
namespace {

using namespace std::chrono_literals;

/// Runs an EpollLoop on its own thread and joins on destruction.
class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.Run(); }) {}
  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }
  EpollLoop& loop() { return loop_; }

  /// Runs `fn` on the loop thread and waits for completion.
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
                      std::chrono::milliseconds timeout = 5000ms) {
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

TEST(EpollLoopTest, PostRunsTaskOnLoopThread) {
  LoopThread lt;
  std::atomic<bool> ran{false};
  lt.loop().Post([&] { ran.store(true); });
  LoopThread::WaitFor([&] { return ran.load(); });
}

TEST(EpollLoopTest, TimerFiresApproximatelyOnTime) {
  LoopThread lt;
  std::atomic<bool> fired{false};
  const auto start = std::chrono::steady_clock::now();
  lt.RunOnLoop([&] {
    lt.loop().ScheduleTimer(20 * kMillisecond, [&] { fired.store(true); });
  });
  LoopThread::WaitFor([&] { return fired.load(); });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 15ms);
  EXPECT_LE(elapsed, 2000ms);
}

TEST(EpollLoopTest, CancelledTimerDoesNotFire) {
  LoopThread lt;
  std::atomic<bool> fired{false};
  std::atomic<bool> sentinel{false};
  lt.RunOnLoop([&] {
    const auto id = lt.loop().ScheduleTimer(10 * kMillisecond, [&] { fired.store(true); });
    lt.loop().CancelTimer(id);
    lt.loop().ScheduleTimer(50 * kMillisecond, [&] { sentinel.store(true); });
  });
  LoopThread::WaitFor([&] { return sentinel.load(); });
  EXPECT_FALSE(fired.load());
}

TEST(EpollLoopTest, CancelledTimersDoNotWakeTheLoop) {
  obs::MetricsRegistry registry;
  obs::TransportMetrics tm(registry);
  LoopThread lt;
  lt.RunOnLoop([&] { lt.loop().SetMetrics(&tm); });
  // Twenty timers spread over 10-200 ms, every one cancelled at once: an idle
  // loop must keep sleeping to its 100 ms cap, not wake at each dead
  // deadline.
  std::uint64_t before = 0;
  const auto start = std::chrono::steady_clock::now();
  lt.RunOnLoop([&] {
    for (int i = 1; i <= 20; ++i) {
      lt.loop().CancelTimer(lt.loop().ScheduleTimer(i * 10 * kMillisecond, [] {}));
    }
    before = tm.loopIterations.Value();
  });
  std::this_thread::sleep_for(300ms);
  const std::uint64_t woke = tm.loopIterations.Value() - before;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto idleCap = static_cast<std::uint64_t>(elapsed / 100ms) + 1;
  EXPECT_LE(woke, idleCap);
}

TEST(EpollLoopTest, ListenConnectSendReceive) {
  LoopThread lt;
  std::atomic<std::uint16_t> port{0};
  std::string received;
  std::atomic<bool> gotData{false};
  ListenerPtr listener;

  lt.RunOnLoop([&] {
    auto r = lt.loop().Listen(0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    listener = std::move(*r);
    listener->SetAcceptHandler([&](ConnectionPtr conn) {
      // Keep the connection alive via capture in the data handler.
      conn->SetDataHandler([&received, &gotData, conn](BytesView data) {
        received.append(AsStringView(data));
        if (received.size() >= 5) gotData.store(true);
      });
    });
    port.store(listener->Port());
  });
  ASSERT_NE(port.load(), 0);

  std::atomic<bool> connected{false};
  ConnectionPtr client;
  lt.RunOnLoop([&] {
    lt.loop().Connect("127.0.0.1", port.load(), [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      client = *r;
      connected.store(true);
    });
  });
  LoopThread::WaitFor([&] { return connected.load(); });

  lt.RunOnLoop([&] { ASSERT_TRUE(client->Send(ToWire("hello")).ok()); });
  LoopThread::WaitFor([&] { return gotData.load(); });
  EXPECT_EQ(received, "hello");
}

TEST(EpollLoopTest, LargeTransferArrivesIntact) {
  LoopThread lt;
  std::atomic<std::uint16_t> port{0};
  std::atomic<std::size_t> receivedBytes{0};
  std::atomic<bool> valid{true};
  ListenerPtr listener;
  constexpr std::size_t kTotal = 4 * 1024 * 1024;

  lt.RunOnLoop([&] {
    auto r = lt.loop().Listen(0);
    ASSERT_TRUE(r.ok());
    listener = std::move(*r);
    listener->SetAcceptHandler([&](ConnectionPtr conn) {
      conn->SetDataHandler([&, conn](BytesView data) {
        // Verify the repeating pattern survives the transfer.
        for (const std::uint8_t b : data) {
          const auto expected =
              static_cast<std::uint8_t>(receivedBytes.load() % 251);
          if (b != expected) valid.store(false);
          receivedBytes.fetch_add(1);
        }
      });
    });
    port.store(listener->Port());
  });

  ConnectionPtr client;
  std::atomic<bool> connected{false};
  lt.RunOnLoop([&] {
    lt.loop().Connect("127.0.0.1", port.load(), [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
      client = *r;
      connected.store(true);
    });
  });
  LoopThread::WaitFor([&] { return connected.load(); });

  auto payload = std::make_shared<Bytes>(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    (*payload)[i] = static_cast<std::uint8_t>(i % 251);
  }
  lt.RunOnLoop([&] {
    // A multi-megabyte write exercises the partial-write + EPOLLOUT path.
    const Status s = client->Send(payload);
    ASSERT_TRUE(s.ok() || s.code() == ErrorCode::kCapacity);
  });
  LoopThread::WaitFor([&] { return receivedBytes.load() == kTotal; }, 20000ms);
  EXPECT_TRUE(valid.load());
}

TEST(EpollLoopTest, PeerCloseFiresCloseHandler) {
  LoopThread lt;
  std::atomic<std::uint16_t> port{0};
  ListenerPtr listener;
  ConnectionPtr serverConn;
  std::atomic<bool> accepted{false};

  lt.RunOnLoop([&] {
    auto r = lt.loop().Listen(0);
    ASSERT_TRUE(r.ok());
    listener = std::move(*r);
    listener->SetAcceptHandler([&](ConnectionPtr conn) {
      serverConn = conn;
      accepted.store(true);
    });
    port.store(listener->Port());
  });

  ConnectionPtr client;
  std::atomic<bool> connected{false};
  lt.RunOnLoop([&] {
    lt.loop().Connect("127.0.0.1", port.load(), [&](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
      client = *r;
      connected.store(true);
    });
  });
  LoopThread::WaitFor([&] { return connected.load() && accepted.load(); });

  std::atomic<bool> clientSawClose{false};
  lt.RunOnLoop([&] {
    client->SetCloseHandler([&] { clientSawClose.store(true); });
    serverConn->Close();
  });
  LoopThread::WaitFor([&] { return clientSawClose.load(); });
  EXPECT_FALSE(client->IsOpen());
}

TEST(EpollLoopTest, ConnectToClosedPortFails) {
  LoopThread lt;
  std::atomic<bool> done{false};
  Status status = OkStatus();
  lt.RunOnLoop([&] {
    // Port 1 on loopback is almost certainly closed.
    lt.loop().Connect("127.0.0.1", 1, [&](Result<ConnectionPtr> r) {
      status = r.status();
      done.store(true);
    });
  });
  LoopThread::WaitFor([&] { return done.load(); });
  EXPECT_FALSE(status.ok());
}

TEST(EpollLoopTest, ConnectToUnresolvableHostFails) {
  LoopThread lt;
  std::atomic<bool> done{false};
  Status status = OkStatus();
  lt.RunOnLoop([&] {
    lt.loop().Connect("no-such-host.invalid", 80, [&](Result<ConnectionPtr> r) {
      status = r.status();
      done.store(true);
    });
  });
  LoopThread::WaitFor([&] { return done.load(); });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(EpollLoopTest, ManyConcurrentConnections) {
  LoopThread lt;
  std::atomic<std::uint16_t> port{0};
  std::atomic<int> echoed{0};
  ListenerPtr listener;
  constexpr int kConns = 50;

  lt.RunOnLoop([&] {
    auto r = lt.loop().Listen(0);
    ASSERT_TRUE(r.ok());
    listener = std::move(*r);
    listener->SetAcceptHandler([](ConnectionPtr conn) {
      conn->SetDataHandler([conn](BytesView data) {
        (void)conn->Send(std::make_shared<const Bytes>(data.begin(), data.end()));
      });
    });
    port.store(listener->Port());
  });

  std::vector<ConnectionPtr> clients(kConns);
  std::atomic<int> connectedCount{0};
  lt.RunOnLoop([&] {
    for (int i = 0; i < kConns; ++i) {
      lt.loop().Connect("127.0.0.1", port.load(), [&, i](Result<ConnectionPtr> r) {
        ASSERT_TRUE(r.ok());
        clients[static_cast<std::size_t>(i)] = *r;
        (*r)->SetDataHandler([&](BytesView) { echoed.fetch_add(1); });
        connectedCount.fetch_add(1);
      });
    }
  });
  LoopThread::WaitFor([&] { return connectedCount.load() == kConns; });

  lt.RunOnLoop([&] {
    for (auto& c : clients) ASSERT_TRUE(c->Send(ToWire("x")).ok());
  });
  LoopThread::WaitFor([&] { return echoed.load() == kConns; });
}

// Stop() is sticky: a loop stopped before its thread reaches Run() leaves
// Run() at once. A host stopped right after Start() joins its loop threads
// instead of waiting on one that never saw the stop.
TEST(EpollLoopTest, StopBeforeRunEndsRun) {
  EpollLoop loop;
  loop.Stop();
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    loop.Run();
    returned.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(returned.load()) << "Run() ignored the Stop() that preceded it";
  if (!returned.load()) loop.Stop();  // a running loop does see this one
  runner.join();
}


}  // namespace
}  // namespace md
