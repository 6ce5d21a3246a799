#include "transport/inproc.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace md {
namespace {

class InprocTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  InprocLoop loop{sched};
};

TEST_F(InprocTest, ListenConnectExchange) {
  auto listener = loop.Listen(1000);
  ASSERT_TRUE(listener.ok());

  ConnectionPtr serverConn;
  std::string serverReceived;
  (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
    serverConn = c;
    c->SetDataHandler([&](BytesView data) {
      serverReceived.append(AsStringView(data));
    });
  });

  ConnectionPtr clientConn;
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) {
    ASSERT_TRUE(r.ok());
    clientConn = *r;
  });
  sched.Run();
  ASSERT_TRUE(clientConn);
  ASSERT_TRUE(serverConn);

  ASSERT_TRUE(clientConn->Send(ToWire("hello ")).ok());
  ASSERT_TRUE(clientConn->Send(ToWire("world")).ok());
  sched.Run();
  EXPECT_EQ(serverReceived, "hello world");
}

TEST_F(InprocTest, BidirectionalTraffic) {
  auto listener = loop.Listen(1000);
  ASSERT_TRUE(listener.ok());
  ConnectionPtr serverConn;
  (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
    serverConn = c;
    c->SetDataHandler([c = c.get()](BytesView data) {
      // Echo back.
      (void)c->Send(std::make_shared<const Bytes>(data.begin(), data.end()));
    });
  });

  ConnectionPtr clientConn;
  std::string echoed;
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) {
    clientConn = r.value();
    clientConn->SetDataHandler([&](BytesView data) {
      echoed.append(AsStringView(data));
    });
  });
  sched.Run();
  (void)clientConn->Send(ToWire("ping"));
  sched.Run();
  EXPECT_EQ(echoed, "ping");
}

TEST_F(InprocTest, ConnectToUnboundPortFails) {
  Status status = OkStatus();
  loop.Connect("nowhere", 4242, [&](Result<ConnectionPtr> r) {
    status = r.status();
  });
  sched.Run();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST_F(InprocTest, DuplicateListenFails) {
  auto l1 = loop.Listen(1000);
  ASSERT_TRUE(l1.ok());
  auto l2 = loop.Listen(1000);
  EXPECT_EQ(l2.code(), ErrorCode::kAlreadyExists);
}

TEST_F(InprocTest, EphemeralPortsAreDistinct) {
  auto l1 = loop.Listen(0);
  auto l2 = loop.Listen(0);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_NE((*l1)->Port(), (*l2)->Port());
}

TEST_F(InprocTest, CloseNotifiesPeer) {
  auto listener = loop.Listen(1000);
  ConnectionPtr serverConn;
  bool serverSawClose = false;
  (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
    serverConn = c;
    c->SetCloseHandler([&] { serverSawClose = true; });
  });
  ConnectionPtr clientConn;
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) { clientConn = *r; });
  sched.Run();

  clientConn->Close();
  sched.Run();
  EXPECT_TRUE(serverSawClose);
  EXPECT_FALSE(clientConn->IsOpen());
  EXPECT_FALSE(serverConn->IsOpen());
}

TEST_F(InprocTest, SendAfterCloseFails) {
  auto listener = loop.Listen(1000);
  (*listener)->SetAcceptHandler([](ConnectionPtr) {});
  ConnectionPtr clientConn;
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) { clientConn = *r; });
  sched.Run();
  clientConn->Close();
  EXPECT_EQ(clientConn->Send(ToWire("x")).code(), ErrorCode::kClosed);
}

TEST_F(InprocTest, DataSentBeforeCloseStillArrives) {
  auto listener = loop.Listen(1000);
  std::string received;
  ConnectionPtr keepAlive;
  (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
    c->SetDataHandler([&received](BytesView d) { received.append(AsStringView(d)); });
    keepAlive = c;
  });
  ConnectionPtr clientConn;
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) { clientConn = *r; });
  sched.Run();
  (void)clientConn->Send(ToWire("final words"));
  clientConn->Close();
  sched.Run();
  EXPECT_EQ(received, "final words");
}

TEST_F(InprocTest, DeliveryDelayIsHonoured) {
  InprocLoop delayed(sched, 5 * kMillisecond);
  auto listener = delayed.Listen(2000);
  std::vector<TimePoint> arrivals;
  ConnectionPtr serverSide;
  (*listener)->SetAcceptHandler([&](ConnectionPtr c) {
    serverSide = c;
    c->SetDataHandler([&](BytesView) { arrivals.push_back(sched.Now()); });
  });
  ConnectionPtr clientConn;
  delayed.Connect("srv", 2000, [&](Result<ConnectionPtr> r) { clientConn = *r; });
  sched.Run();
  const TimePoint sendTime = sched.Now();
  (void)clientConn->Send(ToWire("x"));
  sched.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0] - sendTime, 5 * kMillisecond);
}

TEST_F(InprocTest, TimersFireInOrder) {
  std::vector<int> order;
  loop.ScheduleTimer(20, [&] { order.push_back(2); });
  loop.ScheduleTimer(10, [&] { order.push_back(1); });
  const auto id = loop.ScheduleTimer(30, [&] { order.push_back(3); });
  loop.CancelTimer(id);
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(InprocTest, ManyConnectionsToOneListener) {
  auto listener = loop.Listen(1000);
  int accepted = 0;
  (*listener)->SetAcceptHandler([&](ConnectionPtr) { ++accepted; });
  for (int i = 0; i < 100; ++i) {
    loop.Connect("srv", 1000, [](Result<ConnectionPtr> r) {
      ASSERT_TRUE(r.ok());
    });
  }
  sched.Run();
  EXPECT_EQ(accepted, 100);
}

TEST_F(InprocTest, ListenerCloseRefusesNewConnections) {
  auto listener = loop.Listen(1000);
  (*listener)->SetAcceptHandler([](ConnectionPtr) {});
  (*listener)->Close();
  Status status = OkStatus();
  loop.Connect("srv", 1000, [&](Result<ConnectionPtr> r) { status = r.status(); });
  sched.Run();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace md
