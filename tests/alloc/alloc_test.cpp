// Allocation budget of the egress encoders (DESIGN.md §14): encoding a frame
// into a warm pooled wire buffer, and taking and dropping that buffer, must
// not touch the heap. This binary replaces the global operator new/delete
// with counting versions. That replacement covers every translation unit
// linked into the executable, which is why these cases live in a binary of
// their own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/front_door.hpp"
#include "proto/codec.hpp"
#include "transport/wire.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void* CountedAllocate(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace md {
namespace {

using core::Session;

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t AllocationsIn(Fn&& fn) {
  const std::size_t before = gAllocations.load(std::memory_order_relaxed);
  fn();
  return gAllocations.load(std::memory_order_relaxed) - before;
}

Message SampleMessage() {
  Message msg;
  msg.topic = "ticker/a-topic-name-past-the-small-string-buffer";
  msg.payload = Bytes(140, 0x5A);
  msg.epoch = 3;
  msg.seq = 1'000'001;
  msg.pubId = {0xABCDEF, 42};
  msg.publishTs = 1'700'000'000'000'000'000;
  return msg;
}

/// A pooled buffer that already held `encode`'s output once: the capacity a
/// steady-state encode finds.
template <typename Encode>
std::shared_ptr<Bytes> WarmBuffer(Encode&& encode) {
  auto wire = AcquireWireBuffer();
  encode(*wire);
  wire->clear();
  return wire;
}

constexpr Session::Mode kModes[] = {Session::Mode::kRaw, Session::Mode::kWs,
                                    Session::Mode::kHttp};

TEST(AllocationBudgetTest, EncodeFramedIntoWarmBufferAllocatesNothing) {
  const Frame frames[] = {
      Frame(DeliverFrame{SampleMessage()}),
      Frame(PublishFrame{"ticker/x", Bytes(140, 1), {7, 9}, true, 5}),
      Frame(PubAckFrame{{7, 9}, PubAckCode::kOk}),
      Frame(BroadcastFrame{SampleMessage(), 17, "server-1", 4}),
  };
  for (const Frame& frame : frames) {
    auto wire = WarmBuffer([&](Bytes& out) { EncodeFramed(frame, out); });
    EXPECT_EQ(AllocationsIn([&] { EncodeFramed(frame, *wire); }), 0u)
        << FrameTypeName(TypeOf(frame));
  }
}

TEST(AllocationBudgetTest, EncodeForModeIntoWarmBufferAllocatesNothing) {
  const Frame frames[] = {
      Frame(DeliverFrame{SampleMessage()}),
      Frame(PubAckFrame{{7, 9}, PubAckCode::kOk}),
      Frame(SubAckFrame{"ticker/x", true}),
  };
  for (const Session::Mode mode : kModes) {
    for (const Frame& frame : frames) {
      auto wire = WarmBuffer([&](Bytes& out) { core::EncodeForMode(frame, mode, out); });
      EXPECT_EQ(AllocationsIn([&] { core::EncodeForMode(frame, mode, *wire); }), 0u)
          << "mode " << static_cast<int>(mode) << " " << FrameTypeName(TypeOf(frame));
    }
  }
}

TEST(AllocationBudgetTest, FreshBufferIsSizedInOneAllocation) {
  // An empty buffer (a pool miss) is sized for the whole framed frame up
  // front: one allocation, not a chain of regrowths.
  const Frame frames[] = {
      Frame(DeliverFrame{SampleMessage()}),
      Frame(PubAckFrame{{7, 9}, PubAckCode::kOk}),
  };
  for (const Session::Mode mode : kModes) {
    for (const Frame& frame : frames) {
      Bytes out;
      EXPECT_EQ(AllocationsIn([&] { core::EncodeForMode(frame, mode, out); }), 1u)
          << "mode " << static_cast<int>(mode) << " " << FrameTypeName(TypeOf(frame));
    }
  }
  const Frame broadcast(BroadcastFrame{SampleMessage(), 17, "server-1", 4});
  Bytes out;
  EXPECT_EQ(AllocationsIn([&] { EncodeFramed(broadcast, out); }), 1u);
}

TEST(AllocationBudgetTest, SteadyStateWireBufferAcquireAndReleaseAllocateNothing) {
  {
    // The pool holds a buffer that has carried bytes before.
    auto warm = AcquireWireBuffer();
    warm->push_back(0);
  }
  EXPECT_EQ(AllocationsIn([] {
              for (int i = 0; i < 100; ++i) {
                auto wire = AcquireWireBuffer();
                wire->push_back(static_cast<std::uint8_t>(i));
                const WireBuffer shared = std::move(wire);
                const WireBuffer another = shared;  // a second queue's reference
              }
            }),
            0u);
}

TEST(AllocationBudgetTest, DeliverEncodedFromTheMessageAllocatesNothing) {
  const Message msg = SampleMessage();
  for (const Session::Mode mode : kModes) {
    auto wire = WarmBuffer([&](Bytes& out) { core::EncodeDeliverForMode(msg, mode, out); });
    EXPECT_EQ(AllocationsIn([&] { core::EncodeDeliverForMode(msg, mode, *wire); }), 0u)
        << "mode " << static_cast<int>(mode);
    // The same bytes a DeliverFrame of the message encodes to.
    Bytes viaFrame;
    core::EncodeForMode(Frame(DeliverFrame{msg}), mode, viaFrame);
    EXPECT_EQ(*wire, viaFrame) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace md
