#include "transport/wire.hpp"

#include <sys/uio.h>

#include <cstddef>
#include <mutex>
#include <vector>

namespace md {

namespace {

// Process-wide buffer pool. Bounded so a fan-out burst can't pin memory
// forever: at most kMaxPooled buffers are retained, and a buffer that grew
// past kMaxRetainedCapacity is freed rather than pooled (one giant frame
// must not turn into a permanently giant pool slot). Leaky singleton: the
// pool must outlive every connection, including ones torn down during
// static destruction.
constexpr std::size_t kMaxPooled = 128;
constexpr std::size_t kMaxRetainedCapacity = 256 * 1024;

/// One pooled buffer plus the storage for the shared_ptr control block that
/// hands it out: an acquire from a warm pool allocates nothing.
struct Slot {
  Bytes bytes;
  alignas(std::max_align_t) unsigned char control[32];
};

struct BufferPool {
  std::mutex mutex;
  std::vector<Slot*> free;

  BufferPool() { free.reserve(kMaxPooled); }

  Slot* Take() {
    {
      std::lock_guard lock(mutex);
      if (!free.empty()) {
        Slot* slot = free.back();
        free.pop_back();
        return slot;
      }
    }
    return new Slot();
  }

  void Put(Slot* slot) {
    slot->bytes.clear();
    if (slot->bytes.capacity() <= kMaxRetainedCapacity) {
      std::lock_guard lock(mutex);
      if (free.size() < kMaxPooled) {
        free.push_back(slot);
        return;
      }
    }
    delete slot;
  }

  std::size_t Size() {
    std::lock_guard lock(mutex);
    return free.size();
  }
};

BufferPool& Pool() {
  static auto* pool = new BufferPool();
  return *pool;
}

/// Places the shared_ptr control block in its slot. Deallocation is the last
/// thing a control block does (after the no-op deleter and its own
/// destructor), so that is where the slot goes back to the pool: no other
/// thread can take the slot while this one still touches it.
template <typename T>
struct SlotAllocator {
  using value_type = T;

  explicit SlotAllocator(Slot* s) noexcept : slot(s) {}
  template <typename U>
  SlotAllocator(const SlotAllocator<U>& other) noexcept : slot(other.slot) {}

  T* allocate(std::size_t n) {
    static_assert(sizeof(T) <= sizeof(Slot::control));
    static_assert(alignof(T) <= alignof(std::max_align_t));
    (void)n;  // always 1: shared_ptr allocates one control block
    return reinterpret_cast<T*>(slot->control);
  }
  void deallocate(T*, std::size_t) noexcept { Pool().Put(slot); }

  template <typename U>
  bool operator==(const SlotAllocator<U>& other) const noexcept {
    return slot == other.slot;
  }

  Slot* slot;
};

}  // namespace

std::shared_ptr<Bytes> AcquireWireBuffer() {
  Slot* slot = Pool().Take();
  return {&slot->bytes, [](Bytes*) {}, SlotAllocator<Slot>(slot)};
}

WireBuffer ToWire(std::string_view text) {
  auto wire = AcquireWireBuffer();
  wire->assign(text.begin(), text.end());
  return wire;
}

std::size_t WireBufferPoolSize() { return Pool().Size(); }

std::size_t SendQueue::FillIovecs(struct iovec* iov,
                                  std::size_t maxIov) const {
  std::size_t count = 0;
  for (const Node& node : nodes_) {
    if (count == maxIov) break;
    iov[count].iov_base =
        const_cast<std::uint8_t*>(node.buf->data() + node.offset);
    iov[count].iov_len = node.buf->size() - node.offset;
    ++count;
  }
  return count;
}

}  // namespace md
