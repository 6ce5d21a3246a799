#include "transport/wire.hpp"

#include <sys/uio.h>

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

struct BufferPool {
  std::mutex mutex;
  std::vector<std::unique_ptr<Bytes>> free;

  std::unique_ptr<Bytes> Take() {
    std::lock_guard lock(mutex);
    if (free.empty()) return nullptr;
    auto buf = std::move(free.back());
    free.pop_back();
    return buf;
  }

  void Put(std::unique_ptr<Bytes> buf) {
    buf->clear();
    if (buf->capacity() > kMaxRetainedCapacity) return;  // let it free
    std::lock_guard lock(mutex);
    if (free.size() >= kMaxPooled) return;
    free.push_back(std::move(buf));
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

}  // namespace

std::shared_ptr<Bytes> AcquireWireBuffer() {
  auto buf = Pool().Take();
  if (!buf) buf = std::make_unique<Bytes>();
  // The deleter recycles the allocation; shared_ptr's control block keeps
  // the raw pointer alive until the last queue node releases it.
  return {buf.release(),
          [](Bytes* b) { Pool().Put(std::unique_ptr<Bytes>(b)); }};
}

std::size_t WireBufferPoolSize() { return Pool().Size(); }

std::size_t SendQueue::FillIovecs(struct iovec* iov,
                                  std::size_t maxIov) const {
  std::size_t count = 0;
  for (const Node& node : nodes_) {
    if (count == maxIov) break;
    const std::size_t remain = node.buf->size() - node.offset;
    if (remain == 0) continue;  // freshly-created empty tail
    iov[count].iov_base =
        const_cast<std::uint8_t*>(node.buf->data() + node.offset);
    iov[count].iov_len = remain;
    ++count;
  }
  return count;
}

}  // namespace md
