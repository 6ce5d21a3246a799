// Zero-copy egress building blocks.
//
// A publish is encoded once per protocol mode into a refcounted wire buffer
// (`std::shared_ptr<const Bytes>`); every subscriber's connection queues a
// *reference* to it instead of copying the bytes into a per-session buffer.
// The queue remembers (buffer, offset) pairs so partial writes resume
// mid-buffer without ever tearing a frame, and a scatter-gather flush moves
// many frames per syscall.
//
// Buffer lifetime rule: a wire buffer is immutable from the moment it is
// handed to any SendQueue. The queue keeps its reference until the last byte
// is written (or the connection dies), so a session closing mid-flush cannot
// free bytes another session still points at — the shared_ptr is the
// ownership token.
#pragma once

#include <deque>
#include <memory>

#include "common/bytes.hpp"

struct iovec;  // <sys/uio.h>

namespace md {

/// Immutable, shareable wire bytes.
using WireBuffer = std::shared_ptr<const Bytes>;

/// Acquires a reusable Bytes from a process-wide pool (empty, capacity
/// retained from its previous life). When the last reference drops the
/// buffer returns to the pool instead of being freed, so steady-state
/// fan-out encodes into warm allocations. Callers fill it, then share it as
/// a WireBuffer (shared_ptr<Bytes> converts implicitly).
[[nodiscard]] std::shared_ptr<Bytes> AcquireWireBuffer();

/// Pool introspection for tests.
[[nodiscard]] std::size_t WireBufferPoolSize();

/// Outbound byte queue holding (buffer-ref, offset) nodes.
///
/// Two append flavours:
///   - AppendShared: zero-copy; the node references the caller's buffer.
///   - AppendCopy: copies into a mutable tail buffer that coalesces
///     consecutive copied appends (handshakes, acks — small control frames),
///     so tiny writes don't each allocate a node + buffer.
///
/// Consume() advances byte-wise across node boundaries, exactly like the
/// flat ByteQueue it replaces, so short writes at any offset preserve frame
/// boundaries by construction: bytes are only ever removed from the front in
/// write order.
class SendQueue {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return totalBytes_; }
  [[nodiscard]] bool empty() const noexcept { return totalBytes_ == 0; }

  void AppendShared(WireBuffer buf) {
    if (!buf || buf->empty()) return;
    totalBytes_ += buf->size();
    nodes_.push_back(Node{std::move(buf), 0});
    tail_ = nullptr;  // shared node ends any coalescing run
  }

  void AppendCopy(BytesView data) {
    if (data.empty()) return;
    totalBytes_ += data.size();
    if (tail_ == nullptr) {
      auto buf = AcquireWireBuffer();
      tail_ = buf.get();
      nodes_.push_back(Node{std::move(buf), 0});
    }
    tail_->insert(tail_->end(), data.begin(), data.end());
  }

  /// Fills up to `maxIov` iovecs from the front of the queue. Returns the
  /// number filled. Pointers stay valid until Consume/Append/Clear.
  std::size_t FillIovecs(struct iovec* iov, std::size_t maxIov) const;

  /// Drops `n` bytes from the front (n <= size()). Fully-consumed nodes
  /// release their buffer references immediately.
  void Consume(std::size_t n) {
    totalBytes_ -= n;
    while (n > 0) {
      Node& front = nodes_.front();
      const std::size_t remain = front.buf->size() - front.offset;
      if (n < remain) {
        front.offset += n;
        return;
      }
      n -= remain;
      if (front.buf.get() == tail_) tail_ = nullptr;
      nodes_.pop_front();
    }
  }

  void Clear() noexcept {
    nodes_.clear();
    tail_ = nullptr;
    totalBytes_ = 0;
  }

 private:
  struct Node {
    std::shared_ptr<const Bytes> buf;
    std::size_t offset;
  };

  // Mutable alias of the last node's buffer while it is still a coalescing
  // tail this queue owns exclusively (created by AppendCopy, never shared).
  Bytes* tail_ = nullptr;
  std::deque<Node> nodes_;
  std::size_t totalBytes_ = 0;
};

}  // namespace md
