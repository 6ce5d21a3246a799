// Zero-copy egress building blocks.
//
// Every byte a connection writes is a refcounted wire buffer
// (`std::shared_ptr<const Bytes>`), encoded once — a publish once per
// protocol mode, a handshake, ack or client frame once — and never copied
// again: every subscriber's connection queues a *reference* to it.
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
#include <string_view>

#include "common/bytes.hpp"

struct iovec;  // <sys/uio.h>

namespace md {

/// Immutable, shareable wire bytes.
using WireBuffer = std::shared_ptr<const Bytes>;

/// Acquires a reusable Bytes from a process-wide pool (empty, capacity
/// retained from its previous life). When the last reference drops the
/// buffer returns to the pool instead of being freed. The shared_ptr's
/// control block lives in the pooled slot too, so once the pool is warm an
/// acquire, an encode into it and the release allocate nothing. Callers fill
/// it, then share it as a WireBuffer (shared_ptr<Bytes> converts
/// implicitly).
[[nodiscard]] std::shared_ptr<Bytes> AcquireWireBuffer();

/// A pooled wire buffer holding `text`: handshakes and other messages that
/// are built as strings.
[[nodiscard]] WireBuffer ToWire(std::string_view text);

/// Pool introspection for tests.
[[nodiscard]] std::size_t WireBufferPoolSize();

/// Outbound byte queue holding (buffer-ref, offset) nodes. Every append is
/// zero-copy: the node references the caller's buffer.
///
/// Consume() advances byte-wise across node boundaries, so short writes at
/// any offset preserve frame boundaries by construction: bytes are only ever
/// removed from the front in write order.
class SendQueue {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return totalBytes_; }
  [[nodiscard]] bool empty() const noexcept { return totalBytes_ == 0; }

  void AppendShared(WireBuffer buf) {
    if (!buf || buf->empty()) return;
    totalBytes_ += buf->size();
    nodes_.push_back(Node{std::move(buf), 0});
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
      nodes_.pop_front();
    }
  }

  void Clear() noexcept {
    nodes_.clear();
    totalBytes_ = 0;
  }

 private:
  struct Node {
    WireBuffer buf;
    std::size_t offset;
  };

  std::deque<Node> nodes_;
  std::size_t totalBytes_ = 0;
};

}  // namespace md
