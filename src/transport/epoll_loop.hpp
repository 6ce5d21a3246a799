// Real-network EventLoop backed by epoll (paper §4's asynchronous I/O layer).
//
// One EpollLoop per IoThread. Level-triggered epoll; non-blocking sockets;
// an eventfd wakes the loop for cross-thread Post(); timers live in a local
// min-heap (no timerfd per timer). Write path: refcounted (buffer, offset)
// nodes in a SendQueue (wire.hpp) drained with sendmsg scatter-gather;
// EPOLLOUT is armed only after the kernel pushes back (EAGAIN). Flushes are
// adaptive: Send() defers the syscall to a flush pass that runs after every
// task/timer/dispatch batch and before the loop blocks — immediate when the
// loop is idle, coalescing every frame queued in the same batch under load.
// A high-water mark provides backpressure to the engine (slow-consumer
// handling).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace md {

namespace obs {
struct TransportMetrics;
}  // namespace obs

class EpollLoop;

namespace detail {

class TcpConnection final : public Connection,
                            public std::enable_shared_from_this<TcpConnection> {
 public:
  TcpConnection(EpollLoop& loop, int fd, std::string peer);
  ~TcpConnection() override;

  Status Send(BytesView data) override;
  Status Send(std::shared_ptr<const Bytes> data) override;
  void Close() override;
  void CloseAfterFlush() override;
  [[nodiscard]] bool IsOpen() const override { return fd_ >= 0; }
  [[nodiscard]] std::size_t PendingBytes() const override { return out_.size(); }
  [[nodiscard]] std::string PeerName() const override { return peer_; }
  /// Drops EPOLLIN interest while paused — the kernel receive buffer (and
  /// eventually the peer's send buffer) backs up exactly like a stalled
  /// reader. Loop thread only.
  void SetReadPaused(bool paused) override;

  // Loop-internal:
  void HandleReadable();
  void HandleWritable();
  /// Drains the send queue with sendmsg scatter-gather until empty or the
  /// kernel pushes back (then arms EPOLLOUT). Runs the drained / graceful-
  /// close follow-ups.
  void Flush();
  void CloseNow();
  /// Drops all handlers. Handlers commonly capture the connection (or an
  /// owner that holds it) in a shared_ptr; releasing them breaks that
  /// reference cycle so closed connections can actually be freed.
  void DetachHandlers() noexcept {
    dataHandler_ = nullptr;
    closeHandler_ = nullptr;
    drainedHandler_ = nullptr;
  }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Graceful close that never flushes (dead peer) still closes after this.
  static constexpr Duration kCloseFlushGrace = 5 * kSecond;

 private:
  friend class ::md::EpollLoop;

  void UpdateEpollInterest();
  /// Queues this connection for the loop's next flush pass (idempotent).
  void RequestFlush();
  /// Common post-append bookkeeping: gauge, flush scheduling, soft check.
  Status FinishAppend(std::size_t appended);

  EpollLoop& loop_;
  int fd_;
  std::string peer_;
  SendQueue out_;
  bool wantWrite_ = false;
  bool readPaused_ = false;
  bool closeAfterFlush_ = false;
  bool flushQueued_ = false;  // in the loop's pending-flush list
  std::uint64_t closeTimer_ = 0;  // CloseAfterFlush grace timer; 0 = none
};

class TcpListener final : public Listener {
 public:
  TcpListener(EpollLoop& loop, int fd, std::uint16_t port);
  ~TcpListener() override;

  void Close() override;
  [[nodiscard]] std::uint16_t Port() const override { return port_; }

  void HandleReadable();
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  EpollLoop& loop_;
  int fd_;
  std::uint16_t port_;
};

}  // namespace detail

class EpollLoop final : public EventLoop {
 public:
  EpollLoop();
  ~EpollLoop() override;

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  void Run() override;
  void Stop() override;
  void Post(TaskFn task) override;
  std::uint64_t ScheduleTimer(Duration delay, TaskFn task) override;
  void CancelTimer(std::uint64_t id) override;
  [[nodiscard]] TimePoint Now() const override;
  Result<ListenerPtr> Listen(std::uint16_t port) override;
  void Connect(const std::string& host, std::uint16_t port,
               ConnectCallback cb) override;

  /// Optional instrumentation (wakeups, bytes, syscalls, queue depth). The
  /// bundle must outlive the loop; call before Run(). nullptr disables.
  /// Atomic because Post() (any thread) counts into the bundle while the
  /// owner may still be installing it.
  void SetMetrics(obs::TransportMetrics* metrics) noexcept {
    metrics_.store(metrics, std::memory_order_release);
  }
  [[nodiscard]] obs::TransportMetrics* metrics() const noexcept {
    return metrics_.load(std::memory_order_acquire);
  }

  // Internal plumbing for connections/listeners (dispatch is by fd).
  void Register(int fd, std::uint32_t events);
  void Modify(int fd, std::uint32_t events);
  void Deregister(int fd);
  void TrackConnection(const std::shared_ptr<detail::TcpConnection>& conn);
  void ForgetConnection(int fd);
  void TrackListener(detail::TcpListener* listener);
  void ForgetListener(detail::TcpListener* listener);
  /// EMFILE mitigation: accept+close pending connections via a reserved fd.
  void DrainAcceptBacklog(int listenFd);
  /// Closed connections await their deferred close-notification; track them
  /// so the loop can break handler cycles even if it stops first.
  void MarkClosing(std::shared_ptr<detail::TcpConnection> conn);
  void UnmarkClosing(const detail::TcpConnection* conn);
  /// Adaptive flush: connections with freshly-queued egress, flushed in one
  /// pass after each task/timer/dispatch batch, before the loop blocks.
  void QueueFlush(std::shared_ptr<detail::TcpConnection> conn);
  /// One reusable inbound read buffer per loop (HandleReadable is
  /// loop-thread only, so a single buffer serves every connection).
  [[nodiscard]] std::uint8_t* readBuffer() noexcept { return readBuf_.data(); }
  [[nodiscard]] std::size_t readBufferSize() const noexcept {
    return readBuf_.size();
  }

 private:
  struct PendingConnect {
    int fd;
    ConnectCallback cb;
    std::string target;
  };

  struct TimerEntry {
    TimePoint when;
    std::uint64_t id;
    bool operator>(const TimerEntry& other) const noexcept {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  void DrainPostedTasks();
  void FireDueTimers();
  void FlushPending();
  [[nodiscard]] int NextTimeoutMillis() const;
  void HandleConnectReady(int fd);

  int epollFd_ = -1;
  int wakeFd_ = -1;
  int emergencyFd_ = -1;
  // Sticky: a Stop() that lands before Run() still ends it.
  std::atomic<bool> stopped_{false};
  std::atomic<obs::TransportMetrics*> metrics_{nullptr};
  std::vector<std::uint8_t> readBuf_ = std::vector<std::uint8_t>(64 * 1024);
  std::vector<std::shared_ptr<detail::TcpConnection>> flushPending_;

  std::mutex postMutex_;
  std::vector<TaskFn> posted_;

  std::uint64_t nextTimerId_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>> timerHeap_;
  std::unordered_map<std::uint64_t, TaskFn> timerTasks_;

  // Keep accepted/connected connections alive while registered with epoll.
  std::unordered_map<int, std::shared_ptr<detail::TcpConnection>> connections_;
  std::vector<std::shared_ptr<detail::TcpConnection>> closing_;
  std::unordered_map<int, PendingConnect> connecting_;
  std::vector<detail::TcpListener*> listeners_;
};

}  // namespace md
