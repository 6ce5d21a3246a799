// Real-network EventLoop backed by io_uring (kernel >= 5.19 feature set).
//
// Same contract as EpollLoop, different engine: instead of readiness
// (epoll_wait then one syscall per ready socket), the loop posts operations
// into a shared submission ring and reaps completions — one io_uring_enter
// per iteration submits every queued accept/recv/sendmsg and waits. Inbound
// uses multishot recv with a registered provided-buffer ring (the kernel
// picks a buffer per datagram, we recycle it after the data handler runs);
// accept is multishot per listener; egress reuses the SendQueue from the
// epoll path with one async SENDMSG in flight per connection.
//
// Lifetime rule that epoll doesn't have: an fd with operations in flight
// must not be ::close()d (the kernel would act on a recycled fd number).
// Connections therefore carry a pending-op count and closing defers the
// ::close until the cancel CQEs drain. user_data carries a monotonic
// connection id — never an fd — so stale completions can't misroute.
//
// Capability probing: IoUringAvailable() (transport.hpp) must pass;
// construction throws Status via Create() otherwise. RLIMIT/seccomp-denied
// environments degrade gracefully to epoll through CreateNetLoop().
#pragma once

#include <linux/io_uring.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace md {

class UringLoop;

namespace detail {

class UringConnection final
    : public Connection,
      public std::enable_shared_from_this<UringConnection> {
 public:
  UringConnection(UringLoop& loop, int fd, std::string peer, std::uint64_t id);
  ~UringConnection() override;

  Status Send(BytesView data) override;
  Status Send(std::shared_ptr<const Bytes> data) override;
  void Close() override;
  void CloseAfterFlush() override;
  [[nodiscard]] bool IsOpen() const override { return fd_ >= 0 && !closing_; }
  [[nodiscard]] std::size_t PendingBytes() const override { return out_.size(); }
  [[nodiscard]] std::string PeerName() const override { return peer_; }
  void SetReadPaused(bool paused) override;

  void DetachHandlers() noexcept {
    dataHandler_ = nullptr;
    closeHandler_ = nullptr;
    drainedHandler_ = nullptr;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  static constexpr Duration kCloseFlushGrace = 5 * kSecond;

 private:
  friend class ::md::UringLoop;

  Status FinishAppend(std::size_t appended);
  void RequestFlush();
  /// Submits one async SENDMSG covering the queue front (if none in flight).
  void StartSend();
  /// Synchronous best-effort drain for watermark checks: deferred bytes must
  /// not read as backpressure. No-op while an async send is in flight (the
  /// kernel owns the queue front then — and a drain is already underway).
  void DrainNow();
  /// Send-completion bookkeeping; re-submits while data remains.
  void OnSendComplete(int res);
  void OnRecv(BytesView data);
  void AfterDrainCheck();
  void CloseNow();
  /// ::close + deferred close notification once in-flight ops drained.
  void FinishClose();

  UringLoop& loop_;
  int fd_;
  std::string peer_;
  std::uint64_t id_;
  SendQueue out_;

  // One in-flight async sendmsg; iovecs/msghdr must stay stable until its
  // CQE arrives (the kernel may read them after submit returns). The pinned
  // refs keep the spanned buffers alive even if CloseNow clears the queue
  // mid-flight — the use-after-free ASan hunts for.
  static constexpr std::size_t kMaxIov = 64;
  struct iovec iov_[kMaxIov];
  struct msghdr msg_ {};
  std::vector<std::shared_ptr<const Bytes>> inflightRefs_;
  bool sendInFlight_ = false;
  bool recvArmed_ = false;
  bool readPaused_ = false;
  bool flushQueued_ = false;
  bool closeAfterFlush_ = false;
  bool closing_ = false;
  int pendingOps_ = 0;  // CQEs we still owe the kernel for this fd
};

class UringListener final : public Listener {
 public:
  UringListener(UringLoop& loop, int fd, std::uint16_t port, std::uint64_t id);
  ~UringListener() override;

  void Close() override;
  [[nodiscard]] std::uint16_t Port() const override { return port_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  friend class ::md::UringLoop;

  UringLoop& loop_;
  int fd_;
  std::uint16_t port_;
  std::uint64_t id_;
  bool acceptArmed_ = false;
};

}  // namespace detail

class UringLoop final : public NetLoop {
 public:
  /// Fails (kUnavailable) when the kernel lacks io_uring or the required
  /// features — callers fall back to EpollLoop (see CreateNetLoop).
  static Result<std::unique_ptr<UringLoop>> Create();
  ~UringLoop() override;

  UringLoop(const UringLoop&) = delete;
  UringLoop& operator=(const UringLoop&) = delete;

  void Run() override;
  void Stop() override;
  void Post(TaskFn task) override;
  std::uint64_t ScheduleTimer(Duration delay, TaskFn task) override;
  void CancelTimer(std::uint64_t id) override;
  [[nodiscard]] TimePoint Now() const override;
  Result<ListenerPtr> Listen(std::uint16_t port) override;
  void Connect(const std::string& host, std::uint16_t port,
               ConnectCallback cb) override;

 private:
  friend class detail::UringConnection;
  friend class detail::UringListener;

  // user_data = kind<<56 | id. Ids are monotonic per loop, never reused.
  enum class OpKind : std::uint8_t {
    kWakePoll = 1,
    kAccept,
    kRecv,
    kSend,
    kConnect,
    kCancel,
  };
  static constexpr std::uint64_t Encode(OpKind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 56) | id;
  }

  struct PendingConnect {
    int fd;
    ConnectCallback cb;
    std::string target;
    // CONNECT reads the sockaddr asynchronously; it must outlive the SQE.
    struct sockaddr_in addr;
  };

  struct TimerEntry {
    TimePoint when;
    std::uint64_t id;
    bool operator>(const TimerEntry& other) const noexcept {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  UringLoop() = default;
  Status Init();

  void DrainPostedTasks();
  void FireDueTimers();
  void FlushPending();
  [[nodiscard]] int NextTimeoutMillis() const;

  // Submission-ring plumbing.
  io_uring_sqe* GetSqe();
  void SubmitNow();                     // flush SQ without waiting
  int EnterAndWait(int timeoutMillis);  // submit + wait for >=1 CQE
  void ProcessCompletions();
  void HandleCqe(const io_uring_cqe& cqe);

  // The SQ ring is single-writer: only the thread inside Run() may touch it.
  // Listener close from another thread is marshaled onto the loop via
  // PostIfAccepting; these helpers decide which side executes.
  [[nodiscard]] bool OnLoopThread() const noexcept;
  [[nodiscard]] bool LoopActive() const noexcept;
  bool PostIfAccepting(TaskFn task);

  void ArmWakePoll();
  void ArmAccept(detail::UringListener& listener);
  void ArmRecv(detail::UringConnection& conn);
  /// Loop-thread only (or loop not running): cancels/closes the listening fd
  /// and marks the listener closed.
  void CloseListener(detail::UringListener& listener);
  void SubmitCancelFd(int fd);
  void SubmitCancelUserData(std::uint64_t userData);
  void RecycleBuffer(std::uint16_t bid);
  void QueueFlush(std::shared_ptr<detail::UringConnection> conn);

  void HandleAcceptCqe(std::uint64_t id, const io_uring_cqe& cqe);
  void HandleRecvCqe(std::uint64_t id, const io_uring_cqe& cqe);
  void HandleSendCqe(std::uint64_t id, const io_uring_cqe& cqe);
  void HandleConnectCqe(std::uint64_t id, const io_uring_cqe& cqe);

  std::shared_ptr<detail::UringConnection> FindConn(std::uint64_t id);

  // Ring state.
  int ringFd_ = -1;
  unsigned sqEntries_ = 0;
  unsigned cqEntries_ = 0;
  void* sqPtr_ = nullptr;
  std::size_t sqSize_ = 0;
  void* cqPtr_ = nullptr;
  std::size_t cqSize_ = 0;
  bool singleMmap_ = false;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqesSize_ = 0;
  unsigned* sqHead_ = nullptr;
  unsigned* sqTail_ = nullptr;
  unsigned sqMask_ = 0;
  unsigned* sqArray_ = nullptr;
  unsigned* cqHead_ = nullptr;
  unsigned* cqTail_ = nullptr;
  unsigned cqMask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  unsigned sqTailLocal_ = 0;
  unsigned toSubmit_ = 0;

  // Provided-buffer ring for multishot recv.
  static constexpr unsigned kBufCount = 64;  // power of two
  static constexpr std::size_t kBufSize = 32 * 1024;
  io_uring_buf_ring* bufRing_ = nullptr;
  std::size_t bufRingSize_ = 0;
  std::uint8_t* bufBase_ = nullptr;
  std::size_t bufAreaSize_ = 0;
  unsigned bufRingTailLocal_ = 0;

  int wakeFd_ = -1;
  bool wakePollArmed_ = false;
  // Sticky: a Stop() that lands before Run() still ends it.
  std::atomic<bool> stopped_{false};
  // Identity of the thread currently inside Run(); empty when the loop is
  // not running. Lets off-thread callers (listener Close) marshal safely.
  std::atomic<std::thread::id> runThread_{};

  std::mutex postMutex_;
  std::vector<TaskFn> posted_;
  // Flipped false (under postMutex_) at Run() exit after the final drain, so
  // PostIfAccepting callers know their task would never execute.
  bool acceptingTasks_ = true;

  std::uint64_t nextTimerId_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>>
      timerHeap_;
  std::unordered_map<std::uint64_t, TaskFn> timerTasks_;

  std::uint64_t nextId_ = 1;  // connections, listeners, connects
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::UringConnection>>
      connections_;
  // Closing connections: kept routable until their in-flight ops drain.
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::UringConnection>>
      closingConns_;
  std::vector<std::shared_ptr<detail::UringConnection>> closing_;
  std::unordered_map<std::uint64_t, PendingConnect> connecting_;
  std::unordered_map<std::uint64_t, detail::UringListener*> listeners_;
  // Listener fds whose multishot accept is still in flight after Close();
  // ::close()d when the terminal accept CQE lands.
  std::unordered_map<std::uint64_t, int> closingListeners_;
  std::vector<std::shared_ptr<detail::UringConnection>> flushPending_;
};

}  // namespace md
