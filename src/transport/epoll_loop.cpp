#include "transport/epoll_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "obs/families.hpp"
#include "transport/net_util.hpp"

namespace md {

namespace {

using net::Errno;
using net::PeerString;
using net::SetNonBlocking;
using net::SetTcpOptions;

// Scatter-gather width per sendmsg. Comfortably under IOV_MAX (1024) — past
// a few dozen frames per syscall the marginal saving is noise and the iovec
// array stays stack-friendly.
constexpr std::size_t kMaxIov = 64;

// A connection accumulating this much in one task batch is flushed inline
// rather than waiting for the batch boundary: bounds the deferred-flush
// memory and overlaps the kernel's work with the rest of the batch.
constexpr std::size_t kInlineFlushBytes = 256 * 1024;

}  // namespace

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

namespace detail {

TcpConnection::TcpConnection(EpollLoop& loop, int fd, std::string peer)
    : loop_(loop), fd_(fd), peer_(std::move(peer)) {
  SetNonBlocking(fd_);
  SetTcpOptions(fd_);
}

TcpConnection::~TcpConnection() {
  // A connection torn down without CloseNow (loop destruction) still owes
  // the gauge its buffered bytes back.
  if (fd_ >= 0) {
    if (auto* m = loop_.metrics(); m != nullptr && !out_.empty()) {
      m->sendQueueBytes.Add(-static_cast<std::int64_t>(out_.size()));
    }
    ::close(fd_);
  }
}

Status TcpConnection::Send(WireBuffer data) {
  if (fd_ < 0) return Err(ErrorCode::kClosed, "connection closed");
  if (data == nullptr || data->empty()) return OkStatus();
  if (data->size() > wm_.hard - out_.size()) {
    // The queue may be large only because the deferred flush hasn't run yet
    // this batch — watermarks must measure kernel backpressure, not flush
    // latency. Drain first; reject only if the kernel really won't take it.
    if (!wantWrite_) {
      Flush();
      if (fd_ < 0) return Err(ErrorCode::kClosed, "write failed");
    }
    if (data->size() > wm_.hard - out_.size()) {
      return Err(ErrorCode::kCapacity, "send rejected: over hard watermark");
    }
  }
  // Zero-copy: queue a reference and defer the syscall to the loop's flush
  // pass (adaptive flush). When the loop is idle the pass runs immediately
  // after the current task batch; under load every frame queued in the same
  // batch coalesces into one sendmsg.
  const std::size_t appended = data->size();
  out_.AppendShared(std::move(data));
  if (auto* m = loop_.metrics()) {
    m->sendQueueBytes.Add(static_cast<std::int64_t>(appended));
  }
  if (!wantWrite_ && !flushQueued_) {
    if (out_.size() >= kInlineFlushBytes) {
      Flush();  // bound deferred memory; may close the connection
      if (fd_ < 0) return Err(ErrorCode::kClosed, "write failed");
    } else {
      RequestFlush();
    }
  }
  // Crossing the soft mark on lazily-deferred bytes would flag a healthy
  // session as a slow consumer; flush first so the advisory only fires when
  // the kernel is genuinely not keeping up.
  if (out_.size() > wm_.soft && !wantWrite_) {
    Flush();
    if (fd_ < 0) return Err(ErrorCode::kClosed, "write failed");
  }
  if (out_.size() > wm_.soft) {
    overSoft_ = true;
    return Err(ErrorCode::kCapacity, "write buffer over soft watermark");
  }
  return OkStatus();
}

void TcpConnection::RequestFlush() {
  if (flushQueued_) return;
  flushQueued_ = true;
  loop_.QueueFlush(shared_from_this());
}

void TcpConnection::Close() {
  CloseNow();
}

void TcpConnection::CloseAfterFlush() {
  if (fd_ < 0) return;
  if (out_.empty()) {
    CloseNow();
    return;
  }
  if (closeAfterFlush_) return;
  closeAfterFlush_ = true;
  // A peer that never drains (the very consumer being evicted) must not pin
  // the fd forever; reap after a bounded grace. CloseNow cancels the timer,
  // so a drained close releases the connection right away.
  auto self = shared_from_this();
  closeTimer_ =
      loop_.ScheduleTimer(kCloseFlushGrace, [self] { self->CloseNow(); });
}

void TcpConnection::SetReadPaused(bool paused) {
  if (readPaused_ == paused) return;
  readPaused_ = paused;
  if (fd_ >= 0) UpdateEpollInterest();
}

void TcpConnection::CloseNow() {
  if (fd_ < 0) return;
  if (closeTimer_ != 0) {
    loop_.CancelTimer(closeTimer_);
    closeTimer_ = 0;
  }
  loop_.Deregister(fd_);
  ::close(fd_);
  const int fd = fd_;
  fd_ = -1;
  if (auto* m = loop_.metrics(); m != nullptr && !out_.empty()) {
    m->sendQueueBytes.Add(-static_cast<std::int64_t>(out_.size()));
  }
  out_.Clear();
  // Run the close notification after unwinding (the caller may be inside
  // HandleReadable), then release both handlers: they often capture this
  // connection in a shared_ptr and would otherwise form a reference cycle.
  // Releasing is deferred too — Close() may have been called from *inside*
  // the data handler, and destroying an executing std::function is UB. The
  // loop tracks the connection until then so ~EpollLoop can break the cycle
  // even when it stops before the deferred task runs.
  auto self = shared_from_this();
  loop_.MarkClosing(self);
  loop_.Post([self] {
    auto handler = std::move(self->closeHandler_);
    self->closeHandler_ = nullptr;
    if (handler) handler();
    self->DetachHandlers();
    self->loop_.UnmarkClosing(self.get());
  });
  loop_.ForgetConnection(fd);
}

void TcpConnection::HandleReadable() {
  // Read until EAGAIN (level-triggered, but draining avoids extra wakeups).
  // The buffer is per-loop, not per-call: HandleReadable only runs on the
  // loop thread and data handlers never re-enter the read path, so one
  // 64 KiB buffer serves every connection without a stack splash each call.
  std::uint8_t* buf = loop_.readBuffer();
  const std::size_t cap = loop_.readBufferSize();
  while (fd_ >= 0) {
    iovec iov{buf, cap};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    const ssize_t n = ::recvmsg(fd_, &msg, 0);
    if (auto* m = loop_.metrics()) m->recvCalls.Inc();
    if (n > 0) {
      if (auto* m = loop_.metrics()) m->bytesRead.Inc(static_cast<std::size_t>(n));
      if (dataHandler_) dataHandler_(BytesView(buf, static_cast<std::size_t>(n)));
      if (n < static_cast<ssize_t>(cap)) break;
    } else if (n == 0) {
      CloseNow();
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseNow();
      return;
    }
  }
}

void TcpConnection::HandleWritable() { Flush(); }

void TcpConnection::Flush() {
  while (!out_.empty() && fd_ >= 0) {
    // Scatter-gather: one syscall moves up to kMaxIov queued frames.
    iovec iov[kMaxIov];
    const std::size_t iovCount = out_.FillIovecs(iov, kMaxIov);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovCount;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (auto* m = loop_.metrics()) m->sendmsgCalls.Inc();
    if (n > 0) {
      out_.Consume(static_cast<std::size_t>(n));
      if (auto* m = loop_.metrics()) {
        m->bytesWritten.Inc(static_cast<std::size_t>(n));
        m->sendQueueBytes.Add(-static_cast<std::int64_t>(n));
      }
    } else if (n == 0) {
      // Defensive: zero-length progress — re-arm and retry on EPOLLOUT.
      if (!wantWrite_) {
        wantWrite_ = true;
        UpdateEpollInterest();
      }
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: let EPOLLOUT drive the rest of the drain.
        if (!wantWrite_) {
          wantWrite_ = true;
          UpdateEpollInterest();
        }
        return;
      }
      if (errno == EINTR) continue;
      CloseNow();
      return;
    }
  }
  if (out_.empty() && wantWrite_ && fd_ >= 0) {
    wantWrite_ = false;
    UpdateEpollInterest();
  }
  if (fd_ >= 0 && overSoft_ && out_.size() <= wm_.low) {
    overSoft_ = false;
    if (drainedHandler_) {
      // Copy before invoking: the handler may replace itself (or Close()).
      auto handler = drainedHandler_;
      handler();
    }
  }
  if (fd_ >= 0 && closeAfterFlush_ && out_.empty()) CloseNow();
}

void TcpConnection::UpdateEpollInterest() {
  loop_.Modify(fd_, (readPaused_ ? 0u : EPOLLIN) | (wantWrite_ ? EPOLLOUT : 0u));
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(EpollLoop& loop, int fd, std::uint16_t port)
    : loop_(loop), fd_(fd), port_(port) {
  loop_.TrackListener(this);
}

TcpListener::~TcpListener() { Close(); }

void TcpListener::Close() {
  if (fd_ < 0) return;
  loop_.Deregister(fd_);
  loop_.ForgetListener(this);
  ::close(fd_);
  fd_ = -1;
}

void TcpListener::HandleReadable() {
  while (true) {
    const int clientFd = ::accept(fd_, nullptr, nullptr);
    if (clientFd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: with level-triggered epoll the pending backlog
        // would re-fire forever. Drain it with the classic reserved-fd
        // trick — momentarily release the emergency fd, accept, close.
        loop_.DrainAcceptBacklog(fd_);
        return;
      }
      MD_WARN("accept failed: %s", std::strerror(errno));
      return;
    }
    auto conn = std::make_shared<TcpConnection>(loop_, clientFd, PeerString(clientFd));
    loop_.TrackConnection(conn);
    loop_.Register(clientFd, EPOLLIN);
    if (acceptHandler_) acceptHandler_(conn);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EpollLoop
// ---------------------------------------------------------------------------

EpollLoop::EpollLoop() {
  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  wakeFd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  Register(wakeFd_, EPOLLIN);
}

void EpollLoop::DrainAcceptBacklog(int listenFd) {
  if (emergencyFd_ < 0) return;
  MD_WARN("fd limit reached; refusing pending connections");
  ::close(emergencyFd_);
  // Accept+close a batch of pending connections so the backlog drains and
  // peers see a clean RST/close instead of a hung connect.
  for (int i = 0; i < 128; ++i) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) break;
    ::close(fd);
  }
  emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

EpollLoop::~EpollLoop() {
  // Connections still alive at teardown may hold self-referencing handlers;
  // detach them so the shared_ptrs can unwind. Covers both still-open
  // connections and closed ones whose deferred cleanup never ran.
  auto conns = std::move(connections_);
  connections_.clear();
  for (auto& [fd, conn] : conns) conn->DetachHandlers();
  auto closing = std::move(closing_);
  closing_.clear();
  for (auto& conn : closing) conn->DetachHandlers();
  if (emergencyFd_ >= 0) ::close(emergencyFd_);
  if (wakeFd_ >= 0) ::close(wakeFd_);
  if (epollFd_ >= 0) ::close(epollFd_);
}

void EpollLoop::Run() {
  epoll_event events[256];
  while (!stopped_.load(std::memory_order_acquire)) {
    DrainPostedTasks();
    FireDueTimers();
    // Adaptive flush: everything queued by the tasks/timers above (and by
    // the previous dispatch round) goes to the kernel before we block —
    // idle loops flush immediately, busy loops coalesce whole batches.
    FlushPending();
    if (stopped_.load(std::memory_order_acquire)) break;

    const int n = epoll_wait(epollFd_, events, 256, NextTimeoutMillis());
    if (n < 0) {
      if (errno == EINTR) continue;
      MD_ERROR("epoll_wait: %s", std::strerror(errno));
      break;
    }
    if (auto* m = metrics()) m->loopIterations.Inc();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;

      if (fd == wakeFd_) {
        std::uint64_t drain = 0;
        while (::read(wakeFd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }

      if (auto cit = connecting_.find(fd); cit != connecting_.end()) {
        HandleConnectReady(fd);
        continue;
      }

      if (auto it = connections_.find(fd); it != connections_.end()) {
        // Hold a reference: handlers may close/erase the connection.
        auto conn = it->second;
        if (ev & (EPOLLHUP | EPOLLERR)) {
          conn->CloseNow();
          continue;
        }
        if (ev & EPOLLIN) conn->HandleReadable();
        if ((ev & EPOLLOUT) && conn->IsOpen()) conn->HandleWritable();
        continue;
      }

      for (auto* listener : listeners_) {
        if (listener->fd() == fd) {
          listener->HandleReadable();
          break;
        }
      }
    }
  }
  DrainPostedTasks();
  FlushPending();  // final tasks may have queued egress (e.g. goodbyes)
}

void EpollLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void EpollLoop::Post(TaskFn task) {
  bool needWake = false;
  {
    std::lock_guard lock(postMutex_);
    // Coalesced wakeup: tasks landing behind an undrained one ride its
    // pending eventfd signal — the loop drains the whole vector per wake.
    needWake = posted_.empty();
    posted_.push_back(std::move(task));
  }
  if (auto* m = metrics()) m->tasksPosted.Inc();
  if (needWake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  }
}

void EpollLoop::DrainPostedTasks() {
  std::vector<TaskFn> tasks;
  {
    std::lock_guard lock(postMutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EpollLoop::QueueFlush(std::shared_ptr<detail::TcpConnection> conn) {
  flushPending_.push_back(std::move(conn));
}

void EpollLoop::FlushPending() {
  // Flush side effects (drained handlers re-sending) may queue more; loop
  // until quiescent. Termination: a re-queued connection either drains or
  // hits EAGAIN, and EAGAIN hands the drain to EPOLLOUT instead of this
  // list.
  while (!flushPending_.empty()) {
    flushing_.swap(flushPending_);
    for (auto& conn : flushing_) {
      conn->flushQueued_ = false;  // before Flush: re-sends must re-queue
      if (conn->fd_ >= 0 && !conn->out_.empty() && !conn->wantWrite_) {
        conn->Flush();
      }
    }
    flushing_.clear();  // keeps its capacity for the next swap
  }
}

std::uint64_t EpollLoop::ScheduleTimer(Duration delay, TaskFn task) {
  const std::uint64_t id = nextTimerId_++;
  timerHeap_.push({Now() + (delay > 0 ? delay : 0), id});
  timerTasks_[id] = std::move(task);
  return id;
}

void EpollLoop::CancelTimer(std::uint64_t id) { timerTasks_.erase(id); }

TimePoint EpollLoop::Now() const { return RealClock::Instance().Now(); }

void EpollLoop::FireDueTimers() {
  const TimePoint now = Now();
  while (!timerHeap_.empty() && timerHeap_.top().when <= now) {
    const TimerEntry entry = timerHeap_.top();
    timerHeap_.pop();
    auto it = timerTasks_.find(entry.id);
    if (it == timerTasks_.end()) continue;  // cancelled
    TaskFn task = std::move(it->second);
    timerTasks_.erase(it);
    if (auto* m = metrics()) m->timersFired.Inc();
    task();
  }
}

int EpollLoop::NextTimeoutMillis() {
  // A cancelled timer leaves its heap entry behind. Drop those on top, so
  // the loop does not wake at a deadline nobody waits for any more.
  while (!timerHeap_.empty() && !timerTasks_.contains(timerHeap_.top().id)) {
    timerHeap_.pop();
  }
  if (timerHeap_.empty()) return 100;
  const Duration until = timerHeap_.top().when - Now();
  if (until <= 0) return 0;
  const auto ms = until / kMillisecond;
  return ms > 100 ? 100 : static_cast<int>(ms) + 1;
}

Result<ListenerPtr> EpollLoop::Listen(std::uint16_t port) {
  auto sock = net::CreateListenSocket(port);
  if (!sock.ok()) return sock.status();
  auto listener = std::make_unique<detail::TcpListener>(*this, sock->fd, sock->port);
  Register(sock->fd, EPOLLIN);
  return ListenerPtr(std::move(listener));
}

void EpollLoop::Connect(const std::string& host, std::uint16_t port,
                        ConnectCallback cb) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    cb(Errno("socket"));
    return;
  }
  sockaddr_in addr{};
  if (Status s = net::ResolveHost(host, port, addr); !s.ok()) {
    ::close(fd);
    cb(std::move(s));
    return;
  }

  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    connecting_[fd] = PendingConnect{fd, std::move(cb), Format("%s:%u", host.c_str(), port)};
    Register(fd, EPOLLOUT);
    return;
  }
  ::close(fd);
  cb(Errno("connect"));
}

void EpollLoop::HandleConnectReady(int fd) {
  auto node = connecting_.extract(fd);
  if (node.empty()) return;
  PendingConnect pending = std::move(node.mapped());
  Deregister(fd);

  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    ::close(fd);
    pending.cb(Err(ErrorCode::kUnavailable,
                   Format("connect to %s: %s", pending.target.c_str(),
                          std::strerror(err))));
    return;
  }

  auto conn = std::make_shared<detail::TcpConnection>(*this, fd, pending.target);
  TrackConnection(conn);
  Register(fd, EPOLLIN);
  pending.cb(ConnectionPtr(conn));
}

void EpollLoop::Register(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
}

void EpollLoop::Modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
}

void EpollLoop::Deregister(int fd) {
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EpollLoop::TrackConnection(const std::shared_ptr<detail::TcpConnection>& conn) {
  connections_[conn->fd()] = conn;
}

void EpollLoop::ForgetConnection(int fd) { connections_.erase(fd); }

void EpollLoop::MarkClosing(std::shared_ptr<detail::TcpConnection> conn) {
  closing_.push_back(std::move(conn));
}

void EpollLoop::UnmarkClosing(const detail::TcpConnection* conn) {
  std::erase_if(closing_, [conn](const auto& p) { return p.get() == conn; });
}

void EpollLoop::TrackListener(detail::TcpListener* listener) {
  listeners_.push_back(listener);
}

void EpollLoop::ForgetListener(detail::TcpListener* listener) {
  std::erase(listeners_, listener);
}

}  // namespace md
