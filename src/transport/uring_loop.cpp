#include "transport/uring_loop.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>

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

// Mirrors the epoll backend: a connection whose queue crosses this inside one
// task batch submits its SENDMSG immediately instead of waiting for the
// batch-boundary flush pass.
constexpr std::size_t kInlineFlushBytes = 256 * 1024;

int UringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int UringEnter(int fd, unsigned toSubmit, unsigned minComplete, unsigned flags,
               const void* arg, std::size_t argSize) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, toSubmit,
                                    minComplete, flags, arg, argSize));
}

int UringRegister(int fd, unsigned opcode, void* arg, unsigned nrArgs) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg,
                                    nrArgs));
}

inline unsigned LoadAcquireU32(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
inline void StoreReleaseU32(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}
inline void StoreReleaseU16(std::uint16_t* p, std::uint16_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

}  // namespace

// ---------------------------------------------------------------------------
// UringConnection
// ---------------------------------------------------------------------------

namespace detail {

UringConnection::UringConnection(UringLoop& loop, int fd, std::string peer,
                                 std::uint64_t id)
    : loop_(loop), fd_(fd), peer_(std::move(peer)), id_(id) {
  // Non-blocking for the direct ::send fast path; ring ops are async anyway.
  SetNonBlocking(fd_);
  SetTcpOptions(fd_);
}

UringConnection::~UringConnection() {
  if (fd_ >= 0) {
    if (auto* m = loop_.metrics(); m != nullptr && !out_.empty()) {
      m->sendQueueBytes.Add(-static_cast<std::int64_t>(out_.size()));
    }
    ::close(fd_);
  }
}

Status UringConnection::Send(BytesView data) {
  if (fd_ < 0 || closing_) return Err(ErrorCode::kClosed, "connection closed");

  // Hard watermark: whole-frame reject before anything is queued (identical
  // contract to the epoll backend — see TcpConnection::Send). As there, a
  // queue inflated only by deferred flushing gets a drain attempt before the
  // frame is refused.
  if (data.size() > wm_.hard - out_.size()) {
    DrainNow();
    if (fd_ < 0 || closing_) return Err(ErrorCode::kClosed, "write failed");
    if (data.size() > wm_.hard - out_.size()) {
      return Err(ErrorCode::kCapacity, "send rejected: over hard watermark");
    }
  }

  // Fast path: nothing buffered and no async write in flight — a direct
  // non-blocking send skips the ring round-trip entirely.
  std::size_t written = 0;
  if (out_.empty() && !sendInFlight_) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (auto* m = loop_.metrics()) m->syscallsSend.Inc();
    if (n > 0) {
      written = static_cast<std::size_t>(n);
      if (auto* m = loop_.metrics()) m->bytesWritten.Inc(written);
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      CloseNow();
      return Err(ErrorCode::kClosed, "write failed");
    }
  }
  if (written == data.size()) return OkStatus();

  out_.AppendCopy(data.subspan(written));
  if (auto* m = loop_.metrics()) m->copyBytes.Inc(data.size() - written);
  return FinishAppend(data.size() - written);
}

Status UringConnection::Send(std::shared_ptr<const Bytes> data) {
  if (fd_ < 0 || closing_) return Err(ErrorCode::kClosed, "connection closed");
  if (data == nullptr || data->empty()) return OkStatus();
  if (data->size() > wm_.hard - out_.size()) {
    DrainNow();
    if (fd_ < 0 || closing_) return Err(ErrorCode::kClosed, "write failed");
    if (data->size() > wm_.hard - out_.size()) {
      return Err(ErrorCode::kCapacity, "send rejected: over hard watermark");
    }
  }
  const std::size_t appended = data->size();
  out_.AppendShared(std::move(data));
  return FinishAppend(appended);
}

Status UringConnection::FinishAppend(std::size_t appended) {
  if (auto* m = loop_.metrics()) {
    m->sendQueueBytes.Add(static_cast<std::int64_t>(appended));
  }
  if (!sendInFlight_ && !flushQueued_) {
    if (out_.size() >= kInlineFlushBytes) {
      StartSend();  // submission is async; this just bounds deferral
    } else {
      RequestFlush();
    }
  }
  // Soft-mark crossings on lazily-deferred bytes would flag healthy sessions
  // as slow consumers; drain synchronously first (see TcpConnection).
  if (out_.size() > wm_.soft) {
    DrainNow();
    if (fd_ < 0 || closing_) return Err(ErrorCode::kClosed, "write failed");
  }
  if (out_.size() > wm_.soft) {
    overSoft_ = true;
    return Err(ErrorCode::kCapacity, "write buffer over soft watermark");
  }
  return OkStatus();
}

void UringConnection::DrainNow() {
  while (!sendInFlight_ && !out_.empty() && fd_ >= 0 && !closing_) {
    iovec iov[kMaxIov];
    const std::size_t iovCount = out_.FillIovecs(iov, kMaxIov);
    if (iovCount == 0) return;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovCount;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (auto* m = loop_.metrics()) m->syscallsSendmsg.Inc();
    if (n > 0) {
      out_.Consume(static_cast<std::size_t>(n));
      if (auto* m = loop_.metrics()) {
        m->bytesWritten.Inc(static_cast<std::size_t>(n));
        m->sendQueueBytes.Add(-static_cast<std::int64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      StartSend();  // kernel buffer full: let the async path finish the drain
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseNow();
    return;
  }
  AfterDrainCheck();
}

void UringConnection::RequestFlush() {
  if (flushQueued_) return;
  flushQueued_ = true;
  loop_.QueueFlush(shared_from_this());
}

void UringConnection::StartSend() {
  if (sendInFlight_ || closing_ || fd_ < 0 || out_.empty()) return;
  // Freeze the coalescing tail: the kernel may read these iovecs until the
  // CQE arrives, so the buffer under them must never reallocate.
  out_.FreezeTail();
  inflightRefs_.clear();
  const std::size_t iovCount = out_.FillIovecs(iov_, kMaxIov, &inflightRefs_);
  if (iovCount == 0) return;
  std::memset(&msg_, 0, sizeof(msg_));
  msg_.msg_iov = iov_;
  msg_.msg_iovlen = iovCount;

  io_uring_sqe* sqe = loop_.GetSqe();
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd_;
  sqe->addr = reinterpret_cast<std::uint64_t>(&msg_);
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = UringLoop::Encode(UringLoop::OpKind::kSend, id_);
  sendInFlight_ = true;
  ++pendingOps_;
  if (auto* m = loop_.metrics()) m->syscallsSendmsg.Inc();
}

void UringConnection::OnSendComplete(int res) {
  if (res > 0) {
    out_.Consume(static_cast<std::size_t>(res));
    if (auto* m = loop_.metrics()) {
      m->bytesWritten.Inc(static_cast<std::size_t>(res));
      m->sendQueueBytes.Add(-static_cast<std::int64_t>(res));
    }
    AfterDrainCheck();
    if (closing_ || fd_ < 0) return;  // drained handler closed us
    if (!out_.empty()) StartSend();
    return;
  }
  if (res == -EAGAIN || res == -EINTR) {
    StartSend();
    return;
  }
  CloseNow();
}

void UringConnection::AfterDrainCheck() {
  if (overSoft_ && out_.size() <= wm_.low) {
    overSoft_ = false;
    if (drainedHandler_) {
      // Copy before invoking: the handler may replace itself (or Close()).
      auto handler = drainedHandler_;
      handler();
    }
  }
  if (fd_ >= 0 && !closing_ && closeAfterFlush_ && out_.empty()) CloseNow();
}

void UringConnection::OnRecv(BytesView data) {
  if (dataHandler_) dataHandler_(data);
}

void UringConnection::Close() { CloseNow(); }

void UringConnection::CloseAfterFlush() {
  if (fd_ < 0 || closing_) return;
  if (out_.empty() && !sendInFlight_) {
    CloseNow();
    return;
  }
  if (closeAfterFlush_) return;
  closeAfterFlush_ = true;
  auto self = shared_from_this();
  loop_.ScheduleTimer(kCloseFlushGrace, [self] {
    if (self->fd_ >= 0 && !self->closing_) self->CloseNow();
  });
}

void UringConnection::SetReadPaused(bool paused) {
  if (readPaused_ == paused) return;
  readPaused_ = paused;
  if (fd_ < 0 || closing_) return;
  if (paused) {
    // Multishot recv can't be paused in place; cancel it. The terminal CQE
    // (-ECANCELED) clears recvArmed_ and skips the re-arm while paused.
    if (recvArmed_) {
      loop_.SubmitCancelUserData(
          UringLoop::Encode(UringLoop::OpKind::kRecv, id_));
    }
  } else if (!recvArmed_) {
    loop_.ArmRecv(*this);
  }
}

void UringConnection::CloseNow() {
  if (fd_ < 0 || closing_) return;
  closing_ = true;
  if (auto* m = loop_.metrics(); m != nullptr && !out_.empty()) {
    m->sendQueueBytes.Add(-static_cast<std::int64_t>(out_.size()));
  }
  // Safe even with a sendmsg in flight: inflightRefs_ pins the buffers the
  // kernel is still reading.
  out_.Clear();
  auto self = shared_from_this();
  loop_.connections_.erase(id_);
  if (pendingOps_ > 0) {
    // The fd must stay open until every in-flight op completes (a recycled
    // fd number would receive someone else's operations). Park in the
    // closing map; the last CQE triggers FinishClose.
    loop_.closingConns_[id_] = self;
    loop_.SubmitCancelFd(fd_);
  } else {
    FinishClose();
  }
}

void UringConnection::FinishClose() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  inflightRefs_.clear();
  // Same deferred-notification dance as the epoll backend: the close may
  // originate inside the data handler, and destroying an executing
  // std::function is UB — release handlers from a posted task.
  auto self = shared_from_this();
  loop_.closing_.push_back(self);
  loop_.Post([self] {
    auto handler = std::move(self->closeHandler_);
    self->closeHandler_ = nullptr;
    if (handler) handler();
    self->DetachHandlers();
    std::erase_if(self->loop_.closing_,
                  [&self](const auto& p) { return p.get() == self.get(); });
  });
  loop_.closingConns_.erase(id_);
}

// ---------------------------------------------------------------------------
// UringListener
// ---------------------------------------------------------------------------

UringListener::UringListener(UringLoop& loop, int fd, std::uint16_t port,
                             std::uint64_t id)
    : loop_(loop), fd_(fd), port_(port), id_(id) {}

UringListener::~UringListener() { Close(); }

void UringListener::Close() {
  if (fd_ < 0) return;
  // CloseListener touches the submission ring and the listener maps — both
  // single-writer, owned by the loop thread. Off-thread closes (a listener
  // destroyed by its owner while the loop runs) marshal the call onto the
  // loop and block until it lands; `this` stays alive for the loop side
  // because we don't return (and the destructor can't proceed) until then.
  if (loop_.OnLoopThread() || !loop_.LoopActive()) {
    loop_.CloseListener(*this);
    return;
  }
  std::promise<void> done;
  auto closed = done.get_future();
  if (loop_.PostIfAccepting([this, &done] {
        loop_.CloseListener(*this);
        done.set_value();
      })) {
    closed.wait();
    return;
  }
  // The loop finished its final task drain concurrently; wait for Run() to
  // fully exit, then close directly — no other ring writer remains.
  while (loop_.LoopActive()) std::this_thread::yield();
  loop_.CloseListener(*this);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// UringLoop — setup / teardown
// ---------------------------------------------------------------------------

Result<std::unique_ptr<UringLoop>> UringLoop::Create() {
  auto loop = std::unique_ptr<UringLoop>(new UringLoop());
  if (Status s = loop->Init(); !s.ok()) return s;
  return loop;
}

Status UringLoop::Init() {
  io_uring_params params{};
  ringFd_ = UringSetup(256, &params);
  if (ringFd_ < 0) {
    return Err(ErrorCode::kUnavailable,
               Format("io_uring_setup: %s", std::strerror(errno)));
  }
  if ((params.features & IORING_FEAT_EXT_ARG) == 0) {
    return Err(ErrorCode::kUnavailable,
               "kernel io_uring lacks IORING_FEAT_EXT_ARG (timed waits)");
  }
  sqEntries_ = params.sq_entries;
  cqEntries_ = params.cq_entries;

  sqSize_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cqSize_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  singleMmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (singleMmap_) sqSize_ = cqSize_ = std::max(sqSize_, cqSize_);

  sqPtr_ = ::mmap(nullptr, sqSize_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_POPULATE, ringFd_, IORING_OFF_SQ_RING);
  if (sqPtr_ == MAP_FAILED) {
    sqPtr_ = nullptr;
    return Err(ErrorCode::kUnavailable,
               Format("mmap sq ring: %s", std::strerror(errno)));
  }
  if (singleMmap_) {
    cqPtr_ = sqPtr_;
  } else {
    cqPtr_ = ::mmap(nullptr, cqSize_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ringFd_, IORING_OFF_CQ_RING);
    if (cqPtr_ == MAP_FAILED) {
      cqPtr_ = nullptr;
      return Err(ErrorCode::kUnavailable,
                 Format("mmap cq ring: %s", std::strerror(errno)));
    }
  }
  sqesSize_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqesSize_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ringFd_, IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    return Err(ErrorCode::kUnavailable,
               Format("mmap sqes: %s", std::strerror(errno)));
  }

  auto* sqBase = static_cast<std::uint8_t*>(sqPtr_);
  auto* cqBase = static_cast<std::uint8_t*>(cqPtr_);
  sqHead_ = reinterpret_cast<unsigned*>(sqBase + params.sq_off.head);
  sqTail_ = reinterpret_cast<unsigned*>(sqBase + params.sq_off.tail);
  sqMask_ = *reinterpret_cast<unsigned*>(sqBase + params.sq_off.ring_mask);
  sqArray_ = reinterpret_cast<unsigned*>(sqBase + params.sq_off.array);
  cqHead_ = reinterpret_cast<unsigned*>(cqBase + params.cq_off.head);
  cqTail_ = reinterpret_cast<unsigned*>(cqBase + params.cq_off.tail);
  cqMask_ = *reinterpret_cast<unsigned*>(cqBase + params.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cqBase + params.cq_off.cqes);
  sqTailLocal_ = *sqTail_;

  // Provided-buffer ring for multishot recv: the kernel picks a buffer per
  // arriving chunk, we hand it back after the data handler runs.
  bufRingSize_ = kBufCount * sizeof(io_uring_buf);
  bufRing_ = static_cast<io_uring_buf_ring*>(
      ::mmap(nullptr, bufRingSize_, PROT_READ | PROT_WRITE,
             MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
  if (bufRing_ == MAP_FAILED) {
    bufRing_ = nullptr;
    return Err(ErrorCode::kUnavailable,
               Format("mmap buf ring: %s", std::strerror(errno)));
  }
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uint64_t>(bufRing_);
  reg.ring_entries = kBufCount;
  reg.bgid = 0;
  if (UringRegister(ringFd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
    return Err(ErrorCode::kUnavailable,
               Format("IORING_REGISTER_PBUF_RING: %s", std::strerror(errno)));
  }
  bufAreaSize_ = static_cast<std::size_t>(kBufCount) * kBufSize;
  bufBase_ = static_cast<std::uint8_t*>(
      ::mmap(nullptr, bufAreaSize_, PROT_READ | PROT_WRITE,
             MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
  if (bufBase_ == MAP_FAILED) {
    bufBase_ = nullptr;
    return Err(ErrorCode::kUnavailable,
               Format("mmap recv buffers: %s", std::strerror(errno)));
  }
  bufRingTailLocal_ = 0;
  for (unsigned bid = 0; bid < kBufCount; ++bid) {
    RecycleBuffer(static_cast<std::uint16_t>(bid));
  }

  wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeFd_ < 0) {
    return Err(ErrorCode::kUnavailable,
               Format("eventfd: %s", std::strerror(errno)));
  }
  return OkStatus();
}

UringLoop::~UringLoop() {
  // Same teardown rule as the epoll backend: break handler reference cycles
  // before the connection shared_ptrs unwind. fds close here because the
  // ring (and every op in it) dies with ringFd_.
  auto conns = std::move(connections_);
  connections_.clear();
  for (auto& [id, conn] : conns) conn->DetachHandlers();
  auto parked = std::move(closingConns_);
  closingConns_.clear();
  for (auto& [id, conn] : parked) conn->DetachHandlers();
  auto closing = std::move(closing_);
  closing_.clear();
  for (auto& conn : closing) conn->DetachHandlers();
  for (auto& [id, fd] : closingListeners_) ::close(fd);
  for (auto& [id, pending] : connecting_) ::close(pending.fd);

  if (bufBase_ != nullptr) ::munmap(bufBase_, bufAreaSize_);
  if (bufRing_ != nullptr) ::munmap(bufRing_, bufRingSize_);
  if (sqes_ != nullptr) ::munmap(sqes_, sqesSize_);
  if (cqPtr_ != nullptr && !singleMmap_) ::munmap(cqPtr_, cqSize_);
  if (sqPtr_ != nullptr) ::munmap(sqPtr_, sqSize_);
  if (wakeFd_ >= 0) ::close(wakeFd_);
  if (ringFd_ >= 0) ::close(ringFd_);
}

// ---------------------------------------------------------------------------
// UringLoop — ring plumbing
// ---------------------------------------------------------------------------

io_uring_sqe* UringLoop::GetSqe() {
  if (sqTailLocal_ - LoadAcquireU32(sqHead_) >= sqEntries_) {
    SubmitNow();  // ring full: push what we have to free slots
  }
  const unsigned idx = sqTailLocal_ & sqMask_;
  io_uring_sqe* sqe = &sqes_[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sqArray_[idx] = idx;
  ++sqTailLocal_;
  ++toSubmit_;
  return sqe;
}

void UringLoop::SubmitNow() {
  StoreReleaseU32(sqTail_, sqTailLocal_);
  while (toSubmit_ > 0) {
    const int rc = UringEnter(ringFd_, toSubmit_, 0, 0, nullptr, 0);
    if (rc >= 0) {
      toSubmit_ -= std::min(toSubmit_, static_cast<unsigned>(rc));
      if (rc == 0) break;
    } else if (errno == EINTR) {
      continue;
    } else {
      MD_ERROR("io_uring_enter(submit): %s", std::strerror(errno));
      break;
    }
  }
}

int UringLoop::EnterAndWait(int timeoutMillis) {
  StoreReleaseU32(sqTail_, sqTailLocal_);
  struct timespec ts {};
  ts.tv_sec = timeoutMillis / 1000;
  ts.tv_nsec = static_cast<long>(timeoutMillis % 1000) * 1000000L;
  io_uring_getevents_arg arg{};
  arg.ts = reinterpret_cast<std::uint64_t>(&ts);
  const int rc =
      UringEnter(ringFd_, toSubmit_, 1,
                 IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
                 sizeof(arg));
  if (rc >= 0) {
    toSubmit_ -= std::min(toSubmit_, static_cast<unsigned>(rc));
    return 0;
  }
  if (errno == ETIME || errno == EINTR) return 0;
  MD_ERROR("io_uring_enter(wait): %s", std::strerror(errno));
  return -1;
}

void UringLoop::ProcessCompletions() {
  unsigned head = *cqHead_;
  while (head != LoadAcquireU32(cqTail_)) {
    // Copy before advancing: once the head moves the kernel may reuse the
    // slot, and handlers below can run for a while.
    const io_uring_cqe cqe = cqes_[head & cqMask_];
    ++head;
    StoreReleaseU32(cqHead_, head);
    HandleCqe(cqe);
  }
}

void UringLoop::RecycleBuffer(std::uint16_t bid) {
  // Index slots from the ring base, not through io_uring_buf_ring::bufs: the
  // kernel header declares bufs with __DECLARE_FLEX_ARRAY, whose leading
  // empty struct has size 1 in C++ — padding bufs[] to offset 8 and shifting
  // every slot off by 8 bytes from the kernel's view of the ring.
  auto* slots = reinterpret_cast<io_uring_buf*>(bufRing_);
  io_uring_buf* slot = &slots[bufRingTailLocal_ & (kBufCount - 1)];
  slot->addr = reinterpret_cast<std::uint64_t>(bufBase_ +
                                               static_cast<std::size_t>(bid) *
                                                   kBufSize);
  slot->len = kBufSize;
  slot->bid = bid;
  ++bufRingTailLocal_;
  StoreReleaseU16(&bufRing_->tail,
                  static_cast<std::uint16_t>(bufRingTailLocal_));
}

// ---------------------------------------------------------------------------
// UringLoop — op submission
// ---------------------------------------------------------------------------

void UringLoop::ArmWakePoll() {
  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = wakeFd_;
  sqe->poll32_events = POLLIN;
  sqe->len = IORING_POLL_ADD_MULTI;
  sqe->user_data = Encode(OpKind::kWakePoll, 0);
  wakePollArmed_ = true;
}

void UringLoop::ArmAccept(detail::UringListener& listener) {
  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = listener.fd_;
  sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
  sqe->user_data = Encode(OpKind::kAccept, listener.id_);
  listener.acceptArmed_ = true;
}

void UringLoop::ArmRecv(detail::UringConnection& conn) {
  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = conn.fd_;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = Encode(OpKind::kRecv, conn.id_);
  conn.recvArmed_ = true;
  ++conn.pendingOps_;
}

void UringLoop::SubmitCancelFd(int fd) {
  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = fd;
  sqe->cancel_flags = IORING_ASYNC_CANCEL_FD | IORING_ASYNC_CANCEL_ALL;
  sqe->user_data = Encode(OpKind::kCancel, 0);
}

void UringLoop::SubmitCancelUserData(std::uint64_t userData) {
  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->addr = userData;
  sqe->user_data = Encode(OpKind::kCancel, 0);
}

// ---------------------------------------------------------------------------
// UringLoop — completion dispatch
// ---------------------------------------------------------------------------

std::shared_ptr<detail::UringConnection> UringLoop::FindConn(std::uint64_t id) {
  if (auto it = connections_.find(id); it != connections_.end()) {
    return it->second;
  }
  if (auto it = closingConns_.find(id); it != closingConns_.end()) {
    return it->second;
  }
  return nullptr;
}

void UringLoop::HandleCqe(const io_uring_cqe& cqe) {
  const auto kind = static_cast<OpKind>(cqe.user_data >> 56);
  const std::uint64_t id = cqe.user_data & ((1ULL << 56) - 1);
  switch (kind) {
    case OpKind::kWakePoll: {
      std::uint64_t drain = 0;
      while (::read(wakeFd_, &drain, sizeof(drain)) > 0) {
      }
      if ((cqe.flags & IORING_CQE_F_MORE) == 0) {
        wakePollArmed_ = false;
        if (!stopped_.load(std::memory_order_acquire)) ArmWakePoll();
      }
      break;
    }
    case OpKind::kAccept:
      HandleAcceptCqe(id, cqe);
      break;
    case OpKind::kRecv:
      HandleRecvCqe(id, cqe);
      break;
    case OpKind::kSend:
      HandleSendCqe(id, cqe);
      break;
    case OpKind::kConnect:
      HandleConnectCqe(id, cqe);
      break;
    case OpKind::kCancel:
      break;  // the cancelled op reports through its own CQE
  }
}

void UringLoop::HandleAcceptCqe(std::uint64_t id, const io_uring_cqe& cqe) {
  const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
  auto it = listeners_.find(id);
  if (it == listeners_.end()) {
    // Listener already closed: refuse late arrivals, reap the parked fd on
    // the terminal CQE.
    if (cqe.res >= 0) ::close(cqe.res);
    if (!more) {
      if (auto cit = closingListeners_.find(id); cit != closingListeners_.end()) {
        ::close(cit->second);
        closingListeners_.erase(cit);
      }
    }
    return;
  }
  detail::UringListener* listener = it->second;
  if (cqe.res >= 0) {
    const int clientFd = cqe.res;
    auto conn = std::make_shared<detail::UringConnection>(
        *this, clientFd, PeerString(clientFd), nextId_);
    connections_[nextId_] = conn;
    ++nextId_;
    ArmRecv(*conn);
    if (listener->acceptHandler_) listener->acceptHandler_(conn);
  } else if (cqe.res != -ECANCELED) {
    MD_WARN("accept failed: %s", std::strerror(-cqe.res));
  }
  if (!more) {
    listener->acceptArmed_ = false;
    if (listener->fd_ >= 0 && cqe.res != -ECANCELED) ArmAccept(*listener);
  }
}

void UringLoop::HandleRecvCqe(std::uint64_t id, const io_uring_cqe& cqe) {
  auto conn = FindConn(id);
  const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
  const bool hasBuf = (cqe.flags & IORING_CQE_F_BUFFER) != 0;
  const std::uint16_t bid =
      static_cast<std::uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT);

  if (conn != nullptr && !conn->closing_ && cqe.res > 0 && hasBuf) {
    if (auto* m = metrics()) {
      m->syscallsRecv.Inc();
      m->bytesRead.Inc(static_cast<std::size_t>(cqe.res));
    }
    conn->OnRecv(BytesView(bufBase_ + static_cast<std::size_t>(bid) * kBufSize,
                           static_cast<std::size_t>(cqe.res)));
  }
  // Recycle unconditionally — even for a connection that died mid-flight the
  // kernel consumed a provided buffer and it must go back in the ring.
  if (hasBuf) RecycleBuffer(bid);

  if (more || conn == nullptr) return;
  conn->recvArmed_ = false;
  --conn->pendingOps_;
  if (conn->closing_) {
    if (conn->pendingOps_ == 0) conn->FinishClose();
    return;
  }
  if (cqe.res == 0 || (cqe.res < 0 && cqe.res != -ENOBUFS &&
                       cqe.res != -ECANCELED)) {
    conn->CloseNow();  // EOF or real error
    return;
  }
  if (cqe.res == -ECANCELED && !conn->readPaused_) {
    // Cancelled for a reason other than pausing (shouldn't happen while
    // open) — treat as re-armable.
  }
  if (conn->fd_ >= 0 && !conn->readPaused_) ArmRecv(*conn);
}

void UringLoop::HandleSendCqe(std::uint64_t id, const io_uring_cqe& cqe) {
  auto conn = FindConn(id);
  if (conn == nullptr) return;
  conn->sendInFlight_ = false;
  --conn->pendingOps_;
  conn->inflightRefs_.clear();
  if (conn->closing_) {
    if (conn->pendingOps_ == 0) conn->FinishClose();
    return;
  }
  conn->OnSendComplete(cqe.res);
}

void UringLoop::HandleConnectCqe(std::uint64_t id, const io_uring_cqe& cqe) {
  auto node = connecting_.extract(id);
  if (node.empty()) return;
  PendingConnect pending = std::move(node.mapped());
  if (cqe.res < 0) {
    ::close(pending.fd);
    pending.cb(Err(ErrorCode::kUnavailable,
                   Format("connect to %s: %s", pending.target.c_str(),
                          std::strerror(-cqe.res))));
    return;
  }
  auto conn = std::make_shared<detail::UringConnection>(
      *this, pending.fd, pending.target, nextId_);
  connections_[nextId_] = conn;
  ++nextId_;
  ArmRecv(*conn);
  pending.cb(ConnectionPtr(conn));
}

// ---------------------------------------------------------------------------
// UringLoop — EventLoop interface
// ---------------------------------------------------------------------------

void UringLoop::Run() {
  runThread_.store(std::this_thread::get_id(), std::memory_order_release);
  {
    std::lock_guard lock(postMutex_);
    acceptingTasks_ = true;
  }
  if (!wakePollArmed_) ArmWakePoll();
  while (!stopped_.load(std::memory_order_acquire)) {
    DrainPostedTasks();
    FireDueTimers();
    // Adaptive flush, identical policy to the epoll backend: egress queued
    // by the tasks/timers above is submitted before we block.
    FlushPending();
    if (stopped_.load(std::memory_order_acquire)) break;

    if (EnterAndWait(NextTimeoutMillis()) < 0) break;
    if (auto* m = metrics()) m->loopIterations.Inc();
    ProcessCompletions();
  }
  DrainPostedTasks();
  FlushPending();
  // Bounded grace so final frames (goodbyes) reach the kernel before the
  // ring is torn down; each pass reaps whatever completed.
  for (int i = 0; i < 10; ++i) {
    bool inflight = toSubmit_ > 0;
    for (const auto& [id, conn] : connections_) {
      if (conn->sendInFlight_) {
        inflight = true;
        break;
      }
    }
    if (!inflight && closingConns_.empty()) break;
    if (EnterAndWait(5) < 0) break;
    ProcessCompletions();
  }
  // Final drain with the accepting flag lowered under the same lock: anything
  // posted after this point is dropped, and PostIfAccepting callers learn it.
  {
    std::vector<TaskFn> rest;
    {
      std::lock_guard lock(postMutex_);
      acceptingTasks_ = false;
      rest.swap(posted_);
    }
    for (auto& task : rest) task();
  }
  runThread_.store(std::thread::id{}, std::memory_order_release);
}

bool UringLoop::OnLoopThread() const noexcept {
  return runThread_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

bool UringLoop::LoopActive() const noexcept {
  return runThread_.load(std::memory_order_acquire) != std::thread::id{};
}

bool UringLoop::PostIfAccepting(TaskFn task) {
  bool needWake = false;
  {
    std::lock_guard lock(postMutex_);
    if (!acceptingTasks_) return false;
    needWake = posted_.empty();
    posted_.push_back(std::move(task));
  }
  if (needWake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  }
  return true;
}

void UringLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void UringLoop::Post(TaskFn task) {
  bool needWake = false;
  {
    std::lock_guard lock(postMutex_);
    needWake = posted_.empty();
    posted_.push_back(std::move(task));
  }
  if (auto* m = metrics()) m->tasksPosted.Inc();
  if (needWake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  }
}

void UringLoop::DrainPostedTasks() {
  std::vector<TaskFn> tasks;
  {
    std::lock_guard lock(postMutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void UringLoop::QueueFlush(std::shared_ptr<detail::UringConnection> conn) {
  flushPending_.push_back(std::move(conn));
}

void UringLoop::FlushPending() {
  // Unlike the epoll flush (which performs the syscall inline and may invoke
  // drained handlers), this only submits SQEs — handlers run at CQE time, so
  // one pass is quiescent by construction.
  auto pending = std::move(flushPending_);
  flushPending_.clear();
  for (auto& conn : pending) {
    conn->flushQueued_ = false;
    if (conn->fd_ >= 0 && !conn->closing_ && !conn->out_.empty() &&
        !conn->sendInFlight_) {
      conn->StartSend();
    }
  }
}

std::uint64_t UringLoop::ScheduleTimer(Duration delay, TaskFn task) {
  const std::uint64_t id = nextTimerId_++;
  timerHeap_.push({Now() + (delay > 0 ? delay : 0), id});
  timerTasks_[id] = std::move(task);
  return id;
}

void UringLoop::CancelTimer(std::uint64_t id) { timerTasks_.erase(id); }

TimePoint UringLoop::Now() const { return RealClock::Instance().Now(); }

void UringLoop::FireDueTimers() {
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

int UringLoop::NextTimeoutMillis() const {
  if (timerHeap_.empty()) return 100;
  const Duration until = timerHeap_.top().when - Now();
  if (until <= 0) return 0;
  const auto ms = until / kMillisecond;
  return ms > 100 ? 100 : static_cast<int>(ms) + 1;
}

Result<ListenerPtr> UringLoop::Listen(std::uint16_t port) {
  auto sock = net::CreateListenSocket(port);
  if (!sock.ok()) return sock.status();
  auto listener = std::make_unique<detail::UringListener>(*this, sock->fd,
                                                          sock->port, nextId_);
  listeners_[nextId_] = listener.get();
  ++nextId_;
  ArmAccept(*listener);
  return ListenerPtr(std::move(listener));
}

void UringLoop::CloseListener(detail::UringListener& listener) {
  listeners_.erase(listener.id_);
  if (listener.acceptArmed_) {
    closingListeners_[listener.id_] = listener.fd_;
    SubmitCancelFd(listener.fd_);
  } else {
    ::close(listener.fd_);
  }
  listener.fd_ = -1;
}

void UringLoop::Connect(const std::string& host, std::uint16_t port,
                        ConnectCallback cb) {
  // Blocking socket on purpose: IORING_OP_CONNECT on a non-blocking socket
  // would complete instantly with EINPROGRESS; async context does the wait.
  // The connection constructor flips it to non-blocking afterwards.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    cb(Errno("socket"));
    return;
  }
  const std::uint64_t id = nextId_++;
  PendingConnect& pending = connecting_[id];
  pending.fd = fd;
  pending.cb = std::move(cb);
  pending.target = Format("%s:%u", host.c_str(), port);
  pending.addr = {};
  if (Status s = net::ResolveHost(host, port, pending.addr); !s.ok()) {
    ::close(fd);
    auto node = connecting_.extract(id);
    node.mapped().cb(std::move(s));
    return;
  }

  io_uring_sqe* sqe = GetSqe();
  sqe->opcode = IORING_OP_CONNECT;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(&pending.addr);
  sqe->off = sizeof(pending.addr);
  sqe->user_data = Encode(OpKind::kConnect, id);
  SubmitNow();  // don't wait for the loop iteration; peers may connect back
}

}  // namespace md
