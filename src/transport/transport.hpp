// Transport abstraction.
//
// The engine, the cluster protocol, and the client library talk to byte
// streams through these interfaces. Two implementations exist:
//   - EpollLoop (epoll_loop.hpp): real non-blocking TCP sockets, one loop per
//     IoThread — the production path (paper §4's I/O layer).
//   - InprocTransport (inproc.hpp): deterministic in-process pipes for unit
//     and integration tests.
//
// Contract: handlers are invoked on the owning loop's thread; Send() may be
// called from the loop thread only (cross-thread senders use Post()). Data
// arrives in order and without duplication (TCP semantics). Every write is a
// shared WireBuffer (wire.hpp): egress bytes are encoded once and never
// copied again on their way to the socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "transport/wire.hpp"

namespace md {

/// Send-buffer watermarks (slow-consumer backpressure).
///
///   - soft: Send() still accepts the bytes but returns kCapacity so the
///     caller can apply its overflow policy (throttle, conflate, evict).
///   - hard: Send() rejects the append outright — kCapacity with nothing
///     buffered — so PendingBytes() is bounded by `hard` no matter how the
///     caller reacts. Rejection is all-or-nothing per call: a frame that
///     does not fit is never partially queued (that would tear the stream).
///   - low: once the buffer was over `soft`, the drained handler fires when
///     PendingBytes() falls back to <= low.
///
/// Defaults preserve the historical behaviour (8 MiB advisory mark, no hard
/// rejection, no drain notifications); client-facing owners are expected to
/// configure real limits per deployment.
struct Watermarks {
  std::size_t soft = 8 * 1024 * 1024;
  std::size_t hard = SIZE_MAX;
  std::size_t low = 0;
};

class Connection {
 public:
  using DataHandler = std::function<void(BytesView)>;
  using CloseHandler = std::function<void()>;
  using DrainedHandler = std::function<void()>;

  virtual ~Connection() = default;

  /// The only way bytes leave a connection: queues a *reference* to the
  /// (immutable) wire buffer, never a copy, so one encoded frame can be
  /// shared by every subscriber on the loop. Non-blocking; the bytes leave
  /// on the loop's flush pass after the current task (a queue that grows
  /// large may be flushed inside the call). Returns kCapacity when
  /// the buffer is over the soft watermark (bytes accepted; caller should
  /// throttle) or when the append would exceed the hard watermark (bytes
  /// rejected — the caller can distinguish the two by comparing
  /// PendingBytes() across the call), kClosed if closed.
  virtual Status Send(WireBuffer data) = 0;

  /// Initiates close. The close handler fires (once) when fully closed.
  /// Bytes still buffered are discarded — including a Send() made earlier
  /// in the same task, which the flush pass has not written yet.
  virtual void Close() = 0;

  /// Graceful variant: lets already-buffered bytes flush to the peer first
  /// (implementations bound the wait). Use it whenever the bytes just sent
  /// must reach the peer. Default = immediate Close().
  virtual void CloseAfterFlush() { Close(); }

  [[nodiscard]] virtual bool IsOpen() const = 0;

  /// Bytes currently buffered but not yet written to the peer.
  [[nodiscard]] virtual std::size_t PendingBytes() const = 0;

  [[nodiscard]] virtual std::string PeerName() const = 0;

  /// Test/fault-injection hook: a paused connection stops consuming inbound
  /// bytes (models a stalled reader / zero receive window), so the *peer's*
  /// send buffer backs up. Default no-op for transports without the concept.
  virtual void SetReadPaused(bool /*paused*/) {}

  void SetDataHandler(DataHandler h) { dataHandler_ = std::move(h); }
  void SetCloseHandler(CloseHandler h) { closeHandler_ = std::move(h); }

  /// Loop-thread only, like Send().
  void SetWatermarks(const Watermarks& wm) { wm_ = wm; }
  [[nodiscard]] const Watermarks& watermarks() const noexcept { return wm_; }

  /// Fires on the loop thread when the buffer recovers from above-soft to
  /// <= low (see Watermarks). At most once per soft-mark excursion.
  void SetDrainedHandler(DrainedHandler h) { drainedHandler_ = std::move(h); }

 protected:
  DataHandler dataHandler_;
  CloseHandler closeHandler_;
  DrainedHandler drainedHandler_;
  Watermarks wm_;
  bool overSoft_ = false;  // excursion state for the drained notification
};

using ConnectionPtr = std::shared_ptr<Connection>;

class Listener {
 public:
  using AcceptHandler = std::function<void(ConnectionPtr)>;

  virtual ~Listener() = default;
  virtual void Close() = 0;
  [[nodiscard]] virtual std::uint16_t Port() const = 0;

  void SetAcceptHandler(AcceptHandler h) { acceptHandler_ = std::move(h); }

 protected:
  AcceptHandler acceptHandler_;
};

using ListenerPtr = std::unique_ptr<Listener>;

/// Event loop: owns connections, timers and deferred tasks for one thread.
class EventLoop {
 public:
  using TaskFn = std::function<void()>;
  using ConnectCallback = std::function<void(Result<ConnectionPtr>)>;

  virtual ~EventLoop() = default;

  /// Runs until Stop(). Must be called from the loop's designated thread.
  virtual void Run() = 0;
  virtual void Stop() = 0;

  /// Thread-safe: enqueue a task to run on the loop thread.
  virtual void Post(TaskFn task) = 0;

  /// Timers run on the loop thread. Returns an id usable with CancelTimer.
  virtual std::uint64_t ScheduleTimer(Duration delay, TaskFn task) = 0;
  virtual void CancelTimer(std::uint64_t id) = 0;

  [[nodiscard]] virtual TimePoint Now() const = 0;

  /// Opens a listening socket on `port` (0 = ephemeral).
  virtual Result<ListenerPtr> Listen(std::uint16_t port) = 0;

  /// Asynchronously connect to host:port; callback fires on the loop thread.
  virtual void Connect(const std::string& host, std::uint16_t port,
                       ConnectCallback cb) = 0;
};

/// Kernel-capability report for the environment record of benchmark runs:
/// probes once whether this kernel offers io_uring with EXT_ARG timed waits
/// and provided-buffer rings. It runs no backend — every host uses
/// EpollLoop. `whyNot` (optional) receives a human-readable reason when
/// unavailable.
[[nodiscard]] bool IoUringAvailable(std::string* whyNot = nullptr);

}  // namespace md
