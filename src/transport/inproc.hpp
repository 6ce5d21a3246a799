// Deterministic in-process transport over the simulation scheduler.
//
// Implements the same EventLoop/Connection/Listener contract as EpollLoop,
// but every byte transfer is an event on a sim::Scheduler with a configurable
// delivery delay. Single-threaded: tests pump the scheduler and observe fully
// reproducible interleavings. This is the harness under which the engine and
// cluster protocol are unit/integration/property tested.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "simnet/scheduler.hpp"
#include "transport/transport.hpp"

namespace md {

class InprocLoop;

namespace detail {

class InprocConnection final
    : public Connection,
      public std::enable_shared_from_this<InprocConnection> {
 public:
  InprocConnection(InprocLoop& loop, std::string peerName);

  Status Send(WireBuffer data) override;
  void Close() override;
  [[nodiscard]] bool IsOpen() const override { return open_; }
  /// Bytes sent but not yet consumed by the peer's data handler — in-flight
  /// scheduler events plus anything parked at a read-paused peer. This is
  /// the inproc analogue of TCP's unwritten send buffer, so simnet tests see
  /// real backpressure instead of a hard-coded 0.
  [[nodiscard]] std::size_t PendingBytes() const override { return outPending_; }
  [[nodiscard]] std::string PeerName() const override { return peerName_; }
  /// While paused, inbound deliveries park in arrival order (the peer's
  /// PendingBytes keeps counting them); Resume drains the backlog in order,
  /// then any deferred close.
  void SetReadPaused(bool paused) override;

  void BindPeer(std::shared_ptr<InprocConnection> peer) { peer_ = std::move(peer); }

  // Called via scheduler events.
  /// Zero-copy delivery: the handler reads straight from the shared buffer;
  /// a paused reader parks the reference.
  void Deliver(WireBuffer data);
  void DeliverClose();
  /// Peer-side acknowledgement that `n` sent bytes were consumed.
  void OnPeerConsumed(std::size_t n);
  void DetachHandlers() noexcept {
    dataHandler_ = nullptr;
    closeHandler_ = nullptr;
    drainedHandler_ = nullptr;
  }

 private:
  void Consume(const WireBuffer& data);

  InprocLoop& loop_;
  std::string peerName_;
  std::weak_ptr<InprocConnection> peer_;
  bool open_ = true;
  std::size_t outPending_ = 0;
  std::deque<WireBuffer> parked_;
  bool readPaused_ = false;
  bool pendingClose_ = false;
};

class InprocListener final : public Listener {
 public:
  InprocListener(InprocLoop& loop, std::uint16_t port)
      : loop_(loop), port_(port) {}
  ~InprocListener() override { Close(); }

  void Close() override;
  [[nodiscard]] std::uint16_t Port() const override { return port_; }

  void Accept(ConnectionPtr conn) {
    if (acceptHandler_) acceptHandler_(std::move(conn));
  }

 private:
  InprocLoop& loop_;
  std::uint16_t port_;
  bool closed_ = false;
};

}  // namespace detail

class InprocLoop final : public EventLoop {
 public:
  explicit InprocLoop(sim::Scheduler& sched, Duration deliveryDelay = 0)
      : sched_(sched), deliveryDelay_(deliveryDelay) {}

  // EventLoop: Run/Stop map onto the shared scheduler.
  void Run() override { sched_.Run(); }
  void Stop() override {}
  void Post(TaskFn task) override { sched_.Schedule(0, std::move(task)); }
  std::uint64_t ScheduleTimer(Duration delay, TaskFn task) override {
    return sched_.Schedule(delay, std::move(task));
  }
  void CancelTimer(std::uint64_t id) override { sched_.Cancel(id); }
  [[nodiscard]] TimePoint Now() const override { return sched_.Now(); }

  Result<ListenerPtr> Listen(std::uint16_t port) override;
  void Connect(const std::string& host, std::uint16_t port,
               ConnectCallback cb) override;

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] Duration deliveryDelay() const noexcept { return deliveryDelay_; }

  // Internal.
  void RemoveListener(std::uint16_t port) { listeners_.erase(port); }
  void MarkClosing(std::shared_ptr<detail::InprocConnection> conn) {
    closing_.push_back(std::move(conn));
  }
  void UnmarkClosing(const detail::InprocConnection* conn) {
    std::erase_if(closing_, [conn](const auto& p) { return p.get() == conn; });
  }
  ~InprocLoop();

 private:
  sim::Scheduler& sched_;
  Duration deliveryDelay_;
  std::vector<std::shared_ptr<detail::InprocConnection>> closing_;
  std::map<std::uint16_t, detail::InprocListener*> listeners_;
  std::uint16_t nextEphemeral_ = 50000;
};

}  // namespace md
