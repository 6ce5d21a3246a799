#include "transport/inproc.hpp"

#include "common/strutil.hpp"

namespace md {

namespace detail {

InprocConnection::InprocConnection(InprocLoop& loop, std::string peerName)
    : loop_(loop), peerName_(std::move(peerName)) {}

Status InprocConnection::Send(WireBuffer data) {
  if (!open_) return Err(ErrorCode::kClosed, "connection closed");
  if (data == nullptr || data->empty()) return OkStatus();
  auto peer = peer_.lock();
  if (!peer) return Err(ErrorCode::kClosed, "peer gone");
  // Same watermark contract as TcpConnection: whole-frame hard rejection
  // first (outPending_ <= wm_.hard by induction), soft advisory after the
  // bytes are accepted.
  if (data->size() > wm_.hard - outPending_) {
    return Err(ErrorCode::kCapacity, "send rejected: over hard watermark");
  }
  outPending_ += data->size();
  // Zero-copy: the event carries a reference; the buffer stays alive (and
  // immutable) until every receiver on every loop has consumed it.
  loop_.scheduler().Schedule(
      loop_.deliveryDelay(),
      [peer, data = std::move(data)]() mutable { peer->Deliver(std::move(data)); });
  if (outPending_ > wm_.soft) {
    overSoft_ = true;
    return Err(ErrorCode::kCapacity, "write buffer over soft watermark");
  }
  return OkStatus();
}

void InprocConnection::Close() {
  if (!open_) return;
  open_ = false;
  // Parked-but-never-consumed bytes must not leak the sender's accounting.
  if (!parked_.empty()) {
    std::size_t parkedBytes = 0;
    for (const WireBuffer& b : parked_) parkedBytes += b->size();
    parked_.clear();
    if (auto peer = peer_.lock()) peer->OnPeerConsumed(parkedBytes);
  }
  if (auto peer = peer_.lock()) {
    loop_.scheduler().Schedule(loop_.deliveryDelay(),
                               [peer] { peer->DeliverClose(); });
  }
  // Notify, then release the handlers (they may capture this connection in
  // a shared_ptr — a reference cycle). Deferred: Close() may be running
  // inside the data handler, which must not destroy itself mid-execution.
  // The loop tracks the connection until then (see ~InprocLoop).
  auto self = shared_from_this();
  loop_.MarkClosing(self);
  loop_.scheduler().Schedule(0, [self, loop = &loop_] {
    auto handler = std::move(self->closeHandler_);
    self->closeHandler_ = nullptr;
    if (handler) handler();
    self->DetachHandlers();
    loop->UnmarkClosing(self.get());
  });
}

void InprocConnection::Deliver(WireBuffer data) {
  if (!open_) {
    // Receiver already closed: bytes are discarded (as a dead TCP peer
    // would), but the sender's pending accounting must not leak.
    if (auto peer = peer_.lock()) peer->OnPeerConsumed(data->size());
    return;
  }
  if (readPaused_ || !parked_.empty()) {
    parked_.push_back(std::move(data));
    return;
  }
  Consume(data);
}

void InprocConnection::Consume(const WireBuffer& data) {
  if (dataHandler_) dataHandler_(BytesView(*data));
  if (auto peer = peer_.lock()) peer->OnPeerConsumed(data->size());
}

void InprocConnection::OnPeerConsumed(std::size_t n) {
  outPending_ -= n < outPending_ ? n : outPending_;
  if (overSoft_ && outPending_ <= wm_.low) {
    overSoft_ = false;
    if (drainedHandler_) {
      auto handler = drainedHandler_;  // may replace itself / close
      handler();
    }
  }
}

void InprocConnection::SetReadPaused(bool paused) {
  readPaused_ = paused;
  if (paused) return;
  // Drain the parked backlog in arrival order; a handler may re-pause.
  while (!readPaused_ && open_ && !parked_.empty()) {
    const WireBuffer data = std::move(parked_.front());
    parked_.pop_front();
    Consume(data);
  }
  if (open_ && !readPaused_ && parked_.empty() && pendingClose_) {
    pendingClose_ = false;
    DeliverClose();
  }
}

void InprocConnection::DeliverClose() {
  if (!open_) return;
  if (readPaused_ || !parked_.empty()) {
    // The close arrived behind parked data: a real socket delivers the
    // ordered bytes first, then EOF. Resume replays them, then closes.
    pendingClose_ = true;
    return;
  }
  open_ = false;
  // Scheduler events are sequential, so no handler is mid-execution here.
  dataHandler_ = nullptr;
  auto handler = std::move(closeHandler_);
  closeHandler_ = nullptr;
  if (handler) handler();
}

void InprocListener::Close() {
  if (closed_) return;
  closed_ = true;
  loop_.RemoveListener(port_);
}

}  // namespace detail

InprocLoop::~InprocLoop() {
  // Break handler cycles of connections whose deferred cleanup never ran
  // (e.g. the test ended without pumping the scheduler).
  auto closing = std::move(closing_);
  closing_.clear();
  for (auto& conn : closing) conn->DetachHandlers();
}

Result<ListenerPtr> InprocLoop::Listen(std::uint16_t port) {
  if (port == 0) port = nextEphemeral_++;
  if (listeners_.contains(port)) {
    return Err(ErrorCode::kAlreadyExists, Format("port %u in use", port));
  }
  auto listener = std::make_unique<detail::InprocListener>(*this, port);
  listeners_[port] = listener.get();
  return ListenerPtr(std::move(listener));
}

void InprocLoop::Connect(const std::string& host, std::uint16_t port,
                         ConnectCallback cb) {
  sched_.Schedule(deliveryDelay_, [this, host, port, cb = std::move(cb)] {
    const auto it = listeners_.find(port);
    if (it == listeners_.end()) {
      cb(Err(ErrorCode::kUnavailable,
             Format("connection refused: %s:%u", host.c_str(), port)));
      return;
    }
    auto clientSide = std::make_shared<detail::InprocConnection>(
        *this, Format("%s:%u", host.c_str(), port));
    auto serverSide = std::make_shared<detail::InprocConnection>(
        *this, Format("client->%u", port));
    clientSide->BindPeer(serverSide);
    serverSide->BindPeer(clientSide);
    it->second->Accept(serverSide);
    cb(ConnectionPtr(clientSide));
  });
}

}  // namespace md
