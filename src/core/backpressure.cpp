#include "core/backpressure.hpp"

#include "common/logging.hpp"
#include "core/front_door.hpp"

namespace md::core {

SlowConsumerPolicy::SlowConsumerPolicy(const BackpressureConfig& cfg,
                                       obs::MetricsRegistry& registry,
                                       std::string_view labels,
                                       verify::Monitor* monitor)
    : cfg_(cfg),
      metrics_(registry, labels),
      monitor_(monitor) {}

void SlowConsumerPolicy::Attach(Session& client) {
  client.conn->SetWatermarks(cfg_.ToWatermarks());
  // Low-watermark recovery: the connection drained below wm.low after a soft
  // excursion — the client is healthy again.
  client.conn->SetDrainedHandler([this, weak = client.weak_from_this()] {
    if (auto c = weak.lock()) LeaveOverSoft(*c);
  });
}

bool SlowConsumerPolicy::Send(Session& client, WireBuffer wire) {
  Connection& conn = *client.conn;
  if (client.closing || !conn.IsOpen()) return false;
  const std::size_t before = conn.PendingBytes();
  const Status st = conn.Send(std::move(wire));
  if (st.ok()) return true;
  if (st.code() != ErrorCode::kCapacity) return false;  // closed under us
  // kCapacity is ambiguous by design: over-soft Sends accept the bytes,
  // over-hard Sends reject the whole frame. PendingBytes moved iff accepted
  // (deterministic — we are on the connection's loop thread).
  const std::size_t pending = conn.PendingBytes();
  const bool accepted = pending > before;
  if (!client.overSoft) {
    client.overSoft = true;
    metrics_.softOverflows.Inc();
    metrics_.sessionsOverSoft.Add(1);
  }
  // Sample depth on every over-soft send (already the slow path): the
  // histogram's max is the peak backlog any client ever pinned, which is
  // what the hard watermark bounds.
  metrics_.queueDepthBytes.Record(static_cast<std::int64_t>(pending));
  if (monitor_ != nullptr) {
    monitor_->OnBackpressure(client.handle, pending, cfg_.hardWatermark);
  }
  if (!accepted) {
    // The frame is lost and the stream has a gap, so the only correct
    // continuation is eviction: the client reconnects and backfills.
    Evict(client);
    return false;
  }
  if (!client.evictTimerArmed) {
    client.evictTimerArmed = true;
    client.loop->ScheduleTimer(
        cfg_.evictGrace, [this, self = client.shared_from_this()] {
          self->evictTimerArmed = false;
          if (self->overSoft && self->conn->IsOpen()) Evict(*self);
        });
  }
  return true;
}

void SlowConsumerPolicy::LeaveOverSoft(Session& client) {
  if (!client.overSoft) return;
  client.overSoft = false;
  metrics_.sessionsOverSoft.Add(-1);
}

void SlowConsumerPolicy::Evict(Session& client) {
  if (client.closing) return;
  client.closing = true;
  MD_INFO("evicting slow consumer %llu (%s): %zu bytes pending",
          static_cast<unsigned long long>(client.handle),
          client.conn->PeerName().c_str(), client.conn->PendingBytes());
  // Best-effort close notice so a client that is merely slow (not dead)
  // learns this was a policy eviction, then a flush-bounded close.
  (void)client.conn->Send(EvictionNotice(client));
  client.conn->CloseAfterFlush();
  metrics_.disconnects.Inc();
}

}  // namespace md::core
