// Slow-consumer policy (paper §4: a handful of stalled clients must not
// consume unbounded server memory). One copy, used by every host that owns
// client connections: core::Server, cluster::TcpClusterHost and
// cluster::SimCluster.
//
// The transport enforces the mechanical bound (src/transport/transport.hpp
// Watermarks: soft = advisory kCapacity, hard = append rejected). This module
// decides what happens to a client that crossed the soft mark: it has
// `evictGrace` to drain below the low mark. A client still over soft when the
// grace ends, or one whose frame the hard mark rejected (its stream now has a
// gap), is evicted: close notice, flush, close. At-least-once clients recover
// by reconnecting and resuming from their last position — the cache/cursor
// path replays everything missed, in order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "common/time.hpp"
#include "core/registry.hpp"
#include "obs/families.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"
#include "verify/monitor.hpp"

namespace md::core {

struct BackpressureConfig {
  std::size_t softWatermark = 1 * 1024 * 1024;
  std::size_t hardWatermark = 4 * 1024 * 1024;
  /// Drained notification threshold (recovery from an excursion).
  std::size_t lowWatermark = 128 * 1024;
  /// A client is evicted only if it is still over the soft mark this long
  /// after first crossing it — a healthy client absorbing a burst drains
  /// within the grace and survives; a stalled one does not.
  Duration evictGrace = 250 * kMillisecond;

  [[nodiscard]] Watermarks ToWatermarks() const {
    return Watermarks{softWatermark, hardWatermark, lowWatermark};
  }
};

/// Reason carried by a framed eviction notice (DisconnectFrame).
inline constexpr std::string_view kSlowConsumerReason =
    "slow consumer: send queue overflow";

/// The part of a host's client record the policy reads and writes. Hosts
/// derive their record from it and own it through a shared_ptr (the grace
/// timer and the drained handler hold references). Everything here is
/// touched only on `loop`'s thread.
struct PolicedClient : std::enable_shared_from_this<PolicedClient> {
  ClientHandle handle = 0;    // the monitor's session key
  ConnectionPtr conn;
  EventLoop* loop = nullptr;  // runs the connection's handlers and timers
  bool overSoft = false;
  bool evictTimerArmed = false;
  bool evicting = false;
};

/// The close notice of a framed-protocol client:
/// DisconnectFrame(kSlowConsumerReason).
[[nodiscard]] WireBuffer FramedEvictionNotice(const PolicedClient& client);

class SlowConsumerPolicy {
 public:
  /// Encodes the host's close notice for `client`: a WebSocket Close 1013 or
  /// a framed DisconnectFrame carrying kSlowConsumerReason.
  using NoticeFn = std::function<WireBuffer(const PolicedClient& client)>;

  /// Registers md_slow_consumer_* under `labels` in `registry`. `monitor`
  /// (nullable) receives every over-soft queue-depth sample.
  SlowConsumerPolicy(const BackpressureConfig& cfg,
                     obs::MetricsRegistry& registry, std::string_view labels,
                     verify::Monitor* monitor, NoticeFn notice);

  /// Holds a newly accepted client to the policy: sets its connection's
  /// watermarks and the drained handler that ends a soft excursion.
  /// `client.conn` and `client.loop` must be set.
  void Attach(PolicedClient& client);

  /// Queues `wire` on the client's connection; the only place a client
  /// connection's Send is called. On a soft-accepted kCapacity it counts the
  /// excursion, samples the queue depth and arms the grace timer; on a hard
  /// reject it evicts. Returns whether the connection took the bytes.
  bool Send(PolicedClient& client, WireBuffer wire);

  /// Ends the client's soft excursion, if any. The drained handler calls it;
  /// hosts call it when the connection closes, so the gauge never counts a
  /// closed client.
  void LeaveOverSoft(PolicedClient& client);

 private:
  void Evict(PolicedClient& client);

  BackpressureConfig cfg_;
  obs::SlowConsumerMetrics metrics_;
  verify::Monitor* monitor_;
  NoticeFn notice_;
};

}  // namespace md::core
