// Slow-consumer policy (paper §4: a handful of stalled clients must not
// consume unbounded server memory). The client front door (front_door.hpp)
// holds every client connection of every host to it.
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
#include <string_view>

#include "common/time.hpp"
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

struct Session;  // core/session.hpp

class SlowConsumerPolicy {
 public:
  /// Registers md_slow_consumer_* under `labels` in `registry`. `monitor`
  /// (nullable) receives every over-soft queue-depth sample.
  SlowConsumerPolicy(const BackpressureConfig& cfg,
                     obs::MetricsRegistry& registry, std::string_view labels,
                     verify::Monitor* monitor);

  /// Holds a newly accepted client to the policy: sets its connection's
  /// watermarks and the drained handler that ends a soft excursion.
  /// `client.conn` and `client.loop` must be set. The policy touches a
  /// client only on its loop's thread.
  void Attach(Session& client);

  /// Queues `wire` on the client's connection; the only place a client
  /// connection's Send is called. On a soft-accepted kCapacity it counts the
  /// excursion, samples the queue depth and arms the grace timer; on a hard
  /// reject it evicts. Returns whether the connection took the bytes.
  bool Send(Session& client, WireBuffer wire);

  /// Ends the client's soft excursion, if any. The drained handler calls it;
  /// the front door calls it when the connection closes, so the gauge never
  /// counts a closed client.
  void LeaveOverSoft(Session& client);

 private:
  void Evict(Session& client);

  BackpressureConfig cfg_;
  obs::SlowConsumerMetrics metrics_;
  verify::Monitor* monitor_;
};

}  // namespace md::core
