// Standard metric families for each subsystem, bundled so wiring code grabs
// one struct of references instead of repeating name/help strings at every
// increment site. Constructing a bundle registers (or re-finds) its families;
// references stay valid for the registry's lifetime.
//
// RegisterStandardFamilies() pre-registers every family with an unlabeled
// zero-valued child so a freshly started server already exposes the full
// schema on GET /metrics (and the golden exposition test sees a stable
// family set regardless of which subsystems happen to be active).
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace md::obs {

/// core::Server counters (one bundle per server, labeled server="<name>";
/// empty label text for a standalone server).
struct CoreMetrics {
  explicit CoreMetrics(MetricsRegistry& registry, std::string_view labels = "");

  Counter& accepted;
  Gauge& active;
  Counter& frames;
  Counter& published;
  Counter& delivered;
  Counter& bytesOut;
  Counter& protoErrors;
  /// Slab-accounted engine bytes / active sessions, refreshed on Stats()
  /// and /metrics scrapes (DESIGN.md §15 byte budget).
  Gauge& bytesPerSession;
  /// core::Cache::Bytes() of the host's topic cache, refreshed with
  /// bytesPerSession.
  Gauge& cacheBytes;
};

/// Transport loop counters (one bundle per host, shared by all its loops).
struct TransportMetrics {
  explicit TransportMetrics(MetricsRegistry& registry,
                            std::string_view labels = "");

  /// Loop iterations completed — NOT poll wakeups: EpollLoop ticks this
  /// once per iteration, timer ticks included.
  Counter& loopIterations;
  Counter& bytesRead;
  Counter& bytesWritten;
  Gauge& sendQueueBytes;
  Counter& timersFired;
  Counter& tasksPosted;
  // Egress/ingress syscall accounting (md_transport_syscalls_total{op=...}):
  // scatter-gather flushes and reads. Divided by deliveries the sendmsg
  // count gives the syscalls-per-delivery stat the fan-out bench reports.
  Counter& sendmsgCalls;
  Counter& recvCalls;
};

/// Slow-consumer backpressure counters (per server, labeled server="<name>"
/// in core; unlabeled in the sim cluster harness). Tracks watermark
/// excursions and the evictions they led to (core/backpressure.hpp).
struct SlowConsumerMetrics {
  explicit SlowConsumerMetrics(MetricsRegistry& registry,
                               std::string_view labels = "");

  Counter& softOverflows;
  Counter& disconnects;
  Gauge& sessionsOverSoft;
  LatencyHistogram& queueDepthBytes;
};

/// cluster::Node counters (one bundle per node, labeled server="<name>").
struct ClusterMetrics {
  explicit ClusterMetrics(MetricsRegistry& registry,
                          std::string_view labels = "");

  Counter& published;
  Counter& forwarded;
  Counter& delivered;
  Counter& rejects;
  Counter& takeovers;
  Counter& fences;
  Counter& unfences;
  Counter& backfilled;
  Counter& handoffs;
  Counter& handoffSessions;
  Counter& handoffAborts;
  Counter& quorumRejects;
  Counter& fenceRefusals;
  Counter& rebalances;
  Gauge& activeMembers;
  Gauge& replicationPending;
  LatencyHistogram& replicationAckNs;
  Gauge& failoverLastNs;
  LatencyHistogram& failoverNs;
};

/// wal::Log counters (one bundle per server, labeled server="<name>").
/// Appends/fsyncs describe the publish-path write load per fsync policy;
/// the recovery families describe what the last startup replay found.
struct WalMetrics {
  explicit WalMetrics(MetricsRegistry& registry, std::string_view labels = "");

  Counter& appends;
  Counter& appendBytes;
  Counter& fsyncs;
  Counter& rotations;
  Counter& corruptSkipped;
  Counter& tornTruncated;
  Counter& recoveredRecords;
  Counter& enospcErrors;
  Gauge& segments;
  Gauge& recoveryLastMs;
};

/// coord (MiniZK) counters (one bundle per coord node, labeled node="<id>").
struct CoordMetrics {
  explicit CoordMetrics(MetricsRegistry& registry, std::string_view labels = "");

  Counter& sessionExpirations;
  Counter& watchFires;
  Counter& elections;
  LatencyHistogram& writeNs;
};

/// Pre-registers every standard family (core, transport, cluster, coord,
/// trace) with an unlabeled child so the exposition schema is complete from
/// process start.
void RegisterStandardFamilies(MetricsRegistry& registry);

/// `server="<name>"` label text for per-server children.
[[nodiscard]] std::string ServerLabel(std::string_view serverName);

/// `node="<id>"` label text for per-coord-node children.
[[nodiscard]] std::string NodeLabel(std::string_view nodeId);

}  // namespace md::obs
