#include "obs/families.hpp"

namespace md::obs {

namespace {

// Family names + help, in one place so the bundles and
// RegisterStandardFamilies can't drift apart.

constexpr std::string_view kCoreAccepted = "md_core_connections_accepted_total";
constexpr std::string_view kCoreAcceptedHelp = "TCP connections accepted";
constexpr std::string_view kCoreActive = "md_core_connections_active";
constexpr std::string_view kCoreActiveHelp = "Currently open client sessions";
constexpr std::string_view kCoreFrames = "md_core_frames_received_total";
constexpr std::string_view kCoreFramesHelp = "Protocol frames parsed";
constexpr std::string_view kCorePublished = "md_core_published_total";
constexpr std::string_view kCorePublishedHelp = "Publications accepted";
constexpr std::string_view kCoreDelivered = "md_core_delivered_total";
constexpr std::string_view kCoreDeliveredHelp =
    "Messages delivered to subscribers";
constexpr std::string_view kCoreBytesOut = "md_core_bytes_out_total";
constexpr std::string_view kCoreBytesOutHelp = "Payload bytes written to clients";
constexpr std::string_view kCoreProtoErrors = "md_core_protocol_errors_total";
constexpr std::string_view kCoreProtoErrorsHelp =
    "Sessions dropped for protocol violations";
constexpr std::string_view kCoreBytesPerSession = "md_core_bytes_per_session";
constexpr std::string_view kCoreBytesPerSessionHelp =
    "Slab-accounted engine bytes in use divided by active sessions";
constexpr std::string_view kCoreCacheBytes = "md_core_cache_bytes";
constexpr std::string_view kCoreCacheBytesHelp =
    "Bytes held by the topic-history cache: chunks and per-topic records";

// Renamed from md_transport_epoll_wakeups_total: the loop increments it once
// per loop iteration — timer ticks and posted-task wakeups included — so the
// old name overstated what it counted.
constexpr std::string_view kTransLoopIterations =
    "md_transport_loop_iterations_total";
constexpr std::string_view kTransLoopIterationsHelp =
    "Event-loop iterations completed (any backend; includes timer ticks)";
constexpr std::string_view kTransBytesRead = "md_transport_bytes_read_total";
constexpr std::string_view kTransBytesReadHelp = "Bytes read from sockets";
constexpr std::string_view kTransBytesWritten =
    "md_transport_bytes_written_total";
constexpr std::string_view kTransBytesWrittenHelp = "Bytes written to sockets";
constexpr std::string_view kTransQueueBytes = "md_transport_send_queue_bytes";
constexpr std::string_view kTransQueueBytesHelp =
    "Bytes buffered across all connection send queues";
constexpr std::string_view kTransTimers = "md_transport_timers_fired_total";
constexpr std::string_view kTransTimersHelp = "Loop timers fired";
constexpr std::string_view kTransTasksPosted = "md_transport_tasks_posted_total";
constexpr std::string_view kTransTasksPostedHelp =
    "Cross-thread tasks enqueued onto event loops";
constexpr std::string_view kTransSyscalls = "md_transport_syscalls_total";
constexpr std::string_view kTransSyscallsHelp =
    "Socket data syscalls issued, by operation";

constexpr std::string_view kSlowSoftOverflows =
    "md_slow_consumer_soft_overflows_total";
constexpr std::string_view kSlowSoftOverflowsHelp =
    "Sessions crossing the soft send-queue watermark";
constexpr std::string_view kSlowDisconnects = "md_slow_consumer_disconnects_total";
constexpr std::string_view kSlowDisconnectsHelp =
    "Sessions evicted by the slow-consumer overflow policy";
constexpr std::string_view kSlowOverSoft = "md_slow_consumer_sessions_over_soft";
constexpr std::string_view kSlowOverSoftHelp =
    "Sessions currently above the soft send-queue watermark";
constexpr std::string_view kSlowQueueDepth = "md_slow_consumer_queue_depth_bytes";
constexpr std::string_view kSlowQueueDepthHelp =
    "Send-queue depth sampled on every send over the soft watermark";

constexpr std::string_view kClusPublished = "md_cluster_published_total";
constexpr std::string_view kClusPublishedHelp =
    "Publications sequenced by this node as topic owner";
constexpr std::string_view kClusForwarded = "md_cluster_forwarded_total";
constexpr std::string_view kClusForwardedHelp =
    "Publications forwarded to the owning node";
constexpr std::string_view kClusDelivered = "md_cluster_delivered_total";
constexpr std::string_view kClusDeliveredHelp =
    "Messages delivered to local subscribers";
constexpr std::string_view kClusRejects = "md_cluster_rejects_total";
constexpr std::string_view kClusRejectsHelp =
    "Publications rejected (fenced or not owner)";
constexpr std::string_view kClusTakeovers = "md_cluster_takeovers_total";
constexpr std::string_view kClusTakeoversHelp =
    "Topic ownership takeovers completed";
constexpr std::string_view kClusFences = "md_cluster_fences_total";
constexpr std::string_view kClusFencesHelp =
    "Transitions into the fenced (quorum-lost) state";
constexpr std::string_view kClusUnfences = "md_cluster_unfences_total";
constexpr std::string_view kClusUnfencesHelp =
    "Transitions out of the fenced state";
constexpr std::string_view kClusBackfilled = "md_cluster_backfilled_total";
constexpr std::string_view kClusBackfilledHelp =
    "Messages recovered from peers on takeover";
constexpr std::string_view kClusHandoffs = "md_cluster_handoffs_total";
constexpr std::string_view kClusHandoffsHelp =
    "Subscriber-partition hand-offs initiated";
constexpr std::string_view kClusHandoffSessions =
    "md_cluster_handoff_sessions_total";
constexpr std::string_view kClusHandoffSessionsHelp =
    "Client sessions migrated through hand-offs";
constexpr std::string_view kClusHandoffAborts = "md_cluster_handoff_aborts_total";
constexpr std::string_view kClusHandoffAbortsHelp =
    "Hand-offs aborted (ack timeout or refused by the new owner)";
constexpr std::string_view kClusQuorumRejects = "md_cluster_quorum_rejects_total";
constexpr std::string_view kClusQuorumRejectsHelp =
    "Publications refused while the member quorum was lost";
constexpr std::string_view kClusFenceRefusals = "md_cluster_fence_refusals_total";
constexpr std::string_view kClusFenceRefusalsHelp =
    "Peer writes refused for carrying a stale fence epoch";
constexpr std::string_view kClusRebalances = "md_cluster_rebalances_total";
constexpr std::string_view kClusRebalancesHelp =
    "Subscriber-partition assignment recomputations applied";
constexpr std::string_view kClusActiveMembers = "md_cluster_active_members";
constexpr std::string_view kClusActiveMembersHelp =
    "Live members in the elastic membership view";
constexpr std::string_view kClusReplPending = "md_cluster_replication_pending";
constexpr std::string_view kClusReplPendingHelp =
    "Publications awaiting replication acks";
constexpr std::string_view kClusReplAck = "md_cluster_replication_ack_ns";
constexpr std::string_view kClusReplAckHelp =
    "Publish-to-replication-quorum latency";
constexpr std::string_view kClusFailoverLast = "md_cluster_failover_last_ns";
constexpr std::string_view kClusFailoverLastHelp =
    "Duration of the most recent fence-to-unfence span";
constexpr std::string_view kClusFailover = "md_cluster_failover_ns";
constexpr std::string_view kClusFailoverHelp =
    "Fence-to-unfence (failover) durations";

constexpr std::string_view kWalAppends = "md_wal_appends_total";
constexpr std::string_view kWalAppendsHelp = "Records appended to the WAL";
constexpr std::string_view kWalAppendBytes = "md_wal_append_bytes_total";
constexpr std::string_view kWalAppendBytesHelp =
    "Framed record bytes appended to the WAL";
constexpr std::string_view kWalFsyncs = "md_wal_fsyncs_total";
constexpr std::string_view kWalFsyncsHelp = "Segment fsync calls issued";
constexpr std::string_view kWalRotations = "md_wal_rotations_total";
constexpr std::string_view kWalRotationsHelp =
    "Segments sealed by size or age rotation";
constexpr std::string_view kWalCorrupt = "md_wal_corrupt_records_skipped_total";
constexpr std::string_view kWalCorruptHelp =
    "Recovery records dropped for CRC mismatch or undecodable payload";
constexpr std::string_view kWalTorn = "md_wal_torn_tails_truncated_total";
constexpr std::string_view kWalTornHelp =
    "Segments truncated at a torn or zero-filled tail during recovery";
constexpr std::string_view kWalRecovered = "md_wal_recovered_records_total";
constexpr std::string_view kWalRecoveredHelp =
    "Intact records replayed into the cache at startup";
constexpr std::string_view kWalEnospc = "md_wal_enospc_errors_total";
constexpr std::string_view kWalEnospcHelp =
    "WAL appends failed for lack of disk space (cache stays authoritative)";
constexpr std::string_view kWalSegments = "md_wal_segments";
constexpr std::string_view kWalSegmentsHelp =
    "Segment files currently on disk (active + sealed)";
constexpr std::string_view kWalRecoveryMs = "md_wal_recovery_last_ms";
constexpr std::string_view kWalRecoveryMsHelp =
    "Wall-clock duration of the most recent WAL recovery scan";

constexpr std::string_view kCoordExpirations =
    "md_coord_session_expirations_total";
constexpr std::string_view kCoordExpirationsHelp =
    "Coordination sessions expired by the leader";
constexpr std::string_view kCoordWatchFires = "md_coord_watch_fires_total";
constexpr std::string_view kCoordWatchFiresHelp = "Watch callbacks fired";
constexpr std::string_view kCoordElections = "md_coord_elections_total";
constexpr std::string_view kCoordElectionsHelp = "Leader elections started";
constexpr std::string_view kCoordWrite = "md_coord_write_ns";
constexpr std::string_view kCoordWriteHelp =
    "Client-visible coordination write latency";

}  // namespace

CoreMetrics::CoreMetrics(MetricsRegistry& r, std::string_view labels)
    : accepted(r.GetCounter(kCoreAccepted, kCoreAcceptedHelp, labels)),
      active(r.GetGauge(kCoreActive, kCoreActiveHelp, labels)),
      frames(r.GetCounter(kCoreFrames, kCoreFramesHelp, labels)),
      published(r.GetCounter(kCorePublished, kCorePublishedHelp, labels)),
      delivered(r.GetCounter(kCoreDelivered, kCoreDeliveredHelp, labels)),
      bytesOut(r.GetCounter(kCoreBytesOut, kCoreBytesOutHelp, labels)),
      protoErrors(
          r.GetCounter(kCoreProtoErrors, kCoreProtoErrorsHelp, labels)),
      bytesPerSession(
          r.GetGauge(kCoreBytesPerSession, kCoreBytesPerSessionHelp, labels)),
      cacheBytes(r.GetGauge(kCoreCacheBytes, kCoreCacheBytesHelp, labels)) {}

TransportMetrics::TransportMetrics(MetricsRegistry& r, std::string_view labels)
    : loopIterations(
          r.GetCounter(kTransLoopIterations, kTransLoopIterationsHelp, labels)),
      bytesRead(r.GetCounter(kTransBytesRead, kTransBytesReadHelp, labels)),
      bytesWritten(
          r.GetCounter(kTransBytesWritten, kTransBytesWrittenHelp, labels)),
      sendQueueBytes(
          r.GetGauge(kTransQueueBytes, kTransQueueBytesHelp, labels)),
      timersFired(r.GetCounter(kTransTimers, kTransTimersHelp, labels)),
      tasksPosted(
          r.GetCounter(kTransTasksPosted, kTransTasksPostedHelp, labels)),
      // The op label distinguishes the two data-path syscalls; the bundle
      // is process-wide (unlabeled otherwise), so the fixed label text is
      // the child key.
      sendmsgCalls(
          r.GetCounter(kTransSyscalls, kTransSyscallsHelp, "op=\"sendmsg\"")),
      recvCalls(r.GetCounter(kTransSyscalls, kTransSyscallsHelp, "op=\"recv\"")) {}

SlowConsumerMetrics::SlowConsumerMetrics(MetricsRegistry& r,
                                         std::string_view labels)
    : softOverflows(
          r.GetCounter(kSlowSoftOverflows, kSlowSoftOverflowsHelp, labels)),
      disconnects(r.GetCounter(kSlowDisconnects, kSlowDisconnectsHelp, labels)),
      sessionsOverSoft(r.GetGauge(kSlowOverSoft, kSlowOverSoftHelp, labels)),
      queueDepthBytes(
          r.GetHistogram(kSlowQueueDepth, kSlowQueueDepthHelp, labels)) {}

ClusterMetrics::ClusterMetrics(MetricsRegistry& r, std::string_view labels)
    : published(r.GetCounter(kClusPublished, kClusPublishedHelp, labels)),
      forwarded(r.GetCounter(kClusForwarded, kClusForwardedHelp, labels)),
      delivered(r.GetCounter(kClusDelivered, kClusDeliveredHelp, labels)),
      rejects(r.GetCounter(kClusRejects, kClusRejectsHelp, labels)),
      takeovers(r.GetCounter(kClusTakeovers, kClusTakeoversHelp, labels)),
      fences(r.GetCounter(kClusFences, kClusFencesHelp, labels)),
      unfences(r.GetCounter(kClusUnfences, kClusUnfencesHelp, labels)),
      backfilled(r.GetCounter(kClusBackfilled, kClusBackfilledHelp, labels)),
      handoffs(r.GetCounter(kClusHandoffs, kClusHandoffsHelp, labels)),
      handoffSessions(
          r.GetCounter(kClusHandoffSessions, kClusHandoffSessionsHelp, labels)),
      handoffAborts(
          r.GetCounter(kClusHandoffAborts, kClusHandoffAbortsHelp, labels)),
      quorumRejects(
          r.GetCounter(kClusQuorumRejects, kClusQuorumRejectsHelp, labels)),
      fenceRefusals(
          r.GetCounter(kClusFenceRefusals, kClusFenceRefusalsHelp, labels)),
      rebalances(r.GetCounter(kClusRebalances, kClusRebalancesHelp, labels)),
      activeMembers(
          r.GetGauge(kClusActiveMembers, kClusActiveMembersHelp, labels)),
      replicationPending(
          r.GetGauge(kClusReplPending, kClusReplPendingHelp, labels)),
      replicationAckNs(r.GetHistogram(kClusReplAck, kClusReplAckHelp, labels)),
      failoverLastNs(
          r.GetGauge(kClusFailoverLast, kClusFailoverLastHelp, labels)),
      failoverNs(r.GetHistogram(kClusFailover, kClusFailoverHelp, labels)) {}

WalMetrics::WalMetrics(MetricsRegistry& r, std::string_view labels)
    : appends(r.GetCounter(kWalAppends, kWalAppendsHelp, labels)),
      appendBytes(r.GetCounter(kWalAppendBytes, kWalAppendBytesHelp, labels)),
      fsyncs(r.GetCounter(kWalFsyncs, kWalFsyncsHelp, labels)),
      rotations(r.GetCounter(kWalRotations, kWalRotationsHelp, labels)),
      corruptSkipped(r.GetCounter(kWalCorrupt, kWalCorruptHelp, labels)),
      tornTruncated(r.GetCounter(kWalTorn, kWalTornHelp, labels)),
      recoveredRecords(r.GetCounter(kWalRecovered, kWalRecoveredHelp, labels)),
      enospcErrors(r.GetCounter(kWalEnospc, kWalEnospcHelp, labels)),
      segments(r.GetGauge(kWalSegments, kWalSegmentsHelp, labels)),
      recoveryLastMs(r.GetGauge(kWalRecoveryMs, kWalRecoveryMsHelp, labels)) {}

CoordMetrics::CoordMetrics(MetricsRegistry& r, std::string_view labels)
    : sessionExpirations(
          r.GetCounter(kCoordExpirations, kCoordExpirationsHelp, labels)),
      watchFires(r.GetCounter(kCoordWatchFires, kCoordWatchFiresHelp, labels)),
      elections(r.GetCounter(kCoordElections, kCoordElectionsHelp, labels)),
      writeNs(r.GetHistogram(kCoordWrite, kCoordWriteHelp, labels)) {}

void RegisterStandardFamilies(MetricsRegistry& registry) {
  CoreMetrics core(registry);
  TransportMetrics transport(registry);
  SlowConsumerMetrics slowConsumer(registry);
  ClusterMetrics cluster(registry);
  WalMetrics wal(registry);
  CoordMetrics coord(registry);
  registry.GetHistogram("md_trace_stage_ns",
                        "Latency between consecutive pipeline stages");
  registry.GetHistogram(
      "md_trace_end_to_end_ns",
      "Publish-received to terminal-stage latency per publication");
}

std::string ServerLabel(std::string_view serverName) {
  return "server=\"" + std::string(serverName) + "\"";
}

std::string NodeLabel(std::string_view nodeId) {
  return "node=\"" + std::string(nodeId) + "\"";
}

}  // namespace md::obs
