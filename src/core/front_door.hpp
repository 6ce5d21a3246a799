// Client front door (DESIGN.md §16): everything between a client socket and
// the engine, one copy for core::Server, cluster::TcpClusterHost and
// cluster::SimCluster. It owns the Session records and the handle table;
// sniffs the transport from the first bytes (raw framing, WebSocket upgrade,
// HTTP chunked stream, plain-HTTP `GET /metrics` and the gated `/inject`);
// runs the handshakes and WebSocket ping/pong/close; decodes frames under one
// size cap; and writes each session's frames, encoded in its flavour, through
// its batcher and the slow-consumer policy. A host plugs in one Sink: "frame
// parsed" and "client closed".
//
// Threading: a session's reads, writes, closes and timers all run on the
// loop that accepted it. Only the handle table is shared with other threads
// (core::Server's Workers resolve fan-out targets through Find).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/backpressure.hpp"
#include "core/batcher.hpp"
#include "core/session.hpp"
#include "obs/families.hpp"
#include "proto/codec.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"
#include "verify/monitor.hpp"

namespace md::core {

/// Largest client frame any host accepts: a raw frame's body, a WebSocket
/// message or an HTTP chunk. A client that announces a larger one is closed
/// as a protocol error. Peer and coordination links keep their own limit.
inline constexpr std::size_t kMaxClientFrame = 1 * 1024 * 1024;

/// Appends `frame` encoded in the flavour of a session in `mode`: a binary
/// WebSocket message, an HTTP chunk, or a raw length-prefixed frame.
/// Every encoder writes the frame body straight into `out` and then frames
/// it in place (DESIGN.md §14): no scratch buffer, no copy of the body.
void EncodeForMode(const Frame& frame, Session::Mode mode, Bytes& out);
/// EncodeForMode of DeliverFrame{msg}, encoded from the message in hand.
void EncodeDeliverForMode(const Message& msg, Session::Mode mode, Bytes& out);
/// The slow-consumer close notice in the session's flavour: a WebSocket
/// Close 1013, or a DisconnectFrame carrying kSlowConsumerReason.
[[nodiscard]] WireBuffer EvictionNotice(const Session& client);

class ClientFrontDoor {
 public:
  /// Where parsed client traffic goes. Both calls run on the session's loop.
  struct Sink {
    /// One decoded client verb (CONNECT, SUBSCRIBE, UNSUBSCRIBE, PUBLISH,
    /// PING, DISCONNECT), in arrival order; any other frame closes the
    /// session as a protocol error before it gets here. A non-ok status
    /// closes the session at once and counts as a protocol error.
    std::function<Status(const SessionPtr& session, Frame&& frame)> onFrame;
    /// The connection closed. Runs once per session, after its handle left
    /// the table, whoever closed it.
    std::function<void(const SessionPtr& session)> onClosed;
  };

  struct Options {
    /// Labels of the md_core_* and md_slow_consumer_* series it feeds.
    std::string labels;
    BackpressureConfig backpressure;
    /// Set: every session coalesces its writes in a Batcher.
    std::optional<BatchConfig> batch;
    /// Receives over-soft queue depths, /metrics snapshots and every DELIVER
    /// sent through Send(handle, frame) or Deliver. Nullable; must outlive
    /// the door.
    verify::Monitor* monitor = nullptr;
    /// Answer `GET /inject?kind=...` (needs a monitor; debug only).
    bool injectEndpoint = false;
  };

  /// `metrics` must outlive the front door; it is also what /metrics renders.
  ClientFrontDoor(obs::MetricsRegistry& metrics, Options options, Sink sink);

  ClientFrontDoor(const ClientFrontDoor&) = delete;
  ClientFrontDoor& operator=(const ClientFrontDoor&) = delete;

  /// Admits a connection accepted on `loop`, which runs the session's
  /// handlers and timers for its whole life. `ioIndex` is the host's name
  /// for that loop (Session::ioIndex).
  void Accept(EventLoop& loop, std::size_t ioIndex, ConnectionPtr conn);

  /// Thread-safe handle lookup; nullptr once the session closed.
  [[nodiscard]] SessionPtr Find(ClientHandle handle) const {
    return sessions_.Find(handle);
  }

  // --- the session's loop only --------------------------------------------

  /// Queues `wire` for the session: into its batcher when it has one,
  /// otherwise straight to the slow-consumer policy.
  void WriteOut(const SessionPtr& session, WireBuffer wire);
  /// Closes at once; whatever is still queued is discarded. For protocol
  /// errors and shutdown.
  void Close(Session& session);
  /// Writes what is queued (the batcher's pending bytes included), then
  /// closes; nothing queued after this call goes out. For closes the client
  /// must see the end of: DISCONNECT, fencing, hand-off redirects.
  void CloseAfterFlush(const SessionPtr& session);

  // --- handle-addressed frame API for single-loop hosts (cluster members) --

  /// Encodes `frame` in the client's flavour and writes it.
  void Send(ClientHandle client, const Frame& frame);
  /// Fan-out of a DELIVER of `msg`: encodes once per flavour present and
  /// shares the bytes.
  void Deliver(const std::vector<ClientHandle>& clients, const Message& msg);
  void CloseAfterFlush(ClientHandle client);

  // --- host lifecycle ------------------------------------------------------

  /// Closes every session at once, in handle order (a crashed or stopping
  /// host). Their close handlers still report each to the sink.
  void CloseAll();
  /// Forgets every session. Call once the loops no longer run them, before
  /// the loops are destroyed.
  void Clear() { sessions_.Clear(); }
  /// Largest send-queue depth among the open sessions.
  [[nodiscard]] std::size_t MaxPendingBytes() const;
  /// Recomputes md_core_bytes_per_session (slab + tables / active sessions).
  void RefreshBytesPerSession() const;

 private:
  void OnClosed(const SessionPtr& session);
  /// Runs the handshake, then hands every complete frame to the sink.
  void ParseFrames(const SessionPtr& session);
  /// The next frame of a session past its handshake, in its flavour. Answers
  /// WebSocket pings on the way; a WS close or the HTTP end of stream closes
  /// the session and yields no frame.
  FrameExtractResult NextFrame(Session& session);
  /// Closes the session as a protocol error.
  void Fail(Session& session, const Status& status);
  /// Answers a plain-HTTP `GET /metrics` with the Prometheus text
  /// exposition, then closes (scrapes are one-shot, not upgraded sessions).
  void ServeMetrics(const SessionPtr& session);
  /// `GET /inject?kind=...`: arms a one-shot observation fault on the monitor.
  void ServeInject(const SessionPtr& session, std::string_view path);
  /// Writes a one-shot HTTP response, then closes after it.
  void Respond(const SessionPtr& session, std::string_view status,
               std::string_view contentType, std::string_view body);
  /// Hands `wire` to the slow-consumer policy and counts the bytes it took.
  void Send(Session& session, WireBuffer wire);
  void FlushBatch(const SessionPtr& session);
  /// Feeds a DELIVER sent through the frame API to the monitor.
  void Observe(ClientHandle client, const Frame& frame);

  obs::MetricsRegistry& metrics_;
  Options opts_;
  Sink sink_;
  obs::CoreMetrics m_;
  SlowConsumerPolicy slow_;
  std::atomic<ClientHandle> nextHandle_{1};
  SessionTable sessions_;
};

}  // namespace md::core
