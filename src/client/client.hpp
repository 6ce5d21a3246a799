// MigratoryData client library (paper §3, §5.2.3).
//
// A Client runs single-threaded on an EventLoop (epoll in production,
// in-process/simulated in tests) and provides:
//   - connection establishment over the raw framed protocol or WebSocket,
//   - client-side load balancing: the connection point is picked at
//     (weighted) random from a hard-coded server list,
//   - subscriber recovery: on reconnect it re-subscribes with the (epoch,
//     seq) of the last received message per topic and receives everything
//     missed, in order,
//   - duplicate filtering: per-topic position tracking plus a bounded
//     recent-publication-id buffer (at-least-once may re-sequence a
//     republished message, which position tracking alone cannot catch),
//   - at-least-once publishing: a publication is retried (same publication
//     id) until the service acknowledges it,
//   - failure handling: failed servers are blacklisted temporarily and
//     reconnection uses either a random wait or truncated exponential
//     backoff to avoid the herd effect.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "proto/codec.hpp"
#include "proto/websocket.hpp"
#include "transport/transport.hpp"

namespace md::client {

struct ServerAddress {
  std::string host;
  std::uint16_t port = 0;
  double weight = 1.0;  // heterogeneous deployments bias selection (paper §5.1)
  /// Cluster server id at this address (optional). When set, a HANDOFF
  /// redirect can be honored directly: the client reconnects to the named
  /// new owner instead of a random pick.
  std::string id;
};

/// Wire transport used toward the service (paper §3: "over WebSockets (or
/// HTTP)"; the raw framed protocol is what native SDKs would use).
enum class Transport : std::uint8_t {
  kRawFraming,
  kWebSocket,
  kHttpStream,
};

enum class ReconnectPolicy : std::uint8_t {
  kRandomWait,          // uniform random delay in [0, randomWaitMax)
  kExponentialBackoff,  // truncated exponential with jitter
};

struct ClientConfig {
  std::vector<ServerAddress> servers;
  std::string clientId = "client";
  Transport transport = Transport::kRawFraming;
  bool autoReconnect = true;
  ReconnectPolicy reconnectPolicy = ReconnectPolicy::kExponentialBackoff;
  Duration backoffBase = 100 * kMillisecond;
  Duration backoffMax = 5 * kSecond;
  Duration randomWaitMax = 1 * kSecond;
  Duration blacklistTtl = 30 * kSecond;  // failed servers retried after this
  Duration ackTimeout = 2 * kSecond;     // republish unacked publications
  /// Connection-liveness monitoring (paper §6.2: failover detection time
  /// depends on "the frequency of monitoring of the connection"). 0 = off.
  Duration pingInterval = 0;
  Duration pongTimeout = 2 * kSecond;
  std::size_t dedupBufferSize = 1024;
  std::uint64_t seed = 1;
};

struct ClientStats {
  std::uint64_t messagesReceived = 0;
  std::uint64_t duplicatesFiltered = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t republishes = 0;
  std::uint64_t recoveredMessages = 0;  // deliveries that filled a gap on resume
  std::uint64_t handoffs = 0;           // HANDOFF redirects followed
  std::uint64_t quorumRejects = 0;      // retryable no-quorum publish acks
};

class Client {
 public:
  using MessageHandler = std::function<void(const Message&)>;
  using AckHandler = std::function<void(Status)>;
  using ConnectionListener = std::function<void(bool connected)>;

  Client(EventLoop& loop, ClientConfig cfg);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Begins connecting. All callbacks fire on the loop thread.
  void Start();
  /// Closes the connection at once. Frames are written by the loop's flush
  /// pass, after the current task: anything sent earlier in the same task
  /// (a PublishNoAck, say) is discarded with the connection.
  void Stop();

  /// Subscribes to `topic`; `handler` receives its messages in order.
  /// Safe before Start(); subscriptions persist across reconnects.
  /// `onSubscribed` (optional) fires each time the server confirms the
  /// subscription — including after reconnections.
  void Subscribe(const std::string& topic, MessageHandler handler,
                 std::function<void()> onSubscribed = {});

  /// Stops receiving `topic` and forgets its resume state.
  void Unsubscribe(const std::string& topic);

  /// Publishes with at-least-once semantics: retried (same publication id)
  /// until acknowledged. `onAck` fires once with the final status.
  void Publish(const std::string& topic, Bytes payload, AckHandler onAck = {});

  /// Fire-and-forget publish (at-most-once, QoS 0).
  void PublishNoAck(const std::string& topic, Bytes payload);

  void SetConnectionListener(ConnectionListener listener) {
    connectionListener_ = std::move(listener);
  }

  /// Observation tap for verification harnesses (chaos tests): fires for
  /// every DELIVER frame of a subscribed topic, with `duplicate` telling
  /// whether the client-side filter suppressed it. Calls with
  /// `duplicate == false` are exactly the application-visible stream, in
  /// delivery order. No protocol effect.
  using DeliveryObserver = std::function<void(const Message&, bool duplicate)>;
  void SetDeliveryObserver(DeliveryObserver observer) {
    deliveryObserver_ = std::move(observer);
  }

  /// Fires when the server hands this session off to a new partition owner
  /// (before the directed reconnect). Verification harnesses use it to mark
  /// the ownership boundary on each subscribed stream.
  using HandoffListener = std::function<void(const HandoffFrame&)>;
  void SetHandoffListener(HandoffListener listener) {
    handoffListener_ = std::move(listener);
  }

  /// Fault injection for chaos/backpressure tests: while paused the client's
  /// connection stops consuming inbound bytes (a stalled TCP reader), so the
  /// server's send queue toward this client backs up. Persists across
  /// reconnects until unpaused. Loop thread only.
  void PauseReads(bool paused) {
    readPaused_ = paused;
    if (conn_) conn_->SetReadPaused(paused);
  }

  /// The reconnect delay the library would pick for the given attempt
  /// number (1-based) — exposed so benchmarks/operators can study the herd
  /// behaviour of a policy with the exact production formula.
  static Duration ComputeReconnectDelay(const ClientConfig& cfg, int attempt,
                                        Rng& rng);

  [[nodiscard]] bool IsConnected() const noexcept { return state_ == State::kEstablished; }
  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::optional<std::size_t> CurrentServerIndex() const noexcept {
    return currentServer_;
  }
  [[nodiscard]] std::string ConnectedServerId() const { return serverId_; }

 private:
  enum class State : std::uint8_t {
    kIdle,
    kConnecting,
    kWsHandshake,
    kHttpHandshake,
    kEstablished,
    kStopped,
  };

  struct PendingPublish {
    std::string topic;
    Bytes payload;
    PublicationId pubId;
    std::int64_t publishTs = 0;
    AckHandler onAck;
    std::uint64_t retryTimer = 0;
  };

  struct TopicState {
    MessageHandler handler;
    std::function<void()> onSubscribed;
    std::optional<StreamPos> lastPos;  // newest received (for resume + dedup)
  };

  void ConnectToSomeServer();
  std::optional<std::size_t> PickServer();
  void OnConnected(ConnectionPtr conn);
  void OnConnectionLost();
  void ScheduleReconnect();
  void OnData(BytesView data);
  void HandleFrame(const Frame& frame);
  void OnEstablished();
  void SendFrame(const Frame& frame);
  void SendSubscribe(const std::string& topic, const TopicState& ts);
  void SendPublish(const PendingPublish& pending);
  void ArmAckTimer(PendingPublish& pending);
  void HandleDeliver(const Message& msg);
  void SchedulePing();
  [[nodiscard]] bool IsDuplicate(const Message& msg, TopicState& ts);
  void RememberPubId(const PublicationId& id);

  EventLoop& loop_;
  ClientConfig cfg_;
  Rng rng_;

  // Written only on the loop thread; atomic because IsConnected() is a
  // documented cross-thread poll for test/bench harnesses.
  std::atomic<State> state_{State::kIdle};
  bool readPaused_ = false;
  ConnectionPtr conn_;
  ByteQueue in_;
  std::string wsKey_;
  std::string serverId_;
  std::optional<std::size_t> currentServer_;
  int reconnectAttempts_ = 0;
  // Liveness monitoring. `connGen_` guards timers across reconnections.
  std::uint64_t connGen_ = 0;
  std::uint64_t pingNonce_ = 0;
  bool awaitingPong_ = false;
  std::map<std::size_t, TimePoint> blacklist_;  // server index -> expiry
  // One-shot directed reconnect target set by a HANDOFF redirect.
  std::string handoffTargetId_;

  std::map<std::string, TopicState> topics_;
  std::uint64_t pubCounter_ = 0;
  std::uint64_t clientHash_ = 0;
  std::map<std::uint64_t, PendingPublish> pendingPublishes_;  // by pubId.counter

  // Recent publication ids for duplicate filtering (insertion-ordered ring).
  std::set<PublicationId> recentIds_;
  std::deque<PublicationId> recentIdOrder_;

  ClientStats stats_;
  ConnectionListener connectionListener_;
  DeliveryObserver deliveryObserver_;
  HandoffListener handoffListener_;
};

}  // namespace md::client
