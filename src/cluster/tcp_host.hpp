// Real-network cluster host: runs one MigratoryData ClusterNode and its
// co-located MiniZK CoordNode over epoll TCP.
//
// The same deterministic state machines exercised by the simulation harness
// are wired here to real sockets:
//   - a client listener behind the shared client front door
//     (core/front_door.hpp): raw framing, WebSocket, HTTP streaming and
//     GET /metrics, exactly as on a single-node core::Server,
//   - a peer listener carrying md::Frame cluster traffic (HELLO-identified),
//   - a coord listener carrying MiniZK messages (coord/codec.hpp), preceded
//     by a varint node-id preamble.
//
// Everything — node logic, timers, connection management — runs on a single
// event-loop thread (the nodes are single-strand state machines); Start()
// spawns that thread and Stop() joins it. Outgoing peer/coord connections
// are (re)established on demand with a retry timer; when a peer link comes
// back, the host triggers the paper's incremental cache sync (§5.2.2).
//
// Egress follows core::Server's discipline (DESIGN.md §14): every frame —
// client, peer or coord — is encoded once into a pooled wire buffer and
// queued by reference; the loop's flush pass writes everything queued on a
// connection with one sendmsg before it polls again.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "cluster/node.hpp"
#include "coord/codec.hpp"
#include "coord/node.hpp"
#include "core/front_door.hpp"
#include "proto/codec.hpp"
#include "transport/epoll_loop.hpp"
#include "verify/monitor.hpp"

namespace md::cluster {

struct TcpPeerAddress {
  std::string serverId;
  coord::NodeId nodeId = 0;
  std::string host = "127.0.0.1";
  std::uint16_t peerPort = 0;
  std::uint16_t coordPort = 0;
};

struct TcpHostConfig {
  std::string serverId;
  coord::NodeId nodeId = 1;       // 1-based, unique in the cluster
  std::uint16_t clientPort = 0;   // 0 = ephemeral
  std::uint16_t peerPort = 0;
  std::uint16_t coordPort = 0;
  std::vector<TcpPeerAddress> peers;  // the other cluster members
  ClusterConfig cluster;              // serverId is overwritten
  coord::CoordConfig coord;
  std::uint64_t seed = 1;
  /// Slow-consumer watermarks for client connections. Peer/coord links keep the
  /// transport defaults (effectively unbounded): dropping replication traffic
  /// to a peer would violate the cluster's delivery guarantees — peers are
  /// governed by the backlog cap + cache sync instead.
  core::BackpressureConfig clientBackpressure;
  /// Embed a verify::Monitor observing the loop-thread client deliveries and
  /// send-queue depths (DESIGN.md §11); exports through the cluster registry.
  bool runtimeVerify = false;
  verify::MonitorConfig verifyConfig;
};

class TcpClusterHost {
 public:
  explicit TcpClusterHost(TcpHostConfig cfg);
  ~TcpClusterHost();

  TcpClusterHost(const TcpClusterHost&) = delete;
  TcpClusterHost& operator=(const TcpClusterHost&) = delete;

  /// Binds the three listeners and starts the loop thread + both nodes.
  Status Start();
  void Stop();

  [[nodiscard]] std::uint16_t ClientPort() const noexcept { return clientPort_; }
  [[nodiscard]] std::uint16_t PeerPort() const noexcept { return peerPort_; }
  [[nodiscard]] std::uint16_t CoordPort() const noexcept { return coordPort_; }
  [[nodiscard]] const std::string& serverId() const noexcept {
    return cfg_.serverId;
  }

  /// Runs `fn(node)` on the loop thread and waits for it (introspection).
  void WithNode(const std::function<void(ClusterNode&)>& fn);
  void WithCoord(const std::function<void(coord::CoordNode&)>& fn);

 private:
  /// Peer or coord link: the established connection (either direction) and
  /// the frames queued while it is down (bounded).
  struct Link {
    ConnectionPtr conn;
    bool connecting = false;
    std::deque<WireBuffer> backlog;
  };

  class NodeEnv;
  class CoordEnv;

  // All private methods run on the loop thread.
  /// Routes `conn`'s frames to the node as peer `from`'s; an empty `from`
  /// (an accepted link) is named by the link's HELLO.
  void ReadPeerFrames(const ConnectionPtr& conn, std::string from);
  void OnCoordAccept(ConnectionPtr conn);
  void AdoptPeerConnection(const std::string& serverId, ConnectionPtr conn);
  void EnsurePeerLink(const std::string& serverId);
  void EnsureCoordLink(coord::NodeId nodeId);
  void SendPeerFrame(const std::string& serverId, const Frame& frame);
  void SendCoordMsg(coord::NodeId to, const coord::CoordMsg& msg);
  /// Queues `wire` on the link's connection, or parks it in the backlog
  /// while the link is down. Returns false when parked.
  static bool SendOnLink(Link& link, WireBuffer wire);
  /// Queues the backlog on the link's (new) connection, in order.
  static void FlushBacklog(Link& link);
  void RetryLinks();
  [[nodiscard]] const TcpPeerAddress* PeerById(const std::string& serverId) const;
  [[nodiscard]] const TcpPeerAddress* PeerByNode(coord::NodeId nodeId) const;

  TcpHostConfig cfg_;
  obs::TransportMetrics tm_;  // must outlive loop_
  std::unique_ptr<verify::Monitor> monitor_;
  std::unique_ptr<EpollLoop> loop_;
  std::thread thread_;
  std::atomic<bool> running_{false};

  std::unique_ptr<NodeEnv> nodeEnv_;
  std::unique_ptr<CoordEnv> coordEnv_;
  std::unique_ptr<coord::CoordNode> coordNode_;
  std::unique_ptr<ClusterNode> node_;
  core::ClientFrontDoor door_;  // its sessions must go before loop_

  ListenerPtr clientListener_;
  ListenerPtr peerListener_;
  ListenerPtr coordListener_;
  std::uint16_t clientPort_ = 0;
  std::uint16_t peerPort_ = 0;
  std::uint16_t coordPort_ = 0;

  std::map<std::string, Link> peerLinks_;
  std::map<coord::NodeId, Link> coordLinks_;
};

}  // namespace md::cluster
