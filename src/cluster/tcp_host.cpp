#include "cluster/tcp_host.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace md::cluster {

namespace {

constexpr std::size_t kMaxBacklogFrames = 4096;

obs::MetricsRegistry& RegistryOf(const TcpHostConfig& cfg) {
  return cfg.cluster.metrics != nullptr ? *cfg.cluster.metrics
                                        : obs::MetricsRegistry::Default();
}

WireBuffer EncodeWire(const Frame& frame) {
  auto wire = AcquireWireBuffer();
  EncodeFramed(frame, *wire);
  return wire;
}

std::unique_ptr<verify::Monitor> MakeMonitor(TcpHostConfig& cfg) {
  if (!cfg.runtimeVerify) return nullptr;
  if (cfg.verifyConfig.scope.empty()) cfg.verifyConfig.scope = cfg.serverId;
  return std::make_unique<verify::Monitor>(RegistryOf(cfg), cfg.verifyConfig);
}

}  // namespace

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

class TcpClusterHost::NodeEnv final : public ClusterEnv {
 public:
  NodeEnv(TcpClusterHost& host, std::uint64_t seed) : host_(host), rng_(seed) {}

  void SendToPeer(const std::string& serverId, const Frame& frame) override {
    host_.SendPeerFrame(serverId, frame);
  }

  void SendToClient(ClientHandle client, const Frame& frame) override {
    const auto it = host_.clients_.find(client);
    if (it == host_.clients_.end()) return;
    Observe(client, frame);
    (void)host_.slow_.Send(*it->second, EncodeWire(frame));
  }

  void SendToClients(const std::vector<ClientHandle>& clients,
                     const Frame& frame) override {
    // Fan-out: one encode shared across every target's send queue — N
    // subscribers cost zero per-subscriber copies. Each write still goes
    // through the watermark-checked path, so one stalled subscriber in the
    // batch cannot buffer the host to death.
    WireBuffer wire;
    for (const ClientHandle client : clients) {
      const auto it = host_.clients_.find(client);
      if (it == host_.clients_.end()) continue;
      Observe(client, frame);
      if (!wire) wire = EncodeWire(frame);
      (void)host_.slow_.Send(*it->second, wire);
    }
  }

  void CloseClient(ClientHandle client) override {
    auto node = host_.clients_.extract(client);
    if (node.empty()) return;
    ClientConn& closing = *node.mapped();
    closing.detached = true;
    // Egress is deferred to the flush pass, so a plain Close() would discard
    // what the node just queued: the backlog, then the DisconnectFrame or
    // HandoffFrame that tells the client where to go. Flush it, then EOF.
    closing.conn->CloseAfterFlush();
  }

  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return host_.loop_->ScheduleTimer(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { host_.loop_->CancelTimer(timerId); }
  [[nodiscard]] TimePoint Now() const override { return host_.loop_->Now(); }
  std::uint64_t Random() override { return rng_.Next(); }

 private:
  // Runtime verification tap: every DELIVER the node emits toward a client
  // passes through here, on the loop thread, in emission order.
  void Observe(ClientHandle client, const Frame& frame) {
    verify::Monitor* monitor = host_.monitor_.get();
    if (monitor == nullptr) return;
    if (const auto* deliver = std::get_if<DeliverFrame>(&frame)) {
      monitor->OnDelivery(client, deliver->msg.topic, PosOf(deliver->msg),
                          deliver->msg.pubId);
    }
  }

  TcpClusterHost& host_;
  Rng rng_;
};

class TcpClusterHost::CoordEnv final : public coord::Env {
 public:
  CoordEnv(TcpClusterHost& host, std::uint64_t seed) : host_(host), rng_(seed) {}

  void Send(coord::NodeId to, const coord::CoordMsg& msg) override {
    host_.SendCoordMsg(to, msg);
  }
  std::uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    return host_.loop_->ScheduleTimer(delay, std::move(fn));
  }
  void Cancel(std::uint64_t timerId) override { host_.loop_->CancelTimer(timerId); }
  [[nodiscard]] TimePoint Now() const override { return host_.loop_->Now(); }
  std::uint64_t Random() override { return rng_.Next(); }

 private:
  TcpClusterHost& host_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TcpClusterHost::TcpClusterHost(TcpHostConfig cfg)
    : cfg_(std::move(cfg)),
      tm_(RegistryOf(cfg_)),
      monitor_(MakeMonitor(cfg_)),
      slow_(cfg_.clientBackpressure, RegistryOf(cfg_),
            obs::ServerLabel(cfg_.serverId), monitor_.get(),
            core::FramedEvictionNotice) {
  loop_ = CreateNetLoop(cfg_.eventLoop);
  loop_->SetMetrics(&tm_);
  nodeEnv_ = std::make_unique<NodeEnv>(*this, cfg_.seed);
  coordEnv_ = std::make_unique<CoordEnv>(*this, cfg_.seed + 1);

  std::vector<coord::NodeId> members{cfg_.nodeId};
  std::vector<std::string> peerIds;
  for (const auto& peer : cfg_.peers) {
    members.push_back(peer.nodeId);
    peerIds.push_back(peer.serverId);
  }
  std::sort(members.begin(), members.end());

  coordNode_ = std::make_unique<coord::CoordNode>(cfg_.nodeId, members,
                                                  *coordEnv_, cfg_.coord);
  ClusterConfig clusterCfg = cfg_.cluster;
  clusterCfg.serverId = cfg_.serverId;
  node_ = std::make_unique<ClusterNode>(clusterCfg, *nodeEnv_, *coordNode_,
                                        peerIds);
}

TcpClusterHost::~TcpClusterHost() { Stop(); }

Status TcpClusterHost::Start() {
  if (running_.exchange(true)) return Err(ErrorCode::kAlreadyExists, "running");

  auto bind = [&](std::uint16_t port, ListenerPtr& out,
                  std::uint16_t& actual) -> Status {
    auto listener = loop_->Listen(port);
    if (!listener.ok()) return listener.status();
    out = std::move(*listener);
    actual = out->Port();
    return OkStatus();
  };
  if (Status s = bind(cfg_.clientPort, clientListener_, clientPort_); !s.ok()) return s;
  if (Status s = bind(cfg_.peerPort, peerListener_, peerPort_); !s.ok()) return s;
  if (Status s = bind(cfg_.coordPort, coordListener_, coordPort_); !s.ok()) return s;

  clientListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnClientAccept(std::move(conn)); });
  peerListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnPeerAccept(std::move(conn)); });
  coordListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { OnCoordAccept(std::move(conn)); });

  thread_ = std::thread([this] { loop_->Run(); });
  loop_->Post([this] {
    coordNode_->Start();
    node_->Start();
    RetryLinks();
  });
  MD_INFO("%s: cluster host up (client %u, peer %u, coord %u)",
          cfg_.serverId.c_str(), clientPort_, peerPort_, coordPort_);
  return OkStatus();
}

void TcpClusterHost::Stop() {
  if (!running_.exchange(false)) return;
  loop_->Post([this] {
    node_->Crash();
    coordNode_->Crash();
    for (auto& [handle, client] : clients_) client->conn->Close();
    clients_.clear();
    for (auto& [id, link] : peerLinks_) {
      if (link.conn) link.conn->Close();
    }
    peerLinks_.clear();
    for (auto& [id, link] : coordLinks_) {
      if (link.conn) link.conn->Close();
    }
    coordLinks_.clear();
    clientListener_.reset();
    peerListener_.reset();
    coordListener_.reset();
  });
  loop_->Stop();
  if (thread_.joinable()) thread_.join();
}

void TcpClusterHost::WithNode(const std::function<void(ClusterNode&)>& fn) {
  std::atomic<bool> done{false};
  loop_->Post([&] {
    fn(*node_);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
}

void TcpClusterHost::WithCoord(const std::function<void(coord::CoordNode&)>& fn) {
  std::atomic<bool> done{false};
  loop_->Post([&] {
    fn(*coordNode_);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

void TcpClusterHost::OnClientAccept(ConnectionPtr conn) {
  const ClientHandle handle = nextHandle_++;
  auto client = std::make_shared<ClientConn>();
  client->handle = handle;
  client->conn = conn;
  client->loop = loop_.get();
  clients_[handle] = client;
  slow_.Attach(*client);

  conn->SetDataHandler([this, handle, client](BytesView data) {
    client->in.Append(data);
    while (!client->detached) {
      auto r = ExtractFrame(client->in);
      if (!r.status.ok()) {
        client->conn->Close();
        clients_.erase(handle);
        node_->OnClientDisconnect(handle);
        return;
      }
      if (!r.frame) return;
      node_->OnClientFrame(handle, *r.frame);
    }
  });
  conn->SetCloseHandler([this, handle, client] {
    slow_.LeaveOverSoft(*client);
    clients_.erase(handle);
    node_->OnClientDisconnect(handle);
  });
}

// ---------------------------------------------------------------------------
// Peer (cluster-frame) links
// ---------------------------------------------------------------------------

const TcpPeerAddress* TcpClusterHost::PeerById(const std::string& serverId) const {
  for (const auto& peer : cfg_.peers) {
    if (peer.serverId == serverId) return &peer;
  }
  return nullptr;
}

const TcpPeerAddress* TcpClusterHost::PeerByNode(coord::NodeId nodeId) const {
  for (const auto& peer : cfg_.peers) {
    if (peer.nodeId == nodeId) return &peer;
  }
  return nullptr;
}

void TcpClusterHost::OnPeerAccept(ConnectionPtr conn) {
  // Identity arrives with the first frame (HELLO); every later frame on
  // this connection comes from the member it named.
  auto inbox = std::make_shared<ByteQueue>();
  auto from = std::make_shared<std::string>();
  conn->SetDataHandler([this, conn, inbox, from](BytesView data) {
    inbox->Append(data);
    while (true) {
      auto r = ExtractFrame(*inbox);
      if (!r.status.ok()) {
        conn->Close();
        return;
      }
      if (!r.frame) return;
      if (from->empty()) {
        const auto* hello = std::get_if<HelloFrame>(&*r.frame);
        if (hello == nullptr || hello->serverId.empty()) {
          conn->Close();
          return;
        }
        *from = hello->serverId;
        AdoptPeerConnection(*from, conn);
        continue;
      }
      node_->OnPeerFrame(*from, *r.frame);
    }
  });
}

void TcpClusterHost::AdoptPeerConnection(const std::string& serverId,
                                         ConnectionPtr conn) {
  Link& link = peerLinks_[serverId];
  if (link.conn && link.conn != conn) link.conn->Close();
  link.conn = conn;
  link.connecting = false;
  conn->SetCloseHandler([this, serverId] {
    auto it = peerLinks_.find(serverId);
    if (it != peerLinks_.end()) it->second.conn.reset();
  });
  FlushBacklog(link);
  // Link recovery: incremental cache sync against this peer (§5.2.2).
  node_->SyncFromPeer(serverId);
}

void TcpClusterHost::EnsurePeerLink(const std::string& serverId) {
  Link& link = peerLinks_[serverId];
  if (link.conn || link.connecting) return;
  const TcpPeerAddress* peer = PeerById(serverId);
  if (peer == nullptr || peer->peerPort == 0) return;
  link.connecting = true;
  loop_->Connect(peer->host, peer->peerPort, [this, serverId](Result<ConnectionPtr> r) {
    Link& link = peerLinks_[serverId];
    link.connecting = false;
    if (!r.ok()) return;  // retry timer will try again
    ConnectionPtr conn = std::move(r).value();
    // Identify ourselves, then adopt.
    (void)conn->Send(EncodeWire(HelloFrame{cfg_.serverId}));
    // Incoming frames on an outgoing connection are peer frames directly.
    auto inbox = std::make_shared<ByteQueue>();
    conn->SetDataHandler([this, serverId, conn, inbox](BytesView data) {
      inbox->Append(data);
      while (true) {
        auto fr = ExtractFrame(*inbox);
        if (!fr.status.ok()) {
          conn->Close();
          return;
        }
        if (!fr.frame) return;
        node_->OnPeerFrame(serverId, *fr.frame);
      }
    });
    AdoptPeerConnection(serverId, conn);
  });
}

void TcpClusterHost::SendPeerFrame(const std::string& serverId, const Frame& frame) {
  if (!SendOnLink(peerLinks_[serverId], EncodeWire(frame))) EnsurePeerLink(serverId);
}

bool TcpClusterHost::SendOnLink(Link& link, WireBuffer wire) {
  if (link.conn && link.conn->IsOpen()) {
    (void)link.conn->Send(std::move(wire));
    return true;
  }
  if (link.backlog.size() < kMaxBacklogFrames) link.backlog.push_back(std::move(wire));
  return false;
}

void TcpClusterHost::FlushBacklog(Link& link) {
  for (WireBuffer& wire : link.backlog) (void)link.conn->Send(std::move(wire));
  link.backlog.clear();
}

// ---------------------------------------------------------------------------
// Coordination links
// ---------------------------------------------------------------------------

void TcpClusterHost::OnCoordAccept(ConnectionPtr conn) {
  auto inbox = std::make_shared<ByteQueue>();
  auto fromNode = std::make_shared<coord::NodeId>(0);
  conn->SetDataHandler([this, conn, inbox, fromNode](BytesView data) {
    inbox->Append(data);
    if (*fromNode == 0) {
      // Varint node-id preamble.
      ByteReader r(inbox->Peek());
      std::uint64_t id = 0;
      if (!r.ReadVarint(id).ok()) return;  // need more bytes
      inbox->Consume(r.position());
      *fromNode = static_cast<coord::NodeId>(id);
    }
    while (true) {
      auto r = coord::ExtractCoordMsg(*inbox);
      if (!r.status.ok()) {
        conn->Close();
        return;
      }
      if (!r.msg) return;
      coordNode_->HandleMessage(*fromNode, *r.msg);
    }
  });
}

void TcpClusterHost::EnsureCoordLink(coord::NodeId nodeId) {
  Link& link = coordLinks_[nodeId];
  if (link.conn || link.connecting) return;
  const TcpPeerAddress* peer = PeerByNode(nodeId);
  if (peer == nullptr || peer->coordPort == 0) return;
  link.connecting = true;
  loop_->Connect(peer->host, peer->coordPort, [this, nodeId](Result<ConnectionPtr> r) {
    Link& link = coordLinks_[nodeId];
    link.connecting = false;
    if (!r.ok()) return;
    link.conn = std::move(r).value();
    link.conn->SetCloseHandler([this, nodeId] {
      auto it = coordLinks_.find(nodeId);
      if (it != coordLinks_.end()) it->second.conn.reset();
    });
    // Preamble: who we are.
    auto preamble = AcquireWireBuffer();
    ByteWriter(*preamble).WriteVarint(cfg_.nodeId);
    (void)link.conn->Send(std::move(preamble));
    FlushBacklog(link);
  });
}

void TcpClusterHost::SendCoordMsg(coord::NodeId to, const coord::CoordMsg& msg) {
  auto wire = AcquireWireBuffer();
  coord::EncodeCoordFramed(msg, *wire);
  if (!SendOnLink(coordLinks_[to], std::move(wire))) EnsureCoordLink(to);
}

void TcpClusterHost::RetryLinks() {
  if (!running_.load(std::memory_order_relaxed)) return;
  for (const auto& peer : cfg_.peers) {
    EnsurePeerLink(peer.serverId);
    EnsureCoordLink(peer.nodeId);
  }
  loop_->ScheduleTimer(cfg_.peerRetryInterval, [this] { RetryLinks(); });
}

}  // namespace md::cluster
