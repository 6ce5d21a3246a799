#include "cluster/tcp_host.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace md::cluster {

namespace {

constexpr std::size_t kMaxBacklogFrames = 4096;
constexpr Duration kPeerRetryInterval = 500 * kMillisecond;

obs::MetricsRegistry& RegistryOf(const TcpHostConfig& cfg) {
  return cfg.cluster.metrics != nullptr ? *cfg.cluster.metrics
                                        : obs::MetricsRegistry::Default();
}

WireBuffer EncodeWire(const Frame& frame) {
  auto wire = AcquireWireBuffer();
  EncodeFramed(frame, *wire);
  return wire;
}

}  // namespace

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

class TcpClusterHost::NodeEnv final : public ClusterEnv {
 public:
  NodeEnv(TcpClusterHost& host, std::uint64_t seed) : host_(host), rng_(seed) {}

  void SendToPeer(const std::string& serverId, const Frame& frame) override {
    host_.SendPeerFrame(serverId, EncodeWire(frame));
  }
  void SendToPeers(const std::vector<std::string>& serverIds,
                   const Frame& frame) override {
    // One encode for every peer: each link queues a reference to the bytes.
    const WireBuffer wire = EncodeWire(frame);
    for (const std::string& serverId : serverIds) host_.SendPeerFrame(serverId, wire);
  }

  void SendToClient(ClientHandle client, const Frame& frame) override {
    host_.door_.Send(client, frame);
  }
  void Deliver(const std::vector<ClientHandle>& clients, const Message& msg) override {
    host_.door_.Deliver(clients, msg);
  }
  void CloseClient(ClientHandle client) override {
    host_.door_.CloseAfterFlush(client);
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
      monitor_(verify::MakeHostMonitor(cfg_.runtimeVerify, cfg_.verifyConfig,
                                       cfg_.serverId, RegistryOf(cfg_))),
      loop_(std::make_unique<EpollLoop>()),
      door_(RegistryOf(cfg_),
            {.labels = obs::ServerLabel(cfg_.serverId),
             .backpressure = cfg_.clientBackpressure,
             .batch = std::nullopt,
             .monitor = monitor_.get(),
             .injectEndpoint = false,
             .cacheBytes = [this] { return node_->cache().Bytes(); }},
            {.onFrame = [this](const core::SessionPtr& s, Frame&& f) {
               // A (re)subscribe or unsubscribe starts the client's stream
               // afresh, before the node sends any resume backfill: the
               // monitor re-baselines instead of flagging a replay.
               if (monitor_) {
                 if (const auto* sub = std::get_if<SubscribeFrame>(&f)) {
                   monitor_->Forget(s->handle, sub->topic);
                 } else if (const auto* unsub = std::get_if<UnsubscribeFrame>(&f)) {
                   monitor_->Forget(s->handle, unsub->topic);
                 }
               }
               node_->OnClientFrame(s->handle, std::move(f));
               return OkStatus();
             },
             .onClosed = [this](const core::SessionPtr& s) {
               node_->OnClientDisconnect(s->handle);
             }}) {
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
      [this](ConnectionPtr conn) { door_.Accept(*loop_, 0, std::move(conn)); });
  peerListener_->SetAcceptHandler(
      [this](ConnectionPtr conn) { ReadPeerFrames(conn, {}); });
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
    door_.CloseAll();
    door_.Clear();
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

void TcpClusterHost::ReadPeerFrames(const ConnectionPtr& conn, std::string from) {
  // An accepted link learns its peer from the first frame (HELLO); every
  // later frame on it comes from the member that frame named.
  auto inbox = std::make_shared<ByteQueue>();
  auto peer = std::make_shared<std::string>(std::move(from));
  conn->SetDataHandler([this, conn, inbox, peer](BytesView data) {
    inbox->Append(data);
    while (true) {
      auto r = ExtractFrame(*inbox);
      if (!r.status.ok()) {
        conn->Close();
        return;
      }
      if (!r.frame) return;
      if (!peer->empty()) {
        node_->OnPeerFrame(*peer, std::move(*r.frame));
        continue;
      }
      const auto* hello = std::get_if<HelloFrame>(&*r.frame);
      if (hello == nullptr || hello->serverId.empty()) {
        conn->Close();
        return;
      }
      *peer = hello->serverId;
      AdoptPeerConnection(*peer, conn);
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
    ReadPeerFrames(conn, serverId);
    AdoptPeerConnection(serverId, conn);
  });
}

void TcpClusterHost::SendPeerFrame(const std::string& serverId, WireBuffer wire) {
  if (!SendOnLink(peerLinks_[serverId], std::move(wire))) EnsurePeerLink(serverId);
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
  loop_->ScheduleTimer(kPeerRetryInterval, [this] { RetryLinks(); });
}

}  // namespace md::cluster
