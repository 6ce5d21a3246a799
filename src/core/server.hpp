// Single-node MigratoryData server: the vertically-scaling engine of §4.
//
// Two layers, exactly as the paper describes:
//   - I/O layer: a configurable number of IoThreads, each running its own
//     epoll loop. Every client is pinned to one IoThread for its whole
//     connection lifetime (reads and writes of that client always happen on
//     that thread — no locks on the per-connection parse state). Client
//     connections are spread across IoThreads via SO_REUSEPORT listeners.
//   - Logic layer: a configurable number of Workers, each a thread draining
//     an MPSC queue. Workers run the pub/sub logic: subscription registry
//     updates, sequence assignment, cache appends, matching and fan-out.
//
// IoThread -> Worker: decoded frames are enqueued on the client's Worker (a
// hash of its handle). A topic group's PUBLISH, SUBSCRIBE and UNSUBSCRIBE
// run on the one Worker that owns the group, claimed by its first PUBLISH;
// the client's Worker passes them on. One Worker per group keeps a topic's
// sequence, cache appends and fan-out in one order (DESIGN.md §9). Worker ->
// IoThread: every frame a Worker produces goes into its outbox for the
// target's IoThread, and each non-empty outbox is handed over in one posted
// task when the Worker's batch ends.
//
// Everything between a client socket and a Worker queue — transport
// sniffing (raw framing, WebSocket, HTTP streaming, GET /metrics), sessions,
// encoding, batching and the slow-consumer policy — is the ClientFrontDoor
// (front_door.hpp) the cluster hosts share. The Server plugs its Worker
// queues in behind it and keeps sequencing, the cache/WAL and conflation.
//
// This class implements the single-server service (the Table 1 / C1M
// scenario); multi-server replication lives in src/cluster.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "core/cache.hpp"
#include "core/front_door.hpp"
#include "core/registry.hpp"
#include "core/sequencer.hpp"
#include "transport/epoll_loop.hpp"
#include "wal/log.hpp"

namespace md::core {

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral (read back via Port())
  int ioThreads = 2;       // paper: configurable, default #CPUs
  int workers = 2;
  std::string serverId = "server-1";
  CacheConfig cache;
  /// Durable topic cache (DESIGN.md §13): a non-empty `wal.dir` logs every
  /// cache append to a segmented WAL there, and Start() replays the intact
  /// records — rebuilding the cache and re-priming the sequencer — before
  /// any listener binds.
  wal::WalConfig wal;
  bool enableBatching = false;
  BatchConfig batch;
  /// Conflation (paper §4): within each window a subscriber receives only
  /// the newest message of each of its topics.
  bool enableConflation = false;
  ConflateConfig conflate;
  /// Slow-consumer handling (core/backpressure.hpp): send-queue watermarks
  /// every client connection is held to, and the eviction grace.
  BackpressureConfig backpressure;
  /// Metrics destination; nullptr uses the process-wide default registry.
  /// The registry must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Always-on runtime verification (DESIGN.md §11): embed a verify::Monitor
  /// fed from the fan-out and backpressure paths, exporting
  /// md_invariant_violations_total{kind=...} through this server's registry.
  bool runtimeVerify = false;
  verify::MonitorConfig verifyConfig;
  /// Debug-only: accept plain-HTTP `GET /inject?kind=...` to arm a one-shot
  /// observation fault on the embedded monitor (proves detection end to end;
  /// never enable on a production port).
  bool verifyInjectEndpoint = false;
};

struct ServerStats {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsActive = 0;
  std::uint64_t framesReceived = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytesOut = 0;
  std::uint64_t protocolErrors = 0;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds listeners and starts IoThread + Worker threads.
  Status Start();
  void Stop();

  [[nodiscard]] std::uint16_t Port() const noexcept { return boundPort_; }
  /// Also recomputes md_core_bytes_per_session, as /metrics scrapes do.
  [[nodiscard]] ServerStats Stats() const;
  /// What the last Start() replayed from the WAL (zeros when WAL disabled).
  [[nodiscard]] const wal::RecoveryStats& walRecovery() const noexcept {
    return walRecovery_;
  }

 private:
  enum class JobKind : std::uint8_t {
    kFrame,       // a client frame
    kClosed,      // the connection closed: drop its subscriptions
    kDisconnect,  // one Worker's share of a DISCONNECT (FinishDisconnect)
  };

  struct Job {
    JobKind kind = JobKind::kFrame;
    SessionPtr session{};
    std::optional<Frame> frame{};  // kFrame only
    /// kDisconnect: the Workers that have not yet handed over what they
    /// queued for the session.
    std::shared_ptr<std::atomic<std::size_t>> unflushed{};
  };

  struct IoThread {
    std::unique_ptr<EpollLoop> loop;
    ListenerPtr listener;
    std::thread thread;
  };

  /// What the loop-side writer does with an outbox entry's targets.
  enum class EgressKind : std::uint8_t {
    kWrite,           // queue `wire`
    kOfferConflated,  // enableConflation: offer `msg` to each conflator
    kCloseAfterFlush, // DISCONNECT: close behind the frames queued before
  };

  /// One frame a Worker produced, addressed to a run of targets on one
  /// IoThread: an ack or control frame has one target, a publish's fan-out
  /// every subscriber there that shares its transport flavour.
  struct Egress {
    EgressKind kind = EgressKind::kWrite;
    WireBuffer wire{};
    std::shared_ptr<const Message> msg{};  // conflation only
    std::uint32_t begin = 0;               // [begin, end) in Outbox::targets
    std::uint32_t end = 0;
    std::optional<obs::StageTimes> trace{};  // recorded at the first live write
  };

  /// A Worker's frames for one IoThread, in the order it produced them.
  struct Outbox {
    std::vector<SessionPtr> targets;
    std::vector<Egress> entries;
  };

  struct Worker {
    std::uint32_t index = 0;  // in workers_
    MpscQueue<Job> queue{262144};
    std::thread thread;
    std::vector<Outbox> outboxes;    // one per IoThread, flushed per batch
    std::vector<SessionPtr> fanout;  // HandlePublish's live targets, reused
  };

  // The front door's sink (the session's IoThread): answer CONNECT, queue
  // any other frame, or the close, on the session's Worker.
  Status OnFrame(const SessionPtr& session, Frame&& frame);
  void OnClosed(const SessionPtr& session);
  [[nodiscard]] Worker& WorkerOf(const Session& session) {
    // Clients are balanced among Workers by a hash of their identity and
    // stay pinned for their connection lifetime (paper hashes the IP
    // address; the handle balances equally and is stable the same way).
    return *workers_[MixU64(session.handle) % workers_.size()];
  }
  /// The Worker that runs `group`'s topic verbs. A PUBLISH (`claim`) on a
  /// group no Worker owns yet makes `w` its owner for the server's life; a
  /// SUBSCRIBE or UNSUBSCRIBE there runs on `w` and claims nothing.
  [[nodiscard]] Worker& OwnerOf(Worker& w, std::uint32_t group, bool claim);

  // Called on Worker threads.
  void WorkerMain(std::size_t index);
  void HandleFrame(Worker& w, Job& job);
  void HandlePublish(Worker& w, const SessionPtr& session, std::uint32_t group,
                     const PublishFrame& pub);
  void HandleSubscribe(Worker& w, const SessionPtr& session,
                       const SubscribeFrame& sub);
  /// Queues `job` on `owner`; sheds the client if that queue is full.
  void PassOn(Worker& w, Worker& owner, Job&& job);
  void Disconnect(Worker& w, const SessionPtr& session);
  void FinishDisconnect(Worker& w, const SessionPtr& session,
                        std::atomic<std::size_t>& unflushed);
  void CloseSession(Worker& w, const SessionPtr& session);

  // Worker -> IoThread hand-off (Worker side).
  /// Encodes `frame` in the session's transport flavour into its outbox.
  void Reply(Worker& w, const SessionPtr& session, const Frame& frame);
  /// Appends `target` to its IoThread's outbox, extending the last entry
  /// when it carries the same frame (a fan-out run). A set `trace` (a
  /// publish's first delivery) starts an entry that carries those stamps.
  void Enqueue(Worker& w, const SessionPtr& target, const Egress& frame,
               const obs::StageTimes* trace = nullptr);
  /// Posts the outbox for IoThread `io` as one task, if it holds anything.
  void FlushOutbox(Worker& w, std::size_t io);
  /// The loop-side writer: runs a flushed outbox on its IoThread.
  void WriteOutbox(const Outbox& box);

  // Conflation (IoThread only).
  void OfferConflatedOnLoop(const SessionPtr& session, const Message& msg);
  void FlushConflator(const SessionPtr& session);

  ServerConfig cfg_;
  obs::MetricsRegistry& metrics_;
  obs::CoreMetrics m_;
  obs::TransportMetrics tm_;
  obs::WalMetrics wm_;
  obs::StageRecorder stages_;
  std::unique_ptr<verify::Monitor> monitor_;
  std::unique_ptr<wal::Log> wal_;
  wal::RecoveryStats walRecovery_;
  std::jthread walSyncer_;  // runs wal_->SyncLoop; group-commit policy only
  std::atomic<bool> running_{false};
  std::uint16_t boundPort_ = 0;

  std::vector<std::unique_ptr<IoThread>> ioThreads_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per topic group: 1 + the index of the Worker that owns it, 0 while no
  /// PUBLISH has claimed it. Never changes once set.
  std::vector<std::atomic<std::uint32_t>> owners_;

  SubscriptionRegistry registry_;
  Cache cache_;
  Sequencer sequencer_;
  ClientFrontDoor door_;
};

}  // namespace md::core
