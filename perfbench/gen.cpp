// pb_gen — open-loop load generator, stream checker and per-layer ledger
// for one benchmark workload against the real engine.
//
//   pb_gen --workload ticker_ws|durable_recover|cluster3 --seed N
//          --seconds S --trace 0|1 --engine PATH --workdir DIR
//          --low-rate R --high-rate R --ladder R,R,... --limit-ms L
//          --saturation-publishes N
//
// The engine runs as separate pb_engine processes on loopback. The generator
// uses two threads (sender, and one reader for acks, deliveries and the
// resume client) and at most four client connections. Publishes leave on a
// fixed schedule that never waits for the engine; each carries its intended
// send time in the first 8 payload bytes, and every latency is measured from
// that time.
//
// Every delivery is checked: per subscriber and topic the stream must be
// gap-free, duplicate-free and in (epoch, seq) order, carry the payload that
// was published, and every acked publish must reach every subscriber of its
// topic. Resume backfills must be contiguous from the cursor.
//
// The last stdout line is one JSON object with every metric this run
// computed; diagnostics go to stderr.
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/hash.hpp"
#include "net.hpp"

namespace pb {
namespace {

constexpr std::uint64_t kPubHash = md::Fnv1a64("perfbench-publisher");
constexpr int kMaxSubs = 3;
constexpr std::int64_t kMs = 1'000'000;
// Measured phases are cut into this many windows; per-run figures are the
// median over windows, so a burst of noise on the load host moves one
// window rather than the whole figure.
constexpr std::uint64_t kWindows = 10;
// Publishes kept in flight by the closed-loop saturation phase.
constexpr std::uint64_t kSaturationWindow = 500;

// ---------------------------------------------------------------------------
// Options and workload shapes
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string engine;
  std::string workdir;
  double lowRate = 100;
  double highRate = 1000;
  std::vector<double> ladder;
  double limitMs = 10;
  // Publishes of the closed-loop saturation phase, where
  // server_cpu_us_per_pub is then taken; 0 = no such phase, and the figure
  // comes from .high.
  std::uint64_t saturationPublishes = 0;
};

// Set-ups per trace-0 run; setup_s is their median.
constexpr int kSetups = 21;
// Pause before each further set-up. Back to back, a set-up overlaps the
// kernel's clean-up of the deployment just torn down, and the median of a
// run's set-ups swung by 0.31 of itself between runs (quartile distance
// over 10 runs on ticker_ws, 4-vCPU VM), against 0.27 with this pause and a
// run range of 7.5-10.5 ms instead of 7.1-14.3 ms.
constexpr auto kSetUpGap = std::chrono::milliseconds(250);
// Further set-ups allowed for placing the publisher on an IoThread of its
// own (each succeeds with probability 1/8 on ticker_ws, 1/4 on
// durable_recover).
constexpr int kPlacementTries = 64;

struct Shape {
  std::string prefix;
  int topics = 100;
  int subscribers = 3;
  bool wsSubs = false;
  int subsetTopics = 0;  // topics per subscriber; 0 = all
  bool wal = false;
  bool cluster = false;
  bool recovering = false;
  int payloadMin = 140;
  int payloadMax = 140;
};

std::optional<Shape> ShapeOf(const std::string& name) {
  Shape s;
  if (name == "ticker_ws") {
    s.prefix = "ticker/";
    s.wsSubs = true;
    return s;
  }
  if (name == "durable_recover") {
    s.prefix = "durable/";
    s.topics = 10'000;
    s.subscribers = 1;
    s.subsetTopics = 100;
    s.wal = true;
    s.recovering = true;
    s.payloadMin = 64;
    s.payloadMax = 4096;
    return s;
  }
  if (name == "cluster3") {
    s.prefix = "cluster/";
    s.cluster = true;
    return s;
  }
  return std::nullopt;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::stoull(v);
    else if (k == "--seconds") o->seconds = std::stod(v);
    else if (k == "--trace") o->trace = std::stoi(v);
    else if (k == "--engine") o->engine = v;
    else if (k == "--workdir") o->workdir = v;
    else if (k == "--low-rate") o->lowRate = std::stod(v);
    else if (k == "--high-rate") o->highRate = std::stod(v);
    else if (k == "--limit-ms") o->limitMs = std::stod(v);
    else if (k == "--saturation-publishes") o->saturationPublishes = std::stoull(v);
    else if (k == "--ladder") {
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) o->ladder.push_back(std::stod(item));
    } else {
      std::fprintf(stderr, "pb_gen: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return !o->workload.empty() && !o->engine.empty() && !o->workdir.empty() &&
         o->seconds > 0 && o->lowRate > 0 && o->highRate > 0;
}

// ---------------------------------------------------------------------------
// The schedule: every publish of the run, generated before traffic starts
// ---------------------------------------------------------------------------

struct Pub {
  std::uint32_t topic = 0;
  std::uint32_t size = 0;
  std::uint16_t phase = 0;
  std::int64_t offset = 0;  // intended send time relative to the phase base
  std::uint64_t prev = 0;   // previous counter on the same topic (0 = none)
};

struct Phase {
  std::string name;
  bool measured = true;     // counts toward attempted/failed
  bool closedLoop = false;  // sent as fast as acks allow, not on schedule
  std::uint64_t first = 0;  // counters [first, end)
  std::uint64_t end = 0;
  std::atomic<std::int64_t> base{0};  // 0 = not started
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> nacked{0};
  std::array<std::atomic<std::uint64_t>, kMaxSubs> delivered{};
  std::array<std::uint64_t, kMaxSubs> expected{};
  std::vector<std::int64_t> lateness;  // sender thread only
};

struct FaultLog {
  std::atomic<std::uint64_t> count{0};
  void Add(const char* what, std::uint64_t counter) {
    if (count.fetch_add(1) < 5) {
      std::fprintf(stderr, "pb_gen: fault: %s (counter %" PRIu64 ")\n", what, counter);
    }
  }
};

/// State shared by the generator threads. Schedule arrays are written
/// before a phase starts and only read while it runs; per-message receive
/// times are atomics written by exactly one reader thread.
struct RunState {
  Options opt;
  Shape shape;
  md::Rng rng{1};
  std::vector<std::string> topicNames;
  std::vector<std::vector<std::uint8_t>> subscribed;  // [sub][topic]
  std::vector<Pub> pubs{Pub{}};                        // index = counter
  std::vector<std::vector<std::uint64_t>> topicPubs;   // counters per topic
  std::vector<std::uint64_t> lastOnTopic;
  std::deque<Phase> phases;
  std::unique_ptr<std::atomic<std::int64_t>[]> ackNs;
  std::unique_ptr<std::atomic<std::uint8_t>[]> nacked;
  std::array<std::unique_ptr<std::atomic<std::int64_t>[]>, kMaxSubs> deliverNs;
  FaultLog faults;
  std::atomic<int> currentPhase{0};
  std::atomic<bool> stopReaders{false};

  // Resume client (ack thread only, read by main after join).
  std::vector<std::pair<int, std::int64_t>> resumeLatency;  // (phase, ns)
  std::uint64_t resumeOps = 0;

  // Spans (trace 1): one log per thread.
  SpanLog sendSpans{1};
  SpanLog subSpans{1u << 30};

  [[nodiscard]] std::int64_t Intended(std::uint64_t c) const {
    const std::int64_t base = phases[pubs[c].phase].base.load(std::memory_order_acquire);
    return base == 0 ? 0 : base + pubs[c].offset;
  }
};

std::uint32_t DrawSize(RunState& st) {
  const Shape& s = st.shape;
  if (s.payloadMin == s.payloadMax) return static_cast<std::uint32_t>(s.payloadMin);
  // Log-uniform mix: as many small as large payloads per octave.
  const double lo = std::log(static_cast<double>(s.payloadMin));
  const double hi = std::log(static_cast<double>(s.payloadMax));
  const double u = static_cast<double>(st.rng.Next() >> 11) * 0x1.0p-53;
  return static_cast<std::uint32_t>(std::lround(std::exp(lo + u * (hi - lo))));
}

/// Topic order: shuffled rounds over every topic (1 publication per topic
/// per round) when topics are few; over a large topic space, hot topics
/// (the subscriber's) get a quarter of the publishes.
class TopicPicker {
 public:
  explicit TopicPicker(RunState& st) : st_(st) {
    for (std::uint32_t t = 0; t < st.subscribed[0].size(); ++t) {
      if (st.subscribed[0][t]) hot_.push_back(t);
    }
  }
  std::uint32_t Next() {
    const auto n = static_cast<std::uint32_t>(st_.shape.topics);
    if (n > 1000) {
      // Large topic space: a quarter of the publishes go to the hot topics
      // the subscriber holds, the rest spread uniformly.
      if (st_.rng.NextBelow(4) == 0) return hot_[st_.rng.NextBelow(hot_.size())];
      return static_cast<std::uint32_t>(st_.rng.NextBelow(n));
    }
    if (pos_ == round_.size()) {
      round_.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) round_[i] = i;
      for (std::uint32_t i = n - 1; i > 0; --i) {
        std::swap(round_[i], round_[st_.rng.NextBelow(i + 1)]);
      }
      pos_ = 0;
    }
    return round_[pos_++];
  }

 private:
  RunState& st_;
  std::vector<std::uint32_t> hot_;
  std::vector<std::uint32_t> round_;
  std::size_t pos_ = 0;
};

/// Appends a phase of `rate * seconds` publishes to the schedule.
Phase& AddPhase(RunState& st, TopicPicker& picker, const std::string& name,
                double rate, double seconds, bool measured,
                const std::vector<std::uint32_t>* fixedTopics = nullptr) {
  Phase& ph = st.phases.emplace_back();
  ph.name = name;
  ph.measured = measured;
  ph.first = st.pubs.size();
  const auto n = fixedTopics ? fixedTopics->size()
                             : static_cast<std::size_t>(std::llround(rate * seconds));
  const auto phaseIndex = static_cast<std::uint16_t>(st.phases.size() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    Pub p;
    p.topic = fixedTopics ? (*fixedTopics)[j] : picker.Next();
    p.size = DrawSize(st);
    p.phase = phaseIndex;
    p.offset = static_cast<std::int64_t>(static_cast<double>(j) * 1e9 / rate);
    const std::uint64_t c = st.pubs.size();
    p.prev = st.lastOnTopic[p.topic];
    st.lastOnTopic[p.topic] = c;
    st.topicPubs[p.topic].push_back(c);
    for (int s = 0; s < st.shape.subscribers; ++s) {
      if (st.subscribed[static_cast<std::size_t>(s)][p.topic]) ++ph.expected[static_cast<std::size_t>(s)];
    }
    st.pubs.push_back(p);
  }
  ph.end = st.pubs.size();
  return ph;
}

// ---------------------------------------------------------------------------
// Payloads: intended time, counter, then a counter-derived byte pattern
// ---------------------------------------------------------------------------

void FillPayload(std::uint64_t c, std::int64_t intended, std::uint32_t size, md::Bytes& out) {
  out.resize(size);
  std::memcpy(out.data(), &intended, 8);
  std::memcpy(out.data() + 8, &c, 8);
  for (std::uint32_t j = 16; j < size; ++j) {
    out[j] = static_cast<std::uint8_t>(c * 131 + j);
  }
}

bool PayloadMatches(std::uint64_t c, std::int64_t intended, std::uint32_t size,
                    const md::Bytes& p) {
  if (p.size() != size) return false;
  std::int64_t stamp = 0;
  std::uint64_t counter = 0;
  std::memcpy(&stamp, p.data(), 8);
  std::memcpy(&counter, p.data() + 8, 8);
  if (stamp != intended || counter != c) return false;
  for (std::uint32_t j = 16; j < size; ++j) {
    if (p[j] != static_cast<std::uint8_t>(c * 131 + j)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Deployment: engine process(es) plus the client connections
// ---------------------------------------------------------------------------

struct Deployment {
  std::vector<std::unique_ptr<EngineProc>> engines;
  std::vector<std::uint16_t> clientPorts;
  Conn pub;
  std::array<Conn, kMaxSubs> subs;
  Conn recovering;
  std::string walDir;

  void TearDown() {
    pub.Close();
    for (Conn& s : subs) s.Close();
    recovering.Close();
    for (auto& e : engines) e->Stop();
    engines.clear();
    if (!walDir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(walDir, ec);
    }
  }
};

/// Connects every client, then sends each its CONNECT and SUBSCRIBEs in one
/// write and waits for all the acks, so set-up costs a few round trips
/// rather than one per step.
bool ConnectAll(RunState& st, Deployment& d, std::uint64_t seed) {
  struct Client {
    Conn* conn;
    std::uint16_t port;
    bool ws;
    std::string id;
    int sub;  // subscriber index, -1 for none
  };
  const Shape& s = st.shape;
  std::vector<Client> clients = {{&d.pub, d.clientPorts[0], false, "pb-pub", -1}};
  for (int i = 0; i < s.subscribers; ++i) {
    const std::uint16_t port = d.clientPorts[s.cluster ? static_cast<std::size_t>(i) : 0];
    clients.push_back({&d.subs[static_cast<std::size_t>(i)], port, s.wsSubs,
                       "pb-sub-" + std::to_string(i), i});
  }
  if (s.recovering) clients.push_back({&d.recovering, d.clientPorts[0], false, "pb-recover", -1});
  for (std::size_t k = 0; k < clients.size(); ++k) {
    if (!clients[k].conn->Open(clients[k].port, clients[k].ws, seed + k)) return false;
  }
  std::vector<std::size_t> owed(clients.size(), 1);  // CONNACK + SUBACKs
  for (std::size_t k = 0; k < clients.size(); ++k) {
    Conn& conn = *clients[k].conn;
    if (!conn.FinishOpen(5000)) return false;
    md::Bytes wire;
    conn.Encode(md::ConnectFrame{clients[k].id}, wire);
    if (clients[k].sub >= 0) {
      for (std::size_t t = 0; t < st.topicNames.size(); ++t) {
        if (!st.subscribed[static_cast<std::size_t>(clients[k].sub)][t]) continue;
        conn.Encode(md::SubscribeFrame{st.topicNames[t], false, {}}, wire);
        ++owed[k];
      }
    }
    if (!conn.WriteAll(md::BytesView(wire))) return false;
  }
  for (std::size_t k = 0; k < clients.size(); ++k) {
    for (std::size_t got = 0; got < owed[k]; ++got) {
      const auto f = clients[k].conn->WaitFrame(5000);
      if (!f) return false;
      const auto* sub = std::get_if<md::SubAckFrame>(&*f);
      const bool ok = got == 0 ? std::holds_alternative<md::ConnAckFrame>(*f)
                               : sub != nullptr && sub->ok;
      if (!ok) return false;
    }
  }
  return true;
}

/// Starts the engine(s) and connects and subscribes every client. Returns
/// the set-up time in seconds, or a negative value on failure.
double SetUp(RunState& st, Deployment& d, int attempt) {
  const std::int64_t t0 = NowNs();
  const Shape& s = st.shape;
  if (!s.cluster) {
    auto e = std::make_unique<EngineProc>();
    std::vector<std::string> argv = {st.opt.engine, "single"};
    if (s.wal) {
      d.walDir = st.opt.workdir + "/wal-" + std::to_string(getpid()) + "-" +
                 std::to_string(attempt);
      std::filesystem::create_directories(d.walDir);
      argv.insert(argv.end(), {"--wal-dir", d.walDir});
    }
    if (!e->Spawn(argv)) return -1;
    d.engines.push_back(std::move(e));
  } else {
    const std::vector<std::uint16_t> ports = FreePorts(9);
    if (ports.size() != 9) return -1;
    for (int i = 0; i < 3; ++i) {
      std::vector<std::string> argv = {
          st.opt.engine, "member", "--node", std::to_string(i + 1),
          "--client-port", std::to_string(ports[static_cast<std::size_t>(3 * i)]),
          "--peer-port", std::to_string(ports[static_cast<std::size_t>(3 * i + 1)]),
          "--coord-port", std::to_string(ports[static_cast<std::size_t>(3 * i + 2)])};
      for (int j = 0; j < 3; ++j) {
        if (j == i) continue;
        argv.insert(argv.end(),
                    {"--peer", "server-" + std::to_string(j + 1) + "," +
                                   std::to_string(j + 1) + ",127.0.0.1," +
                                   std::to_string(ports[static_cast<std::size_t>(3 * j + 1)]) + "," +
                                   std::to_string(ports[static_cast<std::size_t>(3 * j + 2)])});
      }
      auto e = std::make_unique<EngineProc>();
      if (!e->Spawn(argv)) return -1;
      d.engines.push_back(std::move(e));
    }
  }
  for (auto& e : d.engines) {
    const auto line = e->ReadLine(10000);
    if (!line || line->rfind("READY ", 0) != 0) return -1;
    d.clientPorts.push_back(static_cast<std::uint16_t>(std::stoi(line->substr(6))));
  }
  if (s.cluster) {
    // Wait until every member knows the MiniZK leader.
    const std::int64_t deadline = NowNs() + 20'000 * kMs;
    for (auto& e : d.engines) {
      while (true) {
        e->Command("status");
        const auto line = e->ReadLine(5000);
        if (!line) return -1;
        if (*line == "STATUS 1") break;
        if (NowNs() > deadline) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  const std::uint64_t seed = st.opt.seed * 1000 + static_cast<std::uint64_t>(attempt) * 10;
  if (!ConnectAll(st, d, seed)) return -1;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Peer ports of the TCP connections each of the engine's epoll instances
/// watches (one set per instance), read from /proc.
std::vector<std::set<int>> PeerPortsByLoop(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  std::map<std::string, int> peerOfInode;
  for (const char* table : {"/net/tcp", "/net/tcp6"}) {
    std::ifstream in(dir + table);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream f(line);
      std::string slot, local, remote, state, queues, timer, retransmits, uid, timeout, inode;
      f >> slot >> local >> remote >> state >> queues >> timer >> retransmits >> uid >> timeout >> inode;
      const auto colon = remote.rfind(':');
      if (colon != std::string::npos) peerOfInode[inode] = std::stoi(remote.substr(colon + 1), nullptr, 16);
    }
  }
  std::map<int, int> peerOfFd;
  std::vector<int> epolls;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/fd", ec)) {
    std::error_code linkEc;
    const std::string target = std::filesystem::read_symlink(entry.path(), linkEc).string();
    const int fd = std::stoi(entry.path().filename().string());
    if (target == "anon_inode:[eventpoll]") {
      epolls.push_back(fd);
    } else if (target.rfind("socket:[", 0) == 0) {
      const auto it = peerOfInode.find(target.substr(8, target.size() - 9));
      if (it != peerOfInode.end() && it->second != 0) peerOfFd[fd] = it->second;
    }
  }
  std::sort(epolls.begin(), epolls.end());
  std::vector<std::set<int>> loops;
  for (const int ep : epolls) {
    std::ifstream in(dir + "/fdinfo/" + std::to_string(ep));
    std::set<int> ports;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("tfd:", 0) != 0) continue;
      const auto it = peerOfFd.find(std::stoi(line.substr(4)));
      if (it != peerOfFd.end()) ports.insert(it->second);
    }
    loops.push_back(std::move(ports));
  }
  return loops;
}

/// True when the IoThread serving the publisher serves no other benchmark
/// client. The kernel spreads a server's connections over its IoThreads'
/// SO_REUSEPORT listeners by a hash of the client port, and CPU per publish
/// depends on the outcome: on ticker_ws, 15 us with the publisher on an
/// IoThread of its own and 18-20 us otherwise (4-vCPU VM). Fixing the
/// placement makes every run measure the same engine layout. Cluster members
/// run one loop each, and an engine whose loops cannot be read (no epoll)
/// is taken as it comes.
bool PublisherHasOwnLoop(const RunState& st, const Deployment& d) {
  if (st.shape.cluster) return true;
  const int pubPort = d.pub.LocalPort();
  std::vector<int> others;
  for (int i = 0; i < st.shape.subscribers; ++i) others.push_back(d.subs[static_cast<std::size_t>(i)].LocalPort());
  if (st.shape.recovering) others.push_back(d.recovering.LocalPort());
  for (const auto& ports : PeerPortsByLoop(d.engines.front()->pid())) {
    if (!ports.contains(pubPort)) continue;
    return std::none_of(others.begin(), others.end(), [&](int p) { return ports.contains(p); });
  }
  return true;
}

/// Sets up at least `count` deployments, appending each set-up time to
/// `setups`, and goes on until one places the publisher on an IoThread of
/// its own; returns that one, or nullptr on failure.
std::unique_ptr<Deployment> SetUpPlaced(RunState& st, int count, int firstAttempt,
                                        std::vector<double>* setups) {
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < count + kPlacementTries; ++i) {
    if (dep) {
      dep->TearDown();
      std::this_thread::sleep_for(kSetUpGap);
    }
    dep = std::make_unique<Deployment>();
    const double s = SetUp(st, *dep, firstAttempt + i);
    if (s < 0) {
      std::fprintf(stderr, "pb_gen: set-up %d failed\n", firstAttempt + i);
      dep->TearDown();
      return nullptr;
    }
    setups->push_back(s);
    if (i + 1 >= count && PublisherHasOwnLoop(st, *dep)) return dep;
  }
  std::fprintf(stderr, "pb_gen: no set-up gave the publisher an IoThread of its own\n");
  dep->TearDown();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reader threads
// ---------------------------------------------------------------------------

void CheckDeliver(RunState& st, int sub, const md::Message& msg, std::int64_t now,
                  std::vector<std::uint64_t>& lastCounter,
                  std::vector<md::StreamPos>& lastPos) {
  const std::uint64_t c = msg.pubId.counter;
  if (msg.pubId.clientHash != kPubHash || c == 0 || c >= st.pubs.size()) {
    st.faults.Add("delivery of an unknown publication", c);
    return;
  }
  const Pub& p = st.pubs[c];
  const auto s = static_cast<std::size_t>(sub);
  if (msg.topic != st.topicNames[p.topic] || !st.subscribed[s][p.topic]) {
    st.faults.Add("delivery on the wrong topic", c);
    return;
  }
  if (!PayloadMatches(c, st.Intended(c), p.size, msg.payload)) {
    st.faults.Add("payload differs from the published bytes", c);
  }
  std::int64_t expectedZero = 0;
  if (!st.deliverNs[s][c].compare_exchange_strong(expectedZero, now,
                                                  std::memory_order_relaxed)) {
    st.faults.Add("duplicate delivery", c);
    return;
  }
  st.phases[p.phase].delivered[s].fetch_add(1, std::memory_order_release);
  // Gap/order: the previous publication on this topic (skipping nacked
  // ones, which are never sequenced) must be the last one this subscriber
  // saw.
  std::uint64_t prev = p.prev;
  while (prev != 0 && st.nacked[prev].load(std::memory_order_relaxed) != 0) {
    prev = st.pubs[prev].prev;
  }
  if (prev != lastCounter[p.topic]) st.faults.Add("gap or reordering in a topic stream", c);
  lastCounter[p.topic] = c;
  const md::StreamPos pos = md::PosOf(msg);
  const md::StreamPos last = lastPos[p.topic];
  if (pos <= last || (pos.epoch == last.epoch && pos.seq != last.seq + 1)) {
    st.faults.Add("(epoch, seq) not contiguous", c);
  }
  lastPos[p.topic] = pos;
}

/// The recovering client of durable_recover: subscribe with a resume cursor
/// k messages back, receive the backfill, unsubscribe; one op at a time.
class Resumer {
 public:
  Resumer(RunState& st, Conn& conn) : st_(st), conn_(conn), ackPos_(st.topicNames.size(), 0),
        rng_(st.opt.seed * 7919 + 17) {}

  void OnAck(std::uint64_t c) {
    const std::uint32_t t = st_.pubs[c].topic;
    auto& list = st_.topicPubs[t];
    std::size_t& pos = ackPos_[t];
    while (pos < list.size() && st_.ackNs[list[pos]].load(std::memory_order_relaxed) != 0) ++pos;
  }

  void Tick(std::int64_t now) {
    if (active_) {
      if (now - opStart_ > 10'000 * kMs) {
        Fail("resume backfill timed out");
        Finish();
      }
      return;
    }
    if (now < nextAt_) return;
    nextAt_ = now + kInterval;
    // A closed-loop phase ignores its schedule, so quiet topics cannot be
    // told apart from busy ones.
    if (st_.phases[static_cast<std::size_t>(st_.currentPhase.load())].closedLoop) return;
    for (int tries = 0; tries < 32; ++tries) {
      const auto t = static_cast<std::uint32_t>(rng_.NextBelow(st_.topicNames.size()));
      const std::size_t n = ackPos_[t];
      if (n == 0) continue;
      const auto& list = st_.topicPubs[t];
      if (n < list.size()) {
        // Skip topics with a publish due soon (or in a phase not started):
        // a live publish racing the backfill is a different test.
        const std::int64_t next = st_.Intended(list[n]);
        if (next == 0 || next < now + kQuietNs) continue;
      }
      const std::size_t k = std::min<std::size_t>(n, 1 + rng_.NextBelow(8));
      expected_.assign(list.begin() + static_cast<std::ptrdiff_t>(n - k),
                       list.begin() + static_cast<std::ptrdiff_t>(n));
      topic_ = t;
      idx_ = 0;
      subAcked_ = false;
      active_ = true;
      phase_ = st_.currentPhase.load(std::memory_order_relaxed);
      ++st_.resumeOps;
      opStart_ = NowNs();
      md::SubscribeFrame sub{st_.topicNames[t], true, md::StreamPos{1, n - k}};
      if (!conn_.SendFrame(sub)) Fail("resume subscribe failed to send");
      return;
    }
  }

  void OnFrame(const md::Frame& f, std::int64_t now) {
    if (const auto* ack = std::get_if<md::SubAckFrame>(&f)) {
      if (!active_ || ack->topic != st_.topicNames[topic_] || !ack->ok) {
        Fail("unexpected resume SUBACK");
      }
      subAcked_ = true;
      return;
    }
    const auto* del = std::get_if<md::DeliverFrame>(&f);
    if (del == nullptr) {
      Fail("unexpected frame on the recovering connection");
      return;
    }
    if (!active_ || del->msg.topic != st_.topicNames[topic_] || !subAcked_) {
      Fail("backfill outside a resume");
      return;
    }
    const std::uint64_t c = del->msg.pubId.counter;
    if (c != expected_[idx_] || del->msg.epoch != 1 || del->msg.seq != SeqOf(c)) {
      Fail("resume backfill not contiguous from the cursor");
      Finish();
      return;
    }
    if (!PayloadMatches(c, st_.Intended(c), st_.pubs[c].size, del->msg.payload)) {
      Fail("backfilled payload differs");
    }
    if (++idx_ == expected_.size()) {
      st_.resumeLatency.emplace_back(phase_, now - opStart_);
      Finish();
    }
  }

 private:
  static constexpr std::int64_t kInterval = 10 * kMs;
  static constexpr std::int64_t kQuietNs = 50 * kMs;

  /// Sequence number of publication `c`: its 1-based index on its topic
  /// (single-node sequencing starts every topic at seq 1 in epoch 1).
  std::uint64_t SeqOf(std::uint64_t c) const {
    const auto& list = st_.topicPubs[st_.pubs[c].topic];
    return static_cast<std::uint64_t>(std::lower_bound(list.begin(), list.end(), c) -
                                      list.begin()) + 1;
  }

  void Fail(const char* what) { st_.faults.Add(what, 0); }

  void Finish() {
    if (!conn_.SendFrame(md::UnsubscribeFrame{st_.topicNames[topic_]})) {
      Fail("resume unsubscribe failed to send");
    }
    active_ = false;
  }

  RunState& st_;
  Conn& conn_;
  std::vector<std::size_t> ackPos_;
  md::Rng rng_;
  bool active_ = false;
  bool subAcked_ = false;
  std::uint32_t topic_ = 0;
  std::vector<std::uint64_t> expected_;
  std::size_t idx_ = 0;
  int phase_ = 0;
  std::int64_t opStart_ = 0;
  std::int64_t nextAt_ = 0;
};

void HandleAck(RunState& st, const md::PubAckFrame& ack, std::int64_t now, Resumer* resumer) {
  const std::uint64_t c = ack.pubId.counter;
  if (ack.pubId.clientHash != kPubHash || c == 0 || c >= st.pubs.size()) {
    st.faults.Add("ack for an unknown publication", c);
    return;
  }
  Phase& ph = st.phases[st.pubs[c].phase];
  if (!ack.ok()) {
    st.nacked[c].store(1, std::memory_order_relaxed);
    ph.nacked.fetch_add(1, std::memory_order_release);
    return;
  }
  std::int64_t zero = 0;
  if (!st.ackNs[c].compare_exchange_strong(zero, now, std::memory_order_relaxed)) {
    st.faults.Add("duplicate ack", c);
    return;
  }
  if (st.nacked[c].exchange(0, std::memory_order_relaxed) != 0) {
    ph.nacked.fetch_sub(1, std::memory_order_relaxed);
  }
  ph.acked.fetch_add(1, std::memory_order_release);
  if (resumer != nullptr) resumer->OnAck(c);
}

/// The one reader thread: acks, deliveries and the resume client.
void ReaderLoop(RunState& st, Deployment& d) {
  constexpr std::uint32_t kPubTag = 8;
  constexpr std::uint32_t kRecoverTag = 9;
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  const auto watch = [ep](int fd, std::uint32_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = tag;
    epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  };
  watch(d.pub.fd(), kPubTag);
  for (int i = 0; i < st.shape.subscribers; ++i) {
    watch(d.subs[static_cast<std::size_t>(i)].fd(), static_cast<std::uint32_t>(i));
  }
  std::unique_ptr<Resumer> resumer;
  if (st.shape.recovering) {
    resumer = std::make_unique<Resumer>(st, d.recovering);
    watch(d.recovering.fd(), kRecoverTag);
  }
  std::vector<std::vector<std::uint64_t>> lastCounter(
      kMaxSubs, std::vector<std::uint64_t>(st.topicNames.size(), 0));
  std::vector<std::vector<md::StreamPos>> lastPos(
      kMaxSubs, std::vector<md::StreamPos>(st.topicNames.size()));
  SpanLog& spans = st.subSpans;
  epoll_event events[8];
  std::int64_t nextTick = 0;
  while (!st.stopReaders.load(std::memory_order_acquire)) {
    const int n = epoll_wait(ep, events, 8, 1);
    for (int e = 0; e < n; ++e) {
      const std::uint32_t tag = events[e].data.u32;
      Conn& conn = tag == kPubTag ? d.pub : tag == kRecoverTag ? d.recovering : d.subs[tag];
      const bool traced = spans.enabled() && tag < kMaxSubs;
      const std::int64_t readStart = traced ? NowNs() : 0;
      if (!conn.ReadNow()) {
        st.faults.Add("client connection closed by the engine", tag);
        epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd(), nullptr);
        continue;
      }
      const std::int64_t now = NowNs();
      std::size_t readSpan = 0;
      if (traced) {
        readSpan = spans.Begin(kSpanRead, 0, 0, readStart);
        spans.End(readSpan, now);
      }
      while (true) {
        bool bad = false;
        const std::size_t decodeSpan =
            traced ? spans.Begin(kSpanDecodeDeliver, spans.IdOf(readSpan), 0, NowNs()) : 0;
        auto frame = conn.NextFrame(&bad);
        if (traced) {
          if (frame) {
            spans.End(decodeSpan, NowNs());
          } else {
            spans.DiscardLast();
          }
        }
        if (bad) st.faults.Add("undecodable frame from the engine", tag);
        if (!frame) break;
        if (tag == kRecoverTag) {
          resumer->OnFrame(*frame, now);
        } else if (tag == kPubTag) {
          if (const auto* ack = std::get_if<md::PubAckFrame>(&*frame)) {
            HandleAck(st, *ack, now, resumer.get());
          } else {
            st.faults.Add("unexpected frame on the publisher connection", 0);
          }
        } else if (const auto* del = std::get_if<md::DeliverFrame>(&*frame)) {
          CheckDeliver(st, static_cast<int>(tag), del->msg, now, lastCounter[tag], lastPos[tag]);
        } else {
          st.faults.Add("unexpected frame on a subscriber connection", tag);
        }
      }
    }
    if (resumer) {
      const std::int64_t now = NowNs();
      if (now >= nextTick) {
        resumer->Tick(now);
        nextTick = now + kMs;
      }
    }
  }
  close(ep);
}

// ---------------------------------------------------------------------------
// Sending and draining
// ---------------------------------------------------------------------------

void SleepUntil(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void EncodePublish(RunState& st, std::uint64_t c, md::Bytes& wire) {
  const Pub& p = st.pubs[c];
  md::PublishFrame pub;
  pub.topic = st.topicNames[p.topic];
  pub.pubId = md::PublicationId{kPubHash, c};
  pub.wantAck = true;
  pub.publishTs = st.Intended(c);
  FillPayload(c, pub.publishTs, p.size, pub.payload);
  md::EncodeFramed(pub, wire);
}

/// Sends phase `index` on its schedule: whatever is due goes out in one
/// write, stamped with its intended time; the schedule never waits for the
/// engine.
bool SendPhase(RunState& st, Deployment& d, std::size_t index,
               const std::function<void(std::uint64_t)>& atWindow = {}) {
  Phase& ph = st.phases[index];
  const std::int64_t base = NowNs() + 2 * kMs;
  ph.base.store(base, std::memory_order_release);
  st.currentPhase.store(static_cast<int>(index), std::memory_order_relaxed);
  ph.lateness.reserve(ph.end - ph.first);
  SpanLog& spans = st.sendSpans;
  md::Bytes wire;
  std::uint64_t c = ph.first;
  const std::uint64_t windowLen = std::max<std::uint64_t>(1, (ph.end - ph.first) / kWindows);
  std::uint64_t nextWindow = ph.first;
  while (c < ph.end) {
    if (atWindow && c >= nextWindow) {
      atWindow(c);
      nextWindow += windowLen;
    }
    const std::int64_t now = NowNs();
    if (base + st.pubs[c].offset > now) {
      SleepUntil(base + st.pubs[c].offset);
      continue;
    }
    wire.clear();
    const bool traced = spans.enabled();
    const std::size_t batch = traced ? spans.Begin(kSpanSendBatch, 0, c, now) : 0;
    while (c < ph.end && base + st.pubs[c].offset <= now && wire.size() < 256 * 1024) {
      ph.lateness.push_back(now - (base + st.pubs[c].offset));
      if (traced) {
        const std::size_t enc = spans.Begin(kSpanEncodePublish, spans.IdOf(batch), c, NowNs());
        EncodePublish(st, c, wire);
        spans.End(enc, NowNs());
      } else {
        EncodePublish(st, c, wire);
      }
      ++c;
    }
    const std::size_t w = traced ? spans.Begin(kSpanWrite, spans.IdOf(batch), c, NowNs()) : 0;
    if (!d.pub.WriteAll(md::BytesView(wire))) {
      st.faults.Add("publisher write failed", c);
      return false;
    }
    if (traced) {
      const std::int64_t t = NowNs();
      spans.End(w, t);
      spans.End(batch, t);
    }
  }
  return true;
}

/// Closed-loop phase: keeps `window` publishes in flight for `seconds`, as
/// fast as the engine acks them. Must be the last phase of the schedule: it
/// truncates itself to what was sent. Returns the wall time of the first
/// send.
std::int64_t SendSaturated(RunState& st, Deployment& d, std::size_t index,
                           std::uint64_t window, double seconds) {
  Phase& ph = st.phases[index];
  const std::int64_t start = NowNs();
  ph.base.store(start, std::memory_order_release);
  st.currentPhase.store(static_cast<int>(index), std::memory_order_relaxed);
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  md::Bytes wire;
  std::uint64_t c = ph.first;
  while (c < ph.end && NowNs() < stop) {
    const std::uint64_t done = ph.acked.load(std::memory_order_acquire) +
                               ph.nacked.load(std::memory_order_acquire);
    const std::uint64_t inflight = (c - ph.first) - done;
    if (inflight >= window) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    wire.clear();
    for (std::uint64_t k = 0; k < std::min<std::uint64_t>(window - inflight, 64) && c < ph.end; ++k) {
      EncodePublish(st, c++, wire);
    }
    if (!d.pub.WriteAll(md::BytesView(wire))) {
      st.faults.Add("publisher write failed", c);
      break;
    }
  }
  ph.end = c;
  ph.expected = {};
  for (std::uint64_t k = ph.first; k < ph.end; ++k) {
    for (int s = 0; s < st.shape.subscribers; ++s) {
      if (st.subscribed[static_cast<std::size_t>(s)][st.pubs[k].topic]) ++ph.expected[static_cast<std::size_t>(s)];
    }
  }
  return start;
}

/// Waits until every publish of the phase is acked (or nacked) and every
/// subscriber holds every delivery it is owed, or `timeoutMs` passes.
bool Drain(RunState& st, std::size_t index, int timeoutMs) {
  Phase& ph = st.phases[index];
  const std::uint64_t n = ph.end - ph.first;
  const std::int64_t deadline = NowNs() + std::int64_t{timeoutMs} * kMs;
  while (true) {
    bool done = ph.acked.load(std::memory_order_acquire) +
                    ph.nacked.load(std::memory_order_acquire) >= n;
    if (done) {
      std::array<std::uint64_t, kMaxSubs> owed = ph.expected;
      if (ph.nacked.load() != 0) {
        for (std::uint64_t c = ph.first; c < ph.end; ++c) {
          if (st.nacked[c].load() == 0) continue;
          for (int s = 0; s < st.shape.subscribers; ++s) {
            if (st.subscribed[static_cast<std::size_t>(s)][st.pubs[c].topic]) --owed[static_cast<std::size_t>(s)];
          }
        }
      }
      for (int s = 0; s < st.shape.subscribers; ++s) {
        const auto i = static_cast<std::size_t>(s);
        if (ph.delivered[i].load(std::memory_order_acquire) < owed[i]) done = false;
      }
    }
    if (done) return true;
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

/// Forgets everything received for phase `index` (a replaced deployment).
void ResetPhase(RunState& st, std::size_t index) {
  Phase& ph = st.phases[index];
  ph.base.store(0);
  ph.acked.store(0);
  ph.nacked.store(0);
  for (auto& n : ph.delivered) n.store(0);
  ph.lateness.clear();
  for (std::uint64_t c = ph.first; c < ph.end; ++c) {
    st.ackNs[c].store(0);
    st.nacked[c].store(0);
    for (int s = 0; s < st.shape.subscribers; ++s) {
      st.deliverNs[static_cast<std::size_t>(s)][c].store(0);
    }
  }
}

/// Re-sends nacked publishes of a set-up phase (cluster groups elect their
/// coordinator on first use; a lost race is nacked and retried, like the
/// client library does) until all are acked.
bool PrimeUntilAcked(RunState& st, Deployment& d, std::size_t index) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (Drain(st, index, 10000) && st.phases[index].nacked.load() == 0) return true;
    Phase& ph = st.phases[index];
    md::Bytes wire;
    for (std::uint64_t c = ph.first; c < ph.end; ++c) {
      if (st.nacked[c].exchange(0) == 0) continue;
      ph.nacked.fetch_sub(1);
      EncodePublish(st, c, wire);
    }
    if (wire.empty()) {
      std::fprintf(stderr, "pb_gen: priming stalled: %" PRIu64 " of %" PRIu64
                   " acked, %" PRIu64 "/%" PRIu64 "/%" PRIu64 " delivered\n",
                   ph.acked.load(), ph.end - ph.first, ph.delivered[0].load(),
                   ph.delivered[1].load(), ph.delivered[2].load());
      return false;  // timed out without nacks
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (!d.pub.WriteAll(md::BytesView(wire))) return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

struct Latencies {
  std::vector<std::int64_t> ack;
  std::vector<std::int64_t> deliver;
  std::uint64_t missing = 0;  // acked but never delivered, or never acked
};

Latencies Collect(RunState& st, std::size_t index) {
  Latencies out;
  const Phase& ph = st.phases[index];
  const std::int64_t base = ph.base.load();
  for (std::uint64_t c = ph.first; c < ph.end; ++c) {
    const std::int64_t intended = base + st.pubs[c].offset;
    const std::int64_t ack = st.ackNs[c].load(std::memory_order_relaxed);
    if (ack == 0) {
      ++out.missing;
      continue;
    }
    out.ack.push_back(ack - intended);
    for (int s = 0; s < st.shape.subscribers; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (!st.subscribed[i][st.pubs[c].topic]) continue;
      const std::int64_t del = st.deliverNs[i][c].load(std::memory_order_relaxed);
      if (del == 0) {
        ++out.missing;
      } else {
        out.deliver.push_back(del - intended);
      }
    }
  }
  return out;
}

/// On-CPU time (user + system) of every engine thread, in ns, from
/// /proc/<pid>/task/<tid>/schedstat.
/// Median over the phase's windows of each window's delivery p50.
double WindowMedianP50(RunState& st, std::size_t index) {
  const Phase& ph = st.phases[index];
  const std::uint64_t n = ph.end - ph.first;
  std::vector<std::vector<std::int64_t>> windows(kWindows);
  for (std::uint64_t c = ph.first; c < ph.end; ++c) {
    const std::int64_t intended = ph.base.load() + st.pubs[c].offset;
    auto& w = windows[std::min<std::uint64_t>(kWindows - 1, (c - ph.first) * kWindows / n)];
    for (int s = 0; s < st.shape.subscribers; ++s) {
      const std::int64_t del = st.deliverNs[static_cast<std::size_t>(s)][c].load();
      if (del != 0) w.push_back(del - intended);
    }
  }
  std::vector<std::int64_t> p50s;
  for (auto& w : windows) {
    if (!w.empty()) p50s.push_back(static_cast<std::int64_t>(Percentile(w, 0.5)));
  }
  return Percentile(p50s, 0.5);
}

std::int64_t EngineCpuNs(const Deployment& d) {
  std::int64_t total = 0;
  for (const auto& e : d.engines) {
    std::error_code ec;
    const std::string dir = "/proc/" + std::to_string(e->pid()) + "/task";
    for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
      std::ifstream in(task.path() / "schedstat");
      std::int64_t ns = 0;
      if (in >> ns) total += ns;
    }
  }
  return total;
}

double PeakRssMb(const Deployment& d) {
  double kb = 0;
  for (const auto& e : d.engines) {
    std::ifstream in("/proc/" + std::to_string(e->pid()) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) kb += std::stod(line.substr(6));
    }
  }
  return kb / 1024.0;
}

/// Histogram cells: upper grid bound (ns) -> samples (see engine.cpp).
using Cells = std::map<std::int64_t, double>;

/// Engine registry samples: "name{labels}" -> value, and histogram cells
/// keyed by "name{labels}" and by family name alone; all summed over
/// members (and, for the family name, over its children).
struct EngineMetrics {
  std::map<std::string, double> values;
  std::map<std::string, Cells> histograms;

  [[nodiscard]] double Sum(const std::string& prefix) const {
    double total = 0;
    for (const auto& [k, v] : values) {
      if (k.rfind(prefix, 0) == 0) total += v;
    }
    return total;
  }
};

EngineMetrics ScrapeEngines(Deployment& d) {
  EngineMetrics m;
  for (auto& e : d.engines) {
    e->Command("metrics");
    while (auto line = e->ReadLine(5000)) {
      if (*line == "END") break;
      std::vector<std::string> f;
      std::stringstream ss(*line);
      std::string item;
      while (std::getline(ss, item, '\t')) f.push_back(item);
      if (f.size() == 4 && f[0] == "S") {
        // Unlabelled aggregates duplicate the per-server children; keep
        // the labelled child when present.
        m.values[f[1] + "{" + f[2] + "}"] += std::stod(f[3]);
      } else if (f.size() == 4 && f[0] == "H") {
        Cells& labelled = m.histograms[f[1] + "{" + f[2] + "}"];
        Cells& family = m.histograms[f[1]];
        std::stringstream cells(f[3]);
        std::string cell;
        while (std::getline(cells, cell, ',')) {
          const auto colon = cell.find(':');
          if (colon == std::string::npos) continue;
          const std::int64_t bound = std::stoll(cell.substr(0, colon));
          const double n = std::stod(cell.substr(colon + 1));
          labelled[bound] += n;
          family[bound] += n;
        }
      }
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

void InitState(RunState& st) {
  const Shape& s = st.shape;
  st.rng = md::Rng(st.opt.seed);
  for (int t = 0; t < s.topics; ++t) st.topicNames.push_back(s.prefix + std::to_string(t));
  st.topicPubs.resize(static_cast<std::size_t>(s.topics));
  st.lastOnTopic.assign(static_cast<std::size_t>(s.topics), 0);
  st.subscribed.assign(kMaxSubs, std::vector<std::uint8_t>(static_cast<std::size_t>(s.topics), 0));
  for (int i = 0; i < s.subscribers; ++i) {
    auto& mask = st.subscribed[static_cast<std::size_t>(i)];
    if (s.subsetTopics == 0) {
      std::fill(mask.begin(), mask.end(), 1);
    } else {
      for (int picked = 0; picked < s.subsetTopics;) {
        const auto t = st.rng.NextBelow(static_cast<std::uint64_t>(s.topics));
        if (mask[t] == 0) {
          mask[t] = 1;
          ++picked;
        }
      }
    }
  }
}

void AllocateReceiveArrays(RunState& st) {
  const std::size_t n = st.pubs.size();
  st.ackNs.reset(new std::atomic<std::int64_t>[n]());
  st.nacked.reset(new std::atomic<std::uint8_t>[n]());
  for (int i = 0; i < st.shape.subscribers; ++i) {
    st.deliverNs[static_cast<std::size_t>(i)].reset(new std::atomic<std::int64_t>[n]());
  }
}

/// JSON number with every digit the double holds.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

int Main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  RunState st;
  if (!ParseOptions(argc, argv, &st.opt)) {
    std::fprintf(stderr, "usage: see the header comment of perfbench/gen.cpp\n");
    return 2;
  }
  const auto shape = ShapeOf(st.opt.workload);
  if (!shape) {
    std::fprintf(stderr, "pb_gen: unknown workload %s\n", st.opt.workload.c_str());
    return 2;
  }
  st.shape = *shape;
  std::filesystem::create_directories(st.opt.workdir);
  InitState(st);
  const Options& opt = st.opt;
  const bool traced = opt.trace != 0;

  // Schedule. Phase 0 primes one publish per topic (at most 100 topics);
  // phase 1 warms up at the high rate; the measured phases follow.
  TopicPicker picker(st);
  std::vector<std::uint32_t> primeTopics;
  for (std::uint32_t t = 0; t < std::min<std::uint32_t>(100, static_cast<std::uint32_t>(st.shape.topics)); ++t) {
    primeTopics.push_back(st.shape.topics > 100
                              ? static_cast<std::uint32_t>(st.rng.NextBelow(static_cast<std::uint64_t>(st.shape.topics)))
                              : t);
  }
  std::sort(primeTopics.begin(), primeTopics.end());
  primeTopics.erase(std::unique(primeTopics.begin(), primeTopics.end()), primeTopics.end());
  AddPhase(st, picker, "prime", 1000, 0, false, &primeTopics);
  AddPhase(st, picker, "warm", opt.highRate, std::min(1.0, 0.1 * opt.seconds), true);
  // Trace 0 spends the run on .low and .high; trace 1 splits it between
  // .low, .high without and with spans, the capacity ladder and the layer
  // replays.
  const double S = opt.seconds;
  const std::size_t lowPhase = st.phases.size();
  AddPhase(st, picker, "low", opt.lowRate, (traced ? 0.15 : 0.2) * S, true);
  const std::size_t plainPhase = st.phases.size();
  // Without a saturation phase, trace 0 gives its share to .high.
  const double highShare = traced ? 0.15 : opt.saturationPublishes > 0 ? 0.3 : 0.7;
  AddPhase(st, picker, traced ? "high_untraced" : "high", opt.highRate, highShare * S, true);
  const std::size_t highPhase = traced ? st.phases.size() : plainPhase;
  std::vector<std::size_t> ladderPhases;
  const std::size_t satPhase = st.phases.size();
  if (!traced && opt.saturationPublishes > 0) {
    // A fixed amount of work, sent as fast as the engine acks it (capped
    // at 60% of the run); its schedule offsets are nominal.
    const double n = static_cast<double>(opt.saturationPublishes);
    AddPhase(st, picker, "saturation", n, 1, true).closedLoop = true;
  } else {
    AddPhase(st, picker, "high_traced", opt.highRate, 0.15 * S, true);
    for (std::size_t i = 0; i < opt.ladder.size(); ++i) {
      ladderPhases.push_back(st.phases.size());
      AddPhase(st, picker, "ladder" + std::to_string(i), opt.ladder[i],
               0.2 * S / static_cast<double>(opt.ladder.size()), true);
    }
  }
  AllocateReceiveArrays(st);

  // Set-up, repeated; the last deployment carries the traffic.
  std::vector<double> setups;
  auto dep = SetUpPlaced(st, traced ? 1 : kSetups, 0, &setups);
  if (!dep) return 1;
  // Priming elects the cluster's group coordinators. A deployment whose
  // priming stalls (a publish not acked, or not delivered to every
  // subscriber, within 10 s) is replaced, at most twice. That is an engine fault before the
  // measured phases; it is reported as bench.priming_stalls, not hidden.
  std::thread reader([&] { ReaderLoop(st, *dep); });
  bool ok = SendPhase(st, *dep, 0) && PrimeUntilAcked(st, *dep, 0);
  int primingStalls = 0;
  while (!ok && primingStalls < 2) {
    ++primingStalls;
    st.stopReaders.store(true, std::memory_order_release);
    reader.join();
    dep->TearDown();
    ResetPhase(st, 0);
    st.stopReaders.store(false, std::memory_order_release);
    std::vector<double> retrySetups;
    dep = SetUpPlaced(st, 1, 100 * primingStalls, &retrySetups);
    if (!dep) return 1;
    reader = std::thread([&] { ReaderLoop(st, *dep); });
    ok = SendPhase(st, *dep, 0) && PrimeUntilAcked(st, *dep, 0);
  }
  Deployment& d = *dep;
  ok = ok && SendPhase(st, d, 1) && Drain(st, 1, 10000);

  std::map<std::string, double> metrics;
  std::map<std::string, double> extra;
  EngineMetrics before;
  EngineMetrics after;
  double capacity = 0;
  ok = ok && SendPhase(st, d, lowPhase) && Drain(st, lowPhase, 10000);
  std::vector<std::pair<std::uint64_t, std::int64_t>> cpuMarks;  // (counter, cpu ns)
  ok = ok && SendPhase(st, d, plainPhase, [&](std::uint64_t c) {
    cpuMarks.emplace_back(c, EngineCpuNs(d));
  });
  ok = ok && Drain(st, plainPhase, 10000);
  cpuMarks.emplace_back(st.phases[plainPhase].end, EngineCpuNs(d));
  std::vector<std::int64_t> cpuPerPub;  // ps per publish, per window
  for (std::size_t i = 1; i < cpuMarks.size(); ++i) {
    const auto pubs = static_cast<std::int64_t>(cpuMarks[i].first - cpuMarks[i - 1].first);
    if (pubs > 0) cpuPerPub.push_back((cpuMarks[i].second - cpuMarks[i - 1].second) * 1000 / pubs);
  }
  std::size_t measuredPhaseEnd = plainPhase + 1;
  double saturation = 0;
  double satCpuPerPub = 0;
  if (ok && !traced && opt.saturationPublishes > 0) {
    const std::int64_t cpu0 = EngineCpuNs(d);
    const std::int64_t start = SendSaturated(st, d, satPhase, kSaturationWindow, 0.6 * S);
    ok = Drain(st, satPhase, 10000);
    satCpuPerPub = static_cast<double>(EngineCpuNs(d) - cpu0) / 1e3;
    measuredPhaseEnd = satPhase + 1;
    const Phase& ph = st.phases[satPhase];
    std::int64_t lastAck = start;
    for (std::uint64_t c = ph.first; c < ph.end; ++c) lastAck = std::max(lastAck, st.ackNs[c].load());
    const double pubs = static_cast<double>(ph.end - ph.first);
    saturation = pubs / (static_cast<double>(lastAck - start) / 1e9);
    satCpuPerPub /= std::max(1.0, pubs);
  }
  if (ok && traced) {
    before = ScrapeEngines(d);
    st.sendSpans.Reserve(1'000'000);
    st.subSpans.Reserve(1'000'000);
    st.sendSpans.Enable(true);
    st.subSpans.Enable(true);
    ok = SendPhase(st, d, highPhase) && Drain(st, highPhase, 10000);
    st.sendSpans.Enable(false);
    st.subSpans.Enable(false);
    after = ScrapeEngines(d);
    measuredPhaseEnd = highPhase + 1;
    // Capacity: the untraced .high phase and then each ladder rung, until a
    // rung breaks the latency limit, the generator falls behind, or a
    // message goes missing; capacity is the acked rate of the last rung
    // that held.
    std::vector<std::size_t> rungs = {plainPhase};
    rungs.insert(rungs.end(), ladderPhases.begin(), ladderPhases.end());
    for (std::size_t r = 0; r < rungs.size() && ok; ++r) {
      const std::size_t p = rungs[r];
      if (r > 0) {
        ok = SendPhase(st, d, p);
        const bool drained = Drain(st, p, 15000);
        ok = ok && drained;
        measuredPhaseEnd = p + 1;
      }
      Latencies lat = Collect(st, p);
      Phase& ph = st.phases[p];
      const double limit = opt.limitMs * 1e6;
      const bool held = lat.missing == 0 && Percentile(lat.ack, 0.99) <= limit &&
                        Percentile(lat.deliver, 0.99) <= limit &&
                        Percentile(ph.lateness, 0.99) <= limit;
      extra["ladder_rung" + std::to_string(r) + "_held"] = held ? 1 : 0;
      if (!held) break;
      std::int64_t lastAck = 0;
      for (std::uint64_t c = ph.first; c < ph.end; ++c) {
        lastAck = std::max(lastAck, st.ackNs[c].load());
      }
      capacity = static_cast<double>(ph.end - ph.first) /
                 (static_cast<double>(lastAck - ph.base.load()) / 1e9);
    }
  }
  const double rssMb = PeakRssMb(d);

  // Stop the readers, then the clients and engines.
  st.stopReaders.store(true, std::memory_order_release);
  reader.join();
  d.TearDown();

  // Failure accounting over every measured phase that was sent.
  std::uint64_t attempted = st.resumeOps;
  std::uint64_t failed = st.faults.count.load();
  for (std::size_t p = 1; p < measuredPhaseEnd; ++p) {
    const Phase& ph = st.phases[p];
    if (!ph.measured || ph.base.load() == 0) continue;
    attempted += ph.end - ph.first;
    for (std::uint64_t c = ph.first; c < ph.end; ++c) {
      if (st.ackNs[c].load() == 0) {
        ++failed;  // nacked or ack timeout
        continue;
      }
      for (int s = 0; s < st.shape.subscribers; ++s) {
        const auto i = static_cast<std::size_t>(s);
        if (st.subscribed[i][st.pubs[c].topic] && st.deliverNs[i][c].load() == 0) ++failed;
      }
    }
  }
  if (!ok) ++failed;

  const auto ms = [](double ns) { return ns / 1e6; };
  std::vector<std::int64_t> resumeHigh;
  for (const auto& [phase, ns] : st.resumeLatency) {
    if (static_cast<std::size_t>(phase) == plainPhase) resumeHigh.push_back(ns);
  }
  std::vector<std::int64_t> lateAll;
  for (std::size_t p = 1; p < measuredPhaseEnd; ++p) {
    lateAll.insert(lateAll.end(), st.phases[p].lateness.begin(), st.phases[p].lateness.end());
  }
  metrics["bench.gen_late_p99_us"] = Percentile(lateAll, 0.99) / 1e3;
  metrics["failed_share"] =
      attempted == 0 ? 1 : static_cast<double>(failed) / static_cast<double>(attempted);
  extra["resume_ops"] = static_cast<double>(st.resumeOps);
  metrics["resume_p50_ms"] = ms(Percentile(resumeHigh, 0.5));
  metrics["resume_p99_ms"] = ms(Percentile(resumeHigh, 0.99));
  extra["resume_samples"] = static_cast<double>(resumeHigh.size());

  std::vector<double> sortedSetups = setups;
  std::sort(sortedSetups.begin(), sortedSetups.end());
  metrics["setup_s"] = sortedSetups[sortedSetups.size() / 2];
  Latencies low = Collect(st, lowPhase);
  Latencies high = Collect(st, plainPhase);
  extra["samples_deliver.low"] = static_cast<double>(low.deliver.size());
  extra["samples_deliver.high"] = static_cast<double>(high.deliver.size());
  metrics["deliver_p50_ms.low"] = ms(WindowMedianP50(st, lowPhase));
  metrics["deliver_p99_ms.low"] = ms(Percentile(low.deliver, 0.99));
  metrics["bench.priming_stalls"] = primingStalls;
  extra["ack_p50_ms.low"] = ms(Percentile(low.ack, 0.5));
  extra["ack_p99_ms.low"] = ms(Percentile(low.ack, 0.99));
  metrics["deliver_p50_ms.high"] = ms(WindowMedianP50(st, plainPhase));
  metrics["deliver_p99_ms.high"] = ms(Percentile(high.deliver, 0.99));
  metrics["ack_p50_ms.high"] = ms(Percentile(high.ack, 0.5));
  metrics["ack_p99_ms.high"] = ms(Percentile(high.ack, 0.99));
  // Engine CPU (user + system) per publish: the median over the .high
  // windows, or over the saturation phase where .high is bistable.
  metrics["server_cpu_us_per_pub.high"] = Percentile(cpuPerPub, 0.5) / 1e6;
  metrics["server_cpu_us_per_pub"] =
      opt.saturationPublishes > 0 ? satCpuPerPub : metrics["server_cpu_us_per_pub.high"];
  if (saturation > 0) metrics["saturation_pub_per_s"] = saturation;
  metrics["server_peak_rss_mb"] = rssMb;
  extra["gen_late_p99_us.low"] = Percentile(st.phases[lowPhase].lateness, 0.99) / 1e3;
  extra["gen_late_p99_us.high"] = Percentile(st.phases[plainPhase].lateness, 0.99) / 1e3;
  if (traced) {
    metrics["capacity_pub_per_s"] = capacity;
    // Engine counters over the traced phase.
    const double pubs = static_cast<double>(st.phases[highPhase].end - st.phases[highPhase].first);
    const auto delta = [&](const std::string& prefix) { return after.Sum(prefix) - before.Sum(prefix); };
    const double delivered = std::max(1.0, delta("md_core_delivered_total{server=") +
                                               delta("md_cluster_delivered_total{"));
    metrics["transport.posts_per_publish"] = delta("md_transport_tasks_posted_total{") / pubs;
    metrics["transport.syscalls_per_delivery"] =
        (delta("md_transport_syscalls_total{op=\"send\"}") + delta("md_transport_syscalls_total{op=\"sendmsg\"}")) / delivered;
    metrics["transport.copy_bytes_per_delivery"] = delta("md_transport_copy_bytes_total{") / delivered;
    metrics["transport.loop_iterations_per_publish"] = delta("md_transport_loop_iterations_total{") / pubs;
    metrics["core.delivered_per_publish"] = delivered / pubs;
    metrics["core.slow_consumer.soft_overflows"] = delta("md_slow_consumer_soft_overflows_total{server=");
    metrics["wal.fsyncs_per_publish"] = delta("md_wal_fsyncs_total{server=") / pubs;
    metrics["wal.bytes_per_publish"] = delta("md_wal_append_bytes_total{server=") / pubs;
    metrics["cluster.forwarded_per_publish"] = delta("md_cluster_forwarded_total{") / pubs;
    metrics["coord.elections"] = after.Sum("md_coord_elections_total{");
    // Histogram percentiles (us) of the samples recorded between two
    // scrapes; `from` == nullptr means since the engines started.
    const auto hist = [&](const EngineMetrics* from, const std::string& key, double q) {
      const auto it = after.histograms.find(key);
      if (it == after.histograms.end()) return 0.0;
      Cells cells = it->second;
      if (from != nullptr) {
        const auto was = from->histograms.find(key);
        if (was != from->histograms.end()) {
          for (const auto& [bound, n] : was->second) cells[bound] -= n;
        }
      }
      double total = 0;
      for (const auto& [bound, n] : cells) total += n;
      if (total <= 0) return 0.0;
      double seen = 0;
      for (const auto& [bound, n] : cells) {
        seen += n;
        if (n > 0 && seen >= std::ceil(q * total)) return static_cast<double>(bound) / 1e3;
      }
      return static_cast<double>(cells.rbegin()->first) / 1e3;
    };
    // Stage and replication-ack latencies cover the traced .high phase only.
    for (const char* stage : {"sequenced", "cached", "fanned_out", "socket_written"}) {
      const std::string key = std::string("md_trace_stage_ns{domain=\"wall\",stage=\"") + stage + "\"}";
      metrics[std::string("core.stage.") + stage + "_p50_us"] = hist(&before, key, 0.5);
      metrics[std::string("core.stage.") + stage + "_p99_us"] = hist(&before, key, 0.99);
    }
    metrics["core.stage.end_to_end_p50_us"] = hist(&before, "md_trace_end_to_end_ns{domain=\"wall\"}", 0.5);
    metrics["core.stage.end_to_end_p99_us"] = hist(&before, "md_trace_end_to_end_ns{domain=\"wall\"}", 0.99);
    metrics["cluster.replication_ack_p50_us"] = hist(&before, "md_cluster_replication_ack_ns", 0.5);
    metrics["cluster.replication_ack_p99_us"] = hist(&before, "md_cluster_replication_ack_ns", 0.99);
    // MiniZK writes happen at set-up and priming (elections, group
    // takeovers), so this one covers the whole run, like coord.elections.
    metrics["coord.write_p50_us"] = hist(nullptr, "md_coord_write_ns", 0.5);

    // Tracing overhead: the same .high rate with and without spans.
    Latencies withSpans = Collect(st, highPhase);
    const double plainP50 = Percentile(high.deliver, 0.5);
    const double spanP50 = Percentile(withSpans.deliver, 0.5);
    metrics["bench.trace_overhead_ms"] = ms(spanP50 - plainP50);
    extra["deliver_p50_ms.high_traced"] = ms(spanP50);

    // Self time of the generator's own calls into proto and transport.
    std::map<std::string, std::uint64_t> counts;
    std::vector<std::vector<Span>*> logs;
    std::vector<Span> sendCopy = st.sendSpans.spans();
    std::vector<Span> subCopy = st.subSpans.spans();
    logs = {&sendCopy, &subCopy};
    const auto self = SelfTimeNs(logs, &counts);
    const auto perCall = [&](const std::string& name) {
      const auto it = self.find(name);
      const auto n = counts[name];
      return it == self.end() || n == 0 ? 0.0 : it->second / static_cast<double>(n);
    };
    metrics["gen.encode_publish_ns"] = perCall("proto.encode_publish");
    metrics["gen.decode_deliver_ns"] = perCall("proto.decode_deliver");
    metrics["gen.write_ns_per_batch"] = perCall("transport.write");
    {
      std::ofstream out(opt.workdir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".tsv");
      out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
      for (const auto* log : logs) {
        for (const Span& s : *log) {
          out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << kSpanNames[s.name]
              << '\t' << s.start << '\t' << s.end << '\n';
        }
      }
    }

    // Layer replays on this workload's inputs.
    LedgerInput in;
    in.topics = st.topicNames;
    for (std::uint64_t c = st.phases[highPhase].first; c < st.phases[highPhase].end && in.payloadSizes.size() < 4096; ++c) {
      in.payloadSizes.push_back(st.pubs[c].size);
    }
    in.subscribersPerTopic = st.shape.subsetTopics == 0 ? static_cast<std::size_t>(st.shape.subscribers) : 1;
    in.connections = static_cast<std::size_t>(st.shape.subscribers) + (st.shape.recovering ? 2 : 1);
    in.wal = st.shape.wal;
    in.walDir = opt.workdir + "/ledger-wal-" + std::to_string(getpid());
    in.lowSpacingNs = static_cast<std::int64_t>(1e9 / opt.lowRate);
    in.seed = opt.seed;
    in.budgetSeconds = 0.25 * opt.seconds;
    for (const auto& [k, v] : RunLedger(in)) metrics[k] = v;
    std::error_code ec;
    std::filesystem::remove_all(in.walDir, ec);
  }

  // Result line.
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    json += (first ? "\"" : ", \"") + Escape(k) + "\": " + Num(v);
    first = false;
  }
  json += "}, \"extra\": {";
  first = true;
  for (const auto& [k, v] : extra) {
    json += (first ? "\"" : ", \"") + Escape(k) + "\": " + Num(v);
    first = false;
  }
  json += "}, \"setups_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) json += (i ? ", " : "") + Num(setups[i]);
  json += "]}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
