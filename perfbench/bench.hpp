// Shared pieces of the benchmark generator: percentiles, in-memory spans
// and the per-layer ledger's input.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double Percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

/// One recorded span: a call the benchmark made into a layer. `parent` is
/// the id of the span that caused it (0 = none); spans of one request share
/// `request` (a publish counter, or 0 for replays).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  std::uint16_t name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Per-thread span buffer; never shared between threads while recording.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t idBase) : next_(idBase) {}

  void Reserve(std::size_t n) { spans_.reserve(n); }
  /// Toggled by the orchestrating thread while the owner records.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }
  void Enable(bool on) noexcept { enabled_.store(on, std::memory_order_release); }

  /// Opens a span and returns its index (close it with End).
  std::size_t Begin(std::uint16_t name, std::uint32_t parent, std::uint64_t request,
                    std::int64_t now) {
    spans_.push_back(Span{next_++, parent, request, name, now, 0});
    return spans_.size() - 1;
  }
  void End(std::size_t index, std::int64_t now) { spans_[index].end = now; }
  void DiscardLast() { spans_.pop_back(); }
  [[nodiscard]] std::uint32_t IdOf(std::size_t index) const { return spans_[index].id; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::atomic<bool> enabled_{false};
  std::uint32_t next_;
  std::vector<Span> spans_;
};

/// Span names (indices into kSpanNames).
enum SpanName : std::uint16_t {
  kSpanSendBatch = 0,   // sender: one batch of due publishes
  kSpanEncodePublish,   // proto: EncodeFramed of one publish (child of batch)
  kSpanWrite,           // transport: the send() syscall (child of batch)
  kSpanRead,            // transport: one recv() on a subscriber socket
  kSpanDecodeDeliver,   // proto: extracting one DELIVER (child of read)
  kSpanReplay,          // ledger: one block of replayed module calls
  kSpanNameCount,
};
inline constexpr const char* kSpanNames[kSpanNameCount] = {
    "gen.send_batch", "proto.encode_publish", "transport.write",
    "transport.read", "proto.decode_deliver", "ledger.replay"};

/// Self time per span name: duration minus the part its children cover.
std::map<std::string, double> SelfTimeNs(const std::vector<std::vector<Span>*>& logs,
                                         std::map<std::string, std::uint64_t>* counts);

/// What the layer replays need to mirror one workload's traffic.
struct LedgerInput {
  std::vector<std::string> topics;        // the workload's topic names
  std::vector<std::uint32_t> payloadSizes;  // drawn from its size mix
  std::size_t subscribersPerTopic = 1;    // fan-out per publish
  std::size_t connections = 4;            // live sessions in the engine
  bool wal = false;                       // WAL on, group fsync policy
  std::string walDir;                     // scratch directory for the WAL
  std::int64_t lowSpacingNs = 10'000'000;  // .low publish spacing
  std::uint64_t seed = 1;
  double budgetSeconds = 3;               // wall time the replays may take
};

/// Times the benchmark's own calls into each module's public functions on
/// the workload's inputs. Keys are per-layer metric names.
std::map<std::string, double> RunLedger(const LedgerInput& in);

}  // namespace pb
