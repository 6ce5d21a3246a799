// Ablation: batching and conflation (paper §4).
//
// The paper claims both techniques "significantly improve the vertical
// scalability for use cases where clients have to be updated at a high
// frequency" by reducing the number of I/O operations. This bench drives the
// real Batcher/Conflator components with a high-frequency update stream and
// reports I/O operations, bytes and added latency per configuration.
#include <cstdio>

#include "bench_support/table.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/batcher.hpp"
#include "proto/codec.hpp"

using namespace md;
using namespace md::core;

namespace {

constexpr int kMessagesPerSecond = 1000;  // a hot market-data style topic
constexpr int kSeconds = 60;
constexpr std::size_t kPayload = 140;

Message MakeMsg(int topicIdx, std::uint64_t seq) {
  Message m;
  m.topic = "hot/" + std::to_string(topicIdx);
  m.payload = Bytes(kPayload, static_cast<std::uint8_t>(seq));
  m.epoch = 1;
  m.seq = seq;
  return m;
}

struct RunStats {
  std::uint64_t messagesIn = 0;
  std::uint64_t ioOps = 0;
  std::uint64_t bytesOut = 0;
  std::uint64_t messagesOut = 0;
  double meanAddedDelayMs = 0;
};

/// Unbatched baseline: one write per message.
RunStats RunUnbatched() {
  RunStats s;
  for (int sec = 0; sec < kSeconds; ++sec) {
    for (int i = 0; i < kMessagesPerSecond; ++i) {
      Bytes wire;
      EncodeFramed(Frame(DeliverFrame{MakeMsg(i % 10, static_cast<std::uint64_t>(i))}),
                   wire);
      ++s.messagesIn;
      ++s.messagesOut;
      ++s.ioOps;
      s.bytesOut += wire.size();
    }
  }
  return s;
}

RunStats RunBatched(Duration maxDelay, std::size_t maxBytes) {
  RunStats s;
  Histogram addedDelay;
  BatchConfig cfg;
  cfg.maxDelay = maxDelay;
  cfg.maxBytes = maxBytes;
  Batcher batcher(cfg, [&](WireBuffer flushed) { s.bytesOut += flushed->size(); });

  TimePoint lastEnqueue = 0;
  std::vector<TimePoint> pendingTimes;
  for (int sec = 0; sec < kSeconds; ++sec) {
    for (int i = 0; i < kMessagesPerSecond; ++i) {
      const TimePoint now =
          sec * kSecond + static_cast<TimePoint>(i) * kSecond / kMessagesPerSecond;
      // Drive time-based flushes as an event loop timer would.
      if (const auto deadline = batcher.Deadline(); deadline && now >= *deadline) {
        const std::uint64_t prevFlushes = batcher.FlushCount();
        batcher.OnTime(now);
        if (batcher.FlushCount() > prevFlushes) {
          for (const TimePoint t : pendingTimes) addedDelay.Record(*deadline - t);
          pendingTimes.clear();
        }
      }
      auto wire = AcquireWireBuffer();
      EncodeFramed(Frame(DeliverFrame{MakeMsg(i % 10, static_cast<std::uint64_t>(i))}),
                   *wire);
      ++s.messagesIn;
      ++s.messagesOut;
      const std::uint64_t prevFlushes = batcher.FlushCount();
      batcher.Enqueue(std::move(wire), now);
      pendingTimes.push_back(now);
      if (batcher.FlushCount() > prevFlushes) {
        for (const TimePoint t : pendingTimes) addedDelay.Record(now - t);
        pendingTimes.clear();
      }
      lastEnqueue = now;
    }
  }
  batcher.Flush();
  for (const TimePoint t : pendingTimes) addedDelay.Record(lastEnqueue - t);
  s.ioOps = batcher.FlushCount();
  s.meanAddedDelayMs = addedDelay.Mean() / static_cast<double>(kMillisecond);
  return s;
}

RunStats RunConflated(Duration interval) {
  RunStats s;
  Bytes wire;
  ConflateConfig cfg;
  cfg.interval = interval;
  Conflator conflator(cfg, [&](const Message& m) {
    wire.clear();
    EncodeFramed(Frame(DeliverFrame{m}), wire);
    ++s.messagesOut;
    ++s.ioOps;
    s.bytesOut += wire.size();
  });
  for (int sec = 0; sec < kSeconds; ++sec) {
    for (int i = 0; i < kMessagesPerSecond; ++i) {
      const TimePoint now =
          sec * kSecond + static_cast<TimePoint>(i) * kSecond / kMessagesPerSecond;
      conflator.OnTime(now);
      ++s.messagesIn;
      conflator.Offer(MakeMsg(i % 10, static_cast<std::uint64_t>(i)), now);
    }
  }
  conflator.Flush();
  s.meanAddedDelayMs = ToMillis(interval) / 2.0;  // uniform within the window
  return s;
}

void PrintRow(const char* name, const RunStats& s) {
  std::printf("%-26s %10llu %10llu %12llu %10llu %12.2f\n", name,
              static_cast<unsigned long long>(s.messagesIn),
              static_cast<unsigned long long>(s.messagesOut),
              static_cast<unsigned long long>(s.ioOps),
              static_cast<unsigned long long>(s.bytesOut),
              s.meanAddedDelayMs);
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation: batching & conflation (paper §4) ===\n"
      "Hot update stream: %d msgs/s for %d s, %zu B payloads, 10 topics.\n\n",
      kMessagesPerSecond, kSeconds, kPayload);
  std::printf("%-26s %10s %10s %12s %10s %12s\n", "Mode", "msgs-in", "msgs-out",
              "io-ops", "bytes-out", "added-ms");

  const RunStats unbatched = RunUnbatched();
  PrintRow("unbatched", unbatched);
  const RunStats batched10 = RunBatched(10 * kMillisecond, 64 * 1024);
  PrintRow("batched(10ms/64KB)", batched10);
  const RunStats batched50 = RunBatched(50 * kMillisecond, 64 * 1024);
  PrintRow("batched(50ms/64KB)", batched50);
  const RunStats conflated100 = RunConflated(100 * kMillisecond);
  PrintRow("conflated(100ms)", conflated100);
  const RunStats conflated1000 = RunConflated(1 * kSecond);
  PrintRow("conflated(1s)", conflated1000);

  const double reduction10 = static_cast<double>(unbatched.ioOps) /
                             static_cast<double>(batched10.ioOps);
  const double conflateReduction =
      static_cast<double>(conflated100.messagesIn) /
      static_cast<double>(conflated100.messagesOut);

  std::vector<md::bench::ShapeCheck> checks;
  checks.push_back({"batching reduces I/O ops by >= 5x at 10 ms budget", 0,
                    reduction10, reduction10 >= 5.0});
  checks.push_back({"batching adds bounded delay (<= budget)", 10.0,
                    batched10.meanAddedDelayMs,
                    batched10.meanAddedDelayMs <= 10.0});
  checks.push_back({"batching preserves every message", 0,
                    static_cast<double>(batched10.messagesOut),
                    batched10.messagesOut == unbatched.messagesOut});
  checks.push_back({"conflation compresses hot topics (>= 5x fewer messages)",
                    0, conflateReduction, conflateReduction >= 5.0});
  checks.push_back({"conflation also cuts bytes proportionally", 0,
                    static_cast<double>(unbatched.bytesOut) /
                        static_cast<double>(conflated100.bytesOut),
                    conflated100.bytesOut * 5 <= unbatched.bytesOut});
  md::bench::PrintShapeChecks(checks);
  return 0;
}
