// The per-layer ledger: times the benchmark's own calls into each module's
// public functions, replaying one workload's inputs (its topic names,
// payload-size mix, fan-out, connection count and WAL policy). Every replay
// goes through the same entry points the engine uses, so the checks inside
// them — WAL CRC framing, Cache::Append's duplicate rejection, the
// registry's copy-on-write snapshots — run exactly as they do in service.
//
// CPU-bound replays run in blocks; each block is one span and the reported
// figure is the median per-call time over blocks (robust to a block that
// was preempted). Wake-up replays post one item at the workload's .low
// spacing and report p50/p99 of post-to-run.
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/topic_intern.hpp"
#include "core/cache.hpp"
#include "core/registry.hpp"
#include "core/sequencer.hpp"
#include "core/session.hpp"
#include "net.hpp"
#include "proto/codec.hpp"
#include "proto/websocket.hpp"
#include "transport/epoll_loop.hpp"
#include "transport/wire.hpp"
#include "wal/env.hpp"
#include "wal/log.hpp"

namespace pb {

std::map<std::string, double> SelfTimeNs(const std::vector<std::vector<Span>*>& logs,
                                         std::map<std::string, std::uint64_t>* counts) {
  std::map<std::string, double> self;
  for (const std::vector<Span>* log : logs) {
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < log->size(); ++i) index[(*log)[i].id] = i;
    std::vector<double> covered(log->size(), 0);
    for (const Span& s : *log) {
      if (s.parent == 0) continue;
      const auto it = index.find(s.parent);
      if (it == index.end()) continue;
      const Span& p = (*log)[it->second];
      const std::int64_t overlap = std::min(s.end, p.end) - std::max(s.start, p.start);
      if (overlap > 0) covered[it->second] += static_cast<double>(overlap);
    }
    for (std::size_t i = 0; i < log->size(); ++i) {
      const Span& s = (*log)[i];
      if (s.end < s.start) continue;
      const std::string name = kSpanNames[s.name];
      self[name] += std::max(0.0, static_cast<double>(s.end - s.start) - covered[i]);
      ++(*counts)[name];
    }
  }
  return self;
}

namespace {

/// Runs `fn(i)` in `blocks` blocks of `perBlock` calls, one span per block,
/// and returns the median per-call time in ns.
template <typename Fn>
double TimeBlocks(SpanLog& spans, int blocks, int perBlock, Fn&& fn) {
  std::vector<std::int64_t> perCall;
  std::uint64_t i = 0;
  for (int b = 0; b < blocks; ++b) {
    const std::int64_t t0 = NowNs();
    const std::size_t span = spans.Begin(kSpanReplay, 0, 0, t0);
    for (int k = 0; k < perBlock; ++k) fn(i++);
    const std::int64_t t1 = NowNs();
    spans.End(span, t1);
    perCall.push_back((t1 - t0) * 1000 / perBlock);  // ns per call, x1000
  }
  return Percentile(perCall, 0.5) / 1000.0;
}

md::Message MakeMessage(const LedgerInput& in, std::size_t i, std::uint64_t seq) {
  md::Message m;
  m.topic = in.topics[i % in.topics.size()];
  m.payload.assign(in.payloadSizes[i % in.payloadSizes.size()], static_cast<std::uint8_t>(i));
  m.epoch = 1;
  m.seq = seq;
  m.pubId = md::PublicationId{42, i + 1};
  m.publishTs = static_cast<std::int64_t>(i);
  return m;
}

/// Post-to-run latency of `post(stamp)`; `post` must arrange for `ran` to
/// receive NowNs() - stamp on the other thread.
std::pair<double, double> WakeLatency(std::int64_t spacing, int samples,
                                      const std::function<void(std::int64_t, std::atomic<std::int64_t>*)>& post) {
  std::vector<std::atomic<std::int64_t>> out(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    post(NowNs(), &out[static_cast<std::size_t>(i)]);
    std::this_thread::sleep_for(std::chrono::nanoseconds(spacing));
  }
  std::vector<std::int64_t> v;
  for (auto& a : out) {
    const std::int64_t x = a.load();
    if (x > 0) v.push_back(x);
  }
  return {Percentile(v, 0.5) / 1e3, Percentile(v, 0.99) / 1e3};
}

}  // namespace

std::map<std::string, double> RunLedger(const LedgerInput& in) {
  std::map<std::string, double> m;
  SpanLog spans(1u << 31);
  spans.Reserve(1 << 16);
  md::Rng rng(in.seed * 31 + 7);
  constexpr int kBlocks = 41;
  constexpr int kPerBlock = 256;

  // Workload-ordered inputs: topics in a seeded order, sizes from the mix.
  std::vector<std::size_t> order(4096);
  for (auto& o : order) o = rng.NextBelow(in.topics.size());
  std::vector<md::Message> msgs;
  for (std::size_t i = 0; i < order.size(); ++i) {
    md::Message msg = MakeMessage(in, i, i + 1);
    msg.topic = in.topics[order[i]];
    msgs.push_back(std::move(msg));
  }

  // --- proto ---------------------------------------------------------------
  std::vector<md::Frame> delivers;
  for (const md::Message& msg : msgs) delivers.emplace_back(md::DeliverFrame{msg});
  md::Bytes out;
  md::Bytes body;
  m["proto.encode_deliver_raw_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
    out.clear();
    md::EncodeFramed(delivers[i % delivers.size()], out);
  });
  m["proto.encode_deliver_ws_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
    out.clear();
    body.clear();
    md::EncodeFrame(delivers[i % delivers.size()], body);
    md::ws::EncodeWsFrame(md::ws::Opcode::kBinary, md::BytesView(body), out);
  });
  md::Bytes framedPublishes;
  for (std::size_t i = 0; i < kPerBlock; ++i) {
    const md::Message& msg = msgs[i];
    md::EncodeFramed(md::PublishFrame{msg.topic, msg.payload, msg.pubId, true, msg.publishTs},
                     framedPublishes);
  }
  md::ByteQueue q;
  m["proto.decode_publish_ns"] = TimeBlocks(spans, kBlocks, 1, [&](std::uint64_t) {
    q.Clear();
    q.Append(md::BytesView(framedPublishes));
    for (int k = 0; k < kPerBlock; ++k) {
      auto r = md::ExtractFrame(q);
      if (!r.frame) std::abort();
    }
  }) / kPerBlock;

  // --- transport -----------------------------------------------------------
  std::vector<md::WireBuffer> wires;
  for (std::size_t i = 0; i < 64; ++i) {
    auto buf = md::AcquireWireBuffer();
    md::EncodeFramed(delivers[i], *buf);
    wires.push_back(std::move(buf));
  }
  md::SendQueue sq;
  iovec iov[64];
  m["transport.send_queue_ns"] = TimeBlocks(spans, kBlocks, 1, [&](std::uint64_t) {
    for (int k = 0; k < kPerBlock; ++k) {
      for (std::size_t f = 0; f < in.subscribersPerTopic; ++f) {
        sq.AppendShared(wires[static_cast<std::size_t>(k) % wires.size()]);
      }
    }
    while (!sq.empty()) {
      const std::size_t n = sq.FillIovecs(iov, 64);
      std::size_t bytes = 0;
      for (std::size_t j = 0; j < n; ++j) bytes += iov[j].iov_len;
      sq.Consume(bytes);
    }
  }) / static_cast<double>(kPerBlock * in.subscribersPerTopic);

  const std::int64_t spacing = std::min<std::int64_t>(in.lowSpacingNs, 10'000'000);
  const int wakeSamples = static_cast<int>(std::clamp<double>(
      0.25 * in.budgetSeconds * 1e9 / static_cast<double>(spacing), 20, 200));
  {
    md::EpollLoop loop;
    std::thread runner([&loop] { loop.Run(); });
    const auto [p50, p99] = WakeLatency(spacing, wakeSamples,
        [&loop](std::int64_t stamp, std::atomic<std::int64_t>* slot) {
          loop.Post([stamp, slot] { slot->store(NowNs() - stamp); });
        });
    loop.Stop();
    runner.join();
    m["transport.post_wake_p50_us"] = p50;
    m["transport.post_wake_p99_us"] = p99;
  }

  // --- core ----------------------------------------------------------------
  {
    // The Worker queue's element: session reference plus a decoded frame.
    struct Job {
      std::shared_ptr<md::core::Session> session;
      std::optional<md::Frame> frame;
      std::atomic<std::int64_t>* slot = nullptr;
      std::int64_t stamp = 0;
    };
    md::MpscQueue<Job> queue(262144);
    std::thread worker([&queue] {
      std::vector<Job> batch;
      while (true) {
        batch.clear();
        if (queue.PopBatchBlocking(batch, 256) == 0) return;
        const std::int64_t now = NowNs();
        for (Job& j : batch) j.slot->store(now - j.stamp);
      }
    });
    const auto session = md::core::MakeSession();
    std::size_t i = 0;
    const auto [p50, p99] = WakeLatency(spacing, wakeSamples,
        [&](std::int64_t stamp, std::atomic<std::int64_t>* slot) {
          const md::Message& msg = msgs[i++ % msgs.size()];
          Job job{session, md::Frame{md::PublishFrame{msg.topic, msg.payload, msg.pubId, true, 0}},
                  slot, stamp};
          job.stamp = NowNs();
          (void)queue.TryPush(std::move(job));
        });
    queue.Close();
    worker.join();
    m["core.worker_handoff_p50_us"] = p50;
    m["core.worker_handoff_p99_us"] = p99;
  }

  m["common.intern_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
    (void)md::TopicTable::Default().Intern(msgs[i % msgs.size()].topic);
  });

  {
    md::core::Sequencer seq;
    for (std::uint32_t g = 0; g < 100; ++g) seq.BeginEpoch(g, 1);
    std::vector<std::uint32_t> groups;
    for (const md::Message& msg : msgs) groups.push_back(md::TopicGroupOf(msg.topic, 100));
    constexpr int kAssigns = 100'000;
    std::atomic<std::int64_t> total{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        const std::int64_t t0 = NowNs();
        for (int k = 0; k < kAssigns; ++k) {
          const std::size_t j = static_cast<std::size_t>(k * 2 + t) % msgs.size();
          (void)seq.Assign(groups[j], msgs[j].topic);
        }
        total.fetch_add(NowNs() - t0);
      });
    }
    for (auto& th : threads) th.join();
    m["core.sequencer.assign_ns"] = static_cast<double>(total.load()) / (2.0 * kAssigns);
  }

  {
    md::core::Cache cache;
    std::vector<std::uint64_t> nextSeq(in.topics.size(), 0);
    std::vector<md::Message> appendMsgs = msgs;
    m["core.cache.append_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
      md::Message& msg = appendMsgs[i % appendMsgs.size()];
      msg.seq = ++nextSeq[order[i % order.size()]];
      (void)cache.Append(msg, 0);
    });
    std::uint64_t returned = 0;
    std::int64_t elapsed = 0;
    for (int b = 0; b < kBlocks; ++b) {
      const std::int64_t t0 = NowNs();
      const std::size_t span = spans.Begin(kSpanReplay, 0, 0, t0);
      for (int k = 0; k < 64; ++k) {
        const std::size_t t = order[rng.NextBelow(order.size())];
        if (nextSeq[t] == 0) continue;
        const std::uint64_t back = std::min<std::uint64_t>(nextSeq[t], 1 + rng.NextBelow(8));
        returned += cache.GetAfter(in.topics[t], md::StreamPos{1, nextSeq[t] - back}).size();
      }
      const std::int64_t t1 = NowNs();
      spans.End(span, t1);
      elapsed += t1 - t0;
    }
    m["core.cache.get_after_ns_per_msg"] =
        returned == 0 ? 0 : static_cast<double>(elapsed) / static_cast<double>(returned);
  }

  {
    // The workload's standing subscriptions, then resume-style churn.
    md::core::SubscriptionRegistry registry;
    std::vector<std::string> subscribedTopics;
    const std::size_t perSub = std::min<std::size_t>(in.topics.size(), 100);
    for (std::size_t s = 0; s < in.subscribersPerTopic; ++s) {
      for (std::size_t t = 0; t < perSub; ++t) {
        registry.Subscribe(in.topics[order[t] % in.topics.size()], 1 + s);
      }
    }
    for (std::size_t t = 0; t < perSub; ++t) subscribedTopics.push_back(in.topics[order[t]]);
    const md::core::ClientHandle churner = 1000;
    m["core.registry.subscribe_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
      registry.Subscribe(msgs[i % msgs.size()].topic, churner);
    });
    m["core.registry.unsubscribe_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
      registry.Unsubscribe(msgs[i % msgs.size()].topic, churner);
    });
    m["core.registry.snapshot_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
      const auto snap = registry.Snapshot(subscribedTopics[i % subscribedTopics.size()]);
      if (!snap) std::abort();
    });
  }

  {
    md::core::SessionTable sessions;
    for (std::size_t h = 1; h <= in.connections; ++h) {
      auto s = md::core::MakeSession();
      s->handle = h;
      sessions.Insert(s);
    }
    m["core.sessions.find_ns"] = TimeBlocks(spans, kBlocks, kPerBlock, [&](std::uint64_t i) {
      if (!sessions.Find(1 + i % in.connections)) std::abort();
    });
  }

  // --- wal -----------------------------------------------------------------
  m["wal.append_ns"] = 0;
  m["wal.flush_ns"] = 0;
  if (in.wal) {
    std::filesystem::create_directories(in.walDir);
    md::wal::WalConfig cfg;
    cfg.dir = in.walDir;
    cfg.fsync = md::wal::FsyncPolicy::kGroupCommit;
    md::wal::Log log(md::wal::PosixEnv::Instance(), cfg);
    // Paced at the .low spacing (capped), flushed on the 5 ms group-commit
    // timer, like the engine's flusher thread.
    std::vector<std::int64_t> appendNs;
    std::vector<std::int64_t> flushNs;
    const std::int64_t appendSpacing = std::min<std::int64_t>(in.lowSpacingNs, 1'000'000);
    const std::int64_t stop = NowNs() + static_cast<std::int64_t>(0.15 * in.budgetSeconds * 1e9);
    std::int64_t nextFlush = NowNs() + cfg.flushInterval;
    std::vector<std::uint64_t> walSeq(in.topics.size(), 0);
    for (std::size_t i = 0; NowNs() < stop; ++i) {
      md::Message& msg = msgs[i % msgs.size()];
      msg.seq = ++walSeq[order[i % order.size()]];
      const std::int64_t t0 = NowNs();
      (void)log.Append(md::TopicGroupOf(msg.topic, 100), msg, t0);
      const std::int64_t t1 = NowNs();
      appendNs.push_back(t1 - t0);
      if (t1 >= nextFlush) {
        log.Flush(t1);
        const std::int64_t t2 = NowNs();
        flushNs.push_back(t2 - t1);
        nextFlush = t2 + cfg.flushInterval;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(appendSpacing));
    }
    log.Close();
    m["wal.append_ns"] = Percentile(appendNs, 0.5);
    m["wal.flush_ns"] = Percentile(flushNs, 0.5);
  }
  return m;
}

}  // namespace pb
