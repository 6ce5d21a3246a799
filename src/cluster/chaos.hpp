// Deterministic chaos harness (FoundationDB-style simulation testing).
//
// From a single seed, FaultPlan::Generate derives a randomized schedule of
// serialized fault windows — server crashes (with restart), server partitions
// (with heal), inter-server link flaps, and slow subscribers (a client whose
// reads stall, backing up the server's send queue) — which ChaosDriver
// applies to a SimCluster while real client-library publishers and
// subscribers run traffic through it. An InvariantChecker observes every
// client's post-filter delivery stream and checks the paper's §5 guarantees:
//
//   [order]     per (subscriber, topic): strictly increasing (epoch, seq),
//   [dup]       per (subscriber, topic): no publication delivered twice,
//   [agreement] one publication per (topic, position) across all clients
//               (two subscribers never see different data at one position),
//   [loss]      every acked publication reaches every subscriber of its
//               topic (all runs fit inside the cache retention window),
//   [fence]     a server partitioned from its peers long enough to detect
//               quorum loss has self-fenced and closed its local clients,
//   [cache]     after heal + quiesce, every server's cache holds every
//               acked publication (replication + reconstruction, §5.2.2),
//   [backpressure] no client connection's pending bytes ever exceed the hard
//               watermark (sampled every 100ms of virtual time) — a stalled
//               subscriber is conflated/dropped/evicted, never buffered
//               without bound,
//   [quorum]    a minority-partitioned server does not claim write quorum at
//               the end of its window (elastic mode: its publishes bounce
//               with the retryable kNoQuorum status, DESIGN.md §12),
//
// Elastic mode (ChaosOptions::elastic) adds membership churn to the fault
// vocabulary — join:node@t (scale-out under load), leave:node@t (graceful
// scale-in with a hand-off wave) and part:minority@t+dur (quorum gating) —
// and, when a Monitor rides along, feeds every HANDOFF redirect into its
// [rebalance] continuity rule via OnHandoffResume.
//
// Durability mode (ChaosOptions::durability) puts a fault-injectable WAL
// (fsync=always) under every server's cache and extends the vocabulary with
// crash:all@t+dur (cluster-wide kill -9; at restart the union of the
// WAL-recovered caches must cover every publication acked before the outage
// — the [durability] invariant), flip:v@t / torn:v@t (latent bit flip /
// torn-tail damage a later crash must recover past) and full:v@t+dur
// (ENOSPC windows; the in-memory cache keeps serving and peers re-replicate
// after the next crash). See DESIGN.md §13.
//
// The fault windows are serialized (at most one server-level fault active at
// a time) to stay inside the paper's single-fault model; concurrent faults
// can legitimately lose messages. Everything — fault schedule, client
// randomness, link-level duplication — derives from the seed, so a run
// replays byte-identically: ChaosReport::trace is comparable across runs and
// any violation is reproducible from its `--seed N --events ...` line alone.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "cluster/sim_cluster.hpp"
#include "verify/invariants.hpp"
#include "verify/monitor.hpp"

namespace md::cluster {

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kPartition, kLinkFlap,
                                   kSlowSubscriber,
                                   // Elastic-membership events (DESIGN.md §12)
                                   kJoin, kLeave, kMinorityPartition,
                                   // Durability events (DESIGN.md §13):
                                   // cluster-wide outage + WAL disk faults
                                   kCrashAll, kWalBitFlip, kWalTornTail,
                                   kDiskFull };
  Kind kind = Kind::kCrash;
  /// Server index — except kSlowSubscriber, where it indexes the subscriber
  /// whose reads stall for the window, kMinorityPartition, where it is
  /// the SIZE of the partitioned minority (servers [0, victim)), and
  /// kCrashAll, where it is unused (every member crashes).
  std::size_t victim = 0;
  std::size_t peer = 0;     // second endpoint, kLinkFlap only
  Duration at = 0;          // offset from chaos start (ms granularity)
  Duration duration = 0;    // fault window; then restart / heal / resume
                            // (kJoin/kLeave/kWalBitFlip/kWalTornTail are
                            // one-way: duration stays 0)

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

inline const char* FaultKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kPartition: return "part";
    case FaultEvent::Kind::kLinkFlap: return "flap";
    case FaultEvent::Kind::kSlowSubscriber: return "slow";
    case FaultEvent::Kind::kJoin: return "join";
    case FaultEvent::Kind::kLeave: return "leave";
    case FaultEvent::Kind::kMinorityPartition: return "part";
    case FaultEvent::Kind::kCrashAll: return "crash";
    case FaultEvent::Kind::kWalBitFlip: return "flip";
    case FaultEvent::Kind::kWalTornTail: return "torn";
    case FaultEvent::Kind::kDiskFull: return "full";
  }
  return "?";
}

struct FaultPlan {
  std::uint64_t seed = 0;
  std::size_t servers = 3;
  std::vector<FaultEvent> events;

  /// Randomized serialized fault windows. Partition windows are long enough
  /// for quorum-loss detection (so [fence] can be asserted); gaps between
  /// windows leave room for cache reconstruction, keeping the schedule
  /// inside the single-fault model. All times have millisecond granularity
  /// so ToString()/Parse() round-trip exactly.
  static FaultPlan Generate(std::uint64_t seed, std::size_t servers,
                            std::size_t minEvents,
                            std::size_t subscribers = 3) {
    FaultPlan plan;
    plan.seed = seed;
    plan.servers = servers;
    Rng rng(seed ^ 0x5DEECE66DULL);
    const std::size_t count = minEvents + rng.NextBelow(3);
    std::int64_t atMs = 1000 + static_cast<std::int64_t>(rng.NextBelow(1000));
    for (std::size_t i = 0; i < count; ++i) {
      FaultEvent ev;
      const std::uint64_t roll = rng.NextBelow(10);
      std::int64_t durMs = 0;
      if (roll < 3) {
        ev.kind = FaultEvent::Kind::kCrash;
        durMs = 2000 + static_cast<std::int64_t>(rng.NextBelow(2500));
      } else if (roll < 6 || servers < 2) {
        ev.kind = FaultEvent::Kind::kPartition;
        durMs = 5000 + static_cast<std::int64_t>(rng.NextBelow(2500));
      } else if (roll < 8 || subscribers == 0) {
        ev.kind = FaultEvent::Kind::kLinkFlap;
        durMs = 1000 + static_cast<std::int64_t>(rng.NextBelow(2000));
      } else {
        // Long enough to overrun the soft watermark + eviction grace, so the
        // overflow policy (not luck) is what bounds the send queue.
        ev.kind = FaultEvent::Kind::kSlowSubscriber;
        durMs = 4000 + static_cast<std::int64_t>(rng.NextBelow(4000));
      }
      ev.victim = ev.kind == FaultEvent::Kind::kSlowSubscriber
                      ? rng.NextBelow(subscribers)
                      : rng.NextBelow(servers);
      if (ev.kind == FaultEvent::Kind::kLinkFlap) {
        ev.peer = (ev.victim + 1 + rng.NextBelow(servers - 1)) % servers;
      }
      ev.at = atMs * kMillisecond;
      ev.duration = durMs * kMillisecond;
      plan.events.push_back(ev);
      atMs += durMs + 5000 + static_cast<std::int64_t>(rng.NextBelow(3000));
    }
    return plan;
  }

  /// Size of the strict minority cut by a kMinorityPartition event: always
  /// below half, and at least one.
  [[nodiscard]] static std::size_t MinoritySize(std::size_t servers) {
    return std::max<std::size_t>(1, (servers - 1) / 2);
  }

  /// Elastic-membership schedule: the provisioned-but-idle last server joins
  /// under load, a strict minority is partitioned long enough to observe
  /// quorum gating and fencing, and a random member (possibly the one that
  /// just joined) leaves gracefully at the end. Randomized flap / slow
  /// windows ride between — but no crashes: a crash stacked on the leave
  /// could push the live member count below the provisioned-universe quorum
  /// for the rest of the run. Windows are serialized like Generate(), and
  /// Generate() itself is untouched so legacy seeds replay byte-identically.
  static FaultPlan GenerateElastic(std::uint64_t seed, std::size_t servers,
                                   std::size_t minEvents,
                                   std::size_t subscribers = 3) {
    FaultPlan plan;
    plan.seed = seed;
    plan.servers = servers;
    Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);  // distinct stream from Generate()
    std::int64_t atMs = 1500 + static_cast<std::int64_t>(rng.NextBelow(1000));
    const auto push = [&plan, &atMs, &rng](FaultEvent ev, std::int64_t durMs) {
      ev.at = atMs * kMillisecond;
      ev.duration = durMs * kMillisecond;
      plan.events.push_back(ev);
      atMs += durMs + 5000 + static_cast<std::int64_t>(rng.NextBelow(3000));
    };

    FaultEvent join;
    join.kind = FaultEvent::Kind::kJoin;
    join.victim = servers - 1;
    push(join, 0);

    std::size_t fillers = (minEvents > 3 ? minEvents - 3 : 0) + rng.NextBelow(2);
    const std::size_t minorityAfter = rng.NextBelow(fillers + 1);
    const auto pushMinority = [&] {
      FaultEvent part;
      part.kind = FaultEvent::Kind::kMinorityPartition;
      part.victim = MinoritySize(servers);
      // Past ChaosDriver::kFenceObservable, so the window asserts both the
      // [fence] and [quorum] invariants on every minority member.
      push(part, 5500 + static_cast<std::int64_t>(rng.NextBelow(2000)));
    };
    for (std::size_t i = 0; i < fillers; ++i) {
      if (i == minorityAfter) pushMinority();
      FaultEvent ev;
      if (subscribers > 0 && rng.NextBelow(2) == 0) {
        ev.kind = FaultEvent::Kind::kSlowSubscriber;
        ev.victim = rng.NextBelow(subscribers);
        push(ev, 4000 + static_cast<std::int64_t>(rng.NextBelow(3000)));
      } else {
        ev.kind = FaultEvent::Kind::kLinkFlap;
        ev.victim = rng.NextBelow(servers);
        ev.peer = (ev.victim + 1 + rng.NextBelow(servers - 1)) % servers;
        push(ev, 1000 + static_cast<std::int64_t>(rng.NextBelow(2000)));
      }
    }
    if (minorityAfter >= fillers) pushMinority();

    FaultEvent leave;
    leave.kind = FaultEvent::Kind::kLeave;
    leave.victim = rng.NextBelow(servers);
    push(leave, 0);
    return plan;
  }

  /// Durability schedule (requires ChaosOptions::durability, so every server
  /// runs a fault-injectable WAL under its cache). Two per-seed modes:
  ///
  ///   mode A (~40%): one cluster-wide kill -9 (crash:all) somewhere in a
  ///   run of single crashes and flaps — NO disk faults, so the driver can
  ///   assert the strict union invariant: with fsync=always, the union of
  ///   the WAL-recovered caches right after restart covers every publication
  ///   acked before the outage (no peer had time to backfill anything).
  ///
  ///   mode B (~60%): latent disk damage exposed by a crash — a bit flip or
  ///   a torn tail lands on a victim's WAL, then that same victim is killed
  ///   and must recover past the damage (skip/truncate, never crash, then
  ///   refill the holes from peers); ENOSPC windows and flaps ride along.
  ///   No crash:all here: damaged disks can legitimately lose the only
  ///   on-disk copy of an acked record, so only the end-of-run [cache]
  ///   invariant (after peer backfill) is sound, not the union-at-restart.
  ///
  /// Windows are serialized like Generate(); no membership churn.
  static FaultPlan GenerateDurability(std::uint64_t seed, std::size_t servers,
                                      std::size_t minEvents,
                                      std::size_t subscribers = 3) {
    FaultPlan plan;
    plan.seed = seed;
    plan.servers = servers;
    Rng rng(seed ^ 0xD0BEFA17AB1E5ULL);  // distinct stream from Generate()
    std::int64_t atMs = 1000 + static_cast<std::int64_t>(rng.NextBelow(1000));
    const auto push = [&plan, &atMs, &rng](FaultEvent ev, std::int64_t durMs) {
      ev.at = atMs * kMillisecond;
      ev.duration = durMs * kMillisecond;
      plan.events.push_back(ev);
      atMs += durMs + 5000 + static_cast<std::int64_t>(rng.NextBelow(3000));
    };
    const auto pushFlap = [&] {
      FaultEvent ev;
      ev.kind = FaultEvent::Kind::kLinkFlap;
      ev.victim = rng.NextBelow(servers);
      ev.peer = (ev.victim + 1 + rng.NextBelow(servers - 1)) % servers;
      push(ev, 1000 + static_cast<std::int64_t>(rng.NextBelow(2000)));
    };
    const std::size_t count = minEvents + rng.NextBelow(3);
    if (rng.NextBelow(10) < 4 || servers < 2) {  // --- mode A ---
      const std::size_t outageAfter = rng.NextBelow(count);
      for (std::size_t i = 0; i < count; ++i) {
        if (i == outageAfter) {
          FaultEvent outage;
          outage.kind = FaultEvent::Kind::kCrashAll;
          push(outage, 2500 + static_cast<std::int64_t>(rng.NextBelow(2000)));
        }
        const std::uint64_t roll = rng.NextBelow(10);
        if (roll < 5 || servers < 2) {
          FaultEvent ev;
          ev.kind = FaultEvent::Kind::kCrash;
          ev.victim = rng.NextBelow(servers);
          push(ev, 2000 + static_cast<std::int64_t>(rng.NextBelow(2500)));
        } else if (roll < 8 || subscribers == 0) {
          pushFlap();
        } else {
          FaultEvent ev;
          ev.kind = FaultEvent::Kind::kSlowSubscriber;
          ev.victim = rng.NextBelow(subscribers);
          push(ev, 4000 + static_cast<std::int64_t>(rng.NextBelow(4000)));
        }
      }
    } else {  // --- mode B ---
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t roll = rng.NextBelow(10);
        if (roll < 6) {
          // Latent damage, then kill the same victim so recovery must walk
          // past it. The damage event is one-way; the crash that exposes it
          // lands in the next serialized window.
          FaultEvent hurt;
          hurt.kind = roll < 3 ? FaultEvent::Kind::kWalBitFlip
                               : FaultEvent::Kind::kWalTornTail;
          hurt.victim = rng.NextBelow(servers);
          push(hurt, 0);
          FaultEvent ev;
          ev.kind = FaultEvent::Kind::kCrash;
          ev.victim = hurt.victim;
          push(ev, 2000 + static_cast<std::int64_t>(rng.NextBelow(2500)));
        } else if (roll < 8) {
          FaultEvent ev;
          ev.kind = FaultEvent::Kind::kDiskFull;
          ev.victim = rng.NextBelow(servers);
          push(ev, 3000 + static_cast<std::int64_t>(rng.NextBelow(2000)));
        } else {
          pushFlap();
        }
      }
    }
    return plan;
  }

  /// Fault window horizon: when the last recovery action fires.
  [[nodiscard]] Duration Horizon() const {
    Duration h = 0;
    for (const auto& ev : events) h = std::max(h, ev.at + ev.duration);
    return h;
  }

  /// True for events that are instantaneous transitions (no recovery half,
  /// duration pinned to 0).
  [[nodiscard]] static bool IsOneWay(FaultEvent::Kind kind) {
    return kind == FaultEvent::Kind::kJoin ||
           kind == FaultEvent::Kind::kLeave ||
           kind == FaultEvent::Kind::kWalBitFlip ||
           kind == FaultEvent::Kind::kWalTornTail;
  }

  /// Compact repro form: "crash:1@3200+2500;flap:0-2@9900+1500;..."
  /// (victim[-peer]@startMs+durationMs). Elastic events render as
  /// "join:3@1500" / "leave:0@44200" (one-way, no duration) and
  /// "part:minority@9900+6000"; durability events as "crash:all@5000+3000",
  /// "flip:1@2000" / "torn:0@2000" (one-way latent damage) and
  /// "full:2@8000+3000".
  [[nodiscard]] std::string ToString() const {
    std::string out;
    for (const auto& ev : events) {
      if (!out.empty()) out += ';';
      out += FaultKindName(ev.kind);
      if (ev.kind == FaultEvent::Kind::kMinorityPartition) {
        out += ":minority";
      } else if (ev.kind == FaultEvent::Kind::kCrashAll) {
        out += ":all";
      } else {
        out += ':' + std::to_string(ev.victim);
      }
      if (ev.kind == FaultEvent::Kind::kLinkFlap) {
        out += '-' + std::to_string(ev.peer);
      }
      out += '@' + std::to_string(ev.at / kMillisecond);
      if (!IsOneWay(ev.kind)) {
        out += '+' + std::to_string(ev.duration / kMillisecond);
      }
    }
    return out;
  }

  /// Inverse of ToString(). Returns nullopt on malformed input. `subscribers`
  /// bounds the victim of "slow" events (a subscriber index, not a server).
  static std::optional<FaultPlan> Parse(const std::string& text,
                                        std::size_t servers = 3,
                                        std::size_t subscribers = 3) {
    FaultPlan plan;
    plan.servers = servers;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find(';', start);
      if (end == std::string::npos) end = text.size();
      const std::string item = text.substr(start, end - start);
      start = end + 1;
      if (item.empty()) continue;

      const auto colon = item.find(':');
      const auto atPos = item.find('@');
      const auto plus =
          atPos == std::string::npos ? std::string::npos : item.find('+', atPos);
      if (colon == std::string::npos || atPos == std::string::npos ||
          colon > atPos) {
        return std::nullopt;
      }
      FaultEvent ev;
      const std::string kind = item.substr(0, colon);
      if (kind == "crash") {
        ev.kind = FaultEvent::Kind::kCrash;
      } else if (kind == "part" || kind == "partition") {
        ev.kind = FaultEvent::Kind::kPartition;
      } else if (kind == "flap") {
        ev.kind = FaultEvent::Kind::kLinkFlap;
      } else if (kind == "slow") {
        ev.kind = FaultEvent::Kind::kSlowSubscriber;
      } else if (kind == "join") {
        ev.kind = FaultEvent::Kind::kJoin;
      } else if (kind == "leave") {
        ev.kind = FaultEvent::Kind::kLeave;
      } else if (kind == "flip") {
        ev.kind = FaultEvent::Kind::kWalBitFlip;
      } else if (kind == "torn") {
        ev.kind = FaultEvent::Kind::kWalTornTail;
      } else if (kind == "full") {
        ev.kind = FaultEvent::Kind::kDiskFull;
      } else {
        return std::nullopt;
      }
      const bool oneWay = IsOneWay(ev.kind);
      // One-way transitions (join/leave/flip/torn): "+duration" is optional
      // (and ignored); every windowed fault requires it.
      if (plus == std::string::npos && !oneWay) return std::nullopt;
      try {
        std::string who = item.substr(colon + 1, atPos - colon - 1);
        if (who == "minority" && ev.kind == FaultEvent::Kind::kPartition) {
          ev.kind = FaultEvent::Kind::kMinorityPartition;
          ev.victim = MinoritySize(servers);
        } else if (who == "all" && ev.kind == FaultEvent::Kind::kCrash) {
          ev.kind = FaultEvent::Kind::kCrashAll;
          ev.victim = 0;
        } else {
          const auto dash = who.find('-');
          if (dash != std::string::npos) {
            ev.peer = std::stoul(who.substr(dash + 1));
            who = who.substr(0, dash);
          } else if (ev.kind == FaultEvent::Kind::kLinkFlap) {
            return std::nullopt;
          }
          ev.victim = std::stoul(who);
        }
        if (plus == std::string::npos) {
          ev.at = std::stoll(item.substr(atPos + 1)) * kMillisecond;
        } else {
          ev.at =
              std::stoll(item.substr(atPos + 1, plus - atPos - 1)) * kMillisecond;
          ev.duration = std::stoll(item.substr(plus + 1)) * kMillisecond;
        }
        if (oneWay) ev.duration = 0;
      } catch (...) {
        return std::nullopt;
      }
      const std::size_t victimBound =
          ev.kind == FaultEvent::Kind::kSlowSubscriber ? subscribers : servers;
      if (ev.victim >= victimBound &&
          ev.kind != FaultEvent::Kind::kMinorityPartition &&
          ev.kind != FaultEvent::Kind::kCrashAll) {
        return std::nullopt;
      }
      if (ev.peer >= servers || ev.at < 0 || ev.duration < 0 ||
          (ev.duration == 0 && !oneWay)) {
        return std::nullopt;
      }
      plan.events.push_back(ev);
    }
    return plan;
  }
};

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

class InvariantChecker {
 public:
  /// Declare that `subscriber` subscribes to `topic` (before traffic starts);
  /// the [loss] check only covers declared subscriptions.
  void AddSubscription(const std::string& subscriber, const std::string& topic) {
    topicSubscribers_[topic].insert(subscriber);
  }

  /// Record a DELIVER observed at `subscriber` (duplicate = suppressed by the
  /// client-side filter; only post-filter deliveries enter the streams).
  void OnDelivery(const std::string& subscriber, const Message& m,
                  bool duplicate) {
    if (duplicate) {
      ++duplicatesFiltered_;
      return;
    }
    ++deliveries_;
    streams_[{subscriber, m.topic}].push_back({PosOf(m), m.pubId, m.payload});
  }

  /// Record a successful publish acknowledgement.
  void OnAck(const std::string& topic, const PublicationId& id) {
    ++acked_;
    ackedByTopic_[topic].push_back(id);
  }

  /// The acked set as of "now" — the driver captures it at the instant a
  /// cluster-wide crash fires, so the durability audit covers exactly the
  /// publications whose acks predate the outage.
  [[nodiscard]] std::map<std::string, std::vector<PublicationId>> AckedSnapshot()
      const {
    return ackedByTopic_;
  }

  /// Post-recovery durability audit: every publication of `topic` acked at
  /// crash time must be present in `recovered` (the union of the WAL-rebuilt
  /// caches, before any peer backfill). Returns the missing count so the
  /// driver can also feed the runtime monitor's [durability] rule.
  std::size_t OnDurabilityObservation(
      const std::string& context, const std::string& topic,
      const std::vector<PublicationId>& ackedAtCrash,
      const std::set<PublicationId>& recovered) {
    std::size_t missing = 0;
    for (const auto& id : ackedAtCrash) {
      if (!recovered.contains(id)) {
        ++missing;
        violations_.push_back("[durability] " + context +
                              ": acked publication " + IdStr(id) + " on " +
                              topic + " missing after recovery");
      }
    }
    return missing;
  }

  /// Fencing state of a partitioned server, sampled at the end of a
  /// partition window that exceeded the detection threshold.
  void OnPartitionObservation(std::size_t server, bool fenced,
                              std::size_t localClients) {
    partitionObs_.push_back({server, fenced, localClients});
  }

  /// Write-quorum verdict of a minority-partitioned server, sampled at the
  /// end of a partition window that exceeded the detection threshold: the
  /// quorum gate must deny, so publishes bounce with the retryable kNoQuorum
  /// status instead of split-braining (DESIGN.md §12).
  void OnQuorumObservation(std::size_t server, bool hasWriteQuorum) {
    if (hasWriteQuorum) {
      violations_.push_back("[quorum] minority server " +
                            std::to_string(server) +
                            " still claims write quorum at end of partition "
                            "window");
    }
  }

  /// Periodic sample of the largest client send-queue depth on one server.
  /// The transport's hard watermark is an all-or-nothing bound: a stalled
  /// subscriber may pin its queue *at* the mark, never past it.
  void OnPendingSample(std::size_t server, std::size_t pendingBytes,
                       std::size_t hardWatermark) {
    maxPendingObserved_ = std::max(maxPendingObserved_, pendingBytes);
    if (verify::ExceedsHardWatermark(pendingBytes, hardWatermark)) {
      violations_.push_back(verify::FormatBackpressureViolation(
          "server " + std::to_string(server), pendingBytes, hardWatermark));
    }
  }

  [[nodiscard]] std::size_t maxPendingObserved() const noexcept {
    return maxPendingObserved_;
  }

  /// Post-quiesce fencing state of every server (all faults healed).
  void OnFinalFenceState(std::size_t server, bool fenced) {
    if (fenced) {
      violations_.push_back("[fence] server " + std::to_string(server) +
                            " still fenced after all faults healed");
    }
  }

  /// Post-quiesce cache contents of one server for one topic.
  void OnFinalCache(std::size_t server, const std::string& topic,
                    std::set<PublicationId> ids) {
    finalCaches_[{server, topic}] = std::move(ids);
    haveFinalCaches_ = true;
  }

  /// Cluster-wide counter totals read from the metrics registry after
  /// quiesce, plus the fault-schedule context needed to bound them.
  struct MetricsTotals {
    std::uint64_t published = 0;   // md_cluster_published_total, summed
    std::uint64_t delivered = 0;   // md_cluster_delivered_total, summed
    std::uint64_t backfilled = 0;  // md_cluster_backfilled_total, summed
    std::uint64_t fences = 0;      // md_cluster_fences_total, summed
    std::uint64_t unfences = 0;    // md_cluster_unfences_total, summed
    std::uint64_t crashFaults = 0;    // crash windows in the fault plan
    std::size_t stillFenced = 0;      // servers fenced at observation time
    std::int64_t failoverMaxNs = 0;   // longest recorded fence→unfence span
    Duration failoverBound = 0;       // ceiling allowed for failoverMaxNs
    std::int64_t replicationPendingSum = 0;  // gauge total, all servers
  };

  /// Couples the registry's view of the run to the checker's own event
  /// counts — a metric that drifts from ground truth is a bug even when
  /// delivery invariants hold.
  void OnMetricsTotals(const MetricsTotals& totals) {
    metrics_ = totals;
  }

  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicatesFiltered() const noexcept {
    return duplicatesFiltered_;
  }
  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }

  /// Runs every check; an empty result means all invariants held.
  [[nodiscard]] std::vector<std::string> Check() const {
    std::vector<std::string> out = violations_;

    // [order] + [dup] per (subscriber, topic) stream.
    std::map<std::pair<std::string, std::string>, std::set<PublicationId>>
        streamIds;
    for (const auto& [key, stream] : streams_) {
      auto& ids = streamIds[key];
      for (std::size_t i = 0; i < stream.size(); ++i) {
        // The rules themselves live in verify/invariants.hpp — the production
        // Monitor applies the same ones online, so a verdict here is a
        // verdict there (tests/verify/equivalence_test.cpp holds them to it).
        if (i > 0 && verify::ViolatesOrder(stream[i - 1].pos, stream[i].pos)) {
          out.push_back(verify::FormatOrderViolation(
              key.first + "/" + key.second, stream[i - 1].pos, stream[i].pos));
        }
        if (!ids.insert(stream[i].id).second) {
          out.push_back(verify::FormatDuplicateViolation(
              key.first + "/" + key.second, stream[i].id));
        }
      }
    }

    // [agreement] one publication (and payload) per (topic, position).
    std::map<std::pair<std::string, StreamPos>,
             std::pair<PublicationId, Bytes>> byPos;
    for (const auto& [key, stream] : streams_) {
      for (const auto& d : stream) {
        const auto [it, inserted] =
            byPos.try_emplace({key.second, d.pos}, d.id, d.payload);
        if (!inserted &&
            (it->second.first != d.id || it->second.second != d.payload)) {
          out.push_back("[agreement] " + key.second + " pos " + PosStr(d.pos) +
                        ": " + IdStr(it->second.first) + " vs " + IdStr(d.id));
        }
      }
    }

    // [loss] every acked publication reached every declared subscriber.
    for (const auto& [topic, ids] : ackedByTopic_) {
      const auto subsIt = topicSubscribers_.find(topic);
      if (subsIt == topicSubscribers_.end()) continue;
      for (const auto& sub : subsIt->second) {
        const auto streamIt = streamIds.find({sub, topic});
        for (const auto& id : ids) {
          if (streamIt == streamIds.end() || !streamIt->second.contains(id)) {
            out.push_back("[loss] acked publication " + IdStr(id) + " on " +
                          topic + " never delivered to " + sub);
          }
        }
      }
    }

    // [fence] partitioned minority servers self-fenced and shed clients.
    for (const auto& obs : partitionObs_) {
      if (!obs.fenced) {
        out.push_back("[fence] server " + std::to_string(obs.server) +
                      " not fenced at end of partition window");
      } else if (obs.localClients != 0) {
        out.push_back("[fence] server " + std::to_string(obs.server) +
                      " fenced but kept " + std::to_string(obs.localClients) +
                      " local clients");
      }
    }

    // [metrics] registry totals agree with the checker's ground truth.
    if (metrics_) {
      const MetricsTotals& t = *metrics_;
      // Every client-side receipt (post-filter delivery or filtered
      // duplicate) left some server as a counted delivery.
      if (t.delivered < deliveries_ + duplicatesFiltered_) {
        out.push_back("[metrics] cluster delivered counter " +
                      std::to_string(t.delivered) +
                      " below client-observed receipts " +
                      std::to_string(deliveries_ + duplicatesFiltered_));
      }
      // An ack is only sent after the publication was sequenced, which is
      // exactly when the published counter ticks.
      if (t.published < acked_) {
        out.push_back("[metrics] cluster published counter " +
                      std::to_string(t.published) + " below acked count " +
                      std::to_string(acked_));
      }
      // Every partition window observed as fenced incremented the counter.
      std::uint64_t observedFenced = 0;
      for (const auto& obs : partitionObs_) {
        if (obs.fenced) ++observedFenced;
      }
      if (t.fences < observedFenced) {
        out.push_back("[metrics] fence counter " + std::to_string(t.fences) +
                      " below observed fenced partitions " +
                      std::to_string(observedFenced));
      }
      // A fence span ends by exactly one of: unfence, crash (volatile state
      // lost) or still being fenced at observation time.
      if (t.unfences > t.fences) {
        out.push_back("[metrics] unfence counter " +
                      std::to_string(t.unfences) + " exceeds fence counter " +
                      std::to_string(t.fences));
      }
      if (t.fences > t.unfences + t.crashFaults + t.stillFenced) {
        out.push_back("[metrics] fence counter " + std::to_string(t.fences) +
                      " exceeds unfences+crashes+stillFenced " +
                      std::to_string(t.unfences + t.crashFaults +
                                     t.stillFenced));
      }
      // A failover span tracks its fault window: detection plus recovery
      // slack on top of the longest scheduled fault.
      if (t.failoverBound > 0 && t.failoverMaxNs > t.failoverBound) {
        out.push_back("[metrics] failover span " +
                      std::to_string(t.failoverMaxNs) + "ns exceeds bound " +
                      std::to_string(t.failoverBound) + "ns");
      }
      // The pending-replication gauge is balanced: every increment has a
      // matching decrement (ack, crash drain or fence drain).
      if (t.replicationPendingSum < 0) {
        out.push_back("[metrics] replication-pending gauge is negative: " +
                      std::to_string(t.replicationPendingSum));
      }
    }

    // [cache] every acked publication replicated into every final cache.
    if (haveFinalCaches_) {
      for (const auto& [key, ids] : finalCaches_) {
        const auto ackIt = ackedByTopic_.find(key.second);
        if (ackIt == ackedByTopic_.end()) continue;
        for (const auto& id : ackIt->second) {
          if (!ids.contains(id)) {
            out.push_back("[cache] server " + std::to_string(key.first) +
                          " missing acked publication " + IdStr(id) + " on " +
                          key.second);
          }
        }
      }
    }
    return out;
  }

 private:
  struct Delivery {
    StreamPos pos;
    PublicationId id;
    Bytes payload;
  };
  struct PartitionObs {
    std::size_t server = 0;
    bool fenced = false;
    std::size_t localClients = 0;
  };

  static std::string PosStr(StreamPos pos) { return verify::FormatPos(pos); }
  static std::string IdStr(const PublicationId& id) {
    return verify::FormatPubId(id);
  }

  std::map<std::pair<std::string, std::string>, std::vector<Delivery>> streams_;
  std::map<std::string, std::set<std::string>> topicSubscribers_;
  std::map<std::string, std::vector<PublicationId>> ackedByTopic_;
  std::vector<PartitionObs> partitionObs_;
  std::map<std::pair<std::size_t, std::string>, std::set<PublicationId>>
      finalCaches_;
  bool haveFinalCaches_ = false;
  std::optional<MetricsTotals> metrics_;
  std::vector<std::string> violations_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicatesFiltered_ = 0;
  std::uint64_t acked_ = 0;
  std::size_t maxPendingObserved_ = 0;
};

// ---------------------------------------------------------------------------
// Chaos driver
// ---------------------------------------------------------------------------

struct ChaosOptions {
  std::uint64_t seed = 1;
  std::size_t servers = 3;
  std::size_t subscribers = 3;
  std::size_t publishers = 2;
  std::size_t topics = 2;
  std::size_t publicationsPerPublisher = 24;
  /// 0 = auto: spread the publications across the fault horizon.
  Duration publishInterval = 0;
  std::size_t minFaultEvents = 5;
  /// Elastic-membership mode: nodes run with live rebalancing + quorum
  /// gating, generated plans come from FaultPlan::GenerateElastic (join /
  /// graceful-leave / minority-partition churn), servers with a join event
  /// start deferred, and the final fence/cache sweep covers only the servers
  /// that are still members when the run ends.
  bool elastic = false;
  /// Durability mode: every server runs a fault-injectable WAL (fsync=always)
  /// under its cache, generated plans come from FaultPlan::GenerateDurability
  /// (cluster-wide kill -9 / WAL bit flips / torn tails / ENOSPC windows),
  /// and a cluster-wide crash asserts the [durability] union invariant at
  /// the restart instant. Mutually exclusive with `elastic`.
  bool durability = false;
  /// Message-level duplication on inter-server links (client dedup must
  /// absorb the resulting re-deliveries / re-sequencings).
  double peerDuplicateProb = 0.02;
  Duration quiesce = 12 * kSecond;
  bool checkCaches = true;
  /// Explicit schedule (repro / minimization); overrides generation.
  std::optional<FaultPlan> plan;
  /// Client-connection watermarks for the simulated servers. Chaos frames are
  /// tiny (~60 wire bytes), so the marks sit far below production defaults:
  /// a paused subscriber crosses soft within a few publications and the run
  /// actually exercises grace, eviction and reconnect-backfill. The grace
  /// (500ms) comfortably covers a healthy resume-backfill burst at the sim's
  /// 2ms client RTT.
  core::BackpressureConfig clientBackpressure{
      /*softWatermark=*/384, /*hardWatermark=*/16 * 1024,
      /*lowWatermark=*/128, /*evictGrace=*/500 * kMillisecond};
  /// Metrics destination for the simulated cluster; nullptr keeps each run
  /// on a private registry (seed sweeps must not share counters).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional runtime monitor riding along with the simulation: it is fed
  /// every subscriber's pre-filter delivery stream (keyed by connection
  /// generation), every backpressure sample and periodic registry snapshots —
  /// the same observation contract the production servers use. A clean seed
  /// must leave it at zero violations.
  verify::Monitor* monitor = nullptr;
  /// Deliberate one-shot fault to arm on `monitor` mid-run (self-test of the
  /// monitor's detection path; the simulated traffic itself stays clean).
  std::optional<verify::ViolationKind> inject;
  /// When to arm `inject`; 0 = auto (half the fault horizon, at least 2s).
  Duration injectAt = 0;
};

struct ChaosReport {
  FaultPlan plan;
  std::vector<std::string> violations;
  /// Deterministic event log: every fault application, ack and delivery with
  /// its virtual timestamp. Byte-identical across runs of the same options.
  std::vector<std::string> trace;
  std::uint64_t acked = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t duplicatesFiltered = 0;
  /// Post-quiesce registry snapshot (benches and tests read totals off it).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] bool Passed() const noexcept { return violations.empty(); }
};

class ChaosDriver {
 public:
  /// Partition windows at least this long assert the [fence] invariant
  /// (quorum-loss detection needs session expiry + fence checks).
  static constexpr Duration kFenceObservable = 5 * kSecond;

  explicit ChaosDriver(ChaosOptions opts) : opts_(std::move(opts)) {}

  ChaosReport Run() {
    ChaosReport report;
    report.plan = opts_.plan ? *opts_.plan
                  : opts_.durability
                      ? FaultPlan::GenerateDurability(opts_.seed, opts_.servers,
                                                      opts_.minFaultEvents,
                                                      opts_.subscribers)
                  : opts_.elastic
                      ? FaultPlan::GenerateElastic(opts_.seed, opts_.servers,
                                                   opts_.minFaultEvents,
                                                   opts_.subscribers)
                      : FaultPlan::Generate(opts_.seed, opts_.servers,
                                            opts_.minFaultEvents,
                                            opts_.subscribers);
    const FaultPlan& plan = report.plan;
    InvariantChecker checker;
    // Disk damage (flip/torn/full) can destroy the only on-disk copy of an
    // acked record, so the strict union-at-restart audit after a crash:all
    // is only sound on damage-free plans; the end-of-run [cache] check
    // (after peer backfill) covers the rest.
    bool planHasDiskFaults = false;
    for (const auto& ev : plan.events) {
      if (ev.kind == FaultEvent::Kind::kWalBitFlip ||
          ev.kind == FaultEvent::Kind::kWalTornTail ||
          ev.kind == FaultEvent::Kind::kDiskFull) {
        planHasDiskFaults = true;
      }
    }

    sim::Scheduler sched;
    SimCluster::Options copts;
    copts.servers = opts_.servers;
    copts.seed = opts_.seed;
    copts.serverLinks.duplicateProb = opts_.peerDuplicateProb;
    copts.metrics = opts_.metrics;
    copts.clientBackpressure = opts_.clientBackpressure;
    if (opts_.durability) {
      // Fault-injectable MemEnv WAL on every server. fsync=always makes the
      // ack→durable implication exact; small segments exercise rotation and
      // a generous retention keeps pruning away from still-acked history.
      copts.durableCache = true;
      copts.nodeConfig.wal.fsync = wal::FsyncPolicy::kAlways;
      copts.nodeConfig.wal.segmentBytes = 64 * 1024;
      copts.nodeConfig.wal.retainSegments = 64;
    }
    // Membership over the run: joins start deferred and flip active; a
    // graceful leave flips inactive. The final fence/cache sweep covers only
    // members still in the cluster at the end.
    std::vector<bool> active(opts_.servers, true);
    if (opts_.elastic) {
      copts.nodeConfig.elastic = true;
      for (const auto& ev : plan.events) {
        if (ev.kind == FaultEvent::Kind::kJoin && ev.victim < opts_.servers) {
          copts.deferredStart.insert(ev.victim);
          active[ev.victim] = false;
        }
      }
    }
    SimCluster cluster(sched, copts);
    cluster.StartAll();
    sched.RunFor(2 * kSecond);

    auto trace = [&](std::string line) {
      line += " @" + std::to_string(sched.Now());
      report.trace.push_back(std::move(line));
    };

    std::vector<std::string> topics;
    for (std::size_t t = 0; t < opts_.topics; ++t) {
      topics.push_back("chaos-" + std::to_string(t));
    }

    auto makeClient = [&](const std::string& id) {
      client::ClientConfig cfg;
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        // The address list carries the cluster ids so a HANDOFF redirect can
        // be honored as a directed reconnect to the named new owner.
        cfg.servers.push_back({"server", cluster.ClientPort(i), 1.0,
                               "server-" + std::to_string(i + 1)});
      }
      cfg.clientId = id;
      cfg.seed = Fnv1a64(id) ^ opts_.seed;
      cfg.ackTimeout = 3 * kSecond;
      cfg.backoffBase = 50 * kMillisecond;
      cfg.backoffMax = 500 * kMillisecond;
      cfg.blacklistTtl = 5 * kSecond;
      auto c = std::make_unique<client::Client>(cluster.clientLoop(), cfg);
      return c;
    };

    verify::Monitor* monitor = opts_.monitor;
    std::vector<std::unique_ptr<client::Client>> subs;
    for (std::size_t i = 0; i < opts_.subscribers; ++i) {
      const std::string id = "sub-" + std::to_string(i);
      auto sub = makeClient(id);
      // The monitor observes the PRE-filter wire stream, keyed by connection
      // generation: each reconnect starts a fresh logical stream, so a
      // resume backfill re-sending positions the previous connection already
      // emitted is (correctly) not a violation. The post-filter stream the
      // checker records is a different vantage; both must end up clean.
      auto gen = std::make_shared<std::uint64_t>(0);
      sub->SetConnectionListener([gen](bool up) {
        if (up) ++*gen;
      });
      // A HANDOFF redirect closes this connection and re-attaches the session
      // to the new partition owner: seed the monitor's NEXT-generation stream
      // at the transferred cursor, so the first post-hand-off delivery is
      // checked with the strict [rebalance] continuity rule.
      sub->SetHandoffListener([&trace, id, monitor,
                               gen](const HandoffFrame& handoff) {
        trace("handoff " + id + " -> " + handoff.targetServerId + " (" +
              std::to_string(handoff.cursors.size()) + " cursors)");
        if (!monitor) return;
        const std::uint64_t next =
            MixU64(Fnv1a64(id) ^ ((*gen + 1) * 0x9E3779B97F4A7C15ULL));
        for (const auto& [topic, pos] : handoff.cursors) {
          monitor->OnHandoffResume(next, topic, pos);
        }
      });
      sub->SetDeliveryObserver([&checker, &trace, id, monitor,
                                gen](const Message& m, bool duplicate) {
        if (monitor) {
          monitor->OnDelivery(MixU64(Fnv1a64(id) ^
                                     (*gen * 0x9E3779B97F4A7C15ULL)),
                              m.topic, PosOf(m), m.pubId);
        }
        checker.OnDelivery(id, m, duplicate);
        trace((duplicate ? "drop " : "recv ") + id + " " + m.topic + " " +
              std::to_string(m.epoch) + ":" + std::to_string(m.seq) + " pub#" +
              std::to_string(m.pubId.counter));
      });
      for (const auto& topic : topics) {
        sub->Subscribe(topic, [](const Message&) {});
        checker.AddSubscription(id, topic);
      }
      sub->Start();
      subs.push_back(std::move(sub));
    }

    std::vector<std::unique_ptr<client::Client>> pubs;
    for (std::size_t j = 0; j < opts_.publishers; ++j) {
      auto pub = makeClient("pub-" + std::to_string(j));
      pub->Start();
      pubs.push_back(std::move(pub));
    }
    sched.RunFor(kSecond);  // let everyone connect

    // --- primer publications -----------------------------------------------
    // One message per topic before any fault fires, so every subscriber holds
    // a resume position on every stream. A client that first hears of a topic
    // while its server is fenced subscribes "from now" — the protocol owes it
    // no history, and the loss invariant must not pretend otherwise.
    auto primer = makeClient("primer");
    primer->Start();
    sched.RunFor(200 * kMillisecond);
    const std::uint64_t primerHash = Fnv1a64("primer");
    for (std::size_t t = 0; t < topics.size(); ++t) {
      const std::string& topic = topics[t];
      const PublicationId pubId{primerHash, t + 1};
      trace("pub primer#" + std::to_string(t + 1) + " " + topic);
      primer->Publish(topic, Bytes{0xEE, static_cast<std::uint8_t>(t)},
                      [&checker, &trace, t, topic, pubId](Status s) {
        if (s.ok()) {
          checker.OnAck(topic, pubId);
          trace("ack primer#" + std::to_string(t + 1) + " " + topic);
        } else {
          trace("nack primer#" + std::to_string(t + 1) + " " + topic);
        }
      });
    }
    sched.RunFor(kSecond);  // primer acks + deliveries settle
    primer->Stop();

    // --- fault schedule (offsets are relative to now) ----------------------
    // The acked set frozen at the instant a crash:all fires; the union audit
    // at restart compares the recovered caches against exactly this.
    std::map<std::string, std::vector<PublicationId>> ackedAtOutage;
    for (const auto& ev : plan.events) {
      sched.Schedule(ev.at, [&, ev] {
        switch (ev.kind) {
          case FaultEvent::Kind::kCrash:
            trace("fault crash server-" + std::to_string(ev.victim));
            cluster.CrashServer(ev.victim);
            break;
          case FaultEvent::Kind::kPartition:
            trace("fault partition server-" + std::to_string(ev.victim));
            cluster.PartitionServer(ev.victim);
            break;
          case FaultEvent::Kind::kLinkFlap:
            trace("fault flap server-" + std::to_string(ev.victim) +
                  "<->server-" + std::to_string(ev.peer));
            cluster.network().FlapLink(cluster.HostOf(ev.victim),
                                       cluster.HostOf(ev.peer), ev.duration);
            break;
          case FaultEvent::Kind::kSlowSubscriber:
            trace("fault slow sub-" + std::to_string(ev.victim));
            if (ev.victim < subs.size()) subs[ev.victim]->PauseReads(true);
            break;
          case FaultEvent::Kind::kJoin:
            trace("fault join server-" + std::to_string(ev.victim));
            active[ev.victim] = true;
            cluster.JoinServer(ev.victim);
            break;
          case FaultEvent::Kind::kLeave:
            trace("fault leave server-" + std::to_string(ev.victim));
            active[ev.victim] = false;
            cluster.LeaveServer(ev.victim, [&trace, v = ev.victim] {
              trace("leave-done server-" + std::to_string(v));
            });
            break;
          case FaultEvent::Kind::kMinorityPartition:
            trace("fault partition minority(" + std::to_string(ev.victim) +
                  ")");
            cluster.PartitionMinority(ev.victim);
            break;
          case FaultEvent::Kind::kCrashAll:
            trace("fault crash all");
            ackedAtOutage = checker.AckedSnapshot();
            for (std::size_t i = 0; i < cluster.size(); ++i) {
              if (active[i]) cluster.CrashServer(i);
            }
            break;
          case FaultEvent::Kind::kWalBitFlip:
            trace("fault wal-flip server-" + std::to_string(ev.victim));
            cluster.FlipWalBit(ev.victim, static_cast<std::uint64_t>(ev.at));
            break;
          case FaultEvent::Kind::kWalTornTail:
            trace("fault wal-torn server-" + std::to_string(ev.victim));
            cluster.TearWalTail(ev.victim, static_cast<std::uint64_t>(ev.at));
            break;
          case FaultEvent::Kind::kDiskFull:
            trace("fault wal-full server-" + std::to_string(ev.victim));
            cluster.SetWalFull(ev.victim, true);
            break;
        }
      });
      sched.Schedule(ev.at + ev.duration, [&, ev] {
        switch (ev.kind) {
          case FaultEvent::Kind::kCrash:
            trace("recover restart server-" + std::to_string(ev.victim));
            cluster.RestartServer(ev.victim);
            break;
          case FaultEvent::Kind::kPartition: {
            // A single-member cluster is its own quorum: cutting its (zero)
            // peer links can never cost it quorum contact, so fencing is not
            // expected there.
            if (ev.duration >= kFenceObservable && cluster.size() >= 2) {
              const bool fenced = cluster.node(ev.victim).IsFenced();
              const std::size_t local =
                  cluster.node(ev.victim).LocalClientCount();
              checker.OnPartitionObservation(ev.victim, fenced, local);
              trace("observe server-" + std::to_string(ev.victim) +
                    " fenced=" + std::to_string(fenced ? 1 : 0) +
                    " clients=" + std::to_string(local));
            }
            trace("recover heal server-" + std::to_string(ev.victim));
            cluster.HealServer(ev.victim);
            break;
          }
          case FaultEvent::Kind::kLinkFlap:
            // FlapLink's own heal fires at this same timestamp but after this
            // event (insertion order); heal explicitly so the TCP-style
            // recovery sync below runs against an open link.
            trace("recover flap-end server-" + std::to_string(ev.victim) +
                  "<->server-" + std::to_string(ev.peer));
            cluster.network().Heal(cluster.HostOf(ev.victim),
                                   cluster.HostOf(ev.peer));
            cluster.ResyncLink(ev.victim, ev.peer);
            break;
          case FaultEvent::Kind::kSlowSubscriber:
            // Resume drains the parked backlog (and any eviction close) in
            // order; the client then reconnects and backfills from its
            // resume position — [loss]/[order]/[dup] verify convergence.
            trace("recover slow-end sub-" + std::to_string(ev.victim));
            if (ev.victim < subs.size()) subs[ev.victim]->PauseReads(false);
            break;
          case FaultEvent::Kind::kJoin:
          case FaultEvent::Kind::kLeave:
            break;  // one-way transitions: nothing to recover
          case FaultEvent::Kind::kMinorityPartition: {
            // Long windows assert the elastic contract on every minority
            // member: quorum gate denied (publishes bounced with kNoQuorum)
            // and self-fenced with its clients shed.
            if (ev.duration >= kFenceObservable) {
              for (std::size_t i = 0; i < ev.victim && i < cluster.size();
                   ++i) {
                if (!active[i]) continue;
                const bool quorum = cluster.node(i).HasWriteQuorum();
                const bool fenced = cluster.node(i).IsFenced();
                const std::size_t local = cluster.node(i).LocalClientCount();
                checker.OnQuorumObservation(i, quorum);
                checker.OnPartitionObservation(i, fenced, local);
                trace("observe minority server-" + std::to_string(i) +
                      " quorum=" + std::to_string(quorum ? 1 : 0) +
                      " fenced=" + std::to_string(fenced ? 1 : 0) +
                      " clients=" + std::to_string(local));
              }
            }
            trace("recover heal minority(" + std::to_string(ev.victim) + ")");
            cluster.HealMinority(ev.victim);
            break;
          }
          case FaultEvent::Kind::kCrashAll: {
            trace("recover restart all");
            for (std::size_t i = 0; i < cluster.size(); ++i) {
              if (active[i]) cluster.RestartServer(i);
            }
            // Union audit at the restart instant: recovery is synchronous in
            // Restart(), and no peer backfill or client republish has had a
            // tick yet, so everything in the caches came off local WALs.
            // With fsync=always on undamaged disks the union must cover the
            // acked set frozen when the outage hit.
            if (cluster.HasDurableCache() && !planHasDiskFaults) {
              for (const auto& [topic, ids] : ackedAtOutage) {
                std::set<PublicationId> recovered;
                for (std::size_t i = 0; i < cluster.size(); ++i) {
                  if (!active[i]) continue;
                  for (const auto& m :
                       cluster.node(i).cache().GetAfter(topic, {0, 0})) {
                    recovered.insert(m.pubId);
                  }
                }
                const std::size_t missing = checker.OnDurabilityObservation(
                    "cluster", topic, ids, recovered);
                if (monitor) monitor->OnRecoveryAudit("cluster/" + topic,
                                                      missing);
                trace("observe durability " + topic +
                      " acked=" + std::to_string(ids.size()) +
                      " missing=" + std::to_string(missing));
              }
            }
            break;
          }
          case FaultEvent::Kind::kWalBitFlip:
          case FaultEvent::Kind::kWalTornTail:
            break;  // latent damage: exposed by the next crash, nothing heals
          case FaultEvent::Kind::kDiskFull:
            trace("recover wal-full-end server-" + std::to_string(ev.victim));
            cluster.SetWalFull(ev.victim, false);
            break;
        }
      });
    }

    // --- backpressure sampler ----------------------------------------------
    // Every 100ms of virtual time, record the deepest client send queue per
    // server; the [backpressure] invariant bounds it by the hard watermark.
    const std::size_t hardMark = opts_.clientBackpressure.hardWatermark;
    auto sampler = std::make_shared<std::function<void()>>();
    // Weak self-reference: the local shared_ptr owns the function for the
    // whole run; a by-value capture would be a shared_ptr cycle (leak).
    *sampler = [&checker, &cluster, &sched, hardMark, monitor,
                weak = std::weak_ptr<std::function<void()>>(sampler)] {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        const std::size_t pending = cluster.MaxClientPending(i);
        checker.OnPendingSample(i, pending, hardMark);
        if (monitor) monitor->OnBackpressure(i, pending, hardMark);
      }
      if (auto self = weak.lock()) sched.Schedule(100 * kMillisecond, *self);
    };
    sched.Schedule(100 * kMillisecond, *sampler);

    // --- monitor feed: snapshots + deliberate injection --------------------
    const Duration horizon = plan.Horizon();
    if (monitor) {
      // Early baseline snapshot so the counter-monotonicity rule has a
      // previous sample per series; the final snapshot after quiesce closes
      // the pair.
      sched.Schedule(1500 * kMillisecond, [&cluster, monitor] {
        monitor->OnMetricsSnapshot(cluster.metrics().Snapshot());
      });
      if (opts_.inject) {
        const Duration when =
            opts_.injectAt > 0 ? opts_.injectAt
                               : std::max<Duration>(horizon / 2, 2 * kSecond);
        sched.Schedule(when, [monitor, &trace, kind = *opts_.inject] {
          trace(std::string("inject ") + verify::ViolationKindName(kind));
          monitor->InjectFault(kind);
        });
      }
    }

    // --- publish traffic ---------------------------------------------------
    Duration interval = opts_.publishInterval;
    if (interval <= 0) {
      interval = std::max<Duration>(
          200 * kMillisecond,
          horizon / static_cast<Duration>(
                        std::max<std::size_t>(1, opts_.publicationsPerPublisher)));
    }
    const Duration stagger =
        interval / static_cast<Duration>(std::max<std::size_t>(1, opts_.publishers));
    for (std::size_t j = 0; j < opts_.publishers; ++j) {
      const std::string id = "pub-" + std::to_string(j);
      const std::uint64_t clientHash = Fnv1a64(id);
      for (std::size_t k = 0; k < opts_.publicationsPerPublisher; ++k) {
        const Duration when =
            static_cast<Duration>(k) * interval + static_cast<Duration>(j) * stagger;
        const std::string& topic = topics[(j + k) % topics.size()];
        // Client::Publish assigns pubId {hash(clientId), n} for the n-th
        // publication, so the ack can be tied back without a protocol hook.
        const PublicationId pubId{clientHash, k + 1};
        sched.Schedule(when, [&, j, k, topic, id, pubId] {
          trace("pub " + id + "#" + std::to_string(k + 1) + " " + topic);
          Bytes payload{static_cast<std::uint8_t>(j),
                        static_cast<std::uint8_t>(k & 0xFF),
                        static_cast<std::uint8_t>(k >> 8)};
          pubs[j]->Publish(topic, std::move(payload),
                           [&checker, &trace, id, k, topic, pubId](Status s) {
            if (s.ok()) {
              checker.OnAck(topic, pubId);
              trace("ack " + id + "#" + std::to_string(k + 1) + " " + topic);
            } else {
              trace("nack " + id + "#" + std::to_string(k + 1) + " " + topic);
            }
          });
        });
      }
    }

    const Duration trafficEnd =
        static_cast<Duration>(opts_.publicationsPerPublisher) * interval;
    sched.RunFor(std::max(horizon, trafficEnd) + opts_.quiesce);

    // --- final observations ------------------------------------------------
    // Only servers that are members at the end of the run: a gracefully left
    // server is inert (its cache owes nobody anything), a deferred server
    // that never joined holds no state.
    const auto ackedFinal = checker.AckedSnapshot();
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (!active[i]) continue;
      checker.OnFinalFenceState(i, cluster.node(i).IsFenced());
      if (opts_.checkCaches) {
        // The monitor gets the same audit as the checker's [cache] rule: how
        // many acked publications this server's post-quiesce cache is
        // missing. Clean runs report zero — which is exactly the eligible
        // observation a one-shot `--inject durability` needs to fire on.
        std::size_t monitorMissing = 0;
        for (const auto& topic : topics) {
          std::set<PublicationId> ids;
          for (const auto& m : cluster.node(i).cache().GetAfter(topic, {0, 0})) {
            ids.insert(m.pubId);
          }
          if (monitor) {
            const auto ackIt = ackedFinal.find(topic);
            if (ackIt != ackedFinal.end()) {
              for (const auto& id : ackIt->second) {
                if (!ids.contains(id)) ++monitorMissing;
              }
            }
          }
          checker.OnFinalCache(i, topic, std::move(ids));
        }
        if (monitor) {
          monitor->OnRecoveryAudit("server-" + std::to_string(i),
                                   monitorMissing);
        }
      }
    }

    // Couple the registry to the checker's ground truth ([metrics] checks).
    report.metrics = cluster.metrics().Snapshot();
    if (monitor) monitor->OnMetricsSnapshot(report.metrics);
    InvariantChecker::MetricsTotals totals;
    totals.published = static_cast<std::uint64_t>(
        report.metrics.Total("md_cluster_published_total"));
    totals.delivered = static_cast<std::uint64_t>(
        report.metrics.Total("md_cluster_delivered_total"));
    totals.backfilled = static_cast<std::uint64_t>(
        report.metrics.Total("md_cluster_backfilled_total"));
    totals.fences = static_cast<std::uint64_t>(
        report.metrics.Total("md_cluster_fences_total"));
    totals.unfences = static_cast<std::uint64_t>(
        report.metrics.Total("md_cluster_unfences_total"));
    totals.replicationPendingSum = static_cast<std::int64_t>(
        report.metrics.Total("md_cluster_replication_pending"));
    Duration maxFault = 0;
    for (const auto& ev : plan.events) {
      if (ev.kind == FaultEvent::Kind::kCrash) ++totals.crashFaults;
      maxFault = std::max(maxFault, ev.duration);
    }
    // Fault window plus quorum-loss detection and recovery slack.
    totals.failoverBound = maxFault + 15 * kSecond;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (active[i] && cluster.node(i).IsFenced()) ++totals.stillFenced;
    }
    if (const auto* fam = report.metrics.Family("md_cluster_failover_ns")) {
      for (const auto& sample : fam->samples) {
        if (sample.count > 0) {
          totals.failoverMaxNs = std::max(totals.failoverMaxNs, sample.max);
        }
      }
    }
    checker.OnMetricsTotals(totals);

    report.acked = checker.acked();
    report.deliveries = checker.deliveries();
    report.duplicatesFiltered = checker.duplicatesFiltered();
    trace("end acked=" + std::to_string(report.acked) +
          " deliveries=" + std::to_string(report.deliveries) +
          " dupsFiltered=" + std::to_string(report.duplicatesFiltered) +
          " fences=" + std::to_string(totals.fences) +
          " unfences=" + std::to_string(totals.unfences));
    report.violations = checker.Check();

    // Stop clients while the cluster still exists so teardown acks (kClosed)
    // fire now, not against a dead loop.
    for (auto& pub : pubs) pub->Stop();
    for (auto& sub : subs) sub->Stop();
    return report;
  }

 private:
  ChaosOptions opts_;
};

}  // namespace md::cluster
