// md_chaos — deterministic chaos sweeps against the simulated cluster.
//
// Runs seed-derived fault schedules (crash/restart, partition/heal, link
// flaps) against a full SimCluster with real client-library traffic and
// checks every delivery invariant (see src/cluster/chaos.hpp). Exits
// non-zero if any seed produces a violation, printing a minimized repro
// line that replays the failure standalone.
//
//   md_chaos --seed 17                        # one seed, verbose
//   md_chaos --seeds 50                       # sweep seeds 1..50
//   md_chaos --first 100 --seeds 200          # sweep seeds 100..299
//   md_chaos --seed 17 --events "crash:1@2000+2500;part:0@12000+6000"
//   md_chaos --seed 17 --trace                # dump the full event trace
//
//   md_chaos --elastic --seeds 20             # join/leave/minority schedules
//   md_chaos --plan join                      # canned single-event plans:
//                                             # join | leave | minority
//
//   md_chaos --durability --seeds 20          # WAL crash/disk-fault schedules
//   md_chaos --crash                          # cluster-wide kill -9 + audit
//   md_chaos --plan crash|disk                # canned durability plans
//
// Flags: --servers N (3), --min-events N (5), --publications N (24),
//        --subscribers N (3), --publishers N (2), --topics N (2),
//        --no-minimize, --quiet,
//        --elastic (live rebalancing + quorum gating; generated schedules
//        come from FaultPlan::GenerateElastic),
//        --durability (fault-injectable WAL under every cache; generated
//        schedules come from FaultPlan::GenerateDurability; auto-enabled by
//        WAL-ish --events/--plan schedules),
//        --plan join|leave|minority|crash|disk (shorthand for a canned
//        single-window --events schedule; join/leave/minority imply
//        --elastic, crash/disk imply --durability),
//        --crash (shorthand for --plan crash),
//        --monitor (ride a verify::Monitor along each run; its violations
//        fail the seed exactly like checker violations),
//        --inject KIND (with --monitor: arm one deliberate fault mid-run and
//        require the monitor to flag exactly that kind — detection self-test)
#include <cstdio>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "verify/monitor.hpp"

#include "cluster/chaos.hpp"
#include "tools/flags.hpp"

namespace {

using md::cluster::ChaosDriver;
using md::cluster::ChaosOptions;
using md::cluster::ChaosReport;
using md::cluster::FaultPlan;

ChaosReport RunOnce(const ChaosOptions& opts) {
  return ChaosDriver(opts).Run();
}

/// Greedy event minimization: repeatedly try dropping single events from the
/// failing plan, keeping any removal that still violates an invariant, until
/// no single removal does. The result is a locally-minimal failing schedule.
FaultPlan Minimize(const ChaosOptions& base, const FaultPlan& failing) {
  FaultPlan current = failing;
  bool shrunk = true;
  while (shrunk && current.events.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.events.size(); ++i) {
      FaultPlan candidate = current;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      ChaosOptions opts = base;
      opts.plan = candidate;
      if (!RunOnce(opts).Passed()) {
        current = std::move(candidate);
        shrunk = true;
        break;  // restart scan against the smaller plan
      }
    }
  }
  return current;
}

void PrintRepro(const ChaosOptions& opts, const FaultPlan& plan) {
  std::printf("repro: md_chaos --seed %llu --servers %zu%s%s --events \"%s\"\n",
              static_cast<unsigned long long>(opts.seed), opts.servers,
              opts.elastic ? " --elastic" : "",
              opts.durability ? " --durability" : "", plan.ToString().c_str());
}

/// Canned single-event elastic schedules, the building blocks of rebalance
/// repros: "join" brings up the provisioned-but-idle last server mid-run,
/// "leave" retires a member gracefully, "minority" partitions a strict
/// minority past the fencing horizon and heals it. The durability pair:
/// "crash" kill -9s the whole cluster and audits the WAL-recovered union,
/// "disk" flips a bit in server 1's WAL and then crashes it over the damage.
std::string PlanShorthand(const std::string& name, std::size_t servers) {
  if (name == "join") {
    return "join:" + std::to_string(servers - 1) + "@2000";
  }
  if (name == "leave") {
    return "leave:" + std::to_string(servers - 1) + "@2500";
  }
  if (name == "minority") return "part:minority@2000+6000";
  if (name == "crash") return "crash:all@5000+3000";
  if (name == "disk") {
    return "flip:" + std::to_string(servers > 1 ? 1 : 0) + "@3000;crash:" +
           std::to_string(servers > 1 ? 1 : 0) + "@6000+2500";
  }
  return {};
}

bool IsElasticPlanName(const std::string& name) {
  return name == "join" || name == "leave" || name == "minority";
}

/// WAL-ish schedules need the fault-injectable WAL under every cache.
bool PlanNeedsDurability(const FaultPlan& plan) {
  for (const auto& ev : plan.events) {
    if (ev.kind == md::cluster::FaultEvent::Kind::kCrashAll ||
        ev.kind == md::cluster::FaultEvent::Kind::kWalBitFlip ||
        ev.kind == md::cluster::FaultEvent::Kind::kWalTornTail ||
        ev.kind == md::cluster::FaultEvent::Kind::kDiskFull) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  md::tools::Flags flags(
      argc, argv,
      {"crash", "durability", "elastic", "events", "first", "inject",
       "min-events", "monitor", "no-minimize", "plan", "publications",
       "publishers", "quiet", "seed", "seeds", "servers", "subscribers",
       "topics", "trace"});

  ChaosOptions base;
  base.servers = static_cast<std::size_t>(flags.GetInt("servers", 3));
  base.subscribers = static_cast<std::size_t>(flags.GetInt("subscribers", 3));
  base.publishers = static_cast<std::size_t>(flags.GetInt("publishers", 2));
  base.topics = static_cast<std::size_t>(flags.GetInt("topics", 2));
  base.publicationsPerPublisher =
      static_cast<std::size_t>(flags.GetInt("publications", 24));
  base.minFaultEvents = static_cast<std::size_t>(flags.GetInt("min-events", 5));
  base.elastic = flags.GetBool("elastic") ||
                 (flags.Has("plan") && IsElasticPlanName(flags.Get("plan")));
  base.durability = flags.GetBool("durability");
  const bool quiet = flags.GetBool("quiet");
  const bool dumpTrace = flags.GetBool("trace");
  const bool minimize = !flags.GetBool("no-minimize");

  const bool withMonitor = flags.GetBool("monitor");
  std::optional<md::verify::ViolationKind> inject;
  if (flags.Has("inject")) {
    inject = md::verify::ParseViolationKind(flags.Get("inject"));
    if (!inject || !withMonitor) {
      std::fprintf(stderr,
                   "md_chaos: --inject needs --monitor and a kind out of "
                   "order|gap|duplicate|backpressure|metrics|rebalance|"
                   "durability\n");
      return 2;
    }
  }

  std::uint64_t first = static_cast<std::uint64_t>(flags.GetInt("first", 1));
  std::uint64_t count = static_cast<std::uint64_t>(flags.GetInt("seeds", 0));
  if (flags.Has("seed")) {
    first = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    count = 1;
  } else if (count == 0) {
    count = 1;
  }

  std::string events;
  if (flags.Has("plan")) {
    events = PlanShorthand(flags.Get("plan"), base.servers);
    if (events.empty()) {
      std::fprintf(stderr,
                   "md_chaos: --plan must be one of "
                   "join|leave|minority|crash|disk\n");
      return 2;
    }
  }
  if (flags.GetBool("crash")) events = PlanShorthand("crash", base.servers);
  if (flags.Has("events")) events = flags.Get("events");

  std::optional<FaultPlan> explicitPlan;
  if (!events.empty()) {
    explicitPlan = FaultPlan::Parse(events, base.servers);
    if (!explicitPlan) {
      std::fprintf(stderr, "md_chaos: cannot parse --events \"%s\"\n",
                   events.c_str());
      return 2;
    }
    if (count != 1) {
      std::fprintf(stderr, "md_chaos: --events requires a single --seed\n");
      return 2;
    }
    if (PlanNeedsDurability(*explicitPlan)) base.durability = true;
  }
  if (base.durability && base.elastic) {
    std::fprintf(stderr,
                 "md_chaos: --durability and --elastic are mutually "
                 "exclusive\n");
    return 2;
  }

  int failures = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    ChaosOptions opts = base;
    opts.seed = seed;
    opts.plan = explicitPlan;
    // One registry + monitor per seed: sweeps must not share counters.
    std::unique_ptr<md::obs::MetricsRegistry> registry;
    std::unique_ptr<md::verify::Monitor> monitor;
    if (withMonitor) {
      registry = std::make_unique<md::obs::MetricsRegistry>();
      md::verify::MonitorConfig mcfg;
      mcfg.scope = "sim";
      monitor = std::make_unique<md::verify::Monitor>(*registry, mcfg);
      opts.monitor = monitor.get();
      opts.inject = inject;
    }
    ChaosReport report = RunOnce(opts);

    if (monitor) {
      if (inject) {
        // Self-test mode: the one armed fault must fire — as exactly one
        // violation of exactly the injected kind.
        const auto kind = *inject;
        if (monitor->ViolationCount(kind) != 1 ||
            monitor->ViolationCount() != 1) {
          report.violations.push_back(
              std::string("[monitor] injected ") +
              md::verify::ViolationKindName(kind) + " fault produced " +
              std::to_string(monitor->ViolationCount(kind)) + " " +
              md::verify::ViolationKindName(kind) + " violation(s), " +
              std::to_string(monitor->ViolationCount()) + " total (want 1/1)");
        } else if (!quiet) {
          std::printf("seed %llu: monitor caught injected %s: %s\n",
                      static_cast<unsigned long long>(seed),
                      md::verify::ViolationKindName(kind),
                      monitor->Reports().front().detail.c_str());
        }
      } else {
        // Clean run: the monitor must agree with the checker that nothing
        // went wrong.
        for (const auto& v : monitor->Reports()) {
          report.violations.push_back("[monitor] " + v.detail);
        }
      }
    }

    if (dumpTrace) {
      for (const auto& line : report.trace) std::printf("%s\n", line.c_str());
    }
    if (report.Passed()) {
      if (!quiet) {
        std::printf(
            "seed %llu: PASS  (%zu fault events, %llu acked, %llu delivered, "
            "%llu dups filtered)\n",
            static_cast<unsigned long long>(seed), report.plan.events.size(),
            static_cast<unsigned long long>(report.acked),
            static_cast<unsigned long long>(report.deliveries),
            static_cast<unsigned long long>(report.duplicatesFiltered));
      }
      continue;
    }

    ++failures;
    std::printf("seed %llu: FAIL  (%zu fault events: %s)\n",
                static_cast<unsigned long long>(seed),
                report.plan.events.size(), report.plan.ToString().c_str());
    for (const auto& v : report.violations) {
      std::printf("  %s\n", v.c_str());
    }
    if (minimize && report.plan.events.size() > 1) {
      const FaultPlan minimal = Minimize(opts, report.plan);
      std::printf("minimized to %zu event(s)\n", minimal.events.size());
      PrintRepro(opts, minimal);
    } else {
      PrintRepro(opts, report.plan);
    }
  }

  if (failures > 0) {
    std::printf("md_chaos: %d of %llu seed(s) FAILED\n", failures,
                static_cast<unsigned long long>(count));
    return 1;
  }
  if (!quiet) {
    std::printf("md_chaos: all %llu seed(s) passed\n",
                static_cast<unsigned long long>(count));
  }
  return 0;
}
