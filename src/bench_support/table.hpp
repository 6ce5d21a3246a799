// Table formatting for the benchmark harness: prints rows shaped like the
// paper's tables plus paper-vs-measured comparisons with shape checks.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/strutil.hpp"

namespace md::bench {

/// One row of a Table-1-style latency table.
struct LatencyRow {
  std::string label;
  LatencySummary latency;
  double cpuPercent = 0;
  double gbps = 0;
  int topics = 0;
};

inline void PrintLatencyTableHeader(const char* labelName) {
  std::printf("%-8s %8s %8s %8s %8s %8s %8s %8s %7s %7s\n", labelName, "Median",
              "Mean", "StDev", "P90", "P95", "P99", "CPU", "Gbps", "Topics");
}

inline void PrintLatencyRow(const LatencyRow& row) {
  std::printf("%-8s %8.0f %8.2f %8.2f %8.0f %8.0f %8.0f %7.2f%% %7.2f %7d\n",
              row.label.c_str(), row.latency.medianMs, row.latency.meanMs,
              row.latency.stdDevMs, row.latency.p90Ms, row.latency.p95Ms,
              row.latency.p99Ms, row.cpuPercent, row.gbps, row.topics);
}

/// Prints "paper vs measured" and whether the shape constraint holds.
struct ShapeCheck {
  std::string name;
  double paper = 0;
  double measured = 0;
  bool pass = false;
};

/// Returns whether every check passed.
inline bool PrintShapeChecks(const std::vector<ShapeCheck>& checks) {
  std::printf("\nShape checks (paper -> measured):\n");
  int passed = 0;
  for (const auto& c : checks) {
    std::printf("  [%s] %-52s paper=%10.2f measured=%10.2f\n",
                c.pass ? "PASS" : "FAIL", c.name.c_str(), c.paper, c.measured);
    if (c.pass) ++passed;
  }
  std::printf("  %d/%zu shape checks passed\n", passed, checks.size());
  return passed == static_cast<int>(checks.size());
}

}  // namespace md::bench
