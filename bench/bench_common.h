// Shared setup for the paper reproductions (`dprof bench table_*`, figure_*,
// ablation_*, case_study_fixes): builds the machine of the paper's
// evaluation (§6) and renders each reproduction's rows twice — as text for
// people, and as `<view>.<row key>.<column>` metrics that ci/check_tables.py
// reads from `dprof bench <name> --json`.
//
// Every reproduction fixes its seeds and lengths, so tables are
// reproducible run-to-run; the CLI rejects --seed/--scale for them.

#ifndef DPROF_BENCH_BENCH_COMMON_H_
#define DPROF_BENCH_BENCH_COMMON_H_

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cli/bench_registry.h"
#include "src/cli/scenario_registry.h"
#include "src/dprof/session.h"
#include "src/profilers/code_profiler.h"
#include "src/profilers/lock_stat.h"
#include "src/workload/apache.h"
#include "src/workload/kernel.h"
#include "src/workload/memcached.h"

namespace dprof {

// The paper reproductions, one per bench/*.cc file.
BenchReport RunTable61MemcachedProfile(const BenchParams& params);
BenchReport RunTable62LockstatMemcached(const BenchParams& params);
BenchReport RunTable63OprofileMemcached(const BenchParams& params);
BenchReport RunTable64And65ApacheProfile(const BenchParams& params);
BenchReport RunTable66LockstatApache(const BenchParams& params);
BenchReport RunTable67HistoryCollection(const BenchParams& params);
BenchReport RunTable68HistoryRates(const BenchParams& params);
BenchReport RunTable69OverheadBreakdown(const BenchParams& params);
BenchReport RunTable610Pairwise(const BenchParams& params);
BenchReport RunFigure61DataflowSkbuff(const BenchParams& params);
BenchReport RunFigure62IbsOverhead(const BenchParams& params);
BenchReport RunFigure63UniquePaths(const BenchParams& params);
BenchReport RunAblationPairwise(const BenchParams& params);
BenchReport RunAblationSamplingRate(const BenchParams& params);
BenchReport RunCaseStudyFixes(const BenchParams& params);

// The paper's evaluation machine: the `paper-amd` preset (four quad-core
// sockets, each with its own 4MB L3 slice) with the typed allocator and
// kernel environment. No executor is set: reproductions run on the direct
// loop.
inline std::unique_ptr<ScenarioRig> MakePaperRig(uint64_t seed) {
  RunSpec spec;
  spec.topology = "paper-amd";
  spec.seed = seed;
  return MakeBaseRig(spec);
}

// Warms to a steady state, then measures throughput over `measure` cycles.
inline double MeasureThroughput(Machine& machine, Workload& workload, uint64_t warm,
                                uint64_t measure) {
  machine.RunFor(warm);
  workload.ResetStats();
  const uint64_t start = machine.MaxClock();
  machine.RunFor(measure);
  return ThroughputRps(workload.CompletedRequests(), machine.MaxClock() - start);
}

// printf into `out`: under --json stdout carries only the JSON document, so
// a reproduction's text goes into its report.
__attribute__((format(printf, 2, 3))) inline void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[old], static_cast<size_t>(n) + 1, fmt, args);
    out->resize(old + static_cast<size_t>(n));
  }
  va_end(args);
}

inline BenchReport StartReport(const char* bench, const char* what, const char* paper_ref) {
  BenchReport report;
  report.bench = bench;
  const std::string rule(64, '=');
  report.text = rule + "\n" + what + "\nreproduces: " + paper_ref + "\n" + rule + "\n\n";
  return report;
}

// One table cell as the metric `<view>.<row>.<column>`.
inline void AddCell(BenchReport& report, const std::string& view, const std::string& row,
                    const std::string& column, double value, const char* unit) {
  report.metrics.push_back({view + "." + row + "." + column, value, unit});
}

// The rows DataProfile::ToTable(top_n) prints, without its Total row.
inline void AddProfileCells(BenchReport& report, const std::string& view,
                            const DataProfile& profile, size_t top_n) {
  for (size_t i = 0; i < profile.rows().size() && i < top_n; ++i) {
    const DataProfileRow& row = profile.rows()[i];
    AddCell(report, view, row.name, "ws_bytes", row.working_set_bytes, "B");
    AddCell(report, view, row.name, "miss_pct", row.miss_pct, "%");
    AddCell(report, view, row.name, "bounce", row.bounce ? 1.0 : 0.0, "");
  }
}

// The rows LockStat::ReportTable prints, as `locks.<lock name>.<column>`.
inline void AddLockCells(BenchReport& report, const std::vector<LockStatRow>& rows) {
  for (const LockStatRow& row : rows) {
    AddCell(report, "locks", row.name, "wait_s", row.wait_seconds, "s");
    AddCell(report, "locks", row.name, "overhead_pct", row.overhead_pct, "%");
  }
}

}  // namespace dprof

#endif  // DPROF_BENCH_BENCH_COMMON_H_
