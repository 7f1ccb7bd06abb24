// The bench catalog behind `dprof bench <name> [--json]`.
//
// Each bench is a named function producing a flat list of metrics, one row
// of a constant table (kBenches in bench_registry.cc). There are two kinds:
//  - host-cost benches (micro_costs, hierarchy, parallel_engine,
//    whatif_smoke), which take --scale/--seed and which CI compares against
//    the merge base;
//  - paper reproductions (bench/*.cc: table_*, figure_*, ablation_*,
//    case_study_fixes), one per experiment, so tables that view one
//    experiment share a bench (table_6_2_6_3_lockstat_oprofile_memcached,
//    table_6_4_6_5_apache_profile, table_6_7_6_8_6_9_history). They fix
//    their own seeds and lengths, print their tables as text and emit each
//    row as `<view>.<row key>.<column>` metrics, which ci/check_tables.py
//    reads.

#ifndef DPROF_SRC_CLI_BENCH_REGISTRY_H_
#define DPROF_SRC_CLI_BENCH_REGISTRY_H_

#include <string>
#include <vector>

namespace dprof {

struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BenchReport {
  std::string bench;
  std::vector<BenchMetric> metrics;
  // Free-form output (the paper reproductions' tables); printed before the
  // metrics in text mode, embedded as "output" in JSON.
  std::string text;
};

struct BenchParams {
  // Scale factor for iteration counts; CI uses 1, perf runs can raise it.
  double scale = 1.0;
  uint64_t seed = 1;
};

using BenchFn = BenchReport (*)(const BenchParams&);

struct BenchInfo {
  const char* name;
  const char* description;
  BenchFn fn;
  // A paper reproduction: it fixes its own seeds and lengths, so the CLI
  // rejects --scale and --seed for it.
  bool reproduction;
};

// The built-in benches.
class BenchRegistry {
 public:
  // Null for a name no bench has.
  const BenchInfo* Find(const std::string& name) const;
  // Every bench name, in name order.
  std::vector<std::string> Names() const;

  static const BenchRegistry& Default();
};

// Renders `report` as the machine-readable JSON document
// `dprof bench --json` prints.
std::string BenchReportToJson(const BenchReport& report);

// Renders `report` as an aligned human-readable table.
std::string BenchReportToText(const BenchReport& report);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_BENCH_REGISTRY_H_
