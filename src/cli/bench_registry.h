// The bench registry behind `dprof bench <name> [--json]`.
//
// Each bench is a named function producing a flat list of metrics. Two
// kinds are registered:
//  - host-cost benches (micro_costs, hierarchy, parallel_engine,
//    whatif_smoke), which take --scale/--seed and which CI compares against
//    the merge base;
//  - paper reproductions (bench/*.cc: table_*, figure_*, ablation_*,
//    case_study_fixes), which fix their own seeds and lengths, print their
//    tables as text and emit each row as `<view>.<row key>.<column>`
//    metrics, which ci/check_tables.py reads.

#ifndef DPROF_SRC_CLI_BENCH_REGISTRY_H_
#define DPROF_SRC_CLI_BENCH_REGISTRY_H_

#include <functional>
#include <map>
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

using BenchFn = std::function<BenchReport(const BenchParams&)>;

struct BenchInfo {
  std::string name;
  std::string description;
  BenchFn fn;
  // A paper reproduction: it fixes its own seeds and lengths, so the CLI
  // rejects --scale and --seed for it.
  bool reproduction = false;
};

class BenchRegistry {
 public:
  bool Register(const std::string& name, const std::string& description, BenchFn fn,
                bool reproduction = false);

  const BenchInfo* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  size_t size() const { return benches_.size(); }

  // The registry with the built-in benches pre-registered.
  static BenchRegistry& Default();

 private:
  std::map<std::string, BenchInfo> benches_;
};

void RegisterBuiltinBenches(BenchRegistry& registry);

// Renders `report` as the machine-readable JSON document
// `dprof bench --json` prints.
std::string BenchReportToJson(const BenchReport& report);

// Renders `report` as an aligned human-readable table.
std::string BenchReportToText(const BenchReport& report);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_BENCH_REGISTRY_H_
