// Shared harness for the object-access-history benches (paper §6.4,
// Tables 6.7-6.10 and Figure 6-3): runs history collection for one data
// type under a live workload and reports times, rates, and overheads.
//
// Like the paper (§6.4 last paragraph), collection is restricted to the
// object members the access samples flag as hot, which is what makes
// pairwise sampling tractable.

#ifndef DPROF_BENCH_HISTORY_BENCH_H_
#define DPROF_BENCH_HISTORY_BENCH_H_

#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace dprof {

struct HistoryBenchResult {
  std::string benchmark;
  std::string type_name;
  uint32_t object_size = 0;
  uint64_t histories = 0;
  uint32_t sets = 0;
  double collection_seconds = 0.0;
  double overhead_pct = 0.0;
  double elements_per_history = 0.0;
  double histories_per_second = 0.0;
  double elements_per_second = 0.0;
  HistoryOverhead breakdown;
};

struct HistoryBenchConfig {
  std::string benchmark;
  std::string type_name;
  uint32_t sets = 4;
  bool pair_mode = false;
  size_t max_member_offsets = 32;  // hot members monitored (paper §6.4)
  uint64_t max_cycles = 3'000'000'000ull;
};

// Factory builds a fresh workload inside the rig (so baseline and collection
// runs are independent and deterministic).
using WorkloadFactory = std::function<std::unique_ptr<Workload>(ScenarioRig&)>;

inline HistoryBenchResult RunHistoryBench(const WorkloadFactory& factory,
                                          const HistoryBenchConfig& config) {
  HistoryBenchResult result;
  result.benchmark = config.benchmark;
  result.type_name = config.type_name;
  result.sets = config.sets;

  // Baseline throughput without any profiling.
  double baseline = 0.0;
  {
    auto rig = MakePaperRig(11);
    auto workload = factory(*rig);
    workload->Install(*rig->machine);
    baseline = MeasureThroughput(*rig->machine, *workload, 15'000'000, 20'000'000);
  }

  // Collection run: short access-sample phase to find hot members, then the
  // history sweeps.
  auto rig = MakePaperRig(11);
  auto workload = factory(*rig);
  workload->Install(*rig->machine);
  const TypeId type = rig->registry->Find(config.type_name);
  result.object_size = rig->registry->Size(type);

  DProfOptions options;
  options.ibs_period_ops = 150;
  options.history.pair_mode = config.pair_mode;
  options.history_phase_max_cycles = config.max_cycles;
  DProfSession session(rig->machine.get(), rig->allocator.get(), options);
  rig->machine->RunFor(15'000'000);
  session.CollectAccessSamples(8'000'000);
  options.history.member_offsets =
      session.samples().HotOffsets(type, config.max_member_offsets);

  // Timed collection of the requested number of sets.
  DProfOptions collect_options = options;
  DProfSession collect_session(rig->machine.get(), rig->allocator.get(), collect_options);
  const uint64_t elapsed = collect_session.CollectHistories(type, config.sets);
  result.histories = collect_session.histories(type).size();
  result.collection_seconds = static_cast<double>(elapsed) / kCyclesPerSecond;
  result.breakdown = collect_session.history_overhead(type);

  // Overhead: throughput over a fixed window while collection runs
  // continuously (sets unbounded), against the unprofiled baseline.
  {
    auto overhead_rig = MakePaperRig(11);
    auto overhead_workload = factory(*overhead_rig);
    overhead_workload->Install(*overhead_rig->machine);
    DProfOptions continuous = options;
    continuous.history_phase_max_cycles = 20'000'000;
    DProfSession continuous_session(overhead_rig->machine.get(), overhead_rig->allocator.get(),
                                    continuous);
    overhead_rig->machine->RunFor(15'000'000);
    overhead_workload->ResetStats();
    const uint64_t start = overhead_rig->machine->MaxClock();
    continuous_session.CollectHistories(overhead_rig->registry->Find(config.type_name), 0);
    const double tput = ThroughputRps(overhead_workload->CompletedRequests(),
                                      overhead_rig->machine->MaxClock() - start);
    result.overhead_pct = 100.0 * (baseline - tput) / baseline;
  }
  if (result.histories > 0) {
    result.elements_per_history = static_cast<double>(result.breakdown.elements_recorded) /
                                  static_cast<double>(result.histories);
  }
  if (result.collection_seconds > 0) {
    result.histories_per_second =
        static_cast<double>(result.histories) / result.collection_seconds;
    result.elements_per_second =
        static_cast<double>(result.breakdown.elements_recorded) / result.collection_seconds;
  }
  return result;
}

// One Table 6.7/6.10 row as `<view>.<benchmark>/<type>.<column>` metrics.
inline void AddHistoryCells(BenchReport& report, const std::string& view,
                            const HistoryBenchResult& r) {
  const std::string row = r.benchmark + "/" + r.type_name;
  AddCell(report, view, row, "size", r.object_size, "B");
  AddCell(report, view, row, "histories", static_cast<double>(r.histories), "");
  AddCell(report, view, row, "sets", r.sets, "");
  AddCell(report, view, row, "time_s", r.collection_seconds, "s");
  AddCell(report, view, row, "overhead_pct", r.overhead_pct, "%");
}

// The (benchmark, type) rows of paper Tables 6.7/6.8.
inline std::vector<std::pair<WorkloadFactory, HistoryBenchConfig>> PaperHistoryRows(
    bool pair_mode) {
  auto memcached = [](ScenarioRig& rig) -> std::unique_ptr<Workload> {
    MemcachedConfig config;
    config.rx_ring_entries = 96;
    return std::make_unique<MemcachedWorkload>(rig.env.get(), config);
  };
  auto apache = [](ScenarioRig& rig) -> std::unique_ptr<Workload> {
    // Saturated but admission-controlled, so profiling overhead shows up as
    // lost throughput rather than vanishing into idle time.
    ApacheConfig config = ApacheConfig::Fixed();
    config.admission_limit = 64;
    return std::make_unique<ApacheWorkload>(rig.env.get(), config);
  };

  std::vector<std::pair<WorkloadFactory, HistoryBenchConfig>> rows;
  HistoryBenchConfig config;
  config.pair_mode = pair_mode;
  config.max_member_offsets = pair_mode ? 10 : 32;

  config.benchmark = "memcached";
  config.type_name = "size-1024";
  config.sets = pair_mode ? 1 : 3;
  rows.push_back({memcached, config});
  config.type_name = "skbuff";
  config.sets = pair_mode ? 1 : 6;
  rows.push_back({memcached, config});

  config.benchmark = "Apache";
  config.type_name = "size-1024";
  config.sets = pair_mode ? 1 : 4;
  rows.push_back({apache, config});
  config.type_name = "skbuff";
  config.sets = pair_mode ? 1 : 6;
  rows.push_back({apache, config});
  config.type_name = "skbuff_fclone";
  config.sets = pair_mode ? 1 : 6;
  rows.push_back({apache, config});
  config.type_name = "tcp_sock";
  config.sets = pair_mode ? 1 : 4;
  rows.push_back({apache, config});
  return rows;
}

}  // namespace dprof

#endif  // DPROF_BENCH_HISTORY_BENCH_H_
