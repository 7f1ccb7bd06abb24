// Reproduces paper Figure 6-3: percent of unique execution paths captured as
// a function of the number of history sets collected.
//
// Paper shape: diminishing returns — 30-100 sets capture most unique paths
// for every type studied (their ground truth used 720 sets).
//
// Method, like the paper: collect a large number of sets once, treat the
// paths found across all of them as ground truth, then count how many
// distinct per-history path signatures appear within the first k sets.

#include <vector>

#include "bench/bench_common.h"
#include "src/util/table.h"

namespace dprof {
namespace {

std::vector<ObjectHistory> Collect(const char* workload_name, const char* type_name,
                                   uint32_t sets) {
  auto rig = MakePaperRig(5);
  std::unique_ptr<Workload> workload;
  if (std::string(workload_name) == "memcached") {
    MemcachedConfig config;
    config.rx_ring_entries = 48;  // short residency: many sets in bounded time
    workload = std::make_unique<MemcachedWorkload>(rig->env.get(), config);
  } else {
    workload = std::make_unique<ApacheWorkload>(rig->env.get(), ApacheConfig::Peak());
  }
  workload->Install(*rig->machine);

  DProfOptions options;
  options.ibs_period_ops = 200;
  // Sweep the hot members only, again like the paper.
  DProfSession session(rig->machine.get(), rig->allocator.get(), options);
  rig->machine->RunFor(10'000'000);
  session.CollectAccessSamples(6'000'000);
  const TypeId type = rig->registry->Find(type_name);

  DProfOptions collect_options = options;
  collect_options.history.member_offsets = session.samples().HotOffsets(type, 16);
  collect_options.history_phase_max_cycles = 6'000'000'000ull;
  DProfSession collector(rig->machine.get(), rig->allocator.get(), collect_options);
  collector.CollectHistories(type, sets);
  return collector.histories(type);
}

std::vector<ObjectHistory> FirstSets(const std::vector<ObjectHistory>& all, uint32_t sets) {
  std::vector<ObjectHistory> out;
  for (const ObjectHistory& h : all) {
    if (h.sweep < sets) {
      out.push_back(h);
    }
  }
  return out;
}

}  // namespace

BenchReport RunFigure63UniquePaths(const BenchParams&) {
  BenchReport report =
      StartReport("figure_6_3_unique_paths",
                  "Figure 6-3: % of unique paths captured vs history sets collected",
                  "Pesterev 2010, Figure 6-3");
  std::string& out = report.text;

  const uint32_t kGroundTruthSets = 48;  // paper used 720; shape is identical
  const std::vector<uint32_t> kCheckpoints = {2, 4, 8, 12, 16, 24, 32, 48};

  struct Series {
    const char* workload;
    const char* type;
  };
  const Series series[] = {
      {"memcached", "size-1024"}, {"memcached", "skbuff"},
      {"apache", "skbuff"},       {"apache", "tcp_sock"},
  };

  TablePrinter table({"Sets", "mc size-1024", "mc skbuff", "ap skbuff", "ap tcp_sock"});
  std::vector<std::vector<double>> columns;
  std::vector<size_t> totals;
  for (const Series& s : series) {
    const auto all = Collect(s.workload, s.type, kGroundTruthSets);
    const size_t total = PathTraceBuilder::CountUniqueSignatures(all);
    totals.push_back(total);
    const std::string row = std::string(s.workload) + "/" + s.type;
    AddCell(report, "unique_paths", row, "ground_truth", static_cast<double>(total), "");
    std::vector<double> column;
    for (const uint32_t sets : kCheckpoints) {
      const size_t found = PathTraceBuilder::CountUniqueSignatures(FirstSets(all, sets));
      column.push_back(total == 0 ? 0.0
                                  : 100.0 * static_cast<double>(found) /
                                        static_cast<double>(total));
      AddCell(report, "unique_paths", row, "pct_at_" + std::to_string(sets), column.back(), "%");
    }
    columns.push_back(std::move(column));
  }

  for (size_t i = 0; i < kCheckpoints.size(); ++i) {
    table.AddRow({TablePrinter::Count(kCheckpoints[i]), TablePrinter::Fixed(columns[0][i], 0),
                  TablePrinter::Fixed(columns[1][i], 0), TablePrinter::Fixed(columns[2][i], 0),
                  TablePrinter::Fixed(columns[3][i], 0)});
  }
  out += table.ToString() + "\n";
  Appendf(&out,
          "ground-truth unique paths: mc size-1024 %zu, mc skbuff %zu, ap skbuff %zu, "
          "ap tcp_sock %zu (at %u sets)\n\n",
          totals[0], totals[1], totals[2], totals[3], kGroundTruthSets);
  out += "paper shape: sharply diminishing returns; 30-100 sets capture most\n"
         "unique paths (their ground truth: 720 sets; y-axis starts ~50%).\n";
  return report;
}

}  // namespace dprof
