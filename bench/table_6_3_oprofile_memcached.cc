// Reproduces paper Table 6.3: top functions by percent of clock cycles and
// L2 misses for memcached, as an OProfile-style code profiler reports them.
//
// Paper shape: a flat profile — ~29 functions above 1% CLK with kfree,
// ixgbe_clean_rx_irq and __alloc_skb near the top. Nothing in this view
// points at the transmit-queue selection bug; that is the paper's argument
// for data-centric profiling.

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunTable63OprofileMemcached(const BenchParams&) {
  BenchReport report = StartReport("table_6_3_oprofile_memcached",
                                   "Table 6.3: OProfile-style function profile of memcached",
                                   "Pesterev 2010, Table 6.3");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  Machine& machine = *rig->machine;
  MemcachedWorkload workload(rig->env.get(), MemcachedConfig{});
  workload.Install(machine);
  CodeProfiler profiler;
  machine.AddObserver(&profiler);

  machine.RunFor(15'000'000);
  profiler.Reset();
  machine.RunFor(60'000'000);

  out += profiler.ReportTable(machine.symbols(), 1.0) + "\n";
  const auto rows = profiler.Report(machine.symbols(), 1.0);
  for (const FunctionProfileRow& row : rows) {
    AddCell(report, "functions", row.name, "clk_pct", row.clk_pct, "%");
    AddCell(report, "functions", row.name, "l2_pct", row.l2_miss_pct, "%");
  }
  Appendf(&out, "functions above 1%% CLK: %zu (paper: 29)\n\n", rows.size());
  AddCell(report, "summary", "above_1pct_clk", "functions", static_cast<double>(rows.size()), "");

  out += "paper reference (top rows): 4.4% kfree, 3.7% ixgbe_clean_rx_irq,\n"
         "3.5% __alloc_skb, 3.2% ixgbe_xmit_frame, 3.0% kmem_cache_free, ...\n"
         "note: dev_queue_xmit / skb_tx_hash sit mid-table in both — the bug\n"
         "is invisible in a code-centric profile.\n";
  return report;
}

}  // namespace dprof
