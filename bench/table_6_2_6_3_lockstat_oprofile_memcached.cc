// Reproduces paper Tables 6.2 and 6.3: what lock-stat and an OProfile-style
// code profiler report for one memcached run on the stock (buggy) kernel.
//
// Paper shape, Table 6.2: Qdisc lock is the most contended (4.04%), then the
// epoll lock (2.20%) and wait queue (1.89%); the SLAB cache lock shows light
// contention (0.16%). Lock-stat sees the *symptoms* of the tx-queue bug but
// cannot say which data moved across cores.
//
// Paper shape, Table 6.3: a flat profile — ~29 functions above 1% CLK with
// kfree, ixgbe_clean_rx_irq and __alloc_skb near the top. Nothing in this
// view points at the transmit-queue selection bug; that is the paper's
// argument for data-centric profiling.
//
// Both profilers watch the same run. On the direct loop they are passive:
// the machine charges them no cycles and they draw no random numbers, so
// each table is the one a run with that profiler alone gives.

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunTable62And63LockstatOprofileMemcached(const BenchParams&) {
  BenchReport report = StartReport(
      "table_6_2_6_3_lockstat_oprofile_memcached",
      "Tables 6.2/6.3: lock-stat and OProfile-style function profile of memcached (stock kernel)",
      "Pesterev 2010, Tables 6.2 and 6.3");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  Machine& machine = *rig->machine;
  MemcachedWorkload workload(rig->env.get(), MemcachedConfig{});
  workload.Install(machine);
  LockStat lockstat(&machine.symbols());
  machine.SetLockObserver(&lockstat);
  CodeProfiler profiler;
  machine.AddObserver(&profiler);

  machine.RunFor(15'000'000);
  lockstat.Reset();
  profiler.Reset();
  const uint64_t start = machine.MaxClock();
  machine.RunFor(60'000'000);  // the paper's "30 second run", scaled
  const uint64_t elapsed = machine.MaxClock() - start;

  out += "== Table 6.2: lock-stat ==\n";
  out += lockstat.ReportTable(elapsed, machine.num_cores()) + "\n";
  AddLockCells(report, lockstat.Report(elapsed, machine.num_cores()));
  out += "paper reference rows (30s run):\n"
         "  Qdisc lock       1.2134 sec  4.04%  dev_queue_xmit, __qdisc_run\n"
         "  epoll lock       0.6594 sec  2.20%  sys_epoll_wait, ep_scan_ready_list,"
         " ep_poll_callback\n"
         "  wait queue       0.5658 sec  1.89%  __wake_up_sync_key\n"
         "  SLAB cache lock  0.0477 sec  0.16%  cache_alloc_refill,"
         " __drain_alien_cache\n\n";

  out += "== Table 6.3: OProfile-style function profile ==\n";
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
