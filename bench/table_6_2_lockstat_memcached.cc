// Reproduces paper Table 6.2: lock statistics reported by lock-stat during a
// memcached run on the stock (buggy) kernel.
//
// Paper shape: Qdisc lock is the most contended (4.04%), then the epoll lock
// (2.20%) and wait queue (1.89%); the SLAB cache lock shows light contention
// (0.16%). Lock-stat sees the *symptoms* of the tx-queue bug but cannot say
// which data moved across cores.

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunTable62LockstatMemcached(const BenchParams&) {
  BenchReport report = StartReport("table_6_2_lockstat_memcached",
                                   "Table 6.2: lock-stat during a memcached run (stock kernel)",
                                   "Pesterev 2010, Table 6.2");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  Machine& machine = *rig->machine;
  MemcachedWorkload workload(rig->env.get(), MemcachedConfig{});
  workload.Install(machine);
  LockStat lockstat(&machine.symbols());
  machine.SetLockObserver(&lockstat);

  machine.RunFor(15'000'000);
  lockstat.Reset();
  const uint64_t start = machine.MaxClock();
  machine.RunFor(60'000'000);  // the paper's "30 second run", scaled
  const uint64_t elapsed = machine.MaxClock() - start;

  out += lockstat.ReportTable(elapsed, machine.num_cores()) + "\n";
  AddLockCells(report, lockstat.Report(elapsed, machine.num_cores()));

  out += "paper reference rows (30s run):\n"
         "  Qdisc lock       1.2134 sec  4.04%  dev_queue_xmit, __qdisc_run\n"
         "  epoll lock       0.6594 sec  2.20%  sys_epoll_wait, ep_scan_ready_list,"
         " ep_poll_callback\n"
         "  wait queue       0.5658 sec  1.89%  __wake_up_sync_key\n"
         "  SLAB cache lock  0.0477 sec  0.16%  cache_alloc_refill,"
         " __drain_alien_cache\n";
  return report;
}

}  // namespace dprof
