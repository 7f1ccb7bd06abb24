// Reproduces paper Table 6.6: lock statistics during an Apache run past the
// drop-off point.
//
// Paper shape: the futex lock is the only contended lock (6.6% overhead,
// do_futex / futex_wait / futex_wake) — and it says nothing about the
// accept-queue mis-configuration that actually causes the slowdown, which is
// the paper's point about lock-centric analysis.

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunTable66LockstatApache(const BenchParams&) {
  BenchReport report = StartReport("table_6_6_lockstat_apache",
                                   "Table 6.6: lock-stat during an Apache run (drop-off)",
                                   "Pesterev 2010, Table 6.6");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  Machine& machine = *rig->machine;
  ApacheWorkload workload(rig->env.get(), ApacheConfig::DropOff());
  workload.Install(machine);
  LockStat lockstat(&machine.symbols());
  machine.SetLockObserver(&lockstat);

  machine.RunFor(30'000'000);
  lockstat.Reset();
  const uint64_t start = machine.MaxClock();
  machine.RunFor(60'000'000);
  const uint64_t elapsed = machine.MaxClock() - start;

  out += lockstat.ReportTable(elapsed, machine.num_cores()) + "\n";
  AddLockCells(report, lockstat.Report(elapsed, machine.num_cores()));

  out += "paper reference row (30s run):\n"
         "  futex lock  1.98 sec  6.6%  do_futex, futex_wait, futex_wake\n\n"
         "shape check: futex is the dominant contended lock; the Qdisc and SLAB\n"
         "locks are quiet because all Apache handling is core-local.\n";
  return report;
}

}  // namespace dprof
