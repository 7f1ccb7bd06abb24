// Reproduces paper Table 6.9: the breakdown of object-access-history
// profiling overhead into (a) debug-register interrupts, (b) reserving the
// object with the memory subsystem, and (c) the cross-core debug-register
// setup broadcast, for data types used by Apache.
//
// Paper shape: the broadcast dominates for types with few accesses per
// watched window (skbuff_fclone: 90% communication) while hot bookkeeping
// types pay mostly interrupt cost (skbuff: 60% interrupts).

#include "bench/history_bench.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace dprof {

BenchReport RunTable69OverheadBreakdown(const BenchParams&) {
  BenchReport report = StartReport("table_6_9_overhead_breakdown",
                                   "Table 6.9: history overhead breakdown (Apache data types)",
                                   "Pesterev 2010, Table 6.9");
  std::string& out = report.text;

  TablePrinter table({"Data Type", "Interrupts", "Memory", "Communication"});
  for (const auto& [factory, config] : PaperHistoryRows(false)) {
    if (config.benchmark != "Apache") {
      continue;
    }
    const HistoryBenchResult r = RunHistoryBench(factory, config);
    const double total = static_cast<double>(r.breakdown.Total());
    const double interrupts = Pct(static_cast<double>(r.breakdown.interrupt_cycles), total);
    const double memory = Pct(static_cast<double>(r.breakdown.reserve_cycles), total);
    const double communication = Pct(static_cast<double>(r.breakdown.comm_cycles), total);
    table.AddRow({r.type_name, TablePrinter::Percent(interrupts, 0),
                  TablePrinter::Percent(memory, 0), TablePrinter::Percent(communication, 0)});
    AddCell(report, "breakdown", r.type_name, "interrupts_pct", interrupts, "%");
    AddCell(report, "breakdown", r.type_name, "memory_pct", memory, "%");
    AddCell(report, "breakdown", r.type_name, "communication_pct", communication, "%");
  }
  out += table.ToString() + "\n";

  out += "paper reference rows:\n"
         "  size-1024      20%  10%  70%\n"
         "  skbuff         60%  10%  30%\n"
         "  skbuff_fclone   5%   5%  90%\n"
         "  tcp_sock       20%   5%  75%\n\n"
         "cost model: 1,000 cycles per watchpoint interrupt; 130,000 cycles on\n"
         "the initiating core per setup broadcast (220,000 total); 20,000 cycles\n"
         "to reserve an object with the memory subsystem (paper §6.4).\n";
  return report;
}

}  // namespace dprof
