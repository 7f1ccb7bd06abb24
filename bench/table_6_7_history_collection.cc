// Reproduces paper Table 6.7: object access history collection times and
// overhead for different data types and applications.
//
// Paper shape: collection time scales with object size (more offsets to
// sweep) and object lifetime (one object monitored at a time); overhead
// stays in the low single digits except for hot, short-lived types
// (skbuff_fclone reached 16%).
//
// Scale note: the paper collected 32-80 sets per type over minutes of wall
// time; this bench collects fewer sets (simulated seconds) — times scale
// linearly in sets, rates and overheads are directly comparable.

#include "bench/history_bench.h"
#include "src/util/table.h"

namespace dprof {

BenchReport RunTable67HistoryCollection(const BenchParams&) {
  BenchReport report = StartReport("table_6_7_history_collection",
                                   "Table 6.7: object access history collection time and overhead",
                                   "Pesterev 2010, Table 6.7");
  std::string& out = report.text;

  TablePrinter table({"Benchmark", "Data Type", "Size (bytes)", "Histories", "Sets",
                      "Time (s)", "Overhead (%)"});
  table.SetAlign(1, TablePrinter::Align::kLeft);
  for (const auto& [factory, config] : PaperHistoryRows(false)) {
    const HistoryBenchResult r = RunHistoryBench(factory, config);
    table.AddRow({r.benchmark, r.type_name, TablePrinter::Count(r.object_size),
                  TablePrinter::Count(r.histories), TablePrinter::Count(r.sets),
                  TablePrinter::Fixed(r.collection_seconds, 2),
                  TablePrinter::Fixed(r.overhead_pct, 1)});
    AddHistoryCells(report, "history", r);
  }
  out += table.ToString() + "\n";

  out += "paper reference rows:\n"
         "  memcached size-1024 1024B  8128/32   170s  1.3%\n"
         "  memcached skbuff     256B  5120/80    95s  0.8%\n"
         "  Apache    size-1024 1024B 20320/80    34s  2.9%\n"
         "  Apache    skbuff     256B  2048/32    24s  1.6%\n"
         "  Apache    skbuff_fclone 512B 10240/80 2.5s 16%\n"
         "  Apache    tcp_sock  1600B 32000/80    32s  4.9%\n";
  return report;
}

}  // namespace dprof
