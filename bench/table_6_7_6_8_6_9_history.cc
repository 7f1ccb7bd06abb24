// Reproduces paper Tables 6.7, 6.8 and 6.9: three views of one object
// access history collection experiment, run once per (benchmark, type) row.
//
// Table 6.7, collection times and overhead. Paper shape: collection time
// scales with object size (more offsets to sweep) and object lifetime (one
// object monitored at a time); overhead stays in the low single digits
// except for hot, short-lived types (skbuff_fclone reached 16%).
//
// Table 6.8, collection rates (elements per history, histories per second,
// elements per second). Paper shape: rates are set by object lifetime and
// per-offset access frequency — short-lived hot types (Apache skbuff_fclone:
// 4600 histories/s) collect orders of magnitude faster than long-residency
// buffers (memcached size-1024: 53 histories/s).
//
// Table 6.9, the Apache rows' overhead broken into (a) debug-register
// interrupts, (b) reserving the object with the memory subsystem, and (c)
// the cross-core debug-register setup broadcast. Paper shape: the broadcast
// dominates for types with few accesses per watched window (skbuff_fclone:
// 90% communication) while hot bookkeeping types pay mostly interrupt cost
// (skbuff: 60% interrupts).
//
// Scale note: the paper collected 32-80 sets per type over minutes of wall
// time; this bench collects fewer sets (simulated seconds) — times scale
// linearly in sets, rates and overheads are directly comparable.

#include "bench/history_bench.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace dprof {

BenchReport RunTable67To69History(const BenchParams&) {
  BenchReport report = StartReport(
      "table_6_7_6_8_6_9_history",
      "Tables 6.7/6.8/6.9: history collection time and overhead, rates, overhead breakdown",
      "Pesterev 2010, Tables 6.7, 6.8 and 6.9");
  std::string& out = report.text;
  const std::vector<HistoryBenchResult> results = RunHistoryRows(false);

  out += "== Table 6.7: history collection time and overhead ==\n";
  TablePrinter collection({"Benchmark", "Data Type", "Size (bytes)", "Histories", "Sets",
                           "Time (s)", "Overhead (%)"});
  collection.SetAlign(1, TablePrinter::Align::kLeft);
  for (const HistoryBenchResult& r : results) {
    collection.AddRow({r.benchmark, r.type_name, TablePrinter::Count(r.object_size),
                       TablePrinter::Count(r.histories), TablePrinter::Count(r.sets),
                       TablePrinter::Fixed(r.collection_seconds, 2),
                       TablePrinter::Fixed(r.overhead_pct, 1)});
    AddHistoryCells(report, "history", r);
  }
  out += collection.ToString() + "\n";
  out += "paper reference rows:\n"
         "  memcached size-1024 1024B  8128/32   170s  1.3%\n"
         "  memcached skbuff     256B  5120/80    95s  0.8%\n"
         "  Apache    size-1024 1024B 20320/80    34s  2.9%\n"
         "  Apache    skbuff     256B  2048/32    24s  1.6%\n"
         "  Apache    skbuff_fclone 512B 10240/80 2.5s 16%\n"
         "  Apache    tcp_sock  1600B 32000/80    32s  4.9%\n\n";

  out += "== Table 6.8: history collection rates ==\n";
  TablePrinter rates({"Benchmark", "Data Type", "Elements per History", "Histories per Second",
                      "Elements per Second"});
  rates.SetAlign(1, TablePrinter::Align::kLeft);
  for (const HistoryBenchResult& r : results) {
    rates.AddRow({r.benchmark, r.type_name, TablePrinter::Fixed(r.elements_per_history, 1),
                  TablePrinter::Fixed(r.histories_per_second, 0),
                  TablePrinter::Fixed(r.elements_per_second, 0)});
    const std::string row = r.benchmark + "/" + r.type_name;
    AddCell(report, "rates", row, "elems_per_history", r.elements_per_history, "");
    AddCell(report, "rates", row, "histories_per_s", r.histories_per_second, "1/s");
    AddCell(report, "rates", row, "elems_per_s", r.elements_per_second, "1/s");
  }
  out += rates.ToString() + "\n";
  out += "paper reference rows:\n"
         "  memcached size-1024     0.3    53   120\n"
         "  memcached skbuff        4.2    56   350\n"
         "  Apache    size-1024     0.5   660  1660\n"
         "  Apache    skbuff        4.8   110   770\n"
         "  Apache    skbuff_fclone 4.0  4600 27500\n"
         "  Apache    tcp_sock      8.3  1030 10600\n\n";

  out += "== Table 6.9: history overhead breakdown (Apache data types) ==\n";
  TablePrinter breakdown({"Data Type", "Interrupts", "Memory", "Communication"});
  for (const HistoryBenchResult& r : results) {
    if (r.benchmark != "Apache") {
      continue;
    }
    // Shares of what was actually charged, so the classes partition the
    // cost only if the collector accounted for every charge exactly once.
    const double total = static_cast<double>(r.charged_cycles);
    const double interrupts = Pct(static_cast<double>(r.breakdown.interrupt_cycles), total);
    const double memory = Pct(static_cast<double>(r.breakdown.reserve_cycles), total);
    const double communication = Pct(static_cast<double>(r.breakdown.comm_cycles), total);
    breakdown.AddRow({r.type_name, TablePrinter::Percent(interrupts, 0),
                      TablePrinter::Percent(memory, 0),
                      TablePrinter::Percent(communication, 0)});
    AddCell(report, "breakdown", r.type_name, "interrupts_pct", interrupts, "%");
    AddCell(report, "breakdown", r.type_name, "memory_pct", memory, "%");
    AddCell(report, "breakdown", r.type_name, "communication_pct", communication, "%");
    AddCell(report, "breakdown", r.type_name, "charged_cycles",
            static_cast<double>(r.charged_cycles), "cycles");
  }
  out += breakdown.ToString() + "\n";
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
