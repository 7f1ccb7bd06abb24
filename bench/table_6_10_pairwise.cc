// Reproduces paper Table 6.10: object access history collection using
// pairwise sampling — every pair of watched members is monitored together to
// recover inter-offset ordering, so the number of histories per set grows
// quadratically and collection takes correspondingly longer.
//
// Paper shape: histories/set goes from N (Table 6.7) to C(N,2) — e.g.
// 2016 (+1) pairs for skbuff's 64 windows — and overhead grows a few-fold.

#include "bench/history_bench.h"
#include "src/util/table.h"

namespace dprof {

BenchReport RunTable610Pairwise(const BenchParams&) {
  BenchReport report = StartReport("table_6_10_pairwise",
                                   "Table 6.10: pairwise-sampling collection times and overhead",
                                   "Pesterev 2010, Table 6.10");
  std::string& out = report.text;

  TablePrinter table({"Benchmark", "Data Type", "Size (bytes)", "Histories/Sets",
                      "Time (s)", "Overhead (%)"});
  table.SetAlign(1, TablePrinter::Align::kLeft);
  for (const auto& [factory, config] : PaperHistoryRows(true)) {
    const HistoryBenchResult r = RunHistoryBench(factory, config);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%llu/%u",
                  static_cast<unsigned long long>(r.histories), r.sets);
    table.AddRow({r.benchmark, r.type_name, TablePrinter::Count(r.object_size), ratio,
                  TablePrinter::Fixed(r.collection_seconds, 2),
                  TablePrinter::Fixed(r.overhead_pct, 1)});
    AddHistoryCells(report, "pairwise", r);
  }
  out += table.ToString() + "\n";

  out += "note: like the paper (§6.4), pairwise sweeps monitor only the hot\n"
         "members found in the access samples (10 windows -> C(10,2)=45 pairs\n"
         "per set); the paper's full-object sweeps reach 32132/1 for size-1024.\n\n"
         "paper reference rows:\n"
         "  memcached size-1024 1024B 32132/1  400s  0.9%\n"
         "  memcached skbuff     256B  2017/1   26s  1.0%\n"
         "  Apache    size-1024 1024B 32132/1   50s  4.8%\n"
         "  Apache    skbuff     256B  2017/1   18s  1.7%\n"
         "  Apache    skbuff_fclone 512B 8129/1 2.3s 18%\n"
         "  Apache    tcp_sock  1600B 79801/1   81s  5.5%\n";
  return report;
}

}  // namespace dprof
