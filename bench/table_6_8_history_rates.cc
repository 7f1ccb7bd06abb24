// Reproduces paper Table 6.8: average object access history collection rates
// (elements per history, histories per second, elements per second).
//
// Paper shape: rates are set by object lifetime and per-offset access
// frequency — short-lived hot types (Apache skbuff_fclone: 4600 histories/s)
// collect orders of magnitude faster than long-residency buffers
// (memcached size-1024: 53 histories/s).

#include "bench/history_bench.h"
#include "src/util/table.h"

namespace dprof {

BenchReport RunTable68HistoryRates(const BenchParams&) {
  BenchReport report = StartReport("table_6_8_history_rates", "Table 6.8: history collection rates",
                                   "Pesterev 2010, Table 6.8");
  std::string& out = report.text;

  TablePrinter table({"Benchmark", "Data Type", "Elements per History",
                      "Histories per Second", "Elements per Second"});
  table.SetAlign(1, TablePrinter::Align::kLeft);
  for (const auto& [factory, config] : PaperHistoryRows(false)) {
    const HistoryBenchResult r = RunHistoryBench(factory, config);
    table.AddRow({r.benchmark, r.type_name, TablePrinter::Fixed(r.elements_per_history, 1),
                  TablePrinter::Fixed(r.histories_per_second, 0),
                  TablePrinter::Fixed(r.elements_per_second, 0)});
    const std::string row = r.benchmark + "/" + r.type_name;
    AddCell(report, "rates", row, "elems_per_history", r.elements_per_history, "");
    AddCell(report, "rates", row, "histories_per_s", r.histories_per_second, "1/s");
    AddCell(report, "rates", row, "elems_per_s", r.elements_per_second, "1/s");
  }
  out += table.ToString() + "\n";

  out += "paper reference rows:\n"
         "  memcached size-1024     0.3    53   120\n"
         "  memcached skbuff        4.2    56   350\n"
         "  Apache    size-1024     0.5   660  1660\n"
         "  Apache    skbuff        4.8   110   770\n"
         "  Apache    skbuff_fclone 4.0  4600 27500\n"
         "  Apache    tcp_sock      8.3  1030 10600\n";
  return report;
}

}  // namespace dprof
