#include "src/profilers/code_profiler.h"

#include <algorithm>

#include "src/util/stats.h"
#include "src/util/table.h"

namespace dprof {

void CodeProfiler::OnAccess(const AccessEvent& event) {
  Counters& c = by_fn_[event.ip];
  const uint64_t cycles = 1 + event.latency;
  c.cycles += cycles;
  total_cycles_ += cycles;
  if (event.level != ServedBy::kL1) {
    ++c.l1_misses;
  }
  if (event.level == ServedBy::kL3 || event.level == ServedBy::kForeignCache ||
      event.level == ServedBy::kDram) {
    ++c.l2_misses;
    ++total_l2_misses_;
  }
}

void CodeProfiler::OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) {
  (void)core;
  (void)now;
  by_fn_[ip].cycles += cycles;
  total_cycles_ += cycles;
}

void CodeProfiler::Reset() {
  by_fn_.clear();
  total_cycles_ = 0;
  total_l2_misses_ = 0;
}

std::vector<FunctionProfileRow> CodeProfiler::Report(const SymbolTable& symbols,
                                                     double min_clk_pct) const {
  std::vector<FunctionProfileRow> rows;
  rows.reserve(by_fn_.size());
  for (const auto& [fn, counters] : by_fn_) {
    FunctionProfileRow row;
    row.fn = fn;
    row.name = symbols.Name(fn);
    row.cycles = counters.cycles;
    row.l2_misses = counters.l2_misses;
    row.clk_pct = Pct(static_cast<double>(counters.cycles), static_cast<double>(total_cycles_));
    row.l2_miss_pct =
        Pct(static_cast<double>(counters.l2_misses), static_cast<double>(total_l2_misses_));
    if (row.clk_pct >= min_clk_pct) {
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const FunctionProfileRow& a, const FunctionProfileRow& b) {
    return a.clk_pct > b.clk_pct;
  });
  return rows;
}

std::string CodeProfiler::ReportTable(const SymbolTable& symbols, double min_clk_pct) const {
  TablePrinter table({"% CLK", "% L2 Misses", "Function"});
  table.SetAlign(0, TablePrinter::Align::kRight);
  table.SetAlign(2, TablePrinter::Align::kLeft);
  for (const FunctionProfileRow& row : Report(symbols, min_clk_pct)) {
    table.AddRow({TablePrinter::Fixed(row.clk_pct, 1), TablePrinter::Fixed(row.l2_miss_pct, 2),
                  row.name});
  }
  return table.ToString();
}

}  // namespace dprof
