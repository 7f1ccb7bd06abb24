#include "src/profilers/lock_stat.h"

#include <algorithm>

#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/types.h"

namespace dprof {

void LockStat::OnAcquire(const SimLock& lock, int core, FunctionId ip, uint64_t wait_cycles,
                         uint64_t now) {
  (void)core;
  (void)now;
  Counters& c = by_name_[lock.name()];
  ++c.acquisitions;
  if (wait_cycles > 0) {
    ++c.contentions;
    c.wait_cycles += wait_cycles;
  }
  c.functions.insert(ip);
}

void LockStat::OnRelease(const SimLock& lock, int core, FunctionId ip, uint64_t hold_cycles,
                         uint64_t now) {
  (void)core;
  (void)now;
  Counters& c = by_name_[lock.name()];
  c.hold_cycles += hold_cycles;
  c.functions.insert(ip);
}

void LockStat::Reset() { by_name_.clear(); }

std::vector<LockStatRow> LockStat::Report(uint64_t elapsed_cycles, int num_cores) const {
  std::vector<LockStatRow> rows;
  for (const auto& [name, counters] : by_name_) {
    // A lock acquired before Reset() and released after it has an entry
    // (its hold time) but no acquisitions.
    if (counters.acquisitions == 0) {
      continue;
    }
    LockStatRow row;
    row.name = name;
    row.acquisitions = counters.acquisitions;
    row.contentions = counters.contentions;
    row.wait_seconds = static_cast<double>(counters.wait_cycles) / kCyclesPerSecond;
    row.hold_seconds = static_cast<double>(counters.hold_cycles) / kCyclesPerSecond;
    row.overhead_pct = Pct(static_cast<double>(counters.wait_cycles),
                           static_cast<double>(elapsed_cycles) * num_cores);
    for (FunctionId fn : counters.functions) {
      row.functions.push_back(symbols_->Name(fn));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const LockStatRow& a, const LockStatRow& b) { return a.wait_seconds > b.wait_seconds; });
  return rows;
}

std::string LockStat::ReportTable(uint64_t elapsed_cycles, int num_cores) const {
  TablePrinter table({"Lock Name", "Wait Time", "Overhead", "Functions"});
  table.SetAlign(3, TablePrinter::Align::kLeft);
  for (const LockStatRow& row : Report(elapsed_cycles, num_cores)) {
    std::string fns;
    for (size_t i = 0; i < row.functions.size(); ++i) {
      if (i != 0) {
        fns += ", ";
      }
      fns += row.functions[i];
    }
    table.AddRow({row.name, TablePrinter::Fixed(row.wait_seconds, 4) + " sec",
                  TablePrinter::Percent(row.overhead_pct), fns});
  }
  return table.ToString();
}

}  // namespace dprof
