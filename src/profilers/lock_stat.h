// lock-stat baseline (paper §6.1.2, §6.2.2, Tables 6.2 and 6.6).
//
// Records, per lock class (locks sharing a name aggregate, like lockdep
// classes), total wait time, hold time, acquisition counts, and the set of
// functions that acquired the lock.

#ifndef DPROF_SRC_PROFILERS_LOCK_STAT_H_
#define DPROF_SRC_PROFILERS_LOCK_STAT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/machine/machine.h"

namespace dprof {

struct LockStatRow {
  std::string name;
  uint64_t acquisitions = 0;
  uint64_t contentions = 0;
  double wait_seconds = 0.0;
  double hold_seconds = 0.0;
  double overhead_pct = 0.0;  // wait time / (cores * elapsed)
  std::vector<std::string> functions;
};

class LockStat final : public LockObserver {
 public:
  explicit LockStat(const SymbolTable* symbols) : symbols_(symbols) {}

  // LockObserver:
  void OnAcquire(const SimLock& lock, int core, FunctionId ip, uint64_t wait_cycles,
                 uint64_t now) override;
  void OnRelease(const SimLock& lock, int core, FunctionId ip, uint64_t hold_cycles,
                 uint64_t now) override;

  void Reset();

  // Rows sorted by descending wait time; locks with no acquisitions since
  // the last Reset() are omitted.
  std::vector<LockStatRow> Report(uint64_t elapsed_cycles, int num_cores) const;

  std::string ReportTable(uint64_t elapsed_cycles, int num_cores) const;

 private:
  struct Counters {
    uint64_t acquisitions = 0;
    uint64_t contentions = 0;
    uint64_t wait_cycles = 0;
    uint64_t hold_cycles = 0;
    std::set<FunctionId> functions;
  };

  const SymbolTable* symbols_;
  std::map<std::string, Counters> by_name_;
};

}  // namespace dprof

#endif  // DPROF_SRC_PROFILERS_LOCK_STAT_H_
