// OProfile-style code profiler baseline (paper §6.1.3, §6.2.3, Table 6.3).
//
// Attributes clock cycles and L2 misses to functions — the classic
// code-centric view the paper argues is insufficient for data-related cache
// problems. Implemented as a MachineObserver with exact per-function
// accounting (equivalent to sampling with an unbounded rate), so it runs on
// the machine's direct loop only.

#ifndef DPROF_SRC_PROFILERS_CODE_PROFILER_H_
#define DPROF_SRC_PROFILERS_CODE_PROFILER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/machine/machine.h"

namespace dprof {

struct FunctionProfileRow {
  FunctionId fn = kInvalidFunction;
  std::string name;
  double clk_pct = 0.0;
  double l2_miss_pct = 0.0;
  uint64_t cycles = 0;
  uint64_t l2_misses = 0;
};

class CodeProfiler final : public MachineObserver {
 public:
  // MachineObserver:
  void OnAccess(const AccessEvent& event) override;
  void OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) override;

  void Reset();

  uint64_t total_cycles() const { return total_cycles_; }
  uint64_t total_l2_misses() const { return total_l2_misses_; }

  // Rows with clk_pct >= min_clk_pct, sorted by descending clock share.
  std::vector<FunctionProfileRow> Report(const SymbolTable& symbols,
                                         double min_clk_pct = 1.0) const;

  // Renders a Table 6.3-style listing.
  std::string ReportTable(const SymbolTable& symbols, double min_clk_pct = 1.0) const;

 private:
  struct Counters {
    uint64_t cycles = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
  };

  std::unordered_map<FunctionId, Counters> by_fn_;
  uint64_t total_cycles_ = 0;
  uint64_t total_l2_misses_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_PROFILERS_CODE_PROFILER_H_
