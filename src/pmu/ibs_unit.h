// Simulated AMD Instruction-Based Sampling (IBS) unit (paper §5.1).
//
// Real IBS randomly tags an instruction entering the pipeline and, when it
// retires, reports the instruction address, the data address, whether the
// access hit in the cache, which level served it, and the access latency,
// then raises an interrupt. This model samples the simulated op stream with
// a randomized countdown and charges the documented ~2,000-cycle interrupt
// cost (paper §6.3) to the core that took the interrupt.
//
// Sampling state is fully per-core — countdown and jitter stream both — so
// a core's sample placement is a pure function of its own access sequence,
// as on real hardware where each core owns its IBS registers. That also
// lets the unit honour PmuHook's batch contract: QuietOps exposes the
// countdown as a no-fire guarantee and OnQuietAccessBatch retires a whole
// run of accesses with one subtraction, so the engine's commit pass only
// pays for event assembly and virtual dispatch at (and around) samples.

#ifndef DPROF_SRC_PMU_IBS_UNIT_H_
#define DPROF_SRC_PMU_IBS_UNIT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/machine/machine.h"
#include "src/util/rng.h"

namespace dprof {

struct IbsSample {
  int core = 0;
  FunctionId ip = kInvalidFunction;
  Addr vaddr = kNullAddr;
  uint32_t size = 0;
  bool is_write = false;
  ServedBy level = ServedBy::kL1;
  uint32_t latency = 0;
  uint64_t now = 0;
};

class IbsUnit final : public PmuHook {
 public:
  using Handler = std::function<void(const IbsSample&)>;

  // Cycles charged to the sampled core per IBS interrupt: interrupt
  // entry/exit plus reading the IBS register bank (paper: ~2,000 cycles,
  // half spent reading IBS registers).
  static constexpr uint64_t kInterruptCycles = 2000;
  // Extra cycles for the consumer's handler work (DProf's address-to-type
  // resolution); charged on top of kInterruptCycles.
  static constexpr uint64_t kHandlerCycles = 1200;

  // Starts disabled; SetPeriod turns sampling on.
  explicit IbsUnit(int num_cores);

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Sets the mean ops between samples per core (each countdown is redrawn);
  // 0 disables.
  void SetPeriod(uint64_t period_ops);
  uint64_t period_ops() const { return period_ops_; }
  bool enabled() const { return period_ops_ != 0; }

  uint64_t samples_taken() const { return samples_taken_; }
  void ResetCounters() { samples_taken_ = 0; }

  // PmuHook:
  uint64_t OnAccess(const AccessEvent& event) override;
  uint64_t QuietOps(int core) const override {
    if (period_ops_ == 0) {
      return kQuietUnbounded;
    }
    const int64_t cd = countdown_[core];
    return cd > 1 ? static_cast<uint64_t>(cd - 1) : 0;
  }
  void OnQuietAccessBatch(int core, uint64_t count) override {
    if (period_ops_ != 0) {
      countdown_[core] -= static_cast<int64_t>(count);
    }
  }

 private:
  uint64_t period_ops_ = 0;
  Handler handler_;
  std::vector<int64_t> countdown_;
  std::vector<Rng> rngs_;  // per-core jitter streams
  uint64_t samples_taken_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_PMU_IBS_UNIT_H_
