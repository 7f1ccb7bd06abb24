// Simulated x86 debug registers (paper §5.3).
//
// Real hardware provides four debug registers per CPU, each able to watch a
// 1/2/4/8-byte region and raise an interrupt on every load or store to it.
// DProf programs the same watchpoint on every core (objects migrate), so this
// model keeps one global register file; the per-core setup broadcast cost is
// charged by the history collector using the setup costs below.

#ifndef DPROF_SRC_PMU_DEBUG_REGISTERS_H_
#define DPROF_SRC_PMU_DEBUG_REGISTERS_H_

#include <cstdint>
#include <functional>

#include "src/machine/machine.h"

namespace dprof {

class DebugRegisterFile final : public PmuHook {
 public:
  static constexpr int kNumRegisters = 4;
  static constexpr uint32_t kMaxWatchBytes = 8;

  // Cycle costs measured in the paper (§6.4, Table 6.9). Cost of taking
  // one watchpoint interrupt and saving a history element:
  static constexpr uint64_t kInterruptCycles = 1000;
  // Cost on the core that initiates debug-register setup for a new object
  // (dominated by IPIs to all other cores).
  static constexpr uint64_t kSetupInitiatorCycles = 130000;
  // Cost on each other core to handle the setup IPI. The paper reports a
  // ~220,000 cycle total setup cost, of which 130k is the initiator.
  static constexpr uint64_t kSetupIpiCycles = 6000;
  // Cost to reserve a newly allocated object for profiling with the memory
  // subsystem.
  static constexpr uint64_t kReserveCycles = 20000;

  // Handler receives the triggering access and the register index.
  using Handler = std::function<void(const AccessEvent& event, int reg)>;

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Arms register `reg` to watch [base, base+len). len must be 1..8.
  void Arm(int reg, Addr base, uint32_t len);
  void Disarm(int reg);
  void DisarmAll();
  bool armed(int reg) const { return regs_[reg].active; }
  int FreeRegister() const;  // -1 if none

  uint64_t hits() const { return hits_; }

  // PmuHook: fires the handler once per overlapping armed register and
  // returns the summed interrupt cost.
  uint64_t OnAccess(const AccessEvent& event) override;
  // Disarmed, the file can never fire: unbounded quiet guarantee. Armed,
  // it exposes the bounding window of the active watchpoints instead, so
  // the engine skips non-overlapping accesses without a virtual call.
  uint64_t QuietOps(int core) const override {
    (void)core;
    return num_active_ == 0 ? kQuietUnbounded : 0;
  }
  bool AccessFilter(Addr* lo, Addr* hi) const override {
    if (num_active_ == 0) {
      return false;
    }
    *lo = box_lo_;
    *hi = box_hi_;
    return true;
  }

 private:
  struct Watchpoint {
    Addr base = 0;
    uint32_t len = 0;
    bool active = false;
  };

  void RecomputeBox();

  Watchpoint regs_[kNumRegisters];
  Handler handler_;
  uint64_t hits_ = 0;
  int num_active_ = 0;
  // Bounding window over the active watchpoints, kept by Arm/Disarm.
  Addr box_lo_ = 0;
  Addr box_hi_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_PMU_DEBUG_REGISTERS_H_
