#include "src/pmu/debug_registers.h"

#include "src/util/check.h"

namespace dprof {

void DebugRegisterFile::RecomputeBox() {
  box_lo_ = 0;
  box_hi_ = 0;
  bool first = true;
  for (int r = 0; r < kNumRegisters; ++r) {
    const Watchpoint& wp = regs_[r];
    if (!wp.active) {
      continue;
    }
    if (first || wp.base < box_lo_) {
      box_lo_ = wp.base;
    }
    if (first || wp.base + wp.len > box_hi_) {
      box_hi_ = wp.base + wp.len;
    }
    first = false;
  }
}

void DebugRegisterFile::Arm(int reg, Addr base, uint32_t len) {
  DPROF_CHECK(reg >= 0 && reg < kNumRegisters);
  DPROF_CHECK(len >= 1 && len <= kMaxWatchBytes);
  if (!regs_[reg].active) {
    ++num_active_;
  }
  regs_[reg] = Watchpoint{base, len, true};
  RecomputeBox();
}

void DebugRegisterFile::Disarm(int reg) {
  DPROF_CHECK(reg >= 0 && reg < kNumRegisters);
  if (regs_[reg].active) {
    --num_active_;
  }
  regs_[reg] = Watchpoint{};
  RecomputeBox();
}

void DebugRegisterFile::DisarmAll() {
  for (int r = 0; r < kNumRegisters; ++r) {
    regs_[r] = Watchpoint{};
  }
  num_active_ = 0;
  RecomputeBox();
}

int DebugRegisterFile::FreeRegister() const {
  for (int r = 0; r < kNumRegisters; ++r) {
    if (!regs_[r].active) {
      return r;
    }
  }
  return -1;
}

uint64_t DebugRegisterFile::OnAccess(const AccessEvent& event) {
  if (num_active_ == 0) {
    return 0;
  }
  uint64_t cost = 0;
  for (int r = 0; r < kNumRegisters; ++r) {
    const Watchpoint& wp = regs_[r];
    if (!wp.active) {
      continue;
    }
    const bool overlaps = event.addr < wp.base + wp.len && wp.base < event.addr + event.size;
    if (!overlaps) {
      continue;
    }
    ++hits_;
    cost += kInterruptCycles;
    if (handler_) {
      handler_(event, r);
    }
  }
  return cost;
}

}  // namespace dprof
