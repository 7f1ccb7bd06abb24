#include "src/pmu/ibs_unit.h"

namespace dprof {
namespace {

// Seeds the per-core jitter streams.
constexpr uint64_t kSeed = 0x1b5;

}  // namespace

IbsUnit::IbsUnit(int num_cores) : countdown_(num_cores, 0) {
  rngs_.reserve(num_cores);
  for (int c = 0; c < num_cores; ++c) {
    rngs_.emplace_back(kSeed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1);
  }
}

void IbsUnit::SetPeriod(uint64_t period_ops) {
  period_ops_ = period_ops;
  for (size_t c = 0; c < countdown_.size(); ++c) {
    countdown_[c] = period_ops == 0 ? 0 : static_cast<int64_t>(rngs_[c].Jitter(period_ops));
  }
}

uint64_t IbsUnit::OnAccess(const AccessEvent& event) {
  if (period_ops_ == 0) {
    return 0;
  }
  int64_t& cd = countdown_[event.core];
  if (--cd > 0) {
    return 0;
  }
  cd = static_cast<int64_t>(rngs_[event.core].Jitter(period_ops_));
  ++samples_taken_;
  if (handler_) {
    IbsSample sample;
    sample.core = event.core;
    sample.ip = event.ip;
    sample.vaddr = event.addr;
    sample.size = event.size;
    sample.is_write = event.is_write;
    sample.level = event.level;
    sample.latency = event.latency;
    sample.now = event.now;
    handler_(sample);
  }
  return kInterruptCycles + kHandlerCycles;
}

}  // namespace dprof
