#include "src/machine/sampling.h"

#include <algorithm>
#include <cmath>

#include "src/machine/faults.h"

namespace dprof {

namespace {

// SplitMix64 finalizer: cheap, well-mixed, and stateless so the window
// schedule stays a pure function of (seed, period index).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

SamplingController::SamplingController(const SamplingConfig& config) : config_(config) {
  if (config_.period_cycles == 0) {
    config_.period_cycles = SamplingConfig().period_cycles;
  }
  if (config_.window_cycles == 0) {
    config_.window_cycles = SamplingConfig().window_cycles;
  }
  // A window at least as long as the period means "always detailed". The
  // CLI rejects such a window up front (ValidateRunSpec); this clamp serves
  // library callers that build a SamplingConfig directly.
  config_.window_cycles = std::min(config_.window_cycles, config_.period_cycles);
}

uint64_t SamplingController::Jitter(uint64_t k) const {
  // Period 0 keeps its window at offset 0 so the cost calibration has
  // detailed epochs behind it before the first fast-forward stretch.
  if (k == 0) {
    return 0;
  }
  const uint64_t slack = config_.period_cycles - config_.window_cycles;
  if (slack == 0) {
    return 0;
  }
  return Mix(config_.seed ^ k) % slack;
}

bool SamplingController::BeginEpoch(uint64_t clock) {
  detailed_ = true;
  if (exact_fallback_) {
    return true;
  }
  const uint64_t k = clock / config_.period_cycles;
  if (k != cur_period_) {
    // Honesty self-check at period rollover: a period that served less than
    // half its detailed-window budget breaks the assumption behind the
    // scaled estimates. Degrade: widen the window so the next period can
    // catch up; repeated violations abandon sampling for exact execution.
    if (cur_period_ != ~0ull && served_ < config_.window_cycles / 2) {
      ++violations_;
      if (faults_ != nullptr) {
        faults_->NoteRecovered(FaultSeam::kWindowJitter);
      }
      if (violations_ >= kMaxViolations) {
        exact_fallback_ = true;
        return true;
      }
      widened_ = true;
      config_.window_cycles =
          std::min(config_.window_cycles * 2, config_.period_cycles);
    }
    cur_period_ = k;
    served_ = 0;
    offset_ = Jitter(k);
    if (faults_ != nullptr && faults_->WindowJitterFires(k)) {
      // Injected schedule jitter: park the window start so late in the
      // period that the budget provably cannot be served — the self-check
      // above must catch it at the next rollover.
      offset_ = config_.period_cycles - config_.window_cycles / 4 - 1;
    }
  }
  // Serve the detailed window once the clock passes the jittered offset, and
  // keep serving until window_cycles of simulated time have gone by. Because
  // epoch strides vary, "past the offset and not yet served" guarantees at
  // least one detailed epoch per period regardless of how clocks land.
  const uint64_t in_period = clock - k * config_.period_cycles;
  detailed_ = served_ < config_.window_cycles && in_period >= offset_;
  return detailed_;
}

uint64_t SamplingController::FfRunway(uint64_t clock) const {
  const uint64_t k = clock / config_.period_cycles;
  const uint64_t window_start = k * config_.period_cycles + offset_;
  if (served_ < config_.window_cycles && clock < window_start) {
    return window_start - clock;
  }
  // This period's window is fully served: the next detailed epoch is behind
  // period k+1's jittered offset.
  return (k + 1) * config_.period_cycles + Jitter(k + 1) - clock;
}

void SamplingController::EndEpoch(uint64_t advance, uint64_t accesses) {
  if (detailed_) {
    served_ += advance;
    ++detailed_epochs_;
    measured_accesses_ += accesses;
  } else {
    ++ff_epochs_;
    ff_accesses_ += accesses;
  }
}

double SamplingController::Scale() const {
  if (measured_accesses_ == 0) {
    return 1.0;
  }
  return static_cast<double>(measured_accesses_ + ff_accesses_) /
         static_cast<double>(measured_accesses_);
}

SamplingInterval SamplingController::WilsonCI(uint64_t k, uint64_t n, double floor_pct) {
  SamplingInterval ci;
  if (n == 0) {
    ci.estimate = 0.0;
    ci.lo = 0.0;
    ci.hi = 100.0;
    return ci;
  }
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double z2 = kZ * kZ;
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      (kZ * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn))) / denom;
  ci.estimate = 100.0 * p;
  ci.lo = std::max(0.0, 100.0 * (center - half) - floor_pct);
  ci.hi = std::min(100.0, 100.0 * (center + half) + floor_pct);
  return ci;
}

}  // namespace dprof
