#ifndef DPROF_MACHINE_SAMPLING_H_
#define DPROF_MACHINE_SAMPLING_H_

#include <cstdint>

namespace dprof {

class FaultPlan;

// Configuration for the engine's sampled execution mode. When enabled, the
// engine alternates short *detailed windows* (full tag-lattice walks + PMU
// hook dispatch, exactly the semantics of exact mode) with long *fast-forward*
// stretches where accesses advance clocks through the calibrated per-core
// cost estimate but skip the hierarchy entirely. Allocator state, lock/sync
// arbitration, and per-core clocks stay exact throughout.
struct SamplingConfig {
  bool enabled = false;
  // Length of one sampling period in simulated cycles. Each period serves at
  // least window_cycles of detailed simulation; the rest fast-forwards.
  uint64_t period_cycles = 400'000;
  // Detailed-window budget per period, in simulated cycles.
  uint64_t window_cycles = 20'000;
  // Seed for the deterministic window-placement jitter. The schedule is a
  // pure function of (seed, committed clock).
  static constexpr uint64_t seed = 0x5a17;
};

// One confidence interval on a proportion, in percentage points.
struct SamplingInterval {
  double estimate = 0.0;  // point estimate, percent
  double lo = 0.0;        // lower bound, percent (clamped to 0)
  double hi = 0.0;        // upper bound, percent (clamped to 100)
};

// Owns the detailed-vs-fast-forward window schedule and the measured-window
// accounting. The engine consults BeginEpoch at each epoch boundary (with the
// global committed min-clock) and reports
// the epoch's outcome through EndEpoch. Epochs are the scheduling granule:
// a "window" is realized as a run of consecutive detailed epochs totalling at
// least window_cycles of simulated time.
class SamplingController {
 public:
  explicit SamplingController(const SamplingConfig& config);

  // Decide whether the epoch starting at committed min-clock `clock` runs
  // detailed (true) or fast-forwarded (false). Deterministic sequential
  // function of the clock sequence.
  bool BeginEpoch(uint64_t clock);

  // Report the epoch that just committed, in the mode the last BeginEpoch
  // chose: `advance` is the simulated cycles the global min-clock moved,
  // and `accesses` is the number of memory accesses the epoch recorded.
  void EndEpoch(uint64_t advance, uint64_t accesses);

  // Cycles from `clock` until the next detailed window could begin — the cap
  // a fast-forward epoch must respect so one long FF epoch never jumps a
  // window. Only meaningful right after BeginEpoch(clock) returned false.
  uint64_t FfRunway(uint64_t clock) const;

  const SamplingConfig& config() const { return config_; }
  uint64_t detailed_epochs() const { return detailed_epochs_; }
  uint64_t ff_epochs() const { return ff_epochs_; }
  uint64_t measured_accesses() const { return measured_accesses_; }
  uint64_t ff_accesses() const { return ff_accesses_; }

  // Ratio of all accesses to measured-window accesses: the factor by which a
  // measured-window counter is scaled to estimate its full-run value.
  double Scale() const;

  // Wilson score interval (z = 2.576, 99% confidence) for a proportion with
  // k successes out of n trials, widened by an absolute floor that accounts
  // for systematic window-placement error (phase-correlated workloads can
  // bias any fixed window schedule; the floor keeps the reported interval
  // honest about that). Returns percentages.
  static SamplingInterval WilsonCI(uint64_t k, uint64_t n, double floor_pct);

  // Self-check against the honesty contract behind WilsonCI: the scaled
  // estimates assume every period contributes (close to) a full detailed
  // window of measurement. A period that rolls over with less than half its
  // window served is a violation; the controller degrades gracefully —
  // first widening the window (x2, capped at the period), then, after
  // kMaxViolations, falling back to exact execution for the rest of the
  // run. All decisions are functions of the committed clock sequence, so
  // degraded runs are deterministic.
  static constexpr uint64_t kMaxViolations = 3;
  uint64_t violations() const { return violations_; }
  bool widened() const { return widened_; }
  bool exact_fallback() const { return exact_fallback_; }

  // Optional fault plan (kWindowJitter seam): perturbs the window offset at
  // period rollover so the window provably cannot fit, forcing the
  // self-check above to trip. Used by the crashtest harness.
  void SetFaultPlan(FaultPlan* faults) { faults_ = faults; }

  // The floor applied to per-type miss-share intervals, in points. Shares
  // are robust to window placement (systematic misses distribute across
  // types roughly in proportion), so this floor stays tight.
  static constexpr double kTypeShareFloorPct = 2.5;
  // The floor applied to the overall L1 miss-rate interval, in points. The
  // absolute rate is exposed to two systematic errors the statistical term
  // cannot see: cold caches at detailed-window entry (the lattice is frozen
  // during fast-forward, inflating misses) and phase-correlated window
  // placement (which can deflate them). Across the built-in scenarios the
  // observed bias reaches ~11 points in either direction; the floor covers
  // it with margin. Runs that need a tight absolute miss rate use exact
  // mode.
  static constexpr double kMissRateFloorPct = 15.0;
  // z for the Wilson interval: 99% two-sided.
  static constexpr double kZ = 2.576;

 private:
  // Deterministic jitter for the detailed-window offset inside period k.
  uint64_t Jitter(uint64_t k) const;

  SamplingConfig config_;
  FaultPlan* faults_ = nullptr;
  uint64_t cur_period_ = ~0ull;  // index of the period being served
  uint64_t served_ = 0;          // detailed cycles served in cur_period_
  uint64_t offset_ = 0;          // window start offset inside cur_period_
  bool detailed_ = true;         // the last BeginEpoch's decision
  uint64_t violations_ = 0;      // periods that broke the honesty contract
  bool widened_ = false;         // the window budget was doubled at least once
  bool exact_fallback_ = false;  // degraded to always-detailed execution
  uint64_t detailed_epochs_ = 0;
  uint64_t ff_epochs_ = 0;
  uint64_t measured_accesses_ = 0;
  uint64_t ff_accesses_ = 0;
};

}  // namespace dprof

#endif  // DPROF_MACHINE_SAMPLING_H_
