// Sampled execution mode (statistical fast-forward): the engine alternates
// short detailed windows with calibrated fast-forward stretches and reports
// scaled estimates with confidence intervals. These tests pin the three
// properties the mode is allowed to claim:
//
//  1. Honesty: every reported interval must cover the exact-mode value it
//     estimates, for every registered scenario. A sampled run that reports
//     a confidence interval excluding the ground truth is a bug, not a
//     statistics problem — the interval floors exist to absorb systematic
//     window-placement bias (see SamplingController::kMissRateFloorPct).
//  2. Determinism: the sampled report is byte-identical across engine
//     thread counts, because the window schedule is a pure function of the
//     committed min-clock.
//  3. It actually fast-forwards: most of the run must be skipped work
//     (scale well above 1), otherwise the mode is exact mode with extra
//     steps.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/cli/scenario_registry.h"
#include "src/machine/sampling.h"

namespace dprof {
namespace {

// Short runs keep the suite fast; the windows-per-run count still lands
// well above 10 with the default 400k-cycle period.
constexpr uint64_t kTestCycles = 4'000'000;

RunSpec BaseSpec() {
  RunSpec spec;
  spec.cores = 8;
  spec.collect_cycles = kTestCycles;
  spec.collect_histories = false;  // phase 1 is where sampling operates
  spec.build_view_json = false;
  return spec;
}

TEST(SamplingTest, IntervalsCoverExactValuesForEveryScenario) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE("scenario: " + name);
    RunSpec spec = BaseSpec();
    const ScenarioReport exact = RunScenario(registry, name, spec);
    spec.sampled = true;
    const ScenarioReport sampled = RunScenario(registry, name, spec);

    ASSERT_TRUE(sampled.sampling.enabled);
    ASSERT_GT(exact.hierarchy.accesses, 0u);

    // Overall L1 miss rate: the exact value must sit inside the interval.
    const double exact_rate = 100.0 *
                              static_cast<double>(exact.hierarchy.l1_misses) /
                              static_cast<double>(exact.hierarchy.accesses);
    const SamplingInterval& rate = sampled.sampling.l1_miss_rate;
    EXPECT_LE(rate.lo, exact_rate) << "CI excludes exact rate from below";
    EXPECT_GE(rate.hi, exact_rate) << "CI excludes exact rate from above";
    EXPECT_LE(rate.lo, rate.estimate);
    EXPECT_GE(rate.hi, rate.estimate);

    // Per-type miss shares: every interval reported for a type that the
    // exact profile also ranks must cover the exact share.
    for (const auto& t : sampled.sampling.types) {
      for (const auto& row : exact.profile) {
        if (row.type != t.type) continue;
        EXPECT_LE(t.ci_lo, row.miss_pct)
            << "type " << t.type << " CI excludes exact share from below";
        EXPECT_GE(t.ci_hi, row.miss_pct)
            << "type " << t.type << " CI excludes exact share from above";
      }
    }

    // The exact dominant type must stay at the top of the sampled ranking.
    // At this short run length (~10 windows) the top pair can swap when
    // their shares sit within one interval of each other, so the test
    // requires top-2 containment; ci/check_tables.py pins exact top-type
    // identity at the full 10M-cycle operating point.
    ASSERT_FALSE(exact.profile.empty());
    ASSERT_FALSE(sampled.profile.empty());
    const std::string& exact_top = exact.profile[0].type;
    bool in_top2 = sampled.profile[0].type == exact_top;
    if (!in_top2 && sampled.profile.size() > 1) {
      in_top2 = sampled.profile[1].type == exact_top;
    }
    EXPECT_TRUE(in_top2) << "exact top type " << exact_top
                         << " fell out of the sampled top 2 (sampled top: "
                         << sampled.profile[0].type << ")";
  }
}

TEST(SamplingTest, SampledRunActuallyFastForwards) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.sampled = true;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_GT(r.sampling.ff_epochs, 0u);
  EXPECT_GT(r.sampling.ff_accesses, r.sampling.measured_accesses);
  EXPECT_GT(r.sampling.scale, 2.0);
  // The lattice only sees detailed-window work: its access total tracks the
  // measured-window count (a handful of filter-window accesses replayed at
  // commit can land outside EndEpoch's accounting, so not exact equality).
  EXPECT_LE(r.sampling.measured_accesses, r.hierarchy.accesses);
  EXPECT_LT(r.hierarchy.accesses - r.sampling.measured_accesses,
            r.sampling.measured_accesses / 20);
}

TEST(SamplingTest, ExactModeReportCarriesNoSamplingBlock) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.build_view_json = true;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_FALSE(r.sampling.enabled);
  EXPECT_EQ(ScenarioReportToJson(r).find("\"sampling\""), std::string::npos)
      << "exact-mode JSON must stay byte-identical to pre-sampling builds";
}

TEST(SamplingTest, CustomPeriodAndWindowAreHonored) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.sampled = true;
  spec.sampling_period = 200'000;
  spec.sampling_window = 40'000;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_EQ(r.sampling.period_cycles, 200'000u);
  EXPECT_EQ(r.sampling.window_cycles, 40'000u);
  // A denser schedule measures more: scale drops toward period/window.
  EXPECT_LT(r.sampling.scale, 10.0);
}

// Sampled-mode fingerprints: the default `dprof run memcached --sampled`
// (phase 1 plus history collection, whose watchpoints fire inside
// fast-forward epochs) and a measurement-shaped sampled run (no histories,
// no view JSON, as whatif runs its experiments). Recorded from the engine
// itself, so they pin the fast-forward commit path against drift: every
// lattice counter, the throughput and sample counts, the epoch split and
// the honesty ladder's verdict.
struct SampledFingerprint {
  bool collect_histories;
  HierarchyTotals totals;
  uint64_t requests;
  uint64_t access_samples;
  uint64_t detailed_epochs;
  uint64_t ff_epochs;
  uint64_t measured_accesses;
  uint64_t ff_accesses;
  bool degraded;
  uint64_t violations;
  bool window_widened;
  bool exact_fallback;
};

const SampledFingerprint kSampledFingerprints[] = {
    {true,
     HierarchyTotals{890903, 430223, 460680,
                     {430223, 98824, 87239, 195431, 79186},
                     157506, 0, 0, 0, 0},
     159292, 1216, 2553, 2168, 890647, 13849128, false, 0, false, false},
    {false,
     HierarchyTotals{246425, 123581, 122844,
                     {123581, 19317, 17707, 48573, 37247},
                     34668, 0, 0, 0, 0},
     34988, 1216, 187, 414, 246169, 3006656, false, 0, false, false},
};

TEST(SamplingTest, SampledRunsMatchRecordedFingerprint) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const SampledFingerprint& want : kSampledFingerprints) {
    SCOPED_TRACE(want.collect_histories ? "memcached --sampled"
                                        : "memcached --sampled, measurement-shaped");
    RunSpec spec;
    spec.sampled = true;
    spec.collect_histories = want.collect_histories;
    spec.build_view_json = want.collect_histories;
    const ScenarioReport r = RunScenario(registry, "memcached", spec);
    const HierarchyTotals& got = r.hierarchy;
    EXPECT_EQ(got.accesses, want.totals.accesses);
    EXPECT_EQ(got.l1_hits, want.totals.l1_hits);
    EXPECT_EQ(got.l1_misses, want.totals.l1_misses);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(got.served[i], want.totals.served[i]) << "served level " << i;
    }
    EXPECT_EQ(got.invalidation_misses, want.totals.invalidation_misses);
    EXPECT_EQ(got.tag_reclaims, want.totals.tag_reclaims);
    EXPECT_EQ(got.back_invalidations, want.totals.back_invalidations);
    EXPECT_EQ(got.remote_fills, want.totals.remote_fills);
    EXPECT_EQ(got.cross_socket_back_invalidations,
              want.totals.cross_socket_back_invalidations);
    EXPECT_EQ(r.requests, want.requests);
    EXPECT_EQ(r.access_samples, want.access_samples);
    EXPECT_EQ(r.sampling.detailed_epochs, want.detailed_epochs);
    EXPECT_EQ(r.sampling.ff_epochs, want.ff_epochs);
    EXPECT_EQ(r.sampling.measured_accesses, want.measured_accesses);
    EXPECT_EQ(r.sampling.ff_accesses, want.ff_accesses);
    EXPECT_EQ(r.degraded, want.degraded);
    EXPECT_EQ(r.sampling_violations, want.violations);
    EXPECT_EQ(r.sampling_window_widened, want.window_widened);
    EXPECT_EQ(r.sampling_exact_fallback, want.exact_fallback);
    // Guards the fingerprint's own coverage: a run that stopped
    // fast-forwarding would pin exact mode only.
    EXPECT_GT(r.sampling.ff_epochs, 0u);
  }
}

TEST(SamplingTest, WilsonIntervalIsSaneAndFloored) {
  // 500 of 1000: symmetric interval around 50%, at least the floor wide.
  SamplingInterval i = SamplingController::WilsonCI(500, 1000, 2.5);
  EXPECT_NEAR(i.estimate, 50.0, 0.01);
  EXPECT_LE(i.lo, 47.5);
  EXPECT_GE(i.hi, 52.5);
  EXPECT_GE(i.lo, 0.0);
  EXPECT_LE(i.hi, 100.0);
  // Degenerate inputs clamp instead of dividing by zero.
  i = SamplingController::WilsonCI(0, 0, 2.5);
  EXPECT_EQ(i.estimate, 0.0);
  EXPECT_GE(i.hi, i.lo);
  // k == n stays within [0, 100] even with the floor applied.
  i = SamplingController::WilsonCI(10, 10, 5.0);
  EXPECT_LE(i.hi, 100.0);
  EXPECT_GE(i.lo, 0.0);
}

}  // namespace
}  // namespace dprof
