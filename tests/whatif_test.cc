// Coverage for the whatif engine and the TypeTransform plumbing beneath it:
// identity transforms are byte-identical to plain runs (and reproduce the
// golden stats fingerprints through the RunSpec path), every transform is
// deterministic across host thread counts, candidates that share the
// baseline's allocator layout really do reproduce its run, the --auto
// search that reuses its probe as the baseline matches a probe followed by
// an explicit search, and pad-to-line on conflict_demo's deliberately
// aliased type yields a positive measured gain.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {
namespace {

RunSpec SmallConflictSpec() {
  RunSpec spec;
  spec.cores = 2;
  spec.collect_cycles = 2'000'000;
  spec.threads = 1;
  return spec;
}

// An all-identity TransformSet must leave every layout decision untouched:
// the full report JSON is byte-identical to a run with no transforms.
TEST(WhatIfTest, IdentityTransformIsByteIdenticalToPlainRun) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  const std::string plain =
      ScenarioReportToJson(RunScenario(registry, "conflict_demo", SmallConflictSpec()));

  RunSpec identity = SmallConflictSpec();
  identity.transforms.Add("pkt_stat", TypeTransformKind::kIdentity);
  identity.transforms.Add("skbuff", TypeTransformKind::kIdentity);
  const std::string transformed =
      ScenarioReportToJson(RunScenario(registry, "conflict_demo", identity));
  EXPECT_EQ(plain, transformed);
}

// The RunSpec path with an identity transform reproduces the golden stats
// fingerprint (tests/golden_stats_test.cc, memcached entry): the whatif
// baseline is the same simulation the goldens pin.
TEST(WhatIfTest, IdentityRunReproducesGoldenFingerprint) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec;
  spec.cores = 8;
  spec.threads = 1;
  spec.collect_cycles = 6'000'000;
  spec.build_view_json = false;
  spec.transforms.Add("skbuff", TypeTransformKind::kIdentity);
  std::unique_ptr<ScenarioRig> rig = BuildScenarioRig(registry, "memcached", spec);
  // Fixed epochs, as the golden harness runs them.
  rig->options.adaptive_epoch_focus = false;
  const ScenarioReport report = RunScenarioRig(std::move(rig), "memcached", spec);
  EXPECT_EQ(report.hierarchy.accesses, 12661292u);
  EXPECT_EQ(report.hierarchy.l1_hits, 7628418u);
  EXPECT_EQ(report.hierarchy.l1_misses, 5032874u);
  const uint64_t served[5] = {7628418, 2244339, 528931, 2185426, 74178};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(report.hierarchy.served[i], served[i]) << "served level " << i;
  }
  EXPECT_EQ(report.hierarchy.invalidation_misses, 2155207u);
}

// Every transform in the catalog must keep the engine's determinism
// guarantee: each transformed run, and the whatif report over all of them,
// is byte-identical for any host thread count. Two threads race hardest
// for the layout claims (no-op candidates on "slab" share the baseline's).
TEST(WhatIfTest, TransformsAreDeterministicAcrossThreads) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  std::vector<WhatIfCandidate> candidates;
  for (const TypeTransformKind kind : AllTypeTransformKinds()) {
    SCOPED_TRACE(TypeTransformKindName(kind));
    candidates.push_back({"pkt_stat", kind});
    candidates.push_back({"slab", kind});
    std::string reference;
    for (const int threads : {1, 2, 4}) {
      RunSpec spec = SmallConflictSpec();
      spec.threads = threads;
      spec.collect_histories = false;
      spec.transforms.Add("pkt_stat", kind);
      const std::string json = ScenarioReportToJson(RunScenario(registry, "conflict_demo", spec));
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(reference, json) << "threads=" << threads;
      }
    }
  }
  std::string reference;
  size_t reference_runs = 0;
  for (const int threads : {1, 2, 4}) {
    RunSpec spec = SmallConflictSpec();
    spec.threads = threads;
    const WhatIfReport report = RunWhatIf(registry, "conflict_demo", spec, candidates);
    const std::string json = WhatIfReportToJson(report);
    if (reference.empty()) {
      reference = json;
      reference_runs = report.experiments_run;
    } else {
      EXPECT_EQ(reference, json) << "threads=" << threads;
      EXPECT_EQ(reference_runs, report.experiments_run) << "threads=" << threads;
    }
  }
  EXPECT_LT(reference_runs, candidates.size() + 1);
}

// pin_home rewires the allocator's remote-free path (alien arrays skipped,
// transfers staged to the epoch boundary): exercise it on a workload that
// actually frees across cores, in the same determinism matrix.
TEST(WhatIfTest, PinHomeOnHeapTypeIsDeterministic) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  std::string reference;
  for (const int threads : {1, 4}) {
    RunSpec spec;
    spec.cores = 4;
    spec.collect_cycles = 2'000'000;
    spec.threads = threads;
    spec.collect_histories = false;
    spec.transforms.Add("skbuff", TypeTransformKind::kPinHome);
    spec.transforms.Add("size-1024", TypeTransformKind::kPinHome);
    const std::string json = ScenarioReportToJson(RunScenario(registry, "memcached", spec));
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json) << "threads=" << threads;
    }
  }
}

// conflict_demo places pkt_stat objects at a stride that aliases every
// object onto one associativity set; pad_to_line repacks the run densely,
// so the what-if diff must measure a positive throughput gain. The identity
// control arm must measure exactly zero.
TEST(WhatIfTest, PadToLineOnAliasedTypeYieldsPositiveGain) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  const std::vector<WhatIfCandidate> candidates = {
      {"pkt_stat", TypeTransformKind::kPadToLine},
      {"pkt_stat", TypeTransformKind::kIdentity},
  };
  const WhatIfReport report =
      RunWhatIf(registry, "conflict_demo", SmallConflictSpec(), candidates);
  ASSERT_EQ(report.outcomes.size(), 2u);
  // Ranked best-first: the real fix above the control arm.
  EXPECT_EQ(report.outcomes[0].candidate.kind, TypeTransformKind::kPadToLine);
  EXPECT_GT(report.outcomes[0].delta_pct, 0.0);
  EXPECT_GT(report.outcomes[0].throughput_rps, report.baseline_rps);
  EXPECT_EQ(report.outcomes[1].candidate.kind, TypeTransformKind::kIdentity);
  EXPECT_EQ(report.outcomes[1].delta_rps, 0.0);
  EXPECT_EQ(report.outcomes[1].requests, report.baseline_requests);

  const std::string json = WhatIfReportToJson(report);
  EXPECT_NE(json.find("\"whatif_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"fix\":\"pad_to_line\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_pct\":"), std::string::npos);
  const std::string table = WhatIfReportToTable(report);
  EXPECT_NE(table.find("pad_to_line"), std::string::npos);
}

// The baseline runs as job 0 of the experiment pool. Its report fields must
// be those of a standalone measurement run (no histories, no view JSON) at
// any thread count, never a candidate's.
TEST(WhatIfTest, PooledBaselineMatchesStandaloneRun) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec measurement = SmallConflictSpec();
  measurement.collect_histories = false;
  measurement.build_view_json = false;
  const ScenarioReport standalone = RunScenario(registry, "conflict_demo", measurement);

  const std::vector<WhatIfCandidate> candidates = {
      {"pkt_stat", TypeTransformKind::kPadToLine},
      {"pkt_stat", TypeTransformKind::kRecolor},
      {"pkt_stat", TypeTransformKind::kIdentity},
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    RunSpec spec = SmallConflictSpec();
    spec.threads = threads;
    const WhatIfReport report = RunWhatIf(registry, "conflict_demo", spec, candidates);
    EXPECT_EQ(report.scenario, standalone.scenario);
    EXPECT_EQ(report.cores, standalone.cores);
    EXPECT_EQ(report.collect_cycles, standalone.collect_cycles);
    EXPECT_EQ(report.baseline_requests, standalone.requests);
    EXPECT_EQ(report.baseline_rps, standalone.throughput_rps);
    EXPECT_EQ(report.baseline_l1_misses, standalone.hierarchy.l1_misses);
    EXPECT_EQ(report.baseline_invalidation_misses, standalone.hierarchy.invalidation_misses);
    ASSERT_EQ(report.baseline_profile.size(), standalone.profile.size());
    for (size_t i = 0; i < standalone.profile.size(); ++i) {
      EXPECT_EQ(report.baseline_profile[i].type, standalone.profile[i].type);
      EXPECT_EQ(report.baseline_profile[i].miss_pct, standalone.profile[i].miss_pct);
      EXPECT_EQ(report.baseline_profile[i].samples, standalone.profile[i].samples);
    }
    // pad_to_line measurably moves the run, so a baseline taken from the
    // wrong job would not match above.
    ASSERT_EQ(report.outcomes.size(), candidates.size());
    EXPECT_GT(report.outcomes[0].throughput_rps, standalone.throughput_rps);
  }
}

// A candidate whose allocator layout equals the baseline's takes the
// baseline's report in RunWhatIf. Check that shortcut against the real
// thing: each such candidate, run on its own, reproduces the baseline's
// report byte for byte. The cases cover exact and sampled mode, memcached's
// top five types, and conflict_demo, whose hot type owns only a static
// range. A candidate on a type that cannot own slab objects (the
// allocator's descriptor types, static types) must leave every cache entry
// of the key alone; only a static array's placement or a transform query
// can still tell it apart.
TEST(WhatIfTest, SharedLayoutCandidatesReproduceTheirOwnRuns) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  struct Case {
    const char* scenario;
    bool sampled;
    size_t top_n;
  };
  for (const Case& c : {Case{"memcached", false, 3}, Case{"memcached", true, 3},
                        Case{"memcached", false, 5}, Case{"apache", false, 3},
                        Case{"apache", true, 3}, Case{"conflict_demo", false, 3}}) {
    const std::string scenario = c.scenario;
    SCOPED_TRACE(scenario + (c.sampled ? " sampled" : " exact") + " top " +
                 std::to_string(c.top_n));
    RunSpec spec;
    spec.cores = 4;
    spec.collect_cycles = 3'000'000;
    if (scenario == "conflict_demo") {
      spec = SmallConflictSpec();
    }
    spec.sampled = c.sampled;
    spec.collect_histories = false;
    spec.build_view_json = false;
    const ScenarioReport baseline = RunScenario(registry, scenario, spec);
    const std::string baseline_json = ScenarioReportToJson(baseline);
    const std::unique_ptr<ScenarioRig> baseline_rig = BuildScenarioRig(registry, scenario, spec);
    const AllocatorLayout baseline_key = baseline_rig->allocator->LayoutKey();

    const std::vector<WhatIfCandidate> candidates =
        AutoCandidates(baseline.profile, c.top_n, baseline.num_sockets);
    size_t shared = 0;
    for (const WhatIfCandidate& candidate : candidates) {
      SCOPED_TRACE(candidate.Label());
      RunSpec variant = spec;
      variant.transforms.Add(candidate.type, candidate.kind, candidate.param);
      const AllocatorLayout key =
          BuildScenarioRig(registry, scenario, variant)->allocator->LayoutKey();
      const TypeId type = baseline_rig->registry->Find(candidate.type);
      if (type != kInvalidType && !baseline_rig->allocator->Allocatable(type)) {
        EXPECT_TRUE(key.caches == baseline_key.caches);
      }
      if (!(key == baseline_key)) {
        continue;
      }
      ++shared;
      EXPECT_EQ(ScenarioReportToJson(RunScenario(registry, scenario, variant)), baseline_json);
    }
    EXPECT_GT(shared, 0u);
    if (scenario == "memcached" && c.top_n == 3) {
      // memcached's top three types are slab and two line-multiple kernel
      // heap types. slab's kmem_cache never holds an object, so none of its
      // five candidates moves a layout; of the heap types' ten, only recolor
      // and pin_home do. So five of the sixteen experiments run.
      RunSpec whatif = spec;
      whatif.threads = 2;
      const WhatIfReport report = RunWhatIf(registry, scenario, whatif, candidates);
      EXPECT_EQ(report.outcomes.size(), 15u);
      EXPECT_EQ(report.experiments_run, 5u);
    }
  }
}

// RunWhatIfAuto picks its candidates from the baseline experiment's own
// profile and hands that run to the pool as job 0. It must report exactly
// what a separate probe (a measurement-shaped RunScenario) followed by
// RunWhatIf reports, the experiment count included, at every thread count.
TEST(WhatIfTest, AutoSearchEqualsProbeThenRunWhatIf) {
  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const char* scenario : {"memcached", "apache"}) {
    for (const bool sampled : {false, true}) {
      SCOPED_TRACE(std::string(scenario) + (sampled ? " sampled" : " exact"));
      RunSpec spec;
      spec.cores = 4;
      spec.collect_cycles = 3'000'000;
      spec.sampled = sampled;
      RunSpec probe = spec;
      probe.collect_histories = false;
      probe.build_view_json = false;
      const ScenarioReport baseline = RunScenario(registry, scenario, probe);
      const std::vector<WhatIfCandidate> candidates =
          AutoCandidates(baseline.profile, 3, baseline.num_sockets);
      ASSERT_FALSE(candidates.empty());
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        spec.threads = threads;
        const WhatIfReport expected = RunWhatIf(registry, scenario, spec, candidates);
        const WhatIfReport report = RunWhatIfAuto(registry, scenario, spec, 3);
        EXPECT_EQ(WhatIfReportToJson(report), WhatIfReportToJson(expected));
        EXPECT_EQ(report.experiments_run, expected.experiments_run);
        ASSERT_EQ(report.baseline_profile.size(), baseline.profile.size());
        for (size_t i = 0; i < baseline.profile.size(); ++i) {
          EXPECT_EQ(report.baseline_profile[i].type, baseline.profile[i].type);
          EXPECT_EQ(report.baseline_profile[i].samples, baseline.profile[i].samples);
        }
      }
    }
  }
}

TEST(WhatIfTest, AutoCandidatesCrossTopTypesWithCatalog) {
  std::vector<ScenarioProfileRow> profile(3);
  profile[0].type = "size-1024";
  profile[1].type = "skbuff";
  profile[2].type = "slab";
  const std::vector<WhatIfCandidate> candidates = AutoCandidates(profile, 2);
  ASSERT_EQ(candidates.size(), 2 * AllTypeTransformKinds().size());
  EXPECT_EQ(candidates.front().type, "size-1024");
  EXPECT_EQ(candidates.back().type, "skbuff");
  // Asking for more types than profiled clamps instead of overrunning.
  EXPECT_EQ(AutoCandidates(profile, 10).size(), 3 * AllTypeTransformKinds().size());
}

}  // namespace
}  // namespace dprof
