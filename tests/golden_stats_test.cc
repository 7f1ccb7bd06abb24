// Golden stats equivalence: the flattened tag lattice with its embedded
// directory (src/sim/hierarchy.h) against the recorded ground truth of the
// model it replaced (per-level Cache objects + the DirShard open-addressing
// hash directory, removed in this refactor).
//
// The expected values below were captured by running exactly this harness
// against the pre-refactor model. The simulation is fully deterministic
// (fixed seeds, engine at one thread, fixed epoch lengths), so the numbers
// are host-independent: any drift in hits/misses/served[]/invalidation
// counts means the lattice stopped being behaviorally identical.
//
// The lattice is only equivalent while no inclusion obligation fires (a
// reclaimed extension tag back-invalidates private copies, which the old
// unbounded directory never did), so the test also pins tag_reclaims and
// back_invalidations to zero — the envelope every registered scenario must
// stay inside.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/cli/scenario_registry.h"
#include "src/machine/engine.h"

namespace dprof {
namespace {

struct GoldenTotals {
  uint64_t collect_cycles;
  uint64_t accesses;
  uint64_t l1_hits;
  uint64_t l1_misses;
  uint64_t served[5];
  uint64_t invalidation_misses;
};

// Captured from the pre-refactor model (cores=8, one host thread, default
// 20k-cycle epochs, seed 1, phase 1 + top-3 history sets, fixed epochs).
const std::map<std::string, GoldenTotals> kGolden = {
    {"apache",
     {6'000'000, 19941063, 11219679, 8721384,
      {11219679, 5542212, 2831613, 144554, 203005}, 144519}},
    {"conflict_demo",
     {4'000'000, 1275216, 4631, 1270585, {4631, 8691, 1261702, 0, 192}, 0}},
    {"kernel",
     {6'000'000, 21072401, 16946071, 4126330,
      {16946071, 3438122, 255711, 360804, 71693}, 361979}},
    {"memcached",
     {6'000'000, 12661292, 7628418, 5032874,
      {7628418, 2244339, 528931, 2185426, 74178}, 2155207}},
};

// Runs the harness every golden row shares: fixed 20k-cycle epochs, phase 1
// for `collect_cycles`, then (with `histories`) the scenario's top history
// sets.
HierarchyTotals RunGoldenHarness(const std::string& name, const std::string& topology,
                                 int cores, uint64_t collect_cycles, bool histories) {
  const ScenarioInfo* info = ScenarioRegistry::Default().Find(name);
  EXPECT_NE(info, nullptr);
  if (info == nullptr) {
    return {};
  }
  RunSpec params;
  params.cores = cores;
  params.topology = topology;
  params.build_view_json = false;
  auto rig = info->factory(params);
  rig->workload->Install(*rig->machine);
  EngineConfig engine_config;
  engine_config.epoch_cycles = 20'000;
  Engine engine(rig->machine.get(), engine_config);
  rig->machine->SetExecutor(&engine);

  // Fixed-epoch run: the golden numbers predate adaptive epoch focus,
  // and this test pins the lattice, not the epoch policy.
  rig->options.adaptive_epoch_focus = false;
  DProfSession session(rig->machine.get(), rig->allocator.get(), rig->options);
  session.CollectAccessSamples(collect_cycles);
  if (histories) {
    session.CollectHistoriesForTopTypes(rig->top_types, rig->history_sets);
  }
  return rig->machine->hierarchy().Totals();
}

TEST(GoldenStatsTest, LatticeMatchesRecordedBaselinePerScenario) {
  for (const auto& [name, golden] : kGolden) {
    SCOPED_TRACE("scenario: " + name);
    const HierarchyTotals totals = RunGoldenHarness(name, "", 8, golden.collect_cycles, true);
    EXPECT_EQ(totals.accesses, golden.accesses);
    EXPECT_EQ(totals.l1_hits, golden.l1_hits);
    EXPECT_EQ(totals.l1_misses, golden.l1_misses);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(totals.served[i], golden.served[i]) << "served level " << i;
    }
    EXPECT_EQ(totals.invalidation_misses, golden.invalidation_misses);

    // The equivalence envelope: no extension bank overflowed, so no
    // back-invalidation the old model would not have performed.
    EXPECT_EQ(totals.tag_reclaims, 0u);
    EXPECT_EQ(totals.back_invalidations, 0u);
  }
}

// Multi-socket fingerprints: the NUMA lattice (per-socket slices and
// directories, remote fills, cross-socket back-invalidations) on the
// topology presets. Recorded from the lattice itself, so these pin its
// behavior against drift rather than against an independent model. Unlike
// the flat rows, inclusion obligations may fire here, so every counter of
// HierarchyTotals is pinned.
struct TopologyGolden {
  std::string scenario;
  std::string topology;
  uint64_t collect_cycles;
  // Phase 2 too. The 64-core preset runs phase 1 only, to fit the ctest
  // budget: its history phase costs more than all other rows together.
  bool histories;
  HierarchyTotals totals;
};

const TopologyGolden kTopologyGolden[] = {
    {"memcached", "paper-amd", 2'000'000, true,
     HierarchyTotals{19156286, 11288867, 7867419,
                     {11288867, 3126269, 672603, 3716419, 352128},
                     3424562, 147, 147, 3659818, 78}},
    {"memcached", "big", 8'000'000, false,
     HierarchyTotals{932831, 543339, 389492,
                     {543339, 63006, 8466, 159229, 158791},
                     77493, 67196, 70409, 239329, 51563}},
};

TEST(GoldenStatsTest, TopologyPresetsMatchRecordedBaseline) {
  for (const TopologyGolden& golden : kTopologyGolden) {
    SCOPED_TRACE(golden.scenario + " on " + golden.topology);
    const HierarchyTotals totals = RunGoldenHarness(
        golden.scenario, golden.topology, 16, golden.collect_cycles, golden.histories);
    const HierarchyTotals& want = golden.totals;
    EXPECT_EQ(totals.accesses, want.accesses);
    EXPECT_EQ(totals.l1_hits, want.l1_hits);
    EXPECT_EQ(totals.l1_misses, want.l1_misses);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(totals.served[i], want.served[i]) << "served level " << i;
    }
    EXPECT_EQ(totals.invalidation_misses, want.invalidation_misses);
    EXPECT_EQ(totals.tag_reclaims, want.tag_reclaims);
    EXPECT_EQ(totals.back_invalidations, want.back_invalidations);
    EXPECT_EQ(totals.remote_fills, want.remote_fills);
    EXPECT_EQ(totals.cross_socket_back_invalidations,
              want.cross_socket_back_invalidations);
    // Guards the fingerprint's own coverage: a row that stopped exercising
    // the interconnect would pin nothing NUMA-specific.
    EXPECT_GT(totals.remote_fills, 0u);
  }
}

// Every registered scenario must have a golden fingerprint: a new scenario
// landing without one would silently skip equivalence coverage.
TEST(GoldenStatsTest, CoversEveryRegisteredScenario) {
  for (const std::string& name : ScenarioRegistry::Default().Names()) {
    EXPECT_TRUE(kGolden.count(name) == 1)
        << "scenario '" << name << "' has no golden stats fingerprint";
  }
}

}  // namespace
}  // namespace dprof
