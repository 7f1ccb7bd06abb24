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

// Captured from the pre-refactor model (cores=8, threads=1, default
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

TEST(GoldenStatsTest, LatticeMatchesRecordedBaselinePerScenario) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const auto& [name, golden] : kGolden) {
    SCOPED_TRACE("scenario: " + name);
    const ScenarioInfo* info = registry.Find(name);
    ASSERT_NE(info, nullptr);

    RunSpec params;
    params.cores = 8;
    params.threads = 1;
    params.build_view_json = false;
    auto rig = info->factory(params);
    rig->workload->Install(*rig->machine);
    EngineConfig engine_config{1, 20'000, 2'000, 11};
    Engine engine(rig->machine.get(), engine_config);
    rig->machine->SetExecutor(&engine);

    // Fixed-epoch run: the golden numbers predate adaptive epoch focus,
    // and this test pins the lattice, not the epoch policy.
    rig->options.adaptive_epoch_focus = false;
    DProfSession session(rig->machine.get(), rig->allocator.get(), rig->options);
    session.CollectAccessSamples(golden.collect_cycles);
    session.CollectHistoriesForTopTypes(rig->top_types, rig->history_sets);

    const HierarchyTotals totals = rig->machine->hierarchy().Totals();
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
