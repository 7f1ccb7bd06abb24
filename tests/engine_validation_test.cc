// Profile-shape validation: the epoch engine against the legacy
// step-the-minimum-clock-core loop, across every registered scenario.
//
// The engine's timing semantics differ from the legacy loop in bounded,
// documented ways (mailboxes flush at epoch boundaries, lock waits resolve
// at commit, the apply pass interleaves cores at quantum granularity), so
// the two runs cannot be compared byte-for-byte. What must hold for DProf's
// conclusions to be trustworthy is that the *shape* of the profile — which
// types dominate, roughly how much they miss, how fast the workload runs —
// survives the execution strategy. These tests pin that down with
// tolerance-based comparisons of the `dprof run --json` report data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"

namespace dprof {
namespace {

struct ShapePair {
  ScenarioReport engine;
  ScenarioReport legacy;
};

ShapePair RunBoth(const std::string& scenario, uint64_t cycles) {
  RunSpec params;
  params.cores = 8;
  params.collect_cycles = cycles;
  params.build_view_json = false;
  ShapePair pair;
  params.use_engine = true;
  pair.engine = RunScenario(ScenarioRegistry::Default(), scenario, params);
  params.use_engine = false;
  pair.legacy = RunScenario(ScenarioRegistry::Default(), scenario, params);
  return pair;
}

std::vector<std::string> TopTypes(const ScenarioReport& report, size_t n) {
  std::vector<std::string> names;
  for (const ScenarioProfileRow& row : report.profile) {
    if (names.size() >= n) {
      break;
    }
    names.push_back(row.type);
  }
  return names;
}

const ScenarioProfileRow* FindRow(const ScenarioReport& report, const std::string& type) {
  for (const ScenarioProfileRow& row : report.profile) {
    if (row.type == type) {
      return &row;
    }
  }
  return nullptr;
}

// Agreement metrics for one scenario, asserted with scenario-tagged
// messages so a failure names the drifting workload.
void ExpectShapesAgree(const std::string& scenario, const ShapePair& pair) {
  SCOPED_TRACE("scenario: " + scenario);
  const ScenarioReport& e = pair.engine;
  const ScenarioReport& l = pair.legacy;

  // Both runs must have produced a usable profile at all.
  ASSERT_FALSE(e.profile.empty());
  ASSERT_FALSE(l.profile.empty());
  ASSERT_GT(e.access_samples, 0u);
  ASSERT_GT(l.access_samples, 0u);

  // Throughput: the engine's epoch batching (mailbox flush granularity,
  // commit-time lock waits) may shift request pacing, but not the order of
  // magnitude of delivered work.
  const double rps_ratio = e.throughput_rps / std::max(l.throughput_rps, 1e-9);
  EXPECT_GT(rps_ratio, 0.60) << "engine rps " << e.throughput_rps << " vs legacy "
                             << l.throughput_rps;
  EXPECT_LT(rps_ratio, 1.67) << "engine rps " << e.throughput_rps << " vs legacy "
                             << l.throughput_rps;

  // Sampling density: IBS periods are identical, so samples scale with
  // executed ops.
  const double sample_ratio =
      static_cast<double>(e.access_samples) / static_cast<double>(l.access_samples);
  EXPECT_GT(sample_ratio, 0.5);
  EXPECT_LT(sample_ratio, 2.0);

  // The top profiled type — the headline DProf answer — must match.
  EXPECT_EQ(e.profile[0].type, l.profile[0].type);

  // The top-3 sets must broadly agree (ranking within the tail may swap).
  const std::vector<std::string> top_e = TopTypes(e, 3);
  const std::vector<std::string> top_l = TopTypes(l, 3);
  const std::set<std::string> set_e(top_e.begin(), top_e.end());
  int shared = 0;
  for (const std::string& name : top_l) {
    shared += set_e.count(name) ? 1 : 0;
  }
  EXPECT_GE(shared, static_cast<int>(std::min(top_l.size(), top_e.size())) - 1)
      << "engine top-3 and legacy top-3 share too few types";

  // Per-type shape for the shared top types: miss percentage within an
  // absolute band, and the bounce verdict — the paper's headline
  // classifier — identical.
  //
  // The band quantifies the engine's known timing drift rather than hiding
  // it: epoch batching delivers mailbox traffic in bursts, which changes
  // payload reuse distances. Measured on the worst case (kernel scenario,
  // size-1024 payloads, 20M cycles): legacy 69.4% missing vs engine 41.0%
  // at the default 20k-cycle epochs, 55.5% at 5k, 56.6% at 2k — the drift
  // shrinks as epochs tighten, pinning its source to epoch granularity,
  // and has been present since the engine landed (PR2 measures 40.4%).
  // 30 points covers that known gap; a regression beyond it still fails.
  for (const std::string& name : top_l) {
    const ScenarioProfileRow* re = FindRow(e, name);
    const ScenarioProfileRow* rl = FindRow(l, name);
    if (re == nullptr || rl == nullptr) {
      continue;  // counted by the overlap check above
    }
    SCOPED_TRACE("type: " + name);
    EXPECT_NEAR(re->miss_pct, rl->miss_pct, 30.0);
    if (rl->samples >= 100 && re->samples >= 100) {
      EXPECT_EQ(re->bounce, rl->bounce);
    }
  }
}

TEST(EngineValidationTest, AllScenariosMatchLegacyShape) {
  // Scenario-specific collection lengths keep the whole suite fast while
  // giving each workload enough samples for a stable shape.
  const std::map<std::string, uint64_t> cycles = {
      {"memcached", 6'000'000},
      {"kernel", 6'000'000},
      {"apache", 6'000'000},
      {"conflict_demo", 4'000'000},
  };
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const std::string& name : registry.Names()) {
    auto it = cycles.find(name);
    const uint64_t collect = it != cycles.end() ? it->second : 4'000'000;
    ExpectShapesAgree(name, RunBoth(name, collect));
  }
}

// The registry must not grow scenarios that silently skip validation.
TEST(EngineValidationTest, CoversEveryRegisteredScenario) {
  EXPECT_GE(ScenarioRegistry::Default().Names().size(), 4u);
}

// Adaptive epochs: drilling into a mailbox-fed type runs the engine at its
// focus epoch length (kEpochCyclesFocus, 2k cycles), which must close most of the documented
// epoch-batching miss-rate drift on that type (legacy 69% vs engine 41% at
// the default 20k-cycle epochs on this workload — a ~28-point gap that the
// 30-point band above merely tolerates). With focus, measured agreement is
// within ~7 points; 15 leaves noise margin while still proving the claim.
TEST(EngineValidationTest, MailboxFocusClosesPayloadMissDrift) {
  RunSpec params;
  params.cores = 8;
  params.collect_cycles = 6'000'000;
  params.build_view_json = false;
  params.drill_type = "size-1024";

  params.use_engine = true;
  const ScenarioReport engine = RunScenario(ScenarioRegistry::Default(), "kernel", params);
  params.use_engine = false;
  const ScenarioReport legacy = RunScenario(ScenarioRegistry::Default(), "kernel", params);

  const ScenarioProfileRow* re = FindRow(engine, "size-1024");
  const ScenarioProfileRow* rl = FindRow(legacy, "size-1024");
  ASSERT_NE(re, nullptr);
  ASSERT_NE(rl, nullptr);
  EXPECT_NEAR(re->miss_pct, rl->miss_pct, 15.0)
      << "focused engine " << re->miss_pct << "% vs legacy " << rl->miss_pct << "%";
}

}  // namespace
}  // namespace dprof
