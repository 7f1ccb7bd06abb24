// Cross-module property tests: invariants that must hold across parameter
// sweeps of the whole simulated machine.

#include <gtest/gtest.h>

#include <memory>

#include "src/dprof/session.h"
#include "src/workload/kernel.h"
#include "src/workload/memcached.h"

namespace dprof {
namespace {

// ---- Hierarchy conservation: served-level counts sum to accesses. --------

class HierarchyConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyConservationTest, ServedCountsSumToAccesses) {
  const int cores = GetParam();
  HierarchyConfig config;
  config.num_cores = cores;
  config.l1 = CacheGeometry{2048, 64, 2};
  config.l2 = CacheGeometry{8192, 64, 4};
  config.l3 = CacheGeometry{32768, 64, 8};
  CacheHierarchy h(config);
  Rng rng(cores);
  for (int i = 0; i < 20000; ++i) {
    const int core = static_cast<int>(rng.Below(static_cast<uint64_t>(cores)));
    const Addr addr = rng.Below(64 * 1024);
    h.Access(core, addr, 1 + static_cast<uint32_t>(rng.Below(16)), rng.Chance(0.3), i);
  }
  for (int c = 0; c < cores; ++c) {
    const CoreMemStats& stats = h.core_stats(c);
    uint64_t sum = 0;
    for (int level = 0; level < 5; ++level) {
      sum += stats.served[level];
    }
    EXPECT_EQ(sum, stats.accesses);
    EXPECT_EQ(stats.l1_hits + stats.l1_misses, stats.accesses);
    EXPECT_LE(stats.invalidation_misses, stats.l1_misses);
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, HierarchyConservationTest, ::testing::Values(1, 2, 4, 8));

// ---- Coherence safety: at most one core holds a dirty copy. --------------

TEST(CoherenceSafetyTest, SingleWriterInvariant) {
  HierarchyConfig config;
  config.num_cores = 4;
  config.l1 = CacheGeometry{1024, 64, 2};
  config.l2 = CacheGeometry{4096, 64, 4};
  config.l3 = CacheGeometry{16384, 64, 8};
  CacheHierarchy h(config);
  Rng rng(99);
  const Addr kLines[4] = {0x1000, 0x2000, 0x3000, 0x4000};
  for (int i = 0; i < 5000; ++i) {
    const int core = static_cast<int>(rng.Below(4));
    const Addr addr = kLines[rng.Below(4)];
    h.Access(core, addr, 8, rng.Chance(0.5), i);
    // After a write, every other core's next read must not be an L1 hit on
    // stale data: probe says its level is not L1.
  }
  // Spot-check: core 0 writes, others must fetch.
  h.Access(0, kLines[0], 8, true, 10000);
  for (int c = 1; c < 4; ++c) {
    EXPECT_NE(h.ProbeLevel(c, kLines[0]), ServedBy::kL1);
  }
}

// ---- IBS statistics: sampling rate tracks the configured period. ---------

class IbsRateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IbsRateTest, AchievedRateMatchesPeriod) {
  const uint64_t period = GetParam();
  IbsUnit ibs(1);
  ibs.SetPeriod(period);
  const uint64_t ops = 200000;
  for (uint64_t i = 0; i < ops; ++i) {
    AccessEvent event;
    event.core = 0;
    ibs.OnAccess(event);
  }
  const double expected = static_cast<double>(ops) / static_cast<double>(period);
  EXPECT_NEAR(static_cast<double>(ibs.samples_taken()), expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Periods, IbsRateTest, ::testing::Values(10, 50, 200, 1000));

// ---- Profile mass: data profile rows account for most resolved misses. ---

TEST(ProfileMassTest, MissSharesSumBelowHundred) {
  MachineConfig config;
  config.hierarchy.num_cores = 2;
  Machine machine(config);
  TypeRegistry registry;
  SlabAllocator allocator(&machine, &registry);
  machine.SetAllocator(&allocator);
  KernelEnv env(&machine, &allocator);
  MemcachedConfig mc;
  mc.rx_ring_entries = 16;
  MemcachedWorkload workload(&env, mc);
  workload.Install(machine);

  DProfOptions options;
  options.ibs_period_ops = 50;
  DProfSession session(&machine, &allocator, options);
  session.CollectAccessSamples(6'000'000);

  const DataProfile profile = session.BuildDataProfile();
  double total = 0.0;
  for (const DataProfileRow& row : profile.rows()) {
    EXPECT_GE(row.miss_pct, 0.0);
    total += row.miss_pct;
  }
  // Userspace samples are unresolved, so attributed shares stay <= 100%.
  EXPECT_LE(total, 100.0 + 1e-9);
  EXPECT_GT(total, 50.0);
}

// ---- History sweeps: histories per set match size/granularity exactly. ---

struct SweepCase {
  uint32_t object_size;
  uint32_t granularity;
  bool pair;
};

class HistorySweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HistorySweepTest, HistoriesPerSetFormula) {
  const SweepCase& c = GetParam();
  MachineConfig config;
  config.hierarchy.num_cores = 1;
  Machine machine(config);
  TypeRegistry registry;
  SlabAllocator allocator(&machine, &registry);
  machine.SetAllocator(&allocator);
  DebugRegisterFile regs;
  const TypeId type = registry.Register("t", c.object_size);
  HistoryCollectorOptions options;
  options.granularity = c.granularity;
  options.pair_mode = c.pair;
  HistoryCollector collector(&machine, &regs, type, c.object_size, options);
  const uint32_t n = c.object_size / c.granularity;
  const uint32_t expected = c.pair ? n * (n - 1) / 2 : n;
  EXPECT_EQ(collector.histories_per_set(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweeps, HistorySweepTest,
                         ::testing::Values(SweepCase{256, 4, false},   // skbuff: 64
                                           SweepCase{256, 4, true},    // pairs: 2016
                                           SweepCase{1024, 4, false},  // size-1024: 256
                                           SweepCase{1600, 4, false},  // tcp_sock: 400
                                           SweepCase{64, 8, false},
                                           SweepCase{64, 8, true}));

// ---- Determinism: identical seeds give identical simulations. ------------

TEST(DeterminismTest, SameSeedSameResult) {
  auto run = [] {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    config.seed = 77;
    Machine machine(config);
    TypeRegistry registry;
    SlabAllocator allocator(&machine, &registry);
    machine.SetAllocator(&allocator);
    KernelEnv env(&machine, &allocator);
    MemcachedConfig mc;
    mc.rx_ring_entries = 16;
    MemcachedWorkload workload(&env, mc);
    workload.Install(machine);
    machine.RunFor(2'000'000);
    return std::make_pair(workload.CompletedRequests(), machine.MaxClock());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- Throughput monotonicity: IBS overhead grows with sampling rate. -----

TEST(OverheadMonotonicityTest, FasterSamplingCostsMore) {
  auto measure = [](uint64_t period) {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    Machine machine(config);
    TypeRegistry registry;
    SlabAllocator allocator(&machine, &registry);
    machine.SetAllocator(&allocator);
    KernelEnv env(&machine, &allocator);
    MemcachedConfig mc;
    mc.rx_ring_entries = 16;
    MemcachedWorkload workload(&env, mc);
    workload.Install(machine);
    DProfOptions options;
    options.ibs_period_ops = period;
    DProfSession session(&machine, &allocator, options);
    machine.RunFor(500'000);
    workload.ResetStats();
    const uint64_t start = machine.MaxClock();
    session.CollectAccessSamples(5'000'000);
    return ThroughputRps(workload.CompletedRequests(), machine.MaxClock() - start);
  };
  const double slow_sampling = measure(2000);
  const double fast_sampling = measure(30);
  EXPECT_LT(fast_sampling, slow_sampling);
}

}  // namespace
}  // namespace dprof
