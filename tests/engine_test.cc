#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "src/machine/engine.h"
#include "src/util/stats.h"

namespace dprof {
namespace {

TEST(EngineTest, RunForReachesDeadline) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  Engine engine(&machine, EngineConfig{1, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(100'000);  // no drivers: cores idle forward deterministically
  EXPECT_GE(machine.MinClock(), 100'000u);
  EXPECT_GT(engine.epochs_run(), 0u);
}

TEST(EngineTest, RecordedStreamMatchesDirectModeForIndependentCores) {
  // With drivers that touch disjoint, core-local memory (no locks, no
  // cross-core lines, no PMU), the engine's committed clocks must be
  // exactly what direct execution produces: same accesses, same latencies.
  struct Driver final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      const Addr base = 0x1000000 + static_cast<Addr>(ctx.core()) * 0x100000;
      ctx.Write(1, base + (steps % 64) * 64, 32);
      ctx.Compute(1, 10);
      ++steps;
      return true;
    }
    uint64_t steps = 0;
  };
  struct Run {
    uint64_t clock[2] = {0, 0};
    uint64_t steps[2] = {0, 0};
    uint64_t epochs = 0;
  };
  // Runs both drivers for `cycles`, on the engine when `epoch_cycles` > 0.
  const auto run = [](uint64_t cycles, uint64_t epoch_cycles) {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    Machine machine(config);
    Driver drivers[2];
    machine.SetDriver(0, &drivers[0]);
    machine.SetDriver(1, &drivers[1]);
    std::optional<Engine> engine;
    if (epoch_cycles > 0) {
      engine.emplace(&machine, EngineConfig{1, epoch_cycles});
      machine.SetExecutor(&*engine);
    }
    machine.RunFor(cycles);
    Run out;
    for (int c = 0; c < 2; ++c) {
      out.clock[c] = machine.CoreClock(c);
      out.steps[c] = drivers[c].steps;
    }
    out.epochs = engine ? engine->epochs_run() : 0;
    return out;
  };

  // The long epoch records more than a core recorder's initial 4,096 ops
  // per core, so its columns grow mid-epoch.
  for (const uint64_t epoch_cycles : {10'000u, 50'000u}) {
    SCOPED_TRACE(epoch_cycles);
    const Run engine = run(50'000, epoch_cycles);
    // Epoch boundaries quantize where the run stops, so the engine may
    // overshoot the deadline. Both cores run the same step sequence, so a
    // direct run to where the engine stopped must take the same steps to
    // the same clocks.
    const Run direct = run(std::min(engine.clock[0], engine.clock[1]), 0);
    for (int c = 0; c < 2; ++c) {
      EXPECT_GE(engine.clock[c], 50'000u);
      EXPECT_EQ(engine.clock[c], direct.clock[c]);
      EXPECT_EQ(engine.steps[c], direct.steps[c]);
    }
    if (epoch_cycles == 50'000u) {
      // Each step records two ops (a one-line write and a compute burst), so
      // an epoch averaging over 2,048 steps on core 0 outgrew 4,096 ops.
      ASSERT_GT(engine.epochs, 0u);
      EXPECT_GT(engine.steps[0] / engine.epochs, 2048u);
    }
  }
}

TEST(EngineTest, LatencyProbeMatchesDirectMode) {
  struct Driver final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      ctx.BeginLatencyProbe();
      ctx.Read(1, 0x5000, 64);
      ctx.EndLatencyProbe(&stat, 1.0);
      ctx.Compute(1, 500);
      return true;
    }
    RunningStat stat;
  };

  MachineConfig config;
  config.hierarchy.num_cores = 1;
  auto run = [&](bool engine_mode) {
    Machine machine(config);
    Driver driver;
    machine.SetDriver(0, &driver);
    Engine engine(&machine, EngineConfig{1, 5'000});
    if (engine_mode) {
      machine.SetExecutor(&engine);
    }
    machine.RunFor(20'000);
    return driver.stat.mean();
  };
  const double direct_mean = run(false);
  const double engine_mean = run(true);
  // First access misses to DRAM, the rest hit L1: identical in both modes.
  EXPECT_DOUBLE_EQ(direct_mean, engine_mean);
}

TEST(EngineTest, LockArbitrationSerializesUnderEngine) {
  // Two cores hammer one lock; commit-order arbitration must produce waits
  // and consistent hold accounting, deterministically.
  struct Driver final : CoreDriver {
    Driver(SimLock* lock, int id) : lock(lock), id(id) {}
    bool Step(CoreContext& ctx) override {
      ctx.LockAcquire(*lock, 1);
      ctx.Compute(1, 200);
      ctx.LockRelease(*lock, 1);
      ctx.Compute(1, 50);
      return true;
    }
    SimLock* lock;
    int id;
  };
  struct Observer final : LockObserver {
    void OnAcquire(const SimLock&, int, FunctionId, uint64_t wait_cycles, uint64_t) override {
      total_wait += wait_cycles;
      ++acquires;
    }
    void OnRelease(const SimLock&, int, FunctionId, uint64_t, uint64_t) override {}
    uint64_t total_wait = 0;
    uint64_t acquires = 0;
  };

  auto run = [] {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    Machine machine(config);
    SimLock lock("test lock", 0x9000);
    Driver d0(&lock, 0), d1(&lock, 1);
    machine.SetDriver(0, &d0);
    machine.SetDriver(1, &d1);
    Observer observer;
    machine.SetLockObserver(&observer);
    Engine engine(&machine, EngineConfig{1, 5'000});
    machine.SetExecutor(&engine);
    machine.RunFor(100'000);
    return std::make_pair(observer.total_wait, observer.acquires);
  };
  const auto first = run();
  EXPECT_GT(first.second, 0u);
  EXPECT_GT(first.first, 0u);  // contended: waits must materialize
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace dprof
