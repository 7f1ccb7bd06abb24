#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/machine/engine.h"
#include "src/util/stats.h"

namespace dprof {
namespace {

EngineConfig WithEpochCycles(uint64_t epoch_cycles) {
  EngineConfig config;
  config.epoch_cycles = epoch_cycles;
  return config;
}

TEST(EngineTest, RunForReachesDeadline) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  Engine engine(&machine, WithEpochCycles(10'000));
  machine.SetExecutor(&engine);
  machine.RunFor(100'000);  // no drivers: cores idle forward deterministically
  EXPECT_GE(machine.MinClock(), 100'000u);
  EXPECT_GT(engine.phase_stats().epochs, 0u);
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
      engine.emplace(&machine, WithEpochCycles(epoch_cycles));
      machine.SetExecutor(&*engine);
    }
    machine.RunFor(cycles);
    Run out;
    for (int c = 0; c < 2; ++c) {
      out.clock[c] = machine.CoreClock(c);
      out.steps[c] = drivers[c].steps;
    }
    out.epochs = engine ? engine->phase_stats().epochs : 0;
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
    Engine engine(&machine, WithEpochCycles(5'000));
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

// Latency probes that span compute, idle and accesses inside fast-forward
// epochs. A fast-forwarded run's probe share is its payload less the base
// op cost per access, so cycles folded into a run while a probe is open
// would count as latency: the probe stats and committed clocks must stay
// what separate compute and idle ops give.
struct ProbeRun {
  RunningStat stat[2];
  uint64_t clock[2] = {0, 0};
  uint64_t ff_epochs = 0;
};

ProbeRun RunProbedSampledEngine() {
  // Five-step cycle: a probe opens, idles one step and closes; then a
  // probe-free step with a lock (two sync ops), then a probe-free idle.
  struct Driver final : CoreDriver {
    Driver(SimLock* lock, int core) : lock(lock), core(core) {}
    bool Step(CoreContext& ctx) override {
      const Addr own = 0x1000000 + static_cast<Addr>(core) * 0x100000;
      const uint64_t phase = step++ % 5;
      switch (phase) {
        case 0:
          ctx.BeginLatencyProbe();
          ctx.Compute(1, 40);
          ctx.Read(1, own + (step % 256) * 64, 8);
          return true;
        case 1:
          return false;  // idle with the probe open
        case 2:
          ctx.Compute(2, 25);
          ctx.Read(2, 0x800000 + (step % 64) * 64, 128);
          ctx.EndLatencyProbe(&stat, 2.0);
          ctx.Compute(2, 30);
          return true;
        case 3:
          ctx.Write(3, own + (step % 512) * 64, 8);
          ctx.LockAcquire(*lock, 3);
          ctx.Compute(3, 20);
          ctx.LockRelease(*lock, 3);
          ctx.Compute(3, 15);
          return true;
        default:
          return false;  // probe-free idle
      }
    }
    SimLock* lock;
    int core;
    uint64_t step = 0;
    RunningStat stat;
  };
  MachineConfig config;
  config.hierarchy.num_cores = 2;
  Machine machine(config);
  SimLock lock("probe test lock", 0x9000);
  Driver d0(&lock, 0), d1(&lock, 1);
  machine.SetDriver(0, &d0);
  machine.SetDriver(1, &d1);
  EngineConfig engine_config;
  engine_config.epoch_cycles = 10'000;
  engine_config.sampling.enabled = true;
  engine_config.sampling.period_cycles = 200'000;
  engine_config.sampling.window_cycles = 20'000;
  Engine engine(&machine, engine_config);
  machine.SetExecutor(&engine);
  machine.RunFor(600'000);
  ProbeRun out;
  out.stat[0] = d0.stat;
  out.stat[1] = d1.stat;
  for (int c = 0; c < 2; ++c) {
    out.clock[c] = machine.CoreClock(c);
  }
  out.ff_epochs = engine.sampler()->ff_epochs();
  return out;
}

TEST(EngineTest, ProbesInFastForwardEpochsKeepTheirLatencyShare) {
  const ProbeRun run = RunProbedSampledEngine();
  ASSERT_GT(run.ff_epochs, 0u);
  // Recorded with compute and idle bursts committed as ops of their own.
  EXPECT_EQ(run.stat[0].count(), 126u);
  EXPECT_EQ(run.stat[0].sum(), 20017.0);
  EXPECT_EQ(run.stat[0].min(), 126.0);
  EXPECT_EQ(run.stat[0].max(), 375.0);
  EXPECT_EQ(run.stat[1].count(), 127u);
  EXPECT_EQ(run.stat[1].sum(), 19423.0);
  EXPECT_EQ(run.stat[1].min(), 97.5);
  EXPECT_EQ(run.stat[1].max(), 375.0);
  EXPECT_EQ(run.clock[0], 601'956u);
  EXPECT_EQ(run.clock[1], 601'824u);
}

TEST(EngineTest, FastForwardStretchRecordsOneOpPerSyncGap) {
  MachineConfig config;
  config.hierarchy.num_cores = 1;
  Machine machine(config);
  SimLock lock("stretch lock", 0x9000);
  CoreRecorder rec;
  rec.Reset(0);
  rec.ff = true;  // no filter window: every access fast-forwards
  CoreContext ctx(&machine, 0, &rec);
  const auto kinds = [&rec] {
    std::vector<int> out;
    for (size_t i = 0; i < rec.ops.size(); ++i) {
      out.push_back(rec.ops[i].kind & SimOp::kKindMask);
    }
    return out;
  };
  const auto payloads = [&rec] {
    uint64_t sum = 0;
    for (size_t i = 0; i < rec.ops.size(); ++i) {
      if ((rec.ops[i].kind & SimOp::kKindMask) < SimOp::kFirstSync) {
        sum += rec.ops[i].payload;
      }
    }
    return sum;
  };

  // Probe-free: compute, idle and accesses between two sync ops fold into
  // one run that carries every cycle charged, and counts only accesses.
  ctx.Compute(1, 40);
  ctx.Read(1, 0x1000, 8);
  rec.RecordCycles(SimOp::kIdle, kInvalidFunction, 2000);
  ctx.Read(1, 0x2000, 128);
  ctx.LockAcquire(lock, 2);  // lock-word access, then the sync op
  ctx.Compute(2, 20);
  ctx.LockRelease(lock, 2);
  ctx.Compute(3, 15);
  EXPECT_EQ(kinds(), (std::vector<int>{SimOp::kFfRun, SimOp::kLockAcquire, SimOp::kFfRun,
                                       SimOp::kLockRelease, SimOp::kFfRun}));
  EXPECT_EQ(rec.ops[0].addr, 4u);  // one-line read, two-line read, lock word
  EXPECT_EQ(rec.ops[4].addr, 0u);  // compute only
  EXPECT_EQ(payloads(), rec.lb);
  EXPECT_TRUE(rec.access.empty());

  // Inside a probe, compute and idle stay ops of their own: a run's probe
  // share is its payload less the base cost per access.
  rec.Reset(rec.lb);
  rec.ff = true;
  ctx.BeginLatencyProbe();
  ctx.Compute(1, 40);
  ctx.Read(1, 0x1000, 8);
  rec.RecordCycles(SimOp::kIdle, kInvalidFunction, 2000);
  ctx.Read(1, 0x1040, 8);
  RunningStat stat;
  ctx.EndLatencyProbe(&stat, 1.0);
  ctx.Compute(1, 30);
  EXPECT_EQ(kinds(), (std::vector<int>{SimOp::kProbeBegin, SimOp::kCompute, SimOp::kFfRun,
                                       SimOp::kIdle, SimOp::kFfRun, SimOp::kProbeEnd,
                                       SimOp::kFfRun}));
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
    Engine engine(&machine, WithEpochCycles(5'000));
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
