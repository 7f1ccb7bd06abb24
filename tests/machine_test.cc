#include <gtest/gtest.h>

#include <vector>

#include "src/machine/machine.h"

namespace dprof {
namespace {

MachineConfig SmallMachine(int cores = 2) {
  MachineConfig config;
  config.hierarchy.num_cores = cores;
  config.hierarchy.l1 = CacheGeometry{1024, 64, 2};
  config.hierarchy.l2 = CacheGeometry{4096, 64, 4};
  config.hierarchy.l3 = CacheGeometry{16384, 64, 8};
  return config;
}

class CountingDriver : public CoreDriver {
 public:
  explicit CountingDriver(uint64_t work_cycles = 100) : work_cycles_(work_cycles) {}
  bool Step(CoreContext& ctx) override {
    ++steps;
    ctx.Compute(0, work_cycles_);
    return true;
  }
  uint64_t steps = 0;

 private:
  uint64_t work_cycles_;
};

class IdleDriver : public CoreDriver {
 public:
  bool Step(CoreContext&) override {
    ++steps;
    return false;
  }
  uint64_t steps = 0;
};

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable sym;
  const FunctionId a = sym.Intern("foo");
  const FunctionId b = sym.Intern("foo");
  const FunctionId c = sym.Intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(sym.Name(a), "foo");
  EXPECT_EQ(sym.Name(c), "bar");
  EXPECT_EQ(sym.Name(999), "?");
  EXPECT_EQ(sym.size(), 2u);
}

TEST(MachineTest, MinClockSchedulingBalancesCores) {
  Machine machine(SmallMachine(2));
  CountingDriver fast(100);
  CountingDriver slow(300);
  machine.SetDriver(0, &fast);
  machine.SetDriver(1, &slow);
  machine.RunFor(30000);
  // The fast driver should have stepped roughly 3x as often.
  EXPECT_NEAR(static_cast<double>(fast.steps) / static_cast<double>(slow.steps), 3.0, 0.3);
}

TEST(MachineTest, IdleDriverAdvancesByIdleCycles) {
  Machine machine(SmallMachine(1));
  IdleDriver idle;
  machine.SetDriver(0, &idle);
  machine.RunSteps(10);
  EXPECT_EQ(machine.CoreClock(0), 10 * Machine::kIdleCycles);
  EXPECT_EQ(idle.steps, 10u);
}

TEST(MachineTest, NullDriverIdles) {
  Machine machine(SmallMachine(1));
  machine.RunSteps(3);
  EXPECT_EQ(machine.CoreClock(0), 3 * Machine::kIdleCycles);
}

TEST(MachineTest, ComputeAdvancesClock) {
  Machine machine(SmallMachine(1));
  CoreContext ctx = machine.Context(0);
  ctx.Compute(0, 1234);
  EXPECT_EQ(machine.CoreClock(0), 1234u);
}

TEST(MachineTest, AccessChargesBaseCostPlusLatency) {
  Machine machine(SmallMachine(1));
  CoreContext ctx = machine.Context(0);
  const AccessResult r = ctx.Read(0, 0x1000, 8);
  EXPECT_EQ(machine.CoreClock(0), Machine::kBaseOpCost + r.latency);
}

TEST(MachineTest, LargeAccessSplitsIntoLineOps) {
  Machine machine(SmallMachine(1));
  struct Recorder : MachineObserver {
    void OnAccess(const AccessEvent& event) override { events.push_back(event); }
    void OnCompute(int, FunctionId, uint64_t, uint64_t) override {}
    std::vector<AccessEvent> events;
  } recorder;
  machine.AddObserver(&recorder);
  CoreContext ctx = machine.Context(0);
  ctx.Write(7, 0x2000 + 32, 128);  // unaligned 128B -> 32 + 64 + 32
  ASSERT_EQ(recorder.events.size(), 3u);
  EXPECT_EQ(recorder.events[0].size, 32u);
  EXPECT_EQ(recorder.events[1].size, 64u);
  EXPECT_EQ(recorder.events[2].size, 32u);
  for (const AccessEvent& e : recorder.events) {
    EXPECT_EQ(e.ip, 7u);
    EXPECT_TRUE(e.is_write);
    EXPECT_LE(e.size, 64u);
  }
}

TEST(MachineTest, ObserverSeesComputeAndAccess) {
  Machine machine(SmallMachine(1));
  struct Recorder : MachineObserver {
    void OnAccess(const AccessEvent&) override { ++accesses; }
    void OnCompute(int, FunctionId, uint64_t cycles, uint64_t) override { compute += cycles; }
    int accesses = 0;
    uint64_t compute = 0;
  } recorder;
  machine.AddObserver(&recorder);
  CoreContext ctx = machine.Context(0);
  ctx.Read(0, 0x100, 8);
  ctx.Compute(0, 50);
  EXPECT_EQ(recorder.accesses, 1);
  EXPECT_EQ(recorder.compute, 50u);
  machine.RemoveObserver(&recorder);
  ctx.Compute(0, 50);
  EXPECT_EQ(recorder.compute, 50u);
}

TEST(MachineTest, PmuHookChargesExtraCycles) {
  Machine machine(SmallMachine(1));
  struct Hook : PmuHook {
    uint64_t OnAccess(const AccessEvent&) override { return 777; }
  } hook;
  machine.AddPmuHook(&hook);
  CoreContext ctx = machine.Context(0);
  const AccessResult r = ctx.Read(0, 0x100, 8);
  EXPECT_EQ(machine.CoreClock(0), Machine::kBaseOpCost + r.latency + 777);
  machine.RemovePmuHook(&hook);
  const uint64_t before = machine.CoreClock(0);
  const AccessResult r2 = ctx.Read(0, 0x100, 8);
  EXPECT_EQ(machine.CoreClock(0), before + Machine::kBaseOpCost + r2.latency);
}

TEST(MachineTest, ChargeCyclesIsDirect) {
  Machine machine(SmallMachine(2));
  machine.ChargeCycles(1, 9999);
  EXPECT_EQ(machine.CoreClock(1), 9999u);
  EXPECT_EQ(machine.CoreClock(0), 0u);
  EXPECT_EQ(machine.MinClock(), 0u);
  EXPECT_EQ(machine.MaxClock(), 9999u);
}

TEST(MachineTest, CoreRngsAreIndependentButDeterministic) {
  Machine a(SmallMachine(2));
  Machine b(SmallMachine(2));
  EXPECT_EQ(a.CoreRng(0).Next(), b.CoreRng(0).Next());
  Machine c(SmallMachine(2));
  EXPECT_NE(c.CoreRng(0).Next(), c.CoreRng(1).Next());
}

TEST(SimLockTest, UncontendedAcquireHasNoWait) {
  Machine machine(SmallMachine(1));
  struct Observer : LockObserver {
    void OnAcquire(const SimLock&, int, FunctionId, uint64_t wait, uint64_t) override {
      last_wait = wait;
    }
    void OnRelease(const SimLock&, int, FunctionId, uint64_t hold, uint64_t) override {
      last_hold = hold;
    }
    uint64_t last_wait = 99;
    uint64_t last_hold = 0;
  } obs;
  machine.SetLockObserver(&obs);
  SimLock lock("test lock", 0x100);
  CoreContext ctx = machine.Context(0);
  ctx.LockAcquire(lock, 0);
  ctx.Compute(0, 300);
  ctx.LockRelease(lock, 0);
  EXPECT_EQ(obs.last_wait, 0u);
  EXPECT_GE(obs.last_hold, 300u);
}

TEST(SimLockTest, ContendedAcquireWaits) {
  Machine machine(SmallMachine(2));
  struct Observer : LockObserver {
    void OnAcquire(const SimLock&, int core, FunctionId, uint64_t wait, uint64_t) override {
      waits.push_back({core, wait});
    }
    void OnRelease(const SimLock&, int, FunctionId, uint64_t, uint64_t) override {}
    std::vector<std::pair<int, uint64_t>> waits;
  } obs;
  machine.SetLockObserver(&obs);
  SimLock lock("test lock", 0x100);

  CoreContext c0 = machine.Context(0);
  c0.LockAcquire(lock, 0);
  c0.Compute(0, 1000);
  c0.LockRelease(lock, 0);
  const uint64_t release_time = machine.CoreClock(0);

  // Core 1's clock is still 0; it must wait until core 0 released.
  CoreContext c1 = machine.Context(1);
  c1.LockAcquire(lock, 0);
  ASSERT_EQ(obs.waits.size(), 2u);
  EXPECT_EQ(obs.waits[1].first, 1);
  EXPECT_EQ(obs.waits[1].second, release_time);
  EXPECT_GE(machine.CoreClock(1), release_time);
  c1.LockRelease(lock, 0);
}

TEST(SimLockTest, LockWordGeneratesCoherenceTraffic) {
  Machine machine(SmallMachine(2));
  SimLock lock("test lock", 0x100);
  CoreContext c0 = machine.Context(0);
  CoreContext c1 = machine.Context(1);
  c0.LockAcquire(lock, 0);
  c0.LockRelease(lock, 0);
  // Core 1 taking the lock must pull the line from core 0.
  EXPECT_EQ(machine.hierarchy().ProbeLevel(1, 0x100), ServedBy::kForeignCache);
  c1.LockAcquire(lock, 0);
  c1.LockRelease(lock, 0);
  EXPECT_EQ(machine.hierarchy().ProbeLevel(1, 0x100), ServedBy::kL1);
}

TEST(MachineTest, RunForReachesDeadline) {
  Machine machine(SmallMachine(2));
  CountingDriver d0(100);
  CountingDriver d1(100);
  machine.SetDriver(0, &d0);
  machine.SetDriver(1, &d1);
  machine.RunFor(10000);
  EXPECT_GE(machine.MinClock(), 10000u);
}

}  // namespace
}  // namespace dprof
