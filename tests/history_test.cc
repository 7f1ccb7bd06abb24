#include <gtest/gtest.h>

#include "src/dprof/history.h"
#include "src/machine/machine.h"

namespace dprof {
namespace {

// A tiny driver that allocates an object, touches some offsets, frees it,
// then computes past the collector's 150k-cycle pacing between watched
// objects. The collector also skips a seeded number (0-7) of allocations
// after each arming; the test loops allocate until the sweep is done.
class TouchDriver : public CoreDriver {
 public:
  TouchDriver(TypeId type, FunctionId fn_alloc, FunctionId fn_touch) // NOLINT
      : type_(type), fn_alloc_(fn_alloc), fn_touch_(fn_touch) {}

  bool Step(CoreContext& ctx) override {
    const Addr obj = ctx.Alloc(type_, fn_alloc_);
    ctx.Write(fn_touch_, obj, 4);       // offset 0
    ctx.Read(fn_touch_, obj + 8, 4);    // offset 8
    ctx.Write(fn_touch_, obj + 12, 4);  // offset 12
    ctx.Compute(fn_touch_, 50);
    ctx.Free(obj, fn_alloc_);
    ctx.Compute(fn_touch_, 200'000);
    ++iterations;
    return true;
  }
  uint64_t iterations = 0;

 private:
  TypeId type_;
  FunctionId fn_alloc_;
  FunctionId fn_touch_;
};

struct HistoryFixture : ::testing::Test {
  HistoryFixture() : machine(MakeConfig()), allocator(&machine, &registry) {
    machine.SetAllocator(&allocator);
    type = registry.Register("obj16", 16);
    fn_alloc = machine.symbols().Intern("alloc_fn");
    fn_touch = machine.symbols().Intern("touch_fn");
    machine.AddPmuHook(&regs);
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    return config;
  }

  HistoryCollectorOptions Options(uint32_t sets, bool pair = false) {
    HistoryCollectorOptions options;
    options.max_sets = sets;
    options.pair_mode = pair;
    return options;
  }

  Machine machine;
  TypeRegistry registry;
  SlabAllocator allocator;
  DebugRegisterFile regs;
  TypeId type = kInvalidType;
  FunctionId fn_alloc = kInvalidFunction;
  FunctionId fn_touch = kInvalidFunction;
};

TEST_F(HistoryFixture, SingleModeSweepsAllOffsets) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(2));
  EXPECT_EQ(collector.histories_per_set(), 4u);  // 16 bytes / 4-byte windows
  allocator.AddObserver(&collector);
  TouchDriver driver(type, fn_alloc, fn_touch);
  machine.SetDriver(0, &driver);
  while (!collector.done() && driver.iterations < 100) {
    machine.RunSteps(1);
  }
  collector.Stop();
  allocator.RemoveObserver(&collector);

  EXPECT_EQ(collector.sets_completed(), 2u);
  ASSERT_EQ(collector.histories().size(), 8u);  // 2 sets * 4 offsets
  // Offsets cycle 0,4,8,12, 0,4,8,12.
  EXPECT_EQ(collector.histories()[0].watch_offsets[0], 0u);
  EXPECT_EQ(collector.histories()[1].watch_offsets[0], 4u);
  EXPECT_EQ(collector.histories()[2].watch_offsets[0], 8u);
  EXPECT_EQ(collector.histories()[3].watch_offsets[0], 12u);
  EXPECT_EQ(collector.histories()[4].sweep, 1u);
  // Arming skipped some allocations and kept 150k cycles between objects.
  EXPECT_GT(driver.iterations, collector.histories().size());
  for (size_t i = 1; i < collector.histories().size(); ++i) {
    EXPECT_GE(collector.histories()[i].alloc_time - collector.histories()[i - 1].alloc_time,
              150'000u);
  }
}

TEST_F(HistoryFixture, ElementsRecordTouchedOffsetsOnly) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1));
  allocator.AddObserver(&collector);
  TouchDriver driver(type, fn_alloc, fn_touch);
  machine.SetDriver(0, &driver);
  while (!collector.done() && driver.iterations < 100) {
    machine.RunSteps(1);
  }
  collector.Stop();
  allocator.RemoveObserver(&collector);

  // Offset 0: one write. Offset 4: never touched. Offset 8: one read.
  const auto& histories = collector.histories();
  ASSERT_EQ(histories.size(), 4u);
  ASSERT_EQ(histories[0].elements.size(), 1u);
  EXPECT_TRUE(histories[0].elements[0].is_write);
  EXPECT_EQ(histories[0].elements[0].ip, fn_touch);
  EXPECT_TRUE(histories[1].elements.empty());
  ASSERT_EQ(histories[2].elements.size(), 1u);
  EXPECT_FALSE(histories[2].elements[0].is_write);
  ASSERT_EQ(histories[3].elements.size(), 1u);
  EXPECT_TRUE(histories[3].complete);
  // end_time anchors at the free.
  EXPECT_GT(histories[0].end_time, 0u);
  EXPECT_GE(histories[0].end_time, histories[0].elements.back().time);
}

TEST_F(HistoryFixture, PairModeCoversAllPairs) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1, true));
  EXPECT_EQ(collector.histories_per_set(), 6u);  // C(4,2)
  allocator.AddObserver(&collector);
  TouchDriver driver(type, fn_alloc, fn_touch);
  machine.SetDriver(0, &driver);
  while (!collector.done() && driver.iterations < 200) {
    machine.RunSteps(1);
  }
  collector.Stop();
  allocator.RemoveObserver(&collector);

  ASSERT_EQ(collector.histories().size(), 6u);
  // First pair is (0,4); a pair history watching (0,12) sees both touches
  // in true order.
  EXPECT_EQ(collector.histories()[0].watch_offsets[0], 0u);
  EXPECT_EQ(collector.histories()[0].watch_offsets[1], 4u);
  bool found_0_12 = false;
  for (const ObjectHistory& h : collector.histories()) {
    if (h.watch_offsets[0] == 0 && h.watch_offsets[1] == 12) {
      found_0_12 = true;
      ASSERT_EQ(h.elements.size(), 2u);
      EXPECT_EQ(h.elements[0].offset, 0u);
      EXPECT_EQ(h.elements[1].offset, 12u);
      EXPECT_LE(h.elements[0].time, h.elements[1].time);
    }
  }
  EXPECT_TRUE(found_0_12);
}

TEST_F(HistoryFixture, OverheadAccounting) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1));
  allocator.AddObserver(&collector);
  TouchDriver driver(type, fn_alloc, fn_touch);
  machine.SetDriver(0, &driver);
  while (!collector.done() && driver.iterations < 100) {
    machine.RunSteps(1);
  }
  collector.Stop();
  allocator.RemoveObserver(&collector);

  const HistoryOverhead& overhead = collector.overhead();
  EXPECT_EQ(overhead.objects_profiled, 4u);
  EXPECT_EQ(overhead.reserve_cycles, 4 * DebugRegisterFile::kReserveCycles);
  // 2-core machine: initiator + 1 IPI per object.
  EXPECT_EQ(overhead.comm_cycles,
            4 * (DebugRegisterFile::kSetupInitiatorCycles + DebugRegisterFile::kSetupIpiCycles));
  EXPECT_EQ(overhead.interrupt_cycles,
            overhead.elements_recorded * DebugRegisterFile::kInterruptCycles);
  EXPECT_EQ(overhead.elements_recorded, 3u);  // offsets 0, 8, 12 touched once each
}

TEST_F(HistoryFixture, MemberOffsetsRestrictSweep) {
  HistoryCollectorOptions options = Options(1);
  options.member_offsets = {0, 12};
  HistoryCollector collector(&machine, &regs, type, 16, options);
  EXPECT_EQ(collector.histories_per_set(), 2u);
  allocator.AddObserver(&collector);
  TouchDriver driver(type, fn_alloc, fn_touch);
  machine.SetDriver(0, &driver);
  while (!collector.done() && driver.iterations < 100) {
    machine.RunSteps(1);
  }
  collector.Stop();
  allocator.RemoveObserver(&collector);
  ASSERT_EQ(collector.histories().size(), 2u);
  EXPECT_EQ(collector.histories()[0].watch_offsets[0], 0u);
  EXPECT_EQ(collector.histories()[1].watch_offsets[0], 12u);
}

TEST_F(HistoryFixture, SetupChargesCores) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1));
  allocator.AddObserver(&collector);
  const uint64_t clock0_before = machine.CoreClock(0);
  const uint64_t clock1_before = machine.CoreClock(1);
  CoreContext ctx = machine.Context(0);
  const Addr obj = ctx.Alloc(type, fn_alloc);  // arming happens here
  collector.Stop();
  allocator.RemoveObserver(&collector);
  // Core 0 (initiator) pays reserve + initiator; core 1 pays the IPI.
  EXPECT_GE(machine.CoreClock(0) - clock0_before,
            DebugRegisterFile::kReserveCycles + DebugRegisterFile::kSetupInitiatorCycles);
  EXPECT_GE(machine.CoreClock(1) - clock1_before, DebugRegisterFile::kSetupIpiCycles);
  (void)obj;
}

TEST_F(HistoryFixture, StopAbandonsInFlightMonitoring) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1));
  allocator.AddObserver(&collector);
  CoreContext ctx = machine.Context(0);
  const Addr obj = ctx.Alloc(type, fn_alloc);
  ctx.Write(fn_touch, obj, 4);
  collector.Stop();
  allocator.RemoveObserver(&collector);
  ASSERT_EQ(collector.histories().size(), 1u);
  EXPECT_FALSE(collector.histories()[0].complete);
  EXPECT_EQ(collector.histories()[0].elements.size(), 1u);
  EXPECT_FALSE(regs.armed(0));
}

TEST_F(HistoryFixture, RecordsCpuOfAccessingCore) {
  HistoryCollector collector(&machine, &regs, type, 16, Options(1));
  allocator.AddObserver(&collector);
  CoreContext c0 = machine.Context(0);
  CoreContext c1 = machine.Context(1);
  const Addr obj = c0.Alloc(type, fn_alloc);
  c0.Write(fn_touch, obj, 4);
  c1.Read(fn_touch, obj, 4);
  c0.Free(obj, fn_alloc);
  collector.Stop();
  allocator.RemoveObserver(&collector);
  ASSERT_EQ(collector.histories().size(), 1u);
  const auto& elems = collector.histories()[0].elements;
  ASSERT_EQ(elems.size(), 2u);
  EXPECT_EQ(elems[0].cpu, 0u);
  EXPECT_EQ(elems[1].cpu, 1u);
}

}  // namespace
}  // namespace dprof
