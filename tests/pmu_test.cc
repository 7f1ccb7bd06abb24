#include <gtest/gtest.h>

#include <vector>

#include "src/machine/machine.h"
#include "src/pmu/debug_registers.h"
#include "src/pmu/ibs_unit.h"

namespace dprof {
namespace {

AccessEvent MakeEvent(int core, Addr addr, uint32_t size, bool write = false) {
  AccessEvent event;
  event.core = core;
  event.ip = 5;
  event.addr = addr;
  event.size = size;
  event.is_write = write;
  event.level = ServedBy::kL2;
  event.latency = 14;
  event.now = 1000;
  return event;
}

TEST(IbsUnitTest, DisabledTakesNoSamples) {
  IbsUnit ibs(2);
  int samples = 0;
  ibs.SetHandler([&](const IbsSample&) { ++samples; });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ibs.OnAccess(MakeEvent(0, 0x100, 8)), 0u);
  }
  EXPECT_EQ(samples, 0);
  EXPECT_EQ(ibs.samples_taken(), 0u);
}

TEST(IbsUnitTest, SamplingRateApproximatesPeriod) {
  IbsUnit ibs(1);
  ibs.SetPeriod(100);
  int samples = 0;
  ibs.SetHandler([&](const IbsSample&) { ++samples; });
  const int ops = 100000;
  for (int i = 0; i < ops; ++i) {
    ibs.OnAccess(MakeEvent(0, 0x100, 8));
  }
  EXPECT_NEAR(samples, ops / 100, ops / 100 / 5);
  EXPECT_EQ(ibs.samples_taken(), static_cast<uint64_t>(samples));
}

TEST(IbsUnitTest, SampleCarriesEventPayload) {
  IbsUnit ibs(2);
  ibs.SetPeriod(1);
  std::vector<IbsSample> samples;
  ibs.SetHandler([&](const IbsSample& s) { samples.push_back(s); });
  AccessEvent event = MakeEvent(1, 0xabc, 16, true);
  // Period 1 with jitter still fires within a couple of ops.
  for (int i = 0; i < 10 && samples.empty(); ++i) {
    ibs.OnAccess(event);
  }
  ASSERT_FALSE(samples.empty());
  const IbsSample& s = samples[0];
  EXPECT_EQ(s.core, 1);
  EXPECT_EQ(s.ip, 5u);
  EXPECT_EQ(s.vaddr, 0xabcu);
  EXPECT_EQ(s.size, 16u);
  EXPECT_TRUE(s.is_write);
  EXPECT_EQ(s.level, ServedBy::kL2);
  EXPECT_EQ(s.latency, 14u);
}

TEST(IbsUnitTest, InterruptCostCharged) {
  IbsUnit ibs(1);
  ibs.SetPeriod(1);
  uint64_t charged = 0;
  for (int i = 0; i < 10; ++i) {
    charged += ibs.OnAccess(MakeEvent(0, 0x100, 8));
  }
  EXPECT_EQ(charged, ibs.samples_taken() * 3200);
}

TEST(IbsUnitTest, PerCoreCountdownsIndependent) {
  IbsUnit ibs(2);
  ibs.SetPeriod(50);
  int samples = 0;
  ibs.SetHandler([&](const IbsSample&) { ++samples; });
  // Only core 0 executes; core 1 must not dilute core 0's rate.
  for (int i = 0; i < 5000; ++i) {
    ibs.OnAccess(MakeEvent(0, 0x100, 8));
  }
  EXPECT_NEAR(samples, 100, 30);
}

TEST(IbsUnitTest, SetPeriodReEnables) {
  IbsUnit ibs(1);
  EXPECT_FALSE(ibs.enabled());
  ibs.SetPeriod(10);
  EXPECT_TRUE(ibs.enabled());
  for (int i = 0; i < 100; ++i) {
    ibs.OnAccess(MakeEvent(0, 0x100, 8));
  }
  EXPECT_GT(ibs.samples_taken(), 0u);
  ibs.SetPeriod(0);
  const uint64_t before = ibs.samples_taken();
  for (int i = 0; i < 100; ++i) {
    ibs.OnAccess(MakeEvent(0, 0x100, 8));
  }
  EXPECT_EQ(ibs.samples_taken(), before);
}

TEST(DebugRegistersTest, ArmAndMatch) {
  DebugRegisterFile regs;
  std::vector<std::pair<Addr, int>> hits;
  regs.SetHandler([&](const AccessEvent& e, int r) { hits.push_back({e.addr, r}); });
  regs.Arm(0, 0x1000, 4);

  regs.OnAccess(MakeEvent(0, 0x1000, 4));        // exact
  regs.OnAccess(MakeEvent(0, 0x0ffc, 8));        // straddles start
  regs.OnAccess(MakeEvent(0, 0x1003, 1));        // last byte
  regs.OnAccess(MakeEvent(0, 0x1004, 4));        // adjacent, no overlap
  regs.OnAccess(MakeEvent(0, 0x0ff8, 4));        // before, no overlap
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(regs.hits(), 3u);
  for (const auto& [addr, reg] : hits) {
    EXPECT_EQ(reg, 0);
  }
}

TEST(DebugRegistersTest, InterruptCostPerHit) {
  DebugRegisterFile regs;
  regs.Arm(0, 0x1000, 8);
  EXPECT_EQ(regs.OnAccess(MakeEvent(0, 0x1000, 4)), DebugRegisterFile::kInterruptCycles);
  EXPECT_EQ(regs.OnAccess(MakeEvent(0, 0x2000, 4)), 0u);
}

TEST(DebugRegistersTest, TwoRegistersBothFire) {
  DebugRegisterFile regs;
  std::vector<int> fired;
  regs.SetHandler([&](const AccessEvent&, int r) { fired.push_back(r); });
  regs.Arm(0, 0x1000, 4);
  regs.Arm(1, 0x1008, 4);
  // A 16-byte access covering both windows triggers both registers.
  const uint64_t cost = regs.OnAccess(MakeEvent(0, 0x1000, 16));
  EXPECT_EQ(cost, 2 * DebugRegisterFile::kInterruptCycles);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 0);
  EXPECT_EQ(fired[1], 1);
}

TEST(DebugRegistersTest, DisarmStopsMatching) {
  DebugRegisterFile regs;
  regs.Arm(2, 0x500, 8);
  EXPECT_TRUE(regs.armed(2));
  regs.Disarm(2);
  EXPECT_FALSE(regs.armed(2));
  EXPECT_EQ(regs.OnAccess(MakeEvent(0, 0x500, 8)), 0u);
}

TEST(DebugRegistersTest, FreeRegisterScan) {
  DebugRegisterFile regs;
  EXPECT_EQ(regs.FreeRegister(), 0);
  regs.Arm(0, 0x1, 1);
  regs.Arm(1, 0x10, 1);
  EXPECT_EQ(regs.FreeRegister(), 2);
  regs.Arm(2, 0x20, 1);
  regs.Arm(3, 0x30, 1);
  EXPECT_EQ(regs.FreeRegister(), -1);
  regs.DisarmAll();
  EXPECT_EQ(regs.FreeRegister(), 0);
}

TEST(DebugRegistersTest, CostModelDefaultsMatchPaper) {
  // Paper §6.3/§6.4: ~1,000 cycles per watchpoint interrupt, ~130,000 on the
  // initiating core for cross-core setup, ~220,000 total setup.
  EXPECT_EQ(DebugRegisterFile::kInterruptCycles, 1000u);
  EXPECT_EQ(DebugRegisterFile::kSetupInitiatorCycles, 130000u);
  EXPECT_EQ(DebugRegisterFile::kSetupInitiatorCycles + 15 * DebugRegisterFile::kSetupIpiCycles,
            220000u);
}

}  // namespace
}  // namespace dprof
