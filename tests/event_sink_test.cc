// The engine's PMU sink contract. The commit pass consults PMU hooks
// through QuietOps/OnQuietAccessBatch/AccessFilter; the tests here pin that
// the batched paths make exactly the sampling decisions per-op dispatch
// makes, and that observers, a direct-loop feature, cannot ride the engine.

#include <gtest/gtest.h>

#include <vector>

#include "src/machine/engine.h"
#include "src/pmu/debug_registers.h"
#include "src/pmu/ibs_unit.h"

namespace dprof {
namespace {

// Observers see every operation; the engine serves PMU hooks only and
// refuses to run with one attached instead of starving it.
TEST(EventSinkDeathTest, EngineRejectsAttachedObserver) {
  struct Counter final : MachineObserver {
    void OnAccess(const AccessEvent&) override {}
    void OnCompute(int, FunctionId, uint64_t, uint64_t) override {}
  };
  struct Reader final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      ctx.Read(1, 0x100000, 8);
      return true;
    }
  };
  EXPECT_DEATH(
      {
        MachineConfig config;
        config.hierarchy.num_cores = 2;
        Machine machine(config);
        Reader driver;
        machine.SetDriver(0, &driver);
        machine.SetDriver(1, &driver);
        Counter counter;
        machine.AddObserver(&counter);
        EngineConfig engine_config;
        engine_config.epoch_cycles = 10'000;
        Engine engine(&machine, engine_config);
        machine.SetExecutor(&engine);
        machine.RunFor(50'000);
      },
      "observers_.empty");
}

// Fast-forward epochs keep the counting hooks frozen, so IBS accounts
// exactly the measured-window accesses. The watchpoint's handler disarms it
// on its first hit, inside a fast-forward epoch; the epoch's later accesses
// to the watched line were recorded as real accesses (the filter window is
// snapshotted at epoch start) but match no live filter after the resync,
// and must still not reach IBS.
TEST(EventSinkTest, CountingHooksStayFrozenInFastForwardEpochs) {
  constexpr Addr kWatched = 0x200000;
  // Touches the watched line only from cycle 40k on: after period 0's
  // detailed window [0, 20k), inside the first fast-forward stretch.
  struct Streamer final : CoreDriver {
    uint64_t i = 0;
    bool Step(CoreContext& ctx) override {
      if (ctx.now() >= 40'000) {
        ctx.Read(1, kWatched, 8);
      }
      ctx.Write(2, 0x400000 + (i++ % 512) * 64, 8);
      ctx.Compute(3, 50);
      return true;
    }
  };
  // IBS with its accounting exposed: every access it is told about, one by
  // one or in quiet batches.
  struct CountingIbs final : PmuHook {
    CountingIbs(int cores, uint64_t period_ops) : ibs(cores) { ibs.SetPeriod(period_ops); }
    uint64_t OnAccess(const AccessEvent& event) override {
      ++accounted;
      return ibs.OnAccess(event);
    }
    uint64_t QuietOps(int core) const override { return ibs.QuietOps(core); }
    void OnQuietAccessBatch(int core, uint64_t count) override {
      accounted += count;
      ibs.OnQuietAccessBatch(core, count);
    }
    IbsUnit ibs;
    uint64_t accounted = 0;
  };
  MachineConfig config;
  config.hierarchy.num_cores = 2;
  Machine machine(config);
  Streamer drivers[2];
  machine.SetDriver(0, &drivers[0]);
  machine.SetDriver(1, &drivers[1]);
  CountingIbs ibs(2, 64);
  DebugRegisterFile regs;
  regs.SetHandler([&regs](const AccessEvent&, int reg) { regs.Disarm(reg); });
  regs.Arm(0, kWatched, 8);
  machine.AddPmuHook(&ibs);
  machine.AddPmuHook(&regs);
  EngineConfig engine_config;
  engine_config.epoch_cycles = 10'000;
  engine_config.sampling.enabled = true;
  engine_config.sampling.period_cycles = 200'000;
  engine_config.sampling.window_cycles = 20'000;
  Engine engine(&machine, engine_config);
  machine.SetExecutor(&engine);
  machine.RunFor(600'000);

  const SamplingController& sampler = *engine.sampler();
  ASSERT_GT(sampler.ff_epochs(), 0u);
  ASSERT_EQ(regs.hits(), 1u);
  EXPECT_GT(ibs.ibs.samples_taken(), 0u);
  EXPECT_EQ(ibs.accounted, sampler.measured_accesses());
}

TEST(EventSinkTest, IbsQuietSkipMatchesPerOpCountdown) {
  // Feeding one unit per-op and its twin through QuietOps/OnQuietAccessBatch
  // chunks must sample the same ops and charge the same cycles.
  IbsUnit per_op(1);
  per_op.SetPeriod(50);
  IbsUnit batched(1);
  batched.SetPeriod(50);
  std::vector<int> fired_per_op;
  std::vector<int> fired_batched;
  per_op.SetHandler([&](const IbsSample& s) { fired_per_op.push_back(static_cast<int>(s.now)); });
  batched.SetHandler(
      [&](const IbsSample& s) { fired_batched.push_back(static_cast<int>(s.now)); });

  AccessEvent event;
  event.core = 0;
  event.size = 8;
  uint64_t charged_per_op = 0;
  uint64_t charged_batched = 0;
  int op = 0;
  const int kOps = 20'000;
  while (op < kOps) {
    event.now = static_cast<uint64_t>(op);
    charged_per_op += per_op.OnAccess(event);
    ++op;
  }
  op = 0;
  while (op < kOps) {
    const uint64_t quiet = batched.QuietOps(0);
    if (quiet > 0) {
      const uint64_t chunk = std::min<uint64_t>(quiet, static_cast<uint64_t>(kOps - op));
      batched.OnQuietAccessBatch(0, chunk);
      op += static_cast<int>(chunk);
      if (op >= kOps) {
        break;
      }
    }
    event.now = static_cast<uint64_t>(op);
    charged_batched += batched.OnAccess(event);
    ++op;
  }
  EXPECT_EQ(per_op.samples_taken(), batched.samples_taken());
  EXPECT_EQ(charged_per_op, charged_batched);
  EXPECT_EQ(fired_per_op, fired_batched);  // identical sample positions
}

TEST(EventSinkTest, DebugRegisterFilterWindow) {
  DebugRegisterFile regs;
  Addr lo = 0;
  Addr hi = 0;
  EXPECT_FALSE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(regs.QuietOps(0), PmuHook::kQuietUnbounded);

  regs.Arm(0, 0x1000, 4);
  regs.Arm(1, 0x2000, 8);
  ASSERT_TRUE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(lo, 0x1000u);
  EXPECT_EQ(hi, 0x2008u);
  EXPECT_EQ(regs.QuietOps(0), 0u);

  regs.Disarm(1);
  ASSERT_TRUE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(lo, 0x1000u);
  EXPECT_EQ(hi, 0x1004u);

  regs.DisarmAll();
  EXPECT_FALSE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(regs.QuietOps(0), PmuHook::kQuietUnbounded);
}

}  // namespace
}  // namespace dprof
