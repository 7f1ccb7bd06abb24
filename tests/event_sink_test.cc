// Batch/virtual equivalence of the engine's fused event sink.
//
// The commit pass delivers observer events through the span-based
// OnAccessBatch/OnComputeBatch entry points and consults PMU hooks through
// the QuietOps/OnQuietAccessBatch/AccessFilter contract. Every test here
// pins the core guarantee: the batched paths produce exactly the event
// stream and sampling decisions that per-op virtual dispatch produces.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/machine/engine.h"
#include "src/pmu/debug_registers.h"
#include "src/pmu/ibs_unit.h"
#include "src/profilers/code_profiler.h"
#include "src/workload/memcached.h"

namespace dprof {
namespace {

using Recorded = std::tuple<int, FunctionId, Addr, uint32_t, bool, uint32_t, uint64_t, bool>;

Recorded Key(const AccessEvent& e) {
  return {e.core, e.ip, e.addr, e.size, e.is_write, e.latency, e.now, false};
}

// Receives events through the default batch implementations, i.e. via the
// per-event virtuals.
struct VirtualRecorder : MachineObserver {
  void OnAccess(const AccessEvent& event) override { stream.push_back(Key(event)); }
  void OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) override {
    stream.push_back({core, ip, 0, 0, false, static_cast<uint32_t>(cycles), now, true});
  }
  std::vector<Recorded> stream;
};

// Consumes whole spans; must observe the identical stream.
struct BatchRecorder final : VirtualRecorder {
  void OnAccessBatch(const AccessEvent* events, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      stream.push_back(Key(events[i]));
    }
  }
  void OnComputeBatch(const ComputeEvent* events, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      stream.push_back({events[i].core, events[i].ip, 0, 0, false,
                        static_cast<uint32_t>(events[i].cycles), events[i].now, true});
    }
  }
};

struct MixedDriver final : CoreDriver {
  explicit MixedDriver(SimLock* lock) : lock(lock) {}
  bool Step(CoreContext& ctx) override {
    const Addr base = 0x100000 + static_cast<Addr>(ctx.core()) * 0x40000;
    ctx.Read(1, base + (steps % 128) * 64, 32);
    ctx.Compute(2, 40);
    ctx.Write(3, 0x900000 + (steps % 8) * 64, 8);  // shared, bounces
    if (steps % 5 == 0 && lock != nullptr) {
      ctx.LockAcquire(*lock, 4);
      ctx.Compute(4, 25);
      ctx.LockRelease(*lock, 4);
    }
    ++steps;
    return true;
  }
  SimLock* lock;
  uint64_t steps = 0;
};

TEST(EventSinkTest, BatchedDeliveryMatchesPerOpVirtualDispatch) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  SimLock lock("sink lock", 0xa000);
  std::vector<MixedDriver> drivers(4, MixedDriver(&lock));
  for (int c = 0; c < 4; ++c) {
    machine.SetDriver(c, &drivers[c]);
  }
  VirtualRecorder virtual_obs;
  BatchRecorder batch_obs;
  machine.AddObserver(&virtual_obs);
  machine.AddObserver(&batch_obs);
  // An enabled IBS unit forces mid-segment dispatch points, so spans split
  // and single sampled events interleave with batches.
  IbsConfig ibs_config;
  ibs_config.period_ops = 64;
  IbsUnit ibs(4, ibs_config);
  machine.AddPmuHook(&ibs);

  Engine engine(&machine, EngineConfig{1, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(200'000);

  ASSERT_FALSE(virtual_obs.stream.empty());
  EXPECT_GT(ibs.samples_taken(), 0u);
  EXPECT_EQ(virtual_obs.stream, batch_obs.stream);
}

// With no PMU hook attached, a lone batch observer still receives the
// committed stream, delivered before RunFor returns.
TEST(EventSinkTest, BatchObserverAloneReceivesStream) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  SimLock lock("sink lock", 0xa000);
  std::vector<MixedDriver> drivers(4, MixedDriver(&lock));
  for (int c = 0; c < 4; ++c) {
    machine.SetDriver(c, &drivers[c]);
  }
  BatchRecorder batch_obs;
  machine.AddObserver(&batch_obs);
  Engine engine(&machine, EngineConfig{1, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(200'000);
  ASSERT_FALSE(batch_obs.stream.empty());
}

TEST(EventSinkTest, CodeProfilerBatchMatchesVirtualAccounting) {
  // CodeProfiler overrides the batch entry points; a plain forwarding
  // observer goes through the default per-event loop. Their reports must
  // agree exactly.
  struct Forwarder final : MachineObserver {
    explicit Forwarder(CodeProfiler* p) : p(p) {}
    void OnAccess(const AccessEvent& event) override { p->OnAccess(event); }
    void OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) override {
      p->OnCompute(core, ip, cycles, now);
    }
    CodeProfiler* p;
  };
  MachineConfig config;
  config.hierarchy.num_cores = 2;
  Machine machine(config);
  std::vector<MixedDriver> drivers(2, MixedDriver(nullptr));
  machine.SetDriver(0, &drivers[0]);
  machine.SetDriver(1, &drivers[1]);
  CodeProfiler batched;
  CodeProfiler virtual_only;
  Forwarder forwarder(&virtual_only);
  machine.AddObserver(&batched);
  machine.AddObserver(&forwarder);
  Engine engine(&machine, EngineConfig{1, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(150'000);

  EXPECT_GT(batched.total_cycles(), 0u);
  EXPECT_EQ(batched.total_cycles(), virtual_only.total_cycles());
  EXPECT_EQ(batched.total_l2_misses(), virtual_only.total_l2_misses());
  const auto rows_b = batched.Report(machine.symbols(), 0.0);
  const auto rows_v = virtual_only.Report(machine.symbols(), 0.0);
  ASSERT_EQ(rows_b.size(), rows_v.size());
  for (size_t i = 0; i < rows_b.size(); ++i) {
    EXPECT_EQ(rows_b[i].fn, rows_v[i].fn);
    EXPECT_EQ(rows_b[i].cycles, rows_v[i].cycles);
    EXPECT_EQ(rows_b[i].l2_misses, rows_v[i].l2_misses);
  }
}

TEST(EventSinkTest, IbsQuietSkipMatchesPerOpCountdown) {
  // Feeding one unit per-op and its twin through QuietOps/OnQuietAccessBatch
  // chunks must sample the same ops and charge the same cycles.
  IbsConfig config;
  config.period_ops = 50;
  IbsUnit per_op(1, config);
  IbsUnit batched(1, config);
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
