// End-to-end integration tests: DProf profiling sessions over the case-study
// workloads must reproduce the paper's qualitative findings.

#include <gtest/gtest.h>

#include <memory>

#include "src/dprof/session.h"
#include "src/workload/apache.h"
#include "src/workload/conflict_demo.h"
#include "src/workload/kernel.h"
#include "src/workload/memcached.h"

namespace dprof {
namespace {

struct Rig {
  explicit Rig(int cores, const HierarchyConfig& hierarchy = {}) {
    MachineConfig config;
    config.hierarchy = hierarchy;
    config.hierarchy.num_cores = cores;
    machine = std::make_unique<Machine>(config);
    allocator = std::make_unique<SlabAllocator>(machine.get(), &registry);
    machine->SetAllocator(allocator.get());
    env = std::make_unique<KernelEnv>(machine.get(), allocator.get());
  }

  TypeRegistry registry;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SlabAllocator> allocator;
  std::unique_ptr<KernelEnv> env;
};

TEST(SessionIntegrationTest, MemcachedDataProfileShape) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.rx_ring_entries = 64;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);

  DProfOptions options;
  options.ibs_period_ops = 60;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(12'000'000);

  const DataProfile profile = session.BuildDataProfile();
  ASSERT_GE(profile.rows().size(), 4u);
  // Paper Table 6.1: packet payload tops the chart and bounces.
  EXPECT_EQ(profile.rows()[0].name, "size-1024");
  EXPECT_TRUE(profile.rows()[0].bounce);
  EXPECT_GT(profile.rows()[0].miss_pct, 25.0);
  // skbuff present and bouncing.
  const DataProfileRow* skbuff = profile.Find(rig.registry.Find("skbuff"));
  ASSERT_NE(skbuff, nullptr);
  EXPECT_TRUE(skbuff->bounce);
  // Allocator metadata appears as its own types.
  EXPECT_NE(profile.Find(rig.allocator->array_cache_type()), nullptr);
  EXPECT_NE(profile.Find(rig.allocator->slab_type()), nullptr);
}

TEST(SessionIntegrationTest, MemcachedFixRemovesBouncing) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.local_queue_fix = true;
  mc.rx_ring_entries = 64;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);

  DProfOptions options;
  options.ibs_period_ops = 60;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(12'000'000);

  const DataProfile profile = session.BuildDataProfile();
  const DataProfileRow* payload = profile.Find(rig.registry.Find("size-1024"));
  ASSERT_NE(payload, nullptr);
  EXPECT_FALSE(payload->bounce);
  const DataProfileRow* skbuff = profile.Find(rig.registry.Find("skbuff"));
  ASSERT_NE(skbuff, nullptr);
  EXPECT_FALSE(skbuff->bounce);
}

TEST(SessionIntegrationTest, SkbuffDataFlowShowsQueueCpuChange) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.rx_ring_entries = 32;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);

  DProfOptions options;
  options.ibs_period_ops = 100;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(5'000'000);
  const TypeId skbuff = rig.registry.Find("skbuff");
  session.CollectHistories(skbuff, 6);

  const DataFlowGraph flow = session.BuildDataFlow(skbuff);
  const auto transitions = flow.CpuTransitions();
  ASSERT_FALSE(transitions.empty());
  // The paper's Figure 6-1 signal: a cross-CPU edge into the transmit-side
  // dequeue/DMA path.
  bool found_tx_transition = false;
  for (const DataFlowEdge& edge : transitions) {
    const std::string& to = flow.nodes()[edge.to].label;
    if (to == "pfifo_fast_dequeue()" || to == "dev_hard_start_xmit()" ||
        to == "skb_dma_map()" || to == "ixgbe_xmit_frame()" ||
        to == "__kfree_skb()" || to == "pfifo_fast_enqueue()") {
      found_tx_transition = true;
    }
  }
  EXPECT_TRUE(found_tx_transition);
}

TEST(SessionIntegrationTest, MemcachedPathTracesBounce) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.rx_ring_entries = 32;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);

  DProfOptions options;
  options.ibs_period_ops = 100;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(5'000'000);
  const TypeId skbuff = rig.registry.Find("skbuff");
  session.CollectHistories(skbuff, 6);

  const auto traces = session.BuildPathTraces(skbuff);
  ASSERT_FALSE(traces.empty());
  bool any_bounce = false;
  uint64_t total_freq = 0;
  for (const PathTrace& trace : traces) {
    any_bounce = any_bounce || trace.Bounces();
    total_freq += trace.frequency;
  }
  EXPECT_TRUE(any_bounce);
  EXPECT_GT(total_freq, 0u);
}

TEST(SessionIntegrationTest, ApacheDifferentialWorkingSet) {
  auto run = [](const ApacheConfig& config, double* ws, double* miss_pct) {
    Rig rig(4);
    ApacheWorkload workload(rig.env.get(), config);
    workload.Install(*rig.machine);
    DProfOptions options;
    options.ibs_period_ops = 80;
    DProfSession session(rig.machine.get(), rig.allocator.get(), options);
    rig.machine->RunFor(8'000'000);
    session.CollectAccessSamples(10'000'000);
    const DataProfile profile = session.BuildDataProfile();
    const DataProfileRow* row = profile.Find(rig.registry.Find("tcp_sock"));
    ASSERT_NE(row, nullptr);
    *ws = row->working_set_bytes;
    *miss_pct = row->miss_pct;
  };
  double peak_ws = 0, peak_miss = 0, drop_ws = 0, drop_miss = 0;
  run(ApacheConfig::Peak(), &peak_ws, &peak_miss);
  run(ApacheConfig::DropOff(), &drop_ws, &drop_miss);
  // Paper Tables 6.4/6.5: the tcp_sock working set explodes at drop-off and
  // its miss share grows.
  EXPECT_GT(drop_ws, 4.0 * peak_ws);
  EXPECT_GT(drop_miss, peak_miss);
}

TEST(SessionIntegrationTest, MissClassificationMemcachedInvalidation) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.rx_ring_entries = 32;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);
  DProfOptions options;
  options.ibs_period_ops = 80;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(10'000'000);

  const auto rows = session.ClassifyMisses();
  // The shared net_device must classify as invalidation-dominated.
  bool found = false;
  for (const MissClassRow& row : rows) {
    if (row.name == "net_device") {
      EXPECT_EQ(row.dominant, MissKind::kInvalidation);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SessionIntegrationTest, MissClassificationConflictDemo) {
  Rig rig(4);
  ConflictDemoWorkload workload(rig.env.get());
  workload.Install(*rig.machine);
  DProfOptions options;
  options.ibs_period_ops = 80;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(8'000'000);

  const WorkingSetView ws = session.BuildWorkingSet();
  EXPECT_FALSE(ws.conflicted_sets().empty());
  // pkt_stat's lines should sit in the conflicted sets.
  EXPECT_GT(ws.ConflictedFraction(workload.hot_type()), 0.5);
}

// The working-set and miss-classification views model the profiled
// machine's own private L2: on a 64 KB, 8-way L2 the session's views match
// ones built directly for that cache.
TEST(SessionIntegrationTest, ViewsModelTheMachinesL2) {
  HierarchyConfig hierarchy;
  hierarchy.l2 = CacheGeometry{64 * 1024, 64, 8};
  Rig rig(4, hierarchy);
  ConflictDemoWorkload workload(rig.env.get());
  workload.Install(*rig.machine);
  DProfOptions options;
  options.ibs_period_ops = 80;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  session.CollectAccessSamples(4'000'000);

  const WorkingSetView ws = session.BuildWorkingSet();
  const CacheGeometry& l2 = hierarchy.l2;
  const uint64_t now = session.last_profile_end();
  const WorkingSetView expected =
      WorkingSetView::Build(rig.registry, session.addresses(), session.samples(), now, l2);
  EXPECT_EQ(ws.capacity_lines(), 1024.0);  // 128 sets x 8 ways
  EXPECT_EQ(ws.capacity_lines(), expected.capacity_lines());
  ASSERT_FALSE(expected.conflicted_sets().empty());
  ASSERT_EQ(ws.conflicted_sets().size(), expected.conflicted_sets().size());
  for (size_t i = 0; i < expected.conflicted_sets().size(); ++i) {
    EXPECT_EQ(ws.conflicted_sets()[i].set, expected.conflicted_sets()[i].set);
    EXPECT_EQ(ws.conflicted_sets()[i].distinct_lines, expected.conflicted_sets()[i].distinct_lines);
  }

  const auto rows = session.ClassifyMisses();
  const auto expected_rows = MissClassifier::Build(rig.registry, session.samples(), expected, {});
  ASSERT_EQ(rows.size(), expected_rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, expected_rows[i].name);
    EXPECT_EQ(rows[i].dominant, expected_rows[i].dominant);
    EXPECT_EQ(rows[i].conflict_pct, expected_rows[i].conflict_pct);
    EXPECT_EQ(rows[i].capacity_pct, expected_rows[i].capacity_pct);
  }
}

TEST(SessionIntegrationTest, IbsOverheadSlowsThroughput) {
  auto measure = [](uint64_t period) {
    Rig rig(4);
    MemcachedConfig mc;
    mc.rx_ring_entries = 32;
    MemcachedWorkload workload(rig.env.get(), mc);
    workload.Install(*rig.machine);
    DProfOptions options;
    options.ibs_period_ops = period;
    DProfSession session(rig.machine.get(), rig.allocator.get(), options);
    rig.machine->RunFor(1'000'000);
    workload.ResetStats();
    const uint64_t start = rig.machine->MaxClock();
    if (period == 0) {
      rig.machine->RunFor(8'000'000);
    } else {
      session.CollectAccessSamples(8'000'000);
    }
    return ThroughputRps(workload.CompletedRequests(), rig.machine->MaxClock() - start);
  };
  const double baseline = measure(0);
  const double heavy = measure(25);  // very aggressive sampling
  EXPECT_LT(heavy, baseline);
}

TEST(SessionIntegrationTest, HistoryOverheadAccountedPerType) {
  Rig rig(4);
  MemcachedConfig mc;
  mc.rx_ring_entries = 32;
  MemcachedWorkload workload(rig.env.get(), mc);
  workload.Install(*rig.machine);
  DProfOptions options;
  DProfSession session(rig.machine.get(), rig.allocator.get(), options);
  const TypeId skbuff = rig.registry.Find("skbuff");
  const uint64_t elapsed = session.CollectHistories(skbuff, 2);
  EXPECT_GT(elapsed, 0u);
  const HistoryOverhead& overhead = session.history_overhead(skbuff);
  EXPECT_GT(overhead.objects_profiled, 0u);
  EXPECT_GT(overhead.comm_cycles, 0u);
  EXPECT_GT(overhead.Total(), 0u);
  EXPECT_EQ(session.histories(skbuff).size(), overhead.objects_profiled);
}

}  // namespace
}  // namespace dprof
