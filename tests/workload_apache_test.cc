#include <gtest/gtest.h>

#include <memory>

#include "src/workload/apache.h"
#include "src/workload/kernel.h"

namespace dprof {
namespace {

struct ApacheFixture {
  explicit ApacheFixture(const ApacheConfig& config, int cores = 4) {
    MachineConfig machine_config;
    machine_config.hierarchy.num_cores = cores;
    machine = std::make_unique<Machine>(machine_config);
    allocator = std::make_unique<SlabAllocator>(machine.get(), &registry);
    machine->SetAllocator(allocator.get());
    env = std::make_unique<KernelEnv>(machine.get(), allocator.get());
    workload = std::make_unique<ApacheWorkload>(env.get(), config);
    workload->Install(*machine);
  }

  void WarmAndMeasure(uint64_t warm, uint64_t measure) {
    machine->RunFor(warm);
    workload->ResetStats();
    start = machine->MaxClock();
    machine->RunFor(measure);
    elapsed = machine->MaxClock() - start;
  }

  double Throughput() const {
    return ThroughputRps(workload->CompletedRequests(), elapsed);
  }

  TypeRegistry registry;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SlabAllocator> allocator;
  std::unique_ptr<KernelEnv> env;
  std::unique_ptr<ApacheWorkload> workload;
  uint64_t start = 0;
  uint64_t elapsed = 0;
};

TEST(ApacheWorkloadTest, ServesRequestsAtPeak) {
  ApacheFixture f(ApacheConfig::Peak());
  f.WarmAndMeasure(2'000'000, 4'000'000);
  EXPECT_GT(f.workload->CompletedRequests(), 100u);
  EXPECT_EQ(f.workload->DroppedSyns(), 0u);
  EXPECT_LT(f.workload->AverageAcceptQueueDepth(), 4.0);
}

TEST(ApacheWorkloadTest, DropOffFillsBacklogAndDropsSyns) {
  ApacheFixture f(ApacheConfig::DropOff(), 16);
  f.WarmAndMeasure(25'000'000, 6'000'000);
  EXPECT_GT(f.workload->AverageAcceptQueueDepth(), 400.0);
  EXPECT_GT(f.workload->DroppedSyns(), 0u);
}

TEST(ApacheWorkloadTest, SockLatencyGrowsAtDropOff) {
  ApacheFixture peak(ApacheConfig::Peak(), 16);
  ApacheFixture drop(ApacheConfig::DropOff(), 16);
  peak.WarmAndMeasure(5'000'000, 5'000'000);
  drop.WarmAndMeasure(25'000'000, 6'000'000);
  // The paper's 50-vs-150-cycle signal: at least 3x growth.
  EXPECT_GT(drop.workload->AverageSockMissLatency(),
            3.0 * peak.workload->AverageSockMissLatency());
}

TEST(ApacheWorkloadTest, TcpSockWorkingSetGrowsAtDropOff) {
  ApacheFixture peak(ApacheConfig::Peak(), 16);
  ApacheFixture drop(ApacheConfig::DropOff(), 16);
  peak.WarmAndMeasure(5'000'000, 5'000'000);
  drop.WarmAndMeasure(25'000'000, 6'000'000);
  const TypeId sock_peak = peak.registry.Find("tcp_sock");
  const TypeId sock_drop = drop.registry.Find("tcp_sock");
  // Live socket population grows by roughly the backlog depth.
  EXPECT_GT(drop.allocator->LiveCount(sock_drop),
            5 * peak.allocator->LiveCount(sock_peak));
}

TEST(ApacheWorkloadTest, AdmissionControlRecoversThroughput) {
  ApacheFixture drop(ApacheConfig::DropOff(), 16);
  ApacheFixture fixed(ApacheConfig::Fixed(), 16);
  drop.WarmAndMeasure(25'000'000, 8'000'000);
  fixed.WarmAndMeasure(25'000'000, 8'000'000);
  EXPECT_GT(fixed.Throughput(), drop.Throughput() * 1.05);
  EXPECT_LT(fixed.workload->AverageAcceptQueueDepth(),
            drop.workload->AverageAcceptQueueDepth());
}

TEST(ApacheWorkloadTest, DropOffThroughputBelowPeak) {
  ApacheFixture peak(ApacheConfig::Peak(), 16);
  ApacheFixture drop(ApacheConfig::DropOff(), 16);
  peak.WarmAndMeasure(10'000'000, 10'000'000);
  drop.WarmAndMeasure(30'000'000, 10'000'000);
  EXPECT_LT(drop.Throughput(), peak.Throughput());
}

TEST(ApacheWorkloadTest, ConfigPresets) {
  EXPECT_LT(ApacheConfig::Peak().offered_load, 1.0);
  EXPECT_GT(ApacheConfig::DropOff().offered_load, 1.0);
  EXPECT_TRUE(ApacheConfig::Fixed().admission_control);
  EXPECT_EQ(ApacheConfig::Fixed().EffectiveBacklog(), ApacheConfig::Fixed().admission_limit);
  EXPECT_EQ(ApacheConfig::DropOff().EffectiveBacklog(), ApacheConfig::kBacklog);
}

TEST(ApacheWorkloadTest, NoBouncingTypesGroundTruth) {
  // All handling is core-local: foreign-cache traffic stays negligible
  // except for the shared net_device and futex words.
  ApacheFixture f(ApacheConfig::Peak());
  f.WarmAndMeasure(2'000'000, 4'000'000);
  uint64_t foreign = 0;
  uint64_t accesses = 0;
  for (int c = 0; c < f.machine->num_cores(); ++c) {
    const CoreMemStats& stats = f.machine->hierarchy().core_stats(c);
    foreign += stats.served[static_cast<int>(ServedBy::kForeignCache)];
    accesses += stats.accesses;
  }
  EXPECT_LT(static_cast<double>(foreign) / static_cast<double>(accesses), 0.01);
}

TEST(ApacheWorkloadTest, TaskStructsStayLive) {
  ApacheFixture f(ApacheConfig::Peak());
  f.WarmAndMeasure(2'000'000, 2'000'000);
  const TypeId task = f.registry.Find("task_struct");
  // One worker pool per core.
  EXPECT_EQ(f.allocator->LiveCount(task),
            static_cast<uint64_t>(4 * ApacheWorkload::kWorkerThreads));
}

}  // namespace
}  // namespace dprof
