// Demonstrates DProf's miss classification view (paper §4.3) on three
// contrasting workloads:
//   1. memcached with the tx-queue bug  -> invalidation (sharing) misses
//   2. the conflict demo                -> associativity conflict misses
//   3. apache past the drop-off         -> capacity misses on tcp_sock
//
// Each run prints the classification table plus the evidence DProf used
// (foreign-cache fractions, associativity-set pressure, demand vs capacity).

#include <cstdio>

#include "src/dprof/session.h"
#include "src/workload/apache.h"
#include "src/workload/conflict_demo.h"
#include "src/workload/kernel.h"
#include "src/workload/memcached.h"

namespace {

using namespace dprof;

void Classify(Workload& workload, Machine& machine, SlabAllocator& allocator, const char* label) {
  workload.Install(machine);
  DProfOptions options;
  options.ibs_period_ops = 120;
  DProfSession session(&machine, &allocator, options);
  session.CollectAccessSamples(30'000'000);

  const WorkingSetView ws = session.BuildWorkingSet();
  const auto rows = session.ClassifyMisses();
  std::printf("== %s ==\n", label);
  std::printf("%s", MissClassifier::ToTable(rows).c_str());
  std::printf("evidence: demand %.0f lines vs capacity %.0f; %zu conflicted sets "
              "(mean %.2f lines/set)\n\n",
              ws.demand_lines(), ws.capacity_lines(), ws.conflicted_sets().size(),
              ws.mean_lines_per_set());
}

}  // namespace

int main() {
  {
    MachineConfig config;
    config.hierarchy.num_cores = 8;
    Machine machine(config);
    TypeRegistry registry;
    SlabAllocator allocator(&machine, &registry);
    machine.SetAllocator(&allocator);
    KernelEnv env(&machine, &allocator);
    MemcachedWorkload workload(&env, MemcachedConfig{});
    Classify(workload, machine, allocator, "memcached with tx-hash bug (expect invalidation)");
  }
  {
    MachineConfig config;
    config.hierarchy.num_cores = 8;
    Machine machine(config);
    TypeRegistry registry;
    SlabAllocator allocator(&machine, &registry);
    machine.SetAllocator(&allocator);
    KernelEnv env(&machine, &allocator);
    ConflictDemoWorkload workload(&env);
    Classify(workload, machine, allocator, "conflict demo (expect conflict on pkt_stat)");
  }
  {
    MachineConfig config;
    config.hierarchy.num_cores = 8;
    Machine machine(config);
    TypeRegistry registry;
    SlabAllocator allocator(&machine, &registry);
    machine.SetAllocator(&allocator);
    KernelEnv env(&machine, &allocator);
    ApacheWorkload workload(&env, ApacheConfig::DropOff());
    Classify(workload, machine, allocator, "apache past drop-off (expect capacity on tcp_sock)");
  }
  return 0;
}
