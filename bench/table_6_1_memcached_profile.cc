// Reproduces paper Table 6.1: working set and data profile views for the top
// data types in memcached (stock kernel, tx-hash bug active).
//
// Paper shape: size-1024 tops the list with ~45% of all L1 misses, followed
// by slab, array_cache, net_device, udp_sock, and skbuff; every top type
// bounces between cores; the listed types cover ~80% of all misses.

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunTable61MemcachedProfile(const BenchParams&) {
  BenchReport report = StartReport("table_6_1_memcached_profile",
                                   "Table 6.1: memcached data profile + working set views",
                                   "Pesterev 2010, Table 6.1");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  MemcachedWorkload workload(rig->env.get(), MemcachedConfig{});
  workload.Install(*rig->machine);

  DProfOptions options;
  options.ibs_period_ops = 120;
  DProfSession session(rig->machine.get(), rig->allocator.get(), options);

  rig->machine->RunFor(20'000'000);  // steady state
  session.CollectAccessSamples(60'000'000);

  const DataProfile profile = session.BuildDataProfile();
  out += profile.ToTable(10) + "\n";
  AddProfileCells(report, "profile", profile, 10);

  out += "paper reference rows (16-core AMD testbed):\n"
         "  size-1024    14.6MB   45.40%  yes\n"
         "  slab          2.55MB  10.48%  yes\n"
         "  array_cache   128B     9.51%  yes\n"
         "  net_device    128B     6.03%  yes\n"
         "  udp_sock      1024B    5.24%  yes\n"
         "  skbuff       20.55MB   5.20%  yes\n"
         "  Total        37.7MB   81.86%\n\n";

  Appendf(&out, "samples: %llu total, %llu L1 misses, %llu unresolved (userspace)\n",
          static_cast<unsigned long long>(session.samples().total_samples()),
          static_cast<unsigned long long>(session.samples().l1_miss_samples()),
          static_cast<unsigned long long>(session.samples().unresolved_samples()));
  return report;
}

}  // namespace dprof
