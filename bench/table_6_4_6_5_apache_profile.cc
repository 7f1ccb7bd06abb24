// Reproduces paper Tables 6.4 and 6.5: working set and data profile views
// for Apache at peak performance and past the drop-off, plus the
// differential analysis DProf enables.
//
// Paper shape: at peak, task_struct leads the misses (21.4%) with tcp_sock
// second (11.0%, 1.11MB working set). At drop-off the tcp_sock working set
// grows ~10x (11.56MB) and its miss share roughly doubles (21.5%), while
// its average miss latency grows ~3x (50 -> 150 cycles).

#include "bench/bench_common.h"

namespace dprof {
namespace {

struct RunStats {
  double sock_ws = 0.0;
  double sock_miss = 0.0;
  double sock_latency = 0.0;
  double depth = 0.0;
};

// Profiles one operating point; its rows become the `view` metrics.
RunStats RunOne(const ApacheConfig& config, const char* label, const char* view,
                BenchReport& report) {
  auto rig = MakePaperRig(42);
  ApacheWorkload workload(rig->env.get(), config);
  workload.Install(*rig->machine);

  DProfOptions options;
  options.ibs_period_ops = 120;
  DProfSession session(rig->machine.get(), rig->allocator.get(), options);

  rig->machine->RunFor(30'000'000);
  workload.ResetStats();
  session.CollectAccessSamples(50'000'000);

  const DataProfile profile = session.BuildDataProfile();
  Appendf(&report.text, "== %s ==\n%s\n", label, profile.ToTable(8).c_str());
  AddProfileCells(report, view, profile, 8);

  RunStats stats;
  if (const DataProfileRow* row = profile.Find(rig->registry->Find("tcp_sock"))) {
    stats.sock_ws = row->working_set_bytes;
    stats.sock_miss = row->miss_pct;
  }
  stats.sock_latency = workload.AverageSockMissLatency();
  stats.depth = workload.AverageAcceptQueueDepth();
  return stats;
}

}  // namespace

BenchReport RunTable64And65ApacheProfile(const BenchParams&) {
  BenchReport report = StartReport("table_6_4_6_5_apache_profile",
                                   "Tables 6.4/6.5: Apache data profiles at peak and drop-off",
                                   "Pesterev 2010, Tables 6.4 and 6.5");
  std::string& out = report.text;

  const RunStats peak = RunOne(ApacheConfig::Peak(), "Table 6.4: Apache at peak", "peak", report);
  const RunStats drop =
      RunOne(ApacheConfig::DropOff(), "Table 6.5: Apache at drop-off", "dropoff", report);

  out += "== Differential analysis ==\n";
  Appendf(&out, "%-36s %12s %12s %8s\n", "", "peak", "drop-off", "ratio");
  Appendf(&out, "%-36s %10.2fMB %10.2fMB %7.1fx\n", "tcp_sock working set",
          peak.sock_ws / 1048576.0, drop.sock_ws / 1048576.0,
          peak.sock_ws > 0 ? drop.sock_ws / peak.sock_ws : 0.0);
  Appendf(&out, "%-36s %11.2f%% %11.2f%% %7.1fx\n", "tcp_sock share of all L1 misses",
          peak.sock_miss, drop.sock_miss,
          peak.sock_miss > 0 ? drop.sock_miss / peak.sock_miss : 0.0);
  Appendf(&out, "%-36s %12.0f %12.0f %7.1fx\n", "avg tcp_sock line latency (cycles)",
          peak.sock_latency, drop.sock_latency,
          peak.sock_latency > 0 ? drop.sock_latency / peak.sock_latency : 0.0);
  Appendf(&out, "%-36s %12.1f %12.1f\n", "avg accept-queue depth", peak.depth, drop.depth);
  AddCell(report, "differential", "sock_latency", "peak_cycles", peak.sock_latency, "cycles");
  AddCell(report, "differential", "sock_latency", "dropoff_cycles", drop.sock_latency, "cycles");
  AddCell(report, "differential", "accept_queue", "peak_depth", peak.depth, "");
  AddCell(report, "differential", "accept_queue", "dropoff_depth", drop.depth, "");

  out += "\npaper reference: tcp_sock 1.11MB/11.00% at peak vs 11.56MB/21.47% at\n"
         "drop-off (10.4x WS growth); sock miss latency 50 vs 150 cycles (3x).\n";
  return report;
}

}  // namespace dprof
