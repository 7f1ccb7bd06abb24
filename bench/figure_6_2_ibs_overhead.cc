// Reproduces paper Figure 6-2: DProf's access-sampling overhead as a
// function of the IBS sampling rate, measured as percent connection
// throughput reduction for the Apache and memcached applications.
//
// Paper shape: roughly linear growth, reaching ~10-12% at 18k samples/s/core
// (each IBS interrupt costs ~2,000 cycles plus handler work).

#include <vector>

#include "bench/bench_common.h"

namespace dprof {
namespace {

struct Point {
  uint64_t period = 0;
  double ksamples_per_sec_core = 0.0;
  double overhead_pct = 0.0;
};

template <typename MakeWorkload>
std::vector<Point> Sweep(MakeWorkload make_workload, const std::vector<uint64_t>& periods) {
  // Baseline: no sampling.
  double baseline = 0.0;
  {
    auto rig = MakePaperRig(3);
    auto workload = make_workload(*rig);
    workload->Install(*rig->machine);
    baseline = MeasureThroughput(*rig->machine, *workload, 12'000'000, 25'000'000);
  }
  std::vector<Point> points;
  for (const uint64_t period : periods) {
    auto rig = MakePaperRig(3);
    auto workload = make_workload(*rig);
    workload->Install(*rig->machine);
    DProfOptions options;
    options.ibs_period_ops = period;
    DProfSession session(rig->machine.get(), rig->allocator.get(), options);
    rig->machine->RunFor(12'000'000);
    workload->ResetStats();
    session.ibs().ResetCounters();
    const uint64_t start = rig->machine->MaxClock();
    session.CollectAccessSamples(25'000'000);
    const uint64_t elapsed = rig->machine->MaxClock() - start;
    const double tput = ThroughputRps(workload->CompletedRequests(), elapsed);
    Point p;
    p.period = period;
    const double seconds = static_cast<double>(elapsed) / kCyclesPerSecond;
    p.ksamples_per_sec_core = static_cast<double>(session.ibs().samples_taken()) /
                              seconds / rig->machine->num_cores() / 1000.0;
    p.overhead_pct = 100.0 * (baseline - tput) / baseline;
    points.push_back(p);
  }
  return points;
}

void Print(const char* app, const std::vector<Point>& points, BenchReport& report) {
  report.text += std::string(app) + ":\n";
  Appendf(&report.text, "  %-28s %s\n", "samples (thousands/s/core)", "throughput reduction");
  for (const Point& p : points) {
    Appendf(&report.text, "  %-28.1f %19.2f%%\n", p.ksamples_per_sec_core, p.overhead_pct);
    const std::string row = std::string(app) + "/period-" + std::to_string(p.period);
    AddCell(report, "ibs_overhead", row, "ksamples_per_s_core", p.ksamples_per_sec_core, "");
    AddCell(report, "ibs_overhead", row, "overhead_pct", p.overhead_pct, "%");
  }
  report.text += "\n";
}

}  // namespace

BenchReport RunFigure62IbsOverhead(const BenchParams&) {
  BenchReport report = StartReport("figure_6_2_ibs_overhead",
                                   "Figure 6-2: IBS sampling overhead vs sampling rate",
                                   "Pesterev 2010, Figure 6-2");

  // Periods chosen to land in the paper's 2-20k samples/s/core band.
  const std::vector<uint64_t> periods = {2400, 1200, 600, 400, 300, 240};

  const auto memcached_points = Sweep(
      [](ScenarioRig& rig) {
        return std::make_unique<MemcachedWorkload>(rig.env.get(), MemcachedConfig{});
      },
      periods);
  Print("memcached", memcached_points, report);

  const auto apache_points = Sweep(
      [](ScenarioRig& rig) {
        // Saturated but admission-controlled: overhead measures the service
        // path without exciting the SYN-retransmit feedback loop.
        ApacheConfig config = ApacheConfig::Fixed();
        config.admission_limit = 64;
        return std::make_unique<ApacheWorkload>(rig.env.get(), config);
      },
      periods);
  Print("Apache", apache_points, report);

  report.text += "paper shape: near-linear overhead, ~2-12% over 2-18k samples/s/core.\n";
  return report;
}

}  // namespace dprof
