// Reproduces the paper's headline result (§6.1, §6.2, §8): fixing the two
// bugs DProf diagnosed yields a 16-57% throughput improvement on the
// memcached and Apache workloads.
//
//  - memcached: install a driver-local transmit queue selection function
//    instead of skb_tx_hash (paper: +57%).
//  - Apache: admission-control the accept backlog (paper: +16% at the same
//    offered load as the drop-off point).
//
// Both fixes are workload-logic changes, so they ride the RunSpec options
// the CLI exposes (--local-tx-queue / --admission-control) and both arms of
// each comparison come from the same registered scenario factory — the
// identical construction path `dprof run` and `dprof whatif` use.

#include "bench/bench_common.h"
#include "src/machine/engine.h"
#include "src/util/check.h"

namespace dprof {
namespace {

// Measures steady-state throughput of the rig's workload (warm-up, then
// `measure` cycles) on the epoch engine.
double MeasureOnEngine(ScenarioRig& rig, uint64_t warm, uint64_t measure) {
  rig.workload->Install(*rig.machine);
  Engine engine(rig.machine.get(), EngineConfig{});
  rig.machine->SetExecutor(&engine);
  const double rps = MeasureThroughput(*rig.machine, *rig.workload, warm, measure);
  rig.machine->SetExecutor(nullptr);
  return rps;
}

RunSpec ArmSpec() {
  RunSpec spec;
  spec.cores = 16;
  spec.seed = 1;
  return spec;
}

double RunArm(const char* scenario, const RunSpec& spec, uint64_t measure) {
  const ScenarioInfo* info = ScenarioRegistry::Default().Find(scenario);
  DPROF_CHECK(info != nullptr);
  return MeasureOnEngine(*info->factory(spec), 10'000'000, measure);
}

double RunMemcached(bool fix) {
  RunSpec spec = ArmSpec();
  spec.local_tx_queue = fix;
  return RunArm("memcached", spec, 30'000'000);
}

double RunApacheSpec(bool admission_control) {
  RunSpec spec = ArmSpec();
  spec.admission_control = admission_control;
  // The retransmit equilibrium needs the long measurement stretch to
  // average out.
  return RunArm("apache", spec, 40'000'000);
}

// Peak is a reference operating point (offered load below the knee), not a
// fix, so it is not a RunSpec option; build it directly on the base rig.
double RunApachePeak() {
  auto rig = MakeBaseRig(ArmSpec());
  rig->workload = std::make_unique<ApacheWorkload>(rig->env.get(), ApacheConfig::Peak());
  return MeasureOnEngine(*rig, 10'000'000, 40'000'000);
}

}  // namespace

BenchReport RunCaseStudyFixes(const BenchParams&) {
  BenchReport report =
      StartReport("case_study_fixes",
                  "Case-study fixes: throughput before and after (paper: +57% / +16%)",
                  "Pesterev 2010, §6.1.1, §6.2.1, §8");
  std::string& out = report.text;

  out += "== memcached: local tx-queue selection (paper: +57%) ==\n";
  const double mc_buggy = RunMemcached(false);
  const double mc_fixed = RunMemcached(true);
  const double mc_gain = 100.0 * (mc_fixed - mc_buggy) / mc_buggy;
  Appendf(&out, "  stock (skb_tx_hash):  %12.0f req/s\n", mc_buggy);
  Appendf(&out, "  fixed (local queue):  %12.0f req/s\n", mc_fixed);
  Appendf(&out, "  improvement:          %+11.1f%%   (paper: +57%%)\n\n", mc_gain);
  AddCell(report, "throughput", "memcached", "stock_rps", mc_buggy, "req/s");
  AddCell(report, "throughput", "memcached", "fixed_rps", mc_fixed, "req/s");
  AddCell(report, "throughput", "memcached", "gain_pct", mc_gain, "%");

  out += "== Apache: accept-queue admission control (paper: +16%) ==\n";
  const double ap_peak = RunApachePeak();
  const double ap_drop = RunApacheSpec(false);
  const double ap_fixed = RunApacheSpec(true);
  const double ap_gain = 100.0 * (ap_fixed - ap_drop) / ap_drop;
  Appendf(&out, "  peak (reference):     %12.0f req/s\n", ap_peak);
  Appendf(&out, "  drop-off:             %12.0f req/s\n", ap_drop);
  Appendf(&out, "  admission control:    %12.0f req/s\n", ap_fixed);
  Appendf(&out, "  improvement:          %+11.1f%%   (paper: +16%%)\n", ap_gain);
  AddCell(report, "throughput", "apache", "peak_rps", ap_peak, "req/s");
  AddCell(report, "throughput", "apache", "dropoff_rps", ap_drop, "req/s");
  AddCell(report, "throughput", "apache", "fixed_rps", ap_fixed, "req/s");
  AddCell(report, "throughput", "apache", "gain_pct", ap_gain, "%");
  return report;
}

}  // namespace dprof
