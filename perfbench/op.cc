// perfbench_op: one measured operation of the dprof benchmark.
//
// The benchmark drives dprof from outside: this program links the layer
// libraries and calls their public entry points. Each invocation runs one
// action between two host-speed probes and prints one JSON object line;
// perfbench/run.py starts it once per operation, aggregates the lines and
// gates them against the reference digests.
//
//   perfbench_op <workload> <seed> run     the timed end-to-end operation
//   perfbench_op <workload> <seed> twin    the same operation on 1 host thread
//   perfbench_op <workload> <seed> setup N N rig set-ups, each timed
//   perfbench_op <workload> <seed> traced  the operation again, outside-in,
//                                          with spans and per-layer counters
//
// `--flip-counter` after the action flips one simulated counter before the
// digest is taken; the gate test uses it to show a wrong result fails.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"
#include "src/machine/engine.h"
#include "src/util/json_writer.h"

namespace {

using dprof::RunSpec;
using dprof::ScenarioReport;

// ---------------------------------------------------------------------------
// Workloads. Each is a scenario plus the RunSpec a dprof command line builds.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string scenario;
  RunSpec spec;
  bool whatif = false;  // `dprof whatif --auto --top N` instead of `dprof run`
  size_t top = 3;
};

bool FindWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.spec.seed = seed;
  if (name == "memcached-t1") {
    // dprof run memcached --threads 1
    w.scenario = "memcached";
    w.spec.threads = 1;
  } else if (name == "whatif-sampled-t2") {
    // dprof whatif memcached --auto --top 3 --sampled --threads 2
    w.scenario = "memcached";
    w.spec.sampled = true;
    w.spec.threads = 2;
    w.whatif = true;
  } else {
    return false;
  }
  *out = w;
  return dprof::ValidateRunSpec(w.spec).empty();
}

// The shape RunWhatIf gives each experiment (see MeasurementSpec in
// src/cli/whatif.cc): one engine thread, no history phase, no view JSON.
RunSpec ExperimentSpec(const RunSpec& base) {
  RunSpec spec = base;
  spec.threads = 1;
  spec.collect_histories = false;
  spec.build_view_json = false;
  return spec;
}

// The engine configuration RunScenario builds for `spec`.
dprof::EngineConfig EngineConfigFor(const RunSpec& spec) {
  dprof::EngineConfig config;
  config.threads = spec.threads;
  config.allow_record_elision = spec.record_elision;
  config.socket_aware_apply = spec.socket_aware_apply;
  config.apply_work_stealing = spec.work_stealing;
  config.sampling.enabled = spec.sampled;
  if (spec.sampling_period > 0) config.sampling.period_cycles = spec.sampling_period;
  if (spec.sampling_window > 0) config.sampling.window_cycles = spec.sampling_window;
  return config;
}

// ---------------------------------------------------------------------------
// Clocks, spans and the host probe.
// ---------------------------------------------------------------------------

// Seconds on the monotonic clock, shared by every process on the host, so
// the spans of separate operation processes line up in one trace.
double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

struct Span {
  std::string cat;  // the layer the called function belongs to
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
};

class SpanLog {
 public:
  // Runs `fn` and records one span around it; returns its duration.
  template <typename Fn>
  double Time(const char* cat, const char* name, Fn&& fn) {
    const double start = NowSeconds();
    fn();
    const double dur = NowSeconds() - start;
    spans_.push_back(Span{cat, name, start, dur});
    return dur;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// A fixed loop owned by the benchmark, not by dprof: a dependent walk over an
// 8 MiB single-cycle permutation. Its time tracks the host's speed (clock,
// cache and memory contention from other tenants) and nothing in the
// repository can move it. It runs before and after the action, never during
// it, so the action's own cache footprint cannot bias it. run.py scales
// operation times by it (see README.md, "Host noise"): wall time by its wall
// time, which includes vCPU steal, and CPU time by its CPU time, which does
// not.
struct Probe {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Probe HostProbe(SpanLog* log) {
  constexpr uint32_t kSlots = 1u << 21;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(next[i], next[(rng >> 33) % i]);
  }
  uint32_t p = 0;
  Probe probe;
  const double cpu0 = ThreadCpuSeconds();
  probe.wall_s = log->Time("host", "host_probe", [&] {
    for (uint32_t i = 0; i < kSlots; ++i) p = next[p];
  });
  probe.cpu_s = ThreadCpuSeconds() - cpu0;
  if (p != 0) std::fputc(' ', stderr);  // a full cycle ends where it began
  return probe;
}

// ---------------------------------------------------------------------------
// Digests of the simulated results: FNV-1a over the numbers, so that a
// report block added later does not change them.
// ---------------------------------------------------------------------------

class Digest {
 public:
  Digest& U(uint64_t v) { return Text(std::to_string(v)); }
  Digest& I(int64_t v) { return Text(std::to_string(v)); }
  Digest& D(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Text(buf);
  }
  Digest& Text(const std::string& s) {
    for (const char c : s) Byte(static_cast<unsigned char>(c));
    Byte(0);
    return *this;
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Byte(unsigned char b) { h_ = (h_ ^ b) * 0x100000001b3ull; }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddProfile(Digest& d, const std::vector<dprof::ScenarioProfileRow>& rows) {
  d.U(rows.size());
  for (const dprof::ScenarioProfileRow& row : rows) {
    d.Text(row.type).D(row.miss_pct).D(row.working_set_bytes).U(row.bounce).U(row.samples)
        .D(row.avg_miss_latency);
  }
}

std::string ScenarioDigest(const ScenarioReport& r) {
  Digest d;
  d.Text(r.scenario).I(r.cores).I(r.num_sockets).U(r.collect_cycles).U(r.requests)
      .D(r.throughput_rps).U(r.access_samples);
  const dprof::HierarchyTotals& h = r.hierarchy;
  d.U(h.accesses).U(h.l1_hits).U(h.l1_misses);
  for (const uint64_t served : h.served) d.U(served);
  d.U(h.invalidation_misses).U(h.tag_reclaims).U(h.back_invalidations).U(h.remote_fills)
      .U(h.cross_socket_back_invalidations);
  AddProfile(d, r.profile);
  const dprof::SamplingReport& s = r.sampling;
  d.U(s.enabled);
  if (s.enabled) {
    d.U(s.period_cycles).U(s.window_cycles).U(s.seed).U(s.detailed_epochs).U(s.ff_epochs)
        .U(s.measured_accesses).U(s.ff_accesses).D(s.scale).D(s.l1_miss_rate.estimate)
        .D(s.l1_miss_rate.lo).D(s.l1_miss_rate.hi);
    for (const auto& t : s.types) {
      d.Text(t.type).D(t.miss_pct).D(t.ci_lo).D(t.ci_hi).U(t.miss_samples);
    }
  }
  return d.Hex();
}

// The baseline experiment's counters, as a whatif report and as a scenario
// report carry them.
std::string BaselineDigest(uint64_t requests, double rps, uint64_t l1_misses,
                           uint64_t invalidation_misses,
                           const std::vector<dprof::ScenarioProfileRow>& profile) {
  Digest d;
  d.U(requests).D(rps).U(l1_misses).U(invalidation_misses);
  AddProfile(d, profile);
  return d.Hex();
}

std::string WhatIfDigest(const dprof::WhatIfReport& r) {
  Digest d;
  d.Text(r.scenario).I(r.cores).U(r.collect_cycles).U(r.baseline_requests).D(r.baseline_rps)
      .U(r.baseline_l1_misses).U(r.baseline_invalidation_misses);
  AddProfile(d, r.baseline_profile);
  d.U(r.outcomes.size());
  for (const dprof::WhatIfOutcome& o : r.outcomes) {
    d.Text(o.candidate.Label()).U(o.requests).D(o.throughput_rps).D(o.delta_pct)
        .D(o.miss_pct_before).D(o.miss_pct_after).U(o.bounce_before).U(o.bounce_after)
        .I(o.l1_miss_delta).I(o.invalidation_miss_delta);
  }
  return d.Hex();
}

// ---------------------------------------------------------------------------
// Actions.
// ---------------------------------------------------------------------------

// What one action produced; rendered as the output line.
struct Result {
  bool ok = true;
  std::string error;
  std::string digest;
  std::string baseline_digest;  // whatif only: see BaselineDigest
  double wall_s = 0.0;
  double cpu_s = 0.0;
  size_t report_bytes = 0;  // size of the rendered report, so rendering stays observable
  int experiments = 1;
  std::vector<double> setup_s;
  std::vector<std::pair<std::string, double>> layers;  // per-layer metrics, traced only
};

// The end-to-end operation, exactly as the dprof CLI command performs it:
// from rig build to the rendered --json report.
void RunOperation(const Workload& w, const RunSpec& spec, bool flip, SpanLog* log,
                  Result* out) {
  const dprof::ScenarioRegistry& registry = dprof::ScenarioRegistry::Default();
  const double cpu0 = CpuSeconds();
  if (!w.whatif) {
    ScenarioReport report;
    out->wall_s = log->Time("cli", "RunScenario+ScenarioReportToJson", [&] {
      report = dprof::RunScenario(registry, w.scenario, spec);
      out->report_bytes = dprof::ScenarioReportToJson(report).size();
    });
    out->cpu_s = CpuSeconds() - cpu0;
    if (!report.status.ok()) {
      out->ok = false;
      out->error = report.status.message();
    }
    if (flip) report.hierarchy.l1_misses ^= 1;
    out->digest = ScenarioDigest(report);
    return;
  }
  // `dprof whatif --auto`: a one-thread profile run picks the candidates,
  // then RunWhatIf runs the baseline and one experiment per candidate.
  ScenarioReport profile;
  dprof::WhatIfReport report;
  out->wall_s = log->Time("cli", "whatif --auto", [&] {
    RunSpec probe = spec;
    probe.build_view_json = false;
    probe.collect_histories = false;
    probe.threads = 1;
    profile = dprof::RunScenario(registry, w.scenario, probe);
    const std::vector<dprof::WhatIfCandidate> candidates =
        dprof::AutoCandidates(profile.profile, w.top, profile.num_sockets);
    report = dprof::RunWhatIf(registry, w.scenario, spec, candidates);
    out->report_bytes = dprof::WhatIfReportToJson(report).size();
  });
  out->cpu_s = CpuSeconds() - cpu0;
  out->experiments = static_cast<int>(report.outcomes.size()) + 1;
  if (!profile.status.ok() || report.outcomes.empty()) {
    out->ok = false;
    out->error = profile.status.ok() ? "no candidates" : profile.status.message();
  }
  out->baseline_digest =
      BaselineDigest(report.baseline_requests, report.baseline_rps, report.baseline_l1_misses,
                     report.baseline_invalidation_misses, report.baseline_profile);
  if (flip) report.baseline_l1_misses ^= 1;
  out->digest = WhatIfDigest(report);
}

// One rig of `spec`: the scenario factory, Workload::Install and the Engine
// constructor — the set-up every run (and every whatif experiment) pays.
struct Rig {
  std::unique_ptr<dprof::ScenarioRig> rig;
  std::unique_ptr<dprof::Engine> engine;  // declared last: dies first
};

Rig BuildRig(const std::string& scenario, const RunSpec& spec, SpanLog* log, double* factory_s,
             double* install_s, double* engine_s) {
  const dprof::ScenarioInfo* info = dprof::ScenarioRegistry::Default().Find(scenario);
  Rig r;
  *factory_s = log->Time("cli", "ScenarioFactory", [&] { r.rig = info->factory(spec); });
  *install_s = log->Time("workload", "Workload::Install",
                         [&] { r.rig->workload->Install(*r.rig->machine); });
  *engine_s = log->Time("machine", "Engine::Engine", [&] {
    r.engine = std::make_unique<dprof::Engine>(r.rig->machine.get(), EngineConfigFor(spec));
    r.rig->machine->SetExecutor(r.engine.get());
  });
  return r;
}

void RunSetups(const Workload& w, int reps, SpanLog* log, Result* out) {
  // A whatif operation's rigs are its experiments' rigs.
  const RunSpec spec = w.whatif ? ExperimentSpec(w.spec) : w.spec;
  for (int i = 0; i < reps; ++i) {
    double factory_s = 0.0;
    double install_s = 0.0;
    double engine_s = 0.0;
    Rig rig = BuildRig(w.scenario, spec, log, &factory_s, &install_s, &engine_s);
    out->setup_s.push_back(factory_s + install_s + engine_s);
  }
}

// RunScenario's work, rebuilt from the public calls it makes so that every
// call gets a span, plus the engine's and hierarchy's counters around them.
// Fills the fields of `report` the digest covers.
void RunOutsideIn(const std::string& scenario, const RunSpec& spec, SpanLog* log,
                  ScenarioReport* report, Result* out) {
  auto& layers = out->layers;
  double factory_s = 0.0;
  double install_s = 0.0;
  double engine_s = 0.0;
  Rig r = BuildRig(scenario, spec, log, &factory_s, &install_s, &engine_s);
  dprof::ScenarioRig& rig = *r.rig;
  dprof::Engine& engine = *r.engine;
  layers.emplace_back("rig.factory_s", factory_s);
  layers.emplace_back("rig.install_s", install_s);
  layers.emplace_back("rig.engine_s", engine_s);

  dprof::DProfSession session(rig.machine.get(), rig.allocator.get(), rig.options);
  const double phase1_s = log->Time("dprof", "DProfSession::CollectAccessSamples",
                                    [&] { session.CollectAccessSamples(rig.collect_cycles); });
  // Timed even when histories are off (whatif experiments): the span then
  // covers the skipped step, as RunScenario's branch does.
  const double phase2_s = log->Time("dprof", "DProfSession::CollectHistoriesForTopTypes", [&] {
    if (spec.collect_histories && engine.status().ok()) {
      session.CollectHistoriesForTopTypes(rig.top_types, rig.history_sets);
    }
  });

  report->scenario = scenario;
  report->status = engine.status();
  report->cores = rig.machine->num_cores();
  report->num_sockets = rig.machine->hierarchy().num_sockets();
  report->collect_cycles = rig.collect_cycles;
  report->hierarchy = rig.machine->hierarchy().Totals();
  report->requests = rig.workload->CompletedRequests();
  report->throughput_rps = dprof::ThroughputRps(report->requests, rig.machine->MaxClock());
  report->access_samples = session.samples().total_samples();

  double views_s = 0.0;
  dprof::DataProfile profile;
  views_s += log->Time("dprof", "DProfSession::BuildDataProfile", [&] {
    profile = session.BuildDataProfile();
    for (const dprof::DataProfileRow& row : profile.rows()) {
      report->profile.push_back(dprof::ScenarioProfileRow{row.name, row.miss_pct,
                                                          row.working_set_bytes, row.bounce,
                                                          row.samples, row.avg_miss_latency});
    }
    report->profile_table = profile.ToTable(10);
  });
  const dprof::SamplingController* sampler = engine.sampler();
  if (sampler != nullptr) {
    views_s += log->Time("machine", "SamplingController estimates", [&] {
      dprof::SamplingReport& s = report->sampling;
      s.enabled = true;
      s.period_cycles = sampler->config().period_cycles;
      s.window_cycles = sampler->config().window_cycles;
      s.seed = sampler->config().seed;
      s.detailed_epochs = sampler->detailed_epochs();
      s.ff_epochs = sampler->ff_epochs();
      s.measured_accesses = sampler->measured_accesses();
      s.ff_accesses = sampler->ff_accesses();
      s.scale = sampler->Scale();
      s.confidence = 0.99;
      s.l1_miss_rate = dprof::SamplingController::WilsonCI(
          report->hierarchy.l1_misses, report->hierarchy.accesses,
          dprof::SamplingController::kMissRateFloorPct);
      const uint64_t miss_samples = session.samples().l1_miss_samples();
      const auto by_type = session.samples().AggregateByType();
      for (const dprof::DataProfileRow& row : profile.rows()) {
        const auto it = by_type.find(row.type);
        const uint64_t k = it != by_type.end() ? it->second.l1_misses : 0;
        const dprof::SamplingInterval ci = dprof::SamplingController::WilsonCI(
            k, miss_samples, dprof::SamplingController::kTypeShareFloorPct);
        s.types.push_back(
            dprof::SamplingReport::TypeInterval{row.name, row.miss_pct, ci.lo, ci.hi, k});
      }
    });
  }
  std::vector<dprof::MissClassRow> miss_rows;
  views_s += log->Time("dprof", "DProfSession::ClassifyMisses", [&] {
    miss_rows = session.ClassifyMisses();
    report->miss_class_table = dprof::MissClassifier::ToTable(miss_rows);
  });
  if (spec.build_view_json) {
    views_s += log->Time("dprof", "MissClassifier::ToJson", [&] {
      report->miss_class_json = dprof::MissClassifier::ToJson(miss_rows);
    });
    views_s += log->Time("dprof", "DProfSession::BuildWorkingSet",
                         [&] { report->working_set_json = session.BuildWorkingSet().ToJson(); });
    views_s += log->Time("dprof", "DProfSession::BuildDataFlow", [&] {
      const std::vector<dprof::TypeId> top = profile.TopTypes(1);
      if (!top.empty() && !session.histories(top[0]).empty()) {
        report->top_type = rig.registry->Name(top[0]);
        report->data_flow_json = session.BuildDataFlow(top[0]).ToJson();
      }
    });
    views_s += log->Time("cli", "ScenarioReportToJson", [&] {
      out->report_bytes = dprof::ScenarioReportToJson(*report).size();
    });
  }

  const dprof::EnginePhaseStats& stats = engine.phase_stats();
  const dprof::HierarchyTotals& h = report->hierarchy;
  const double session_s = phase1_s + phase2_s;
  const double phases_s =
      stats.simulate_seconds + stats.apply_seconds + stats.commit_seconds + stats.deliver_seconds;
  const uint64_t ff_accesses = sampler != nullptr ? sampler->ff_accesses() : 0;
  const uint64_t measured = sampler != nullptr ? sampler->measured_accesses() : 0;
  layers.emplace_back("session.phase1_s", phase1_s);
  layers.emplace_back("session.phase2_s", phase2_s);
  layers.emplace_back("session.views_s", views_s);
  layers.emplace_back("session.ibs_samples", static_cast<double>(report->access_samples));
  layers.emplace_back("engine.simulate_s", stats.simulate_seconds);
  layers.emplace_back("engine.apply_s", stats.apply_seconds);
  layers.emplace_back("engine.commit_s", stats.commit_seconds);
  layers.emplace_back("engine.other_s", session_s - phases_s);
  layers.emplace_back("engine.epochs", static_cast<double>(stats.epochs));
  layers.emplace_back("engine.elided_epochs", static_cast<double>(stats.elided_epochs));
  layers.emplace_back("engine.ff_epochs", static_cast<double>(stats.ff_epochs));
  layers.emplace_back("engine.us_per_epoch",
                      stats.epochs > 0 ? session_s / static_cast<double>(stats.epochs) * 1e6 : 0.0);
  layers.emplace_back("sim.accesses", static_cast<double>(h.accesses));
  layers.emplace_back("sim.apply_ns_per_access",
                      h.accesses > 0 ? stats.apply_seconds / static_cast<double>(h.accesses) * 1e9
                                     : 0.0);
  layers.emplace_back("sim.maccess_per_host_s",
                      static_cast<double>(h.accesses + ff_accesses) / session_s * 1e-6);
  layers.emplace_back("sim.l1_miss_rate",
                      h.accesses > 0 ? static_cast<double>(h.l1_misses) /
                                           static_cast<double>(h.accesses)
                                     : 0.0);
  layers.emplace_back("sim.invalidation_misses", static_cast<double>(h.invalidation_misses));
  layers.emplace_back("sim.back_invalidations", static_cast<double>(h.back_invalidations));
  layers.emplace_back("sampling.measured_accesses", static_cast<double>(measured));
  layers.emplace_back("sampling.ff_accesses", static_cast<double>(ff_accesses));
  layers.emplace_back("sampling.ff_share",
                      measured + ff_accesses > 0
                          ? static_cast<double>(ff_accesses) /
                                static_cast<double>(measured + ff_accesses)
                          : 0.0);
}

// The traced operation. A `dprof run` workload goes through the outside-in
// path; a whatif workload runs RunWhatIf as one span (it builds its engines
// internally) and then its baseline experiment through the outside-in path,
// which must reproduce the whatif report's baseline counters.
void RunTraced(const Workload& w, bool flip, SpanLog* log, Result* out) {
  const double cpu0 = CpuSeconds();
  if (!w.whatif) {
    ScenarioReport report;
    out->wall_s = log->Time("cli", "outside-in RunScenario",
                            [&] { RunOutsideIn(w.scenario, w.spec, log, &report, out); });
    out->cpu_s = CpuSeconds() - cpu0;
    if (!report.status.ok()) {
      out->ok = false;
      out->error = report.status.message();
    }
    if (flip) report.hierarchy.l1_misses ^= 1;
    out->digest = ScenarioDigest(report);
    return;
  }
  Result whatif;
  RunOperation(w, w.spec, flip, log, &whatif);
  *out = whatif;
  ScenarioReport baseline;
  Result experiment;
  log->Time("cli", "outside-in baseline experiment",
            [&] { RunOutsideIn(w.scenario, ExperimentSpec(w.spec), log, &baseline, &experiment); });
  out->layers = experiment.layers;
  if (!experiment.ok) {
    out->ok = false;
    out->error = experiment.error;
  }
  // The outside-in baseline must reproduce the one RunWhatIf measured.
  if (BaselineDigest(baseline.requests, baseline.throughput_rps, baseline.hierarchy.l1_misses,
                     baseline.hierarchy.invalidation_misses, baseline.profile) !=
      whatif.baseline_digest) {
    out->ok = false;
    out->error = "outside-in baseline experiment disagrees with RunWhatIf's baseline";
  }
}

void PrintResult(const Workload& w, uint64_t seed, const std::string& mode, const Probe& before,
                 const Probe& after, const Result& r, const SpanLog& log) {
  dprof::JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(w.name);
  json.Key("seed").UInt(seed);
  json.Key("mode").String(mode);
  json.Key("ok").Bool(r.ok);
  json.Key("error").String(r.error);
  json.Key("digest").String(r.digest);
  json.Key("probe").BeginObject();
  json.Key("wall").BeginArray().Number(before.wall_s).Number(after.wall_s).EndArray();
  json.Key("cpu").BeginArray().Number(before.cpu_s).Number(after.cpu_s).EndArray();
  json.EndObject();
  json.Key("wall_s").Number(r.wall_s);
  json.Key("cpu_s").Number(r.cpu_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json.Key("peak_rss_kb").Int(usage.ru_maxrss);
  json.Key("threads").Int(w.spec.threads);
  json.Key("experiments").Int(r.experiments);
  json.Key("report_bytes").UInt(r.report_bytes);
  json.Key("setup_s").BeginArray();
  for (const double s : r.setup_s) json.Number(s);
  json.EndArray();
  json.Key("layers").BeginObject();
  for (const auto& [name, value] : r.layers) json.Key(name).Number(value);
  json.EndObject();
  json.Key("spans").BeginArray();
  for (const Span& s : log.spans()) {
    json.BeginObject();
    json.Key("cat").String(s.cat);
    json.Key("name").String(s.name);
    json.Key("start_s").Number(s.start_s);
    json.Key("dur_s").Number(s.dur_s);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_op <workload> <seed> run|twin|traced|setup N [--flip-counter]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string name = argv[1];
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0') return Usage();
  const std::string mode = argv[3];
  int reps = 0;
  int next_arg = 4;
  if (mode == "setup") {
    if (argc < 5 || (reps = std::atoi(argv[4])) < 1) return Usage();
    next_arg = 5;
  } else if (mode != "run" && mode != "twin" && mode != "traced") {
    return Usage();
  }
  bool flip = false;
  for (int i = next_arg; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flip-counter") != 0) return Usage();
    flip = true;
  }
  Workload w;
  if (!FindWorkload(name, seed, &w)) {
    std::fprintf(stderr, "perfbench_op: unknown workload '%s'\n", name.c_str());
    return 2;
  }

  SpanLog log;
  const Probe before = HostProbe(&log);
  Result result;
  if (mode == "run") {
    RunOperation(w, w.spec, flip, &log, &result);
  } else if (mode == "twin") {
    RunSpec spec = w.spec;
    spec.threads = 1;
    RunOperation(w, spec, flip, &log, &result);
  } else if (mode == "setup") {
    RunSetups(w, reps, &log, &result);
  } else {
    RunTraced(w, flip, &log, &result);
  }
  const Probe after = HostProbe(&log);
  PrintResult(w, seed, mode, before, after, result, log);
  return 0;
}
