#include "src/cli/whatif.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/util/json_writer.h"
#include "src/util/table.h"

namespace dprof {

namespace {

// Shapes a spec into a measurement run: no history phase, no view JSON —
// the diff must only see the workload under the transform.
RunSpec MeasurementSpec(const RunSpec& base) {
  RunSpec spec = base;
  spec.collect_histories = false;
  spec.build_view_json = false;
  spec.drill_type.clear();
  return spec;
}

const ScenarioProfileRow* RowForType(const std::vector<ScenarioProfileRow>& profile,
                                     const std::string& type) {
  for (const ScenarioProfileRow& row : profile) {
    if (row.type == type) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<WhatIfCandidate> AutoCandidates(const std::vector<ScenarioProfileRow>& profile,
                                            size_t top_n, int num_sockets) {
  std::vector<WhatIfCandidate> candidates;
  const size_t n = std::min(top_n, profile.size());
  for (size_t i = 0; i < n; ++i) {
    for (const TypeTransformKind kind : AllTypeTransformKinds()) {
      if (kind == TypeTransformKind::kPinHome && num_sockets > 1) {
        // Per-socket home enumeration: one experiment per home socket.
        for (int socket = 0; socket < num_sockets; ++socket) {
          candidates.push_back(WhatIfCandidate{profile[i].type, kind, socket});
        }
        continue;
      }
      candidates.push_back(WhatIfCandidate{profile[i].type, kind});
    }
  }
  return candidates;
}

namespace {

// Job 0's run when the caller has already simulated it: the baseline's
// report and the allocator layout key of the rig it ran on.
struct BaselineRun {
  AllocatorLayout key;
  ScenarioReport report;
};

// The experiment pool behind RunWhatIf and RunWhatIfAuto. Every
// experiment, the baseline included, is an independent deterministic
// simulation: job 0 is the baseline and job i + 1 is candidate i. Host
// threads claim jobs from one shared index and build each job's rig. The
// first job to claim the rig's allocator layout runs it; a later job with an
// equal layout drops its rig and reads the claimant's report after the
// join. The claim key may ignore every RunSpec field but the transforms,
// because MeasurementSpec fixes all the others: equal layouts are the same
// run, whichever job claimed first. Transforms of types that can own no
// slab object (the allocator's descriptor types, static types) leave the
// key alone unless they move a static array or answer a HasTransform, so
// such candidates share a claim too. A `baseline_run` takes job 0's
// claim before any candidate is built, so job 0 is not simulated again.
// Results land by index and the report is built after the join, so it
// never depends on thread count or completion order.
WhatIfReport RunExperiments(const ScenarioRegistry& registry, const std::string& scenario,
                            const RunSpec& base_spec,
                            const std::vector<WhatIfCandidate>& candidates,
                            std::optional<BaselineRun> baseline_run) {
  const size_t jobs = candidates.size() + 1;
  std::vector<ScenarioReport> runs(jobs);
  std::vector<size_t> claimant(jobs);  // the job whose run stands for each job
  std::map<AllocatorLayout, size_t> claims;
  std::mutex claims_mu;
  size_t first_job = 0;
  if (baseline_run) {
    claims.emplace(std::move(baseline_run->key), 0);
    runs[0] = std::move(baseline_run->report);
    first_job = 1;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min<size_t>(
      jobs - first_job, base_spec.threads > 0 ? static_cast<size_t>(base_spec.threads) : hw);
  std::atomic<size_t> next{first_job};
  auto run_jobs = [&]() {
    for (size_t job = next.fetch_add(1); job < jobs; job = next.fetch_add(1)) {
      RunSpec spec = MeasurementSpec(base_spec);
      if (job > 0) {
        const WhatIfCandidate& candidate = candidates[job - 1];
        spec.transforms.Add(candidate.type, candidate.kind, candidate.param);
      }
      std::unique_ptr<ScenarioRig> rig = BuildScenarioRig(registry, scenario, spec);
      AllocatorLayout key = rig->allocator->LayoutKey();
      {
        const std::lock_guard<std::mutex> lock(claims_mu);
        claimant[job] = claims.emplace(std::move(key), job).first->second;
      }
      if (claimant[job] == job) {
        runs[job] = RunScenarioRig(std::move(rig), scenario, spec);
      }
    }
  };
  if (workers <= 1) {
    run_jobs();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(run_jobs);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  const ScenarioReport& baseline = runs[claimant[0]];
  WhatIfReport report;
  report.scenario = baseline.scenario;
  report.cores = baseline.cores;
  report.collect_cycles = baseline.collect_cycles;
  report.baseline_requests = baseline.requests;
  report.baseline_rps = baseline.throughput_rps;
  report.baseline_l1_misses = baseline.hierarchy.l1_misses;
  report.baseline_invalidation_misses = baseline.hierarchy.invalidation_misses;
  report.baseline_profile = baseline.profile;
  report.experiments_run = claims.size();

  for (size_t i = 0; i < candidates.size(); ++i) {
    const ScenarioReport& variant = runs[claimant[i + 1]];
    WhatIfOutcome out;
    out.candidate = candidates[i];
    out.requests = variant.requests;
    out.throughput_rps = variant.throughput_rps;
    out.delta_rps = variant.throughput_rps - baseline.throughput_rps;
    out.delta_pct = baseline.throughput_rps > 0.0
                        ? out.delta_rps / baseline.throughput_rps * 100.0
                        : 0.0;
    if (const ScenarioProfileRow* row = RowForType(baseline.profile, candidates[i].type)) {
      out.miss_pct_before = row->miss_pct;
      out.bounce_before = row->bounce;
    }
    if (const ScenarioProfileRow* row = RowForType(variant.profile, candidates[i].type)) {
      out.miss_pct_after = row->miss_pct;
      out.bounce_after = row->bounce;
    }
    out.l1_miss_delta = static_cast<int64_t>(variant.hierarchy.l1_misses) -
                        static_cast<int64_t>(baseline.hierarchy.l1_misses);
    out.invalidation_miss_delta =
        static_cast<int64_t>(variant.hierarchy.invalidation_misses) -
        static_cast<int64_t>(baseline.hierarchy.invalidation_misses);
    report.outcomes.push_back(std::move(out));
  }

  std::sort(report.outcomes.begin(), report.outcomes.end(),
            [](const WhatIfOutcome& a, const WhatIfOutcome& b) {
              if (a.delta_pct != b.delta_pct) return a.delta_pct > b.delta_pct;
              return a.candidate.Label() < b.candidate.Label();
            });
  return report;
}

}  // namespace

WhatIfReport RunWhatIf(const ScenarioRegistry& registry, const std::string& scenario,
                       const RunSpec& base_spec,
                       const std::vector<WhatIfCandidate>& candidates) {
  return RunExperiments(registry, scenario, base_spec, candidates, std::nullopt);
}

WhatIfReport RunWhatIfAuto(const ScenarioRegistry& registry, const std::string& scenario,
                           const RunSpec& base_spec, size_t top_n) {
  // The candidate probe is job 0's own run: the same measurement-shaped
  // spec the pool would give the baseline, so its profile picks the
  // candidates and its report is the diff baseline.
  const RunSpec spec = MeasurementSpec(base_spec);
  std::unique_ptr<ScenarioRig> rig = BuildScenarioRig(registry, scenario, spec);
  BaselineRun baseline{rig->allocator->LayoutKey(), {}};
  baseline.report = RunScenarioRig(std::move(rig), scenario, spec);
  const std::vector<WhatIfCandidate> candidates =
      AutoCandidates(baseline.report.profile, top_n, baseline.report.num_sockets);
  return RunExperiments(registry, scenario, base_spec, candidates, std::move(baseline));
}

std::string WhatIfReportToTable(const WhatIfReport& report) {
  TablePrinter table({"Gain %", "Type", "Fix", "Req/s", "Miss % (was)", "Bounce"});
  table.SetAlign(0, TablePrinter::Align::kRight);
  table.SetAlign(3, TablePrinter::Align::kRight);
  table.SetAlign(4, TablePrinter::Align::kRight);
  for (const WhatIfOutcome& out : report.outcomes) {
    std::string bounce = out.bounce_before == out.bounce_after
                             ? (out.bounce_after ? "yes" : "no")
                             : (out.bounce_after ? "no -> yes" : "yes -> no");
    table.AddRow({TablePrinter::Fixed(out.delta_pct, 2), out.candidate.type,
                  TypeTransformSpecName(out.candidate.kind, out.candidate.param),
                  TablePrinter::Fixed(out.throughput_rps, 0),
                  TablePrinter::Fixed(out.miss_pct_after, 2) + " (" +
                      TablePrinter::Fixed(out.miss_pct_before, 2) + ")",
                  std::move(bounce)});
  }
  return table.ToString();
}

std::string WhatIfReportToJson(const WhatIfReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("whatif_version").Int(1);
  json.Key("scenario").String(report.scenario);
  json.Key("cores").Int(report.cores);
  json.Key("collect_cycles").UInt(report.collect_cycles);
  json.Key("baseline").BeginObject();
  json.Key("requests").UInt(report.baseline_requests);
  json.Key("throughput_rps").Number(report.baseline_rps);
  json.Key("l1_misses").UInt(report.baseline_l1_misses);
  json.Key("invalidation_misses").UInt(report.baseline_invalidation_misses);
  json.EndObject();
  json.Key("candidates").BeginArray();
  for (const WhatIfOutcome& out : report.outcomes) {
    json.BeginObject();
    json.Key("type").String(out.candidate.type);
    json.Key("fix").String(TypeTransformSpecName(out.candidate.kind, out.candidate.param));
    json.Key("requests").UInt(out.requests);
    json.Key("throughput_rps").Number(out.throughput_rps);
    json.Key("delta_rps").Number(out.delta_rps);
    json.Key("delta_pct").Number(out.delta_pct);
    json.Key("miss_pct_before").Number(out.miss_pct_before);
    json.Key("miss_pct_after").Number(out.miss_pct_after);
    json.Key("bounce_before").Bool(out.bounce_before);
    json.Key("bounce_after").Bool(out.bounce_after);
    json.Key("l1_miss_delta").Int(out.l1_miss_delta);
    json.Key("invalidation_miss_delta").Int(out.invalidation_miss_delta);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace dprof
