// The scenario registry behind `dprof list` / `dprof run <name>`.
//
// A scenario bundles everything one reproducible profiling run needs: the
// simulated machine, the typed allocator, a workload, and the DProfOptions
// the session should use. Scenarios are registered by name with a factory
// lambda, so future workloads and operating points plug in with one
// Register() call and immediately show up in the CLI, the tests, and CI.

#ifndef DPROF_SRC_CLI_SCENARIO_REGISTRY_H_
#define DPROF_SRC_CLI_SCENARIO_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dprof/session.h"
#include "src/machine/faults.h"
#include "src/machine/sampling.h"
#include "src/util/status.h"
#include "src/workload/kernel.h"

namespace dprof {

// Everything a scenario run owns. Destruction order matters (members are
// declared leaf-last so dependents die first); keep the machine above the
// pieces that point into it.
struct ScenarioRig {
  std::unique_ptr<TypeRegistry> registry;
  // Deterministic fault-injection plan (null on healthy runs). Declared
  // above the machine, which holds a raw pointer into it.
  std::unique_ptr<FaultPlan> faults;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SlabAllocator> allocator;
  std::unique_ptr<KernelEnv> env;
  std::unique_ptr<Workload> workload;

  DProfOptions options;
  // Phase-1 access-sample collection length, in simulated cycles.
  uint64_t collect_cycles = 40'000'000;
  // Phase-2: history sets per type, for the top `top_types` profile entries.
  uint32_t history_sets = 4;
  size_t top_types = 3;
};

// One reproducible run request: everything a caller — the CLI, a bench, or
// the whatif search loop — needs to say about a scenario run, in one value
// object. Replaces the old ScenarioParams/DProfOptions overlap so a search
// can construct counterfactual runs programmatically (copy the spec, change
// one field, re-run).
struct RunSpec {
  int cores = 16;
  // Machine topology preset (see ApplyTopologyPreset): "" = flat SMP with
  // `cores` cores and one L3; "paper-amd" = the paper's 4-socket/16-core AMD
  // box (4 cores + one 4MB L3 slice per socket); "big" = a 4-socket/64-core
  // machine (16 cores + one 16MB slice per socket). A preset fixes the core
  // count and overrides `cores`.
  std::string topology;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool socket_aware_apply = true;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool work_stealing = true;
  uint64_t seed = 1;
  // 0 = keep the scenario's default collect_cycles.
  uint64_t collect_cycles = 0;
  // Host threads for whatif's candidate fan-out (RunWhatIf); 0 =
  // hardware_concurrency. A scenario run uses one host thread whatever the
  // value, and whatif's report is bit-identical for every value.
  int threads = 0;
  // When false, the run executes on the legacy step-the-minimum-clock-core
  // loop instead of the epoch engine: the baseline the parallel_engine
  // bench and the engine-validation tests compare against.
  bool use_engine = true;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool record_elision = true;
  // Whether RunScenario should render the per-view JSON documents into the
  // report; text-only callers skip that work.
  bool build_view_json = true;
  // Whether to run the phase-2 history collection for the top profiled
  // types. The whatif engine turns this off: throughput diffs must not
  // include history-phase perturbation.
  bool collect_histories = true;
  // DProfOptions::adaptive_epoch_focus for the run's session (tight epochs
  // while a mailbox-fed type's histories are collected). Stats-equivalence
  // tests turn this off to compare against fixed-epoch baselines.
  bool adaptive_epoch_focus = true;
  // Data-layout transforms the allocator applies per type name
  // (SlabConfig::transforms) — the whatif engine's experimental variable.
  TransformSet transforms;
  // Workload-logic fixes that are not expressible as layout transforms,
  // promoted from ad-hoc workload config booleans:
  //  - memcached §6.1: transmit on the receiving core's queue instead of
  //    skb_tx_hash() (MemcachedConfig::local_queue_fix);
  //  - apache §6.2: cap concurrently accepted connections
  //    (ApacheConfig admission control).
  bool local_tx_queue = false;
  bool admission_control = false;
  // Per-type drill-down: also collect histories for this type (by name) and
  // include its path traces in the report.
  std::string drill_type;
  // Sampled execution (statistical fast-forward): the engine alternates
  // short detailed windows with fast-forward stretches and the report gains
  // a "sampling" block with scaled estimates + confidence intervals. Exact
  // mode (sampled=false) stays the golden reference. period/window of 0 keep
  // the SamplingConfig defaults.
  bool sampled = false;
  uint64_t sampling_period = 0;
  uint64_t sampling_window = 0;
  // Periodic lattice invariant auditing (`dprof run --audit=N`): every N
  // engine epochs the engine re-derives the tag lattice's global
  // invariants (inclusion, private-exclusive consistency, directory
  // extension-bank obligations, committed-clock monotonicity) and turns any
  // violation into a structured kDataLoss status. 0 = off. Audit-enabled
  // healthy runs produce byte-identical reports to audit-off runs.
  uint64_t audit_epochs = 0;
  // Deterministic fault injection: comma-separated seam list ("all", or e.g.
  // "slab_grow,lane_drop" — see ParseFaultSeamList). Empty = healthy run.
  // Every fault decision is a pure function of (seed, simulated state), so
  // faulted runs are deterministic.
  std::string fault_seams;
  // Seed salting every fault decision; 0 keeps the FaultPlanConfig default.
  uint64_t fault_seed = 0;
  // Watchdog overrides; 0 keeps the EngineConfig defaults (256 stalled
  // epochs / 300 wall-clock seconds).
  uint64_t watchdog_stall_epochs = 0;
  double watchdog_wall_seconds = 0.0;
};

using ScenarioFactory = std::function<std::unique_ptr<ScenarioRig>(const RunSpec&)>;

struct ScenarioInfo {
  std::string name;
  std::string description;
  ScenarioFactory factory;
};

class ScenarioRegistry {
 public:
  // Returns false (and leaves the registry unchanged) on duplicate names.
  bool Register(const std::string& name, const std::string& description,
                ScenarioFactory factory);

  const ScenarioInfo* Find(const std::string& name) const;
  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  std::vector<std::string> Names() const;
  size_t size() const { return scenarios_.size(); }

  // The registry with the built-in scenarios (memcached, apache, kernel,
  // conflict_demo) pre-registered.
  static ScenarioRegistry& Default();

 private:
  std::map<std::string, ScenarioInfo> scenarios_;
};

// Registers the built-in scenarios into `registry` (used by Default() and by
// tests that want a fresh registry).
void RegisterBuiltinScenarios(ScenarioRegistry& registry);

// Validates every field of `spec` against the limits the simulator actually
// enforces (core count vs Engine::kMaxCores, thread bounds, sampling-flag
// consistency, fault seam names, watchdog ranges). Returns an empty string
// when valid, else a one-line actionable error message. The CLI prints the
// message and exits nonzero instead of CHECK-aborting deep in the rig.
std::string ValidateRunSpec(const RunSpec& spec);

// Applies a named topology preset to `config`: core count, socket count, and
// the per-slice L3 geometry. An empty name is the flat default and changes
// nothing. Returns false on an unknown preset name.
bool ApplyTopologyPreset(const std::string& name, HierarchyConfig* config);

// Shared rig assembly for scenario factories: machine + typed allocator
// (with the spec's transforms installed) + kernel environment sized from
// `spec`, with interactive-friendly session defaults. The factory fills in
// `workload` (and any option overrides).
std::unique_ptr<ScenarioRig> MakeBaseRig(const RunSpec& spec);

// One ranked row of the run summary.
struct ScenarioProfileRow {
  std::string type;
  double miss_pct = 0.0;
  double working_set_bytes = 0.0;
  bool bounce = false;
  uint64_t samples = 0;
  double avg_miss_latency = 0.0;
};

// Sampled-mode estimates: measured-window counters scaled to full-run
// estimates, with confidence intervals. Only populated (and only emitted
// into the JSON document) when RunSpec::sampled is set, so exact-mode
// reports stay byte-identical to pre-sampling builds.
struct SamplingReport {
  bool enabled = false;
  uint64_t period_cycles = 0;
  uint64_t window_cycles = 0;
  uint64_t seed = 0;
  uint64_t detailed_epochs = 0;
  uint64_t ff_epochs = 0;
  uint64_t measured_accesses = 0;
  uint64_t ff_accesses = 0;
  double scale = 1.0;       // full-run / measured-window access ratio
  double confidence = 0.0;  // two-sided level of the intervals, e.g. 0.99
  // Overall L1 miss rate of the measured windows (percent of accesses).
  SamplingInterval l1_miss_rate;
  struct TypeInterval {
    std::string type;
    double miss_pct = 0.0;  // share of sampled L1 misses, percent
    double ci_lo = 0.0;
    double ci_hi = 0.0;
    uint64_t miss_samples = 0;
  };
  // Per-type miss-share intervals, in profile order (desc. miss_pct).
  std::vector<TypeInterval> types;
};

// The result of `dprof run`: throughput plus the data-profile summary.
struct ScenarioReport {
  std::string scenario;
  int cores = 0;
  // Socket count of the run's hierarchy; the JSON document emits the NUMA
  // counters (remote fills, cross-socket back-invalidations) only when > 1,
  // so flat-topology documents stay byte-identical to pre-NUMA builds.
  int num_sockets = 1;
  uint64_t collect_cycles = 0;
  uint64_t requests = 0;
  double throughput_rps = 0.0;
  uint64_t access_samples = 0;
  std::vector<ScenarioProfileRow> profile;
  // Human-readable views (data profile table, miss classification).
  std::string profile_table;
  std::string miss_class_table;
  // Machine-readable view documents (see the views' ToJson methods).
  std::string working_set_json;
  std::string miss_class_json;
  // Data flow of the top profiled type, when histories were collected.
  std::string top_type;
  std::string data_flow_json;
  // --type drill-down results (empty unless RunSpec::drill_type set).
  std::string drill_type;
  bool drill_type_found = false;
  std::string path_trace_text;    // Table 4.1-style listings
  std::string path_traces_json;   // JSON array of path traces

  // Simulator-side ground truth: the hierarchy's aggregate counters after
  // the run (read straight from the embedded-directory lattice). Included
  // in the JSON document; deterministic for any host thread count, and the
  // fingerprint the golden stats-equivalence test pins per scenario.
  HierarchyTotals hierarchy;

  // Sampled-mode estimates (RunSpec::sampled runs only).
  SamplingReport sampling;

  // Fault-injection accounting (RunSpec::fault_seams runs only): per-seam
  // injected/recovered counters from the FaultPlan. Deterministic, so
  // crashtest's JSON is byte-stable.
  struct SeamCount {
    std::string seam;
    uint64_t injected = 0;
    uint64_t recovered = 0;
  };
  bool faults_enabled = false;
  uint64_t fault_seed = 0;
  std::vector<SeamCount> fault_seams;
  uint64_t mailbox_dropped = 0;

  // Graceful-degradation record: set when the run finished but had to give
  // something up (sampling honesty-contract violations that widened the
  // window or forced the exact fallback). Emitted as a "degraded" JSON block
  // only when degraded is true.
  bool degraded = false;
  uint64_t sampling_violations = 0;
  bool sampling_window_widened = false;
  bool sampling_exact_fallback = false;

  // Terminal engine status. !status.ok() means the run ended in a structured
  // diagnostic (watchdog, audit violation, allocator exhaustion) instead of
  // completing; the CLI renders it as an "error" JSON block and exits
  // nonzero. Healthy runs carry Status::Ok() and emit nothing.
  Status status;
  uint64_t audits_run = 0;

  // Host-side engine phase timing for the run (zeroed on the legacy loop).
  // Deliberately excluded from ScenarioReportToJson: wall-clock varies with
  // the thread count while the report must stay byte-identical; the bench
  // driver surfaces these through `dprof bench --json` instead.
  bool used_engine = false;
  double engine_simulate_seconds = 0.0;
  double engine_apply_seconds = 0.0;
  double engine_commit_seconds = 0.0;
  uint64_t engine_epochs = 0;
};

// Builds `name`'s rig for `spec` and installs its workload: every type,
// static registration and transform query is made by the time it returns.
// CHECK-fails if `name` is not registered — callers validate first. On
// glibc the first call pins the process's mmap threshold at 128 KiB, so
// every run's large tables are returned to the OS when it ends.
std::unique_ptr<ScenarioRig> BuildScenarioRig(const ScenarioRegistry& registry,
                                              const std::string& name, const RunSpec& spec);

// Runs both DProf phases on a rig BuildScenarioRig built for `spec` and
// assembles the report. A rig runs once.
ScenarioReport RunScenarioRig(std::unique_ptr<ScenarioRig> rig, const std::string& name,
                              const RunSpec& spec);

// BuildScenarioRig, then RunScenarioRig.
ScenarioReport RunScenario(const ScenarioRegistry& registry, const std::string& name,
                           const RunSpec& spec);

// Renders `report` as the machine-readable JSON document `dprof run --json`
// prints.
std::string ScenarioReportToJson(const ScenarioReport& report);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_SCENARIO_REGISTRY_H_
