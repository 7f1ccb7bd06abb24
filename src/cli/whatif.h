// The causal what-if engine behind `dprof whatif`.
//
// The paper locates cache bottlenecks; this answers "what does fixing one
// buy you". Because the whole machine is simulated, the counterfactual is
// run exactly, not estimated: a baseline run plus one re-run per candidate
// (a TypeTransform applied to one type), auto-diffed into a ranked
// estimated-throughput-gain report. All of these runs are independent
// deterministic simulations, so they share one pool of host threads, and
// candidates that change no layout decision reuse another run's report;
// the report carries no wall-clock and is byte-identical for any thread
// count. RunWhatIfAuto is the one `--auto` search: its candidate probe is
// the baseline experiment itself, run once.

#ifndef DPROF_SRC_CLI_WHATIF_H_
#define DPROF_SRC_CLI_WHATIF_H_

#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"

namespace dprof {

// One candidate fix: apply `kind` to the type named `type` and re-run.
// `param` is the kind-specific transform parameter (pin_home's target home
// socket); -1 = unparameterized.
struct WhatIfCandidate {
  std::string type;
  TypeTransformKind kind = TypeTransformKind::kIdentity;
  int param = -1;

  std::string Label() const { return type + ":" + TypeTransformSpecName(kind, param); }
};

// The measured effect of one candidate, diffed against the baseline run.
struct WhatIfOutcome {
  WhatIfCandidate candidate;
  uint64_t requests = 0;
  double throughput_rps = 0.0;
  double delta_rps = 0.0;
  double delta_pct = 0.0;  // throughput gain over baseline, percent
  // The transformed type's own profile row, before and after (miss share of
  // all sampled misses; bounce = classified as bouncing between cores).
  double miss_pct_before = 0.0;
  double miss_pct_after = 0.0;
  bool bounce_before = false;
  bool bounce_after = false;
  // Machine-wide counter deltas (variant minus baseline).
  int64_t l1_miss_delta = 0;
  int64_t invalidation_miss_delta = 0;
};

struct WhatIfReport {
  std::string scenario;
  int cores = 0;
  uint64_t collect_cycles = 0;
  uint64_t baseline_requests = 0;
  double baseline_rps = 0.0;
  uint64_t baseline_l1_misses = 0;
  uint64_t baseline_invalidation_misses = 0;
  // Baseline profile rows, for --auto candidate selection and the report.
  std::vector<ScenarioProfileRow> baseline_profile;
  // Simulations actually run, out of outcomes.size() + 1 experiments: an
  // experiment whose allocator layout equals another's takes its report.
  // Not part of the JSON document.
  size_t experiments_run = 0;
  // Ranked best-first: throughput gain desc, candidate label asc on ties.
  std::vector<WhatIfOutcome> outcomes;
};

// The --auto search space: the top `top_n` types of `profile` crossed with
// every transform kind (identity excluded). Allocator-internal and already
// transformed types still appear — a no-op candidate simply ranks at the
// bottom with a ~0 delta. On a multi-socket topology (`num_sockets` > 1)
// pin_home expands to one candidate per home socket — per-socket, not
// per-core, so the search stays tractable at 64 cores.
std::vector<WhatIfCandidate> AutoCandidates(const std::vector<ScenarioProfileRow>& profile,
                                            size_t top_n, int num_sockets = 1);

// Runs the baseline and every candidate experiment, then ranks the diffs.
// `base_spec` describes the shared run shape (cores, seed, cycles); its
// transforms are the baseline's. Measurement runs disable phase-2 history
// collection and view JSON so the throughput diff only sees the workload.
// Experiments whose transforms leave every allocator layout decision equal
// (SlabAllocator::LayoutKey) are simulated once and share the report; a
// transform of a type that cannot own slab objects (slab, array_cache,
// kmem_cache, a static type) only counts through static-array placement
// and HasTransform answers.
// `base_spec.threads` sets how many host threads share the experiments, the
// baseline among them (0 = hardware concurrency); each experiment itself
// runs on one host thread.
WhatIfReport RunWhatIf(const ScenarioRegistry& registry, const std::string& scenario,
                       const RunSpec& base_spec, const std::vector<WhatIfCandidate>& candidates);

// The --auto search: runs the baseline experiment (the measurement-shaped
// `base_spec`), takes AutoCandidates(top_n) from its profile, then runs the
// candidates as RunWhatIf would. The baseline's report and layout key are
// job 0's result, so the probe that picks the candidates is not simulated a
// second time, and the report equals RunWhatIf's over the same candidates
// (`experiments_run` counts the baseline). No profiled types means no
// outcomes.
WhatIfReport RunWhatIfAuto(const ScenarioRegistry& registry, const std::string& scenario,
                           const RunSpec& base_spec, size_t top_n);

// Ranked human-readable table.
std::string WhatIfReportToTable(const WhatIfReport& report);

// Versioned machine-readable document ("whatif_version": 1). Carries no
// wall-clock, so it is byte-identical across host thread counts.
std::string WhatIfReportToJson(const WhatIfReport& report);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_WHATIF_H_
