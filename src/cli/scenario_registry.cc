#include "src/cli/scenario_registry.h"

#include <algorithm>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/dprof/miss_classifier.h"
#include "src/machine/engine.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"
#include "src/workload/apache.h"
#include "src/workload/conflict_demo.h"
#include "src/workload/memcached.h"

namespace dprof {

namespace {

void ApplySpec(ScenarioRig& rig, const RunSpec& spec) {
  if (spec.collect_cycles > 0) rig.collect_cycles = spec.collect_cycles;
}

// A run builds its lattice, recorder and session tables (tens of MB) fresh
// and frees them when it ends. glibc raises its mmap threshold to the size
// of each mapped block freed (up to 32 MiB); past that point the tables
// grow heap arenas instead, which keep the memory after the run, and peak
// RSS would depend on the seed and, under `whatif`'s host threads, on
// which thread runs which experiment. A threshold pinned at glibc's default
// 128 KiB keeps such tables in mappings of their own, returned to the OS
// when the run frees them. The lattice arrays do not go through malloc:
// CacheHierarchy maps them itself (anonymous mmap, unmapped when the rig
// ends), so the threshold governs the recorder and session tables.
void PinMmapThreshold() {
#if defined(__GLIBC__)
  static const int pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)pinned;
#endif
}

// A finished run's freed heap stays in its malloc arena: glibc returns
// only an arena's top to the OS, so blocks the next run does not reuse (a
// `whatif` worker's next rig comes from that worker's own arena) would count
// toward peak RSS until the process exits. One malloc_trim per run, after
// its rig is gone, hands the free pages of every arena back.
void ReleaseFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

bool ApplyTopologyPreset(const std::string& name, HierarchyConfig* config) {
  if (name.empty()) {
    return true;
  }
  if (name == "paper-amd") {
    // The paper's evaluation machine: 4 quad-core AMD sockets, one L3 slice
    // (and memory controller) per socket.
    config->num_cores = 16;
    config->num_sockets = 4;
    config->l3 = CacheGeometry{4 * 1024 * 1024, 64, 16};
    return true;
  }
  if (name == "big") {
    // Scaling preset: 4 sockets x 16 cores, full-size slices.
    config->num_cores = 64;
    config->num_sockets = 4;
    config->l3 = CacheGeometry{16 * 1024 * 1024, 64, 16};
    return true;
  }
  return false;
}

std::string ValidateRunSpec(const RunSpec& spec) {
  if (!spec.topology.empty()) {
    HierarchyConfig probe;
    if (!ApplyTopologyPreset(spec.topology, &probe)) {
      return "--topology must be one of: paper-amd, big; got '" + spec.topology + "'";
    }
  }
  if (spec.cores < 1 || spec.cores > Engine::kMaxCores) {
    return "--cores must be in [1, " + std::to_string(Engine::kMaxCores) +
           "] (the simulated machine's core limit); got " + std::to_string(spec.cores);
  }
  if (spec.threads < 0 || spec.threads > 1024) {
    return "--threads must be in [0, 1024] (0 = hardware concurrency); got " +
           std::to_string(spec.threads);
  }
  // The legacy loop has no engine: engine-only options would be ignored.
  if (!spec.use_engine) {
    if (!spec.fault_seams.empty()) {
      return "--fault needs the epoch engine; drop --legacy-loop";
    }
    if (spec.sampled) {
      return "--sampled needs the epoch engine; drop --legacy-loop";
    }
    if (spec.audit_epochs > 0) {
      return "--audit needs the epoch engine; drop --legacy-loop";
    }
    if (spec.watchdog_stall_epochs > 0 || spec.watchdog_wall_seconds > 0.0) {
      return "--watchdog-stall-epochs/--watchdog-seconds need the epoch engine; drop "
             "--legacy-loop";
    }
  }
  if (!spec.sampled && (spec.sampling_period > 0 || spec.sampling_window > 0)) {
    return "--sampling-period/--sampling-window only apply to sampled runs; add --sampled";
  }
  // A window as long as the period would silently run every epoch
  // detailed (a sampled run that fast-forwards nothing); compare the values
  // the run will use, defaults included.
  const SamplingConfig defaults;
  const uint64_t period = spec.sampling_period > 0 ? spec.sampling_period : defaults.period_cycles;
  const uint64_t window = spec.sampling_window > 0 ? spec.sampling_window : defaults.window_cycles;
  if (spec.sampled && window >= period) {
    return "--sampling-window (" + std::to_string(window) +
           (spec.sampling_window > 0 ? "" : ", the default") +
           ") must be less than --sampling-period (" + std::to_string(period) +
           (spec.sampling_period > 0 ? ")" : ", the default)");
  }
  if (!spec.fault_seams.empty()) {
    uint32_t mask = 0;
    std::string error;
    if (!ParseFaultSeamList(spec.fault_seams, &mask, &error)) {
      return error;
    }
  } else if (spec.fault_seed != 0) {
    return "--fault-seed only applies to fault-injected runs; add --fault";
  }
  if (spec.watchdog_wall_seconds < 0.0) {
    return "--watchdog-seconds must be >= 0 (0 keeps the 300s default)";
  }
  return "";
}

std::unique_ptr<ScenarioRig> MakeBaseRig(const RunSpec& spec) {
  auto rig = std::make_unique<ScenarioRig>();
  rig->registry = std::make_unique<TypeRegistry>();
  MachineConfig config;
  config.hierarchy.num_cores = spec.cores;
  // A topology preset overrides the flat-SMP core count and L3 geometry;
  // callers validated the name via ValidateRunSpec.
  DPROF_CHECK(ApplyTopologyPreset(spec.topology, &config.hierarchy));
  config.seed = spec.seed;
  if (!spec.fault_seams.empty()) {
    FaultPlanConfig fault_config;
    std::string error;
    // Callers run ValidateRunSpec first; an unparseable list here is a
    // programming error, not user input.
    DPROF_CHECK(ParseFaultSeamList(spec.fault_seams, &fault_config.enabled_mask, &error));
    if (spec.fault_seed != 0) {
      fault_config.seed = spec.fault_seed;
    }
    rig->faults = std::make_unique<FaultPlan>(fault_config);
    // Configuration-level seams (ext-bank pressure) must land before the
    // machine builds its hierarchy.
    rig->faults->ApplyToHierarchy(&config.hierarchy);
  }
  rig->machine = std::make_unique<Machine>(config);
  rig->machine->SetFaultPlan(rig->faults.get());
  rig->allocator =
      std::make_unique<SlabAllocator>(rig->machine.get(), rig->registry.get(), spec.transforms);
  rig->machine->SetAllocator(rig->allocator.get());
  rig->env = std::make_unique<KernelEnv>(rig->machine.get(), rig->allocator.get());
  // Interactive default: bound each type's history phase to ~50ms of
  // simulated time. Workloads that never recycle a type's objects (so the
  // collector sees no allocations to watch) bail out here instead of
  // spinning to the library's 4-second safety cap.
  rig->options.history_phase_max_cycles = 50'000'000;
  return rig;
}

namespace {

// In name order, the order `dprof list` prints.
const ScenarioInfo kScenarios[] = {
    {"apache",
     "Apache static-file serving past the throughput drop-off (paper §6.2): "
     "deep accept queues evict tcp_socks before accept()",
     [](const RunSpec& spec) {
       auto rig = MakeBaseRig(spec);
       rig->workload = std::make_unique<ApacheWorkload>(
           rig->env.get(),
           spec.admission_control ? ApacheConfig::Fixed() : ApacheConfig::DropOff());
       rig->options.ibs_period_ops = 200;
       ApplySpec(*rig, spec);
       return rig;
     }},
    {"conflict_demo",
     "associativity-conflict microbenchmark (paper §4.3): hot objects alias "
     "to the same L1 sets and evict each other",
     [](const RunSpec& spec) {
       auto rig = MakeBaseRig(spec);
       rig->workload = std::make_unique<ConflictDemoWorkload>(rig->env.get());
       rig->options.ibs_period_ops = 100;
       rig->collect_cycles = 20'000'000;
       // Hot objects live forever: the collector arms debug registers on
       // already-live objects (HistoryCollector::Poll). A coarse sweep with
       // a small per-history element cap lets each type's sweep complete
       // well before the phase cap instead of spinning to it.
       rig->options.history_phase_max_cycles = 10'000'000;
       rig->options.history.granularity = 8;
       rig->options.history.max_elements_per_history = 256;
       rig->history_sets = 1;
       ApplySpec(*rig, spec);
       return rig;
     }},
    {"kernel",
     "kernel network stack with the paper's core-local transmit fix applied: "
     "the post-fix memcached profile (paper §6.1, fixed)",
     [](const RunSpec& spec) {
       auto rig = MakeBaseRig(spec);
       MemcachedConfig config;
       config.local_queue_fix = true;
       rig->workload = std::make_unique<MemcachedWorkload>(rig->env.get(), config);
       rig->options.ibs_period_ops = 200;
       ApplySpec(*rig, spec);
       return rig;
     }},
    {"memcached",
     "memcached/UDP with the stock skb_tx_hash() queue selection (paper §6.1): "
     "skbuffs and payloads bounce between cores",
     [](const RunSpec& spec) {
       auto rig = MakeBaseRig(spec);
       MemcachedConfig config;
       config.local_queue_fix = spec.local_tx_queue;
       rig->workload = std::make_unique<MemcachedWorkload>(rig->env.get(), config);
       rig->options.ibs_period_ops = 200;
       ApplySpec(*rig, spec);
       return rig;
     }},
};

}  // namespace

const ScenarioInfo* ScenarioRegistry::Find(const std::string& name) const {
  for (const ScenarioInfo& info : kScenarios) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  for (const ScenarioInfo& info : kScenarios) names.emplace_back(info.name);
  return names;
}

const ScenarioRegistry& ScenarioRegistry::Default() {
  static const ScenarioRegistry registry{};
  return registry;
}

std::unique_ptr<ScenarioRig> BuildScenarioRig(const ScenarioRegistry& registry,
                                              const std::string& name, const RunSpec& spec) {
  PinMmapThreshold();
  const ScenarioInfo* info = registry.Find(name);
  DPROF_CHECK(info != nullptr);

  std::unique_ptr<ScenarioRig> rig = info->factory(spec);
  DPROF_CHECK(rig != nullptr && rig->workload != nullptr);
  rig->workload->Install(*rig->machine);
  return rig;
}

namespace {

// RunScenarioRig's run: the session, the engine and the rig end with this
// call.
ScenarioReport RunRig(std::unique_ptr<ScenarioRig> rig, const std::string& name,
                      const RunSpec& spec) {
  // Validate the drill-down type before spending the run: workloads
  // register every type during rig construction / install.
  TypeId drill = kInvalidType;
  if (!spec.drill_type.empty()) {
    drill = rig->registry->Find(spec.drill_type);
    if (drill == kInvalidType) {
      ScenarioReport report;
      report.scenario = name;
      report.drill_type = spec.drill_type;
      report.drill_type_found = false;
      return report;
    }
    // Drilling into a mailbox-fed type: run the whole session under tight
    // epochs so the sampled miss profile of the studied type is not blurred
    // by epoch-batched mailbox delivery (the engine's one known drift from
    // the legacy loop). Other runs keep the cheap default epoch length.
    if (rig->machine->IsMailboxFedType(drill)) {
      rig->machine->SetEpochFocus(true);
    }
  }

  // Scenario runs execute on the epoch engine unless the caller asked for
  // the legacy loop baseline.
  std::unique_ptr<Engine> engine;
  if (spec.use_engine) {
    EngineConfig engine_config;
    engine_config.sampling.enabled = spec.sampled;
    if (spec.sampling_period > 0) {
      engine_config.sampling.period_cycles = spec.sampling_period;
    }
    if (spec.sampling_window > 0) {
      engine_config.sampling.window_cycles = spec.sampling_window;
    }
    engine_config.audit_epochs = spec.audit_epochs;
    if (spec.watchdog_stall_epochs > 0) {
      engine_config.watchdog_stall_epochs = spec.watchdog_stall_epochs;
    }
    if (spec.watchdog_wall_seconds > 0.0) {
      engine_config.watchdog_wall_seconds = spec.watchdog_wall_seconds;
    }
    engine = std::make_unique<Engine>(rig->machine.get(), engine_config);
    rig->machine->SetExecutor(engine.get());
  }

  DProfSession session(rig->machine.get(), rig->allocator.get(), rig->options);
  session.CollectAccessSamples(rig->collect_cycles);
  // A run that ended in a diagnostic during phase 1 reports what phase 1
  // saw: no history or drill-down sections, only the diagnostic.
  const bool run_healthy = engine == nullptr || engine->status().ok();
  if (spec.collect_histories && run_healthy) {
    session.CollectHistoriesForTopTypes(rig->top_types, rig->history_sets);
  }

  ScenarioReport drill_report_part;
  if (!spec.drill_type.empty() && run_healthy) {
    drill_report_part.drill_type = spec.drill_type;
    {
      drill_report_part.drill_type_found = true;
      if (session.histories(drill).empty()) {
        session.CollectHistories(drill, rig->history_sets);
      }
      std::vector<PathTrace> traces = session.BuildPathTraces(drill);
      std::sort(traces.begin(), traces.end(),
                [](const PathTrace& a, const PathTrace& b) { return a.frequency > b.frequency; });
      const size_t top_n = std::min<size_t>(traces.size(), 5);
      JsonWriter traces_json;
      traces_json.BeginArray();
      for (size_t i = 0; i < top_n; ++i) {
        drill_report_part.path_trace_text +=
            PathTraceBuilder::ToTable(traces[i], rig->machine->symbols()) + "\n";
        traces_json.Raw(PathTraceBuilder::ToJson(traces[i], rig->machine->symbols()));
      }
      traces_json.EndArray();
      drill_report_part.path_traces_json = traces_json.str();
    }
  }

  ScenarioReport report;
  if (engine != nullptr) {
    const EnginePhaseStats& stats = engine->phase_stats();
    report.engine_simulate_seconds = stats.simulate_seconds;
    report.engine_apply_seconds = stats.apply_seconds;
    report.engine_commit_seconds = stats.commit_seconds;
    report.engine_epochs = stats.epochs;
    report.status = engine->status();
    report.audits_run = engine->audits_run();
  }
  if (rig->faults != nullptr) {
    report.faults_enabled = true;
    report.fault_seed = rig->faults->config().seed;
    for (int i = 0; i < kNumFaultSeams; ++i) {
      const FaultSeam seam = static_cast<FaultSeam>(i);
      if (!rig->faults->enabled(seam)) {
        continue;
      }
      ScenarioReport::SeamCount count;
      count.seam = FaultSeamName(seam);
      count.injected = rig->faults->injected(seam);
      count.recovered = rig->faults->recovered(seam);
      report.fault_seams.push_back(std::move(count));
    }
    for (int q = 0; q < rig->env->num_tx_queues(); ++q) {
      report.mailbox_dropped += rig->env->tx_queue(q).dropped();
    }
  }
  if (engine != nullptr && engine->sampler() != nullptr) {
    const SamplingController& sc = *engine->sampler();
    report.sampling_violations = sc.violations();
    report.sampling_window_widened = sc.widened();
    report.sampling_exact_fallback = sc.exact_fallback();
    report.degraded = sc.violations() > 0;
  }
  report.drill_type = drill_report_part.drill_type;
  report.drill_type_found = drill_report_part.drill_type_found;
  report.path_trace_text = std::move(drill_report_part.path_trace_text);
  report.path_traces_json = std::move(drill_report_part.path_traces_json);
  report.scenario = name;
  report.cores = rig->machine->num_cores();
  report.num_sockets = rig->machine->hierarchy().num_sockets();
  report.collect_cycles = rig->collect_cycles;
  report.hierarchy = rig->machine->hierarchy().Totals();
  report.requests = rig->workload->CompletedRequests();
  report.throughput_rps = ThroughputRps(report.requests, rig->machine->MaxClock());
  report.access_samples = session.samples().total_samples();

  const DataProfile profile = session.BuildDataProfile();
  for (const DataProfileRow& row : profile.rows()) {
    ScenarioProfileRow out;
    out.type = row.name;
    out.miss_pct = row.miss_pct;
    out.working_set_bytes = row.working_set_bytes;
    out.bounce = row.bounce;
    out.samples = row.samples;
    out.avg_miss_latency = row.avg_miss_latency;
    report.profile.push_back(std::move(out));
  }
  report.profile_table = profile.ToTable(10);

  if (engine != nullptr && engine->sampler() != nullptr) {
    // Sampled run: scale the measured-window counters to full-run estimates
    // and attach intervals. The hierarchy totals only ever saw detailed
    // windows (fast-forward skips the lattice), so they ARE the
    // measured-window counters; the IBS sample table is likewise fed only
    // from detailed windows (counting hooks freeze across fast-forward).
    const SamplingController& sc = *engine->sampler();
    SamplingReport& s = report.sampling;
    s.enabled = true;
    s.period_cycles = sc.config().period_cycles;
    s.window_cycles = sc.config().window_cycles;
    s.seed = sc.config().seed;
    s.detailed_epochs = sc.detailed_epochs();
    s.ff_epochs = sc.ff_epochs();
    s.measured_accesses = sc.measured_accesses();
    s.ff_accesses = sc.ff_accesses();
    s.scale = sc.Scale();
    s.confidence = 0.99;
    s.l1_miss_rate =
        SamplingController::WilsonCI(report.hierarchy.l1_misses, report.hierarchy.accesses,
                                     SamplingController::kMissRateFloorPct);
    const uint64_t miss_samples = session.samples().l1_miss_samples();
    const auto by_type = session.samples().AggregateByType();
    for (const DataProfileRow& row : profile.rows()) {
      const auto it = by_type.find(row.type);
      const uint64_t k = it != by_type.end() ? it->second.l1_misses : 0;
      const SamplingInterval ci = SamplingController::WilsonCI(
          k, miss_samples, SamplingController::kTypeShareFloorPct);
      SamplingReport::TypeInterval out;
      out.type = row.name;
      out.miss_pct = row.miss_pct;
      out.ci_lo = ci.lo;
      out.ci_hi = ci.hi;
      out.miss_samples = k;
      s.types.push_back(std::move(out));
    }
  }

  const std::vector<MissClassRow> miss_rows = session.ClassifyMisses();
  report.miss_class_table = MissClassifier::ToTable(miss_rows);

  if (spec.build_view_json) {
    report.miss_class_json = MissClassifier::ToJson(miss_rows);
    report.working_set_json = session.BuildWorkingSet().ToJson();
    const std::vector<TypeId> top = profile.TopTypes(1);
    if (!top.empty() && !session.histories(top[0]).empty()) {
      report.top_type = rig->registry->Name(top[0]);
      report.data_flow_json = session.BuildDataFlow(top[0]).ToJson();
    }
  }
  return report;
}

}  // namespace

ScenarioReport RunScenarioRig(std::unique_ptr<ScenarioRig> rig, const std::string& name,
                              const RunSpec& spec) {
  ScenarioReport report = RunRig(std::move(rig), name, spec);
  ReleaseFreedHeap();
  return report;
}

ScenarioReport RunScenario(const ScenarioRegistry& registry, const std::string& name,
                           const RunSpec& spec) {
  return RunScenarioRig(BuildScenarioRig(registry, name, spec), name, spec);
}

std::string ScenarioReportToJson(const ScenarioReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("scenario").String(report.scenario);
  json.Key("cores").Int(report.cores);
  json.Key("collect_cycles").UInt(report.collect_cycles);
  json.Key("requests").UInt(report.requests);
  json.Key("throughput_rps").Number(report.throughput_rps);
  json.Key("access_samples").UInt(report.access_samples);
  json.Key("hierarchy").BeginObject();
  json.Key("accesses").UInt(report.hierarchy.accesses);
  json.Key("l1_hits").UInt(report.hierarchy.l1_hits);
  json.Key("l1_misses").UInt(report.hierarchy.l1_misses);
  json.Key("served").BeginArray();
  for (int i = 0; i < 5; ++i) {
    json.UInt(report.hierarchy.served[i]);
  }
  json.EndArray();
  json.Key("invalidation_misses").UInt(report.hierarchy.invalidation_misses);
  json.Key("tag_reclaims").UInt(report.hierarchy.tag_reclaims);
  json.Key("back_invalidations").UInt(report.hierarchy.back_invalidations);
  // NUMA counters exist only on multi-socket topologies; flat documents stay
  // byte-for-byte the pre-NUMA golden fingerprints.
  if (report.num_sockets > 1) {
    json.Key("num_sockets").Int(report.num_sockets);
    json.Key("remote_fills").UInt(report.hierarchy.remote_fills);
    json.Key("cross_socket_back_invalidations")
        .UInt(report.hierarchy.cross_socket_back_invalidations);
  }
  json.EndObject();
  // Emitted only on sampled runs, so exact-mode documents are byte-for-byte
  // what pre-sampling builds produced (golden fingerprints, whatif identity).
  if (report.sampling.enabled) {
    const SamplingReport& s = report.sampling;
    json.Key("sampling").BeginObject();
    json.Key("enabled").Bool(true);
    json.Key("period_cycles").UInt(s.period_cycles);
    json.Key("window_cycles").UInt(s.window_cycles);
    json.Key("seed").UInt(s.seed);
    json.Key("detailed_epochs").UInt(s.detailed_epochs);
    json.Key("ff_epochs").UInt(s.ff_epochs);
    json.Key("measured_accesses").UInt(s.measured_accesses);
    json.Key("ff_accesses").UInt(s.ff_accesses);
    json.Key("scale").Number(s.scale);
    json.Key("confidence").Number(s.confidence);
    json.Key("l1_miss_rate").BeginObject();
    json.Key("estimate").Number(s.l1_miss_rate.estimate);
    json.Key("ci_lo").Number(s.l1_miss_rate.lo);
    json.Key("ci_hi").Number(s.l1_miss_rate.hi);
    json.EndObject();
    json.Key("types").BeginArray();
    for (const SamplingReport::TypeInterval& t : s.types) {
      json.BeginObject();
      json.Key("type").String(t.type);
      json.Key("miss_pct").Number(t.miss_pct);
      json.Key("ci_lo").Number(t.ci_lo);
      json.Key("ci_hi").Number(t.ci_hi);
      json.Key("miss_samples").UInt(t.miss_samples);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  // Robustness blocks: emitted only when present, so healthy exact-mode
  // documents (with or without --audit) stay byte-for-byte the golden
  // fingerprints CI pins.
  if (report.faults_enabled) {
    json.Key("faults").BeginObject();
    json.Key("seed").UInt(report.fault_seed);
    json.Key("seams").BeginArray();
    for (const ScenarioReport::SeamCount& seam : report.fault_seams) {
      json.BeginObject();
      json.Key("seam").String(seam.seam);
      json.Key("injected").UInt(seam.injected);
      json.Key("recovered").UInt(seam.recovered);
      json.EndObject();
    }
    json.EndArray();
    json.Key("mailbox_dropped").UInt(report.mailbox_dropped);
    json.Key("audits_run").UInt(report.audits_run);
    json.EndObject();
  }
  if (report.degraded) {
    json.Key("degraded").BeginObject();
    json.Key("sampling_violations").UInt(report.sampling_violations);
    json.Key("sampling_window_widened").Bool(report.sampling_window_widened);
    json.Key("sampling_exact_fallback").Bool(report.sampling_exact_fallback);
    json.EndObject();
  }
  if (!report.status.ok()) {
    json.Key("error").BeginObject();
    json.Key("code").String(StatusCodeName(report.status.code()));
    json.Key("seam").String(report.status.seam());
    json.Key("message").String(report.status.message());
    json.EndObject();
  }
  json.Key("profile").BeginArray();
  for (const ScenarioProfileRow& row : report.profile) {
    json.BeginObject();
    json.Key("type").String(row.type);
    json.Key("miss_pct").Number(row.miss_pct);
    json.Key("working_set_bytes").Number(row.working_set_bytes);
    json.Key("bounce").Bool(row.bounce);
    json.Key("samples").UInt(row.samples);
    json.Key("avg_miss_latency").Number(row.avg_miss_latency);
    json.EndObject();
  }
  json.EndArray();
  json.Key("views").BeginObject();
  if (!report.working_set_json.empty()) {
    json.Key("working_set").Raw(report.working_set_json);
  }
  if (!report.miss_class_json.empty()) {
    json.Key("miss_classification").Raw(report.miss_class_json);
  }
  if (!report.data_flow_json.empty()) {
    json.Key("data_flow_type").String(report.top_type);
    json.Key("data_flow").Raw(report.data_flow_json);
  }
  if (!report.drill_type.empty()) {
    json.Key("path_trace_type").String(report.drill_type);
    json.Key("path_traces").Raw(report.drill_type_found && !report.path_traces_json.empty()
                                    ? report.path_traces_json
                                    : "[]");
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace dprof
