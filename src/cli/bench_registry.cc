#include "src/cli/bench_registry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_common.h"
#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"
#include "src/machine/engine.h"
#include "src/sim/hierarchy.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/workload/kernel.h"
#include "src/workload/memcached.h"

namespace dprof {

namespace {

using Clock = std::chrono::steady_clock;

// Benches reuse the scenario rig assembly so machine wiring lives in exactly
// one place (MakeBaseRig).
std::unique_ptr<ScenarioRig> MakeRig(int cores, uint64_t seed) {
  RunSpec params;
  params.cores = cores;
  params.seed = seed;
  return MakeBaseRig(params);
}

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// Times `iters` calls of `op` and returns host nanoseconds per call.
template <typename Op>
double TimePerOp(uint64_t iters, Op&& op) {
  const auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) op(i);
  return ElapsedNs(start) / static_cast<double>(iters);
}

uint64_t Scaled(double scale, uint64_t base) {
  const double scaled = scale * static_cast<double>(base);
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

// Host cost of the substrate primitives, plus the paper's §6.3/§6.4 cost
// constants so the baseline records the simulated-cost model in effect.
BenchReport RunMicroCosts(const BenchParams& params) {
  BenchReport report;
  report.bench = "micro_costs";

  {
    Cache cache(CacheGeometry{32 * 1024, 64, 8});
    for (uint64_t line = 0; line < 512; ++line) cache.Insert(line, line);
    volatile bool sink = false;
    const double ns = TimePerOp(Scaled(params.scale, 2'000'000), [&](uint64_t i) {
      sink = cache.Touch(i % 512, i);
    });
    report.metrics.push_back({"cache_touch", ns, "ns/op"});
  }

  {
    HierarchyConfig config;
    config.num_cores = 4;
    CacheHierarchy hierarchy(config);
    hierarchy.Access(0, 0x1000, 8, false, 0);
    const double ns = TimePerOp(Scaled(params.scale, 1'000'000), [&](uint64_t i) {
      hierarchy.Access(0, 0x1000, 8, false, i + 1);
    });
    report.metrics.push_back({"hierarchy_local_hit", ns, "ns/op"});
  }

  {
    auto rig = MakeRig(2, params.seed);
    Machine& machine = *rig->machine;
    const TypeId type = rig->registry->Register("bench_obj", 256);
    const FunctionId fn = machine.symbols().Intern("bench");
    CoreContext ctx = machine.Context(0);
    const double ns = TimePerOp(Scaled(params.scale, 200'000), [&](uint64_t) {
      const Addr a = ctx.Alloc(type, fn);
      ctx.Free(a, fn);
    });
    report.metrics.push_back({"slab_alloc_free", ns, "ns/op"});

    const Addr addr = ctx.Alloc(type, fn);
    volatile uint64_t sink = 0;
    const double resolve_ns = TimePerOp(Scaled(params.scale, 2'000'000), [&](uint64_t) {
      sink = rig->allocator->Resolve(addr + 128).type;
    });
    report.metrics.push_back({"resolve", resolve_ns, "ns/op"});
  }

  {
    auto rig = MakeRig(4, params.seed);
    Machine& machine = *rig->machine;
    MemcachedConfig mc;
    mc.rx_ring_entries = 32;
    MemcachedWorkload workload(rig->env.get(), mc);
    workload.Install(machine);
    const uint64_t steps = Scaled(params.scale, 50'000);
    const auto start = Clock::now();
    machine.RunSteps(steps);
    report.metrics.push_back(
        {"memcached_step", ElapsedNs(start) / static_cast<double>(steps), "ns/op"});
    report.metrics.push_back(
        {"memcached_sim_cycles_per_step",
         static_cast<double>(machine.MaxClock()) / static_cast<double>(steps), "cycles"});
  }

  const IbsConfig ibs;
  report.metrics.push_back(
      {"ibs_interrupt_cycles", static_cast<double>(ibs.interrupt_cycles), "cycles"});
  const DebugRegCostModel debug_costs;
  report.metrics.push_back({"watchpoint_interrupt_cycles",
                            static_cast<double>(debug_costs.interrupt_cycles), "cycles"});
  report.metrics.push_back({"debugreg_setup_initiator_cycles",
                            static_cast<double>(debug_costs.setup_initiator_cycles),
                            "cycles"});
  return report;
}

// Drives one access mix through the batch-apply interface the engine's
// apply pass uses: ops gather into per-core windows (flushed when the
// issuing core changes or the window fills, like a merge drain) and resolve
// via CacheHierarchy::ApplyBatch, so the measurement includes the per-span
// stat flush the real apply pass gets. `gen(i, &core, &addr, &size_w)`
// produces op i; one simulated cycle elapses per op. Returns host ns per
// access.
template <typename Gen>
double TimeBatchApply(CacheHierarchy& h, uint64_t* now, uint64_t ops, Gen&& gen) {
  constexpr uint32_t kWindow = 64;
  ApplyLane window[kWindow];
  uint32_t nw = 0;
  int window_core = 0;
  uint64_t base = 0;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    int core = 0;
    Addr addr = 0;
    uint32_t size_w = 0;
    gen(i, &core, &addr, &size_w);
    ++*now;
    if (core != window_core || nw == kWindow) {
      if (nw > 0) h.ApplyBatch(window_core, base, window, nw);
      nw = 0;
      window_core = core;
    }
    if (nw == 0) base = *now;
    window[nw++] = ApplyLane{addr, static_cast<uint32_t>(*now - base), size_w};
  }
  if (nw > 0) h.ApplyBatch(window_core, base, window, nw);
  return ElapsedNs(start) / static_cast<double>(ops);
}

// ns/access of the simulated cache hierarchy itself, per access mix, driven
// through the batch-apply path (the engine's apply-pass inner loop, ~70% of
// a `dprof run` since PR 3). CI gates regressions on the stable mixes via
// compare_bench.py --only.
BenchReport RunHierarchyBench(const BenchParams& params) {
  BenchReport report;
  report.bench = "hierarchy";
  HierarchyConfig config;
  config.num_cores = 16;
  CacheHierarchy h(config);
  uint64_t now = 0;
  const uint32_t line = config.l1.line_size;
  constexpr uint32_t kRead8 = 8;
  constexpr uint32_t kWrite8 = 8 | ApplyLane::kWriteBit;

  // Pure L1 read hits: 256 resident lines, one core.
  {
    for (uint64_t i = 0; i < 256; ++i) {
      h.Access(0, i * line, 8, false, ++now);
    }
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 4'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = 0;
          *addr = (i & 255) * line;
          *size_w = kRead8;
        });
    report.metrics.push_back({"l1_read_hit", ns, "ns/access"});
  }

  // L1 write hits on exclusively-owned lines (the write fast path).
  {
    for (uint64_t i = 0; i < 256; ++i) {
      h.Access(1, i * line, 8, true, ++now);
    }
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 4'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = 1;
          *addr = (i & 255) * line;
          *size_w = kWrite8;
        });
    report.metrics.push_back({"l1_write_hit", ns, "ns/access"});
  }

  // L2 hits: cycle a footprint larger than L1 (4096 lines = 256 KiB).
  {
    h.FlushAll();
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 2'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = 2;
          *addr = (i & 4095) * line;
          *size_w = kRead8;
        });
    report.metrics.push_back({"l2_hit", ns, "ns/access"});
  }

  // L3 hits: cycle a footprint larger than L2 (32768 lines = 2 MiB).
  {
    h.FlushAll();
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 1'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = 3;
          *addr = (i & 32767) * line;
          *size_w = kRead8;
        });
    report.metrics.push_back({"l3_hit", ns, "ns/access"});
  }

  // Cold DRAM misses: a stream of never-repeated lines (L3 fills + evictions
  // once the stream wraps past capacity).
  {
    h.FlushAll();
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 1'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = 4;
          *addr = (1ull << 32) + i * line;
          *size_w = kRead8;
        });
    report.metrics.push_back({"dram_miss", ns, "ns/access"});
  }

  // Invalidation ping-pong: four cores take turns writing the same 64 lines,
  // so every access is a remote-invalidation miss plus a write upgrade.
  {
    h.FlushAll();
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 1'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          *core = static_cast<int>((i >> 6) & 3);
          *addr = (2ull << 32) + (i & 63) * line;
          *size_w = kWrite8;
        });
    report.metrics.push_back({"invalidation_pingpong", ns, "ns/access"});
  }

  // Mixed: 16 cores in 16-op drains (the engine's apply merge hands the
  // hierarchy per-core runs, not per-op core rotation), pseudo-random lines
  // in a 4096-line shared footprint, 25% writes — every path (hits, fills,
  // upgrades, foreign fetches, invalidations) in one scenario-shaped
  // number.
  {
    h.FlushAll();
    Rng rng(params.seed);
    const double ns = TimeBatchApply(
        h, &now, Scaled(params.scale, 2'000'000),
        [&](uint64_t i, int* core, Addr* addr, uint32_t* size_w) {
          const uint64_t r = rng.Next();
          *core = static_cast<int>((i >> 4) & 15);
          *addr = (3ull << 32) + (r & 4095) * line;
          *size_w = (r >> 40) % 4 == 0 ? kWrite8 : kRead8;
        });
    report.metrics.push_back({"mixed", ns, "ns/access"});
  }

  // Geometric mean across the mixes: the headline ns/access figure the CI
  // regression gate watches.
  double log_sum = 0.0;
  for (const BenchMetric& metric : report.metrics) {
    log_sum += std::log(metric.value);
  }
  report.metrics.push_back(
      {"geomean", std::exp(log_sum / static_cast<double>(report.metrics.size())),
       "ns/access"});
  return report;
}

// Smoke-sized end-to-end run of the whatif engine: memcached at 8 cores,
// --auto over the top two profiled types. Emits one stable wall-clock row
// (whatif_smoke_seconds, CI-gated) plus one volatile delta row per
// candidate (whatif_candidate_*, SKIP-not-fail in compare_bench.py — the
// candidate set follows the profile ranking and may change release to
// release).
BenchReport RunWhatIfSmoke(const BenchParams& params) {
  BenchReport report;
  report.bench = "whatif_smoke";
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec;
  spec.cores = 8;
  spec.seed = params.seed;
  spec.collect_cycles = Scaled(params.scale, 2'000'000);

  const auto start = Clock::now();
  const WhatIfReport whatif = RunWhatIfAuto(registry, "memcached", spec, 2);
  report.metrics.push_back({"whatif_smoke_seconds", ElapsedNs(start) / 1e9, "s"});

  for (const WhatIfOutcome& out : whatif.outcomes) {
    report.metrics.push_back({"whatif_candidate_" + out.candidate.type + "_" +
                                  TypeTransformKindName(out.candidate.kind) + "_delta_pct",
                              out.delta_pct, "%"});
  }
  return report;
}

// Epoch-engine cost on the paper's 16-core memcached scenario: the full
// `dprof run` pipeline (phase-1 IBS collection + phase-2 histories + views)
// timed on the legacy sequential loop, the engine in exact mode, and the
// engine in sampled mode. The engine runs on one host thread; the
// `engine_threads1` row names are kept so bench comparisons span history.
BenchReport RunParallelEngine(const BenchParams& params) {
  BenchReport report;
  report.bench = "parallel_engine";
  const uint64_t cycles = Scaled(params.scale, 40'000'000);

  // Both sides time the same work: phase-1 collection, phase-2 histories
  // for the top types, the profile table, and miss classification (view
  // JSON rendering is skipped on both). The legacy baseline is the same
  // session pipeline on the step-the-minimum-clock-core loop.
  ScenarioReport last_report;
  auto run_once = [&](bool use_engine, bool sampled) {
    RunSpec sp;
    sp.cores = 16;
    sp.seed = params.seed;
    sp.collect_cycles = cycles;
    sp.use_engine = use_engine;
    sp.build_view_json = false;
    sp.sampled = sampled;
    const auto start = Clock::now();
    last_report = RunScenario(ScenarioRegistry::Default(), "memcached", sp);
    return ElapsedNs(start) / 1e9;
  };

  // Per-phase wall-clock breakdown rides along with each engine row, so
  // phase shares are measured rather than estimated.
  auto push_engine_run = [&report](const std::string& prefix, double seconds,
                                   const ScenarioReport& r) {
    report.metrics.push_back({prefix + "_seconds", seconds, "s"});
    report.metrics.push_back({prefix + "_simulate_seconds", r.engine_simulate_seconds, "s"});
    report.metrics.push_back({prefix + "_apply_seconds", r.engine_apply_seconds, "s"});
    report.metrics.push_back({prefix + "_commit_seconds", r.engine_commit_seconds, "s"});
  };

  const double legacy_s = run_once(false, false);
  const double engine_t1_s = run_once(true, false);
  const ScenarioReport t1 = last_report;
  report.metrics.push_back({"legacy_loop_seconds", legacy_s, "s"});
  push_engine_run("engine_threads1", engine_t1_s, t1);
  report.metrics.push_back(
      {"engine_threads1_epochs", static_cast<double>(t1.engine_epochs), "epochs"});

  // Sampled execution: the same pipeline with statistical fast-forward at
  // the default period/window — the speedup row is the sampled mode's
  // headline number.
  const double engine_sampled_s = run_once(true, true);
  push_engine_run("engine_sampled", engine_sampled_s, last_report);
  report.metrics.push_back(
      {"engine_sampled_speedup_vs_exact",
       engine_sampled_s > 0 ? engine_t1_s / engine_sampled_s : 0.0, "x"});

  // Unprofiled stretch: no session is attached, so the row isolates the
  // engine's record, apply and commit cost from profiling work.
  {
    auto rig = MakeRig(16, params.seed);
    Machine& machine = *rig->machine;
    MemcachedWorkload workload(rig->env.get(), MemcachedConfig{});
    workload.Install(machine);
    Engine engine(&machine);
    machine.SetExecutor(&engine);
    const auto start = Clock::now();
    machine.RunFor(cycles);
    report.metrics.push_back({"engine_threads1_unprofiled_seconds", ElapsedNs(start) / 1e9, "s"});
    machine.SetExecutor(nullptr);
  }
  return report;
}

}  // namespace

bool BenchRegistry::Register(const std::string& name, const std::string& description,
                             BenchFn fn, bool reproduction) {
  DPROF_CHECK(fn != nullptr);
  auto [it, inserted] =
      benches_.emplace(name, BenchInfo{name, description, std::move(fn), reproduction});
  (void)it;
  return inserted;
}

const BenchInfo* BenchRegistry::Find(const std::string& name) const {
  auto it = benches_.find(name);
  return it == benches_.end() ? nullptr : &it->second;
}

std::vector<std::string> BenchRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(benches_.size());
  for (const auto& [name, info] : benches_) {
    (void)info;
    names.push_back(name);
  }
  return names;
}

BenchRegistry& BenchRegistry::Default() {
  static BenchRegistry* registry = [] {
    auto* r = new BenchRegistry();
    RegisterBuiltinBenches(*r);
    return r;
  }();
  return *registry;
}

void RegisterBuiltinBenches(BenchRegistry& registry) {
  registry.Register("micro_costs",
                    "host cost of substrate primitives + paper cost constants",
                    RunMicroCosts);
  registry.Register("hierarchy",
                    "ns/access of the cache-hierarchy model per access mix "
                    "(hits, misses, invalidation ping-pong, mixed)",
                    RunHierarchyBench);
  registry.Register("parallel_engine",
                    "epoch-engine wall-clock: legacy loop vs exact vs sampled "
                    "on the 16-core memcached scenario",
                    RunParallelEngine);
  registry.Register("whatif_smoke",
                    "end-to-end `dprof whatif --auto` smoke on memcached "
                    "(top-2 types x all fixes, ranked deltas)",
                    RunWhatIfSmoke);

  // Paper reproductions (bench/*.cc): fixed seeds and lengths, rows as
  // `<view>.<row key>.<column>` metrics.
  static const struct {
    const char* name;
    const char* description;
    BenchReport (*fn)(const BenchParams&);
  } kReproductions[] = {
      {"table_6_1_memcached_profile", "paper Table 6.1: memcached data profile",
       RunTable61MemcachedProfile},
      {"table_6_2_lockstat_memcached", "paper Table 6.2: lock-stat under memcached",
       RunTable62LockstatMemcached},
      {"table_6_3_oprofile_memcached", "paper Table 6.3: function profile of memcached",
       RunTable63OprofileMemcached},
      {"table_6_4_6_5_apache_profile",
       "paper Tables 6.4/6.5: Apache data profiles at peak and drop-off",
       RunTable64And65ApacheProfile},
      {"table_6_6_lockstat_apache", "paper Table 6.6: lock-stat under Apache at drop-off",
       RunTable66LockstatApache},
      {"table_6_7_history_collection", "paper Table 6.7: history collection time and overhead",
       RunTable67HistoryCollection},
      {"table_6_8_history_rates", "paper Table 6.8: history collection rates",
       RunTable68HistoryRates},
      {"table_6_9_overhead_breakdown", "paper Table 6.9: history overhead breakdown",
       RunTable69OverheadBreakdown},
      {"table_6_10_pairwise", "paper Table 6.10: pairwise-sampling collection",
       RunTable610Pairwise},
      {"figure_6_1_dataflow_skbuff", "paper Figure 6-1: skbuff data flow view",
       RunFigure61DataflowSkbuff},
      {"figure_6_2_ibs_overhead", "paper Figure 6-2: IBS overhead vs sampling rate",
       RunFigure62IbsOverhead},
      {"figure_6_3_unique_paths", "paper Figure 6-3: unique paths vs history sets",
       RunFigure63UniquePaths},
      {"ablation_pairwise", "ablation: pairwise vs single-offset path reconstruction",
       RunAblationPairwise},
      {"ablation_sampling_rate", "ablation: data-profile fidelity vs IBS sampling rate",
       RunAblationSamplingRate},
      {"case_study_fixes", "paper §6.1/§6.2 fixes: req/s before and after", RunCaseStudyFixes},
  };
  for (const auto& r : kReproductions) {
    registry.Register(r.name, r.description, r.fn, /*reproduction=*/true);
  }
}

std::string BenchReportToJson(const BenchReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String(report.bench);
  if (!report.text.empty()) {
    json.Key("output").String(report.text);
  }
  json.Key("metrics").BeginArray();
  for (const BenchMetric& metric : report.metrics) {
    json.BeginObject();
    json.Key("name").String(metric.name);
    json.Key("value").Number(metric.value);
    json.Key("unit").String(metric.unit);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string BenchReportToText(const BenchReport& report) {
  std::string out = "bench: " + report.bench + "\n";
  if (!report.text.empty()) {
    out += report.text;
    if (out.back() != '\n') {
      out += '\n';
    }
  }
  for (const BenchMetric& metric : report.metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %14.2f %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace dprof
