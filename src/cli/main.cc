// The unified dprof driver.
//
//   dprof list                      — scenarios and benches with descriptions
//   dprof run <scenario> [flags]    — profile a scenario, print the summary
//   dprof whatif <scenario> [flags] — re-run with candidate fixes, rank gains
//   dprof bench <name> [flags]      — run a registered benchmark
//   dprof crashtest [flags]         — fault-injection matrix: every scenario
//                                     x every seam must recover or produce a
//                                     structured diagnostic, never crash
//
// All subcommands share one flag parser that fills a RunSpec; each declares
// which flags it honours, so an inapplicable flag errors instead of being
// silently ignored.
//
// Flags:
//   --json             machine-readable output (run, whatif, bench)
//   --cores N          simulated cores (run, whatif; default 16)
//   --topology NAME    machine topology preset (run, whatif): paper-amd
//                      (4 sockets x 4 cores, 4MB L3 slice each) or big
//                      (4 sockets x 16 cores, 16MB slices); overrides --cores
//   --cycles N         phase-1 collection length in simulated cycles
//   --threads N        whatif: parallel candidate experiments (default 0 =
//                      hardware concurrency; output is bit-identical for
//                      every value)
//   --type NAME        run: per-type path-trace drill-down;
//                      whatif: the type the next --fix applies to
//   --fix KIND         whatif: candidate transform for the preceding --type
//                      (pad_to_line, align, recolor, replicate, pin_home,
//                      identity); repeatable
//   --auto             whatif: search top profiled types x all fixes
//   --top N            whatif --auto: how many profiled types it explores
//                      (default 3)
//   --local-tx-queue   apply the memcached §6.1 workload fix: transmit on
//                      the receiving core's queue (run, whatif)
//   --admission-control apply the apache §6.2 workload fix: cap accepted
//                      connections (run, whatif)
//   --legacy-loop      run on the legacy sequential loop instead of the
//                      epoch engine (run; the validation baseline; not
//                      combinable with the engine-only --sampled, --audit
//                      and --watchdog-* flags)
//   --sampled          statistical fast-forward: alternate short detailed
//                      windows with functional-only stretches and report
//                      scaled estimates with confidence intervals (run,
//                      whatif; deterministic per seed)
//   --sampling-period N  cycles between detailed windows (default 400000)
//   --sampling-window N  detailed-window length in cycles (default 20000)
//   --audit N          verify the tag-lattice invariants every N engine
//                      epochs; violations end the run with a structured
//                      diagnostic (run; healthy output is byte-identical
//                      with or without auditing)
//   --fault SEAMS      deterministic fault injection: comma-separated seam
//                      list or "all" (run; see `dprof crashtest` for names)
//   --fault-seed N     seed salting every fault decision (run)
//   --watchdog-stall-epochs N  end the run with a diagnostic after N epochs
//                      without clock progress (run; default 256)
//   --watchdog-seconds X  wall-clock budget before the watchdog ends the
//                      run with a diagnostic (run; default 300)
//   --seed N           machine seed (default 1; not for paper reproductions,
//                      which fix their own)
//   --scale X          bench iteration scale factor (default 1.0; not for
//                      paper reproductions)

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/cli/bench_registry.h"
#include "src/cli/crashtest.h"
#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {
namespace {

int Usage(FILE* out) {
  std::fprintf(out,
               "usage: dprof <command> [args]\n"
               "\n"
               "commands:\n"
               "  list                        list scenarios and benches\n"
               "  run <scenario> [flags]      profile a scenario end to end\n"
               "  whatif <scenario> [flags]   rank candidate fixes by measured gain\n"
               "  bench <name> [flags]        run a registered benchmark\n"
               "  crashtest [flags]           scenario x fault-seam recovery matrix\n"
               "\n"
               "flags:\n"
               "  --json        machine-readable output\n"
               "  --cores N     simulated cores (run, whatif; default 16)\n"
               "  --topology NAME  preset: paper-amd or big (run, whatif)\n"
               "  --cycles N    phase-1 collection cycles (run, whatif)\n"
               "  --type NAME   drill-down type (run) / transform target (whatif)\n"
               "  --fix KIND    candidate transform for the preceding --type (whatif)\n"
               "  --auto        search top profiled types x all fixes (whatif)\n"
               "  --top N       types --auto explores (whatif; default 3)\n"
               "  --threads N   parallel candidate experiments (whatif; 0 = all cores)\n"
               "  --local-tx-queue    memcached core-local transmit fix\n"
               "  --admission-control apache admission-control fix\n"
               "  --legacy-loop run on the legacy loop, not the engine (run)\n"
               "  --sampled     statistical fast-forward with confidence intervals\n"
               "  --sampling-period N  cycles between detailed windows (sampled)\n"
               "  --sampling-window N  detailed-window length in cycles (sampled)\n"
               "  --audit N     verify tag-lattice invariants every N epochs (run)\n"
               "  --fault SEAMS comma-separated fault seams, or 'all' (run)\n"
               "  --fault-seed N  seed for fault decisions (run)\n"
               "  --watchdog-stall-epochs N  stall budget before diagnostic (run)\n"
               "  --watchdog-seconds X  wall-clock budget before diagnostic (run)\n"
               "  --seed N      machine seed (default 1)\n"
               "  --scale X     bench iteration scale (bench; default 1.0)\n"
               "  --help, -h    print this text (any command)\n");
  return out == stdout ? 0 : 2;
}

struct ParsedFlags {
  bool json = false;
  int cores = 16;
  std::string topology;
  uint64_t cycles = 0;
  uint64_t seed = 1;
  double scale = 1.0;
  int threads = 0;
  bool legacy_loop = false;
  bool local_tx_queue = false;
  bool admission_control = false;
  bool sampled = false;
  uint64_t sampling_period = 0;
  uint64_t sampling_window = 0;
  uint64_t audit = 0;
  std::string fault_seams;
  uint64_t fault_seed = 0;
  uint64_t watchdog_stall_epochs = 0;
  double watchdog_seconds = 0.0;
  std::string drill_type;
  // whatif candidate selection.
  bool auto_search = false;
  uint64_t top = 0;  // 0 = not given: --auto explores 3 types
  std::vector<WhatIfCandidate> candidates;
};

// The one place flags become a run request: every subcommand that runs a
// scenario builds its RunSpec here.
RunSpec SpecFromFlags(const ParsedFlags& flags) {
  RunSpec spec;
  spec.cores = flags.cores;
  spec.topology = flags.topology;
  spec.seed = flags.seed;
  spec.collect_cycles = flags.cycles;
  spec.threads = flags.threads;
  spec.use_engine = !flags.legacy_loop;
  spec.build_view_json = flags.json;
  spec.local_tx_queue = flags.local_tx_queue;
  spec.admission_control = flags.admission_control;
  spec.sampled = flags.sampled;
  spec.sampling_period = flags.sampling_period;
  spec.sampling_window = flags.sampling_window;
  spec.audit_epochs = flags.audit;
  spec.fault_seams = flags.fault_seams;
  spec.fault_seed = flags.fault_seed;
  spec.watchdog_stall_epochs = flags.watchdog_stall_epochs;
  spec.watchdog_wall_seconds = flags.watchdog_seconds;
  return spec;
}

// Strict unsigned decimal parse; rejects empty values and trailing garbage
// (so "--cycles 2e6" errors instead of silently running 2 cycles).
bool ParseUInt(const char* flag, const char* value, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr, "dprof: %s expects a non-negative integer, got '%s'\n", flag,
                 value);
    return false;
  }
  *out = parsed;
  return true;
}

// Returns false (after printing a diagnostic) on malformed or, for this
// command, inapplicable flags. `allowed` is the space-separated flag list the
// current subcommand honours, so e.g. `bench --cores 4` errors instead of
// silently running the default geometry.
bool ParseFlags(const std::vector<std::string>& args, size_t start, std::string_view allowed,
                ParsedFlags* flags) {
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dprof: %s requires a value\n", flag);
        return nullptr;
      }
      return args[++i].c_str();
    };
    // Exact-token membership in the space-separated `allowed` list ("--c"
    // must not pass as a prefix of "--cores").
    bool flag_allowed = false;
    for (size_t pos = 0; pos < allowed.size();) {
      const size_t space = allowed.find(' ', pos);
      const std::string_view token = allowed.substr(
          pos, space == std::string_view::npos ? allowed.size() - pos : space - pos);
      if (token == arg) {
        flag_allowed = true;
        break;
      }
      if (space == std::string_view::npos) break;
      pos = space + 1;
    }
    if (!flag_allowed) {
      std::fprintf(stderr, "dprof: unknown flag '%s' (accepted here: %s)\n", arg.c_str(),
                   std::string(allowed).c_str());
      return false;
    }
    if (arg == "--legacy-loop") {
      flags->legacy_loop = true;
    } else if (arg == "--topology") {
      const char* v = next_value("--topology");
      if (v == nullptr) return false;
      flags->topology = v;
    } else if (arg == "--json") {
      flags->json = true;
    } else if (arg == "--auto") {
      flags->auto_search = true;
    } else if (arg == "--local-tx-queue") {
      flags->local_tx_queue = true;
    } else if (arg == "--admission-control") {
      flags->admission_control = true;
    } else if (arg == "--sampled") {
      flags->sampled = true;
    } else if (arg == "--sampling-period") {
      const char* v = next_value("--sampling-period");
      if (v == nullptr || !ParseUInt("--sampling-period", v, &flags->sampling_period))
        return false;
      if (flags->sampling_period == 0) {
        std::fprintf(stderr, "dprof: --sampling-period must be positive\n");
        return false;
      }
    } else if (arg == "--sampling-window") {
      const char* v = next_value("--sampling-window");
      if (v == nullptr || !ParseUInt("--sampling-window", v, &flags->sampling_window))
        return false;
      if (flags->sampling_window == 0) {
        std::fprintf(stderr, "dprof: --sampling-window must be positive\n");
        return false;
      }
    } else if (arg == "--scenario") {
      // Already consumed by FindScenarioArg; skip the value token.
      if (next_value("--scenario") == nullptr) return false;
    } else if (arg == "--cores") {
      const char* v = next_value("--cores");
      uint64_t cores = 0;
      if (v == nullptr || !ParseUInt("--cores", v, &cores)) return false;
      // Range check (against the simulated machine's real core limit, not a
      // parser-local guess) happens in ValidateRunSpec.
      if (cores > 4096) {
        std::fprintf(stderr, "dprof: --cores expects a small integer, got '%s'\n", v);
        return false;
      }
      flags->cores = static_cast<int>(cores);
    } else if (arg == "--audit") {
      const char* v = next_value("--audit");
      if (v == nullptr || !ParseUInt("--audit", v, &flags->audit)) return false;
      if (flags->audit == 0) {
        std::fprintf(stderr,
                     "dprof: --audit expects the positive epoch period between "
                     "invariant audits\n");
        return false;
      }
    } else if (arg == "--fault") {
      const char* v = next_value("--fault");
      if (v == nullptr) return false;
      flags->fault_seams = v;
    } else if (arg == "--fault-seed") {
      const char* v = next_value("--fault-seed");
      if (v == nullptr || !ParseUInt("--fault-seed", v, &flags->fault_seed)) return false;
    } else if (arg == "--watchdog-stall-epochs") {
      const char* v = next_value("--watchdog-stall-epochs");
      if (v == nullptr ||
          !ParseUInt("--watchdog-stall-epochs", v, &flags->watchdog_stall_epochs))
        return false;
      if (flags->watchdog_stall_epochs == 0) {
        std::fprintf(stderr, "dprof: --watchdog-stall-epochs must be positive\n");
        return false;
      }
    } else if (arg == "--watchdog-seconds") {
      const char* v = next_value("--watchdog-seconds");
      if (v == nullptr) return false;
      char* end = nullptr;
      flags->watchdog_seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(flags->watchdog_seconds > 0.0)) {
        std::fprintf(stderr, "dprof: --watchdog-seconds must be a positive number\n");
        return false;
      }
    } else if (arg == "--cycles") {
      const char* v = next_value("--cycles");
      if (v == nullptr || !ParseUInt("--cycles", v, &flags->cycles)) return false;
      if (flags->cycles == 0) {
        // 0 is the "use the scenario default" sentinel internally; accepting
        // it here would silently run the 40M-cycle default.
        std::fprintf(stderr, "dprof: --cycles must be positive\n");
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next_value("--seed");
      if (v == nullptr || !ParseUInt("--seed", v, &flags->seed)) return false;
    } else if (arg == "--threads") {
      const char* v = next_value("--threads");
      uint64_t threads = 0;
      if (v == nullptr || !ParseUInt("--threads", v, &threads)) return false;
      if (threads > 1024) {
        std::fprintf(stderr, "dprof: --threads must be in [0, 1024]\n");
        return false;
      }
      flags->threads = static_cast<int>(threads);
    } else if (arg == "--top") {
      const char* v = next_value("--top");
      if (v == nullptr || !ParseUInt("--top", v, &flags->top)) return false;
      if (flags->top == 0 || flags->top > 64) {
        std::fprintf(stderr, "dprof: --top must be in [1, 64]\n");
        return false;
      }
    } else if (arg == "--type") {
      const char* v = next_value("--type");
      if (v == nullptr) return false;
      flags->drill_type = v;
    } else if (arg == "--fix") {
      const char* v = next_value("--fix");
      if (v == nullptr) return false;
      TypeTransformKind kind;
      int param = -1;
      if (!ParseTypeTransformSpec(v, &kind, &param)) {
        std::fprintf(stderr,
                     "dprof: unknown fix '%s' (one of: identity, pad_to_line, align, "
                     "recolor, replicate, pin_home[@socket])\n",
                     v);
        return false;
      }
      if (flags->drill_type.empty()) {
        std::fprintf(stderr, "dprof: --fix requires a preceding --type\n");
        return false;
      }
      flags->candidates.push_back(WhatIfCandidate{flags->drill_type, kind, param});
    } else if (arg == "--scale") {
      const char* v = next_value("--scale");
      if (v == nullptr) return false;
      char* end = nullptr;
      flags->scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(flags->scale > 0.0)) {
        std::fprintf(stderr, "dprof: --scale must be a positive number\n");
        return false;
      }
    }
  }
  return true;
}

// Scenarios and benches share one description column, as wide as the
// longest name.
int CmdList() {
  ScenarioRegistry& scenarios = ScenarioRegistry::Default();
  BenchRegistry& benches = BenchRegistry::Default();
  int width = 0;
  for (const std::vector<std::string>& names : {scenarios.Names(), benches.Names()}) {
    for (const std::string& name : names) {
      width = std::max(width, static_cast<int>(name.size()));
    }
  }
  std::printf("scenarios:\n");
  for (const std::string& name : scenarios.Names()) {
    std::printf("  %-*s %s\n", width, name.c_str(), scenarios.Find(name)->description.c_str());
  }
  std::printf("\nbenches:\n");
  for (const std::string& name : benches.Names()) {
    std::printf("  %-*s %s\n", width, name.c_str(), benches.Find(name)->description.c_str());
  }
  return 0;
}

// Scenario-name lookup shared by run and whatif. `args[2]` may be the name,
// or a `--scenario NAME` flag anywhere after the subcommand; `*flag_start`
// receives the index where flag parsing begins.
bool FindScenarioArg(const std::vector<std::string>& args, std::string* name,
                     size_t* flag_start) {
  *flag_start = 2;
  if (args.size() > 2 && args[2].rfind("--", 0) != 0) {
    *name = args[2];
    *flag_start = 3;
  } else {
    for (size_t i = 2; i + 1 < args.size(); ++i) {
      if (args[i] == "--scenario") {
        *name = args[i + 1];
        break;
      }
    }
  }
  if (name->empty()) {
    std::fprintf(stderr, "dprof: %s requires a scenario name\n", args[1].c_str());
    return false;
  }
  if (!ScenarioRegistry::Default().Has(*name)) {
    std::fprintf(stderr, "dprof: unknown scenario '%s'; try 'dprof list'\n", name->c_str());
    return false;
  }
  return true;
}

int CmdRun(const std::vector<std::string>& args) {
  std::string name;
  size_t flag_start = 0;
  if (!FindScenarioArg(args, &name, &flag_start)) return 2;
  ParsedFlags flags;
  if (!ParseFlags(args, flag_start,
                  "--json --cores --topology --cycles --type --seed "
                  "--legacy-loop --local-tx-queue --admission-control "
                  "--sampled --sampling-period --sampling-window --audit --fault "
                  "--fault-seed --watchdog-stall-epochs --watchdog-seconds --scenario",
                  &flags))
    return 2;

  RunSpec spec = SpecFromFlags(flags);
  spec.drill_type = flags.drill_type;
  const std::string spec_error = ValidateRunSpec(spec);
  if (!spec_error.empty()) {
    std::fprintf(stderr, "dprof: %s\n", spec_error.c_str());
    return 2;
  }
  const ScenarioReport report = RunScenario(ScenarioRegistry::Default(), name, spec);
  if (!report.drill_type.empty() && !report.drill_type_found) {
    std::fprintf(stderr, "dprof: scenario '%s' has no type named '%s'\n", name.c_str(),
                 report.drill_type.c_str());
    return 2;
  }

  if (flags.json) {
    // On a diagnostic ending, the document still prints — it carries the
    // structured "error" block — but the exit code says the run failed.
    std::printf("%s\n", ScenarioReportToJson(report).c_str());
    return report.status.ok() ? 0 : 1;
  }
  std::printf("scenario: %s (%d cores, %llu cycles)\n", report.scenario.c_str(),
              report.cores, static_cast<unsigned long long>(report.collect_cycles));
  std::printf("requests: %llu (%.0f req/s), access samples: %llu\n\n",
              static_cast<unsigned long long>(report.requests), report.throughput_rps,
              static_cast<unsigned long long>(report.access_samples));
  std::printf("== data profile ==\n%s\n", report.profile_table.c_str());
  std::printf("== miss classification ==\n%s\n", report.miss_class_table.c_str());
  if (!report.drill_type.empty()) {
    if (report.path_trace_text.empty()) {
      std::printf("== path traces: %s ==\n(no histories collected)\n",
                  report.drill_type.c_str());
    } else {
      std::printf("== path traces: %s ==\n%s", report.drill_type.c_str(),
                  report.path_trace_text.c_str());
    }
  }
  if (report.degraded) {
    std::printf("note: sampled run degraded (%llu honesty violations%s%s)\n",
                static_cast<unsigned long long>(report.sampling_violations),
                report.sampling_window_widened ? ", window widened" : "",
                report.sampling_exact_fallback ? ", exact fallback" : "");
  }
  if (!report.status.ok()) {
    std::fprintf(stderr, "dprof: run ended in diagnostic: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdWhatIf(const std::vector<std::string>& args) {
  std::string name;
  size_t flag_start = 0;
  if (!FindScenarioArg(args, &name, &flag_start)) return 2;
  ParsedFlags flags;
  if (!ParseFlags(args, flag_start,
                  "--json --cores --topology --cycles --threads --seed --scenario "
                  "--type --fix --auto --top --local-tx-queue --admission-control "
                  "--sampled --sampling-period --sampling-window",
                  &flags))
    return 2;
  if (flags.auto_search == !flags.candidates.empty()) {
    std::fprintf(stderr,
                 "dprof: whatif needs either --auto or at least one --type/--fix pair\n");
    return 2;
  }
  if (flags.top > 0 && !flags.auto_search) {
    std::fprintf(stderr, "dprof: --top applies only to --auto\n");
    return 2;
  }

  ScenarioRegistry& registry = ScenarioRegistry::Default();
  const RunSpec spec = SpecFromFlags(flags);
  const std::string spec_error = ValidateRunSpec(spec);
  if (!spec_error.empty()) {
    std::fprintf(stderr, "dprof: %s\n", spec_error.c_str());
    return 2;
  }
  HierarchyConfig topo_probe;
  ApplyTopologyPreset(spec.topology, &topo_probe);
  for (const WhatIfCandidate& candidate : flags.candidates) {
    if (candidate.kind == TypeTransformKind::kPinHome &&
        candidate.param >= topo_probe.num_sockets) {
      std::fprintf(stderr, "dprof: pin_home@%d names a socket this topology lacks (%d)\n",
                   candidate.param, topo_probe.num_sockets);
      return 2;
    }
  }
  const WhatIfReport report =
      flags.auto_search ? RunWhatIfAuto(registry, name, spec, flags.top > 0 ? flags.top : 3)
                        : RunWhatIf(registry, name, spec, flags.candidates);
  if (report.outcomes.empty()) {
    std::fprintf(stderr, "dprof: scenario '%s' produced no profiled types\n", name.c_str());
    return 1;
  }
  if (flags.json) {
    std::printf("%s\n", WhatIfReportToJson(report).c_str());
    return 0;
  }
  std::printf("scenario: %s (%d cores, %llu cycles)\n", report.scenario.c_str(),
              report.cores, static_cast<unsigned long long>(report.collect_cycles));
  std::printf("baseline: %llu requests (%.0f req/s)\n",
              static_cast<unsigned long long>(report.baseline_requests),
              report.baseline_rps);
  const size_t experiments = report.outcomes.size() + 1;
  std::printf("ran %zu of %zu experiments (%zu share a layout with another)\n\n",
              report.experiments_run, experiments, experiments - report.experiments_run);
  std::printf("== estimated gain per candidate fix ==\n%s",
              WhatIfReportToTable(report).c_str());
  return 0;
}

int CmdBench(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    std::fprintf(stderr, "dprof: bench requires a bench name\n");
    return 2;
  }
  const std::string& name = args[2];
  BenchRegistry& registry = BenchRegistry::Default();
  const BenchInfo* info = registry.Find(name);
  if (info == nullptr) {
    std::fprintf(stderr, "dprof: unknown bench '%s'; try 'dprof list'\n", name.c_str());
    return 2;
  }
  ParsedFlags flags;
  if (!ParseFlags(args, 3, info->reproduction ? "--json" : "--json --scale --seed", &flags))
    return 2;

  BenchParams params;
  params.scale = flags.scale;
  params.seed = flags.seed;
  const BenchReport report = info->fn(params);
  if (flags.json) {
    std::printf("%s\n", BenchReportToJson(report).c_str());
  } else {
    std::printf("%s", BenchReportToText(report).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  if (args.size() < 2) return Usage(stderr);
  const std::string& command = args[1];
  const auto is_help = [](const std::string& arg) { return arg == "--help" || arg == "-h"; };
  if (command == "help" || std::any_of(args.begin() + 1, args.end(), is_help)) {
    return Usage(stdout);
  }
  if (command == "list") return CmdList();
  if (command == "run") return CmdRun(args);
  if (command == "whatif") return CmdWhatIf(args);
  if (command == "bench") return CmdBench(args);
  if (command == "crashtest") return CmdCrashtest(args);
  std::fprintf(stderr, "dprof: unknown command '%s'\n", command.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace dprof

int main(int argc, char** argv) { return dprof::Main(argc, argv); }
