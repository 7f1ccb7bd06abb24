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
// Every flag is one row of kFlags: its name, how its value is read, the
// commands that take it, its --help line, and the field it sets. Parsing
// writes straight into the RunSpec the command runs, and a flag the command
// does not take is an error, never silently ignored.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/cli/bench_registry.h"
#include "src/cli/crashtest.h"
#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {
namespace {

// What one command line asks for: the RunSpec its flags fill, plus the few
// values only the CLI reads. Deriving from RunSpec lets one member-pointer
// type name a RunSpec field and a CLI-only value alike.
struct Request : RunSpec {
  std::string scenario;
  bool json = false;
  bool auto_search = false;
  uint64_t top = 0;  // 0 = not given: --auto explores 3 types
  double scale = 1.0;
  std::vector<WhatIfCandidate> candidates;
  bool type_unpaired = false;  // the last --type has no --fix after it
};

// The commands a flag belongs to, as bits. A reproduction bench takes
// --json only, so it is a command of its own.
enum Command : unsigned {
  kRun = 1u << 0,
  kWhatIf = 1u << 1,
  kBench = 1u << 2,
  kReproduction = 1u << 3,
  kCrashtest = 1u << 4,
};

enum class Kind {
  kSwitch,        // takes no value; sets its bool
  kSwitchOff,     // takes no value; clears its bool
  kUnsigned,      // decimal integer that fits its field
  kPositive,      // kUnsigned whose 0 is the field's "use the default" sentinel
  kPositiveReal,  // number > 0
  kString,
  // Stateful, no field of their own: --scenario names the scenario once;
  // --type sets the drill-down type (run) or the type the next --fix
  // applies to (whatif); --fix appends a candidate for the last --type.
  kScenario,
  kType,
  kFix,
};

using Field = std::variant<std::monostate, bool Request::*, int Request::*, uint64_t Request::*,
                           double Request::*, std::string Request::*>;

struct FlagInfo {
  const char* name;
  const char* value;  // the value's name in --help; "" for a switch
  Kind kind;
  unsigned commands;
  const char* help;
  Field field;
};

constexpr unsigned kScenarioRuns = kRun | kWhatIf;

const FlagInfo kFlags[] = {
    {"--json", "", Kind::kSwitch, kScenarioRuns | kBench | kReproduction | kCrashtest,
     "machine-readable output", &Request::json},
    {"--scenario", "NAME", Kind::kScenario, kScenarioRuns,
     "the scenario, when not named right after the command", {}},
    {"--cores", "N", Kind::kUnsigned, kScenarioRuns, "simulated cores (default 16)",
     &Request::cores},
    {"--topology", "NAME", Kind::kString, kScenarioRuns,
     "machine preset, overrides --cores: paper-amd (4 sockets x 4 cores)\n"
     "or big (4 sockets x 16 cores)",
     &Request::topology},
    {"--cycles", "N", Kind::kPositive, kScenarioRuns,
     "phase-1 collection length in simulated cycles", &Request::collect_cycles},
    {"--seed", "N", Kind::kUnsigned, kScenarioRuns | kBench,
     "machine seed (default 1; not for reproductions)", &Request::seed},
    {"--threads", "N", Kind::kUnsigned, kWhatIf,
     "parallel candidate experiments (0 = all cores);\n"
     "the output is identical for every value",
     &Request::threads},
    {"--type", "NAME", Kind::kType, kScenarioRuns,
     "drill-down type (run) / the next --fix's target (whatif)", {}},
    {"--fix", "KIND", Kind::kFix, kWhatIf,
     "candidate transform for the last --type; repeatable: identity,\n"
     "pad_to_line, align, recolor, replicate or pin_home[@socket]",
     {}},
    {"--auto", "", Kind::kSwitch, kWhatIf, "search the top profiled types x all fixes",
     &Request::auto_search},
    {"--top", "N", Kind::kPositive, kWhatIf, "types --auto explores (default 3)", &Request::top},
    {"--local-tx-queue", "", Kind::kSwitch, kScenarioRuns,
     "memcached fix (paper 6.1): core-local transmit queue", &Request::local_tx_queue},
    {"--admission-control", "", Kind::kSwitch, kScenarioRuns,
     "apache fix (paper 6.2): cap accepted connections", &Request::admission_control},
    {"--legacy-loop", "", Kind::kSwitchOff, kRun,
     "run on the legacy sequential loop, not the epoch engine", &Request::use_engine},
    {"--sampled", "", Kind::kSwitch, kScenarioRuns,
     "statistical fast-forward with confidence intervals", &Request::sampled},
    {"--sampling-period", "N", Kind::kPositive, kScenarioRuns,
     "cycles between detailed windows (default 400000)", &Request::sampling_period},
    {"--sampling-window", "N", Kind::kPositive, kScenarioRuns,
     "detailed-window length in cycles (default 20000)", &Request::sampling_window},
    {"--audit", "N", Kind::kPositive, kRun, "verify tag-lattice invariants every N epochs",
     &Request::audit_epochs},
    {"--fault", "SEAMS", Kind::kString, kRun,
     "comma-separated fault seams, or 'all' (names: dprof crashtest)", &Request::fault_seams},
    {"--fault-seed", "N", Kind::kUnsigned, kRun, "seed for fault decisions",
     &Request::fault_seed},
    {"--watchdog-stall-epochs", "N", Kind::kPositive, kRun,
     "epochs without clock progress before a diagnostic (default 256)",
     &Request::watchdog_stall_epochs},
    {"--watchdog-seconds", "X", Kind::kPositiveReal, kRun,
     "wall-clock budget before a diagnostic (default 300)", &Request::watchdog_wall_seconds},
    {"--scale", "X", Kind::kPositiveReal, kBench,
     "bench iteration scale (default 1.0; not for reproductions)", &Request::scale},
};

// The commands --help names after each flag; a reproduction bench is a
// bench there.
constexpr std::pair<Command, const char*> kCommandNames[] = {
    {kRun, "run"}, {kWhatIf, "whatif"}, {kBench, "bench"}, {kCrashtest, "crashtest"}};

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
               "flags [the commands that take them]:\n");
  for (const FlagInfo& flag : kFlags) {
    std::string commands;
    for (const auto& [bit, name] : kCommandNames) {
      if (flag.commands & bit) commands += commands.empty() ? name : std::string(", ") + name;
    }
    const std::string usage = std::string(flag.name) + (*flag.value ? " " : "") + flag.value;
    std::string help = flag.help;
    for (size_t at = help.find('\n'); at != std::string::npos; at = help.find('\n', at + 1)) {
      help.insert(at + 1, 28, ' ');  // a continuation line starts under the first
    }
    std::fprintf(out, "  %-25s %s [%s]\n", usage.c_str(), help.c_str(), commands.c_str());
  }
  std::fprintf(out, "  %-25s print this text (any command)\n", "--help, -h");
  return out == stdout ? 0 : 2;
}

// Applies one occurrence of `flag` (with `value`, null for a switch) to
// `request`. Range checks that ValidateRunSpec makes are left to it; this
// rejects only malformed values, values that do not fit the field, and a
// sentinel 0 (for --cycles, accepting it would silently run the default).
bool ApplyFlag(const FlagInfo& flag, const char* value, Request* request) {
  switch (flag.kind) {
    case Kind::kSwitch:
    case Kind::kSwitchOff:
      request->*std::get<bool Request::*>(flag.field) = flag.kind == Kind::kSwitch;
      return true;
    case Kind::kUnsigned:
    case Kind::kPositive: {
      // Strict decimal: empty values and trailing garbage are errors, so
      // "--cycles 2e6" does not silently run 2 cycles. strtoull would also
      // take a sign or leading space, and wrap "-1" to 2^64-1.
      errno = 0;
      char* end = nullptr;
      const uint64_t parsed = std::strtoull(value, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(value[0])) || errno != 0 || *end != '\0') {
        std::fprintf(stderr, "dprof: %s expects a non-negative integer, got '%s'\n",
                     flag.name, value);
        return false;
      }
      if (flag.kind == Kind::kPositive && parsed == 0) {
        std::fprintf(stderr, "dprof: %s must be positive\n", flag.name);
        return false;
      }
      if (const auto* field = std::get_if<int Request::*>(&flag.field)) {
        if (parsed > INT_MAX) {
          std::fprintf(stderr, "dprof: %s value '%s' is out of range\n", flag.name, value);
          return false;
        }
        request->**field = static_cast<int>(parsed);
      } else {
        request->*std::get<uint64_t Request::*>(flag.field) = parsed;
      }
      return true;
    }
    case Kind::kPositiveReal: {
      char* end = nullptr;
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(parsed > 0.0)) {
        std::fprintf(stderr, "dprof: %s must be a positive number\n", flag.name);
        return false;
      }
      request->*std::get<double Request::*>(flag.field) = parsed;
      return true;
    }
    case Kind::kString:
      request->*std::get<std::string Request::*>(flag.field) = value;
      return true;
    case Kind::kScenario:
      if (!request->scenario.empty() && request->scenario != value) {
        std::fprintf(stderr, "dprof: two scenarios named: '%s' and '%s'\n",
                     request->scenario.c_str(), value);
        return false;
      }
      request->scenario = value;
      return true;
    case Kind::kType:
      request->drill_type = value;
      request->type_unpaired = true;
      return true;
    case Kind::kFix: {
      TypeTransformKind kind;
      int param = -1;
      if (!ParseTypeTransformSpec(value, &kind, &param)) {
        std::fprintf(stderr,
                     "dprof: unknown fix '%s' (one of: identity, pad_to_line, align, "
                     "recolor, replicate, pin_home[@socket])\n",
                     value);
        return false;
      }
      if (request->drill_type.empty()) {
        std::fprintf(stderr, "dprof: --fix requires a preceding --type\n");
        return false;
      }
      request->candidates.push_back(WhatIfCandidate{request->drill_type, kind, param});
      request->type_unpaired = false;
      return true;
    }
  }
  return false;
}

// Parses args[start..] into `request`. Returns false (after printing a
// diagnostic) on a malformed value or a flag `command` does not take, so
// e.g. `bench --cores 4` errors instead of silently running the default
// geometry.
bool ParseFlags(const std::vector<std::string>& args, size_t start, Command command,
                Request* request) {
  for (size_t i = start; i < args.size(); ++i) {
    const FlagInfo* flag = nullptr;
    std::string accepted;
    for (const FlagInfo& row : kFlags) {
      if (!(row.commands & command)) continue;
      if (row.name == args[i]) flag = &row;
      accepted += accepted.empty() ? row.name : std::string(" ") + row.name;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "dprof: unknown flag '%s' (accepted here: %s)\n", args[i].c_str(),
                   accepted.c_str());
      return false;
    }
    const char* value = nullptr;
    if (*flag->value) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dprof: %s requires a value\n", flag->name);
        return false;
      }
      value = args[++i].c_str();
    }
    if (!ApplyFlag(*flag, value, request)) return false;
  }
  return true;
}

// Scenarios and benches share one description column, as wide as the
// longest name.
int CmdList() {
  const ScenarioRegistry& scenarios = ScenarioRegistry::Default();
  const BenchRegistry& benches = BenchRegistry::Default();
  int width = 0;
  for (const std::vector<std::string>& names : {scenarios.Names(), benches.Names()}) {
    for (const std::string& name : names) {
      width = std::max(width, static_cast<int>(name.size()));
    }
  }
  std::printf("scenarios:\n");
  for (const std::string& name : scenarios.Names()) {
    std::printf("  %-*s %s\n", width, name.c_str(), scenarios.Find(name)->description);
  }
  std::printf("\nbenches:\n");
  for (const std::string& name : benches.Names()) {
    std::printf("  %-*s %s\n", width, name.c_str(), benches.Find(name)->description);
  }
  return 0;
}

// run and whatif take the scenario right after the command or as
// `--scenario NAME` anywhere among the flags.
bool ParseScenarioCommand(const std::vector<std::string>& args, Command command,
                          Request* request) {
  size_t flag_start = 2;
  if (args.size() > 2 && args[2].rfind("--", 0) != 0) {
    request->scenario = args[2];
    flag_start = 3;
  }
  if (!ParseFlags(args, flag_start, command, request)) return false;
  if (request->scenario.empty()) {
    std::fprintf(stderr, "dprof: %s requires a scenario name\n", args[1].c_str());
    return false;
  }
  if (ScenarioRegistry::Default().Find(request->scenario) == nullptr) {
    std::fprintf(stderr, "dprof: unknown scenario '%s'; try 'dprof list'\n",
                 request->scenario.c_str());
    return false;
  }
  return true;
}

// Prints ValidateRunSpec's complaint about `spec`, if it has one.
bool ValidSpec(const RunSpec& spec) {
  const std::string error = ValidateRunSpec(spec);
  if (!error.empty()) std::fprintf(stderr, "dprof: %s\n", error.c_str());
  return error.empty();
}

int CmdRun(const std::vector<std::string>& args) {
  Request request;
  if (!ParseScenarioCommand(args, kRun, &request)) return 2;
  // Text output renders no view documents.
  request.build_view_json = request.json;
  if (!ValidSpec(request)) return 2;
  const std::string& name = request.scenario;
  const ScenarioReport report = RunScenario(ScenarioRegistry::Default(), name, request);
  if (!report.drill_type.empty() && !report.drill_type_found) {
    std::fprintf(stderr, "dprof: scenario '%s' has no type named '%s'\n", name.c_str(),
                 report.drill_type.c_str());
    return 2;
  }

  if (request.json) {
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
  Request request;
  if (!ParseScenarioCommand(args, kWhatIf, &request)) return 2;
  if (request.top > 64) {
    std::fprintf(stderr, "dprof: --top must be in [1, 64]\n");
    return 2;
  }
  if (request.type_unpaired) {
    std::fprintf(stderr, "dprof: whatif --type '%s' needs a --fix after it\n",
                 request.drill_type.c_str());
    return 2;
  }
  if (request.auto_search == !request.candidates.empty()) {
    std::fprintf(stderr,
                 "dprof: whatif needs either --auto or at least one --type/--fix pair\n");
    return 2;
  }
  if (request.top > 0 && !request.auto_search) {
    std::fprintf(stderr, "dprof: --top applies only to --auto\n");
    return 2;
  }

  const ScenarioRegistry& registry = ScenarioRegistry::Default();
  const std::string& name = request.scenario;
  const RunSpec& spec = request;
  if (!ValidSpec(spec)) return 2;
  HierarchyConfig topo_probe;
  ApplyTopologyPreset(spec.topology, &topo_probe);
  for (const WhatIfCandidate& candidate : request.candidates) {
    if (candidate.kind == TypeTransformKind::kPinHome &&
        candidate.param >= topo_probe.num_sockets) {
      std::fprintf(stderr, "dprof: pin_home@%d names a socket this topology lacks (%d)\n",
                   candidate.param, topo_probe.num_sockets);
      return 2;
    }
  }
  if (!request.candidates.empty()) {
    // Every candidate must name a type the scenario registers. Building the
    // rig registers them all; nothing is simulated.
    const std::unique_ptr<ScenarioRig> rig = BuildScenarioRig(registry, name, spec);
    for (const WhatIfCandidate& candidate : request.candidates) {
      if (rig->registry->Find(candidate.type) == kInvalidType) {
        std::fprintf(stderr, "dprof: scenario '%s' has no type named '%s'\n", name.c_str(),
                     candidate.type.c_str());
        return 2;
      }
    }
  }
  const WhatIfReport report =
      request.auto_search
          ? RunWhatIfAuto(registry, name, spec, request.top > 0 ? request.top : 3)
          : RunWhatIf(registry, name, spec, request.candidates);
  if (report.outcomes.empty()) {
    std::fprintf(stderr, "dprof: scenario '%s' produced no profiled types\n", name.c_str());
    return 1;
  }
  if (request.json) {
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
  const BenchInfo* info = BenchRegistry::Default().Find(name);
  if (info == nullptr) {
    std::fprintf(stderr, "dprof: unknown bench '%s'; try 'dprof list'\n", name.c_str());
    return 2;
  }
  Request request;
  if (!ParseFlags(args, 3, info->reproduction ? kReproduction : kBench, &request)) return 2;

  BenchParams params;
  params.scale = request.scale;
  params.seed = request.seed;
  const BenchReport report = info->fn(params);
  if (request.json) {
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
  if (command == "crashtest") {
    Request request;
    return ParseFlags(args, 2, kCrashtest, &request) ? CmdCrashtest(request.json) : 2;
  }
  std::fprintf(stderr, "dprof: unknown command '%s'\n", command.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace dprof

int main(int argc, char** argv) { return dprof::Main(argc, argv); }
