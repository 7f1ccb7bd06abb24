// Tests for the dprof CLI subsystem: scenario registration and lookup,
// unknown-scenario handling, end-to-end scenario runs, the shape of the
// machine-readable JSON output, and the `dprof` binary's own surface
// (listing layout, flag rejection).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/wait.h>

// Sanitizer builds replace malloc, so glibc's allocator policy is not in play.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DPROF_SANITIZED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DPROF_SANITIZED_MALLOC 1
#endif
#endif

#include "src/cli/bench_registry.h"
#include "src/cli/scenario_registry.h"
#include "src/util/json_writer.h"

namespace dprof {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("a\"b\\c\n");
  json.Key("n").Int(-3);
  json.Key("u").UInt(7);
  json.Key("x").Number(1.5);
  json.Key("flag").Bool(true);
  json.Key("items").BeginArray().Int(1).Int(2).EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":-3,\"u\":7,\"x\":1.5,"
            "\"flag\":true,\"items\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray().Number(std::numeric_limits<double>::infinity()).EndArray();
  EXPECT_EQ(json.str(), "[null]");
}

TEST(ScenarioRegistryTest, BuiltinsAreRegistered) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  EXPECT_TRUE(registry.Has("memcached"));
  EXPECT_TRUE(registry.Has("apache"));
  EXPECT_TRUE(registry.Has("kernel"));
  EXPECT_TRUE(registry.Has("conflict_demo"));
  EXPECT_EQ(registry.size(), 4u);
  for (const std::string& name : registry.Names()) {
    EXPECT_FALSE(registry.Find(name)->description.empty()) << name;
  }
}

TEST(ScenarioRegistryTest, UnknownScenarioIsReported) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  EXPECT_FALSE(registry.Has("no_such_scenario"));
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistryTest, DuplicateRegistrationIsRejected) {
  ScenarioRegistry registry;
  auto factory = [](const RunSpec&) { return std::unique_ptr<ScenarioRig>(); };
  EXPECT_TRUE(registry.Register("x", "first", factory));
  EXPECT_FALSE(registry.Register("x", "second", factory));
  EXPECT_EQ(registry.Find("x")->description, "first");
}

TEST(ScenarioRegistryTest, CustomScenarioFactoryReceivesParams) {
  ScenarioRegistry registry;
  int seen_cores = 0;
  registry.Register("probe", "records params", [&](const RunSpec& params) {
    seen_cores = params.cores;
    return std::unique_ptr<ScenarioRig>();
  });
  RunSpec params;
  params.cores = 5;
  registry.Find("probe")->factory(params);
  EXPECT_EQ(seen_cores, 5);
}

// A short end-to-end run of the cheapest scenario: the report must carry a
// non-empty data profile and sane counters.
TEST(ScenarioRunTest, ConflictDemoProducesProfile) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  RunSpec params;
  params.cores = 2;
  params.collect_cycles = 3'000'000;
  const ScenarioReport report = RunScenario(registry, "conflict_demo", params);
  EXPECT_EQ(report.scenario, "conflict_demo");
  EXPECT_EQ(report.cores, 2);
  EXPECT_GT(report.access_samples, 0u);
  EXPECT_FALSE(report.profile.empty());
  EXPECT_FALSE(report.profile_table.empty());
  double total_pct = 0.0;
  for (const ScenarioProfileRow& row : report.profile) {
    EXPECT_FALSE(row.type.empty());
    total_pct += row.miss_pct;
  }
  EXPECT_GT(total_pct, 0.0);
}

TEST(ScenarioRunTest, ReportJsonHasExpectedShape) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  RunSpec params;
  params.cores = 2;
  params.collect_cycles = 2'000'000;
  const ScenarioReport report = RunScenario(registry, "conflict_demo", params);
  const std::string json = ScenarioReportToJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"scenario\":\"conflict_demo\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput_rps\":"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":["), std::string::npos);
  EXPECT_NE(json.find("\"miss_pct\":"), std::string::npos);
  // The embedded view documents.
  EXPECT_NE(json.find("\"views\":{"), std::string::npos);
  EXPECT_NE(json.find("\"working_set\":{"), std::string::npos);
  EXPECT_NE(json.find("\"miss_classification\":["), std::string::npos);
}

#if defined(__GLIBC__) && !defined(DPROF_SANITIZED_MALLOC)
// A run's tables go back to the OS when it ends: once a run has started,
// freeing a large mapped block (which would raise glibc's mmap threshold to
// its size) does not move the next rig's lattice tables into the heap.
TEST(ScenarioRunTest, RigTablesStayMappedAfterALargeFree) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  RunSpec params;
  params.cores = 2;
  params.collect_cycles = 500'000;
  RunScenario(registry, "conflict_demo", params);
  void* volatile big = std::malloc(size_t{32} << 20);
  std::free(big);
  const size_t mapped = mallinfo2().hblkhd;
  const std::unique_ptr<ScenarioRig> rig = registry.Find("conflict_demo")->factory(params);
  // The L3 tag array alone is 2 MiB.
  EXPECT_GE(mallinfo2().hblkhd, mapped + (size_t{2} << 20));
}
#endif

TEST(BenchRegistryTest, BuiltinsAreRegistered) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  for (const char* name : {"micro_costs", "hierarchy", "parallel_engine", "whatif_smoke"}) {
    ASSERT_NE(registry.Find(name), nullptr) << name;
    EXPECT_FALSE(registry.Find(name)->reproduction) << name;
  }
  const char* kReproductions[] = {
      "table_6_1_memcached_profile", "table_6_2_lockstat_memcached",
      "table_6_3_oprofile_memcached", "table_6_4_6_5_apache_profile",
      "table_6_6_lockstat_apache",   "table_6_7_history_collection",
      "table_6_8_history_rates",     "table_6_9_overhead_breakdown",
      "table_6_10_pairwise",         "figure_6_1_dataflow_skbuff",
      "figure_6_2_ibs_overhead",     "figure_6_3_unique_paths",
      "ablation_pairwise",           "ablation_sampling_rate",
      "case_study_fixes"};
  for (const char* name : kReproductions) {
    ASSERT_NE(registry.Find(name), nullptr) << name;
    EXPECT_TRUE(registry.Find(name)->reproduction) << name;
  }
  EXPECT_EQ(registry.size(), 19u);
  EXPECT_EQ(registry.Find("no_such_bench"), nullptr);
}

// Reproductions run in the dprof process, one after another in a test: a
// second run must see no state the first one left behind, and the rows come
// out in table order.
TEST(BenchRegistryTest, ReproductionRunsInProcessAndRepeats) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  const BenchInfo* info = registry.Find("table_6_6_lockstat_apache");
  ASSERT_NE(info, nullptr);
  const BenchReport first = info->fn(BenchParams{});
  const BenchReport second = info->fn(BenchParams{});
  ASSERT_EQ(first.metrics.size(), second.metrics.size());
  for (size_t i = 0; i < first.metrics.size(); ++i) {
    EXPECT_EQ(first.metrics[i].name, second.metrics[i].name);
    EXPECT_EQ(first.metrics[i].value, second.metrics[i].value) << first.metrics[i].name;
    EXPECT_EQ(first.metrics[i].unit, second.metrics[i].unit);
  }
  EXPECT_EQ(first.text, second.text);

  // Lock rows in table order (descending overhead), futex lock first.
  const std::string kOverhead = ".overhead_pct";
  std::vector<double> overheads;
  for (const BenchMetric& metric : first.metrics) {
    const std::string& name = metric.name;
    if (name.rfind("locks.", 0) == 0 && name.size() > kOverhead.size() &&
        name.compare(name.size() - kOverhead.size(), kOverhead.size(), kOverhead) == 0) {
      overheads.push_back(metric.value);
    }
  }
  ASSERT_GE(overheads.size(), 2u);
  EXPECT_EQ(first.metrics[0].name.rfind("locks.futex lock.", 0), 0u) << first.metrics[0].name;
  for (size_t i = 1; i < overheads.size(); ++i) {
    EXPECT_GE(overheads[i - 1], overheads[i]);
  }

  // A single JSON object: the first top-level value closes at the last byte,
  // and the table text rides inside it as an escaped string.
  const std::string json = BenchReportToJson(first);
  ASSERT_EQ(json.front(), '{');
  int depth = 0;
  bool in_string = false;
  size_t closes_at = std::string::npos;
  for (size_t i = 0; i < json.size() && closes_at == std::string::npos; ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if ((ch == '}' || ch == ']') && --depth == 0) {
      closes_at = i;
    }
  }
  EXPECT_EQ(closes_at, json.size() - 1);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"output\":\"===="), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"locks.futex lock.overhead_pct\""), std::string::npos);
}

TEST(BenchRegistryTest, MicroCostsJsonHasExpectedShape) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  BenchParams params;
  params.scale = 0.01;  // keep the test fast; metric names are what matter
  const BenchReport report = registry.Find("micro_costs")->fn(params);
  EXPECT_EQ(report.bench, "micro_costs");
  EXPECT_GE(report.metrics.size(), 5u);

  const std::string json = BenchReportToJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"bench\":\"micro_costs\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  for (const char* metric : {"cache_touch", "slab_alloc_free", "resolve",
                             "ibs_interrupt_cycles", "watchpoint_interrupt_cycles"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + metric + "\""), std::string::npos)
        << metric;
  }
  // Every metric carries a numeric value and a unit.
  EXPECT_NE(json.find("\"value\":"), std::string::npos);
  EXPECT_NE(json.find("\"unit\":"), std::string::npos);
}

// The built `dprof` binary's exit code and combined stdout/stderr for one
// command line.
struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult RunDprof(const std::string& args) {
  CliResult result;
  FILE* pipe = popen((std::string(DPROF_BINARY) + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

// `dprof list` starts every scenario's and every bench's description in
// one column, however long the longest name is.
TEST(CliBinaryTest, ListAlignsEveryDescription) {
  const CliResult list = RunDprof("list");
  ASSERT_EQ(list.exit_code, 0) << list.output;
  size_t entries = 0;
  size_t column = std::string::npos;
  std::istringstream lines(list.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  ", 0) != 0) continue;  // a section heading or blank line
    const size_t name_end = line.find(' ', 2);
    ASSERT_NE(name_end, std::string::npos) << line;
    const size_t description = line.find_first_not_of(' ', name_end);
    ASSERT_NE(description, std::string::npos) << line;
    if (column == std::string::npos) column = description;
    EXPECT_EQ(description, column) << line;
    ++entries;
  }
  ScenarioRegistry scenarios;
  RegisterBuiltinScenarios(scenarios);
  BenchRegistry benches;
  RegisterBuiltinBenches(benches);
  EXPECT_EQ(entries, scenarios.size() + benches.size());
}

// Like every other flag a command does not honour, whatif's --top errors
// without --auto instead of being silently ignored.
TEST(CliBinaryTest, WhatIfRejectsTopWithoutAuto) {
  const CliResult result =
      RunDprof("whatif conflict_demo --type pkt_stat --fix pad_to_line --top 9");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--top applies only to --auto"), std::string::npos)
      << result.output;
}

// whatif refuses input it would otherwise drop or rank blindly: a --type
// with no --fix after it, and a candidate type the scenario lacks.
TEST(CliBinaryTest, WhatIfRejectsUnpairedAndUnknownTypes) {
  struct Case {
    const char* args;
    const char* message;
  };
  for (const Case& c : {
           Case{"whatif conflict_demo --type pkt_stat --fix pad_to_line --type nosuch",
                "--type 'nosuch' needs a --fix after it"},
           Case{"whatif conflict_demo --auto --type nosuch",
                "--type 'nosuch' needs a --fix after it"},
           Case{"whatif conflict_demo --type nosuch --fix pad_to_line",
                "scenario 'conflict_demo' has no type named 'nosuch'"},
           Case{"whatif conflict_demo --type pkt_stat --fix align --type nosuch --fix align",
                "scenario 'conflict_demo' has no type named 'nosuch'"},
       }) {
    SCOPED_TRACE(c.args);
    const CliResult result = RunDprof(c.args);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find(c.message), std::string::npos) << result.output;
  }
}

// `--help` or `-h` after any command prints the usage text `dprof help`
// prints and exits 0, before the command checks its arguments.
TEST(CliBinaryTest, HelpAfterAnyCommandPrintsUsage) {
  const CliResult help = RunDprof("help");
  ASSERT_EQ(help.exit_code, 0) << help.output;
  for (const char* args : {"run --help", "whatif --help", "bench --help", "crashtest --help",
                           "run memcached -h"}) {
    SCOPED_TRACE(args);
    const CliResult result = RunDprof(args);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_EQ(result.output, help.output);
  }
}

}  // namespace
}  // namespace dprof
