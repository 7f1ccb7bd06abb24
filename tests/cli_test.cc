// Tests for the dprof CLI subsystem: scenario registration and lookup,
// unknown-scenario handling, end-to-end scenario runs, and the shape of the
// machine-readable JSON output.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

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
  EXPECT_NE(registry.Find("micro_costs"), nullptr);
  EXPECT_NE(registry.Find("memcached_throughput"), nullptr);
  EXPECT_NE(registry.Find("apache_throughput"), nullptr);
  EXPECT_EQ(registry.Find("no_such_bench"), nullptr);
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

}  // namespace
}  // namespace dprof
