#include <gtest/gtest.h>

#include "src/dprof/data_flow.h"

namespace dprof {
namespace {

PathStep Step(FunctionId ip, bool cpu_change = false, double latency = 0.0) {
  PathStep step;
  step.ip = ip;
  step.cpu_change = cpu_change;
  if (latency > 0) {
    step.avg_latency = latency;
    step.has_sample_stats = true;
  }
  return step;
}

PathTrace Trace(std::vector<PathStep> steps, uint64_t freq) {
  PathTrace t;
  t.type = 1;
  t.steps = std::move(steps);
  t.frequency = freq;
  return t;
}

struct DataFlowFixture : ::testing::Test {
  DataFlowFixture() {
    fn_a = sym.Intern("alloc_path");
    fn_b = sym.Intern("branch_b");
    fn_c = sym.Intern("branch_c");
    fn_d = sym.Intern("dequeue");
  }
  SymbolTable sym;
  FunctionId fn_a, fn_b, fn_c, fn_d;
};

TEST_F(DataFlowFixture, SinglePathChains) {
  const auto graph =
      DataFlowGraph::Build({Trace({Step(fn_a), Step(fn_b)}, 5)}, sym);
  // alloc + free sentinels + 2 steps.
  EXPECT_EQ(graph.nodes().size(), 4u);
  EXPECT_EQ(graph.edges().size(), 3u);
  EXPECT_EQ(graph.nodes()[0].visits, 5u);  // root
  EXPECT_EQ(graph.nodes()[1].visits, 5u);  // sink
}

TEST_F(DataFlowFixture, SharedPrefixMerges) {
  const auto graph = DataFlowGraph::Build(
      {Trace({Step(fn_a), Step(fn_b)}, 3), Trace({Step(fn_a), Step(fn_c)}, 2)}, sym);
  // Nodes: root, sink, a (shared), b, c.
  EXPECT_EQ(graph.nodes().size(), 5u);
  // The shared prefix node accumulated both frequencies.
  bool found = false;
  for (const auto& node : graph.nodes()) {
    if (node.label == "alloc_path()") {
      EXPECT_EQ(node.visits, 5u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DataFlowFixture, CpuChangeEdgesAreMarked) {
  const auto graph =
      DataFlowGraph::Build({Trace({Step(fn_a), Step(fn_d, true)}, 7)}, sym);
  const auto transitions = graph.CpuTransitions();
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].frequency, 7u);
  EXPECT_EQ(graph.nodes()[transitions[0].to].label, "dequeue()");
}

TEST_F(DataFlowFixture, CpuTransitionsSortedByFrequency) {
  const auto graph = DataFlowGraph::Build(
      {Trace({Step(fn_a), Step(fn_d, true)}, 2), Trace({Step(fn_b), Step(fn_c, true)}, 9)},
      sym);
  const auto transitions = graph.CpuTransitions();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].frequency, 9u);
}

TEST_F(DataFlowFixture, SameIpWithAndWithoutCpuChangeAreDistinctNodes) {
  const auto graph = DataFlowGraph::Build(
      {Trace({Step(fn_a), Step(fn_d, false)}, 1), Trace({Step(fn_a), Step(fn_d, true)}, 1)},
      sym);
  // root, sink, a, d(no change), d(change).
  EXPECT_EQ(graph.nodes().size(), 5u);
}

TEST_F(DataFlowFixture, DarkNodesForHighLatency) {
  // Dark means an average latency above 60 cycles.
  const auto graph = DataFlowGraph::Build(
      {Trace({Step(fn_a, false, 150.0), Step(fn_b, false, 10.0)}, 1)}, sym);
  int dark = 0;
  for (const auto& node : graph.nodes()) {
    if (node.dark) {
      ++dark;
      EXPECT_EQ(node.label, "alloc_path()");
    }
  }
  EXPECT_EQ(dark, 1);
}

TEST_F(DataFlowFixture, DotOutputHasBoldCpuEdges) {
  const auto graph =
      DataFlowGraph::Build({Trace({Step(fn_a), Step(fn_d, true)}, 3)}, sym);
  const std::string dot = graph.ToDot("skbuff");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);
  EXPECT_NE(dot.find("dequeue()"), std::string::npos);
}

TEST_F(DataFlowFixture, AsciiOutputShowsTransitionsAndCounts) {
  const auto graph =
      DataFlowGraph::Build({Trace({Step(fn_a), Step(fn_d, true)}, 3)}, sym);
  const std::string ascii = graph.ToAscii();
  EXPECT_NE(ascii.find("==CPU=>"), std::string::npos);
  EXPECT_NE(ascii.find("alloc_path()"), std::string::npos);
  EXPECT_NE(ascii.find("[x3"), std::string::npos);
}

TEST_F(DataFlowFixture, EmptyTraceListYieldsSentinelsOnly) {
  const auto graph = DataFlowGraph::Build({}, sym);
  ASSERT_EQ(graph.nodes().size(), 2u);
  EXPECT_EQ(graph.nodes()[0].label, "kmem_cache_alloc_node()");
  EXPECT_EQ(graph.nodes()[1].label, "kfree()");
  EXPECT_TRUE(graph.edges().empty());
  EXPECT_TRUE(graph.CpuTransitions().empty());
}

TEST_F(DataFlowFixture, JsonCarriesNodesAndEdges) {
  const auto graph =
      DataFlowGraph::Build({Trace({Step(fn_a), Step(fn_d, true)}, 3)}, sym);
  const std::string json = graph.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"edges\":["), std::string::npos);
  EXPECT_NE(json.find("alloc_path"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_change\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frequency\":3"), std::string::npos);
}

}  // namespace
}  // namespace dprof
