#include "src/dprof/data_flow.h"

#include <algorithm>
#include <map>

#include "src/util/dot.h"
#include "src/util/json_writer.h"

namespace dprof {
namespace {

constexpr double kDarkLatencyThreshold = 60.0;  // cycles
constexpr const char* kAllocLabel = "kmem_cache_alloc_node()";
constexpr const char* kFreeLabel = "kfree()";

}  // namespace

DataFlowGraph DataFlowGraph::Build(const std::vector<PathTrace>& traces,
                                   const SymbolTable& symbols) {
  DataFlowGraph graph;
  graph.nodes_.push_back(DataFlowNode{kAllocLabel, false, 0.0, 0});
  graph.root_ = 0;
  graph.nodes_.push_back(DataFlowNode{kFreeLabel, false, 0.0, 0});
  graph.sink_ = 1;

  // Prefix trie: children[(node, step key)] -> node.
  std::map<std::pair<int, uint64_t>, int> children;
  // Edge lookup for frequency accumulation.
  std::map<std::pair<int, int>, size_t> edge_index;

  auto add_edge = [&](int from, int to, uint64_t freq, bool cpu_change) {
    auto it = edge_index.find({from, to});
    if (it != edge_index.end()) {
      graph.edges_[it->second].frequency += freq;
      graph.edges_[it->second].cpu_change |= cpu_change;
      return;
    }
    edge_index[{from, to}] = graph.edges_.size();
    graph.edges_.push_back(DataFlowEdge{from, to, freq, cpu_change});
  };

  for (const PathTrace& trace : traces) {
    int at = graph.root_;
    graph.nodes_[graph.root_].visits += trace.frequency;
    for (const PathStep& step : trace.steps) {
      const uint64_t key = (static_cast<uint64_t>(step.ip) << 1) | (step.cpu_change ? 1 : 0);
      auto it = children.find({at, key});
      int next;
      if (it != children.end()) {
        next = it->second;
      } else {
        DataFlowNode node;
        node.label = symbols.Name(step.ip) + "()";
        node.avg_latency = step.avg_latency;
        node.dark = step.has_sample_stats && step.avg_latency > kDarkLatencyThreshold;
        next = static_cast<int>(graph.nodes_.size());
        graph.nodes_.push_back(std::move(node));
        children[{at, key}] = next;
      }
      DataFlowNode& node = graph.nodes_[next];
      node.visits += trace.frequency;
      if (step.has_sample_stats) {
        // Keep the max latency seen for this node across merged paths.
        node.avg_latency = std::max(node.avg_latency, step.avg_latency);
        node.dark = node.dark || step.avg_latency > kDarkLatencyThreshold;
      }
      add_edge(at, next, trace.frequency, step.cpu_change);
      at = next;
    }
    add_edge(at, graph.sink_, trace.frequency, false);
    graph.nodes_[graph.sink_].visits += trace.frequency;
  }
  return graph;
}

std::vector<DataFlowEdge> DataFlowGraph::CpuTransitions() const {
  std::vector<DataFlowEdge> out;
  for (const DataFlowEdge& edge : edges_) {
    if (edge.cpu_change) {
      out.push_back(edge);
    }
  }
  std::sort(out.begin(), out.end(), [](const DataFlowEdge& a, const DataFlowEdge& b) {
    return a.frequency > b.frequency;
  });
  return out;
}

std::string DataFlowGraph::ToDot(const std::string& graph_name) const {
  DotWriter dot(graph_name);
  for (const DataFlowNode& node : nodes_) {
    dot.AddNode(node.label, node.dark);
  }
  for (const DataFlowEdge& edge : edges_) {
    dot.AddEdge(edge.from, edge.to, edge.frequency, edge.cpu_change);
  }
  return dot.ToString();
}

std::string DataFlowGraph::ToAscii() const {
  // Depth-first rendering of the trie; shared sink printed inline.
  std::string out;
  std::vector<std::vector<const DataFlowEdge*>> adjacency(nodes_.size());
  for (const DataFlowEdge& edge : edges_) {
    adjacency[edge.from].push_back(&edge);
  }
  for (auto& edges : adjacency) {
    std::sort(edges.begin(), edges.end(), [](const DataFlowEdge* a, const DataFlowEdge* b) {
      return a->frequency > b->frequency;
    });
  }

  struct Frame {
    int node;
    int depth;
    bool via_cpu_change;
    uint64_t freq;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root_, 0, false, nodes_[root_].visits});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const DataFlowNode& node = nodes_[frame.node];
    for (int i = 0; i < frame.depth; ++i) {
      out += "  ";
    }
    if (frame.depth > 0) {
      out += frame.via_cpu_change ? "==CPU=> " : "-> ";
    }
    out += node.label;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  [x%llu%s%s]",
                  static_cast<unsigned long long>(frame.freq), node.dark ? ", SLOW" : "",
                  frame.via_cpu_change ? ", cpu change" : "");
    out += buf;
    out += '\n';
    if (frame.node == sink_) {
      continue;
    }
    // Push children in reverse so the most frequent renders first.
    const auto& edges = adjacency[frame.node];
    for (size_t i = edges.size(); i-- > 0;) {
      const DataFlowEdge* edge = edges[i];
      stack.push_back(Frame{edge->to, frame.depth + 1, edge->cpu_change, edge->frequency});
    }
  }
  return out;
}


std::string DataFlowGraph::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("nodes").BeginArray();
  for (const DataFlowNode& node : nodes_) {
    json.BeginObject();
    json.Key("label").String(node.label);
    json.Key("dark").Bool(node.dark);
    json.Key("avg_latency").Number(node.avg_latency);
    json.Key("visits").UInt(node.visits);
    json.EndObject();
  }
  json.EndArray();
  json.Key("edges").BeginArray();
  for (const DataFlowEdge& edge : edges_) {
    json.BeginObject();
    json.Key("from").Int(edge.from);
    json.Key("to").Int(edge.to);
    json.Key("frequency").UInt(edge.frequency);
    json.Key("cpu_change").Bool(edge.cpu_change);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace dprof
