// The data flow view (paper §3, §4.4, Figure 6-1): the execution paths of a
// type's path traces merged into one graph from allocation to free. Edges
// where the object moved to another CPU are bold; nodes whose accesses were
// expensive are dark.
//
// Paths sharing a prefix are merged into a trie rooted at a synthetic
// alloc() node; identical suffixes collapse into shared chains ending at a
// synthetic free() node.

#ifndef DPROF_SRC_DPROF_DATA_FLOW_H_
#define DPROF_SRC_DPROF_DATA_FLOW_H_

#include <string>
#include <vector>

#include "src/dprof/path_trace.h"
#include "src/machine/symbol_table.h"

namespace dprof {

struct DataFlowNode {
  std::string label;
  bool dark = false;       // high average access latency
  double avg_latency = 0.0;
  uint64_t visits = 0;
};

struct DataFlowEdge {
  int from = 0;
  int to = 0;
  uint64_t frequency = 0;
  bool cpu_change = false;  // rendered bold, like the paper's figure
};

class DataFlowGraph {
 public:
  // The synthetic root and sink are labelled kmem_cache_alloc_node() and
  // kfree(); a node is dark when a path's average latency there exceeds 60
  // cycles.
  static DataFlowGraph Build(const std::vector<PathTrace>& traces, const SymbolTable& symbols);

  const std::vector<DataFlowNode>& nodes() const { return nodes_; }
  const std::vector<DataFlowEdge>& edges() const { return edges_; }

  // Edges crossing CPUs, heaviest first — the points the paper tells the
  // programmer to inspect.
  std::vector<DataFlowEdge> CpuTransitions() const;

  std::string ToDot(const std::string& graph_name) const;
  std::string ToAscii() const;

  // Machine-readable form: nodes and edges with their display attributes.
  std::string ToJson() const;

 private:
  std::vector<DataFlowNode> nodes_;
  std::vector<DataFlowEdge> edges_;
  int root_ = 0;
  int sink_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_DATA_FLOW_H_
