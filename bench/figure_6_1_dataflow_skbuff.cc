// Reproduces paper Figure 6-1: the data flow view for skbuff objects in
// memcached, with bold edges marking transitions from one core to another
// and dark boxes marking functions with high cache access latencies.
//
// Paper shape: transmit-path skbuffs jump to a different core between
// pfifo_fast_enqueue and pfifo_fast_dequeue — the smoking gun for the
// tx-queue selection bug.

#include <map>
#include <string>

#include "bench/bench_common.h"

namespace dprof {

BenchReport RunFigure61DataflowSkbuff(const BenchParams&) {
  BenchReport report = StartReport("figure_6_1_dataflow_skbuff",
                                   "Figure 6-1: skbuff data flow view (memcached, tx-hash bug)",
                                   "Pesterev 2010, Figure 6-1");
  std::string& out = report.text;

  auto rig = MakePaperRig(42);
  MemcachedConfig mc;
  mc.rx_ring_entries = 96;  // shorter ring residency keeps the bench quick
  MemcachedWorkload workload(rig->env.get(), mc);
  workload.Install(*rig->machine);

  DProfOptions options;
  options.ibs_period_ops = 120;
  DProfSession session(rig->machine.get(), rig->allocator.get(), options);

  rig->machine->RunFor(10'000'000);
  session.CollectAccessSamples(20'000'000);
  const TypeId skbuff = rig->registry->Find("skbuff");
  session.CollectHistories(skbuff, 10);

  const DataFlowGraph flow = session.BuildDataFlow(skbuff);
  out += "== ASCII rendering (==CPU=> marks a core transition) ==\n" + flow.ToAscii() + "\n";

  out += "== Cross-CPU transitions, heaviest first ==\n";
  // Distinct nodes may share a label; the second and later edges with the
  // same "from=>to" key get "#2", "#3", ... in emission order, so every
  // metric name is unique.
  std::map<std::string, int> key_uses;
  for (const DataFlowEdge& edge : flow.CpuTransitions()) {
    const std::string& from = flow.nodes()[edge.from].label;
    const std::string& to = flow.nodes()[edge.to].label;
    Appendf(&out, "  %-28s ==CPU=> %-28s x%llu\n", from.c_str(), to.c_str(),
            static_cast<unsigned long long>(edge.frequency));
    std::string key = from + "=>" + to;
    if (const int uses = ++key_uses[key]; uses > 1) key += "#" + std::to_string(uses);
    AddCell(report, "cpu_transitions", key, "frequency", static_cast<double>(edge.frequency),
            "");
  }

  out += "\n== Graphviz DOT (paper's figure format) ==\n";
  out += flow.ToDot("skbuff_data_flow") + "\n";

  out += "paper shape: bold (cross-CPU) edge between pfifo_fast_enqueue and\n"
         "pfifo_fast_dequeue; transmit-side functions dark (high latency).\n";
  return report;
}

}  // namespace dprof
