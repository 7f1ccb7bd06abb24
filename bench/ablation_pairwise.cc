// Ablation (design choice from DESIGN.md): what does pairwise sampling buy
// over single-offset sweeps when reconstructing whole-object paths?
//
// The paper introduces pair sampling (§5.3) because single-offset histories
// cannot recover inter-offset ordering. This bench reconstructs combined
// path traces both ways over the same workload and compares (a) how many
// distinct whole-object paths each reconstruction produces (fragmentation)
// and (b) how often the reconstructed order of the transmit-path milestones
// matches ground truth (enqueue must precede dequeue).

#include "bench/bench_common.h"

namespace dprof {
namespace {

std::vector<PathTrace> Reconstruct(bool pair_mode, uint32_t sets) {
  auto rig = MakePaperRig(13);
  MemcachedConfig config;
  config.rx_ring_entries = 48;
  MemcachedWorkload workload(rig->env.get(), config);
  workload.Install(*rig->machine);

  DProfOptions options;
  options.ibs_period_ops = 200;
  DProfSession bootstrap(rig->machine.get(), rig->allocator.get(), options);
  rig->machine->RunFor(10'000'000);
  bootstrap.CollectAccessSamples(6'000'000);
  const TypeId skbuff = rig->registry->Find("skbuff");

  DProfOptions collect_options = options;
  collect_options.history.pair_mode = pair_mode;
  collect_options.history.member_offsets = bootstrap.samples().HotOffsets(skbuff, 8);
  collect_options.history_phase_max_cycles = 6'000'000'000ull;
  DProfSession session(rig->machine.get(), rig->allocator.get(), collect_options);
  session.CollectHistories(skbuff, sets);

  PathTraceOptions trace_options;
  trace_options.combine_sweeps = true;
  return session.BuildPathTraces(skbuff, trace_options);
}

struct OrderCheck {
  int enqueue_before_dequeue = 0;
  int dequeue_before_enqueue = 0;
};

OrderCheck CheckOrdering(const std::vector<PathTrace>& traces, const SymbolTable& symbols) {
  OrderCheck check;
  for (const PathTrace& trace : traces) {
    int enqueue_at = -1;
    int dequeue_at = -1;
    for (size_t i = 0; i < trace.steps.size(); ++i) {
      const std::string& name = symbols.Name(trace.steps[i].ip);
      if (name == "pfifo_fast_enqueue" && enqueue_at < 0) {
        enqueue_at = static_cast<int>(i);
      }
      if (name == "pfifo_fast_dequeue" && dequeue_at < 0) {
        dequeue_at = static_cast<int>(i);
      }
    }
    if (enqueue_at >= 0 && dequeue_at >= 0) {
      if (enqueue_at < dequeue_at) {
        check.enqueue_before_dequeue += static_cast<int>(trace.frequency);
      } else {
        check.dequeue_before_enqueue += static_cast<int>(trace.frequency);
      }
    }
  }
  return check;
}

void AddReconstructionCells(BenchReport& report, const char* row, size_t paths,
                            const OrderCheck& check) {
  AddCell(report, "reconstruction", row, "paths", static_cast<double>(paths), "");
  AddCell(report, "reconstruction", row, "enqueue_first", check.enqueue_before_dequeue, "");
  AddCell(report, "reconstruction", row, "dequeue_first", check.dequeue_before_enqueue, "");
}

}  // namespace

BenchReport RunAblationPairwise(const BenchParams&) {
  BenchReport report = StartReport("ablation_pairwise",
                                   "Ablation: pairwise sampling vs single-offset sweeps",
                                   "design choice behind paper §5.3 / Table 6.10");
  std::string& out = report.text;

  // A throwaway machine supplies the symbol table (ids are deterministic).
  RunSpec names_spec;
  names_spec.cores = 1;
  auto names = MakeBaseRig(names_spec);
  KernelFns::Intern(names->machine->symbols());

  const auto single = Reconstruct(false, 6);
  const auto pair = Reconstruct(true, 2);

  const OrderCheck single_check = CheckOrdering(single, names->machine->symbols());
  const OrderCheck pair_check = CheckOrdering(pair, names->machine->symbols());

  Appendf(&out, "%-34s %16s %16s\n", "", "single-offset", "pairwise");
  Appendf(&out, "%-34s %16zu %16zu\n", "combined paths reconstructed", single.size(), pair.size());
  Appendf(&out, "%-34s %13d/%-3d %13d/%-3d\n", "enqueue-before-dequeue (right/wrong)",
          single_check.enqueue_before_dequeue, single_check.dequeue_before_enqueue,
          pair_check.enqueue_before_dequeue, pair_check.dequeue_before_enqueue);
  AddReconstructionCells(report, "single-offset", single.size(), single_check);
  AddReconstructionCells(report, "pairwise", pair.size(), pair_check);

  out += "\ninterpretation: single-offset reconstruction fragments paths and can\n"
         "only order offsets by cross-object time alignment; pair sampling\n"
         "observes both offsets of one object and pins the true order — at a\n"
         "quadratic collection cost (Table 6.10).\n";
  return report;
}

}  // namespace dprof
