// DProfSession: end-to-end orchestration of a profiling run.
//
// Mirrors the paper's workflow (§5): while the workload runs, phase 1
// gathers access samples (IBS) and the address set (allocator hooks);
// phase 2 collects object access histories for the types the data profile
// flags, one type at a time, using the debug registers; finally the session
// builds path traces and the four views.
//
// DProf sees only what the paper's hardware exposes — IBS samples, debug
// register hits, and allocator type queries — never simulator ground truth.

#ifndef DPROF_SRC_DPROF_SESSION_H_
#define DPROF_SRC_DPROF_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dprof/access_sample.h"
#include "src/dprof/address_set.h"
#include "src/dprof/data_flow.h"
#include "src/dprof/data_profile.h"
#include "src/dprof/history.h"
#include "src/dprof/miss_classifier.h"
#include "src/dprof/path_trace.h"
#include "src/dprof/working_set.h"
#include "src/pmu/ibs_unit.h"

namespace dprof {

struct DProfOptions {
  // IBS sampling period in ops during the access-sample phase.
  uint64_t ibs_period_ops = 200;
  HistoryCollectorOptions history;
  // Safety cap for one type's history phase, in machine cycles.
  uint64_t history_phase_max_cycles = 4'000'000'000ull;
  // Ask the engine for tight epochs while a mailbox-fed type's histories
  // are being collected (Machine::SetEpochFocus). Stats-equivalence tests
  // turn this off to compare against fixed-epoch baselines.
  bool adaptive_epoch_focus = true;
};

class DProfSession {
 public:
  DProfSession(Machine* machine, SlabAllocator* allocator, const DProfOptions& options = {});
  ~DProfSession();

  DProfSession(const DProfSession&) = delete;
  DProfSession& operator=(const DProfSession&) = delete;

  // Phase 1: run the machine for `cycles` with IBS + address-set collection.
  void CollectAccessSamples(uint64_t cycles);

  // Phase 2: collect `sets` object-access-history sets for `type`, until the
  // sets are complete, the history_phase_max_cycles bound passes, or the
  // machine stops advancing (its engine ended in a diagnostic). Returns the
  // elapsed machine cycles the collection took.
  uint64_t CollectHistories(TypeId type, uint32_t sets);

  // Convenience: phase 2 for the top `top_k` types of the current profile.
  void CollectHistoriesForTopTypes(size_t top_k, uint32_t sets);

  // Views.
  DataProfile BuildDataProfile() const;
  // The working-set and miss-classification views model the machine's
  // private L2.
  WorkingSetView BuildWorkingSet() const;
  std::vector<PathTrace> BuildPathTraces(TypeId type,
                                         const PathTraceOptions& options = {}) const;
  DataFlowGraph BuildDataFlow(TypeId type) const;
  std::vector<MissClassRow> ClassifyMisses() const;

  // Raw data access.
  const AccessSampleTable& samples() const { return samples_; }
  const AddressSet& addresses() const { return addresses_; }
  const std::vector<ObjectHistory>& histories(TypeId type) const;
  const HistoryOverhead& history_overhead(TypeId type) const;
  uint64_t last_profile_end() const { return profile_end_; }

  Machine& machine() { return *machine_; }
  SlabAllocator& allocator() { return *allocator_; }
  IbsUnit& ibs() { return *ibs_; }
  DebugRegisterFile& debug_registers() { return *debug_regs_; }

 private:
  Machine* machine_;
  SlabAllocator* allocator_;
  DProfOptions options_;

  std::unique_ptr<IbsUnit> ibs_;
  std::unique_ptr<DebugRegisterFile> debug_regs_;

  AccessSampleTable samples_;
  AddressSet addresses_;
  std::map<TypeId, std::vector<ObjectHistory>> histories_;
  std::map<TypeId, HistoryOverhead> overheads_;
  uint64_t profile_end_ = 0;

  std::vector<ObjectHistory> empty_histories_;
  HistoryOverhead empty_overhead_;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_SESSION_H_
