#include "src/dprof/session.h"

namespace dprof {

DProfSession::DProfSession(Machine* machine, SlabAllocator* allocator,
                           const DProfOptions& options)
    : machine_(machine), allocator_(allocator), options_(options) {
  ibs_ = std::make_unique<IbsUnit>(machine_->num_cores());
  ibs_->SetHandler([this](const IbsSample& sample) {
    // The interrupt handler resolves the data address to its type via the
    // allocator (paper §5.2); IbsUnit::kHandlerCycles is its cycle cost.
    samples_.Record(sample, allocator_->Resolve(sample.vaddr));
  });
  debug_regs_ = std::make_unique<DebugRegisterFile>();

  machine_->AddPmuHook(ibs_.get());
  machine_->AddPmuHook(debug_regs_.get());
  allocator_->AddObserver(&addresses_);
  // Static objects are knowable from debug info at attach time (paper §5.2),
  // no matter when the workload registered them.
  allocator_->ReplayStatics(&addresses_);
}

DProfSession::~DProfSession() {
  allocator_->RemoveObserver(&addresses_);
  machine_->RemovePmuHook(ibs_.get());
  machine_->RemovePmuHook(debug_regs_.get());
}

void DProfSession::CollectAccessSamples(uint64_t cycles) {
  ibs_->SetPeriod(options_.ibs_period_ops);
  machine_->RunFor(cycles);
  ibs_->SetPeriod(0);
  profile_end_ = machine_->MaxClock();
}

uint64_t DProfSession::CollectHistories(TypeId type, uint32_t sets) {
  HistoryCollectorOptions history_options = options_.history;
  history_options.max_sets = sets;

  // While a mailbox-fed type is under study, ask the executor for tight
  // epochs: its objects are delivered through epoch-boundary mailboxes, so
  // coarse epochs would distort exactly the reuse distances the histories
  // are meant to capture. Restored below so other phases keep the cheap
  // default.
  const bool prev_focus = machine_->epoch_focus();
  if (options_.adaptive_epoch_focus && machine_->IsMailboxFedType(type)) {
    machine_->SetEpochFocus(true);
  }

  const uint32_t object_size = allocator_->registry().Size(type);
  HistoryCollector collector(machine_, debug_regs_.get(), type, object_size, history_options,
                             allocator_);
  allocator_->AddObserver(&collector);

  const uint64_t start = machine_->MaxClock();
  const uint64_t deadline = start + options_.history_phase_max_cycles;
  while (!collector.done() && machine_->MaxClock() < deadline) {
    // A healthy RunFor advances the min clock by the whole slice; one that
    // leaves it where it was means the executor has stopped (an engine that
    // ended in a diagnostic runs no more epochs), so the deadline would
    // never come.
    const uint64_t before = machine_->MinClock();
    machine_->RunFor(200'000);
    if (machine_->MinClock() == before) break;
    // For types whose objects never recycle, arm already-live objects
    // (debug-register semantics: watchpoints address memory, not
    // allocations). After the first slice, a recycling type has produced
    // allocation events and Poll leaves arming to OnAlloc.
    collector.Poll(machine_->MaxClock());
  }
  collector.Stop();
  allocator_->RemoveObserver(&collector);
  machine_->SetEpochFocus(prev_focus);
  const uint64_t elapsed = machine_->MaxClock() - start;

  auto& stored = histories_[type];
  auto collected = collector.TakeHistories();
  for (auto& history : collected) {
    stored.push_back(std::move(history));
  }
  HistoryOverhead& overhead = overheads_[type];
  const HistoryOverhead& delta = collector.overhead();
  overhead.interrupt_cycles += delta.interrupt_cycles;
  overhead.reserve_cycles += delta.reserve_cycles;
  overhead.comm_cycles += delta.comm_cycles;
  overhead.objects_profiled += delta.objects_profiled;
  overhead.elements_recorded += delta.elements_recorded;
  profile_end_ = machine_->MaxClock();
  return elapsed;
}

void DProfSession::CollectHistoriesForTopTypes(size_t top_k, uint32_t sets) {
  const DataProfile profile = BuildDataProfile();
  for (const TypeId type : profile.TopTypes(top_k)) {
    CollectHistories(type, sets);
  }
}

DataProfile DProfSession::BuildDataProfile() const {
  const uint64_t now = profile_end_ == 0 ? machine_->MaxClock() : profile_end_;
  return DataProfile::Build(allocator_->registry(), samples_, addresses_, now);
}

WorkingSetView DProfSession::BuildWorkingSet() const {
  const uint64_t now = profile_end_ == 0 ? machine_->MaxClock() : profile_end_;
  return WorkingSetView::Build(allocator_->registry(), addresses_, samples_, now,
                               machine_->hierarchy().config().l2);
}

std::vector<PathTrace> DProfSession::BuildPathTraces(TypeId type,
                                                     const PathTraceOptions& options) const {
  return PathTraceBuilder::Build(type, histories(type), samples_, options);
}

DataFlowGraph DProfSession::BuildDataFlow(TypeId type) const {
  return DataFlowGraph::Build(BuildPathTraces(type), machine_->symbols());
}

std::vector<MissClassRow> DProfSession::ClassifyMisses() const {
  const WorkingSetView working_set = BuildWorkingSet();
  std::vector<std::vector<PathTrace>> traces;
  for (const auto& [type, histories] : histories_) {
    traces.push_back(PathTraceBuilder::Build(type, histories, samples_));
  }
  return MissClassifier::Build(allocator_->registry(), samples_, working_set, traces);
}

const std::vector<ObjectHistory>& DProfSession::histories(TypeId type) const {
  auto it = histories_.find(type);
  return it == histories_.end() ? empty_histories_ : it->second;
}

const HistoryOverhead& DProfSession::history_overhead(TypeId type) const {
  auto it = overheads_.find(type);
  return it == overheads_.end() ? empty_overhead_ : it->second;
}

}  // namespace dprof
