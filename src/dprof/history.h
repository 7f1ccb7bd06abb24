// Object access histories (paper §5.3, Table 5.2).
//
// DProf monitors one object at a time: when an object of the target type is
// allocated, it reserves it with the memory subsystem, broadcasts debug-
// register setup to every core, and then records {offset, ip, cpu, time}
// for every load/store to the watched 4-byte window(s) until the object is
// freed. Whole-object coverage is stitched together across many monitored
// objects: a "history set" is a sweep of histories covering every offset of
// the type once (single mode), or every offset pair (pair-sampling mode,
// used to recover inter-offset ordering — paper §6.4, Table 6.10).
//
// The collector also accounts the paper's Table 6.9 overhead breakdown:
// per-access interrupt cost, per-object memory-reservation cost, and the
// cross-core debug-register setup broadcast.

#ifndef DPROF_SRC_DPROF_HISTORY_H_
#define DPROF_SRC_DPROF_HISTORY_H_

#include <cstdint>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/pmu/debug_registers.h"
#include "src/util/rng.h"

namespace dprof {

// One recorded access to a watched offset (paper Table 5.2, plus the
// read/write flag the debug-register status provides).
struct HistoryElement {
  uint32_t offset = 0;
  FunctionId ip = kInvalidFunction;
  uint16_t cpu = 0;
  bool is_write = false;
  uint64_t time = 0;  // cycles since the object's allocation
};

struct ObjectHistory {
  TypeId type = kInvalidType;
  Addr base = kNullAddr;
  uint64_t alloc_time = 0;
  uint64_t end_time = 0;  // free time relative to alloc_time (or last element)
  uint32_t watch_offsets[2] = {0, 0};
  int num_watch = 1;
  uint32_t sweep = 0;  // which history set this history belongs to
  bool complete = false;
  std::vector<HistoryElement> elements;
};

struct HistoryCollectorOptions {
  uint32_t granularity = 4;  // bytes per debug-register window
  bool pair_mode = false;
  uint32_t max_sets = 0;                     // stop after N sets; 0 = no limit
  uint32_t max_elements_per_history = 8192;  // guard for hot offsets
  // Restrict the sweep to these offsets (e.g. the hot members found in the
  // access samples — paper §6.4). Empty = all offsets.
  std::vector<uint32_t> member_offsets;
};

struct HistoryOverhead {
  uint64_t interrupt_cycles = 0;
  uint64_t reserve_cycles = 0;
  uint64_t comm_cycles = 0;
  uint64_t objects_profiled = 0;
  uint64_t elements_recorded = 0;

  uint64_t Total() const { return interrupt_cycles + reserve_cycles + comm_cycles; }
};

class HistoryCollector final : public AllocationObserver {
 public:
  // The collector drives `regs` (it installs its own handler) and charges
  // setup costs to `machine`'s cores. Debug registers watch addresses, not
  // allocations: with an `allocator`, when a type's objects never recycle
  // (no allocation events arrive to trigger arming), Poll() arms the sweep
  // on already-live objects instead of spinning to the phase cap.
  HistoryCollector(Machine* machine, DebugRegisterFile* regs, TypeId type, uint32_t object_size,
                   const HistoryCollectorOptions& options = {},
                   SlabAllocator* allocator = nullptr);

  HistoryCollector(const HistoryCollector&) = delete;
  HistoryCollector& operator=(const HistoryCollector&) = delete;

  // AllocationObserver:
  void OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;
  void OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;

  // Periodic trigger, called by the session between run slices. Times out a
  // stale in-flight object, and — if this collector's type has produced no
  // allocation events — arms the debug registers on an already-live object
  // so non-recycling types (conflict_demo's hot statics) still get their
  // sweep instead of idling to the phase cap.
  void Poll(uint64_t now);

  // Abandons any in-flight monitoring (call before detaching).
  void Stop();

  bool done() const {
    return options_.max_sets != 0 && sets_completed_ >= options_.max_sets;
  }
  uint32_t sets_completed() const { return sets_completed_; }
  uint32_t histories_per_set() const;
  const std::vector<ObjectHistory>& histories() const { return histories_; }
  std::vector<ObjectHistory> TakeHistories() { return std::move(histories_); }
  const HistoryOverhead& overhead() const { return overhead_; }
  TypeId type() const { return type_; }

 private:
  void OnDebugHit(const AccessEvent& event, int reg);
  void BeginMonitoring(Addr base, int core, uint64_t now);
  void FinishMonitoring(bool complete);
  void AdvanceScan();
  uint32_t NumOffsets() const { return static_cast<uint32_t>(offsets_.size()); }

  Machine* machine_;
  DebugRegisterFile* regs_;
  TypeId type_;
  uint32_t object_size_;
  HistoryCollectorOptions options_;
  SlabAllocator* allocator_ = nullptr;
  uint64_t alloc_events_seen_ = 0;
  size_t live_cursor_ = 0;

  std::vector<uint32_t> offsets_;  // offsets in the sweep
  uint32_t scan_i_ = 0;            // current offset index (single + pair mode)
  uint32_t scan_j_ = 1;            // second offset index (pair mode)
  uint32_t sets_completed_ = 0;

  bool monitoring_ = false;
  uint64_t earliest_arm_ = 0;
  uint32_t arm_skip_ = 0;
  Rng rng_;
  ObjectHistory current_;
  std::vector<ObjectHistory> histories_;
  HistoryOverhead overhead_;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_HISTORY_H_
