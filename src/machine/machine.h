// The simulated multicore machine.
//
// A Machine owns the cache hierarchy, per-core cycle clocks, and the
// scheduling loop. Workloads register one CoreDriver per core; the machine
// repeatedly steps the core with the smallest local clock, which keeps
// cross-core cache coherence and lock arbitration in approximately global
// time order while drivers stay simple sequential request loops.
//
// Two execution modes share this interface:
//  - Direct mode (the legacy loop): every CoreContext operation executes
//    against the hierarchy immediately. RunSteps and executor-less RunFor
//    use it, as do tests that drive contexts by hand.
//  - Recorded mode: a CoreContext carries a CoreRecorder and operations are
//    appended to per-core SoA queues instead of executing. The epoch engine
//    (src/machine/engine.h) simulates every core for an epoch this way,
//    then applies and commits the queues in a deterministic order.
//
// All instrumentation attaches here:
//  - MachineObserver: sees every access and compute operation (code
//    profiler). Direct loop only: the epoch engine refuses to run with one
//    attached.
//  - PmuHook: may raise "interrupts" by returning extra cycles to charge the
//    executing core (IBS unit, debug registers). PMU overhead inflates core
//    clocks — and therefore reduces workload throughput — without being
//    attributed to workload functions, exactly how profiling overhead
//    manifests on real hardware (paper Figure 6-2). Both execution modes
//    serve PMU hooks.

#ifndef DPROF_SRC_MACHINE_MACHINE_H_
#define DPROF_SRC_MACHINE_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/machine/symbol_table.h"
#include "src/sim/hierarchy.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace dprof {

class CoreContext;
class CoreRecorder;
class Engine;
class FaultPlan;
class Machine;

// One memory operation as seen by observers and PMU hooks.
struct AccessEvent {
  int core = 0;
  FunctionId ip = kInvalidFunction;
  Addr addr = kNullAddr;
  uint32_t size = 0;
  bool is_write = false;
  ServedBy level = ServedBy::kL1;
  uint32_t latency = 0;       // cycles spent waiting on memory
  bool invalidation = false;  // simulator ground truth; PMUs must not use it
  uint64_t now = 0;           // core clock after the access completed
};

// Sees every access and compute operation as it executes. Direct loop only
// (RunSteps, executor-less RunFor, hand-driven contexts): whole-stream
// instrumentation is what DProf's PMU-based design avoids, so the epoch
// engine serves PmuHooks alone and CHECK-fails with an observer attached.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  virtual void OnAccess(const AccessEvent& event) = 0;
  virtual void OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) = 0;
};

// Hardware performance-monitoring hook. Returns extra cycles (interrupt and
// handler cost) to charge to the executing core; 0 if the op was not sampled.
//
// The batch contract lets the engine's commit pass skip event assembly and
// virtual dispatch for operations a hook provably ignores:
//  - QuietOps(core) returns a lower bound on how many upcoming accesses
//    executed by `core` this hook will neither sample nor charge for,
//    assuming no intervening OnAccess call or reconfiguration. 0 means the
//    hook must be consulted per access (the default, which preserves exact
//    per-op dispatch for hooks that do not opt in).
//  - OnQuietAccessBatch(core, n) accounts n accesses skipped under a
//    QuietOps(core) >= n guarantee (e.g. IBS decrements its countdown by n
//    in one step). Delivery may lag the skipped operations but always
//    arrives before the hook's next OnAccess for that core.
//  - AccessFilter(lo, hi): a hook that only reacts to accesses overlapping
//    [*lo, *hi) (debug registers) returns true and the window; accesses
//    outside it are skipped without consultation or quiet accounting.
//
// Every access that escapes these guarantees (an IBS countdown expiring, an
// access overlapping a watchpoint window) is committed at an arbitration
// point of the engine's global min-clock schedule, so hooks observe their
// events — and handlers with cross-core shared state (the history collector
// FSM) observe their callbacks — in exactly the order the per-op sequential
// merge would produce.
class PmuHook {
 public:
  static constexpr uint64_t kQuietUnbounded = ~0ull;

  virtual ~PmuHook() = default;
  virtual uint64_t OnAccess(const AccessEvent& event) = 0;

  virtual uint64_t QuietOps(int core) const {
    (void)core;
    return 0;
  }
  virtual void OnQuietAccessBatch(int core, uint64_t count) {
    (void)core;
    (void)count;
  }
  virtual bool AccessFilter(Addr* lo, Addr* hi) const {
    (void)lo;
    (void)hi;
    return false;
  }
};

// The typed allocator interface the machine exposes to drivers via
// CoreContext::Alloc/Free. Implemented by SlabAllocator (src/alloc).
//
// Under the epoch engine, Alloc/Free run during the simulate phase and must
// only touch state owned by the calling core; the allocator reports
// allocation events through CoreContext::NotifyAllocEvent / NotifyFreeEvent,
// and the engine calls the Commit*Event methods back in deterministic commit
// order with the committed clock.
class AllocatorIface {
 public:
  virtual ~AllocatorIface() = default;
  virtual Addr Alloc(CoreContext& ctx, TypeId type, FunctionId ip) = 0;
  virtual void Free(CoreContext& ctx, Addr addr, FunctionId ip) = 0;

  // Called by the engine before the first epoch. Implementations create
  // every registered type's per-type state here, in TypeId order, so the
  // simulated addresses of that state do not depend on which type the
  // workload allocates first.
  virtual void CreateTypeCaches() {}

  // Called by the engine after each epoch's commit; implementations apply
  // staged cross-core transfers here.
  virtual void FlushEpoch() {}

  // Deferred allocation-event delivery (stats + AllocationObservers) in
  // deterministic commit order. `now` is the committed clock of the event.
  virtual void CommitAllocEvent(TypeId type, Addr base, uint32_t size, int core,
                                uint64_t now) {
    (void)type;
    (void)base;
    (void)size;
    (void)core;
    (void)now;
  }
  virtual void CommitFreeEvent(TypeId type, Addr base, uint32_t size, int core, uint64_t now,
                               bool alien) {
    (void)type;
    (void)base;
    (void)size;
    (void)core;
    (void)now;
    (void)alien;
  }

  // Sticky health status. Allocators that can exhaust a bounded resource
  // (slab arenas under injected grow failures) report it here instead of
  // aborting; the engine polls after each epoch and stops the run with a
  // structured diagnostic.
  virtual Status status() const { return Status::Ok(); }
};

// Per-core workload logic. Step() performs one unit of work (typically one
// request) and returns true, or returns false if the core has nothing to do
// (the machine then idles the core forward by config.idle_cycles).
class CoreDriver {
 public:
  virtual ~CoreDriver() = default;
  virtual bool Step(CoreContext& ctx) = 0;
};

// A spin lock living at a simulated memory address. Arbitration is
// time-based: an acquiring core's clock jumps to the lock's free time; the
// lock word itself is written through the cache hierarchy so contended locks
// also generate coherence traffic.
class SimLock {
 public:
  SimLock(std::string name, Addr word) : name_(std::move(name)), word_(word) {}

  const std::string& name() const { return name_; }
  Addr word() const { return word_; }

 private:
  friend class CoreContext;
  friend class Engine;
  std::string name_;
  Addr word_ = kNullAddr;
  uint64_t free_at_ = 0;
  uint64_t acquired_at_ = 0;
  int holder_ = -1;
};

class LockObserver {
 public:
  virtual ~LockObserver() = default;
  virtual void OnAcquire(const SimLock& lock, int core, FunctionId ip, uint64_t wait_cycles,
                         uint64_t now) = 0;
  virtual void OnRelease(const SimLock& lock, int core, FunctionId ip, uint64_t hold_cycles,
                         uint64_t now) = 0;
};

// Pluggable execution strategy for Machine::RunFor (the epoch engine).
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void RunFor(uint64_t cycles) = 0;
};

// Cross-core host-state exchange point (transmit-queue mailboxes, allocator
// alien-free transfers). The engine invokes hooks after each epoch's commit,
// in registration order, so staged transfers become visible to the next
// epoch's simulate phase deterministically.
class EpochHook {
 public:
  virtual ~EpochHook() = default;
  virtual void OnEpochCommit(uint64_t now) = 0;
};

// The kinds of recorded simulation operation awaiting deterministic commit.
// CoreRecorder stores each op across its lane/meta columns; the comments
// name each kind's lane fields.
struct SimOp {
  // Sync kinds (>= kFirstSync) interact with cross-core state at commit
  // time (locks, allocator events); they arbitrate on the global min-clock
  // rule and delimit the segments the commit pass batches between them.
  enum Kind : uint8_t {
    kAccess,           // addr, size | write bit; lane.result receives the apply result
    kCompute,          // payload = cycles
    kIdle,             // payload = cycles
    kProbeBegin,       // latency probe window opens
    kProbeEnd,         // addr = RunningStat*, payload = divisor bits
    kFfRun,            // engine-internal fast-forwarded run: addr = access
                       // count, payload = estimated cycles (sampled mode)
    kLockAcquire,      // addr = SimLock*; wait + acquire callback at commit
    kLockRelease,      // addr = SimLock*
    kAllocEvent,       // addr = base, payload = type<<32 | size
    kFreeEvent,        // addr = base, payload = type<<32 | size, kAlienBit = alien
  };
  static constexpr Kind kFirstSync = kLockAcquire;
};

// Per-core operation queue filled during the engine's simulate phase. `lb`
// is the core's lower-bound clock: the committed clock at epoch start plus
// the minimum cost of every recorded op (memory latencies assume L1 hits;
// PMU interrupts and lock waits are unknown until commit). The engine
// orders commits by each op's recorded `t`, so the interleaving is a pure
// function of the recorded streams.
//
// Storage is SoA, grouped by consumer:
//  - lane[]: everything the apply pass reads (t, addr, size+write bit) plus
//    the 32-bit packed result it writes back — one 24-byte record per op.
//    For non-access ops the (size_w, result) pair is dead and doubles as
//    the 64-bit payload slot (compute/idle cycles, alloc type+size, probe
//    divisor bits), so no separate aux column exists. Commit order is
//    reconstructed from committed clocks, so only the apply merge reads t.
//  - meta[]: {ip, kind} in 8 bytes — the commit pass's sequential scan
//    (kind every op, alien flag in its top bit, ip only when an event is
//    actually assembled).
//  - sync_points[]: indices of kind >= kFirstSync ops, recorded at push
//    time so the commit pass splits segments without rescanning.
// The apply pass is one fused merge over the cores' lane streams.
class CoreRecorder {
 public:
  struct Lane {
    uint64_t t;
    Addr addr;
    uint32_t size_w;   // kAccess: size | kWriteBit; otherwise payload lo
    uint32_t result;   // kAccess: packed by the apply pass; otherwise payload hi

    uint64_t payload() const {
      return static_cast<uint64_t>(size_w) | (static_cast<uint64_t>(result) << 32);
    }
    void set_payload(uint64_t payload) {
      size_w = static_cast<uint32_t>(payload);
      result = static_cast<uint32_t>(payload >> 32);
    }
  };
  struct Meta {
    FunctionId ip;
    uint8_t kind;  // SimOp::Kind | kAlienBit
    uint8_t pad[3];
  };
  static constexpr uint32_t kWriteBit = ApplyLane::kWriteBit;
  static constexpr uint8_t kKindMask = 0x0f;
  static constexpr uint8_t kAlienBit = 0x80;

  // Apply-phase result packing for kAccess: the shared packed-AccessResult
  // layout (src/sim/hierarchy.h), which is also what ApplyBatch writes.
  static uint32_t PackResult(uint32_t latency, ServedBy level, bool invalidation) {
    return PackAccessResult(latency, level, invalidation);
  }
  static uint32_t ResultLatency(uint32_t result) { return PackedAccessLatency(result); }
  static ServedBy ResultLevel(uint32_t result) { return PackedAccessLevel(result); }
  static bool ResultInvalidation(uint32_t result) {
    return PackedAccessInvalidation(result);
  }

  // The engine sets the per-epoch fast-forward fields (ff/ff_lo/ff_hi)
  // after Reset.
  void Reset(uint64_t committed_clock) {
    n = 0;
    sync_points.clear();
    ff = false;
    ff_lo = kNullAddr;
    ff_hi = kNullAddr;
    run_open = false;
    accesses = 0;
    lb = committed_clock;
    epoch_start_clock = committed_clock;
    raw_access_cost = 0;
    exact_cost = 0;
  }

  size_t size() const { return n; }
  bool empty() const { return n == 0; }

  // Pushes one non-access op: `payload` fills the lane's (size_w, result)
  // pair; `flags` is ORed into the meta kind byte (kAlienBit). Sync kinds
  // are indexed in sync_points as they are pushed.
  void Push(SimOp::Kind kind, uint64_t t, Addr addr, uint64_t payload,
            FunctionId ip = kInvalidFunction, uint8_t flags = 0) {
    if (kind >= SimOp::kFirstSync) {
      sync_points.push_back(static_cast<uint32_t>(n));
    }
    if (__builtin_expect(n == capacity, 0)) {
      Grow();
    }
    lane[n] = Lane{t, addr, static_cast<uint32_t>(payload),
                   static_cast<uint32_t>(payload >> 32)};
    meta[n] = Meta{ip, static_cast<uint8_t>(kind | flags), {0, 0, 0}};
    ++n;
    run_open = false;
  }

  // Hot-path access pushes: one capacity branch, two stores.
  void PushAccess(uint64_t t, Addr addr, uint32_t size_w, FunctionId ip) {
    if (__builtin_expect(n == capacity, 0)) {
      Grow();
    }
    lane[n] = Lane{t, addr, size_w, 0};
    meta[n] = Meta{ip, SimOp::kAccess, {0, 0, 0}};
    ++n;
    run_open = false;
  }
  // Fast-forward push with a prefilled apply result: the access never walks
  // the hierarchy, but a hook filter window overlaps it, so commit needs a
  // real kAccess op to dispatch. The result carries the estimated latency at
  // level kL1 (the lower bound; sampled mode trades this precision away).
  void PushFfAccess(uint64_t t, Addr addr, uint32_t size_w, uint32_t result,
                    FunctionId ip) {
    if (__builtin_expect(n == capacity, 0)) {
      Grow();
    }
    lane[n] = Lane{t, addr, size_w, result};
    meta[n] = Meta{ip, SimOp::kAccess, {0, 0, 0}};
    ++n;
    run_open = false;
  }
  // Fast-forwarded run marker: addr accumulates the access count, the
  // payload accumulates the estimated cycle charge. Consecutive
  // fast-forwarded accesses extend the open marker, so a quiet fast-forward
  // epoch records O(1) ops.
  void PushFfRun(uint64_t t, uint64_t est) {
    if (run_open) {
      ++lane[n - 1].addr;
      lane[n - 1].set_payload(lane[n - 1].payload() + est);
      return;
    }
    if (__builtin_expect(n == capacity, 0)) {
      Grow();
    }
    lane[n] = Lane{t, 1, static_cast<uint32_t>(est), static_cast<uint32_t>(est >> 32)};
    meta[n] = Meta{kInvalidFunction, SimOp::kFfRun, {0, 0, 0}};
    ++n;
    run_open = true;
  }
  // Extends the previous op instead of pushing when it is the same cycle
  // burst kind from the same function: consecutive compute/idle steps fuse
  // into one op with the summed payload (clock effect identical).
  bool CoalesceCycles(SimOp::Kind kind, FunctionId ip, uint64_t cycles) {
    if (n == 0) {
      return false;
    }
    const Meta& last = meta[n - 1];
    if (last.kind != static_cast<uint8_t>(kind) || last.ip != ip) {
      return false;
    }
    lane[n - 1].set_payload(lane[n - 1].payload() + cycles);
    return true;
  }

  // Advances the lower-bound clock for one recorded access of raw cost
  // `raw` (base op cost + L1 latency). The calibrated scale stretches the
  // estimate toward this core's recent committed cost per access, so an
  // epoch's recording window covers roughly epoch_cycles of *true* time;
  // without it, miss-heavy cores overshoot their window by the full
  // latency/PMU factor, clocks skew apart at epoch boundaries, and lock
  // arbitration charges large phantom waits across the skew.
  void ChargeAccess(uint32_t raw) {
    lb += (static_cast<uint64_t>(raw) * cost_scale16) >> 4;
    raw_access_cost += raw;
  }
  // Fast-forward charge: same calibrated estimate as ChargeAccess, but the
  // raw cost is NOT accumulated — the epoch-end calibration divides committed
  // cost by raw_access_cost, and a fast-forwarded epoch's committed cost IS
  // the estimate, so feeding it back would lock the scale in place. Leaving
  // raw_access_cost at 0 makes the calibration skip fast-forward epochs.
  uint64_t ChargeFf(uint32_t raw) {
    const uint64_t est = (static_cast<uint64_t>(raw) * cost_scale16) >> 4;
    lb += est;
    return est;
  }
  void ChargeExact(uint64_t cycles) {
    lb += cycles;
    exact_cost += cycles;
  }

  // Raw growable columns (capacity persists across epochs, so Grow is cold
  // after warm-up; plain pointers keep the hot pushes to one branch).
  Lane* lane = nullptr;
  Meta* meta = nullptr;
  size_t n = 0;
  size_t capacity = 0;
  // Fast-forward mode (sampled execution): accesses charge the calibrated
  // estimate and coalesce into kFfRun markers instead of walking the
  // hierarchy at apply time. Accesses overlapping [ff_lo, ff_hi) — the armed
  // hook filter window snapshotted at epoch start — still record real
  // kAccess ops (with prefilled results) so watchpoints keep firing.
  bool ff = false;
  Addr ff_lo = kNullAddr;
  Addr ff_hi = kNullAddr;
  bool run_open = false;  // last op is this epoch's open kFfRun
  uint64_t accesses = 0;  // line-chunk accesses recorded this epoch (any mode)
  std::vector<uint32_t> sync_points;
  uint64_t lb = 0;
  uint64_t epoch_start_clock = 0;
  uint64_t raw_access_cost = 0;  // sum of unscaled access costs this epoch
  uint64_t exact_cost = 0;       // compute + idle cycles this epoch
  // Q4 fixed-point committed-cost / raw-cost calibration, fed back by the
  // engine each epoch (16 = 1.0x).
  uint32_t cost_scale16 = 16;

 private:
  void Grow();  // doubles the column storage (cold; capacity persists)

  std::unique_ptr<Lane[]> lane_store_;
  std::unique_ptr<Meta[]> meta_store_;
};

struct MachineConfig {
  HierarchyConfig hierarchy;
  uint64_t idle_cycles = 2000;  // clock advance when a driver reports no work
  uint32_t base_op_cost = 1;    // pipeline cost of one op, excluding memory
  uint64_t seed = 1;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int num_cores() const { return config_.hierarchy.num_cores; }
  const MachineConfig& config() const { return config_; }
  CacheHierarchy& hierarchy() { return hierarchy_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  void SetAllocator(AllocatorIface* allocator) { allocator_ = allocator; }
  AllocatorIface* allocator() { return allocator_; }
  void SetDriver(int core, CoreDriver* driver) { drivers_[core] = driver; }

  void AddObserver(MachineObserver* observer) { observers_.push_back(observer); }
  void RemoveObserver(MachineObserver* observer);
  void AddPmuHook(PmuHook* hook) { pmu_hooks_.push_back(hook); }
  void RemovePmuHook(PmuHook* hook);
  void SetLockObserver(LockObserver* observer) { lock_observer_ = observer; }

  void AddEpochHook(EpochHook* hook) { epoch_hooks_.push_back(hook); }
  void RemoveEpochHook(EpochHook* hook);

  // Mailbox-fed types: registered by environments whose cross-core delivery
  // stages in per-sender lanes that flush at epoch boundaries (TxQueue
  // packets). Epoch batching delays those deliveries, which is the one
  // execution-strategy drift the engine has left (miss rates on payload
  // types); profilers consult this to know when tight epochs are warranted.
  void NoteMailboxFedType(TypeId type);
  bool IsMailboxFedType(TypeId type) const;

  // Epoch focus: set while a mailbox-fed type is under study. The epoch
  // engine shrinks its epochs (kEpochCyclesFocus in engine.cc) while this
  // is on, so mailbox deliveries resolve at near-legacy granularity only
  // when the fidelity is actually needed. Pure session state, so
  // determinism is unaffected. The legacy loop ignores it.
  void SetEpochFocus(bool focus) { epoch_focus_ = focus; }
  bool epoch_focus() const { return epoch_focus_; }

  // Installs an execution strategy; RunFor delegates to it when set.
  void SetExecutor(Executor* executor) { executor_ = executor; }
  Executor* executor() { return executor_; }

  // Deterministic fault-injection plan (src/machine/faults.h), or null for a
  // healthy machine. Set before the first epoch; every consumer (engine,
  // allocator, mailboxes, sampler) keys its fault decisions off committed
  // clocks and epoch ordinals, never host state, so a faulted run is
  // deterministic.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  uint64_t CoreClock(int core) const { return clocks_[core]; }
  uint64_t MinClock() const;
  uint64_t MaxClock() const;
  Rng& CoreRng(int core) { return rngs_[core]; }

  // Runs the scheduling loop until every core clock is >= MinClock() + cycles.
  // Delegates to the installed executor, when there is one.
  void RunFor(uint64_t cycles);

  // Steps the minimum-clock core exactly `steps` times (always direct mode).
  void RunSteps(uint64_t steps);

  // Charges cycles to a core outside any driver step (PMU setup broadcasts,
  // interrupt handlers triggered by other cores).
  void ChargeCycles(int core, uint64_t cycles) {
    clocks_[core] += cycles;
    charged_cycles_ += cycles;
  }
  // Every cycle ChargeCycles has charged, summed over cores.
  uint64_t charged_cycles() const { return charged_cycles_; }

  CoreContext Context(int core);

 private:
  friend class CoreContext;
  friend class Engine;

  int MinClockCore() const;
  void StepCore(int core);

  MachineConfig config_;
  CacheHierarchy hierarchy_;
  SymbolTable symbols_;
  std::vector<uint64_t> clocks_;
  uint64_t charged_cycles_ = 0;
  std::vector<CoreDriver*> drivers_;
  std::vector<Rng> rngs_;
  std::vector<MachineObserver*> observers_;
  std::vector<PmuHook*> pmu_hooks_;
  std::vector<EpochHook*> epoch_hooks_;
  AllocatorIface* allocator_ = nullptr;
  LockObserver* lock_observer_ = nullptr;
  Executor* executor_ = nullptr;
  FaultPlan* fault_plan_ = nullptr;
  std::vector<TypeId> mailbox_fed_types_;
  bool epoch_focus_ = false;
};

// Lightweight per-core handle passed to drivers and the allocator. All
// simulated work — memory accesses, compute, allocation, locking — flows
// through this API so that clocks, observers (direct mode), and PMU hooks
// stay consistent.
//
// With a recorder attached (engine mode), operations are queued instead of
// executed, now() reports the core's lower-bound clock, and Access returns
// a lower-bound AccessResult (L1 latency, no miss flags); drivers must not
// branch on the fields a recorded result cannot know.
class CoreContext {
 public:
  CoreContext(Machine* machine, int core) : machine_(machine), core_(core) {}
  CoreContext(Machine* machine, int core, CoreRecorder* recorder)
      : machine_(machine), core_(core), recorder_(recorder) {}

  int core() const { return core_; }
  uint64_t now() const { return recorder_ != nullptr ? recorder_->lb : machine_->clocks_[core_]; }
  bool recording() const { return recorder_ != nullptr; }
  Machine& machine() { return *machine_; }
  Rng& rng() { return machine_->rngs_[core_]; }

  // Executes one memory-touching instruction at `ip`.
  AccessResult Access(FunctionId ip, Addr addr, uint32_t size, bool is_write);

  // Convenience wrappers.
  AccessResult Read(FunctionId ip, Addr addr, uint32_t size) {
    return Access(ip, addr, size, false);
  }
  AccessResult Write(FunctionId ip, Addr addr, uint32_t size) {
    return Access(ip, addr, size, true);
  }

  // Executes `cycles` of pure compute attributed to `ip`.
  void Compute(FunctionId ip, uint64_t cycles);

  // Typed allocation through the machine's allocator.
  Addr Alloc(TypeId type, FunctionId ip);
  void Free(Addr addr, FunctionId ip);

  void LockAcquire(SimLock& lock, FunctionId ip);
  void LockRelease(SimLock& lock, FunctionId ip);

  // Latency probe: accumulates the committed memory latency of every access
  // between Begin and End, then adds total/divisor to `stat`. Works in both
  // modes; in engine mode the accumulation happens at commit time, so the
  // stat sees true latencies (drivers cannot — see class comment).
  void BeginLatencyProbe();
  void EndLatencyProbe(RunningStat* stat, double divisor);

  // Allocation-event delivery, called by AllocatorIface implementations at
  // the point the event becomes visible: immediate in direct mode, queued
  // for deterministic commit in engine mode.
  void NotifyAllocEvent(TypeId type, Addr base, uint32_t size);
  void NotifyFreeEvent(TypeId type, Addr base, uint32_t size, bool alien);

 private:
  Machine* machine_;
  int core_;
  CoreRecorder* recorder_ = nullptr;
  bool probing_ = false;
  uint64_t probe_latency_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_MACHINE_MACHINE_H_
