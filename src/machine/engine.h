// Epoch-batched execution engine with deterministic replay.
//
// The legacy Machine loop steps the globally-minimum-clock core one driver
// step at a time, interleaving simulation and hierarchy state at every
// operation. This engine splits a run into bounded-cycle *epochs* and runs
// each epoch as three sequential phases on the calling thread:
//
//   1. SIMULATE (core by core): every CoreDriver runs with a recording
//      CoreContext until its lower-bound clock reaches the epoch end.
//      Drivers, the allocator fast paths, and RNGs touch only core-owned
//      state. Every memory access is appended to the core's access column
//      as one ApplyLane with its lower-bound timestamp; every other op
//      (compute burst, lock operation, allocation event, ...) goes to the
//      core's op stream (CoreRecorder in machine.h).
//   2. APPLY: one fused merge over the per-core access columns applies the
//      recorded accesses to the cache hierarchy in (timestamp quantum,
//      core, program order) — see kApplyQuantumBits in engine.cc. Every
//      merge drain is a contiguous span of one core's column, handed to
//      CacheHierarchy::ApplyBatch, which writes each access's packed
//      latency/level/invalidation result into its lane in place.
//      Fast-forward epochs (sampled mode) skip this phase.
//   3. COMMIT: exact core clocks are reconstructed — memory latencies, PMU
//      interrupt charges, and lock waits accumulate per core — and every
//      PMU hook, lock observer, and allocation event fires with its
//      committed clock. Epoch hooks (mailboxes, allocator alien transfers)
//      run last.
//
// The commit pass is *segmented*. The only operations whose commit another
// core can observe are sync ops (locks, allocator events) and PMU
// dispatches (IBS samples, watchpoint hits); each of those arbitrates
// under the global min-committed-clock rule and commits exactly when its
// core's pre-op clock is the global minimum — the legacy scheduling rule —
// so lock arbitration, allocation-event order, and sample/hit delivery
// into shared handlers interleave identically to a fully sequential per-op
// merge. Everything between those points advances only core-local state
// and commits as whole per-core segments through one commit loop
// (CommitRun), for detailed and fast-forward epochs alike: it walks the op
// stream, which doubles as the sync index, and commits the access runs
// between its entries from the access column. Within a
// segment, PMU hooks are consulted through the batch contract on PmuHook
// (QuietOps / OnQuietAccessBatch / AccessFilter): an access only pays for
// event assembly and virtual dispatch when some hook can actually act on
// it.
//
// PMU hooks are the engine's only instrumentation, as on DProf's hardware
// (IBS samples, debug-register watchpoints). MachineObservers, which see
// every operation, are a direct-loop feature: RunFor refuses to run with
// one attached.
//
// Phase 1 is core-local, phase 2 has a fixed merge order, and phase 3's
// schedule is a pure function of the recorded queues and committed state,
// so the committed event stream — and therefore every profile built from
// it — is deterministic.

#ifndef DPROF_SRC_MACHINE_ENGINE_H_
#define DPROF_SRC_MACHINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/machine/machine.h"
#include "src/machine/sampling.h"

namespace dprof {

struct EngineConfig {
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  int threads = 0;
  // Epoch length in simulated cycles: the bound on cross-core skew of the
  // lower-bound clocks within one simulate phase, and the granularity at
  // which cross-core mailboxes (EpochHook) exchange state.
  uint64_t epoch_cycles = 20'000;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool allow_record_elision = true;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool socket_aware_apply = true;
  // Unread; kept only until the benchmark (perfbench/op.cc) stops naming it.
  bool apply_work_stealing = true;
  // Sampled execution (statistical fast-forward): when enabled, a
  // SamplingController alternates detailed windows (full hierarchy walks +
  // event delivery — exactly the exact-mode semantics) with fast-forward
  // stretches where accesses advance clocks through the calibrated per-core
  // cost estimate and skip the tag lattice entirely. Allocator state,
  // lock/sync arbitration, and armed watchpoint windows stay exact; the
  // window schedule is a pure function of committed clocks, so sampled runs
  // are deterministic.
  SamplingConfig sampling{};
  // Invariant auditing: every audit_epochs epochs (0 = never) the engine
  // walks the tag lattice with an InvariantAuditor (src/sim/audit.h)
  // and checks committed-clock monotonicity. A violation stops the run with
  // a kDataLoss status; a clean audit changes no observable output.
  uint64_t audit_epochs = 0;
  // Graceful-degradation watchdog: a run that makes no committed-clock
  // progress for watchdog_stall_epochs consecutive epochs, or spends more
  // than watchdog_wall_seconds of host wall time inside one RunFor call,
  // stops with a kDeadlineExceeded status instead of hanging. Healthy
  // epochs always advance the min clock, so the stall bound only trips on
  // genuine scheduling bugs (or the injected kEpochStall fault). 0 disables
  // either bound.
  uint64_t watchdog_stall_epochs = 256;
  double watchdog_wall_seconds = 300.0;
};

// Host wall-clock spent in each engine phase, accumulated across epochs.
struct EnginePhaseStats {
  double simulate_seconds = 0.0;
  double apply_seconds = 0.0;
  double commit_seconds = 0.0;
  double deliver_seconds = 0.0;  // always 0; kept only until the benchmark stops naming it
  uint64_t epochs = 0;
  uint64_t elided_epochs = 0;  // always 0; kept only until the benchmark stops naming it
  uint64_t ff_epochs = 0;      // epochs fast-forwarded by the sampling controller
};

class Engine {
 public:
  // Matches CacheHierarchy's core-count bound; merge scratch is stack-sized.
  static constexpr int kMaxCores = 64;
  static_assert((kMaxCores & (kMaxCores - 1)) == 0,
                "merge keys pack the core id into the low log2(kMaxCores) bits");

  Engine(Machine* machine, const EngineConfig& config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs epochs until every core clock >= MinClock() + cycles (Machine::RunFor
  // delegates here once SetExecutor installs the engine). CHECK-fails when a
  // MachineObserver is attached to the machine.
  void RunFor(uint64_t cycles);

  const EngineConfig& config() const { return config_; }
  const EnginePhaseStats& phase_stats() const { return phase_stats_; }
  // Non-null when sampled execution is enabled; exposes the measured-window
  // accounting the report layer turns into scaled estimates + intervals.
  const SamplingController* sampler() const { return sampler_.get(); }

  // Sticky health status: Ok until a watchdog, lattice audit, or polled
  // allocator failure stops the run. Once set, RunFor returns immediately
  // so callers can surface the diagnostic instead of looping on a dead run.
  const Status& status() const { return status_; }
  uint64_t audits_run() const { return audits_run_; }

 private:
  // PMU capability snapshot the commit pass branches on per run instead of
  // per op. Rebuilt at every commit and after any operation that can rearm
  // a hook (sync ops, full per-op dispatches). A fast-forward epoch leaves
  // the counting hooks out: they stay frozen, so IBS samples come only from
  // detailed windows.
  struct FusedSink {
    struct Filtered {
      PmuHook* hook;
      Addr lo;
      Addr hi;
    };
    std::vector<PmuHook*> counting;   // consulted via QuietOps / skip batches
    std::vector<Filtered> filtered;   // consulted only on address overlap
  };

  // Runs one epoch starting at the committed min-clock. `epoch_cycles` is the
  // nominal epoch length; fast-forward epochs stretch it (bounded by the
  // sampler's runway and config cap) to amortize per-epoch overhead.
  void RunEpoch(uint64_t min_clock, uint64_t deadline, uint64_t epoch_cycles);
  // Lattice audit + committed-clock monotonicity check, run between epochs;
  // injects one planned corruption first when a fault plan arms
  // kLatticeCorrupt (the detection-coverage harness).
  void RunAudit();
  void SimulateCore(int core, uint64_t epoch_end);
  void ApplyGlobal();
  void CommitEpoch();

  // Commits the accesses and non-sync ops of `core` from its commit
  // cursors up to the next sync op (or the end of its streams), advancing
  // the core's committed clock and cursors in place. Stops at the first
  // access some PMU hook can act on — a cross-core-visible effect that must
  // re-arbitrate; when that access is the first thing at the cursors, it
  // was already arbitrated and dispatches immediately. In a fast-forward
  // epoch, kFfRun ops advance the clock by their accumulated estimate and
  // the compute and idle cycles folded into them.
  void CommitRun(int core);
  // Commits the sync op at `index` of the core's op stream; returns false
  // when the core parked on a lock whose release is still pending (op not
  // consumed).
  bool CommitSyncOp(int core, uint32_t index);
  // Full per-op path for an access some hook may act on: assembles the
  // event and lets the PMU hooks charge the core — every hook in a detailed
  // epoch, only the filtered hooks whose window overlaps the access in a
  // fast-forward epoch.
  void DispatchAccess(int core, const ApplyLane& lane, uint64_t& clock);

  void ResyncSink();
  void RefreshQuiet(int core);
  void FlushQuiet(int core);

  Machine* machine_;
  EngineConfig config_;
  // This epoch fast-forwards (sampled execution).
  bool ff_epoch_ = false;
  std::unique_ptr<SamplingController> sampler_;
  std::vector<CoreRecorder> recorders_;
  EnginePhaseStats phase_stats_;

  // Health state: sticky status, audit cadence bookkeeping, and the
  // previous audit's committed clocks (monotonicity baseline).
  Status status_;
  uint64_t audits_run_ = 0;
  std::vector<uint64_t> audit_prev_clocks_;

  // Per-core commit-time lock state (park bookkeeping while a holder's
  // release is pending) and latency-probe accumulators.
  std::vector<SimLock*> blocked_on_;
  std::vector<uint64_t> block_start_;
  std::vector<uint64_t> probe_latency_;
  std::vector<uint8_t> probe_active_;

  // Commit-pass scratch, valid during CommitEpoch (members so the lock
  // wake-up in CommitSyncOp can refresh parked cores' keys).
  FusedSink sink_;
  // Each core's commit cursors: the next lane of its access column and the
  // next entry of its op stream.
  uint64_t commit_keys_[kMaxCores];
  uint32_t commit_access_[kMaxCores];
  uint32_t commit_op_[kMaxCores];
  bool woke_parked_ = false;  // a lock release re-armed a parked core's key
  // PMU gate: remaining quiet budget across sink_.counting hooks, and the
  // accesses consumed under it but not yet flushed via OnQuietAccessBatch.
  // gate_unbounded_ marks a kQuietUnbounded budget (no accounting needed).
  uint64_t gate_quiet_[kMaxCores];
  uint64_t gate_skipped_[kMaxCores];
  uint8_t gate_unbounded_[kMaxCores];
};

}  // namespace dprof

#endif  // DPROF_SRC_MACHINE_ENGINE_H_
