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
//      state; every memory access, compute burst, lock operation, and
//      allocation event is appended to the core's SoA op queue with its
//      lower-bound timestamp.
//   2. APPLY: one fused merge over the per-core queues applies the recorded
//      accesses to the cache hierarchy in (timestamp quantum, core, program
//      order) — see EngineConfig::apply_quantum_bits. Every merge drain is a
//      single-core span handed to CacheHierarchy::ApplyBatch; each op's
//      packed latency/level/invalidation result is stored back into its
//      lane record.
//   3. COMMIT: exact core clocks are reconstructed — memory latencies, PMU
//      interrupt charges, and lock waits accumulate per core — and every
//      observer, PMU hook, lock observer, and allocation event fires with
//      its committed clock. Observer events are delivered at the end of the
//      commit; epoch hooks (mailboxes, allocator alien transfers) run last.
//
// The commit pass is *segmented*. The only operations whose commit another
// core can observe are sync ops (locks, allocator events) and PMU
// dispatches (IBS samples, watchpoint hits); each of those arbitrates
// under the global min-committed-clock rule and commits exactly when its
// core's pre-op clock is the global minimum — the legacy scheduling rule —
// so lock arbitration, allocation-event order, and sample/hit delivery
// into shared handlers interleave identically to a fully sequential per-op
// merge. Everything between those points advances only core-local state
// and commits as whole per-core segments. Within a segment, PMU hooks are
// consulted through the batch contract on PmuHook (QuietOps /
// OnQuietAccessBatch / AccessFilter): an access only pays for event
// assembly and virtual dispatch when some hook can actually act on it.
// Observer delivery is span-based (MachineObserver::OnAccessBatch /
// OnComputeBatch).
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
  // Adaptive epoch length used while Machine::epoch_focus() is set (a
  // mailbox-fed type is under study): mailbox deliveries resolve at
  // near-legacy granularity, closing the payload-type miss-rate drift of
  // epoch batching, without paying the extra epochs on every run. Fidelity
  // data: kernel scenario size-1024 miss rate, legacy 69% vs engine 41% at
  // 20k-cycle epochs, 57% at 2k (tests/engine_validation_test.cc).
  uint64_t epoch_cycles_focus = 2'000;
  // The apply pass merges recorded accesses in (t >> apply_quantum_bits,
  // core, program order): cores' accesses interleave at quantum granularity
  // instead of op granularity. The legacy loop reorders at driver-step
  // granularity (one core runs a whole step before the min-clock scan picks
  // the next), so a quantum of the same order keeps coherence timing
  // comparable while giving the host long same-core runs — the simulated
  // L1/L2 state stays hot and the merge tree amortizes across runs.
  int apply_quantum_bits = 11;  // 2048-cycle quanta; fidelity data in tests/engine_validation_test.cc
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
  // are deterministic. Epochs with observers attached always run detailed.
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
// deliver_seconds counts span delivery to observers, which runs inside the
// commit phase and is therefore also inside commit_seconds.
struct EnginePhaseStats {
  double simulate_seconds = 0.0;
  double apply_seconds = 0.0;
  double commit_seconds = 0.0;
  double deliver_seconds = 0.0;
  uint64_t epochs = 0;
  uint64_t elided_epochs = 0;  // always 0; kept only until the benchmark stops naming it
  uint64_t ff_epochs = 0;      // epochs fast-forwarded by the sampling controller
};

class Engine final : public Executor {
 public:
  // Matches CacheHierarchy's core-count bound; merge scratch is stack-sized.
  static constexpr int kMaxCores = 64;
  static_assert((kMaxCores & (kMaxCores - 1)) == 0,
                "merge keys pack the core id into the low log2(kMaxCores) bits");

  Engine(Machine* machine, const EngineConfig& config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Executor: runs epochs until every core clock >= MinClock() + cycles.
  void RunFor(uint64_t cycles) override;

  const EngineConfig& config() const { return config_; }
  uint64_t epochs_run() const { return epochs_run_; }
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
  // Observer/PMU capability snapshot the commit pass branches on per run
  // instead of per op. Rebuilt at every commit and after any operation that
  // can rearm a hook (sync ops, full per-op dispatches).
  struct FusedSink {
    struct Filtered {
      PmuHook* hook;
      Addr lo;
      Addr hi;
    };
    std::vector<PmuHook*> counting;   // consulted via QuietOps / skip batches
    std::vector<Filtered> filtered;   // consulted only on address overlap
    bool want_events = false;         // any MachineObserver attached
  };

  // One epoch's observer-bound event stream: homogeneous spans over the two
  // typed buffers, in exact commit order.
  struct EventBatch {
    struct Span {
      uint8_t is_compute;
      uint32_t offset;
      uint32_t count;
    };
    std::vector<AccessEvent> access;
    std::vector<ComputeEvent> compute;
    std::vector<Span> spans;

    bool IsEmpty() const { return spans.empty(); }
    void Clear() {
      access.clear();
      compute.clear();
      spans.clear();
    }
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

  // Commits ops of `core` starting at `begin` within a sync-free segment
  // ending at `end`, advancing the core's committed clock in place. Stops
  // at the first access some PMU hook can act on — a cross-core-visible
  // effect that must re-arbitrate — and returns its index; the access at
  // `begin` itself, already arbitrated, dispatches immediately. Returns
  // `end` when the whole segment committed.
  uint32_t CommitRun(int core, uint32_t begin, uint32_t end);
  // CommitRun for a fast-forwarded epoch: kFfRun markers advance the clock
  // by their accumulated estimate; the only dispatchable accesses are the
  // filter-window overlaps recorded with prefilled results, and they go to
  // the filtered hooks only — counting hooks (IBS) are frozen across
  // fast-forward stretches so sample counts stay proportional to measured
  // windows.
  uint32_t CommitRunFf(int core, uint32_t begin, uint32_t end);
  // Commits the sync op at `index`; returns false when the core parked on a
  // lock whose release is still pending (op not consumed).
  bool CommitSyncOp(int core, uint32_t index);
  // Full per-op path for an access some hook may act on: assembles the
  // event, delivers it, and lets every PMU hook charge the core.
  void DispatchAccess(int core, uint32_t index, uint64_t& clock);

  void ResyncSink();
  void RefreshQuiet(int core);
  void FlushQuiet(int core);

  void EmitAccess(const AccessEvent& event);
  void EmitCompute(const ComputeEvent& event);
  // Delivers the epoch's built batch to the observers and clears it.
  void DeliverBatch();

  Machine* machine_;
  EngineConfig config_;
  // This epoch fast-forwards (sampled execution).
  bool ff_epoch_ = false;
  std::unique_ptr<SamplingController> sampler_;
  std::vector<CoreRecorder> recorders_;
  uint64_t epochs_run_ = 0;
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
  uint64_t commit_keys_[kMaxCores];
  uint32_t commit_cursor_[kMaxCores];
  uint32_t commit_sync_i_[kMaxCores];
  bool woke_parked_ = false;  // a lock release re-armed a parked core's key
  // PMU gate: remaining quiet budget across sink_.counting hooks, and the
  // accesses consumed under it but not yet flushed via OnQuietAccessBatch.
  // gate_unbounded_ marks a kQuietUnbounded budget (no accounting needed).
  uint64_t gate_quiet_[kMaxCores];
  uint64_t gate_skipped_[kMaxCores];
  uint8_t gate_unbounded_[kMaxCores];

  // Observer delivery: filled by the commit pass, delivered at its end.
  EventBatch batch_;
};

}  // namespace dprof

#endif  // DPROF_SRC_MACHINE_ENGINE_H_
