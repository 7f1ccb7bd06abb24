#include "src/machine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/machine/faults.h"
#include "src/sim/audit.h"
#include "src/util/check.h"

namespace dprof {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

constexpr int Log2Floor(int v) { return v <= 1 ? 0 : 1 + Log2Floor(v >> 1); }

// Merge keys pack (timestamp << kCoreBits) | core, so an unconditional min
// reduction picks the smallest timestamp with ties to the lowest core id —
// the same rule the legacy loop's MinClockCore uses; per-core queues are
// FIFO, so same-core ops keep program order. The reduction over a fixed
// kMaxCores-slot array compiles to branchless min chains, which beats both
// a binary heap and a branchy argmin scan at this fan-in. Clocks stay far
// below 2^59, so the shift never overflows.
constexpr int kCoreBits = Log2Floor(Engine::kMaxCores);
constexpr uint64_t kCoreMask = Engine::kMaxCores - 1;
static_assert(Engine::kMaxCores == 1 << kCoreBits,
              "core extraction below assumes kMaxCores is a power of two");

constexpr uint64_t kDoneKey = ~0ull;

// Epoch length while Machine::epoch_focus() is set (a mailbox-fed type is
// under study): mailbox deliveries resolve at near-legacy granularity,
// closing the payload-type miss-rate drift of epoch batching, without paying
// the extra epochs on every run. Fidelity data: kernel scenario size-1024
// miss rate, legacy 69% vs engine 41% at 20k-cycle epochs, 57% at 2k
// (tests/engine_validation_test.cc).
constexpr uint64_t kEpochCyclesFocus = 2'000;

// Epoch-length cap for fast-forward stretches (sampled mode). FF epochs skip
// the apply phase and keep the counting PMU hooks frozen, so they are
// coarsened to amortize per-epoch overhead; the sampler's FfRunway still ends
// a stretch at the next detailed window. Watchpoint filters armed mid-epoch
// see accesses only from the next epoch on, so this also bounds that arming
// lag in simulated cycles.
constexpr uint64_t kFfEpochCycles = 100'000;

// The apply pass merges recorded accesses in (t >> kApplyQuantumBits, core,
// program order): cores' accesses interleave at quantum granularity instead
// of op granularity. The legacy loop reorders at driver-step granularity
// (one core runs a whole step before the min-clock scan picks the next), so
// a quantum of the same order (2048 cycles) keeps coherence timing
// comparable while giving the host long same-core runs — the simulated
// L1/L2 state stays hot and the merge tree amortizes across runs.
constexpr int kApplyQuantumBits = 11;

uint64_t PackKey(uint64_t timestamp, int core) {
  return (timestamp << kCoreBits) | static_cast<uint64_t>(core);
}

// Balanced-tree reduction: log-depth dependency chain, so the four-wide min
// stages overlap instead of serializing like a linear fold.
template <int kWidth>
__attribute__((always_inline)) inline uint64_t MinKeyTree(const uint64_t* keys) {
  uint64_t m[kWidth / 2];
  for (int i = 0; i < kWidth / 2; ++i) {
    m[i] = std::min(keys[2 * i], keys[2 * i + 1]);
  }
  for (int width = kWidth / 2; width > 1; width /= 2) {
    for (int i = 0; i < width / 2; ++i) {
      m[i] = std::min(m[2 * i], m[2 * i + 1]);
    }
  }
  return m[0];
}

__attribute__((always_inline)) inline uint64_t MinKey(const uint64_t* keys, int cores) {
  if (cores <= 8) {
    return MinKeyTree<8>(keys);
  }
  if (cores <= 16) {
    return MinKeyTree<16>(keys);
  }
  if (cores <= 32) {
    return MinKeyTree<32>(keys);
  }
  return MinKeyTree<64>(keys);
}

// Assembles the hook-facing event for one committed access.
inline AccessEvent MakeAccessEvent(int core, const ApplyLane& lane, uint32_t latency,
                                   uint64_t now) {
  AccessEvent event;
  event.core = core;
  event.ip = lane.ip;
  event.addr = lane.addr;
  event.size = lane.size_w & ~ApplyLane::kWriteBit;
  event.is_write = (lane.size_w & ApplyLane::kWriteBit) != 0;
  event.level = PackedAccessLevel(lane.result);
  event.latency = latency;
  event.invalidation = PackedAccessInvalidation(lane.result);
  event.now = now;
  return event;
}

}  // namespace

Engine::Engine(Machine* machine, const EngineConfig& config)
    : machine_(machine), config_(config) {
  DPROF_CHECK(config_.epoch_cycles > 0);
  DPROF_CHECK(machine_->num_cores() <= kMaxCores);
  if (config_.sampling.enabled) {
    sampler_ = std::make_unique<SamplingController>(config_.sampling);
  }
  const int cores = machine_->num_cores();
  recorders_.resize(cores);
  blocked_on_.assign(cores, nullptr);
  block_start_.assign(cores, 0);
  probe_latency_.assign(cores, 0);
  probe_active_.assign(cores, 0);
}

void Engine::RunFor(uint64_t cycles) {
  Machine& m = *machine_;
  // Observers see every operation; the engine serves PMU hooks only.
  DPROF_CHECK(m.observers_.empty());
  if (m.allocator_ != nullptr) {
    m.allocator_->CreateTypeCaches();
  }
  if (sampler_ != nullptr) {
    sampler_->SetFaultPlan(m.fault_plan());
  }
  const uint64_t deadline = m.MinClock() + cycles;
  const auto wall_start = Clock::now();
  uint64_t last_min = ~0ull;
  uint64_t stalled_epochs = 0;
  while (status_.ok()) {
    const uint64_t min_clock = m.MinClock();
    if (min_clock >= deadline) {
      break;
    }
    // Watchdog: healthy epochs always advance the committed min clock, so
    // repeated zero-progress epochs mean the run is wedged. The wall-clock
    // bound catches everything else (a livelocked phase still returns here
    // between epochs). Both convert a would-be hang into a diagnostic.
    if (min_clock == last_min) {
      if (config_.watchdog_stall_epochs > 0 &&
          ++stalled_epochs >= config_.watchdog_stall_epochs) {
        status_ = Status(StatusCode::kDeadlineExceeded, "watchdog",
                         "committed clock stuck at " + std::to_string(min_clock) +
                             " for " + std::to_string(stalled_epochs) +
                             " consecutive epochs");
        break;
      }
    } else {
      last_min = min_clock;
      stalled_epochs = 0;
    }
    if (config_.watchdog_wall_seconds > 0 &&
        Seconds(wall_start, Clock::now()) > config_.watchdog_wall_seconds) {
      status_ = Status(StatusCode::kDeadlineExceeded, "watchdog",
                       "epoch loop exceeded " +
                           std::to_string(config_.watchdog_wall_seconds) +
                           "s of wall time at committed clock " +
                           std::to_string(min_clock));
      break;
    }
    // Adaptive epoch length: tight while a mailbox-fed type is under study
    // (focus is pure session state, so the choice — and therefore the
    // committed stream — is deterministic).
    const uint64_t epoch = m.epoch_focus() ? kEpochCyclesFocus : config_.epoch_cycles;
    RunEpoch(min_clock, deadline, epoch);
    if (config_.audit_epochs > 0 && phase_stats_.epochs % config_.audit_epochs == 0) {
      RunAudit();
    }
    if (m.allocator_ != nullptr) {
      status_.Update(m.allocator_->status());
    }
  }
}

void Engine::RunAudit() {
  Machine& m = *machine_;
  FaultPlan* const plan = m.fault_plan();
  if (plan != nullptr) {
    // Detection-coverage harness: plant one planned corruption right before
    // the walk. The planned kind may have no live target in a sparse lattice
    // (nothing exclusive yet, empty extension bank), so rotate through the
    // kinds until one lands.
    const int kind = plan->CorruptionAtAudit(audits_run_);
    if (kind >= 0) {
      for (int k = 0; k < CacheHierarchy::kNumLatticeFaultKinds; ++k) {
        if (m.hierarchy_.InjectLatticeFault(
                (kind + k) % CacheHierarchy::kNumLatticeFaultKinds)) {
          break;
        }
      }
    }
  }
  // Committed-clock monotonicity: the one engine-owned invariant, checked
  // against the previous audit's snapshot at the same cadence.
  const int cores = m.num_cores();
  if (audit_prev_clocks_.empty()) {
    audit_prev_clocks_.assign(m.clocks_.begin(), m.clocks_.end());
  } else {
    for (int c = 0; c < cores; ++c) {
      if (m.clocks_[c] < audit_prev_clocks_[c]) {
        status_.Update(Status(
            StatusCode::kDataLoss, "audit",
            "committed clock of core " + std::to_string(c) + " moved backwards (" +
                std::to_string(audit_prev_clocks_[c]) + " -> " +
                std::to_string(m.clocks_[c]) + ")"));
      }
      audit_prev_clocks_[c] = m.clocks_[c];
    }
  }
  const InvariantAuditor auditor(&m.hierarchy_);
  const AuditResult result = auditor.Audit();
  ++audits_run_;
  if (!result.ok()) {
    std::string message = "lattice audit #" + std::to_string(audits_run_ - 1) +
                          " found " + std::to_string(result.total_violations) +
                          " violation(s)";
    if (!result.violations.empty()) {
      message += ": " + result.violations.front();
    }
    status_.Update(Status(StatusCode::kDataLoss, "audit", message));
  }
}

void Engine::RunEpoch(uint64_t min_clock, uint64_t deadline, uint64_t epoch_cycles) {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  // The sampling schedule is a function of the committed min-clock, so the
  // choice — like everything downstream of it — is deterministic.
  ff_epoch_ = sampler_ != nullptr && !sampler_->BeginEpoch(min_clock);
  // Fast-forward stretches coarsen the epoch: they skip the apply phase, so
  // the usual epoch granularity only buys overhead.
  // The stretch ends at the next detailed window (FfRunway) and at the
  // config cap; both are functions of the committed clock, so the epoch
  // schedule stays deterministic.
  uint64_t epoch_end = std::min(deadline, min_clock + epoch_cycles);
  if (ff_epoch_) {
    const uint64_t stretch =
        std::max(epoch_cycles, std::min(sampler_->FfRunway(min_clock), kFfEpochCycles));
    epoch_end = std::min(deadline, min_clock + stretch);
  }
  FaultPlan* const faults = m.fault_plan();
  if (faults != nullptr && faults->StallsEpoch(phase_stats_.epochs)) {
    // Injected scheduler wedge: the epoch ends where it starts, so no core
    // simulates and the committed min clock cannot advance. The watchdog in
    // RunFor is what turns the resulting no-progress streak into a status.
    epoch_end = min_clock;
  }
  // Fast-forward epochs snapshot the union of armed filter windows so
  // watchpoint-covered addresses keep recording dispatchable ops. Windows
  // armed mid-epoch (by an alloc-event handler) see their accesses from the
  // next epoch on — a documented approximation of sampled mode.
  Addr ff_lo = 0;
  Addr ff_hi = 0;
  if (ff_epoch_) {
    for (PmuHook* hook : m.pmu_hooks_) {
      Addr lo = 0;
      Addr hi = 0;
      if (hook->AccessFilter(&lo, &hi)) {
        if (ff_lo == ff_hi) {
          ff_lo = lo;
          ff_hi = hi;
        } else {
          ff_lo = std::min(ff_lo, lo);
          ff_hi = std::max(ff_hi, hi);
        }
      }
    }
  }
  for (int c = 0; c < cores; ++c) {
    CoreRecorder& rec = recorders_[c];
    // Calibrate the core's lower-bound cost model from the epoch just
    // committed: measured access-attributable clock advance (latency + PMU
    // interrupts + lock waits) over the raw estimate. Smoothed 3:1 to damp
    // oscillation; pure function of committed state. Fast-forwarded epochs
    // leave raw_access_cost at zero, so their estimated advances never feed
    // back into the scale.
    const uint64_t advance = m.clocks_[c] - rec.epoch_start_clock;
    if (rec.raw_access_cost > 0 && advance > rec.exact_cost) {
      uint64_t scale16 = ((advance - rec.exact_cost) * 16) / rec.raw_access_cost;
      scale16 = std::min<uint64_t>(std::max<uint64_t>(scale16, 16), 4096);
      rec.cost_scale16 =
          static_cast<uint32_t>((3ull * rec.cost_scale16 + scale16) / 4);
    }
    rec.Reset(m.clocks_[c]);
    if (ff_epoch_) {
      rec.ff = true;
      rec.ff_lo = ff_lo;
      rec.ff_hi = ff_hi;
    }
    // Injected per-core clock skew: an idle burst recorded at epoch start,
    // keyed on (core, epoch ordinal) only, so skewed runs stay
    // deterministic. Recovery is inherent — the commit pass
    // reconstructs exact clocks from the recorded ops like any idle time.
    if (faults != nullptr && epoch_end > min_clock) {
      const uint32_t skew = faults->ClockSkew(c, phase_stats_.epochs);
      if (skew != 0) {
        rec.RecordCycles(SimOp::kIdle, kInvalidFunction, skew);
      }
    }
  }
  const auto t0 = Clock::now();
  for (int c = 0; c < cores; ++c) {
    SimulateCore(c, epoch_end);
  }
  const auto t1 = Clock::now();
  // Fast-forward epochs never touch the hierarchy: no apply pass at all.
  if (!ff_epoch_) {
    ApplyGlobal();
  }
  const auto t2 = Clock::now();
  CommitEpoch();
  if (m.allocator_ != nullptr) {
    m.allocator_->FlushEpoch();
  }
  for (EpochHook* hook : m.epoch_hooks_) {
    hook->OnEpochCommit(m.MaxClock());
  }
  const auto t3 = Clock::now();
  phase_stats_.simulate_seconds += Seconds(t0, t1);
  phase_stats_.apply_seconds += Seconds(t1, t2);
  phase_stats_.commit_seconds += Seconds(t2, t3);
  ++phase_stats_.epochs;
  if (ff_epoch_) {
    ++phase_stats_.ff_epochs;
  }
  if (sampler_ != nullptr) {
    uint64_t accesses = 0;
    for (int c = 0; c < cores; ++c) {
      accesses += recorders_[c].accesses;
    }
    sampler_->EndEpoch(m.MinClock() - min_clock, accesses);
  }
}

void Engine::SimulateCore(int core, uint64_t epoch_end) {
  Machine& m = *machine_;
  CoreRecorder& rec = recorders_[core];
  CoreDriver* driver = m.drivers_[core];
  CoreContext ctx(&m, core, &rec);
  while (rec.lb < epoch_end) {
    const bool did_work = driver != nullptr && driver->Step(ctx);
    if (!did_work) {
      rec.RecordCycles(SimOp::kIdle, kInvalidFunction, Machine::kIdleCycles);
    }
  }
  // Every access was recorded at an lb no later than this one, so this
  // bounds every t_delta: a silent wrap would corrupt the apply merge order.
  DPROF_CHECK(rec.lb - rec.epoch_start_clock <= 0xffff'ffffull);
}

// The apply pass merges in (t >> kApplyQuantumBits, core, program order):
// see kApplyQuantumBits. The quantized key also makes same-core runs long
// (a core's whole quantum drains before the merge switches), so the
// min-tree recomputes once per run, not per op — and each drain is a
// contiguous span of the core's access column, applied in place.
void Engine::ApplyGlobal() {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  constexpr int qbits = kApplyQuantumBits;
  // Lane faults (dropped / duplicated records) are keyed on the recorded
  // (core, timestamp, address) alone, and a drop recovers to the optimistic
  // lower-bound result. Armed, they apply the drain lane by lane.
  FaultPlan* const faults = m.fault_plan();
  const bool lane_faults =
      faults != nullptr && (faults->enabled(FaultSeam::kLaneDrop) ||
                            faults->enabled(FaultSeam::kLaneDup));
  const uint32_t drop_result =
      PackAccessResult(LatencyOf(ServedBy::kL1), ServedBy::kL1, false);
  uint64_t keys[kMaxCores];
  uint32_t cursor[kMaxCores] = {0};
  int remaining = 0;
  for (int c = 0; c < kMaxCores; ++c) {
    keys[c] = kDoneKey;
  }
  for (int c = 0; c < cores; ++c) {
    const CoreRecorder& rec = recorders_[c];
    if (!rec.access.empty()) {
      keys[c] = PackKey((rec.epoch_start_clock + rec.access[0].t_delta) >> qbits, c);
      ++remaining;
    }
  }
  while (remaining > 0) {
    const int core = static_cast<int>(MinKey(keys, cores) & kCoreMask);
    CoreRecorder& rec = recorders_[core];
    ApplyLane* const lanes = rec.access.data();
    const uint32_t count = static_cast<uint32_t>(rec.access.size());
    const uint64_t base = rec.epoch_start_clock;
    keys[core] = kDoneKey;
    const uint64_t limit = MinKey(keys, cores);
    // The drain: this core's lanes up to the first whose key reaches the
    // smallest other key.
    const uint32_t begin = cursor[core];
    uint32_t end = begin + 1;
    uint64_t key = kDoneKey;
    for (; end < count; ++end) {
      key = PackKey((base + lanes[end].t_delta) >> qbits, core);
      if (key >= limit) {
        break;
      }
    }
    if (end == count) {
      key = kDoneKey;
    }
    if (!lane_faults) {
      m.hierarchy_.ApplyBatch(core, base, lanes + begin, end - begin);
    } else {
      for (ApplyLane* lane = lanes + begin; lane != lanes + end; ++lane) {
        const LaneFault fault = faults->LaneFaultFor(core, base + lane->t_delta, lane->addr);
        if (fault == LaneFault::kDrop) {
          // The record never reaches the hierarchy; recover by committing
          // the optimistic lower-bound result in its place.
          lane->result = drop_result;
          continue;
        }
        m.hierarchy_.ApplyBatch(core, base, lane, 1);
        if (fault == LaneFault::kDup) {
          // Replayed right after the original; the copy's result is dropped.
          ApplyLane copy = *lane;
          m.hierarchy_.ApplyBatch(core, base, &copy, 1);
        }
      }
    }
    cursor[core] = end;
    keys[core] = key;
    if (key == kDoneKey) {
      --remaining;
    }
  }
}

void Engine::ResyncSink() {
  Machine& m = *machine_;
  sink_.counting.clear();
  sink_.filtered.clear();
  for (PmuHook* hook : m.pmu_hooks_) {
    Addr lo = 0;
    Addr hi = 0;
    if (hook->AccessFilter(&lo, &hi)) {
      sink_.filtered.push_back(FusedSink::Filtered{hook, lo, hi});
    } else if (!ff_epoch_) {
      sink_.counting.push_back(hook);
    }
  }
}

void Engine::RefreshQuiet(int core) {
  uint64_t quiet = PmuHook::kQuietUnbounded;
  for (PmuHook* hook : sink_.counting) {
    quiet = std::min(quiet, hook->QuietOps(core));
  }
  gate_quiet_[core] = quiet;
  gate_unbounded_[core] = quiet == PmuHook::kQuietUnbounded ? 1 : 0;
}

void Engine::FlushQuiet(int core) {
  if (gate_skipped_[core] == 0) {
    return;
  }
  for (PmuHook* hook : sink_.counting) {
    hook->OnQuietAccessBatch(core, gate_skipped_[core]);
  }
  gate_skipped_[core] = 0;
}

// Commit order is the legacy scheduling rule: always the core with the
// smallest *committed* clock (ties to the lowest id). Ordering by recorded
// lb timestamps instead would let a core whose true clock raced ahead (PMU
// interrupts, miss latencies) release locks far in the future and drag
// every later acquirer's clock up with it — phantom waits that collapse
// throughput.
//
// The schedule is segmented: the only ops whose commit another core can
// observe are sync ops (locks, allocator events) and PMU dispatches (IBS
// samples, watchpoint hits) — everything else advances purely core-local
// state. Those ops arbitrate one at a time under the min-clock rule, and
// since each commits exactly when its core's pre-op clock is the global
// minimum, their cross-core order — lock arbitration, allocation-event
// order, sample and hit delivery into shared handlers — is identical to
// the fully sequential per-op merge. The segments between them commit as
// whole per-core batches; clock trajectories are unaffected.
void Engine::CommitEpoch() {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  ResyncSink();
  woke_parked_ = false;
  int remaining = 0;
  for (int c = 0; c < kMaxCores; ++c) {
    commit_keys_[c] = kDoneKey;
  }
  for (int c = 0; c < cores; ++c) {
    commit_access_[c] = 0;
    commit_op_[c] = 0;
    gate_skipped_[c] = 0;
    RefreshQuiet(c);
    if (!recorders_[c].empty()) {
      commit_keys_[c] = PackKey(m.clocks_[c], c);
      ++remaining;
    }
  }
  while (remaining > 0) {
    const uint64_t min_key = MinKey(commit_keys_, cores);
    // All live queues parked on locks with no pending release would mean a
    // critical section spanning a driver step, which drivers must not do.
    DPROF_CHECK(min_key != kDoneKey);
    const int core = static_cast<int>(min_key & kCoreMask);
    const CoreRecorder& rec = recorders_[core];
    const uint32_t num_ops = static_cast<uint32_t>(rec.ops.size());
    const uint32_t num_lanes = static_cast<uint32_t>(rec.access.size());
    // Run-until-limit: keys only grow as cores commit (clocks are
    // nondecreasing), so this core keeps the floor — and commits turn after
    // turn without touching the merge tree — until its key reaches the
    // smallest other key. The one event that can lower another key, a lock
    // release waking parked cores, forces a full re-arbitration.
    commit_keys_[core] = kDoneKey;
    const uint64_t limit = MinKey(commit_keys_, cores);
    uint64_t key = kDoneKey;
    while (true) {
      const uint32_t op = commit_op_[core];
      bool woke = false;
      if (op < num_ops && rec.ops[op].at == commit_access_[core] &&
          (rec.ops[op].kind & SimOp::kKindMask) >= SimOp::kFirstSync) {
        const uint8_t sync_kind = rec.ops[op].kind & SimOp::kKindMask;
        if (!CommitSyncOp(core, op)) {
          key = kDoneKey;  // parked; the release re-arms the key
          break;
        }
        ++commit_op_[core];
        // Allocation events drive watchpoint arming through their
        // observers, changing the filter windows; lock ops cannot rearm
        // anything. The counting hooks' quiet budgets stay valid:
        // (dis)arming only moves a hook between the filtered and
        // unbounded-quiet classes.
        if (sync_kind >= SimOp::kAllocEvent) {
          ResyncSink();
        } else {
          woke = sync_kind == SimOp::kLockRelease && woke_parked_;
          woke_parked_ = false;
        }
      } else {
        // Commits the segment up to the next sync op, stopping at (and
        // re-arbitrating before) any access a PMU hook can act on — unless
        // that access is the op just arbitrated, which dispatches now.
        CommitRun(core);
      }
      if (commit_op_[core] == num_ops && commit_access_[core] == num_lanes) {
        key = kDoneKey;
        --remaining;
        break;
      }
      key = PackKey(m.clocks_[core], core);
      if (woke || key >= limit) {
        break;
      }
    }
    commit_keys_[core] = key;
  }
  for (int c = 0; c < cores; ++c) {
    FlushQuiet(c);
  }
}

void Engine::CommitRun(int core) {
  Machine& m = *machine_;
  const CoreRecorder& rec = recorders_[core];
  // Hot state lives in locals: routing every op's clock/gate/probe update
  // through the member arrays would make each store a potential alias of
  // the recorder's streams and force reloads. The committed clock syncs
  // with m.clocks_ around DispatchAccess (whose hook handlers may read
  // machine clocks) and at return.
  const ApplyLane* const lanes = rec.access.data();
  const SimOp* const ops = rec.ops.data();
  const uint32_t num_ops = static_cast<uint32_t>(rec.ops.size());
  const uint32_t num_lanes = static_cast<uint32_t>(rec.access.size());
  const uint32_t begin = commit_access_[core];
  const uint32_t begin_op = commit_op_[core];
  uint32_t i = begin;
  uint32_t op = begin_op;
  uint64_t clock = m.clocks_[core];
  uint64_t probe_lat = probe_latency_[core];
  uint8_t probing = probe_active_[core];
  // The access run ends at the next op, or at the column's end.
  auto run_end = [&]() __attribute__((always_inline)) {
    return op < num_ops ? ops[op].at : num_lanes;
  };
  // Commits the op at `op` unless it is a sync op or the stream is done;
  // returns whether it did. Non-access ops advance only the clock and the
  // probe state, the same way in both loops below.
  auto commit_other = [&]() __attribute__((always_inline)) {
    if (op == num_ops) {
      return false;
    }
    const SimOp& o = ops[op];
    const uint8_t k = o.kind & SimOp::kKindMask;
    if (k >= SimOp::kFirstSync) {
      return false;
    }
    if (k == SimOp::kCompute || k == SimOp::kIdle) {
      clock += o.payload;
    } else if (k == SimOp::kFfRun) {
      // The estimate is base cost + estimated latency per access; probes
      // integrate the latency share. A run opened or extended inside a probe
      // holds accesses only (CoreRecorder::RecordCycles).
      clock += o.payload;
      if (probing != 0) {
        probe_lat += o.payload - o.addr * Machine::kBaseOpCost;
      }
    } else if (k == SimOp::kProbeBegin) {
      probing = 1;
      probe_lat = 0;
    } else {
      DPROF_DCHECK(k == SimOp::kProbeEnd);
      probing = 0;
      double divisor = 1.0;
      __builtin_memcpy(&divisor, &o.payload, sizeof(double));
      reinterpret_cast<RunningStat*>(o.addr)->Add(static_cast<double>(probe_lat) / divisor);
    }
    ++op;
    return true;
  };
  // Passthrough: no hook can act on any access in this segment (counting
  // hooks unbounded-quiet or frozen, no armed filters) — the loop reduces to
  // clock reconstruction. Hooks with an unbounded guarantee need no skip
  // accounting, so the gate is bypassed entirely.
  if (gate_unbounded_[core] != 0 && sink_.filtered.empty()) {
    do {
      for (const uint32_t end = run_end(); i < end; ++i) {
        const uint32_t latency = PackedAccessLatency(lanes[i].result);
        clock += Machine::kBaseOpCost + latency;
        if (probing != 0) {
          probe_lat += latency;
        }
      }
    } while (commit_other());
    m.clocks_[core] = clock;
    probe_latency_[core] = probe_lat;
    probe_active_[core] = probing;
    commit_access_[core] = i;
    commit_op_[core] = op;
    return;
  }
  uint64_t quiet = gate_quiet_[core];
  uint64_t skipped = gate_skipped_[core];
  do {
    const uint32_t end = run_end();
    for (; i < end; ++i) {
      const ApplyLane& lane = lanes[i];
      // Gate: can any PMU hook act on this access? Counting hooks are
      // covered by the quiet budget; filtered hooks by the window check.
      bool needs_hook = quiet == 0;
      if (!needs_hook && !sink_.filtered.empty()) {
        const uint32_t size = lane.size_w & ~ApplyLane::kWriteBit;
        for (const FusedSink::Filtered& f : sink_.filtered) {
          if (lane.addr < f.hi && f.lo < lane.addr + size) {
            needs_hook = true;
            break;
          }
        }
      }
      if (needs_hook) {
        if (i != begin || op != begin_op) {
          break;  // an arbitration point: hand back to the scheduler
        }
        // Sync the member state the dispatch path (hooks, gate flush,
        // resync) reads and writes, then reload it.
        m.clocks_[core] = clock;
        probe_latency_[core] = probe_lat;
        probe_active_[core] = probing;
        gate_quiet_[core] = quiet;
        gate_skipped_[core] = skipped;
        DispatchAccess(core, lane, m.clocks_[core]);
        clock = m.clocks_[core];
        probe_lat = probe_latency_[core];
        probing = probe_active_[core];
        quiet = gate_quiet_[core];
        skipped = gate_skipped_[core];
        continue;
      }
      --quiet;
      ++skipped;
      const uint32_t latency = PackedAccessLatency(lane.result);
      clock += Machine::kBaseOpCost + latency;
      if (probing != 0) {
        probe_lat += latency;
      }
    }
  } while (i == run_end() && commit_other());
  m.clocks_[core] = clock;
  probe_latency_[core] = probe_lat;
  probe_active_[core] = probing;
  gate_quiet_[core] = quiet;
  gate_skipped_[core] = skipped;
  commit_access_[core] = i;
  commit_op_[core] = op;
}

void Engine::DispatchAccess(int core, const ApplyLane& lane, uint64_t& clock) {
  Machine& m = *machine_;
  // Counting hooks must be current before their per-op consultation.
  FlushQuiet(core);
  const uint32_t latency = PackedAccessLatency(lane.result);
  clock += Machine::kBaseOpCost + latency;
  if (probe_active_[core] != 0) {
    probe_latency_[core] += latency;
  }
  const AccessEvent event = MakeAccessEvent(core, lane, latency, clock);
  if (ff_epoch_) {
    // Counting hooks are frozen: the watching debug registers alone see the
    // access, at its estimated latency.
    const uint32_t size = lane.size_w & ~ApplyLane::kWriteBit;
    for (const FusedSink::Filtered& f : sink_.filtered) {
      if (lane.addr < f.hi && f.lo < lane.addr + size) {
        clock += f.hook->OnAccess(event);
      }
    }
  } else {
    for (PmuHook* hook : m.pmu_hooks_) {
      const uint64_t extra = hook->OnAccess(event);
      if (extra != 0) {
        clock += extra;
      }
    }
  }
  // A handler may have (dis)armed a watchpoint or reset a countdown.
  ResyncSink();
  RefreshQuiet(core);
}

bool Engine::CommitSyncOp(int core, uint32_t index) {
  Machine& m = *machine_;
  const SimOp& op = recorders_[core].ops[index];
  const uint8_t kind = op.kind & SimOp::kKindMask;
  uint64_t& clock = m.clocks_[core];
  switch (kind) {
    case SimOp::kLockAcquire: {
      SimLock* lock = reinterpret_cast<SimLock*>(op.addr);
      if (lock->holder_ >= 0 && lock->holder_ != core) {
        // The holder's release is still pending in this commit: park this
        // core (its queue stops merging) until that release wakes it.
        // Without parking, the nondecreasing commit-clock order would make
        // every same-epoch wait zero and let critical sections overlap.
        if (blocked_on_[core] == nullptr) {
          blocked_on_[core] = lock;
          block_start_[core] = clock;
        }
        return false;  // op not consumed; retried after the wake-up
      }
      uint64_t wait = 0;
      if (blocked_on_[core] != nullptr) {
        blocked_on_[core] = nullptr;
        wait = clock > block_start_[core] ? clock - block_start_[core] : 0;
      }
      if (lock->free_at_ > clock) {
        wait += lock->free_at_ - clock;
        clock = lock->free_at_;
      }
      lock->holder_ = core;
      lock->acquired_at_ = clock;
      if (m.lock_observer_ != nullptr) {
        m.lock_observer_->OnAcquire(*lock, core, op.ip, wait, clock);
      }
      return true;
    }
    case SimOp::kLockRelease: {
      SimLock* lock = reinterpret_cast<SimLock*>(op.addr);
      const uint64_t hold = clock - lock->acquired_at_;
      lock->free_at_ = clock;
      lock->holder_ = -1;
      if (m.lock_observer_ != nullptr) {
        m.lock_observer_->OnRelease(*lock, core, op.ip, hold, clock);
      }
      // Wake cores parked on this lock: they waited until this release,
      // then re-arbitrate by the usual min-clock rule.
      for (int c = 0; c < m.num_cores(); ++c) {
        if (blocked_on_[c] == lock) {
          if (clock > m.clocks_[c]) {
            m.clocks_[c] = clock;
          }
          commit_keys_[c] = PackKey(m.clocks_[c], c);
          woke_parked_ = true;
        }
      }
      return true;
    }
    case SimOp::kAllocEvent:
      m.allocator_->CommitAllocEvent(static_cast<TypeId>(op.payload >> 32), op.addr,
                                     static_cast<uint32_t>(op.payload), core, clock);
      return true;
    default:
      DPROF_DCHECK(kind == SimOp::kFreeEvent);
      m.allocator_->CommitFreeEvent(static_cast<TypeId>(op.payload >> 32), op.addr,
                                    static_cast<uint32_t>(op.payload), core, clock,
                                    (op.kind & SimOp::kAlienBit) != 0);
      return true;
  }
}

}  // namespace dprof
