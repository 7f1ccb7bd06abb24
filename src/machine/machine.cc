#include "src/machine/machine.h"

#include <algorithm>

#include "src/machine/engine.h"
#include "src/util/check.h"

namespace dprof {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      hierarchy_(config.hierarchy),
      clocks_(config.hierarchy.num_cores, 0),
      drivers_(config.hierarchy.num_cores, nullptr) {
  rngs_.reserve(config.hierarchy.num_cores);
  for (int c = 0; c < config.hierarchy.num_cores; ++c) {
    rngs_.emplace_back(config.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1);
  }
}

void Machine::RemoveObserver(MachineObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void Machine::RemovePmuHook(PmuHook* hook) {
  pmu_hooks_.erase(std::remove(pmu_hooks_.begin(), pmu_hooks_.end(), hook), pmu_hooks_.end());
}

void Machine::RemoveEpochHook(EpochHook* hook) {
  epoch_hooks_.erase(std::remove(epoch_hooks_.begin(), epoch_hooks_.end(), hook),
                     epoch_hooks_.end());
}

void Machine::NoteMailboxFedType(TypeId type) {
  if (!IsMailboxFedType(type)) {
    mailbox_fed_types_.push_back(type);
  }
}

bool Machine::IsMailboxFedType(TypeId type) const {
  return std::find(mailbox_fed_types_.begin(), mailbox_fed_types_.end(), type) !=
         mailbox_fed_types_.end();
}

uint64_t Machine::MinClock() const {
  return *std::min_element(clocks_.begin(), clocks_.end());
}

uint64_t Machine::MaxClock() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

int Machine::MinClockCore() const {
  int best = 0;
  for (int c = 1; c < num_cores(); ++c) {
    if (clocks_[c] < clocks_[best]) {
      best = c;
    }
  }
  return best;
}

void Machine::StepCore(int core) {
  CoreDriver* driver = drivers_[core];
  bool did_work = false;
  if (driver != nullptr) {
    CoreContext ctx(this, core);
    did_work = driver->Step(ctx);
  }
  if (!did_work) {
    clocks_[core] += kIdleCycles;
  }
}

void Machine::RunFor(uint64_t cycles) {
  if (engine_ != nullptr) {
    engine_->RunFor(cycles);
    return;
  }
  const uint64_t deadline = MinClock() + cycles;
  while (MinClock() < deadline) {
    StepCore(MinClockCore());
  }
}

void Machine::RunSteps(uint64_t steps) {
  for (uint64_t i = 0; i < steps; ++i) {
    StepCore(MinClockCore());
  }
}

CoreContext Machine::Context(int core) {
  DPROF_CHECK(core >= 0 && core < num_cores());
  return CoreContext(this, core);
}

AccessResult CoreContext::Access(FunctionId ip, Addr addr, uint32_t size, bool is_write) {
  // A large access (memcpy, DMA fetch) is really a loop of line-sized
  // loads/stores; model it that way so each simulated "instruction" touches
  // at most one cache line. This keeps IBS sampling probability proportional
  // to the number of instructions, as on real hardware.
  Machine& m = *machine_;
  const uint32_t line_size = m.hierarchy_.line_size();

  if (recorder_ != nullptr) {
    // Engine mode: queue one op per line chunk; results resolve at commit.
    CoreRecorder& rec = *recorder_;
    const uint32_t l1_latency = LatencyOf(ServedBy::kL1);
    const uint32_t raw_cost = Machine::kBaseOpCost + l1_latency;
    const uint32_t write_bit = is_write ? ApplyLane::kWriteBit : 0u;
    AccessResult total;
    Addr at = addr;
    uint32_t remaining = size;
    if (rec.ff) {
      // Fast-forward: charge the calibrated estimate, skip the hierarchy.
      // Accesses inside the armed filter window snapshot still record real
      // accesses (with the estimate prefilled as the result) so commit can
      // dispatch them to the watching hook.
      while (remaining > 0) {
        const uint32_t line_room =
            static_cast<uint32_t>(line_size - (at & (line_size - 1)));
        const uint32_t chunk = remaining < line_room ? remaining : line_room;
        ++rec.accesses;
        const uint64_t t = rec.lb;
        const uint64_t est = rec.ChargeFf(raw_cost);
        if (at < rec.ff_hi && at + chunk > rec.ff_lo) {
          const uint64_t extra =
              est > Machine::kBaseOpCost ? est - Machine::kBaseOpCost : 0;
          rec.PushAccess(t, at, chunk | write_bit, ip,
                         PackAccessResult(static_cast<uint32_t>(extra), ServedBy::kL1, false));
        } else {
          rec.PushFfRun(est);
        }
        total.latency += l1_latency;
        ++total.lines;
        at += chunk;
        remaining -= chunk;
      }
      return total;
    }
    while (remaining > 0) {
      const uint32_t line_room =
          static_cast<uint32_t>(line_size - (at & (line_size - 1)));
      const uint32_t chunk = remaining < line_room ? remaining : line_room;
      ++rec.accesses;
      rec.PushAccess(rec.lb, at, chunk | write_bit, ip);
      rec.ChargeAccess(raw_cost);
      total.latency += l1_latency;
      ++total.lines;
      at += chunk;
      remaining -= chunk;
    }
    return total;  // lower bound: L1 latency, no miss/invalidation flags
  }

  AccessResult total;
  Addr at = addr;
  uint32_t remaining = size;
  while (remaining > 0) {
    const uint32_t line_room = static_cast<uint32_t>(line_size - (at & (line_size - 1)));
    const uint32_t chunk = remaining < line_room ? remaining : line_room;
    const AccessResult r = m.hierarchy_.Access(core_, at, chunk, is_write, now());
    m.clocks_[core_] += Machine::kBaseOpCost + r.latency;

    total.latency += r.latency;
    total.level = std::max(total.level, r.level);
    total.l1_miss = total.l1_miss || r.l1_miss;
    total.invalidation = total.invalidation || r.invalidation;
    total.lines += r.lines;
    if (probing_) {
      probe_latency_ += r.latency;
    }

    AccessEvent event;
    event.core = core_;
    event.ip = ip;
    event.addr = at;
    event.size = chunk;
    event.is_write = is_write;
    event.level = r.level;
    event.latency = r.latency;
    event.invalidation = r.invalidation;
    event.now = m.clocks_[core_];

    for (MachineObserver* obs : m.observers_) {
      obs->OnAccess(event);
    }
    for (PmuHook* hook : m.pmu_hooks_) {
      const uint64_t extra = hook->OnAccess(event);
      if (extra != 0) {
        // Interrupt + handler cost lands on the executing core but is not
        // attributed to the workload function.
        m.clocks_[core_] += extra;
      }
    }
    at += chunk;
    remaining -= chunk;
  }
  return total;
}

void CoreContext::Compute(FunctionId ip, uint64_t cycles) {
  Machine& m = *machine_;
  if (recorder_ != nullptr) {
    recorder_->RecordCycles(SimOp::kCompute, ip, cycles);
    return;
  }
  m.clocks_[core_] += cycles;
  for (MachineObserver* obs : m.observers_) {
    obs->OnCompute(core_, ip, cycles, m.clocks_[core_]);
  }
}

Addr CoreContext::Alloc(TypeId type, FunctionId ip) {
  DPROF_CHECK(machine_->allocator_ != nullptr);
  return machine_->allocator_->Alloc(*this, type, ip);
}

void CoreContext::Free(Addr addr, FunctionId ip) {
  DPROF_CHECK(machine_->allocator_ != nullptr);
  machine_->allocator_->Free(*this, addr, ip);
}

void CoreContext::LockAcquire(SimLock& lock, FunctionId ip) {
  Machine& m = *machine_;
  if (recorder_ != nullptr) {
    // The lock-word access records first, the acquire op after it: at
    // commit, latency-then-wait sums to the same clock as the direct
    // mode's wait-then-latency, and the acquire needs only one sync op
    // (arbitration point) instead of an acquire/done pair bracketing the
    // access.
    Access(ip, lock.word_, 8, true);
    recorder_->Push(SimOp::kLockAcquire, reinterpret_cast<Addr>(&lock), 0, ip);
    return;
  }
  uint64_t wait = 0;
  if (lock.free_at_ > now()) {
    wait = lock.free_at_ - now();
    m.clocks_[core_] = lock.free_at_;
  }
  // Grab the lock word exclusively: coherence traffic on contended locks.
  Access(ip, lock.word_, 8, true);
  lock.holder_ = core_;
  lock.acquired_at_ = now();
  if (m.lock_observer_ != nullptr) {
    m.lock_observer_->OnAcquire(lock, core_, ip, wait, now());
  }
}

void CoreContext::LockRelease(SimLock& lock, FunctionId ip) {
  Machine& m = *machine_;
  if (recorder_ != nullptr) {
    Access(ip, lock.word_, 8, true);
    recorder_->Push(SimOp::kLockRelease, reinterpret_cast<Addr>(&lock), 0, ip);
    return;
  }
  DPROF_DCHECK(lock.holder_ == core_);
  Access(ip, lock.word_, 8, true);
  const uint64_t hold = now() - lock.acquired_at_;
  lock.free_at_ = now();
  lock.holder_ = -1;
  if (m.lock_observer_ != nullptr) {
    m.lock_observer_->OnRelease(lock, core_, ip, hold, now());
  }
}

void CoreContext::BeginLatencyProbe() {
  if (recorder_ != nullptr) {
    recorder_->Push(SimOp::kProbeBegin, kNullAddr, 0);
    recorder_->probing = true;
    return;
  }
  probing_ = true;
  probe_latency_ = 0;
}

void CoreContext::EndLatencyProbe(RunningStat* stat, double divisor) {
  if (recorder_ != nullptr) {
    static_assert(sizeof(double) == sizeof(uint64_t), "divisor packing");
    uint64_t bits = 0;
    __builtin_memcpy(&bits, &divisor, sizeof(double));
    recorder_->Push(SimOp::kProbeEnd, reinterpret_cast<Addr>(stat), bits);
    recorder_->probing = false;
    return;
  }
  probing_ = false;
  stat->Add(static_cast<double>(probe_latency_) / divisor);
}

void CoreContext::NotifyAllocEvent(TypeId type, Addr base, uint32_t size) {
  if (recorder_ != nullptr) {
    recorder_->Push(SimOp::kAllocEvent, base, (static_cast<uint64_t>(type) << 32) | size);
    return;
  }
  machine_->allocator_->CommitAllocEvent(type, base, size, core_, now());
}

void CoreContext::NotifyFreeEvent(TypeId type, Addr base, uint32_t size, bool alien) {
  if (recorder_ != nullptr) {
    recorder_->Push(SimOp::kFreeEvent, base, (static_cast<uint64_t>(type) << 32) | size,
                    kInvalidFunction, alien ? SimOp::kAlienBit : 0);
    return;
  }
  machine_->allocator_->CommitFreeEvent(type, base, size, core_, now(), alien);
}

}  // namespace dprof
