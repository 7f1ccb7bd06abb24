#include "src/machine/faults.h"

namespace dprof {

namespace {

// Per-seam magnitudes, sized so a short run sees every enabled seam fire
// many times.
constexpr uint32_t kSlabGrowPeriod = 4;        // ~1/4 of slab grows fail (then retry)
constexpr uint32_t kLanePeriod = 512;          // ~1/512 of lane records faulted
constexpr uint32_t kSkewMaxCycles = 64;        // per-core skew in [0, max) per epoch
constexpr uint32_t kExtWaysUnderPressure = 1;  // l3_dir_ext_ways under pressure
constexpr uint64_t kStallAfterEpochs = 64;     // epochs stop advancing from here on
constexpr uint64_t kCorruptFromAudit = 1;      // corrupt before this audit ordinal on

// SplitMix64 finalizer, same as the sampling schedule's: stateless, so every
// seam decision is a pure function of (seed, seam salt, coordinates).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Salt(FaultSeam seam) {
  return 0xd00d'0000ull + static_cast<uint64_t>(seam) * 0x1000'0001ull;
}

}  // namespace

const char* FaultSeamName(FaultSeam seam) {
  switch (seam) {
    case FaultSeam::kSlabGrow:
      return "slab_grow";
    case FaultSeam::kLaneDrop:
      return "lane_drop";
    case FaultSeam::kLaneDup:
      return "lane_dup";
    case FaultSeam::kClockSkew:
      return "clock_skew";
    case FaultSeam::kExtBankPressure:
      return "ext_pressure";
    case FaultSeam::kMailboxOverflow:
      return "mailbox_overflow";
    case FaultSeam::kWindowJitter:
      return "window_jitter";
    case FaultSeam::kLatticeCorrupt:
      return "lattice_corrupt";
    case FaultSeam::kEpochStall:
      return "epoch_stall";
    case FaultSeam::kCount:
      break;
  }
  return "?";
}

bool ParseFaultSeam(const std::string& name, FaultSeam* seam) {
  for (int i = 0; i < kNumFaultSeams; ++i) {
    if (name == FaultSeamName(static_cast<FaultSeam>(i))) {
      *seam = static_cast<FaultSeam>(i);
      return true;
    }
  }
  return false;
}

bool ParseFaultSeamList(const std::string& list, uint32_t* mask, std::string* error) {
  *mask = 0;
  size_t start = 0;
  while (start <= list.size()) {
    size_t end = list.find(',', start);
    if (end == std::string::npos) {
      end = list.size();
    }
    const std::string name = list.substr(start, end - start);
    if (name == "all") {
      *mask = (1u << kNumFaultSeams) - 1;
    } else if (!name.empty()) {
      FaultSeam seam;
      if (!ParseFaultSeam(name, &seam)) {
        if (error != nullptr) {
          *error = "unknown fault seam '" + name +
                   "' (try: slab_grow lane_drop lane_dup clock_skew ext_pressure "
                   "mailbox_overflow window_jitter lattice_corrupt epoch_stall all)";
        }
        return false;
      }
      *mask |= 1u << static_cast<int>(seam);
    }
    start = end + 1;
  }
  if (*mask == 0) {
    if (error != nullptr) {
      *error = "empty fault seam list";
    }
    return false;
  }
  return true;
}

bool FaultPlan::SlabGrowFails(int core, uint64_t slab_ordinal) {
  if (!enabled(FaultSeam::kSlabGrow)) {
    return false;
  }
  const uint64_t h = Mix(config_.seed ^ Salt(FaultSeam::kSlabGrow) ^
                         (slab_ordinal << 8) ^ static_cast<uint64_t>(core));
  if (h % kSlabGrowPeriod != 0) {
    return false;
  }
  NoteInjected(FaultSeam::kSlabGrow);
  return true;
}

LaneFault FaultPlan::LaneFaultFor(int core, uint64_t t, Addr addr) {
  const bool drop = enabled(FaultSeam::kLaneDrop);
  const bool dup = enabled(FaultSeam::kLaneDup);
  if (!drop && !dup) {
    return LaneFault::kNone;
  }
  const uint64_t h = Mix(config_.seed ^ Salt(FaultSeam::kLaneDrop) ^ (addr << 6) ^
                         (t << 1) ^ static_cast<uint64_t>(core));
  if (h % kLanePeriod != 0) {
    return LaneFault::kNone;
  }
  // Both seams on: the hash picks which fault this record suffers.
  const bool pick_drop = drop && (!dup || ((h >> 32) & 1u) != 0);
  const FaultSeam seam = pick_drop ? FaultSeam::kLaneDrop : FaultSeam::kLaneDup;
  NoteInjected(seam);
  NoteRecovered(seam);
  return pick_drop ? LaneFault::kDrop : LaneFault::kDup;
}

uint32_t FaultPlan::ClockSkew(int core, uint64_t epoch) {
  if (!enabled(FaultSeam::kClockSkew)) {
    return 0;
  }
  const uint64_t h = Mix(config_.seed ^ Salt(FaultSeam::kClockSkew) ^ (epoch << 5) ^
                         static_cast<uint64_t>(core));
  const uint32_t skew = static_cast<uint32_t>(h % kSkewMaxCycles);
  if (skew != 0) {
    NoteInjected(FaultSeam::kClockSkew);
    NoteRecovered(FaultSeam::kClockSkew);
  }
  return skew;
}

void FaultPlan::ApplyToHierarchy(HierarchyConfig* config) {
  if (!enabled(FaultSeam::kExtBankPressure)) {
    return;
  }
  if (kExtWaysUnderPressure < config->l3_dir_ext_ways) {
    config->l3_dir_ext_ways = kExtWaysUnderPressure;
    NoteInjected(FaultSeam::kExtBankPressure);
  }
}

void FaultPlan::NoteMailboxDrop() {
  NoteInjected(FaultSeam::kMailboxOverflow);
  NoteRecovered(FaultSeam::kMailboxOverflow);
}

bool FaultPlan::WindowJitterFires(uint64_t period) {
  if (!enabled(FaultSeam::kWindowJitter)) {
    return false;
  }
  // Every other period gets its window pushed off-contract, so the honesty
  // self-check sees repeated shortfalls and walks its degradation ladder.
  const uint64_t h =
      Mix(config_.seed ^ Salt(FaultSeam::kWindowJitter) ^ period);
  if ((h & 1u) == 0) {
    return false;
  }
  NoteInjected(FaultSeam::kWindowJitter);
  return true;
}

int FaultPlan::CorruptionAtAudit(uint64_t audit) {
  if (!enabled(FaultSeam::kLatticeCorrupt) || audit < kCorruptFromAudit) {
    return -1;
  }
  const uint64_t h = Mix(config_.seed ^ Salt(FaultSeam::kLatticeCorrupt) ^ audit);
  NoteInjected(FaultSeam::kLatticeCorrupt);
  return static_cast<int>(h % CacheHierarchy::kNumLatticeFaultKinds);
}

bool FaultPlan::StallsEpoch(uint64_t epoch) {
  if (!enabled(FaultSeam::kEpochStall) || epoch < kStallAfterEpochs) {
    return false;
  }
  NoteInjected(FaultSeam::kEpochStall);
  return true;
}

}  // namespace dprof
