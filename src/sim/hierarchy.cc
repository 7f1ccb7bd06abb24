#include "src/sim/hierarchy.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/util/check.h"

namespace dprof {

const char* ServedByName(ServedBy level) {
  switch (level) {
    case ServedBy::kL1:
      return "local L1";
    case ServedBy::kL2:
      return "local L2";
    case ServedBy::kL3:
      return "shared L3";
    case ServedBy::kForeignCache:
      return "foreign cache";
    case ServedBy::kDram:
      return "DRAM";
  }
  return "?";
}

// Anonymous private mappings come back zero-filled and page-aligned, and
// their pages stay on the kernel's zero page until first written.
void* CacheHierarchy::MapZeroPages(size_t bytes) {
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DPROF_CHECK(data != MAP_FAILED);
  return data;
}

void CacheHierarchy::UnmapPages(void* data, size_t bytes) {
  if (data != nullptr) {
    munmap(data, bytes);
  }
}

void CacheHierarchy::RemapZeroPages(void* data, size_t bytes) {
  void* fresh = mmap(data, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  DPROF_CHECK(fresh == data);
}

void CacheHierarchy::Level::Init(const CacheGeometry& geometry, int num_cores) {
  DPROF_CHECK(geometry.ways > 0);
  DPROF_CHECK(geometry.IsPowerOfTwoShaped());
  ways = geometry.ways;
  sets = geometry.NumSets();
  set_mask = geometry.SetMask();
  const size_t slots = static_cast<size_t>(num_cores) * sets * ways;
  tags = ZeroPages<uint64_t>(slots);
  stamps = ZeroPages<uint64_t>(slots);
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config) : config_(config) {
  DPROF_CHECK(config.num_cores > 0 && config.num_cores <= 64);
  DPROF_CHECK(config.l1.line_size == config.l2.line_size &&
              config.l2.line_size == config.l3.line_size);
  DPROF_CHECK(config.l3.IsPowerOfTwoShaped());
  DPROF_CHECK(config.l3.ways > 0);
  DPROF_CHECK(config.l3_dir_ext_ways > 0);
  const int sockets = config.num_sockets;
  DPROF_CHECK(sockets > 0 && (sockets & (sockets - 1)) == 0);
  DPROF_CHECK(config.num_cores % sockets == 0);
  line_shift_ = config_.l1.LineShift();

  l1_.Init(config.l1, config.num_cores);
  l2_.Init(config.l2, config.num_cores);

  l3_ways_ = config.l3.ways;
  l3_ext_ways_ = config.l3_dir_ext_ways;
  l3_sets_ = config.l3.NumSets();
  l3_set_mask_ = config.l3.SetMask();
  // One L3 slice per socket: the global set array concatenates the slices,
  // and L3SetOf(line) = home_socket * l3_sets_ + within-slice set.
  l3_total_sets_ = l3_sets_ * static_cast<uint64_t>(sockets);
  // Data ways in 8-way planes; a partial last plane is padded to 8 ways.
  const uint64_t plane_slots = l3_total_sets_ * kPlaneWays;
  l3_plane_shift_ = static_cast<uint32_t>(__builtin_ctzll(plane_slots));
  const size_t l3_slots = (l3_ways_ + kPlaneWays - 1) / kPlaneWays * plane_slots;
  l3_tags_ = ZeroPages<uint64_t>(l3_slots);
  l3_stamps_ = ZeroPages<uint64_t>(l3_slots);
  l3_meta_ = ZeroPages<WayMeta>(l3_slots);
  l3_ext_.resize(l3_total_sets_);
  l3_tag_count_ = ZeroPages<uint16_t>(l3_total_sets_);

  // Home bits sit at the top of the home period, and the period divides
  // every level's set count (all powers of two), so two lines in the same
  // private set row always share a home slice.
  uint64_t period = kHomePeriodLines;
  period = std::min(period, l1_.sets);
  period = std::min(period, l2_.sets);
  period = std::min(period, l3_sets_);
  DPROF_CHECK(static_cast<uint64_t>(sockets) <= period);
  socket_mask_ = static_cast<uint32_t>(sockets - 1);
  const uint32_t period_bits = static_cast<uint32_t>(__builtin_ctzll(period));
  const uint32_t socket_bits =
      sockets > 1 ? static_cast<uint32_t>(__builtin_ctz(static_cast<uint32_t>(sockets))) : 0;
  home_shift_ = period_bits - socket_bits;
  cores_per_socket_ = config.num_cores / sockets;
  core_stats_.assign(static_cast<size_t>(config.num_cores), StatStripe());
  agg_core_stats_.resize(config.num_cores);
}

void CacheHierarchy::RemoveAt(Level& level, size_t slot) {
  level.tags[slot] = kEmptyTag;
  level.stamps[slot] = 0;
}

// ScanRow's one tag-only pass produces both the probe result and the fill
// candidate: the matching way, or the first invalid way. A hit touches no
// LRU state; on a miss the caller fills here — no second walk over the
// tags, and the stamps column is read only when a full row actually forces
// an LRU choice.
uint32_t CacheHierarchy::FillAt(Level& level, size_t row, const RowScan& scan,
                                uint64_t line, uint64_t now, uint64_t* victim) {
  uint32_t w;
  if (scan.free >= 0) {
    w = static_cast<uint32_t>(scan.free);
    *victim = kNoLine;
  } else {
    // Row is full: pick the LRU way now.
    w = OldestOf(&level.stamps[row], level.ways);
    *victim = DecodeTag(level.tags[row + w]) & kPrivTagMask;
  }
  const size_t slot = row + w;
  level.tags[slot] = EncodeTag(line);  // a fresh fill is never exclusive
  level.stamps[slot] = now;
  return w;
}

int CacheHierarchy::FindL3Slot(uint64_t set, uint64_t line) const {
  const uint64_t* tags = &l3_tags_[L3SetBase(set)];
  const uint64_t key = EncodeTag(line);
  uint32_t remaining = l3_tag_count_[set];
  for (uint32_t w = 0; remaining > 0; ++w) {
    const uint64_t tag = tags[L3WayOffset(w)];
    if (tag == kEmptyTag) {
      continue;
    }
    if ((tag & kTagMask) == key) {
      return static_cast<int>(w);
    }
    --remaining;
  }
  const std::vector<ExtWay>& ext = l3_ext_[set];
  for (uint32_t i = 0; i < ext.size(); ++i) {
    if (ext[i].tag == line) {
      return static_cast<int>(l3_ways_ + i);
    }
  }
  return -1;
}

// Like ScanRow for the L3 lattice: a tag-only walk over the tagged data
// ways (the per-set count bounds it, so near-empty sets cost a couple of
// compares) also yields the free fill candidate a promote needs. "Free"
// means no *valid data*: untagged ways and in-place dir-only residues both
// qualify — exactly the ways the classic model would have left invalid.
CacheHierarchy::L3Scan CacheHierarchy::ScanL3(uint64_t set, uint64_t line) const {
  const uint64_t* tags = &l3_tags_[L3SetBase(set)];
  const uint64_t key = EncodeTag(line);
  L3Scan scan;
  int free = -1;
  uint32_t remaining = l3_tag_count_[set];
  uint32_t w = 0;
  for (; remaining > 0; ++w) {
    const uint64_t tag = tags[L3WayOffset(w)];
    if (tag == kEmptyTag) {
      if (free < 0) {
        free = static_cast<int>(w);
      }
      continue;
    }
    --remaining;
    const bool dir_only = tag >= kDirOnlyBit;
    if (dir_only && free < 0) {
      free = static_cast<int>(w);
    }
    if ((tag & kTagMask) == key) {
      scan.slot = static_cast<int>(w);
      scan.free_data = free;
      return scan;
    }
  }
  if (free < 0 && w < l3_ways_) {
    free = static_cast<int>(w);  // every way past the last tagged one is free
  }
  scan.free_data = free;
  const std::vector<ExtWay>& ext = l3_ext_[set];
  for (uint32_t i = 0; i < ext.size(); ++i) {
    if (ext[i].tag == line) {
      scan.slot = static_cast<int>(l3_ways_ + i);
      break;
    }
  }
  return scan;
}

void CacheHierarchy::ReclaimExtWay(uint64_t set) {
  const std::vector<ExtWay>& ext = l3_ext_[set];
  DPROF_DCHECK(!ext.empty());
  // Oldest stamp; the first index wins ties.
  uint32_t oldest = 0;
  for (uint32_t i = 1; i < ext.size(); ++i) {
    if (ext[i].stamp < ext[oldest].stamp) {
      oldest = i;
    }
  }
  const uint64_t line = ext[oldest].tag;
  const WayMeta meta = ext[oldest].meta;
  const int home = HomeOfLine(line);
  // The inclusion obligation: a tag leaving the lattice takes every private
  // copy it tracked with it (the owner's sharer bit is always set, so a
  // dirty owner is covered; the data itself is conceptually written back).
  uint64_t sharers = meta.sharers;
  for (uint64_t p = sharers; p != 0; p &= p - 1) {
    PrefetchPrivateRows(__builtin_ctzll(p), line);
  }
  while (sharers != 0) {
    const int c = __builtin_ctzll(sharers);
    sharers &= sharers - 1;
    const size_t row1 = l1_.RowOf(c, line);
    const int w1 = ProbeRow(l1_, row1, line);
    if (w1 >= 0) {
      RemoveAt(l1_, row1 + static_cast<uint32_t>(w1));
    }
    const size_t row2 = l2_.RowOf(c, line);
    const int w2 = ProbeRow(l2_, row2, line);
    if (w2 >= 0) {
      RemoveAt(l2_, row2 + static_cast<uint32_t>(w2));
    }
    if (w1 >= 0 || w2 >= 0) {
      ++back_invalidations_;
      if (SocketOfCore(c) != home) {
        ++cross_socket_back_invalidations_;
      }
    }
  }
  ++tag_reclaims_;
  RemoveExtAt(set, static_cast<int>(l3_ways_ + oldest));
}

// Swap-with-last compaction: the last live way fills the hole.
void CacheHierarchy::RemoveExtAt(uint64_t set, int slot) {
  std::vector<ExtWay>& ext = l3_ext_[set];
  ext[static_cast<uint32_t>(slot) - l3_ways_] = ext.back();
  ext.pop_back();
}

void CacheHierarchy::PushExt(uint64_t set, uint64_t line, uint64_t stamp, WayMeta meta) {
  if (l3_ext_[set].size() == l3_ext_ways_) {
    ReclaimExtWay(set);
  }
  l3_ext_[set].push_back(ExtWay{line, stamp, meta});
}

int CacheHierarchy::PromoteToData(uint64_t set, const L3Scan& scan, uint64_t line,
                                  uint64_t now) {
  int slot = scan.slot;
  if (slot >= 0 && static_cast<uint32_t>(slot) < l3_ways_) {
    const size_t at = L3Slot(set, static_cast<uint32_t>(slot));
    if (l3_tags_[at] == EncodeTag(line)) {
      // Valid data way already: refresh recency, like a classic
      // insert-existing.
      l3_stamps_[at] = now;
      return slot;
    }
    if (slot == scan.free_data) {
      // In-place dir-only residue sitting exactly where a classic fill
      // would land (its way is the first free one): revalidate in place —
      // the hot path of a modified line bouncing between cores. The tag
      // count is unchanged: the way was tagged and stays tagged.
      l3_tags_[at] = EncodeTag(line);
      l3_stamps_[at] = now;
      return slot;
    }
  }
  WayMeta meta;
  if (slot >= 0) {
    if (static_cast<uint32_t>(slot) >= l3_ways_) {
      // Lift the tag out of the extension bank, closing the hole.
      meta = *MetaAt(set, slot);
      RemoveExtAt(set, slot);
    } else {
      const size_t at = L3Slot(set, static_cast<uint32_t>(slot));
      meta = l3_meta_[at];
      // In-place residue elsewhere in the set: vacate its way; the fill
      // below lands on the first free way, as the classic model would.
      l3_tags_[at] = kEmptyTag;
      l3_meta_[at] = WayMeta();
      l3_tag_count_[set] = static_cast<uint16_t>(l3_tag_count_[set] - 1);
    }
  }
  // Classic N-way fill over the data ways, candidate already scanned:
  // first free way, else evict the LRU data way — whose tag (with its
  // directory state) demotes into the extension bank instead of vanishing.
  size_t at;
  if (scan.free_data >= 0) {
    slot = scan.free_data;
    at = L3Slot(set, static_cast<uint32_t>(slot));
    const uint64_t displaced = DecodeTag(l3_tags_[at]);
    if (displaced != kNoLine) {
      // The free way carries another line's dir-only residue; displace it
      // into the extension bank.
      PushExt(set, displaced & kTagMask, now, l3_meta_[at]);
    } else {
      l3_tag_count_[set] = static_cast<uint16_t>(l3_tag_count_[set] + 1);
    }
  } else {
    slot = static_cast<int>(OldestL3Way(set));
    at = L3Slot(set, static_cast<uint32_t>(slot));
    if (l3_meta_[at].HasState()) {
      PushExt(set, DecodeTag(l3_tags_[at]), now, l3_meta_[at]);
    }
  }
  l3_tags_[at] = EncodeTag(line);
  l3_stamps_[at] = now;
  l3_meta_[at] = meta;
  return slot;
}

void CacheHierarchy::InvalidateFrom(int c, uint64_t line, WayMeta* meta) {
  const size_t row1 = l1_.RowOf(c, line);
  const int w1 = ProbeRow(l1_, row1, line);
  if (w1 >= 0) {
    RemoveAt(l1_, row1 + static_cast<uint32_t>(w1));
  }
  const size_t row2 = l2_.RowOf(c, line);
  const int w2 = ProbeRow(l2_, row2, line);
  if (w2 >= 0) {
    RemoveAt(l2_, row2 + static_cast<uint32_t>(w2));
  }
  if (w1 >= 0 || w2 >= 0) {
    meta->invalidated_from |= 1ull << c;
  }
  meta->sharers &= ~(1ull << c);
  if (meta->owner() == c) {
    meta->set_owner(-1);
    meta->excl_levels = 0;  // the owner's tagged copies just left with it
  }
}

void CacheHierarchy::WriteUpgrade(int core, uint64_t line, uint64_t set, int slot,
                                  int64_t l1_way, int64_t l2_way) {
  if (slot < 0) {
    // No lattice tag yet (a write upgrade racing ahead of any tracked
    // state); materialize a bare extension tag to carry the ownership.
    PushExt(set, line, 0, WayMeta());
    slot = LastExtSlot(set);
  }
  WayMeta* meta = MetaAt(set, slot);
  uint64_t others = meta->sharers & ~(1ull << core);
  while (others != 0) {
    const int victim_core = __builtin_ctzll(others);
    others &= others - 1;
    InvalidateFrom(victim_core, line, meta);
  }
  meta->set_owner(core);
  meta->sharers |= 1ull << core;
  // The L3 data copy is now stale; mark the way dir-only in place (no tag
  // motion) so remote readers must fetch from us, while the embedded
  // directory state stays put. The way reads as free to later fills, which
  // displace the residue into the extension bank only when they claim it.
  if (static_cast<uint32_t>(slot) < l3_ways_) {
    l3_tags_[L3Slot(set, static_cast<uint32_t>(slot))] |= kDirOnlyBit;
  }
  // Sole modified owner: later write hits can skip the directory entirely.
  // The exclusive bit lives in the tag word the probe already loaded, and
  // the directory word remembers which levels got the grant (an L2 grant
  // covers L1 too: an exclusive L2 propagates its bit into an L1 refill
  // without a directory access), so the downgrade path probes only rows
  // that can actually carry the bit.
  uint8_t excl_levels = 0;
  if (l1_way >= 0) {
    l1_.tags[l1_.RowOf(core, line) + static_cast<uint64_t>(l1_way)] |= kPrivExclBit;
    excl_levels |= 1;
  }
  const size_t row2 = l2_.RowOf(core, line);
  const int w2 = l2_way >= 0 ? static_cast<int>(l2_way) : ProbeRow(l2_, row2, line);
  if (w2 >= 0) {
    l2_.tags[row2 + static_cast<uint32_t>(w2)] |= kPrivExclBit;
    excl_levels |= 3;
  }
  meta->excl_levels = excl_levels;
}

void CacheHierarchy::HandlePrivateEviction(int c, const Level& other, uint64_t victim,
                                           uint64_t now) {
  if (ProbeRow(other, other.RowOf(c, victim), victim) >= 0) {
    return;  // still held by the other private level
  }
  const uint64_t set = L3SetOf(victim);
  const L3Scan scan = ScanL3(set, victim);
  if (scan.slot < 0) {
    return;
  }
  WayMeta* meta = MetaAt(set, scan.slot);
  meta->sharers &= ~(1ull << c);
  if (meta->owner() == c) {
    // Dirty victim: write back into the shared L3. Both private copies are
    // gone (the eviction took one, the probe above cleared the other), so
    // no exclusive tag survives anywhere.
    meta->set_owner(-1);
    meta->excl_levels = 0;
    PromoteToData(set, scan, victim, now);
  } else if (!meta->HasState()) {
    // A stateless dir-only tag tracks nothing; free the way it occupies.
    if (static_cast<uint32_t>(scan.slot) >= l3_ways_) {
      RemoveExtAt(set, scan.slot);
    } else {
      const size_t slot = L3Slot(set, static_cast<uint32_t>(scan.slot));
      if (DecodeTag(l3_tags_[slot]) >= kDirOnlyBit) {
        l3_tags_[slot] = kEmptyTag;
        l3_meta_[slot] = WayMeta();
        l3_tag_count_[set] = static_cast<uint16_t>(l3_tag_count_[set] - 1);
      }
    }
  }
}

// Inlined into both batch and single-access callers: the packed result
// leaves in a register, with no out-parameters to spill and reload.
template <bool kWrite>
[[gnu::always_inline]] inline uint32_t CacheHierarchy::AccessLine(int core, uint64_t line,
                                                                  uint64_t now) {
  // L1 probe: the read-hit fast path is this one row scan plus a stamp.
  const size_t row1 = l1_.RowOf(core, line);
  const RowScan scan1 = ScanRow(l1_, row1, line);
  if (scan1.way >= 0) {
    const size_t slot1 = row1 + static_cast<uint32_t>(scan1.way);
    l1_.stamps[slot1] = now;
    if (!kWrite || (l1_.tags[slot1] & kPrivExclBit) != 0) {  // read hit, or owned write
      return PackAccessResult(LatencyOf(ServedBy::kL1), ServedBy::kL1, false);
    }
    const uint64_t set = L3SetOf(line);
    WriteUpgrade(core, line, set, FindL3Slot(set, line), scan1.way, -1);
    return PackAccessResult(LatencyOf(ServedBy::kL1), ServedBy::kL1, false);
  }

  // L2 probe; the L1 scan above already produced the L1 fill candidates.
  const size_t row2 = l2_.RowOf(core, line);
  const RowScan scan2 = ScanRow(l2_, row2, line);
  if (scan2.way >= 0) {
    const size_t slot2 = row2 + static_cast<uint32_t>(scan2.way);
    l2_.stamps[slot2] = now;
    const bool exclusive = (l2_.tags[slot2] & kPrivExclBit) != 0;
    uint64_t victim = kNoLine;
    const uint32_t l1_way = FillAt(l1_, row1, scan1, line, now, &victim);
    if (victim != kNoLine) {
      HandlePrivateEviction(core, l2_, victim, now);
    }
    if (exclusive) {
      l1_.tags[row1 + l1_way] |= kPrivExclBit;
      // Already sole modified owner, reads and writes alike.
      return PackAccessResult(LatencyOf(ServedBy::kL2), ServedBy::kL2, false);
    }
    if (kWrite) {
      const uint64_t set = L3SetOf(line);
      WriteUpgrade(core, line, set, FindL3Slot(set, line),
                   static_cast<int64_t>(l1_way), scan2.way);
    }
    return PackAccessResult(LatencyOf(ServedBy::kL2), ServedBy::kL2, false);
  }

  // Private miss: one L3 lattice scan yields the data way (if any), the
  // embedded directory state, and the fill candidates a promote needs.
  const uint64_t set = L3SetOf(line);
  const L3Scan l3scan = ScanL3(set, line);
  int slot = l3scan.slot;
  WayMeta* meta = slot >= 0 ? MetaAt(set, slot) : nullptr;

  // Was the miss caused by a remote write invalidating our copy?
  bool invalidation = false;
  if (meta != nullptr && ((meta->invalidated_from >> core) & 1u) != 0) {
    invalidation = true;
    meta->invalidated_from &= ~(1ull << core);
  }

  const uint64_t others = meta != nullptr ? meta->sharers & ~(1ull << core) : 0;
  // Interconnect model: the accessor's socket vs. the serving agent's. A
  // cache-to-cache transfer is remote when the supplier core sits on
  // another socket; an L3 or DRAM fill is remote when the line's home slice
  // does (the memory controller lives with the home slice).
  const int my_socket = SocketOfCore(core);
  const bool remote_home = socket_mask_ != 0 && HomeOfLine(line) != my_socket;
  bool remote = false;
  ServedBy level;
  bool promote = true;  // every outcome but an L3 data hit fills a data way
  if (meta != nullptr && meta->owner() >= 0 && meta->owner() != core) {
    // Dirty in another core's cache: cache-to-cache transfer. The L3 picks
    // up the written-back data via the promote below.
    level = ServedBy::kForeignCache;
    const int owner = meta->owner();
    remote = socket_mask_ != 0 && SocketOfCore(owner) != my_socket;
    meta->set_owner(-1);
    if (!kWrite) {
      // The owner keeps a shared, no-longer-exclusive copy. (On a write the
      // upgrade below invalidates the owner's copies outright, so clearing
      // their exclusive bits first would be wasted probes.) The directory's
      // level hints say which private rows can carry the bit at all, so
      // only those are probed.
      if ((meta->excl_levels & 1) != 0) {
        const size_t orow1 = l1_.RowOf(owner, line);
        const int ow1 = ProbeRow(l1_, orow1, line);
        if (ow1 >= 0) {
          l1_.tags[orow1 + static_cast<uint32_t>(ow1)] &= ~kPrivExclBit;
        }
      }
      if ((meta->excl_levels & 2) != 0) {
        const size_t orow2 = l2_.RowOf(owner, line);
        const int ow2 = ProbeRow(l2_, orow2, line);
        if (ow2 >= 0) {
          l2_.tags[orow2 + static_cast<uint32_t>(ow2)] &= ~kPrivExclBit;
        }
      }
    }
    meta->excl_levels = 0;
  } else if (slot >= 0 && static_cast<uint32_t>(slot) < l3_ways_ &&
             l3_tags_[L3Slot(set, static_cast<uint32_t>(slot))] == EncodeTag(line)) {
    level = ServedBy::kL3;
    l3_stamps_[L3Slot(set, static_cast<uint32_t>(slot))] = now;
    promote = false;
    remote = remote_home;
  } else if (others != 0) {
    // Clean copy only in a sibling's private cache: cache-to-cache transfer.
    // The directory forwards from the lowest-numbered sharer.
    level = ServedBy::kForeignCache;
    const int supplier = __builtin_ctzll(others);
    remote = socket_mask_ != 0 && SocketOfCore(supplier) != my_socket;
  } else {
    level = ServedBy::kDram;
    remote = remote_home;
  }
  if (promote) {
    slot = PromoteToData(set, l3scan, line, now);
  }

  uint64_t victim = kNoLine;
  const uint32_t l2_way = FillAt(l2_, row2, scan2, line, now, &victim);
  if (victim != kNoLine) {
    HandlePrivateEviction(core, l1_, victim, now);
  }
  victim = kNoLine;
  const uint32_t l1_way = FillAt(l1_, row1, scan1, line, now, &victim);
  if (victim != kNoLine) {
    HandlePrivateEviction(core, l2_, victim, now);
  }

  // The victim handling above may have moved this line's tag within its set
  // (a dirty victim promoting into the same set can evict and demote our
  // data way), so re-find before touching the directory state.
  if (TagAt(set, slot) != line) {
    slot = FindL3Slot(set, line);
    if (slot < 0) {
      PushExt(set, line, now, WayMeta());
      slot = LastExtSlot(set);
    }
  }
  MetaAt(set, slot)->sharers |= 1ull << core;

  if (kWrite) {
    WriteUpgrade(core, line, set, slot, static_cast<int64_t>(l1_way),
                 static_cast<int64_t>(l2_way));
  }
  const uint32_t latency = LatencyOf(level) + (remote ? kInterconnectLatency : 0);
  return PackAccessResult(latency, level, invalidation) | (remote ? kRemoteFill : 0);
}

template <bool kWrite>
AccessResult CacheHierarchy::AccessImpl(int core, Addr addr, uint32_t size, uint64_t now) {
  DPROF_DCHECK(core >= 0 && core < config_.num_cores);
  DPROF_DCHECK(size > 0);
  AccessResult result;
  const uint64_t first = addr >> line_shift_;
  const uint64_t last = (addr + size - 1) >> line_shift_;

  for (uint64_t line = first; line <= last; ++line) {
    const uint32_t packed = AccessLine<kWrite>(core, line, now);
    CountAccess(core, packed);
    const ServedBy level = PackedAccessLevel(packed);
    result.latency += PackedAccessLatency(packed);
    result.level = std::max(result.level, level);
    result.l1_miss = result.l1_miss || level != ServedBy::kL1;
    result.invalidation = result.invalidation || PackedAccessInvalidation(packed);
    ++result.lines;
  }
  return result;
}

template AccessResult CacheHierarchy::AccessImpl<false>(int core, Addr addr, uint32_t size,
                                                        uint64_t now);
template AccessResult CacheHierarchy::AccessImpl<true>(int core, Addr addr, uint32_t size,
                                                       uint64_t now);

void CacheHierarchy::ApplyBatch(int core, uint64_t base, ApplyLane* lanes, size_t count) {
  DPROF_DCHECK(core >= 0 && core < config_.num_cores);
  for (size_t i = 0; i < count; ++i) {
    ApplyLane& lane = lanes[i];
    const uint64_t line = lane.addr >> line_shift_;
    DPROF_DCHECK(((lane.addr + (lane.size_w & ~ApplyLane::kWriteBit) - 1) >> line_shift_) ==
                 line);
    const uint64_t now = base + lane.t_delta;
    const uint32_t packed = (lane.size_w & ApplyLane::kWriteBit) != 0
                                ? AccessLine<true>(core, line, now)
                                : AccessLine<false>(core, line, now);
    CountAccess(core, packed);
    lane.result = packed & ~kRemoteFill;
  }
}

const CoreMemStats& CacheHierarchy::core_stats(int core) const {
  CoreMemStats& agg = agg_core_stats_[core];
  agg = CoreMemStats();
  const StatStripe& cell = core_stats_[static_cast<size_t>(core)];
  for (int i = 0; i < 5; ++i) {
    agg.served[i] = cell.served[i];
  }
  agg.invalidation_misses = cell.invalidation_misses;
  agg.remote_fills = cell.remote_fills;
  agg.l1_hits = agg.served[static_cast<int>(ServedBy::kL1)];
  agg.accesses = agg.l1_hits + agg.served[1] + agg.served[2] + agg.served[3] + agg.served[4];
  agg.l1_misses = agg.accesses - agg.l1_hits;
  return agg;
}

HierarchyTotals CacheHierarchy::Totals() const {
  HierarchyTotals totals;
  for (int c = 0; c < config_.num_cores; ++c) {
    const CoreMemStats& stats = core_stats(c);
    totals.accesses += stats.accesses;
    totals.l1_hits += stats.l1_hits;
    totals.l1_misses += stats.l1_misses;
    for (int i = 0; i < 5; ++i) {
      totals.served[i] += stats.served[i];
    }
    totals.invalidation_misses += stats.invalidation_misses;
    totals.remote_fills += stats.remote_fills;
  }
  totals.tag_reclaims = tag_reclaims();
  totals.back_invalidations = back_invalidations();
  totals.cross_socket_back_invalidations = cross_socket_back_invalidations();
  return totals;
}

uint64_t CacheHierarchy::remote_fills() const {
  uint64_t total = 0;
  for (const StatStripe& part : core_stats_) {
    total += part.remote_fills;
  }
  return total;
}

uint64_t CacheHierarchy::L3DataLines() const {
  uint64_t n = 0;
  for (uint64_t set = 0; set < l3_total_sets_; ++set) {
    for (uint32_t w = 0; w < l3_ways_; ++w) {
      if (DecodeTag(l3_tags_[L3Slot(set, w)]) < kDirOnlyBit) {
        ++n;
      }
    }
  }
  return n;
}

bool CacheHierarchy::L3HasTag(Addr addr) const {
  const uint64_t line = addr >> line_shift_;
  return FindL3Slot(L3SetOf(line), line) >= 0;
}

bool CacheHierarchy::InPrivateCache(int core, Addr addr) const {
  const uint64_t line = addr >> line_shift_;
  return ProbeRow(l1_, l1_.RowOf(core, line), line) >= 0 ||
         ProbeRow(l2_, l2_.RowOf(core, line), line) >= 0;
}

ServedBy CacheHierarchy::ProbeLevel(int core, Addr addr) const {
  const uint64_t line = addr >> line_shift_;
  if (ProbeRow(l1_, l1_.RowOf(core, line), line) >= 0) {
    return ServedBy::kL1;
  }
  if (ProbeRow(l2_, l2_.RowOf(core, line), line) >= 0) {
    return ServedBy::kL2;
  }
  const uint64_t set = L3SetOf(line);
  const int slot = FindL3Slot(set, line);
  const WayMeta* meta =
      slot >= 0 ? const_cast<CacheHierarchy*>(this)->MetaAt(set, slot) : nullptr;
  if (meta != nullptr && meta->owner() >= 0 && meta->owner() != core) {
    return ServedBy::kForeignCache;
  }
  if (slot >= 0 && static_cast<uint32_t>(slot) < l3_ways_ &&
      l3_tags_[L3Slot(set, static_cast<uint32_t>(slot))] == EncodeTag(line)) {
    return ServedBy::kL3;
  }
  if (meta != nullptr && (meta->sharers & ~(1ull << core)) != 0) {
    return ServedBy::kForeignCache;
  }
  return ServedBy::kDram;
}

// Zero bytes are every array's empty state, so a flush maps fresh zero
// pages over the arrays instead of writing every slot.
void CacheHierarchy::FlushAll() {
  l1_.tags.Reset();
  l1_.stamps.Reset();
  l2_.tags.Reset();
  l2_.stamps.Reset();
  l3_tags_.Reset();
  l3_stamps_.Reset();
  l3_meta_.Reset();
  for (std::vector<ExtWay>& ext : l3_ext_) {
    ext.clear();
  }
  l3_tag_count_.Reset();
}

bool CacheHierarchy::InjectLatticeFault(int kind) {
  switch (kind) {
    case 0: {
      // Inclusion break: a private cache keeps its copy while the lattice
      // forgets the tag.
      for (int c = 0; c < config_.num_cores; ++c) {
        for (size_t i = 0; i < l1_.sets * l1_.ways; ++i) {
          const size_t slot = static_cast<size_t>(c) * l1_.sets * l1_.ways + i;
          const uint64_t tag = DecodeTag(l1_.tags[slot]);
          if (tag == kNoLine) {
            continue;
          }
          const uint64_t line = tag & kPrivTagMask;
          const uint64_t set = L3SetOf(line);
          const int l3slot = FindL3Slot(set, line);
          if (l3slot < 0) {
            continue;
          }
          if (static_cast<uint32_t>(l3slot) < l3_ways_) {
            l3_tags_[L3Slot(set, static_cast<uint32_t>(l3slot))] = kEmptyTag;
            l3_meta_[L3Slot(set, static_cast<uint32_t>(l3slot))] = WayMeta();
            l3_tag_count_[set] = static_cast<uint16_t>(l3_tag_count_[set] - 1);
          } else {
            RemoveExtAt(set, l3slot);
          }
          return true;
        }
      }
      return false;
    }
    case 1: {
      // Exclusive-bit inconsistency: forge the bit on a line the directory
      // does not credit to this core, or orphan a granted bit.
      for (int c = 0; c < config_.num_cores; ++c) {
        for (size_t i = 0; i < l1_.sets * l1_.ways; ++i) {
          const size_t slot = static_cast<size_t>(c) * l1_.sets * l1_.ways + i;
          const uint64_t tag = DecodeTag(l1_.tags[slot]);
          if (tag == kNoLine) {
            continue;
          }
          const uint64_t line = tag & kPrivTagMask;
          const int l3slot = FindL3Slot(L3SetOf(line), line);
          if (l3slot < 0) {
            continue;
          }
          WayMeta* meta = MetaAt(L3SetOf(line), l3slot);
          if ((tag & kPrivExclBit) == 0 && meta->owner() != c) {
            l1_.tags[slot] = EncodeTag(tag | kPrivExclBit);
            return true;
          }
          if ((tag & kPrivExclBit) != 0 && meta->owner() == c) {
            meta->set_owner(-1);
            return true;
          }
        }
      }
      return false;
    }
    case 2: {
      // Tag-count bookkeeping skew. Decrementing (never incrementing) keeps
      // every tag scan in bounds while the audit's recount still disagrees.
      for (uint64_t set = 0; set < l3_total_sets_; ++set) {
        if (l3_tag_count_[set] > 0) {
          l3_tag_count_[set] = static_cast<uint16_t>(l3_tag_count_[set] - 1);
          return true;
        }
      }
      return false;
    }
    case 3: {
      // Sharer-set underflow: a live private holder loses its directory bit.
      for (int c = 0; c < config_.num_cores; ++c) {
        for (size_t i = 0; i < l1_.sets * l1_.ways; ++i) {
          const size_t slot = static_cast<size_t>(c) * l1_.sets * l1_.ways + i;
          const uint64_t tag = DecodeTag(l1_.tags[slot]);
          if (tag == kNoLine) {
            continue;
          }
          const uint64_t line = tag & kPrivTagMask;
          const int l3slot = FindL3Slot(L3SetOf(line), line);
          if (l3slot < 0) {
            continue;
          }
          WayMeta* meta = MetaAt(L3SetOf(line), l3slot);
          if ((meta->sharers >> c) & 1u) {
            meta->sharers &= ~(1ull << c);
            return true;
          }
        }
      }
      return false;
    }
    case 4: {
      // Duplicate lattice tag: the same line tagged in a data way and the
      // extension bank at once.
      for (uint64_t set = 0; set < l3_total_sets_; ++set) {
        if (l3_ext_[set].size() >= l3_ext_ways_) {
          continue;
        }
        for (uint32_t w = 0; w < l3_ways_; ++w) {
          const uint64_t tag = DecodeTag(l3_tags_[L3Slot(set, w)]);
          if (tag == kNoLine) {
            continue;
          }
          l3_ext_[set].push_back(ExtWay{tag & kTagMask, 0, WayMeta()});
          return true;
        }
      }
      return false;
    }
    case 5: {
      // Owner outside the sharer set.
      for (uint64_t set = 0; set < l3_total_sets_; ++set) {
        for (uint32_t w = 0; w < l3_ways_; ++w) {
          const size_t at = L3Slot(set, w);
          if (l3_tags_[at] == kEmptyTag || l3_meta_[at].sharers == 0) {
            continue;
          }
          WayMeta& meta = l3_meta_[at];
          int outside = -1;
          for (int c = 0; c < config_.num_cores; ++c) {
            if (((meta.sharers >> c) & 1u) == 0) {
              outside = c;
              break;
            }
          }
          if (outside >= 0) {
            meta.set_owner(outside);
          } else {
            meta.set_owner(0);
            meta.sharers &= ~1ull;
          }
          return true;
        }
      }
      return false;
    }
    case 6: {
      // Wrong-home line: duplicate a tagged line into a foreign socket's
      // slice (same low set bits, different slice). Only expressible on a
      // multi-socket topology.
      if (socket_mask_ == 0) {
        return false;
      }
      for (uint64_t set = 0; set < l3_total_sets_; ++set) {
        for (uint32_t w = 0; w < l3_ways_; ++w) {
          const uint64_t tag = DecodeTag(l3_tags_[L3Slot(set, w)]);
          if (tag == kNoLine) {
            continue;
          }
          const uint64_t line = tag & kTagMask;
          const uint64_t low = line & l3_set_mask_;
          const uint64_t home = set / l3_sets_;
          const uint64_t foreign = (home + 1) & socket_mask_;
          const uint64_t wrong_set = foreign * l3_sets_ + low;
          if (l3_ext_[wrong_set].size() >= l3_ext_ways_) {
            continue;
          }
          l3_ext_[wrong_set].push_back(ExtWay{line, 0, WayMeta()});
          return true;
        }
      }
      return false;
    }
    default:
      return false;
  }
}

}  // namespace dprof
