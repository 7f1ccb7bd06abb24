// Multicore coherent cache hierarchy: private L1/L2 per core, a shared L3
// whose tag lattice embeds the MSI-style coherence directory, and DRAM.
//
// This is the hardware substrate the paper ran on (a 16-core AMD machine).
// It supplies everything DProf observes through the PMU: the cache level that
// served each access, access latency, and (for the simulator-side ground
// truth used in tests) whether a miss was caused by a remote invalidation.
//
// Layout: the access path is a flattened tag lattice, not a stack of cache
// objects. Private L1/L2 tags for all cores live in contiguous
// structure-of-arrays columns (tags with the exclusive bit packed in, and
// LRU stamps), so one access is a slot-based walk: probe the core's L1 set
// row, then its L2 set row, then the line's L3 set — three bounded scans
// over packed tags with no hashing and no per-level object indirection.
//
// Memory tracks occupancy, not geometry. All-zero bytes are the empty state
// of every lattice array: tags are stored biased by +1 (kNoLine is stored
// as 0), WayMeta stores "no owner" as a zero byte, and every array sits on
// anonymous pages of its own (ZeroPages), which the kernel backs with its
// shared zero page until a slot is first written; FlushAll maps fresh zero
// pages over them instead of filling. The L3's tags, stamps and directory
// words are stored in planes of 8 ways: way w of set s sits at
// (w / 8) * total_sets * 8 + s * 8 + w % 8, with a last plane padded to 8
// ways that the padding never touches. A set's first 8 tags are one 64-byte
// host line, and because fills take the first free way, the pages of ways 8
// and up are faulted in only for sets that really fill them. Private L1/L2
// rows keep their set-major layout — every run touches them all — but take
// the same encoding, so a machine built and never run costs no lattice
// memory.
//
// The L3 is an inclusive tag lattice with the coherence directory (sharers
// mask, modified owner, invalidated-from set) embedded in its way metadata.
// Each L3 set has `ways` data ways — which behave exactly like a classic
// N-way LRU data array — plus a compacted bank of directory-extension ways
// (`HierarchyConfig::l3_dir_ext_ways`, the hardware analogue of a snoop
// filter sized beyond the data array). A line whose data leaves the L3 (a
// capacity eviction, or a write upgrade making the L3 copy stale) keeps its
// tag and directory state in an extension way, so every line held by any
// private cache always has a lattice tag. Each set's bank holds only its
// live extension tags and grows with them up to the cap, so extension
// storage tracks the live tags, not the cap. The one inclusion obligation
// lives in a single place, ReclaimExtWay: when a set's bank is full, the
// least-recently-stamped extension tag is dropped and every private copy it
// tracked is back-invalidated. tag_reclaims()/back_invalidations() count
// those events; the registered scenarios never trigger them on the flat
// machine, which is what makes the lattice's aggregate stats bit-identical
// to the unbounded hash-directory model this replaced.
//
// NUMA: with HierarchyConfig::num_sockets > 1 the machine carries one L3
// slice per socket — an independent set array, directory domain, and
// extension bank. A line's home slice is an address hash (see "Home
// interleaving" below). Accesses served by a remote home slice, or by a
// supplier core on another socket (including the foreign-read downgrade),
// pay kInterconnectLatency per line and count as remote_fills;
// reclaim back-invalidations crossing a socket boundary count as
// cross_socket_back_invalidations. num_sockets == 1 degenerates to the flat
// SMP exactly.
//
// Home interleaving: the sockets' home blocks cycle within every aligned
// run of kHomePeriodLines lines (fewer when a level has fewer sets than
// that), so each socket owns one aligned block of home_block_bytes() per
// run. The period sits inside every level's set mask, so two lines of one
// private set row always share a home slice. The slab allocator's pin_home
// placement carves object runs from these blocks. The engine applies every
// access from one thread, in one fused merge.

#ifndef DPROF_SRC_SIM_HIERARCHY_H_
#define DPROF_SRC_SIM_HIERARCHY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/cache.h"
#include "src/util/types.h"

namespace dprof {

// Where a memory access was satisfied. Order matters: larger is slower.
enum class ServedBy : uint8_t {
  kL1 = 0,
  kL2 = 1,
  kL3 = 2,
  kForeignCache = 3,  // another core's private cache (modified or exclusive)
  kDram = 4,
};

const char* ServedByName(ServedBy level);

// Cycles to serve one line from `level`.
constexpr uint32_t LatencyOf(ServedBy level) {
  switch (level) {
    case ServedBy::kL1:
      return 3;
    case ServedBy::kL2:
      return 14;
    case ServedBy::kL3:
      return 50;
    case ServedBy::kForeignCache:
      return 200;
    case ServedBy::kDram:
      return 250;
  }
  return 250;
}

// Added once per line when the serving agent sits on another socket: an
// L3/DRAM fill whose home slice is remote, or a cache-to-cache transfer
// (including the foreign-read downgrade) whose supplier core is remote.
// Never charged on single-socket machines.
inline constexpr uint32_t kInterconnectLatency = 100;

// Result of one (possibly multi-line) access.
struct AccessResult {
  uint32_t latency = 0;        // summed over all lines touched
  ServedBy level = ServedBy::kL1;  // slowest level among touched lines
  bool l1_miss = false;        // any line missed the local L1
  bool invalidation = false;   // any line miss caused by a remote write
  uint32_t lines = 0;          // number of cache lines spanned
};

// Packed form of an AccessResult: latency (24 bits) | level (3) |
// invalidation (1). ApplyBatch writes it into ApplyLane::result;
// simulated latencies are a few hundred cycles, so 24 bits leaves three
// orders of magnitude of headroom.
inline uint32_t PackAccessResult(uint32_t latency, ServedBy level, bool invalidation) {
  return latency | (static_cast<uint32_t>(level) << 24) |
         (static_cast<uint32_t>(invalidation) << 27);
}
inline uint32_t PackedAccessLatency(uint32_t packed) { return packed & 0x00ff'ffffu; }
inline ServedBy PackedAccessLevel(uint32_t packed) {
  return static_cast<ServedBy>((packed >> 24) & 0x7u);
}
inline bool PackedAccessInvalidation(uint32_t packed) {
  return ((packed >> 27) & 1u) != 0;
}

// One recorded single-line access, the engine's only access record: the
// simulated core appends it to its recorder's access column
// (CoreRecorder in src/machine/machine.h), ApplyBatch resolves a span of
// that column in place, and the commit pass reads the result back.
struct ApplyLane {
  static constexpr uint32_t kWriteBit = 0x8000'0000u;

  Addr addr;
  uint32_t t_delta;  // access time = span base + t_delta
  uint32_t size_w;   // size | kWriteBit
  uint32_t result;   // PackAccessResult(...), written by ApplyBatch
  FunctionId ip;     // the instruction, for PMU hook events
};
static_assert(sizeof(ApplyLane) == 24, "the access column streams 24-byte records");

struct HierarchyConfig {
  int num_cores = 16;
  // NUMA sockets (power of two, divides num_cores). Cores are block-assigned
  // (core c sits on socket c / (num_cores / num_sockets)); the `l3` geometry
  // below describes ONE per-socket slice, so the machine carries num_sockets
  // independent slices, each with its own directory domain and extension
  // bank. Lines are homed by address hash: the two (for 4 sockets) line bits
  // at the top of the home period pick the slice, so homes interleave in
  // aligned blocks of CacheHierarchy::home_block_bytes(). num_sockets == 1
  // is the flat SMP the pre-NUMA model simulated, bit for bit.
  int num_sockets = 1;
  CacheGeometry l1{32 * 1024, 64, 8};
  CacheGeometry l2{512 * 1024, 64, 16};
  CacheGeometry l3{16 * 1024 * 1024, 64, 16};
  // Directory-extension ways per L3 set: tags whose data left the L3 keep
  // their directory state here. Overflow is the inclusion obligation (the
  // oldest extension tag is reclaimed and its private copies
  // back-invalidated); sized so registered workloads never overflow.
  uint32_t l3_dir_ext_ways = 32;
};

// Per-core aggregate counters (ground truth, not what DProf sees).
struct CoreMemStats {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t served[5] = {0, 0, 0, 0, 0};  // indexed by ServedBy
  uint64_t invalidation_misses = 0;
  // Lines served across the interconnect (remote home slice or remote
  // supplier core). Always zero on single-socket machines.
  uint64_t remote_fills = 0;
};

// CoreMemStats summed over all cores, plus the lattice's inclusion-
// obligation counters: the simulator-side ground truth fingerprint of a run
// (stats-equivalence tests, `dprof run --json`'s "hierarchy" block).
struct HierarchyTotals {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t served[5] = {0, 0, 0, 0, 0};
  uint64_t invalidation_misses = 0;
  uint64_t tag_reclaims = 0;
  uint64_t back_invalidations = 0;
  // NUMA interconnect traffic: lines served across sockets, and reclaim
  // back-invalidations whose victim core sat on a different socket than the
  // line's home slice. Both zero on single-socket machines.
  uint64_t remote_fills = 0;
  uint64_t cross_socket_back_invalidations = 0;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  // Performs an access to [addr, addr + size) by `core` at time `now`.
  // The write-ness of an access is a template parameter so the read path —
  // the overwhelmingly common case — compiles to a single predictable probe
  // with no ownership checks.
  template <bool kWrite>
  AccessResult Access(int core, Addr addr, uint32_t size, uint64_t now) {
    return AccessImpl<kWrite>(core, addr, size, now);
  }

  // Runtime-dispatch form for callers that carry the write bit in data.
  AccessResult Access(int core, Addr addr, uint32_t size, bool is_write, uint64_t now) {
    return is_write ? Access<true>(core, addr, size, now)
                    : Access<false>(core, addr, size, now);
  }

  // Batch apply, the engine's one entry point into the hierarchy: resolves
  // `count` single-line accesses by `core` in order (access i happens at
  // base + lanes[i].t_delta) and writes each packed result into
  // lanes[i].result, leaving the rest of the lane intact. State effects,
  // results and stats are exactly those of `count` sequential Access calls.
  // Not thread-safe: one caller at a time.
  void ApplyBatch(int core, uint64_t base, ApplyLane* lanes, size_t count);

  const HierarchyConfig& config() const { return config_; }
  uint32_t line_size() const { return config_.l1.line_size; }

  // NUMA topology.
  int num_sockets() const { return static_cast<int>(socket_mask_ + 1); }
  int SocketOfCore(int core) const { return core / cores_per_socket_; }
  int HomeSocketOf(Addr addr) const { return HomeOfLine(addr >> line_shift_); }
  // Home interleave period in lines: the sockets' home blocks cycle within
  // every aligned run of this many lines, or of the smallest level's set
  // count when that is lower.
  static constexpr uint64_t kHomePeriodLines = 64;
  // Granularity of home interleaving: addresses inside one aligned block of
  // this many bytes share a home socket, and consecutive blocks cycle the
  // sockets in order (block index modulo num_sockets). The slab allocator's
  // socket-aware pin_home placement carves object runs from these blocks.
  uint64_t home_block_bytes() const { return 1ull << (line_shift_ + home_shift_); }

  // Introspection for tests and profilers.
  bool InPrivateCache(int core, Addr addr) const;
  ServedBy ProbeLevel(int core, Addr addr) const;  // level a read would hit now
  const CoreMemStats& core_stats(int core) const;
  HierarchyTotals Totals() const;

  // Inclusion-obligation ground truth: lattice tags reclaimed from
  // overflowing extension banks, and private-cache copies those reclaims
  // back-invalidated. Zero on every registered scenario (the
  // stats-equivalence envelope).
  uint64_t tag_reclaims() const { return tag_reclaims_; }
  uint64_t back_invalidations() const { return back_invalidations_; }
  // NUMA interconnect ground truth: lines served across sockets, and
  // reclaim back-invalidations that crossed a socket boundary.
  uint64_t remote_fills() const;
  uint64_t cross_socket_back_invalidations() const { return cross_socket_back_invalidations_; }

  // Lattice introspection for tests: number of L3 data ways in use, and
  // whether `addr`'s line holds any lattice tag (data or extension).
  uint64_t L3DataLines() const;
  bool L3HasTag(Addr addr) const;

  // Drops every cached line and all embedded directory state (used between
  // benchmark phases). Counters survive.
  void FlushAll();

  // Deliberately corrupts one lattice invariant, for the fault-injection
  // harness: every kind below produces a state the InvariantAuditor is
  // guaranteed to flag (the audit detection contract is pinned by
  // faults_test). Returns false when the lattice holds no suitable target
  // (e.g. it is empty); the caller tries another kind.
  //   0: drop the lattice tag of a line a private cache still holds
  //      (inclusion violation)
  //   1: forge or orphan a private exclusive bit (owner mismatch)
  //   2: skew a set's l3_tag_count_ bookkeeping
  //   3: clear the directory sharer bit of a live private holder
  //   4: duplicate a data tag into the extension bank
  //   5: point a directory owner at a core outside its sharer set
  //   6: materialize a line's tag in a foreign socket's L3 slice (wrong-home
  //      line; injectable only when num_sockets > 1)
  static constexpr int kNumLatticeFaultKinds = 7;
  bool InjectLatticeFault(int kind);

 private:
  friend class InvariantAuditor;
  // Starts the L1/L2 tag rows of (core, line) toward the host caches.
  // An extension-bank reclaim back-invalidates every sharer of the
  // reclaimed tag in turn; issuing all sharers' row prefetches before the
  // first serialized probe overlaps their fetches. (The hot write-upgrade
  // path deliberately does not do this: measured on the reference host,
  // the extra prefetch instructions cost more than the overlap buys when
  // the victims' rows are already cache-resident.)
  void PrefetchPrivateRows(int core, uint64_t line) const {
    __builtin_prefetch(l1_.tags.data() + l1_.RowOf(core, line));
    __builtin_prefetch(l2_.tags.data() + l2_.RowOf(core, line));
  }

  // A zero-filled array of trivially copyable T on anonymous pages of its
  // own (mmap), so the kernel maps every page to its shared zero page until
  // a slot is first written: resident memory follows the slots written, not
  // the length. All-zero bytes must be T's empty state.
  template <typename T>
  class ZeroPages {
   public:
    ZeroPages() = default;
    explicit ZeroPages(size_t count)
        : data_(static_cast<T*>(MapZeroPages(count * sizeof(T)))),
          bytes_(count * sizeof(T)) {}
    ~ZeroPages() { UnmapPages(data_, bytes_); }
    ZeroPages(const ZeroPages&) = delete;
    ZeroPages& operator=(const ZeroPages&) = delete;
    ZeroPages& operator=(ZeroPages&& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(bytes_, other.bytes_);
      return *this;
    }

    T& operator[](size_t i) { return data_[i]; }
    const T& operator[](size_t i) const { return data_[i]; }
    const T* data() const { return data_; }
    // Returns every slot to zero (and its pages to the kernel) by mapping
    // fresh zero pages over the array in place.
    void Reset() { RemapZeroPages(data_, bytes_); }

   private:
    T* data_ = nullptr;
    size_t bytes_ = 0;
  };
  static void* MapZeroPages(size_t bytes);
  static void UnmapPages(void* data, size_t bytes);
  static void RemapZeroPages(void* data, size_t bytes);

  static constexpr uint64_t kNoLine = ~0ull;
  // Exclusive-owner bit packed into private (L1/L2) tag words: the line is
  // held by this core as sole modified owner, so write hits skip the
  // directory. Packing it into the tag removes the separate exclusive-bit
  // column the walk used to touch — write upgrades and the foreign-read
  // downgrade or/and-not the bit in the tag word the probe already loaded.
  // Line numbers are < 2^58 and kNoLine keeps the bit set, so masked
  // compares below never collide.
  static constexpr uint64_t kPrivExclBit = 1ull << 62;
  static constexpr uint64_t kPrivTagMask = kPrivExclBit - 1;
  // High tag bit marking an in-place dir-only residue in a data way: the
  // line's data left the L3 (write upgrade), but its tag and embedded
  // directory state stay put. Such a way reads as free to fills — exactly
  // the way the classic model would have left invalid — and the residue is
  // displaced into the extension bank only when a fill claims the way.
  // Line numbers are < 2^58, so the bit never collides (kNoLine has it set,
  // which makes "free way" a single unsigned compare).
  static constexpr uint64_t kDirOnlyBit = 1ull << 63;
  static constexpr uint64_t kTagMask = kDirOnlyBit - 1;

  // Stored form of a tag word: the tag biased by +1, so kNoLine is stored
  // as 0 (kEmptyTag) and a zero-filled array is an empty one. Line numbers
  // are < 2^58, so the bias never carries into kPrivExclBit or kDirOnlyBit:
  // both bits can be set and cleared on the stored word, and a masked
  // compare of a stored word against EncodeTag(line) means what the masked
  // compare of the raw tag against `line` means (kEmptyTag matches no line).
  static constexpr uint64_t EncodeTag(uint64_t tag) { return tag + 1; }
  static constexpr uint64_t DecodeTag(uint64_t stored) { return stored - 1; }
  static constexpr uint64_t kEmptyTag = kNoLine + 1;  // EncodeTag(kNoLine) == 0

  // One private cache level (L1 or L2) for all cores, SoA: a core's set row
  // is `ways` contiguous tags.
  struct Level {
    uint32_t ways = 0;
    uint64_t sets = 0;
    uint64_t set_mask = 0;
    // [core][set][way], stored by EncodeTag; kEmptyTag = invalid. A valid
    // tag may carry kPrivExclBit (sole modified owner).
    ZeroPages<uint64_t> tags;
    ZeroPages<uint64_t> stamps;  // LRU stamp per way

    void Init(const CacheGeometry& geometry, int num_cores);
    size_t RowOf(int core, uint64_t line) const {
      return (static_cast<uint64_t>(core) * sets + (line & set_mask)) * ways;
    }
  };

  // Directory metadata embedded in every L3 lattice way. The core masks are
  // 64 bits wide to match Engine::kMaxCores. Packed: an aligned word would
  // carry 6 padding bytes in each of the lattice's ways. All-zero bytes are
  // the empty word: the owner is stored biased by +1 behind owner().
  struct __attribute__((packed)) WayMeta {
    uint64_t sharers = 0;           // cores whose private caches may hold the line
    uint64_t invalidated_from = 0;  // cores that lost the line to a remote write
    uint8_t owner_bias = 0;         // owner() + 1; 0 = no owner
    // Level-presence hint for the owner's exclusive grant: bit 0 = the
    // owner's L1 may carry kPrivExclBit, bit 1 = its L2 may. Granting L2
    // sets both bits (an exclusive L2 silently propagates its bit to an L1
    // refill, with no directory access), so a clear bit guarantees that
    // level holds no exclusive tag — the foreign-read downgrade skips its
    // probe.
    uint8_t excl_levels = 0;

    // Core with a dirty copy, or -1.
    int owner() const { return static_cast<int>(owner_bias) - 1; }
    void set_owner(int core) { owner_bias = static_cast<uint8_t>(core + 1); }

    bool HasState() const {
      return sharers != 0 || invalidated_from != 0 || owner_bias != 0;
    }
  };
  static_assert(sizeof(WayMeta) == 18, "directory word is packed");

  // Result of one fused probe+fill scan over a private set row: the
  // matching way (probe), or the first invalid way when there is no match —
  // one tag-only walk serves both, and LRU stamps are read only when a full
  // row forces an eviction (inside FillAt).
  struct RowScan {
    int way = -1;   // matching way, or -1
    int free = -1;  // first invalid way (miss only)
  };
  // Same for an L3 set: the matching slot (data or extension), plus the
  // free data way. When the match is a data way the scan returns early and
  // free_data is unset — no caller needs it then.
  struct L3Scan {
    int slot = -1;
    int free_data = -1;
  };

  // Inline, with an early exit at the match: a hit stops scanning. (A
  // branch-free bitmask scan measured slower on the hierarchy bench and no
  // faster on a memcached run.)
  static RowScan ScanRow(const Level& level, size_t row, uint64_t line) {
    const uint64_t* tags = &level.tags[row];
    const uint64_t key = EncodeTag(line);
    RowScan scan;
    int free = -1;
    for (uint32_t w = 0; w < level.ways; ++w) {
      const uint64_t tag = tags[w];
      if ((tag & kPrivTagMask) == key) {
        scan.way = static_cast<int>(w);
        return scan;
      }
      if (tag == kEmptyTag && free < 0) {
        free = static_cast<int>(w);
      }
    }
    scan.free = free;
    return scan;
  }
  // Index of the least stamp among `n` stamps; the first index wins ties,
  // like the classic model.
  static uint32_t OldestOf(const uint64_t* stamps, uint32_t n) {
    uint32_t oldest = 0;
    for (uint32_t i = 1; i < n; ++i) {
      if (stamps[i] < stamps[oldest]) {
        oldest = i;
      }
    }
    return oldest;
  }
  // The same over the data ways of L3 set `set`, across its planes.
  uint32_t OldestL3Way(uint64_t set) const {
    const uint64_t* stamps = &l3_stamps_[L3SetBase(set)];
    uint32_t oldest = 0;
    uint64_t least = stamps[0];
    for (uint32_t w = 1; w < l3_ways_; ++w) {
      const uint64_t stamp = stamps[L3WayOffset(w)];
      if (stamp < least) {
        least = stamp;
        oldest = w;
      }
    }
    return oldest;
  }
  // Fills `line` using the candidates of a missing ScanRow. Returns the way
  // index; *victim receives the evicted line or kNoLine.
  static uint32_t FillAt(Level& level, size_t row, const RowScan& scan, uint64_t line,
                         uint64_t now, uint64_t* victim);

  // Slot of `line` within L3 set `set` (data ways then live extension
  // ways), as an offset from the set base; -1 if the lattice has no tag.
  int FindL3Slot(uint64_t set, uint64_t line) const;
  L3Scan ScanL3(uint64_t set, uint64_t line) const;

  // Serves a single line access and returns PackAccessResult(latency,
  // level, invalidation), the latency including the interconnect penalty,
  // with kRemoteFill set when the serving agent sat on another socket.
  // Counts nothing; CountAccess does.
  static constexpr uint32_t kRemoteFill = 1u << 28;
  template <bool kWrite>
  uint32_t AccessLine(int core, uint64_t line, uint64_t now);

  int HomeOfLine(uint64_t line) const {
    return static_cast<int>((line >> home_shift_) & socket_mask_);
  }
  // Home slice's global L3 set of `line`: the home socket picks the slice,
  // the line's set bits pick the set within it. Degenerates to the flat
  // `line & l3_set_mask_` when num_sockets == 1 (socket_mask_ == 0).
  uint64_t L3SetOf(uint64_t line) const {
    return static_cast<uint64_t>(HomeOfLine(line)) * l3_sets_ + (line & l3_set_mask_);
  }

  // Ensures `line` occupies an L3 data way (stamp = now), preserving its
  // directory state; mirrors a classic LRU insert on the data ways and
  // demotes an evicted victim's tag into the extension bank. Returns the
  // line's data-way slot offset.
  int PromoteToData(uint64_t set, const L3Scan& scan, uint64_t line, uint64_t now);

  // Appends a tag to the set's extension bank, reclaiming the oldest
  // extension tag first if the bank is full.
  void PushExt(uint64_t set, uint64_t line, uint64_t stamp, WayMeta meta);
  // Drops live extension way `slot`, compacting the bank.
  void RemoveExtAt(uint64_t set, int slot);

  // L3 plane addressing: data way w of set `set` lives at
  // L3SetBase(set) + L3WayOffset(w), i.e. in plane w / kPlaneWays.
  static constexpr uint32_t kPlaneWays = 8;
  static size_t L3SetBase(uint64_t set) { return set * kPlaneWays; }
  size_t L3WayOffset(uint32_t w) const {
    return (static_cast<size_t>(w / kPlaneWays) << l3_plane_shift_) + (w % kPlaneWays);
  }
  size_t L3Slot(uint64_t set, uint32_t w) const { return L3SetBase(set) + L3WayOffset(w); }

  // Directory metadata of unified slot `slot` (data way or ways+ext index).
  WayMeta* MetaAt(uint64_t set, int slot) {
    return static_cast<uint32_t>(slot) < l3_ways_
               ? &l3_meta_[L3Slot(set, static_cast<uint32_t>(slot))]
               : &l3_ext_[set][static_cast<uint32_t>(slot) - l3_ways_].meta;
  }
  // Raw (decoded) tag at unified slot `slot` (data tags may carry
  // kDirOnlyBit).
  uint64_t TagAt(uint64_t set, int slot) const {
    return static_cast<uint32_t>(slot) < l3_ways_
               ? DecodeTag(l3_tags_[L3Slot(set, static_cast<uint32_t>(slot))])
               : l3_ext_[set][static_cast<uint32_t>(slot) - l3_ways_].tag;
  }
  // Unified slot of the set's newest extension way.
  int LastExtSlot(uint64_t set) const {
    return static_cast<int>(l3_ways_ + l3_ext_[set].size() - 1);
  }

  // THE inclusion obligation: drops the least-recently-stamped extension tag
  // of the set and back-invalidates every private copy it tracked.
  void ReclaimExtWay(uint64_t set);

  // Grants `core` exclusive-modified ownership of a line it already holds in
  // its private caches: invalidates other sharers, demotes the (now stale)
  // L3 data copy, and sets the private exclusive bits. `l1_way`/`l2_way` are
  // the line's way slots when the caller knows them (-1 probes L2 by line).
  void WriteUpgrade(int core, uint64_t line, uint64_t set, int slot, int64_t l1_way,
                    int64_t l2_way);

  // Removes `line` from core `c`'s private caches, updating `meta`.
  void InvalidateFrom(int c, uint64_t line, WayMeta* meta);

  // Handles a victim evicted from one of core `c`'s private caches; `other`
  // is the private level that might still hold it.
  void HandlePrivateEviction(int c, const Level& other, uint64_t victim, uint64_t now);

  // Way index of `line` in the row, or -1.
  static int ProbeRow(const Level& level, size_t row, uint64_t line) {
    const uint64_t* tags = &level.tags[row];
    const uint64_t key = EncodeTag(line);
    for (uint32_t w = 0; w < level.ways; ++w) {
      if ((tags[w] & kPrivTagMask) == key) {
        return static_cast<int>(w);
      }
    }
    return -1;
  }
  static void RemoveAt(Level& level, size_t slot);

  // Per-core counter cell: only the five served-level counts and the
  // invalidation count are stored; accesses / l1_hits / l1_misses are
  // derived sums, so the hot path does one indexed increment instead of
  // three stores into a wider struct.
  struct StatStripe {
    uint64_t served[5] = {0, 0, 0, 0, 0};
    uint64_t invalidation_misses = 0;
    uint64_t remote_fills = 0;
  };

  // Adds one AccessLine result to `core`'s counters.
  void CountAccess(int core, uint32_t packed) {
    StatStripe& stats = core_stats_[static_cast<size_t>(core)];
    ++stats.served[static_cast<int>(PackedAccessLevel(packed))];
    stats.invalidation_misses += PackedAccessInvalidation(packed) ? 1 : 0;
    stats.remote_fills += (packed & kRemoteFill) != 0 ? 1 : 0;
  }

  // Access over every line of [addr, addr + size).
  template <bool kWrite>
  AccessResult AccessImpl(int core, Addr addr, uint32_t size, uint64_t now);

  HierarchyConfig config_;
  uint32_t line_shift_ = 6;  // log2(line size); lines are power-of-two sized
  // Socket topology: home bits sit at [home_shift_, home_shift_+socket_bits)
  // of the line number, the top of the home period. All zero-width (mask 0,
  // shift = period bits) on single-socket machines.
  uint32_t socket_mask_ = 0;       // num_sockets - 1
  uint32_t home_shift_ = 0;        // period bits - socket bits
  int cores_per_socket_ = 1;

  Level l1_;
  Level l2_;

  // One live directory-extension way, packed with its directory word.
  struct __attribute__((packed)) ExtWay {
    uint64_t tag;
    uint64_t stamp;
    WayMeta meta;
  };
  static_assert(sizeof(ExtWay) == 34, "extension way is packed");

  // The L3 tag lattice. Data ways live in 8-way planes (see "Layout"
  // above): a set's first 8 tags are one host cache line, and the hot scans
  // touch only data tags. Each set's compacted extension bank is its own
  // vector holding only live extension ways (at most `l3_ext_ways_`),
  // touched only when a tag actually moves out of the data ways. A unified
  // slot index addresses both: data way w, or l3_ways_ + ext index.
  uint32_t l3_ways_ = 0;
  uint32_t l3_ext_ways_ = 0;  // cap on each set's live extension ways
  uint64_t l3_sets_ = 0;        // sets per slice (config.l3 geometry)
  uint64_t l3_total_sets_ = 0;  // l3_sets_ * num_sockets: all slices' sets
  uint64_t l3_set_mask_ = 0;    // within-slice set mask
  uint32_t l3_plane_shift_ = 0;  // log2 of the slots per plane, l3_total_sets_ * kPlaneWays
  ZeroPages<uint64_t> l3_tags_;   // stored by EncodeTag
  ZeroPages<uint64_t> l3_stamps_;
  ZeroPages<WayMeta> l3_meta_;
  std::vector<std::vector<ExtWay>> l3_ext_;  // per set: live extension ways
  ZeroPages<uint16_t> l3_tag_count_;  // tagged data ways per set (valid + residue)

  std::vector<StatStripe> core_stats_;  // one cell per core
  mutable std::vector<CoreMemStats> agg_core_stats_;  // cache for core_stats()
  // Inclusion-obligation counters.
  uint64_t tag_reclaims_ = 0;
  uint64_t back_invalidations_ = 0;
  uint64_t cross_socket_back_invalidations_ = 0;
};

}  // namespace dprof

#endif  // DPROF_SRC_SIM_HIERARCHY_H_
