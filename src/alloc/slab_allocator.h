// Typed slab allocator modelled on the Linux SLAB allocator.
//
// Structure (paper §5.2, §6.1):
//  - One kmem_cache per data type, with per-core array_caches (magazines of
//    free objects) and per-core slab arenas protected by a lock.
//  - Slabs are page-sized regions with an on-slab header; objects are carved
//    at fixed offsets, so any interior pointer resolves to (type, base,
//    offset) by arithmetic — this implements DProf's memory type resolver.
//  - Freeing on a core other than the allocating ("home") core takes the
//    alien path: it acquires the cache's slab lock and writes into the home
//    core's array_cache, which is how the paper's memcached case study ends
//    up with `slab` and `array_cache` objects bouncing between cores.
//
// Crucially, the allocator's own metadata (array_cache structs, slab
// headers, kmem_cache structs) lives in *simulated memory* and is touched
// through CoreContext::Access, so allocator metadata shows up in DProf's
// views exactly as it does in Table 6.1 of the paper.
//
// Engine-compatibility: the simulated address space is split into one arena
// per core (plus a setup-time metadata arena), and slab lists are per-core,
// so every host-state mutation Alloc/Free performs is owned by the calling
// core. Cross-core effects flow through two deterministic channels instead:
//  - allocation events (stats, AllocationObservers) are delivered through
//    CoreContext::NotifyAllocEvent and arrive via CommitAllocEvent /
//    CommitFreeEvent in committed order;
//  - alien frees are staged per freeing core and transferred into the home
//    cores' magazines by FlushEpoch at epoch boundaries (in direct mode the
//    drain applies immediately, as before).
// Each arena's page table grows with its bump pointer, so a rig pays only
// for the pages its workload uses; addresses past the bump resolve as
// unknown.

#ifndef DPROF_SRC_ALLOC_SLAB_ALLOCATOR_H_
#define DPROF_SRC_ALLOC_SLAB_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/alloc/type_registry.h"
#include "src/alloc/type_transform.h"
#include "src/machine/machine.h"
#include "src/util/types.h"

namespace dprof {

// Receives every allocation and deallocation. DProf uses this to build its
// address set and to arm debug registers on newly allocated objects.
class AllocationObserver {
 public:
  virtual ~AllocationObserver() = default;
  virtual void OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) = 0;
  virtual void OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) = 0;
};

struct ResolveResult {
  bool valid = false;
  TypeId type = kInvalidType;
  Addr base = kNullAddr;
  uint32_t offset = 0;
  uint32_t size = 0;
};

// The layout a type's kmem_cache gets: every decision a TransformSet can
// change about the cache, as effective values rather than transform flags.
struct CacheLayout {
  uint32_t obj_size = 0;
  uint32_t align_pad = 0;    // kAlign: bytes between slab header and object run
  uint32_t color_lines = 0;  // kRecolor: color cycle length, 0 = off
  bool pin_home = false;     // kPinHome: remote frees bypass the alien path
  // kPinHome on a multi-socket hierarchy also pins slab placement: each
  // slab's object run is carved inside one home block (hierarchy
  // home_block_bytes()) of this socket, or of the allocating core's own
  // socket when -1, so the pinned type's lines are homed where they are
  // used instead of striped by address hash.
  int pin_socket = -1;

  auto Tie() const { return std::tie(obj_size, align_pad, color_lines, pin_home, pin_socket); }
};

// One RegisterStaticArray call's effective placement.
struct StaticArrayLayout {
  TypeId type = kInvalidType;
  uint32_t stride = 0;
  uint32_t color_lines = 0;

  auto Tie() const { return std::tie(type, stride, color_lines); }
};

// One HasTransform question and its answer.
struct TransformQuery {
  TypeId type = kInvalidType;
  TypeTransformKind kind = TypeTransformKind::kIdentity;
  bool answer = false;

  auto Tie() const { return std::tie(type, kind, answer); }
};

// Every allocator decision a TransformSet can change, as an exact record
// (not a hash). Two allocators that went through the same set-up calls and
// have equal records place every object alike and gave every transform
// query the same answer, so one deterministic run stands for both.
struct AllocatorLayout {
  std::vector<CacheLayout> caches;               // indexed by TypeId
  std::vector<StaticArrayLayout> static_arrays;  // in call order
  std::vector<TransformQuery> queries;           // in call order

  auto Tie() const { return std::tie(caches, static_arrays, queries); }
};

// Member-wise comparisons, so an AllocatorLayout can key a std::map.
inline bool operator==(const CacheLayout& a, const CacheLayout& b) {
  return a.Tie() == b.Tie();
}
inline bool operator<(const CacheLayout& a, const CacheLayout& b) {
  return a.Tie() < b.Tie();
}
inline bool operator==(const StaticArrayLayout& a, const StaticArrayLayout& b) {
  return a.Tie() == b.Tie();
}
inline bool operator<(const StaticArrayLayout& a, const StaticArrayLayout& b) {
  return a.Tie() < b.Tie();
}
inline bool operator==(const TransformQuery& a, const TransformQuery& b) {
  return a.Tie() == b.Tie();
}
inline bool operator<(const TransformQuery& a, const TransformQuery& b) {
  return a.Tie() < b.Tie();
}
inline bool operator==(const AllocatorLayout& a, const AllocatorLayout& b) {
  return a.Tie() == b.Tie();
}
inline bool operator<(const AllocatorLayout& a, const AllocatorLayout& b) {
  return a.Tie() < b.Tie();
}

struct AllocatorTypeStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t alien_frees = 0;
  uint64_t live = 0;
};

class SlabAllocator : public AllocatorIface {
 public:
  // Simulated heap geometry: the per-core arenas (and the trailing metadata
  // arena) sit kArenaStride apart from kBaseAddr and grow in kPageSize
  // pages.
  static constexpr uint32_t kPageSize = 4096;
  static constexpr Addr kBaseAddr = 0x100000000ull;
  static constexpr Addr kArenaStride = 256ull * 1024 * 1024;

  // `transforms` are the data-layout transforms applied per type name when
  // its kmem_cache or static registration is created (see
  // type_transform.h). An empty or all-identity set leaves every layout
  // decision byte-identical to the untransformed allocator.
  SlabAllocator(Machine* machine, TypeRegistry* registry, TransformSet transforms = {});

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // AllocatorIface:
  Addr Alloc(CoreContext& ctx, TypeId type, FunctionId ip) override;
  void Free(CoreContext& ctx, Addr addr, FunctionId ip) override;
  void CreateTypeCaches() override;
  void FlushEpoch() override;
  void CommitAllocEvent(TypeId type, Addr base, uint32_t size, int core,
                        uint64_t now) override;
  void CommitFreeEvent(TypeId type, Addr base, uint32_t size, int core, uint64_t now,
                       bool alien) override;
  // Sticky: set on genuine arena exhaustion (the injected transient grow
  // failures recover and never surface here).
  Status status() const override { return status_; }

  // Maps any address (interior pointers included) to its containing object.
  // Works for slab objects, slab headers, allocator metadata, and static
  // registrations.
  ResolveResult Resolve(Addr addr) const;

  // Registers a statically allocated object (the paper resolves these via
  // executable debug info). Returns its base address in the simulated
  // static data segment. Setup-time only: never call from a driver running
  // under the engine. A type with a static range never gets slab objects:
  // registering one that already has some, or allocating one afterwards,
  // fails a check (see Allocatable).
  Addr RegisterStatic(TypeId type, uint32_t size);

  // Registers `count` statically placed objects of `type`, nominally
  // `stride` bytes apart, as one resolver range, honouring the type's
  // layout transforms: kPadToLine repacks the run densely at a
  // line-multiple stride, kRecolor staggers successive elements by one
  // line per color. With no transforms the layout is exactly
  // RegisterStatic(type, stride * count) with elements at base + i *
  // stride. Element addresses are appended to `elems` when non-null.
  // Setup-time only, like RegisterStatic.
  Addr RegisterStaticArray(TypeId type, uint32_t elem_size, uint32_t count, uint32_t stride,
                           std::vector<Addr>* elems);

  // Whether `type` carries `kind` in the configured TransformSet. The
  // answer is logged into LayoutKey(). Setup-time only, like
  // RegisterStatic.
  bool HasTransform(TypeId type, TypeTransformKind kind);

  // Whether Alloc may hand out objects of `type`: every type but the three
  // descriptor types (slab, array_cache, kmem_cache) and the types that own
  // a static range. Alloc checks it, so the kmem_cache of a type that is
  // not allocatable never grows a slab and its layout is never read.
  bool Allocatable(TypeId type) const {
    return type >= unallocatable_.size() || unallocatable_[type] == 0;
  }

  // Every layout decision the configured TransformSet made or will make:
  // the cache layout of each allocatable type (a fixed placeholder for the
  // others, whose caches never hold an object), then the logged
  // RegisterStaticArray placements and HasTransform answers. Complete once
  // the workload is installed, since all three are set-up time; a type
  // that registers a static range later only makes the key stricter.
  AllocatorLayout LayoutKey() const;
  // Cache line size of the attached machine's hierarchy (the unit every
  // transform pads, aligns, or colors by).
  uint32_t line_size() const { return line_size_; }

  void AddObserver(AllocationObserver* observer) { observers_.push_back(observer); }
  void RemoveObserver(AllocationObserver* observer);

  // Replays every RegisterStatic registration into `observer` as OnAlloc
  // events (the paper's DProf reads static objects from the executable's
  // debug information, so they are knowable at attach time regardless of
  // when the workload registered them).
  void ReplayStatics(AllocationObserver* observer) const;

  TypeRegistry& registry() { return *registry_; }
  const AllocatorTypeStats& type_stats(TypeId type) const;
  uint64_t LiveCount(TypeId type) const;

  // Up to `max` currently-live objects of `type`, in deterministic
  // (arena, slab, object-index) order. Used by the history collector to arm
  // debug registers on long-lived objects that are never recycled.
  std::vector<Addr> LiveObjects(TypeId type, size_t max) const;

  // The lock protecting a cache's slab lists ("SLAB cache lock" in the
  // paper's lock-stat table). Exposed for lock-stat name registration.
  SimLock* CacheLock(TypeId type);

  // Well-known metadata types, present in every profile.
  TypeId slab_type() const { return slab_type_; }
  TypeId array_cache_type() const { return array_cache_type_; }
  TypeId kmem_cache_type() const { return kmem_cache_type_; }

 private:
  struct Slab {
    uint32_t cache_id = 0;
    Addr page_base = 0;
    uint32_t num_pages = 0;
    Addr objs_base = 0;
    uint32_t num_objects = 0;
    std::vector<uint16_t> freelist;    // indices of free (not carved out) objects
    std::vector<int8_t> home;          // allocating core per object, -1 if free
  };

  struct AlienEntry {
    Addr obj = 0;
    int8_t home = -1;
  };

  struct PerCoreCache {
    Addr array_cache_addr = 0;   // simulated array_cache struct (128B)
    Addr alien_addr = 0;         // simulated alien array (also an array_cache)
    std::vector<Addr> magazine;  // free object addresses
    std::vector<AlienEntry> alien;   // cross-core frees awaiting a drain
    std::vector<uint32_t> partial;   // this core's slab ids with free objects
    // Engine mode: drained alien entries staged by this core, moved into the
    // home cores' magazines at the next epoch boundary.
    std::vector<AlienEntry> staged;
  };

  struct KmemCache {
    TypeId type = kInvalidType;
    CacheLayout layout;  // LayoutFor(type), resolved once at cache creation
    bool grown = false;    // has had a slab, so the type has had objects
    Addr struct_addr = 0;  // simulated kmem_cache struct
    std::unique_ptr<SimLock> lock;
    std::vector<PerCoreCache> per_core;
    AllocatorTypeStats stats;
  };

  struct PageInfo {
    enum class Kind : uint8_t { kUnused, kSlab, kMeta };
    Kind kind = Kind::kUnused;
    uint32_t slab_id = 0;  // arena-local
  };

  // One core's slice of the simulated heap. `pages` covers [base, bump) and
  // grows in BumpPages.
  struct Arena {
    Addr base = 0;
    Addr bump = 0;
    Addr limit = 0;
    std::vector<PageInfo> pages;
    std::vector<Slab> slabs;
  };

  struct MetaRange {
    Addr base = 0;
    uint32_t size = 0;
    TypeId type = kInvalidType;
  };

  // Arena index of `addr`, or -1 when outside the simulated heap.
  int ArenaOf(Addr addr) const;
  const PageInfo* PageFor(Addr addr) const;

  // The cache layout `type` gets under the configured transforms.
  CacheLayout LayoutFor(TypeId type) const;
  KmemCache& CacheFor(TypeId type);
  // Index into caches_ of `type`'s cache, or kNoCache.
  uint32_t CacheIdOf(TypeId type) const;
  // Adds one slab to the calling core's arena. With allow_fault, an armed
  // kSlabGrow fault plan may veto the growth (transient OOM); returns the
  // failure sentinel and the caller retries after charging reclaim work.
  uint32_t GrowCache(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc, bool allow_fault);
  void Refill(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc);
  void FlushMagazine(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc);
  void DrainAlien(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc);
  void ReturnToSlab(KmemCache& cache, Addr obj);
  Addr AllocMeta(TypeId type, uint32_t size);
  void MarkUnallocatable(TypeId type);
  Addr BumpPages(Arena& arena, uint32_t num_pages, PageInfo info);

  Machine* machine_;
  TypeRegistry* registry_;
  TransformSet transforms_;
  uint32_t line_size_ = 64;

  TypeId slab_type_ = kInvalidType;
  TypeId array_cache_type_ = kInvalidType;
  TypeId kmem_cache_type_ = kInvalidType;

  FunctionId fn_alloc_ = kInvalidFunction;          // kmem_cache_alloc_node
  FunctionId fn_refill_ = kInvalidFunction;         // cache_alloc_refill
  FunctionId fn_free_ = kInvalidFunction;           // kmem_cache_free
  FunctionId fn_drain_alien_ = kInvalidFunction;    // __drain_alien_cache
  FunctionId fn_grow_ = kInvalidFunction;           // cache_grow

  std::vector<KmemCache> caches_;
  std::vector<uint32_t> cache_by_type_;  // cache id per TypeId, kNoCache if none
  // Nonzero per TypeId that is not Allocatable; grows with MarkUnallocatable.
  std::vector<uint8_t> unallocatable_;
  std::vector<Arena> arenas_;  // one per core, plus the trailing meta arena

  std::vector<MetaRange> meta_ranges_;  // sorted by base
  std::vector<MetaRange> statics_;      // RegisterStatic entries, in order
  // LayoutKey()'s log of set-up calls that read the transforms.
  std::vector<StaticArrayLayout> static_array_log_;
  std::vector<TransformQuery> query_log_;
  std::vector<AllocationObserver*> observers_;
  AllocatorTypeStats empty_stats_;

  Status status_;
};

}  // namespace dprof

#endif  // DPROF_SRC_ALLOC_SLAB_ALLOCATOR_H_
