#include "src/alloc/slab_allocator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/machine/faults.h"

namespace dprof {
namespace {

constexpr uint32_t kSlabHeaderSize = 64;
constexpr uint32_t kMagazineCapacity = 32;  // array_cache entries per core
constexpr uint32_t kBatchCount = 16;        // objects moved per refill/flush
// Upper bound on slabs per arena. Reaching it is reported as a sticky
// kResourceExhausted status (see status()), not an abort.
constexpr uint32_t kMaxSlabsPerArena = 8192;

static_assert(kSlabHeaderSize < SlabAllocator::kPageSize);
static_assert(kBatchCount > 0 && kBatchCount <= kMagazineCapacity);
static_assert(SlabAllocator::kArenaStride % SlabAllocator::kPageSize == 0);

// Color cycle length for kRecolor: successive slabs (or static array
// elements) start one line later, modulo this, spreading hot same-offset
// fields across eight associativity sets.
constexpr uint32_t kColorCycle = 8;

// Emergency slab reserve past kMaxSlabsPerArena: reaching the configured
// bound sets a sticky kResourceExhausted status instead of aborting, and the
// reserve lets the in-flight epoch keep allocating until the engine polls
// the status at the epoch boundary and stops the run. Past the reserve,
// growth is a hard check failure.
constexpr uint32_t kEmergencySlabs = 64;

// GrowCache failure sentinel (never a valid slab id: arenas are bounded far
// below it).
constexpr uint32_t kGrowFailed = ~0u;

// cache_by_type_ entry of a type that has no kmem_cache yet.
constexpr uint32_t kNoCache = ~0u;

}  // namespace

SlabAllocator::SlabAllocator(Machine* machine, TypeRegistry* registry, TransformSet transforms)
    : machine_(machine), registry_(registry), transforms_(std::move(transforms)) {
  line_size_ = machine_->hierarchy().line_size();

  slab_type_ = registry_->Register("slab", kSlabHeaderSize);
  array_cache_type_ = registry_->Register("array_cache", 128);
  kmem_cache_type_ = registry_->Register("kmem_cache", 256);
  // The allocator carves its descriptors itself (AllocMeta, GrowCache's
  // on-slab header); their own kmem_caches never hand out an object.
  MarkUnallocatable(slab_type_);
  MarkUnallocatable(array_cache_type_);
  MarkUnallocatable(kmem_cache_type_);

  SymbolTable& sym = machine_->symbols();
  fn_alloc_ = sym.Intern("kmem_cache_alloc_node");
  fn_refill_ = sym.Intern("cache_alloc_refill");
  fn_free_ = sym.Intern("kmem_cache_free");
  fn_drain_alien_ = sym.Intern("__drain_alien_cache");
  fn_grow_ = sym.Intern("cache_grow");

  // One arena per core plus the trailing metadata arena. Page tables start
  // empty and grow with each arena's bump pointer.
  const int num_arenas = machine_->num_cores() + 1;
  arenas_.resize(num_arenas);
  for (int a = 0; a < num_arenas; ++a) {
    Arena& arena = arenas_[a];
    arena.base = kBaseAddr + static_cast<Addr>(a) * kArenaStride;
    arena.bump = arena.base;
    arena.limit = arena.base + kArenaStride;
    // Room for the cap plus the emergency reserve, so a slab is never
    // moved; capacity no slab reaches is never touched.
    arena.slabs.reserve(kMaxSlabsPerArena + kEmergencySlabs);
  }
}

int SlabAllocator::ArenaOf(Addr addr) const {
  if (addr < kBaseAddr) {
    return -1;
  }
  const Addr offset = addr - kBaseAddr;
  const Addr index = offset / kArenaStride;
  if (index >= arenas_.size()) {
    return -1;
  }
  return static_cast<int>(index);
}

const SlabAllocator::PageInfo* SlabAllocator::PageFor(Addr addr) const {
  const int a = ArenaOf(addr);
  if (a < 0) {
    return nullptr;
  }
  // Pages past the bump pointer have never been handed out.
  static const PageInfo kUnused;
  const Arena& arena = arenas_[a];
  const Addr page = (addr - arena.base) / kPageSize;
  return page < arena.pages.size() ? &arena.pages[page] : &kUnused;
}

Addr SlabAllocator::BumpPages(Arena& arena, uint32_t num_pages, PageInfo info) {
  const Addr base = arena.bump;
  DPROF_CHECK(base + static_cast<Addr>(num_pages) * kPageSize <= arena.limit);
  arena.bump += static_cast<Addr>(num_pages) * kPageSize;
  arena.pages.resize(arena.pages.size() + num_pages, info);
  return base;
}

Addr SlabAllocator::AllocMeta(TypeId type, uint32_t size) {
  // Metadata and static objects get their own pages in the setup-time
  // metadata arena, found via meta ranges.
  const uint32_t pages = (size + kPageSize - 1) / kPageSize;
  const Addr base =
      BumpPages(arenas_.back(), std::max(1u, pages), PageInfo{PageInfo::Kind::kMeta, 0});
  meta_ranges_.push_back(MetaRange{base, size, type});
  return base;
}

void SlabAllocator::MarkUnallocatable(TypeId type) {
  if (type >= unallocatable_.size()) {
    unallocatable_.resize(static_cast<size_t>(type) + 1, 0);
  }
  unallocatable_[type] = 1;
}

Addr SlabAllocator::RegisterStatic(TypeId type, uint32_t size) {
  // A static type stays out of the slab heap for good (Allocatable), so it
  // must not have slab objects already.
  const uint32_t cache_id = CacheIdOf(type);
  DPROF_CHECK(cache_id == kNoCache || !caches_[cache_id].grown);
  MarkUnallocatable(type);
  const Addr base = AllocMeta(type, size);
  statics_.push_back(MetaRange{base, size, type});
  // The paper's DProf learns statically-allocated objects from the
  // executable's debug information; model that as an allocation event so
  // static objects join the address set.
  for (AllocationObserver* obs : observers_) {
    obs->OnAlloc(type, base, size, 0, machine_->MaxClock());
  }
  return base;
}

Addr SlabAllocator::RegisterStaticArray(TypeId type, uint32_t elem_size, uint32_t count,
                                        uint32_t stride, std::vector<Addr>* elems) {
  DPROF_CHECK(count > 0 && elem_size > 0 && stride >= elem_size);
  const std::string& name = registry_->Name(type);
  uint32_t eff_stride = stride;
  if (transforms_.Has(name, TypeTransformKind::kPadToLine)) {
    // Repack densely, one line-multiple stride per element, discarding the
    // caller's hand-chosen placement.
    eff_stride = (elem_size + line_size_ - 1) / line_size_ * line_size_;
  }
  const uint32_t color_lines =
      transforms_.Has(name, TypeTransformKind::kRecolor) ? kColorCycle : 0;
  static_array_log_.push_back(StaticArrayLayout{type, eff_stride, color_lines});
  const uint64_t span = static_cast<uint64_t>(eff_stride) * count +
                        (color_lines > 0 ? (color_lines - 1) * line_size_ : 0);
  const Addr base = RegisterStatic(type, static_cast<uint32_t>(span));
  if (elems != nullptr) {
    for (uint32_t i = 0; i < count; ++i) {
      Addr at = base + static_cast<Addr>(i) * eff_stride;
      if (color_lines > 0) {
        at += static_cast<Addr>(i % color_lines) * line_size_;
      }
      elems->push_back(at);
    }
  }
  return base;
}

bool SlabAllocator::HasTransform(TypeId type, TypeTransformKind kind) {
  const bool answer = transforms_.Has(registry_->Name(type), kind);
  query_log_.push_back(TransformQuery{type, kind, answer});
  return answer;
}

AllocatorLayout SlabAllocator::LayoutKey() const {
  AllocatorLayout key;
  key.caches.reserve(registry_->size());
  for (TypeId type = 0; type < static_cast<TypeId>(registry_->size()); ++type) {
    // A cache that never grows a slab reads its layout nowhere, so every
    // layout of it is the same run.
    key.caches.push_back(Allocatable(type) ? LayoutFor(type) : CacheLayout{});
  }
  key.static_arrays = static_array_log_;
  key.queries = query_log_;
  return key;
}

void SlabAllocator::ReplayStatics(AllocationObserver* observer) const {
  for (const MetaRange& range : statics_) {
    observer->OnAlloc(range.type, range.base, range.size, 0, machine_->MaxClock());
  }
}

CacheLayout SlabAllocator::LayoutFor(TypeId type) const {
  CacheLayout layout;
  // Pad to 8 bytes like the kernel allocator.
  layout.obj_size = (registry_->Size(type) + 7u) & ~7u;
  if (transforms_.empty()) {
    return layout;
  }
  const std::string& name = registry_->Name(type);
  if (transforms_.Has(name, TypeTransformKind::kPadToLine)) {
    layout.obj_size = (layout.obj_size + line_size_ - 1) / line_size_ * line_size_;
  }
  if (transforms_.Has(name, TypeTransformKind::kAlign)) {
    // Pad past the on-slab header to a line boundary.
    layout.align_pad = (line_size_ - kSlabHeaderSize % line_size_) % line_size_;
  }
  if (transforms_.Has(name, TypeTransformKind::kRecolor)) {
    layout.color_lines = kColorCycle;
  }
  layout.pin_home = transforms_.Has(name, TypeTransformKind::kPinHome);
  if (layout.pin_home) {
    const int socket = transforms_.ParamFor(name, TypeTransformKind::kPinHome);
    DPROF_CHECK(socket < machine_->hierarchy().num_sockets());
    layout.pin_socket = socket;
  }
  return layout;
}

SlabAllocator::KmemCache& SlabAllocator::CacheFor(TypeId type) {
  if (const uint32_t existing = CacheIdOf(type); existing != kNoCache) {
    return caches_[existing];
  }
  const uint32_t id = static_cast<uint32_t>(caches_.size());
  caches_.emplace_back();
  KmemCache& cache = caches_.back();
  cache.type = type;
  cache.layout = LayoutFor(type);
  cache.struct_addr = AllocMeta(kmem_cache_type_, 256);
  // All caches share the display name so lock-stat aggregates them as one
  // class, like the paper's "SLAB cache lock" row. Each cache still has its
  // own lock instance (and lock word) for arbitration.
  cache.lock = std::make_unique<SimLock>("SLAB cache lock", cache.struct_addr + 64);
  cache.per_core.resize(machine_->num_cores());
  for (auto& pc : cache.per_core) {
    pc.array_cache_addr = AllocMeta(array_cache_type_, 128);
    // Linux models per-node alien queues with the same array_cache struct.
    pc.alien_addr = AllocMeta(array_cache_type_, 128);
    pc.magazine.reserve(kMagazineCapacity + kBatchCount);
    pc.alien.reserve(kBatchCount + 1);
  }
  if (type >= cache_by_type_.size()) {
    cache_by_type_.resize(static_cast<size_t>(type) + 1, kNoCache);
  }
  cache_by_type_[type] = id;
  return caches_[id];
}

SimLock* SlabAllocator::CacheLock(TypeId type) { return CacheFor(type).lock.get(); }

void SlabAllocator::CreateTypeCaches() {
  // A kmem_cache bumps its metadata (kmem_cache and array_cache structs) out
  // of the metadata arena when it is created. Creating every registered
  // type's cache here, in TypeId order, fixes those addresses before the
  // first epoch instead of letting them depend on which type the workload
  // happens to allocate first.
  for (TypeId type = 0; type < static_cast<TypeId>(registry_->size()); ++type) {
    CacheFor(type);
  }
}

uint32_t SlabAllocator::GrowCache(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc,
                                  bool allow_fault) {
  Arena& arena = arenas_[ctx.core()];
  // Injected transient grow failure: keyed on (core, slab ordinal) only, so
  // faulted runs are deterministic. The caller (Refill) charges the reclaim
  // pass the kernel would run and retries with allow_fault off.
  FaultPlan* const faults = machine_->fault_plan();
  if (allow_fault && faults != nullptr &&
      faults->SlabGrowFails(ctx.core(), arena.slabs.size())) {
    return kGrowFailed;
  }
  if (arena.slabs.size() >= kMaxSlabsPerArena) {
    // Genuine exhaustion: report instead of aborting. Growth continues into
    // the emergency reserve so the epoch in flight can finish; the engine
    // polls status() at the epoch boundary and stops the run with this
    // diagnostic.
    status_.Update(Status(StatusCode::kResourceExhausted, "slab_grow",
                          "core " + std::to_string(ctx.core()) + " arena reached " +
                              std::to_string(kMaxSlabsPerArena) +
                              " slabs (max_slabs_per_arena)"));
  }
  // kRecolor sizes the slab for the worst-case color so every colored slab
  // still fits at least one object.
  const CacheLayout& layout = cache.layout;
  const uint32_t color_max = layout.color_lines > 0 ? (layout.color_lines - 1) * line_size_ : 0;
  // kPinHome on a multi-socket hierarchy additionally pins placement: the
  // object run is carved inside one home block of the target socket. Home
  // blocks cycle sockets round-robin by block index, so the matching block
  // is at most num_sockets blocks past the header — size the slab for that
  // worst case.
  const CacheHierarchy& hierarchy = machine_->hierarchy();
  const bool pin_placement = layout.pin_home && hierarchy.num_sockets() > 1;
  const uint64_t home_block = hierarchy.home_block_bytes();
  const uint32_t pin_max =
      pin_placement
          ? static_cast<uint32_t>(home_block * static_cast<uint64_t>(hierarchy.num_sockets()))
          : 0;
  const uint32_t span =
      kSlabHeaderSize + layout.align_pad + color_max + pin_max + layout.obj_size;
  const uint32_t num_pages = (span + kPageSize - 1) / kPageSize;
  const uint32_t bytes = num_pages * kPageSize;

  DPROF_CHECK(arena.slabs.size() < kMaxSlabsPerArena + kEmergencySlabs);
  const uint32_t slab_id = static_cast<uint32_t>(arena.slabs.size());
  const uint32_t color_off =
      layout.color_lines > 0 ? (slab_id % layout.color_lines) * line_size_ : 0;
  const Addr page_base =
      BumpPages(arena, num_pages, PageInfo{PageInfo::Kind::kSlab, slab_id});
  uint32_t lead = kSlabHeaderSize + layout.align_pad + color_off;
  uint32_t num_objects = std::max(1u, (bytes - lead) / layout.obj_size);
  if (pin_placement) {
    const int target =
        layout.pin_socket >= 0 ? layout.pin_socket : hierarchy.SocketOfCore(ctx.core());
    Addr objs = (page_base + lead + home_block - 1) / home_block * home_block;
    while (hierarchy.HomeSocketOf(objs) != target) {
      objs += home_block;
    }
    lead = static_cast<uint32_t>(objs - page_base);
    // Every object stays inside the one matching home block (an oversized
    // single object still gets carved, spilling past it).
    num_objects = std::max(
        1u, std::min((bytes - lead) / layout.obj_size,
                     static_cast<uint32_t>(home_block / layout.obj_size)));
  }

  cache.grown = true;
  arena.slabs.emplace_back();
  Slab& slab = arena.slabs.back();
  slab.cache_id = static_cast<uint32_t>(&cache - caches_.data());
  slab.page_base = page_base;
  slab.num_pages = num_pages;
  slab.objs_base = page_base + lead;
  slab.num_objects = num_objects;
  slab.freelist.reserve(num_objects);
  for (uint32_t i = 0; i < num_objects; ++i) {
    slab.freelist.push_back(static_cast<uint16_t>(num_objects - 1 - i));
  }
  slab.home.assign(num_objects, -1);

  // Initialize the on-slab header (type "slab").
  ctx.Write(fn_grow_, page_base, kSlabHeaderSize);
  ctx.Compute(fn_grow_, 150);
  pc.partial.push_back(slab_id);
  return slab_id;
}

void SlabAllocator::Refill(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc) {
  ctx.LockAcquire(*cache.lock, fn_refill_);
  ctx.Compute(fn_refill_, 60);
  Arena& arena = arenas_[ctx.core()];
  uint32_t want = kBatchCount;
  while (want > 0) {
    if (pc.partial.empty()) {
      if (GrowCache(ctx, cache, pc, /*allow_fault=*/true) == kGrowFailed) {
        // Transient injected OOM: charge the shrink/reclaim walk the kernel
        // would run before retrying, then grow for real.
        ctx.Compute(fn_grow_, 400);
        machine_->fault_plan()->NoteRecovered(FaultSeam::kSlabGrow);
        GrowCache(ctx, cache, pc, /*allow_fault=*/false);
      }
    }
    const uint32_t slab_id = pc.partial.back();
    Slab& slab = arena.slabs[slab_id];
    // Walk the slab's bookkeeping structures (type "slab").
    ctx.Access(fn_refill_, slab.page_base, 32, true);
    while (want > 0 && !slab.freelist.empty()) {
      const uint16_t idx = slab.freelist.back();
      slab.freelist.pop_back();
      pc.magazine.push_back(slab.objs_base + static_cast<Addr>(idx) * cache.layout.obj_size);
      --want;
    }
    if (slab.freelist.empty()) {
      pc.partial.pop_back();
    }
  }
  ctx.LockRelease(*cache.lock, fn_refill_);
}

void SlabAllocator::ReturnToSlab(KmemCache& cache, Addr obj) {
  const int owner = ArenaOf(obj);
  DPROF_CHECK(owner >= 0 && owner < machine_->num_cores());
  Arena& arena = arenas_[owner];
  const PageInfo* page = PageFor(obj);
  DPROF_CHECK(page != nullptr && page->kind == PageInfo::Kind::kSlab);
  Slab& slab = arena.slabs[page->slab_id];
  const uint16_t idx =
      static_cast<uint16_t>((obj - slab.objs_base) / cache.layout.obj_size);
  if (slab.freelist.empty()) {
    cache.per_core[owner].partial.push_back(page->slab_id);
  }
  slab.freelist.push_back(idx);
}

void SlabAllocator::FlushMagazine(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc) {
  ctx.LockAcquire(*cache.lock, fn_free_);
  ctx.Compute(fn_free_, 60);
  for (uint32_t i = 0; i < kBatchCount && !pc.magazine.empty(); ++i) {
    const Addr obj = pc.magazine.front();
    pc.magazine.erase(pc.magazine.begin());
    // free_block() updates the slab descriptor's free count and linkage.
    const PageInfo* page = PageFor(obj);
    DPROF_CHECK(page != nullptr && page->kind == PageInfo::Kind::kSlab);
    ctx.Access(fn_refill_, arenas_[ctx.core()].slabs[page->slab_id].page_base + 8, 16, true);
    ReturnToSlab(cache, obj);
  }
  ctx.LockRelease(*cache.lock, fn_free_);
}

void SlabAllocator::CommitAllocEvent(TypeId type, Addr base, uint32_t size, int core,
                                     uint64_t now) {
  KmemCache& cache = CacheFor(type);
  ++cache.stats.allocs;
  ++cache.stats.live;
  for (AllocationObserver* obs : observers_) {
    obs->OnAlloc(type, base, size, core, now);
  }
}

void SlabAllocator::CommitFreeEvent(TypeId type, Addr base, uint32_t size, int core,
                                    uint64_t now, bool alien) {
  KmemCache& cache = CacheFor(type);
  ++cache.stats.frees;
  if (alien) {
    ++cache.stats.alien_frees;
  }
  DPROF_CHECK(cache.stats.live > 0);
  --cache.stats.live;
  for (AllocationObserver* obs : observers_) {
    obs->OnFree(type, base, size, core, now);
  }
}

Addr SlabAllocator::Alloc(CoreContext& ctx, TypeId type, FunctionId ip) {
  DPROF_CHECK(Allocatable(type));
  KmemCache& cache = CacheFor(type);
  PerCoreCache& pc = cache.per_core[ctx.core()];

  // Fast path: pop from this core's array_cache.
  ctx.Compute(ip, 20);
  ctx.Access(fn_alloc_, pc.array_cache_addr, 16, true);
  if (pc.magazine.empty()) {
    Refill(ctx, cache, pc);
  }
  const Addr obj = pc.magazine.back();
  pc.magazine.pop_back();
  // Read the magazine slot that held the pointer.
  ctx.Read(fn_alloc_, pc.array_cache_addr + 24 + 8 * (pc.magazine.size() % 13), 8);

  // Objects in a core's magazine always come from its own arena.
  Arena& arena = arenas_[ctx.core()];
  const PageInfo* page = PageFor(obj);
  DPROF_CHECK(page != nullptr && page->kind == PageInfo::Kind::kSlab);
  Slab& slab = arena.slabs[page->slab_id];
  const uint32_t idx = static_cast<uint32_t>((obj - slab.objs_base) / cache.layout.obj_size);
  slab.home[idx] = static_cast<int8_t>(ctx.core());

  ctx.NotifyAllocEvent(type, obj, cache.layout.obj_size);
  return obj;
}

void SlabAllocator::Free(CoreContext& ctx, Addr addr, FunctionId ip) {
  const ResolveResult res = Resolve(addr);
  DPROF_CHECK(res.valid);
  KmemCache& cache = CacheFor(res.type);
  const int owner = ArenaOf(res.base);
  DPROF_CHECK(owner >= 0 && owner < machine_->num_cores());
  const PageInfo* page = PageFor(res.base);
  DPROF_CHECK(page != nullptr && page->kind == PageInfo::Kind::kSlab);
  Slab& slab = arenas_[owner].slabs[page->slab_id];
  const uint32_t idx = static_cast<uint32_t>((res.base - slab.objs_base) / cache.layout.obj_size);
  const int home = slab.home[idx];
  DPROF_CHECK(home >= 0);
  slab.home[idx] = -1;

  // kfree reads the object's page metadata to find its cache.
  ctx.Compute(ip, 25);
  ctx.Read(fn_free_, slab.page_base, 8);

  ctx.NotifyFreeEvent(res.type, res.base, cache.layout.obj_size, home != ctx.core());

  if (home == ctx.core()) {
    PerCoreCache& pc = cache.per_core[ctx.core()];
    ctx.Access(fn_free_, pc.array_cache_addr, 16, true);
    pc.magazine.push_back(res.base);
    if (pc.magazine.size() > kMagazineCapacity) {
      FlushMagazine(ctx, cache, pc);
    }
  } else if (cache.layout.pin_home) {
    // kPinHome: hand the object straight back to its home core, skipping
    // the alien array and the batched drain's remote writes to the home
    // core's array_cache and slab header. In engine mode the host transfer
    // is staged per freeing core and lands at the epoch boundary, the same
    // channel DrainAlien uses.
    PerCoreCache& pc = cache.per_core[ctx.core()];
    if (ctx.recording()) {
      pc.staged.push_back(AlienEntry{res.base, static_cast<int8_t>(home)});
    } else {
      PerCoreCache& home_pc = cache.per_core[home];
      home_pc.magazine.push_back(res.base);
      if (home_pc.magazine.size() > kMagazineCapacity) {
        for (uint32_t i = 0; i < kBatchCount && !home_pc.magazine.empty(); ++i) {
          const Addr obj = home_pc.magazine.front();
          home_pc.magazine.erase(home_pc.magazine.begin());
          ReturnToSlab(cache, obj);
        }
      }
    }
  } else {
    // Alien free: queue the object on this core's alien array; a full array
    // drains in a batch under the cache lock (__drain_alien_cache), writing
    // the home cores' array_caches — the remote writes that make
    // array_cache objects bounce between cores (paper Table 6.1/6.2).
    PerCoreCache& pc = cache.per_core[ctx.core()];
    ctx.Access(fn_free_, pc.alien_addr, 16, true);
    pc.alien.push_back(AlienEntry{res.base, static_cast<int8_t>(home)});
    if (pc.alien.size() >= kBatchCount) {
      DrainAlien(ctx, cache, pc);
    }
  }
}

void SlabAllocator::DrainAlien(CoreContext& ctx, KmemCache& cache, PerCoreCache& pc) {
  ctx.LockAcquire(*cache.lock, fn_drain_alien_);
  ctx.Compute(fn_drain_alien_, 60);
  for (const AlienEntry& entry : pc.alien) {
    ctx.Read(fn_drain_alien_, pc.alien_addr + 24, 8);
    // free_block() updates the object's slab descriptor (free counts, list
    // linkage) — a remote write to the "slab" header that makes slab
    // bookkeeping bounce between cores (Table 6.1).
    if (const PageInfo* page = PageFor(entry.obj);
        page != nullptr && page->kind == PageInfo::Kind::kSlab) {
      ctx.Write(fn_drain_alien_, arenas_[entry.home].slabs[page->slab_id].page_base + 16, 8);
    }
    PerCoreCache& home_pc = cache.per_core[entry.home];
    ctx.Access(fn_drain_alien_, home_pc.array_cache_addr, 16, true);
    if (ctx.recording()) {
      // Engine mode: the simulated traffic is recorded now, but the host
      // transfer into the home core's magazine lands at the epoch boundary
      // (FlushEpoch) so the home core's state stays core-owned during the
      // simulate phase.
      pc.staged.push_back(entry);
      continue;
    }
    home_pc.magazine.push_back(entry.obj);
    if (home_pc.magazine.size() > kMagazineCapacity) {
      for (uint32_t i = 0; i < kBatchCount && !home_pc.magazine.empty(); ++i) {
        const Addr obj = home_pc.magazine.front();
        home_pc.magazine.erase(home_pc.magazine.begin());
        // free_block() updates the slab descriptor of the returned object.
        if (const PageInfo* obj_page = PageFor(obj);
            obj_page != nullptr && obj_page->kind == PageInfo::Kind::kSlab) {
          ctx.Access(fn_refill_, arenas_[ArenaOf(obj)].slabs[obj_page->slab_id].page_base + 8,
                     16, true);
        }
        ReturnToSlab(cache, obj);
      }
    }
  }
  pc.alien.clear();
  ctx.LockRelease(*cache.lock, fn_drain_alien_);
}

void SlabAllocator::FlushEpoch() {
  // Deterministic application order: cache id, then staging core, then FIFO.
  for (KmemCache& cache : caches_) {
    for (PerCoreCache& pc : cache.per_core) {
      for (const AlienEntry& entry : pc.staged) {
        cache.per_core[entry.home].magazine.push_back(entry.obj);
      }
      pc.staged.clear();
    }
  }
}

ResolveResult SlabAllocator::Resolve(Addr addr) const {
  ResolveResult out;
  const PageInfo* page = PageFor(addr);
  if (page == nullptr) {
    return out;
  }
  if (page->kind == PageInfo::Kind::kSlab) {
    const Arena& arena = arenas_[ArenaOf(addr)];
    const Slab& slab = arena.slabs[page->slab_id];
    const KmemCache& cache = caches_[slab.cache_id];
    if (addr < slab.objs_base) {
      out.valid = true;
      out.type = slab_type_;
      out.base = slab.page_base;
      out.offset = static_cast<uint32_t>(addr - slab.page_base);
      out.size = kSlabHeaderSize;
      return out;
    }
    const uint64_t idx = (addr - slab.objs_base) / cache.layout.obj_size;
    if (idx >= slab.num_objects) {
      return out;  // slab tail padding
    }
    out.valid = true;
    out.type = cache.type;
    out.base = slab.objs_base + idx * cache.layout.obj_size;
    out.offset = static_cast<uint32_t>(addr - out.base);
    out.size = cache.layout.obj_size;
    return out;
  }
  if (page->kind == PageInfo::Kind::kMeta) {
    // Few, long-lived ranges: linear scan is fine.
    for (const MetaRange& range : meta_ranges_) {
      if (addr >= range.base && addr < range.base + range.size) {
        out.valid = true;
        out.type = range.type;
        out.base = range.base;
        out.offset = static_cast<uint32_t>(addr - range.base);
        out.size = range.size;
        return out;
      }
    }
  }
  return out;
}

void SlabAllocator::RemoveObserver(AllocationObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

uint32_t SlabAllocator::CacheIdOf(TypeId type) const {
  return type < cache_by_type_.size() ? cache_by_type_[type] : kNoCache;
}

const AllocatorTypeStats& SlabAllocator::type_stats(TypeId type) const {
  const uint32_t id = CacheIdOf(type);
  return id == kNoCache ? empty_stats_ : caches_[id].stats;
}

uint64_t SlabAllocator::LiveCount(TypeId type) const { return type_stats(type).live; }

std::vector<Addr> SlabAllocator::LiveObjects(TypeId type, size_t max) const {
  std::vector<Addr> out;
  // Statically registered objects are always live.
  for (const MetaRange& range : statics_) {
    if (range.type == type && out.size() < max) {
      out.push_back(range.base);
    }
  }
  const uint32_t cache_id = CacheIdOf(type);
  if (cache_id == kNoCache || out.size() >= max) {
    return out;
  }
  const KmemCache& cache = caches_[cache_id];
  for (const Arena& arena : arenas_) {
    for (const Slab& slab : arena.slabs) {
      if (slab.cache_id != cache_id) {
        continue;
      }
      for (uint32_t i = 0; i < slab.num_objects && out.size() < max; ++i) {
        if (slab.home[i] >= 0) {
          out.push_back(slab.objs_base + static_cast<Addr>(i) * cache.layout.obj_size);
        }
      }
      if (out.size() >= max) {
        return out;
      }
    }
  }
  return out;
}

}  // namespace dprof
