#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/util/rng.h"

namespace dprof {
namespace {

struct AllocFixture : ::testing::Test {
  AllocFixture() : machine(MakeConfig()), allocator(&machine, &registry) {
    machine.SetAllocator(&allocator);
    widget = registry.Register("widget", 100);  // padded to 104
    big = registry.Register("big", 6000);       // multi-page slab
    fn = machine.symbols().Intern("test_fn");
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.hierarchy.num_cores = 4;
    return config;
  }

  Machine machine;
  TypeRegistry registry;
  SlabAllocator allocator;
  TypeId widget = kInvalidType;
  TypeId big = kInvalidType;
  FunctionId fn = kInvalidFunction;
};

TEST(TypeRegistryTest, RegisterAndLookup) {
  TypeRegistry registry;
  const TypeId a = registry.Register("foo", 64);
  const TypeId b = registry.Register("bar", 128);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.Register("foo", 64), a);  // idempotent
  EXPECT_EQ(registry.Find("bar"), b);
  EXPECT_EQ(registry.Find("baz"), kInvalidType);
  EXPECT_EQ(registry.Name(a), "foo");
  EXPECT_EQ(registry.Size(b), 128u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST_F(AllocFixture, AllocReturnsDistinctAddresses) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(widget, fn);
  const Addr b = ctx.Alloc(widget, fn);
  EXPECT_NE(a, kNullAddr);
  EXPECT_NE(a, b);
}

TEST_F(AllocFixture, ResolveRoundTripsBaseAndInterior) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(widget, fn);
  const ResolveResult base = allocator.Resolve(a);
  ASSERT_TRUE(base.valid);
  EXPECT_EQ(base.type, widget);
  EXPECT_EQ(base.base, a);
  EXPECT_EQ(base.offset, 0u);
  EXPECT_EQ(base.size, 104u);  // padded

  const ResolveResult interior = allocator.Resolve(a + 57);
  ASSERT_TRUE(interior.valid);
  EXPECT_EQ(interior.type, widget);
  EXPECT_EQ(interior.base, a);
  EXPECT_EQ(interior.offset, 57u);
}

TEST_F(AllocFixture, ResolveSlabHeader) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(widget, fn);
  // The slab header sits at the start of the object's page run.
  const Addr page_base = (a / 4096) * 4096;
  const ResolveResult header = allocator.Resolve(page_base + 8);
  ASSERT_TRUE(header.valid);
  EXPECT_EQ(header.type, allocator.slab_type());
}

TEST_F(AllocFixture, ResolveUnknownAddressFails) {
  EXPECT_FALSE(allocator.Resolve(0x10).valid);
  EXPECT_FALSE(allocator.Resolve(0x7f1234560000ull).valid);
}

// Arena page tables grow with the bump pointer: an address past the bump,
// and the last byte of the arena, resolve as unknown until a slab or
// metadata page is bumped over them.
TEST_F(AllocFixture, UnbumpedPagesResolveAsUnknown) {
  const int num_arenas = machine.num_cores() + 1;  // per-core arenas + metadata
  auto arena_base = [&](int a) {
    return SlabAllocator::kBaseAddr + static_cast<Addr>(a) * SlabAllocator::kArenaStride;
  };
  for (int a = 0; a < num_arenas; ++a) {
    SCOPED_TRACE(a);
    EXPECT_FALSE(allocator.Resolve(arena_base(a) + 8).valid);
    EXPECT_FALSE(allocator.Resolve(arena_base(a) + 100 * SlabAllocator::kPageSize).valid);
    EXPECT_FALSE(allocator.Resolve(arena_base(a) + SlabAllocator::kArenaStride - 1).valid);
  }

  // The first widget on each core bumps one slab page at the arena base;
  // creating widget's kmem_cache bumps the metadata arena.
  for (int core = 0; core < machine.num_cores(); ++core) {
    CoreContext ctx = machine.Context(core);
    const Addr obj = ctx.Alloc(widget, fn);
    EXPECT_EQ(obj / SlabAllocator::kPageSize * SlabAllocator::kPageSize, arena_base(core));
  }
  for (int a = 0; a < num_arenas; ++a) {
    SCOPED_TRACE(a);
    EXPECT_TRUE(allocator.Resolve(arena_base(a) + 8).valid);
    EXPECT_FALSE(allocator.Resolve(arena_base(a) + 100 * SlabAllocator::kPageSize).valid);
    EXPECT_FALSE(allocator.Resolve(arena_base(a) + SlabAllocator::kArenaStride - 1).valid);
  }
  const ResolveResult header = allocator.Resolve(arena_base(0) + 8);
  EXPECT_EQ(header.type, allocator.slab_type());
  const ResolveResult meta = allocator.Resolve(arena_base(num_arenas - 1) + 8);
  EXPECT_EQ(meta.type, allocator.kmem_cache_type());
}

TEST_F(AllocFixture, FreeAndReuseSameCore) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(widget, fn);
  ctx.Free(a, fn);
  // LIFO magazine: the very next alloc reuses the address.
  const Addr b = ctx.Alloc(widget, fn);
  EXPECT_EQ(a, b);
}

TEST_F(AllocFixture, AlienFreeCountsAndDrains) {
  CoreContext c0 = machine.Context(0);
  CoreContext c1 = machine.Context(1);
  std::vector<Addr> objs;
  for (int i = 0; i < 64; ++i) {
    objs.push_back(c0.Alloc(widget, fn));
  }
  for (const Addr a : objs) {
    c1.Free(a, fn);  // all alien
  }
  EXPECT_EQ(allocator.type_stats(widget).alien_frees, 64u);
  EXPECT_EQ(allocator.type_stats(widget).live, 0u);
  // Eventually core 0 can re-allocate the drained objects.
  std::vector<Addr> again;
  for (int i = 0; i < 64; ++i) {
    again.push_back(c0.Alloc(widget, fn));
  }
  EXPECT_EQ(allocator.type_stats(widget).live, 64u);
}

TEST_F(AllocFixture, LiveStatsTrackAllocFree) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(widget, fn);
  const Addr b = ctx.Alloc(widget, fn);
  EXPECT_EQ(allocator.LiveCount(widget), 2u);
  ctx.Free(a, fn);
  EXPECT_EQ(allocator.LiveCount(widget), 1u);
  ctx.Free(b, fn);
  EXPECT_EQ(allocator.LiveCount(widget), 0u);
  EXPECT_EQ(allocator.type_stats(widget).allocs, 2u);
  EXPECT_EQ(allocator.type_stats(widget).frees, 2u);
}

TEST_F(AllocFixture, MultiPageSlabObjects) {
  CoreContext ctx = machine.Context(0);
  const Addr a = ctx.Alloc(big, fn);
  const ResolveResult r = allocator.Resolve(a + 4500);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.type, big);
  EXPECT_EQ(r.base, a);
  EXPECT_EQ(r.offset, 4500u);
}

TEST_F(AllocFixture, StaticRegistrationResolves) {
  const TypeId dev = registry.Register("device", 128);
  const Addr base = allocator.RegisterStatic(dev, 128);
  const ResolveResult r = allocator.Resolve(base + 64);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.type, dev);
  EXPECT_EQ(r.offset, 64u);
}

TEST_F(AllocFixture, ObserverSeesAllocAndFree) {
  struct Observer : AllocationObserver {
    void OnAlloc(TypeId t, Addr base, uint32_t size, int core, uint64_t) override {
      allocs.push_back({t, base, size, core});
    }
    void OnFree(TypeId t, Addr base, uint32_t, int, uint64_t) override {
      frees.push_back({t, base});
    }
    struct A {
      TypeId t;
      Addr base;
      uint32_t size;
      int core;
    };
    std::vector<A> allocs;
    std::vector<std::pair<TypeId, Addr>> frees;
  } obs;
  allocator.AddObserver(&obs);
  CoreContext ctx = machine.Context(2);
  const Addr a = ctx.Alloc(widget, fn);
  ctx.Free(a, fn);
  allocator.RemoveObserver(&obs);
  ctx.Alloc(widget, fn);

  ASSERT_EQ(obs.allocs.size(), 1u);
  EXPECT_EQ(obs.allocs[0].t, widget);
  EXPECT_EQ(obs.allocs[0].base, a);
  EXPECT_EQ(obs.allocs[0].size, 104u);
  EXPECT_EQ(obs.allocs[0].core, 2);
  ASSERT_EQ(obs.frees.size(), 1u);
  EXPECT_EQ(obs.frees[0].second, a);
}

TEST_F(AllocFixture, CacheLockIsSharedName) {
  SimLock* lock = allocator.CacheLock(widget);
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->name(), "SLAB cache lock");
}

TEST_F(AllocFixture, MetadataTypesRegistered) {
  EXPECT_EQ(registry.Name(allocator.slab_type()), "slab");
  EXPECT_EQ(registry.Name(allocator.array_cache_type()), "array_cache");
  EXPECT_EQ(registry.Name(allocator.kmem_cache_type()), "kmem_cache");
}

TEST_F(AllocFixture, AllocatorMetadataLivesInSimulatedMemory) {
  // The allocator's own accesses must be observable: count events whose
  // resolved type is array_cache during an alloc burst.
  struct Recorder : MachineObserver {
    explicit Recorder(SlabAllocator* a) : alloc(a) {}
    void OnAccess(const AccessEvent& event) override {
      const ResolveResult r = alloc->Resolve(event.addr);
      if (r.valid && r.type == alloc->array_cache_type()) {
        ++array_cache_touches;
      }
    }
    void OnCompute(int, FunctionId, uint64_t, uint64_t) override {}
    SlabAllocator* alloc;
    int array_cache_touches = 0;
  } recorder(&allocator);
  machine.AddObserver(&recorder);
  CoreContext ctx = machine.Context(0);
  ctx.Alloc(widget, fn);
  machine.RemoveObserver(&recorder);
  EXPECT_GT(recorder.array_cache_touches, 0);
}

// Only heap types can own slab objects: the allocator's descriptor types and
// every type with a static range are refused at Alloc, and a static range
// is refused to a type that already has slab objects.
using SlabAllocatorDeathTest = AllocFixture;

TEST_F(AllocFixture, OnlyHeapTypesAreAllocatable) {
  const TypeId dev = registry.Register("device", 128);
  EXPECT_TRUE(allocator.Allocatable(widget));
  EXPECT_TRUE(allocator.Allocatable(dev));
  allocator.RegisterStatic(dev, 128);
  EXPECT_FALSE(allocator.Allocatable(dev));
  EXPECT_FALSE(allocator.Allocatable(allocator.slab_type()));
  EXPECT_FALSE(allocator.Allocatable(allocator.array_cache_type()));
  EXPECT_FALSE(allocator.Allocatable(allocator.kmem_cache_type()));
  // A type registered after the allocator was built starts allocatable.
  EXPECT_TRUE(allocator.Allocatable(registry.Register("later", 32)));
}

TEST_F(SlabAllocatorDeathTest, AllocOfDescriptorTypeFails) {
  CoreContext ctx = machine.Context(0);
  EXPECT_DEATH(ctx.Alloc(allocator.slab_type(), fn), "Allocatable");
  EXPECT_DEATH(ctx.Alloc(allocator.array_cache_type(), fn), "Allocatable");
  EXPECT_DEATH(ctx.Alloc(allocator.kmem_cache_type(), fn), "Allocatable");
}

TEST_F(SlabAllocatorDeathTest, AllocOfStaticTypeFails) {
  const TypeId dev = registry.Register("device", 128);
  allocator.RegisterStatic(dev, 128);
  CoreContext ctx = machine.Context(0);
  EXPECT_DEATH(ctx.Alloc(dev, fn), "Allocatable");
}

TEST_F(SlabAllocatorDeathTest, RegisterStaticOfTypeWithSlabObjectsFails) {
  CoreContext ctx = machine.Context(0);
  ctx.Free(ctx.Alloc(widget, fn), fn);
  EXPECT_DEATH(allocator.RegisterStatic(widget, 104), "grown");
  EXPECT_DEATH(allocator.RegisterStaticArray(widget, 104, 2, 128, nullptr), "grown");
}

// The layout key of an allocator over `transforms` after a fixed set-up:
// a 100-byte and a 256-byte type, one 64-byte static array at a 4 KiB
// nominal stride, one RegisterStatic-only "device", and one HasTransform
// query about "queried".
AllocatorLayout LayoutAfterSetUp(const TransformSet& transforms, int sockets = 1) {
  MachineConfig machine_config;
  machine_config.hierarchy.num_cores = 4;
  machine_config.hierarchy.num_sockets = sockets;
  Machine machine(machine_config);
  TypeRegistry registry;
  SlabAllocator allocator(&machine, &registry, transforms);
  machine.SetAllocator(&allocator);
  registry.Register("widget", 100);
  registry.Register("buffer", 256);
  const TypeId stat = registry.Register("stat", 64);
  const TypeId queried = registry.Register("queried", 128);
  const TypeId device = registry.Register("device", 100);
  allocator.RegisterStaticArray(stat, 64, 4, 4096, nullptr);
  allocator.RegisterStatic(device, 100);
  allocator.HasTransform(queried, TypeTransformKind::kReplicate);
  return allocator.LayoutKey();
}

TransformSet Only(const std::string& type, TypeTransformKind kind, int param = -1) {
  TransformSet set;
  set.Add(type, kind, param);
  return set;
}

TEST(LayoutKeyTest, NoOpTransformsKeepTheKey) {
  const AllocatorLayout base = LayoutAfterSetUp({});
  // The default slab header is 64 bytes, so align pads by nothing.
  EXPECT_TRUE(LayoutAfterSetUp(Only("widget", TypeTransformKind::kAlign)) == base);
  EXPECT_TRUE(LayoutAfterSetUp(Only("slab", TypeTransformKind::kAlign)) == base);
  // 256 bytes is already a whole number of lines.
  EXPECT_TRUE(LayoutAfterSetUp(Only("buffer", TypeTransformKind::kPadToLine)) == base);
  // Nothing asks whether widget is replicated.
  EXPECT_TRUE(LayoutAfterSetUp(Only("widget", TypeTransformKind::kReplicate)) == base);
  EXPECT_TRUE(LayoutAfterSetUp(Only("widget", TypeTransformKind::kIdentity)) == base);
  EXPECT_TRUE(LayoutAfterSetUp(Only("queried", TypeTransformKind::kIdentity)) == base);
}

TEST(LayoutKeyTest, LayoutChangingTransformsChangeTheKey) {
  const AllocatorLayout base = LayoutAfterSetUp({});
  const AllocatorLayout padded = LayoutAfterSetUp(Only("widget", TypeTransformKind::kPadToLine));
  EXPECT_FALSE(padded == base);
  EXPECT_EQ(padded.caches.size(), base.caches.size());
  EXPECT_FALSE(LayoutAfterSetUp(Only("widget", TypeTransformKind::kRecolor)) == base);
  // pin_home changes the free path even on one socket.
  EXPECT_FALSE(LayoutAfterSetUp(Only("widget", TypeTransformKind::kPinHome)) == base);
  // The replicate answer is part of the key once someone asks for it.
  const AllocatorLayout replicated =
      LayoutAfterSetUp(Only("queried", TypeTransformKind::kReplicate));
  EXPECT_FALSE(replicated == base);
  EXPECT_TRUE(replicated.caches == base.caches);
}

// The descriptor types' and static types' kmem_caches never hold an object,
// so no transform of them can move a run: each keeps the key, on one socket
// and on two, even where the same transform of a heap type changes it.
// ("device" is 100 bytes, so pad_to_line would resize a heap cache of it.)
TEST(LayoutKeyTest, TransformsOfTypesWithoutSlabObjectsKeepTheKey) {
  for (const int sockets : {1, 2}) {
    const AllocatorLayout base = LayoutAfterSetUp({}, sockets);
    for (const char* type : {"slab", "array_cache", "kmem_cache", "device"}) {
      for (const TypeTransformKind kind :
           {TypeTransformKind::kRecolor, TypeTransformKind::kPinHome,
            TypeTransformKind::kPadToLine, TypeTransformKind::kAlign}) {
        SCOPED_TRACE(std::string(type) + ":" + TypeTransformKindName(kind) +
                     " sockets=" + std::to_string(sockets));
        EXPECT_TRUE(LayoutAfterSetUp(Only(type, kind), sockets) == base);
      }
      EXPECT_TRUE(LayoutAfterSetUp(Only(type, TypeTransformKind::kPinHome, sockets - 1),
                                   sockets) == base);
    }
  }
  // The control: the same transforms of heap type widget move the key.
  const AllocatorLayout base = LayoutAfterSetUp({});
  for (const TypeTransformKind kind : {TypeTransformKind::kRecolor, TypeTransformKind::kPinHome,
                                       TypeTransformKind::kPadToLine}) {
    EXPECT_FALSE(LayoutAfterSetUp(Only("widget", kind)) == base);
  }
}

TEST(LayoutKeyTest, PinHomeSocketIsPartOfTheKey) {
  const AllocatorLayout base = LayoutAfterSetUp({}, 2);
  const AllocatorLayout own = LayoutAfterSetUp(Only("widget", TypeTransformKind::kPinHome), 2);
  const AllocatorLayout socket1 =
      LayoutAfterSetUp(Only("widget", TypeTransformKind::kPinHome, 1), 2);
  EXPECT_FALSE(own == base);
  EXPECT_FALSE(socket1 == base);
  EXPECT_FALSE(socket1 == own);
}

TEST(LayoutKeyTest, StaticArrayPlacementIsPartOfTheKey) {
  const AllocatorLayout base = LayoutAfterSetUp({});
  // stat is 64 bytes, so pad_to_line leaves its cache alone and changes
  // only the static array's stride.
  const AllocatorLayout padded = LayoutAfterSetUp(Only("stat", TypeTransformKind::kPadToLine));
  EXPECT_TRUE(padded.caches == base.caches);
  EXPECT_FALSE(padded.static_arrays == base.static_arrays);
  ASSERT_EQ(padded.static_arrays.size(), 1u);
  EXPECT_EQ(padded.static_arrays[0].stride, 64u);
  EXPECT_EQ(base.static_arrays[0].stride, 4096u);

  const AllocatorLayout recolored = LayoutAfterSetUp(Only("stat", TypeTransformKind::kRecolor));
  EXPECT_FALSE(recolored.static_arrays == base.static_arrays);
  EXPECT_GT(recolored.static_arrays[0].color_lines, 0u);
}

// Property-style fuzz: random alloc/free interleavings across cores never
// produce overlapping live objects, and every live address resolves.
class AllocatorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorFuzzTest, NoOverlapAndResolveAlways) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  TypeRegistry registry;
  SlabAllocator allocator(&machine, &registry);
  machine.SetAllocator(&allocator);
  const FunctionId fn = machine.symbols().Intern("fuzz");
  const TypeId small = registry.Register("small", 48);
  const TypeId medium = registry.Register("medium", 500);
  const TypeId large = registry.Register("large", 1900);

  Rng rng(GetParam());
  std::map<Addr, std::pair<TypeId, uint32_t>> live;  // base -> (type, padded size)
  const TypeId types[3] = {small, medium, large};
  const uint32_t padded[3] = {48, 504, 1904};

  for (int i = 0; i < 3000; ++i) {
    CoreContext ctx = machine.Context(static_cast<int>(rng.Below(4)));
    if (live.empty() || rng.Chance(0.55)) {
      const int which = static_cast<int>(rng.Below(3));
      const Addr a = ctx.Alloc(types[which], fn);
      // No overlap with any live object.
      auto next = live.lower_bound(a);
      if (next != live.end()) {
        ASSERT_GE(next->first, a + padded[which]);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second.second, a);
      }
      live[a] = {types[which], padded[which]};
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      const ResolveResult r = allocator.Resolve(it->first + rng.Below(it->second.second));
      ASSERT_TRUE(r.valid);
      ASSERT_EQ(r.type, it->second.first);
      ASSERT_EQ(r.base, it->first);
      ctx.Free(it->first, fn);
      live.erase(it);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dprof
