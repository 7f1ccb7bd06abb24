#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/dprof/address_set.h"
#include "src/util/rng.h"

namespace dprof {
namespace {

TEST(AddressSetTest, TracksLiveCounts) {
  AddressSet set;
  set.OnAlloc(1, 0x1000, 64, 0, 100);
  set.OnAlloc(1, 0x2000, 64, 0, 200);
  EXPECT_EQ(set.LiveCount(1), 2u);
  EXPECT_EQ(set.AllocCount(1), 2u);
  set.OnFree(1, 0x1000, 64, 0, 300);
  EXPECT_EQ(set.LiveCount(1), 1u);
  EXPECT_EQ(set.ObjectSize(1), 64u);
}

TEST(AddressSetTest, AverageLiveBytesIntegratesResidency) {
  AddressSet set;
  // One 100-byte object live for half of a 1000-cycle window.
  set.OnAlloc(1, 0x1000, 100, 0, 0);
  set.OnFree(1, 0x1000, 100, 0, 500);
  EXPECT_NEAR(set.AverageLiveBytes(1, 1000), 50.0, 1e-6);
}

TEST(AddressSetTest, ToleratesOutOfOrderTimestamps) {
  AddressSet set;
  set.OnAlloc(1, 0x1000, 64, 0, 1000);
  // A second core's clock lags behind; must not corrupt the integral.
  set.OnAlloc(1, 0x2000, 64, 1, 400);
  set.OnFree(1, 0x2000, 64, 1, 500);
  const double avg = set.AverageLiveBytes(1, 2000);
  EXPECT_GE(avg, 0.0);
  EXPECT_LT(avg, 200.0);
}

TEST(AddressSetTest, AddressSamplesModulo) {
  AddressSet set;
  // Samples are kept modulo 16 MiB, the largest cache of interest.
  set.OnAlloc(1, 0x7f0003123456, 64, 0, 1);
  const auto& samples = set.AddressSamples(1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0], 0x123456u);
}

TEST(AddressSetTest, ReservoirBounded) {
  AddressSet set;
  // The reservoir keeps 4,096 samples per type.
  for (int i = 0; i < 5000; ++i) {
    set.OnAlloc(1, 0x1000 + static_cast<Addr>(i) * 64, 64, 0, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(set.AddressSamples(1).size(), 4096u);
  EXPECT_EQ(set.AllocCount(1), 5000u);
}

TEST(AddressSetTest, UnknownTypeIsEmpty) {
  AddressSet set;
  EXPECT_EQ(set.LiveCount(42), 0u);
  EXPECT_EQ(set.AllocCount(42), 0u);
  EXPECT_TRUE(set.AddressSamples(42).empty());
  EXPECT_EQ(set.AverageLiveBytes(42, 100), 0.0);
}

TEST(AddressSetTest, KnownTypesSorted) {
  AddressSet set;
  set.OnAlloc(9, 0x1000, 64, 0, 1);
  set.OnAlloc(3, 0x2000, 64, 0, 2);
  set.OnAlloc(5, 0x3000, 64, 0, 3);
  const auto types = set.KnownTypes();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], 3u);
  EXPECT_EQ(types[1], 5u);
  EXPECT_EQ(types[2], 9u);
}

TEST(AddressSetTest, FreeWithoutAllocIsSafe) {
  AddressSet set;
  set.OnFree(1, 0x1000, 64, 0, 100);
  EXPECT_EQ(set.LiveCount(1), 0u);
}

// Reference model: the address set's accounting spelled out with ordered
// maps, to check the flat tables against.
class ModelAddressSet {
 public:
  void OnAlloc(TypeId type, uint32_t size, uint64_t now) {
    Type& t = types_[type];
    Advance(t, now);
    ++t.allocs;
    ++t.live;
    t.obj_size = size;
  }

  void OnFree(TypeId type, uint64_t now) {
    Type& t = types_[type];
    Advance(t, now);
    if (t.live > 0) {
      --t.live;
    }
  }

  uint64_t AllocCount(TypeId type) const { return Get(type).allocs; }
  uint64_t LiveCount(TypeId type) const { return Get(type).live; }
  double AverageLiveBytes(TypeId type, uint64_t now) const {
    const Type& t = Get(type);
    double integral = t.live_integral;
    if (now > t.last_event) {
      integral += static_cast<double>(t.live) * static_cast<double>(now - t.last_event);
    }
    return now == 0 ? 0.0 : integral / static_cast<double>(now) * t.obj_size;
  }
  std::vector<TypeId> KnownTypes() const {
    std::vector<TypeId> out;
    for (const auto& [type, t] : types_) {
      out.push_back(type);
    }
    return out;
  }

 private:
  struct Type {
    uint64_t allocs = 0;
    uint64_t live = 0;
    uint32_t obj_size = 0;
    double live_integral = 0.0;
    uint64_t last_event = 0;
  };

  static void Advance(Type& t, uint64_t now) {
    if (now > t.last_event) {
      t.live_integral += static_cast<double>(t.live) * static_cast<double>(now - t.last_event);
      t.last_event = now;
    }
  }

  const Type& Get(TypeId type) const {
    static const Type kNone;
    auto it = types_.find(type);
    return it == types_.end() ? kNone : it->second;
  }

  std::map<TypeId, Type> types_;
};

// Drives AddressSet and the model with the same seeded event stream. Bases
// come from a small pool of page- and line-aligned addresses (they share
// their low bits, and the pool revisits them), so the stream re-allocates
// live bases and frees bases that are not live, which the accounting must
// tolerate. Timestamps jitter backwards like per-core clocks do.
TEST(AddressSetTest, FlatTablesMatchOrderedMapModel) {
  const std::vector<TypeId> types = {0, 2, 3, 7, 40};
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    AddressSet set;
    ModelAddressSet model;
    std::vector<Addr> pool;
    for (Addr i = 0; i < 12000; ++i) {
      pool.push_back(0x100000000ull + i * (i % 3 == 0 ? 4096 : 64));
    }
    std::set<Addr> live_bases;
    uint64_t clock = 0;
    int live_reallocs = 0;
    int dead_frees = 0;
    for (int step = 0; step < 200000; ++step) {
      clock += rng.Below(50);
      const uint64_t now = clock - std::min<uint64_t>(clock, rng.Below(200));
      const TypeId type = types[rng.Below(types.size())];
      const Addr base = pool[rng.Below(pool.size())];
      // Alloc-heavy for the first half, free-heavy after, so the live set
      // grows and then drains.
      const bool alloc = rng.Below(100) < (step < 100000 ? 70u : 30u);
      if (alloc) {
        live_reallocs += live_bases.insert(base).second ? 0 : 1;
        set.OnAlloc(type, base, 64 + type, 0, now);
        model.OnAlloc(type, 64 + type, now);
      } else {
        dead_frees += live_bases.erase(base) == 0 ? 1 : 0;
        set.OnFree(type, base, 64 + type, 1, now);
        model.OnFree(type, now);
      }
    }
    EXPECT_GT(live_reallocs, 0);
    EXPECT_GT(dead_frees, 0);
    EXPECT_EQ(set.KnownTypes(), model.KnownTypes());
    for (const TypeId type : types) {
      SCOPED_TRACE(type);
      EXPECT_EQ(set.AllocCount(type), model.AllocCount(type));
      EXPECT_EQ(set.LiveCount(type), model.LiveCount(type));
      EXPECT_EQ(set.AverageLiveBytes(type, clock + 1000),
                model.AverageLiveBytes(type, clock + 1000));
    }
    // Types no event named still read as empty.
    for (const TypeId type : {1u, 5u, 41u, 1000u}) {
      EXPECT_EQ(set.AllocCount(type), 0u);
      EXPECT_EQ(set.LiveCount(type), 0u);
      EXPECT_EQ(set.ObjectSize(type), 0u);
      EXPECT_EQ(set.AverageLiveBytes(type, clock), 0.0);
      EXPECT_TRUE(set.AddressSamples(type).empty());
    }
  }
}

}  // namespace
}  // namespace dprof
