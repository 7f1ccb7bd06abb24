// Tests for the data profile, working set, and miss classification views.

#include <gtest/gtest.h>

#include "src/dprof/data_profile.h"
#include "src/dprof/miss_classifier.h"
#include "src/dprof/working_set.h"

namespace dprof {
namespace {

void AddSamples(AccessSampleTable* table, TypeId type, FunctionId ip, uint32_t offset,
                ServedBy level, int count, int core = 0) {
  for (int i = 0; i < count; ++i) {
    IbsSample s;
    s.core = core;
    s.ip = ip;
    s.vaddr = 0x1000 + offset;
    s.level = level;
    s.latency = LatencyOf(level);
    ResolveResult r;
    r.valid = true;
    r.type = type;
    r.base = 0x1000;
    r.offset = offset;
    table->Record(s, r);
  }
}

struct ViewsFixture : ::testing::Test {
  ViewsFixture() {
    hot = registry.Register("hot_type", 256);
    cold = registry.Register("cold_type", 64);
    shared = registry.Register("shared_type", 128);
    // Address-set population: hot has many live objects, cold a few.
    for (int i = 0; i < 64; ++i) {
      addresses.OnAlloc(hot, 0x10000 + static_cast<Addr>(i) * 256, 256, 0, 10);
    }
    for (int i = 0; i < 4; ++i) {
      addresses.OnAlloc(cold, 0x40000 + static_cast<Addr>(i) * 64, 64, 0, 10);
    }
    addresses.OnAlloc(shared, 0x50000, 128, 0, 10);

    AddSamples(&samples, hot, 1, 0, ServedBy::kDram, 60);
    AddSamples(&samples, hot, 1, 64, ServedBy::kL1, 40);
    AddSamples(&samples, cold, 2, 0, ServedBy::kL2, 10);
    AddSamples(&samples, shared, 3, 0, ServedBy::kForeignCache, 30);
    AddSamples(&samples, shared, 3, 0, ServedBy::kL1, 10);
  }

  TypeRegistry registry;
  AccessSampleTable samples;
  AddressSet addresses;
  TypeId hot = kInvalidType;
  TypeId cold = kInvalidType;
  TypeId shared = kInvalidType;
  static constexpr uint64_t kNow = 1000;
  static constexpr CacheGeometry kSmallCache{64 * 1024, 64, 8};
  static constexpr CacheGeometry kL2{512 * 1024, 64, 16};  // HierarchyConfig's L2
};

TEST_F(ViewsFixture, DataProfileRanksByMissShare) {
  const DataProfile profile = DataProfile::Build(registry, samples, addresses, kNow);
  ASSERT_EQ(profile.rows().size(), 3u);
  EXPECT_EQ(profile.rows()[0].name, "hot_type");  // 60 misses
  EXPECT_EQ(profile.rows()[1].name, "shared_type");  // 30 misses
  EXPECT_EQ(profile.rows()[2].name, "cold_type");  // 10 misses
  EXPECT_NEAR(profile.rows()[0].miss_pct, 60.0, 1e-9);
  EXPECT_NEAR(profile.rows()[1].miss_pct, 30.0, 1e-9);
}

TEST_F(ViewsFixture, DataProfileBounceFromForeignFraction) {
  const DataProfile profile = DataProfile::Build(registry, samples, addresses, kNow);
  EXPECT_FALSE(profile.Find(hot)->bounce);
  EXPECT_TRUE(profile.Find(shared)->bounce);
  EXPECT_FALSE(profile.Find(cold)->bounce);
}

TEST_F(ViewsFixture, DataProfileWorkingSetFromAddressSet) {
  const DataProfile profile = DataProfile::Build(registry, samples, addresses, kNow);
  // 64 hot objects of 256B live from t=10 to now=1000: ~16KB.
  EXPECT_NEAR(profile.Find(hot)->working_set_bytes, 64 * 256 * 0.99, 64 * 256 * 0.05);
}

TEST_F(ViewsFixture, DataProfileTopTypesAndTable) {
  const DataProfile profile = DataProfile::Build(registry, samples, addresses, kNow);
  const auto top2 = profile.TopTypes(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], hot);
  const std::string table = profile.ToTable(2);
  EXPECT_NE(table.find("hot_type"), std::string::npos);
  EXPECT_NE(table.find("Total"), std::string::npos);
  EXPECT_EQ(table.find("cold_type"), std::string::npos);  // beyond top 2
}

TEST_F(ViewsFixture, WorkingSetRowsSortedByLiveBytes) {
  const WorkingSetView view =
      WorkingSetView::Build(registry, addresses, samples, kNow, kSmallCache);
  ASSERT_GE(view.rows().size(), 2u);
  EXPECT_EQ(view.rows()[0].name, "hot_type");
  EXPECT_GT(view.rows()[0].cache_lines_touched, 0.0);
  EXPECT_NE(view.Find(hot), nullptr);
  EXPECT_EQ(view.Find(999), nullptr);
}

TEST_F(ViewsFixture, WorkingSetDetectsNoConflictsForSpreadAddresses) {
  const WorkingSetView view =
      WorkingSetView::Build(registry, addresses, samples, kNow, kSmallCache);
  EXPECT_TRUE(view.conflicted_sets().empty());
  EXPECT_FALSE(view.OverCapacity());
}

TEST(WorkingSetConflictTest, AliasedAddressesFlagConflictedSets) {
  TypeRegistry registry;
  const TypeId aliased = registry.Register("aliased", 64);
  AddressSet addresses;
  AccessSampleTable samples;
  // 64 objects, all mapping to associativity set 0 of a 64-set cache.
  const uint64_t stride = 64 * 64;  // sets * line
  for (int i = 0; i < 64; ++i) {
    addresses.OnAlloc(aliased, static_cast<Addr>(i) * stride, 64, 0, 1);
  }
  const CacheGeometry cache{64 * 64 * 4, 64, 4};  // 64 sets, 4 ways
  const WorkingSetView view = WorkingSetView::Build(registry, addresses, samples, 1000, cache);
  ASSERT_FALSE(view.conflicted_sets().empty());
  EXPECT_EQ(view.conflicted_sets()[0].set, 0u);
  EXPECT_GT(view.conflicted_sets()[0].distinct_lines, 4u);
  EXPECT_GT(view.ConflictedFraction(aliased), 0.9);
}

TEST_F(ViewsFixture, MissClassifierInvalidationForForeignHeavyType) {
  const WorkingSetView ws = WorkingSetView::Build(registry, addresses, samples, kNow, kSmallCache);
  const auto rows = MissClassifier::Build(registry, samples, ws, {});
  const MissClassRow* shared_row = nullptr;
  for (const auto& row : rows) {
    if (row.type == shared) {
      shared_row = &row;
    }
  }
  ASSERT_NE(shared_row, nullptr);
  EXPECT_EQ(shared_row->dominant, MissKind::kInvalidation);
  EXPECT_GT(shared_row->invalidation_pct, 90.0);
}

TEST_F(ViewsFixture, MissClassifierSharesSumToHundred) {
  const WorkingSetView ws = WorkingSetView::Build(registry, addresses, samples, kNow, kL2);
  const auto rows = MissClassifier::Build(registry, samples, ws, {});
  for (const auto& row : rows) {
    EXPECT_NEAR(row.invalidation_pct + row.conflict_pct + row.capacity_pct, 100.0, 1e-6);
  }
}

TEST(MissClassifierTest, ConflictRegime) {
  TypeRegistry registry;
  const TypeId aliased = registry.Register("aliased", 64);
  AddressSet addresses;
  AccessSampleTable samples;
  const uint64_t stride = 64 * 64;
  for (int i = 0; i < 64; ++i) {
    addresses.OnAlloc(aliased, static_cast<Addr>(i) * stride, 64, 0, 1);
  }
  // Misses are local (evictions), not foreign.
  for (int i = 0; i < 50; ++i) {
    IbsSample s;
    s.ip = 1;
    s.vaddr = 0;
    s.level = ServedBy::kL2;
    ResolveResult r;
    r.valid = true;
    r.type = aliased;
    r.base = 0;
    r.offset = 0;
    samples.Record(s, r);
  }
  const CacheGeometry cache{64 * 64 * 4, 64, 4};
  const WorkingSetView ws = WorkingSetView::Build(registry, addresses, samples, 1000, cache);
  const auto rows = MissClassifier::Build(registry, samples, ws, {});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].dominant, MissKind::kConflict);
}

TEST(MissClassifierTest, CapacityRegime) {
  TypeRegistry registry;
  const TypeId big = registry.Register("big", 64);
  AddressSet addresses;
  AccessSampleTable samples;
  // Uniformly spread working set far exceeding the cache.
  for (int i = 0; i < 4096; ++i) {
    addresses.OnAlloc(big, static_cast<Addr>(i) * 64, 64, 0, 1);
  }
  for (int i = 0; i < 50; ++i) {
    IbsSample s;
    s.ip = 1;
    s.vaddr = 0;
    s.level = ServedBy::kDram;
    ResolveResult r;
    r.valid = true;
    r.type = big;
    r.base = 0;
    r.offset = 0;
    samples.Record(s, r);
  }
  const CacheGeometry cache{16 * 1024, 64, 4};  // 256 lines capacity
  const WorkingSetView ws = WorkingSetView::Build(registry, addresses, samples, 1000, cache);
  EXPECT_TRUE(ws.OverCapacity());
  const auto rows = MissClassifier::Build(registry, samples, ws, {});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].dominant, MissKind::kCapacity);
  EXPECT_GT(rows[0].capacity_pct, 90.0);
}

TEST(MissClassifierTest, TableRenders) {
  MissClassRow row;
  row.name = "skbuff";
  row.invalidation_pct = 80;
  row.capacity_pct = 20;
  row.dominant = MissKind::kInvalidation;
  row.miss_samples = 123;
  const std::string out = MissClassifier::ToTable({row});
  EXPECT_NE(out.find("skbuff"), std::string::npos);
  EXPECT_NE(out.find("invalidation"), std::string::npos);
  EXPECT_NE(out.find("123"), std::string::npos);
}

TEST(MissKindTest, Names) {
  EXPECT_STREQ(MissKindName(MissKind::kInvalidation), "invalidation");
  EXPECT_STREQ(MissKindName(MissKind::kConflict), "conflict");
  EXPECT_STREQ(MissKindName(MissKind::kCapacity), "capacity");
  EXPECT_STREQ(MissKindName(MissKind::kNone), "none");
}

TEST_F(ViewsFixture, WorkingSetJsonCarriesDemandAndRows) {
  const WorkingSetView view = WorkingSetView::Build(registry, addresses, samples, kNow, kL2);
  const std::string json = view.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"demand_lines\":"), std::string::npos);
  EXPECT_NE(json.find("\"capacity_lines\":"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"conflicted_sets\":["), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"hot_type\""), std::string::npos);
}

TEST(MissClassifierTest, JsonCarriesSharesAndDominantKind) {
  MissClassRow row;
  row.name = "skbuff";
  row.invalidation_pct = 80;
  row.capacity_pct = 20;
  row.dominant = MissKind::kInvalidation;
  row.miss_samples = 123;
  const std::string json = MissClassifier::ToJson({row});
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"type\":\"skbuff\""), std::string::npos);
  EXPECT_NE(json.find("\"invalidation_pct\":80"), std::string::npos);
  EXPECT_NE(json.find("\"dominant\":\"invalidation\""), std::string::npos);
  EXPECT_NE(json.find("\"miss_samples\":123"), std::string::npos);
}

}  // namespace
}  // namespace dprof
