#include <gtest/gtest.h>

#include "src/dprof/access_sample.h"

namespace dprof {
namespace {

IbsSample Sample(FunctionId ip, Addr vaddr, ServedBy level, uint32_t latency, int core = 0,
                 bool write = false) {
  IbsSample s;
  s.core = core;
  s.ip = ip;
  s.vaddr = vaddr;
  s.size = 8;
  s.is_write = write;
  s.level = level;
  s.latency = latency;
  return s;
}

ResolveResult Resolved(TypeId type, Addr base, uint32_t offset) {
  ResolveResult r;
  r.valid = true;
  r.type = type;
  r.base = base;
  r.offset = offset;
  r.size = 256;
  return r;
}

TEST(AccessSampleTableTest, RecordsAndAggregates) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x100, ServedBy::kDram, 250), Resolved(7, 0x100, 0));
  EXPECT_EQ(table.total_samples(), 2u);
  EXPECT_EQ(table.l1_miss_samples(), 1u);
  ASSERT_EQ(table.cells().size(), 1u);
  const SampleStats& stats = table.cells().begin()->second;
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.latency_sum, 253u);
}

TEST(AccessSampleTableTest, UnresolvedCountedButNotAttributed) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kDram, 250), ResolveResult{});
  EXPECT_EQ(table.total_samples(), 1u);
  EXPECT_EQ(table.unresolved_samples(), 1u);
  EXPECT_TRUE(table.cells().empty());
}

TEST(AccessSampleTableTest, SeparateCellsPerOffsetAndIp) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x108, ServedBy::kL1, 3), Resolved(7, 0x100, 8));
  table.Record(Sample(2, 0x100, ServedBy::kL1, 3), Resolved(7, 0x100, 0));
  EXPECT_EQ(table.cells().size(), 3u);
}

TEST(AccessSampleTableTest, AggregateByType) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kForeignCache, 200, 2), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x200, ServedBy::kL1, 3, 3), Resolved(9, 0x200, 0));
  table.Record(Sample(1, 0x204, ServedBy::kDram, 250, 3), Resolved(9, 0x200, 4));
  const auto agg = table.AggregateByType();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg.at(7).samples, 1u);
  EXPECT_EQ(agg.at(7).l1_misses, 1u);
  EXPECT_EQ(agg.at(7).foreign, 1u);
  EXPECT_DOUBLE_EQ(agg.at(7).ForeignFraction(), 1.0);
  EXPECT_EQ(agg.at(9).samples, 2u);
  EXPECT_EQ(agg.at(9).l1_misses, 1u);
  EXPECT_EQ(agg.at(9).dram, 1u);
  EXPECT_EQ(agg.at(9).cpu_mask, 1u << 3);
}

TEST(AccessSampleTableTest, RangeAggregation) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x110, ServedBy::kDram, 250), Resolved(7, 0x100, 16));
  table.Record(Sample(1, 0x180, ServedBy::kDram, 250), Resolved(7, 0x100, 128));

  const RangeStats in_range = table.Aggregate(7, 1, 0, 63);
  EXPECT_EQ(in_range.count, 2u);
  EXPECT_DOUBLE_EQ(in_range.level_prob[static_cast<int>(ServedBy::kL1)], 0.5);
  EXPECT_DOUBLE_EQ(in_range.avg_latency, (3 + 250) / 2.0);

  const RangeStats none = table.Aggregate(7, 2, 0, 63);
  EXPECT_EQ(none.count, 0u);

  const RangeStats all = table.Aggregate(7, 1, 0, 255);
  EXPECT_EQ(all.count, 3u);
}

TEST(AccessSampleTableTest, HotOffsetsRankedByCount) {
  AccessSampleTable table;
  for (int i = 0; i < 10; ++i) {
    table.Record(Sample(1, 0x140, ServedBy::kL1, 3), Resolved(7, 0x100, 64));
  }
  for (int i = 0; i < 3; ++i) {
    table.Record(Sample(1, 0x104, ServedBy::kL1, 3), Resolved(7, 0x100, 4));
  }
  table.Record(Sample(1, 0x1f0, ServedBy::kL1, 3), Resolved(7, 0x100, 240));

  const auto top2 = table.HotOffsets(7, 2);
  ASSERT_EQ(top2.size(), 2u);
  // Sorted by offset for sweep use, but contents are the two hottest.
  EXPECT_EQ(top2[0], 4u);
  EXPECT_EQ(top2[1], 64u);

  const auto all = table.HotOffsets(7, 10);
  EXPECT_EQ(all.size(), 3u);
}

TEST(AccessSampleTableTest, WriteCountingAndCpuMask) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3, 0, true), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3, 5, false), Resolved(7, 0x100, 0));
  const SampleStats& stats = table.cells().begin()->second;
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.cpu_mask, (1u << 0) | (1u << 5));
}

// The 64-core topology preset samples cores past bit 31 of the mask.
TEST(AccessSampleTableTest, CpuMaskCoversEveryCoreOfABigMachine) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3, 40), Resolved(7, 0x100, 0));
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3, 63), Resolved(7, 0x100, 0));
  EXPECT_EQ(table.cells().begin()->second.cpu_mask, (1ull << 40) | (1ull << 63));
  EXPECT_EQ(table.AggregateByType().at(7).cpu_mask, (1ull << 40) | (1ull << 63));
}

TEST(AccessSampleTableTest, ClearResets) {
  AccessSampleTable table;
  table.Record(Sample(1, 0x100, ServedBy::kL1, 3), Resolved(7, 0x100, 0));
  table.Clear();
  EXPECT_EQ(table.total_samples(), 0u);
  EXPECT_TRUE(table.cells().empty());
  EXPECT_EQ(table.Aggregate(7, 1, 0, 255).count, 0u);
}

}  // namespace
}  // namespace dprof
