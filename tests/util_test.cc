#include <gtest/gtest.h>

#include <set>

#include "src/util/dot.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace dprof {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values show up
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, JitterBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t j = rng.Jitter(100);
    EXPECT_GE(j, 50u);
    EXPECT_LE(j, 150u);
  }
  EXPECT_EQ(rng.Jitter(1), 1u);
  EXPECT_EQ(rng.Jitter(0), 1u);
}

TEST(RngTest, JitterMeanNearTarget) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Jitter(1000));
  }
  EXPECT_NEAR(sum / n, 1000.0, 25.0);
}

TEST(RunningStatTest, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, Accumulates) {
  RunningStat s;
  s.Add(2.0);
  s.Add(4.0);
  s.Add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(RunningStatTest, MergeCombines) {
  RunningStat a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat b;
  b.Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(RunningStatTest, MergeWithEmptyIsNoop) {
  RunningStat a;
  a.Add(7.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 7.0);
}

TEST(PctTest, HandlesZeroDenominator) {
  EXPECT_EQ(Pct(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(Pct(1, 4), 25.0);
}

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter t({"Name", "Value"});
  t.AddRow({"foo", "1"});
  t.AddRow({"bar", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("foo"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, MissingCellsRenderEmpty) {
  TablePrinter t({"A", "B", "C"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find('x'), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Percent(12.345, 1), "12.3%");
  EXPECT_EQ(TablePrinter::Bytes(512), "512B");
  EXPECT_EQ(TablePrinter::Bytes(2048), "2.00KB");
  EXPECT_EQ(TablePrinter::Bytes(3 * 1024 * 1024), "3.00MB");
  EXPECT_EQ(TablePrinter::Count(42), "42");
}

TEST(DotWriterTest, EmitsNodesAndEdges) {
  DotWriter dot("g");
  const int a = dot.AddNode("alpha", false);
  const int b = dot.AddNode("beta", true);
  dot.AddEdge(a, b, 7, true);
  const std::string out = dot.ToString();
  EXPECT_NE(out.find("digraph"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("gray55"), std::string::npos);   // dark node
  EXPECT_NE(out.find("penwidth=3"), std::string::npos);  // bold edge
  EXPECT_NE(out.find("label=\"7\""), std::string::npos);
}

TEST(DotWriterTest, EscapesQuotes) {
  DotWriter dot("g");
  dot.AddNode("say \"hi\"", false);
  EXPECT_NE(dot.ToString().find("\\\""), std::string::npos);
}

}  // namespace
}  // namespace dprof
