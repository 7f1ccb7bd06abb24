#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/machine/engine.h"
#include "src/machine/faults.h"
#include "src/machine/machine.h"
#include "src/sim/audit.h"
#include "src/sim/hierarchy.h"

namespace dprof {
namespace {

HierarchyConfig SmallConfig(int cores = 4) {
  HierarchyConfig config;
  config.num_cores = cores;
  config.l1 = CacheGeometry{1024, 64, 2};
  config.l2 = CacheGeometry{4096, 64, 4};
  config.l3 = CacheGeometry{16384, 64, 8};
  return config;
}

TEST(HierarchyTest, FirstAccessComesFromDram) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x1000, 8, false, 1);
  EXPECT_EQ(r.level, ServedBy::kDram);
  EXPECT_EQ(r.latency, LatencyOf(ServedBy::kDram));
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, SecondAccessHitsL1) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x1000, 8, false, 1);
  const AccessResult r = h.Access(0, 0x1000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kL1);
  EXPECT_FALSE(r.l1_miss);
}

TEST(HierarchyTest, RemoteDirtyLineIsForeignFetch) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x2000, 8, true, 1);  // core 0 writes (modified)
  const AccessResult r = h.Access(1, 0x2000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);
}

TEST(HierarchyTest, WriteInvalidatesRemoteCopies) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x3000, 8, false, 1);  // core 0 caches the line
  h.Access(1, 0x3000, 8, true, 2);   // core 1 writes: invalidate core 0
  EXPECT_FALSE(h.InPrivateCache(0, 0x3000));
  // Core 0's next access is an invalidation miss (ground truth flag).
  const AccessResult r = h.Access(0, 0x3000, 8, false, 3);
  EXPECT_TRUE(r.invalidation);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);  // dirty at core 1
}

TEST(HierarchyTest, EvictionIsNotAnInvalidationMiss) {
  HierarchyConfig config = SmallConfig();
  CacheHierarchy h(config);
  // Thrash set 0 of core 0's L1/L2 until 0x0 is evicted naturally.
  h.Access(0, 0x0, 8, false, 1);
  const uint64_t span = config.l2.NumSets() * config.l2.line_size;
  for (int i = 1; i <= 16; ++i) {
    h.Access(0, static_cast<Addr>(i) * span, 8, false, 1 + i);
  }
  const AccessResult r = h.Access(0, 0x0, 8, false, 100);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, SharedReadersDoNotInvalidateEachOther) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x4000, 8, false, 1);
  h.Access(1, 0x4000, 8, false, 2);
  EXPECT_TRUE(h.InPrivateCache(0, 0x4000));
  EXPECT_TRUE(h.InPrivateCache(1, 0x4000));
  const AccessResult r0 = h.Access(0, 0x4000, 8, false, 3);
  EXPECT_EQ(r0.level, ServedBy::kL1);
}

TEST(HierarchyTest, DirtyWritebackServesLaterReadFromL3) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x5000, 8, true, 1);   // dirty at core 0
  h.Access(1, 0x5000, 8, false, 2);  // foreign fetch + writeback to L3
  // A third core now finds it in L3 (both private copies are clean).
  const AccessResult r = h.Access(2, 0x5000, 8, false, 3);
  EXPECT_EQ(r.level, ServedBy::kL3);
}

TEST(HierarchyTest, MultiLineAccessAggregates) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x6000, 256, false, 1);  // 4 lines
  EXPECT_EQ(r.lines, 4u);
  EXPECT_EQ(r.latency, 4 * LatencyOf(ServedBy::kDram));
  EXPECT_EQ(r.level, ServedBy::kDram);
}

TEST(HierarchyTest, UnalignedAccessSpansExtraLine) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x6000 + 60, 8, false, 1);  // straddles
  EXPECT_EQ(r.lines, 2u);
}

TEST(HierarchyTest, ProbeLevelMatchesAccessOutcome) {
  CacheHierarchy h(SmallConfig());
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kDram);
  h.Access(0, 0x7000, 8, false, 1);
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kL1);
  h.Access(1, 0x7000, 8, true, 2);
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kForeignCache);
}

TEST(HierarchyTest, CoreStatsAccumulate) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x8000, 8, false, 1);
  h.Access(0, 0x8000, 8, false, 2);
  const CoreMemStats& stats = h.core_stats(0);
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.l1_hits, 1u);
  EXPECT_EQ(stats.l1_misses, 1u);
  EXPECT_EQ(stats.served[static_cast<int>(ServedBy::kDram)], 1u);
  EXPECT_EQ(stats.served[static_cast<int>(ServedBy::kL1)], 1u);
}

TEST(HierarchyTest, FlushAllEmptiesEverything) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x9000, 8, true, 1);
  h.FlushAll();
  EXPECT_FALSE(h.InPrivateCache(0, 0x9000));
  const AccessResult r = h.Access(0, 0x9000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kDram);
}

TEST(HierarchyTest, LatencyModelOrdering) {
  EXPECT_LT(LatencyOf(ServedBy::kL1), LatencyOf(ServedBy::kL2));
  EXPECT_LT(LatencyOf(ServedBy::kL2), LatencyOf(ServedBy::kL3));
  EXPECT_LT(LatencyOf(ServedBy::kL3), LatencyOf(ServedBy::kForeignCache));
  EXPECT_LE(LatencyOf(ServedBy::kForeignCache), LatencyOf(ServedBy::kDram));
}

TEST(HierarchyTest, ServedByNames) {
  EXPECT_STREQ(ServedByName(ServedBy::kL1), "local L1");
  EXPECT_STREQ(ServedByName(ServedBy::kForeignCache), "foreign cache");
  EXPECT_STREQ(ServedByName(ServedBy::kDram), "DRAM");
}

// ---------------------------------------------------------------------------
// Inclusive tag lattice: the embedded directory and its inclusion obligation.
// ---------------------------------------------------------------------------

// A tiny lattice (one extension way per L3 set) so overflow is easy to force.
HierarchyConfig TinyLatticeConfig() {
  HierarchyConfig config = SmallConfig(4);
  config.l3_dir_ext_ways = 1;
  return config;
}

TEST(HierarchyTest, ModifiedLineKeepsLatticeTagWithoutData) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0xB000, 8, true, 1);  // modified at core 0: L3 data is stale
  EXPECT_TRUE(h.L3HasTag(0xB000));  // ...but the directory tag stays embedded
  EXPECT_EQ(h.ProbeLevel(1, 0xB000), ServedBy::kForeignCache);
}

TEST(HierarchyTest, ExtensionOverflowBackInvalidatesPrivateCopies) {
  const HierarchyConfig config = TinyLatticeConfig();
  CacheHierarchy h(config);
  // Two lines in the same L3 set, both written (each holds a dir-only tag:
  // one in its data way as an in-place residue, the second likewise). Force
  // residue displacement by filling every data way of the set with fresh
  // lines: displaced residues overflow the single extension way, so the
  // oldest tag is reclaimed and core 0's private copies vanish with it.
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr a = 0x10000;
  const Addr b = a + set_span;
  h.Access(0, a, 8, true, 1);
  h.Access(0, b, 8, true, 2);
  ASSERT_TRUE(h.InPrivateCache(0, a));
  ASSERT_EQ(h.tag_reclaims(), 0u);
  for (uint64_t i = 2; i <= 1 + config.l3.ways; ++i) {
    h.Access(1, a + i * set_span, 8, false, 10 + i);
  }
  EXPECT_GT(h.tag_reclaims(), 0u);
  EXPECT_GT(h.back_invalidations(), 0u);
  // Inclusion invariant: a privately-held line always has a lattice tag.
  EXPECT_TRUE(!h.InPrivateCache(0, a) || h.L3HasTag(a));
  EXPECT_TRUE(!h.InPrivateCache(0, b) || h.L3HasTag(b));
  // The reclaimed tag took its private copies with it.
  EXPECT_FALSE(h.InPrivateCache(0, a));
}

TEST(HierarchyTest, DataEvictionWithLiveSharersKeepsDirectoryTag) {
  HierarchyConfig config = SmallConfig();
  CacheHierarchy h(config);
  // Cores 0 and 1 share a line; stream enough distinct lines through its L3
  // set to evict its data. The directory tag must survive (demoted, not
  // dropped), so a third core still sees a foreign copy rather than DRAM.
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr shared = 0x40000;
  h.Access(0, shared, 8, false, 1);
  h.Access(1, shared, 8, false, 2);
  for (uint64_t i = 1; i <= config.l3.ways; ++i) {
    h.Access(2, shared + i * set_span, 8, false, 2 + i);
  }
  ASSERT_EQ(h.ProbeLevel(3, shared), ServedBy::kForeignCache);
  EXPECT_TRUE(h.InPrivateCache(0, shared));
  EXPECT_TRUE(h.InPrivateCache(1, shared));
  EXPECT_EQ(h.tag_reclaims(), 0u);
  const AccessResult r = h.Access(3, shared, 8, false, 100);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);
}

TEST(HierarchyTest, FlushAllResetsEmbeddedDirectoryState) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0xC000, 8, false, 1);
  h.Access(1, 0xC000, 8, true, 2);  // dir state: owner=1, invalidated_from={0}
  h.FlushAll();
  EXPECT_FALSE(h.L3HasTag(0xC000));
  EXPECT_EQ(h.L3DataLines(), 0u);
  // No stale invalidated-from bit: the next miss is a plain DRAM miss.
  const AccessResult r = h.Access(0, 0xC000, 8, false, 3);
  EXPECT_EQ(r.level, ServedBy::kDram);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, WriteUpgradeTemplatePathsAgree) {
  // The templated Access<is_write> must behave exactly like the runtime
  // dispatch form for both polarities.
  CacheHierarchy a(SmallConfig());
  CacheHierarchy b(SmallConfig());
  const AccessResult r1 = a.Access<true>(0, 0xD000, 8, 1);
  const AccessResult r2 = b.Access(0, 0xD000, 8, true, 1);
  EXPECT_EQ(r1.level, r2.level);
  const AccessResult r3 = a.Access<false>(1, 0xD000, 8, 2);
  const AccessResult r4 = b.Access(1, 0xD000, 8, false, 2);
  EXPECT_EQ(r3.level, r4.level);
  EXPECT_EQ(r3.level, ServedBy::kForeignCache);
}

// ---------------------------------------------------------------------------
// NUMA topology: home-socket assignment, interconnect latency, and
// cross-socket back-invalidation accounting.
// ---------------------------------------------------------------------------

// The small machine split into two sockets of two cores, each with its own
// L3 slice. The home period is 8 lines (the L1 set count), so home blocks
// are 4 lines (256 bytes) cycling socket 0, 1, 0, 1, ...
HierarchyConfig NumaConfig() {
  HierarchyConfig config = SmallConfig(4);
  config.num_sockets = 2;
  return config;
}

TEST(HierarchyTest, NumaHomeAssignmentCyclesByBlock) {
  CacheHierarchy h(NumaConfig());
  ASSERT_EQ(h.num_sockets(), 2);
  const uint64_t block = h.home_block_bytes();
  EXPECT_EQ(h.HomeSocketOf(0), 0);
  EXPECT_EQ(h.HomeSocketOf(block), 1);
  EXPECT_EQ(h.HomeSocketOf(2 * block), 0);
  EXPECT_EQ(h.SocketOfCore(0), 0);
  EXPECT_EQ(h.SocketOfCore(3), 1);
  // Flat machines degenerate: every address is home, every core socket 0.
  CacheHierarchy flat(SmallConfig(4));
  EXPECT_EQ(flat.num_sockets(), 1);
  EXPECT_EQ(flat.HomeSocketOf(flat.home_block_bytes()), 0);
  EXPECT_EQ(flat.SocketOfCore(3), 0);
}

TEST(HierarchyTest, NumaRemoteHomeFillChargesInterconnect) {
  CacheHierarchy h(NumaConfig());
  const uint64_t block = h.home_block_bytes();
  // Local-home DRAM fill: core 0 (socket 0) reads a socket-0 block.
  const AccessResult local = h.Access(0, 0, 8, false, 1);
  EXPECT_EQ(local.level, ServedBy::kDram);
  EXPECT_EQ(local.latency, LatencyOf(ServedBy::kDram));
  EXPECT_EQ(h.remote_fills(), 0u);
  // Remote-home DRAM fill: the next block's home slice is socket 1.
  const AccessResult remote = h.Access(0, block, 8, false, 2);
  EXPECT_EQ(remote.level, ServedBy::kDram);
  EXPECT_EQ(remote.latency, LatencyOf(ServedBy::kDram) + kInterconnectLatency);
  EXPECT_EQ(h.remote_fills(), 1u);
  EXPECT_EQ(h.core_stats(0).remote_fills, 1u);
}

TEST(HierarchyTest, NumaCrossSocketDirtyTransferChargesInterconnect) {
  // 0x2000 is a socket-0 home block. A same-socket dirty transfer (core 0 ->
  // core 1) pays plain foreign latency; the identical transfer to a core on
  // the other socket (core 2) adds exactly one interconnect hop.
  CacheHierarchy same(NumaConfig());
  ASSERT_EQ(same.HomeSocketOf(0x2000), 0);
  same.Access(0, 0x2000, 8, true, 1);
  const AccessResult r_same = same.Access(1, 0x2000, 8, false, 2);
  EXPECT_EQ(r_same.level, ServedBy::kForeignCache);

  CacheHierarchy cross(NumaConfig());
  cross.Access(0, 0x2000, 8, true, 1);
  const AccessResult r_cross = cross.Access(2, 0x2000, 8, false, 2);
  EXPECT_EQ(r_cross.level, ServedBy::kForeignCache);
  EXPECT_EQ(r_cross.latency, r_same.latency + kInterconnectLatency);
  EXPECT_EQ(same.remote_fills(), 0u);
  EXPECT_EQ(cross.remote_fills(), 1u);
}

TEST(HierarchyTest, NumaCrossSocketBackInvalidationCounted) {
  // The TinyLattice overflow idiom, driven from the far socket: cores 2 and
  // 3 (socket 1) write and then displace lines whose home slice is socket 0,
  // so the reclaim's back-invalidations cross the interconnect.
  HierarchyConfig config = NumaConfig();
  config.l3_dir_ext_ways = 1;
  CacheHierarchy h(config);
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr a = 0x10000;
  ASSERT_EQ(h.HomeSocketOf(a), 0);
  ASSERT_EQ(h.SocketOfCore(2), 1);
  h.Access(2, a, 8, true, 1);
  h.Access(2, a + set_span, 8, true, 2);
  ASSERT_TRUE(h.InPrivateCache(2, a));
  for (uint64_t i = 2; i <= 1 + config.l3.ways; ++i) {
    h.Access(3, a + i * set_span, 8, false, 10 + i);
  }
  EXPECT_GT(h.tag_reclaims(), 0u);
  EXPECT_GT(h.back_invalidations(), 0u);
  EXPECT_GT(h.cross_socket_back_invalidations(), 0u);
  EXPECT_FALSE(h.InPrivateCache(2, a));
}

TEST(HierarchyTest, WrongHomeFaultInjectableOnlyOnNuma) {
  // Fault kind 6 duplicates a tagged line into a foreign slice's extension
  // bank. It has nothing to corrupt on a flat machine, and on a NUMA one the
  // auditor must call out the misplaced home.
  CacheHierarchy flat(SmallConfig(4));
  flat.Access(0, 0x3000, 8, true, 1);
  EXPECT_FALSE(flat.InjectLatticeFault(6));

  CacheHierarchy h(NumaConfig());
  h.Access(0, 0x3000, 8, true, 1);
  InvariantAuditor auditor(&h);
  EXPECT_TRUE(auditor.Audit().ok());
  ASSERT_TRUE(h.InjectLatticeFault(6));
  const AuditResult corrupted = auditor.Audit();
  EXPECT_FALSE(corrupted.ok());
  bool mentions_home = false;
  for (const std::string& v : corrupted.violations) {
    mentions_home = mentions_home || v.find("home") != std::string::npos;
  }
  EXPECT_TRUE(mentions_home);
}

// ---------------------------------------------------------------------------
// Differential: ApplyBatch against sequential Access calls on a twin
// hierarchy. Tiny extension banks (1-2 ways per set) make ReclaimExtWay
// fire, and 1, 2 and 4 sockets cover the home-slice and interconnect paths.
// Lanes stay inside one line, as the engine's recorded accesses do;
// multi-line Access is covered by the 4-line and straddle cases above.
// ---------------------------------------------------------------------------

void ExpectSameTotals(const HierarchyTotals& a, const HierarchyTotals& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.served[i], b.served[i]) << "served level " << i;
  }
  EXPECT_EQ(a.invalidation_misses, b.invalidation_misses);
  EXPECT_EQ(a.tag_reclaims, b.tag_reclaims);
  EXPECT_EQ(a.back_invalidations, b.back_invalidations);
  EXPECT_EQ(a.remote_fills, b.remote_fills);
  EXPECT_EQ(a.cross_socket_back_invalidations, b.cross_socket_back_invalidations);
}

struct DiffCase {
  int sockets;
  uint32_t ext_ways;
};

class ApplyBatchDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ApplyBatchDifferentialTest, MatchesSequentialAccess) {
  HierarchyConfig config = SmallConfig(4);
  config.num_sockets = GetParam().sockets;
  config.l3_dir_ext_ways = GetParam().ext_ways;
  const uint32_t line_size = config.l3.line_size;
  // 1024 lines over a 32-set, 8-way L3 slice: data evictions and write
  // residues outrun the tiny extension banks while private caches still
  // hold their lines.
  constexpr uint64_t kPoolLines = 1024;
  uint64_t reclaims = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CacheHierarchy batch(config);
    CacheHierarchy seq(config);
    std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(config.num_sockets));
    std::set<uint64_t> touched;
    uint64_t now = 1;
    for (int span = 0; span < 3000; ++span) {
      const int core = static_cast<int>(rng() % 4);
      const size_t count = 1 + rng() % 16;
      const uint64_t base = now;
      std::vector<ApplyLane> lanes(count);
      std::vector<bool> writes(count);
      for (size_t i = 0; i < count; ++i) {
        const Addr addr = 0x100000 + (rng() % kPoolLines) * line_size + rng() % line_size;
        const uint32_t in_line = line_size - static_cast<uint32_t>(addr % line_size);
        const uint32_t size = 1 + static_cast<uint32_t>(rng() % in_line);
        writes[i] = rng() % 10 < 3;
        now += 1 + rng() % 3;
        lanes[i] = ApplyLane{addr, static_cast<uint32_t>(now - base),
                             size | (writes[i] ? ApplyLane::kWriteBit : 0u), 0,
                             static_cast<FunctionId>(i)};
        touched.insert(addr / line_size * line_size);
      }
      const std::vector<ApplyLane> in = lanes;
      batch.ApplyBatch(core, base, lanes.data(), count);
      for (size_t i = 0; i < count; ++i) {
        const uint32_t size = in[i].size_w & ~ApplyLane::kWriteBit;
        const AccessResult r = seq.Access(core, in[i].addr, size, writes[i], base + in[i].t_delta);
        ASSERT_EQ(lanes[i].result, PackAccessResult(r.latency, r.level, r.invalidation))
            << "seed " << seed << " span " << span << " lane " << i;
        // Everything but the result is left for the commit pass.
        ASSERT_EQ(lanes[i].addr, in[i].addr);
        ASSERT_EQ(lanes[i].t_delta, in[i].t_delta);
        ASSERT_EQ(lanes[i].size_w, in[i].size_w);
        ASSERT_EQ(lanes[i].ip, in[i].ip);
      }
    }
    ExpectSameTotals(batch.Totals(), seq.Totals());
    for (int c = 0; c < config.num_cores; ++c) {
      EXPECT_EQ(batch.core_stats(c).accesses, seq.core_stats(c).accesses);
      EXPECT_EQ(batch.core_stats(c).remote_fills, seq.core_stats(c).remote_fills);
    }
    reclaims += batch.tag_reclaims();
    // The auditor checks every set's live extension count against the cap,
    // alongside inclusion and directory consistency.
    const AuditResult audit = InvariantAuditor(&batch).Audit();
    EXPECT_TRUE(audit.ok()) << (audit.violations.empty() ? "" : audit.violations[0]);

    batch.FlushAll();
    seq.FlushAll();
    for (const uint64_t addr : touched) {
      ASSERT_FALSE(batch.L3HasTag(addr)) << std::hex << addr;
      ASSERT_FALSE(seq.L3HasTag(addr)) << std::hex << addr;
    }
  }
  EXPECT_GT(reclaims, 0u) << "the geometry never overflowed an extension bank";
}

std::string DiffCaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return "sockets" + std::to_string(info.param.sockets) + "_ext" +
         std::to_string(info.param.ext_ways);
}

INSTANTIATE_TEST_SUITE_P(TinyLattices, ApplyBatchDifferentialTest,
                         ::testing::Values(DiffCase{1, 1}, DiffCase{1, 2}, DiffCase{2, 1},
                                           DiffCase{2, 2}, DiffCase{4, 1}, DiffCase{4, 2}),
                         DiffCaseName);

// ---------------------------------------------------------------------------
// Layout: the lattice's storage layout (8-way L3 planes, biased tags, an
// all-zero empty state) must not move a single simulated result. Seeded
// traces — read-mostly lines oversubscribing every L3 set, mixed with a
// small write-heavy pool shared by all cores — run through ApplyBatch on
// single-plane (4, 8 ways), partial-plane (12) and multi-plane (16, 32) L3
// sets, with 1-2 extension ways so ReclaimExtWay fires, on 1 and 4 sockets.
// Each case's FNV-1a digest over every packed result (latency, level,
// invalidation) and the final totals was recorded on the set-major layout
// with kNoLine = ~0 that preceded the planes.
// ---------------------------------------------------------------------------

struct LayoutCase {
  uint32_t l3_ways;
  uint32_t ext_ways;
  int sockets;
  uint64_t digest;
};

HierarchyConfig LayoutConfig(const LayoutCase& c) {
  HierarchyConfig config;
  config.num_cores = 8;
  config.num_sockets = c.sockets;
  config.l1 = CacheGeometry{512, 64, 2};   // 4 sets
  config.l2 = CacheGeometry{2048, 64, 4};  // 8 sets
  config.l3 = CacheGeometry{16ull * 64 * c.l3_ways, 64, c.l3_ways};  // 16 sets per slice
  config.l3_dir_ext_ways = c.ext_ways;
  return config;
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Runs the case's trace; returns the digest of its packed results and
// collects every line it touched.
uint64_t RunLayoutTrace(CacheHierarchy& h, const LayoutCase& c, std::set<Addr>* touched) {
  const HierarchyConfig& config = h.config();
  const uint32_t line_size = config.l3.line_size;
  const uint64_t read_lines = 2 * config.l3.NumSets() * config.l3.ways * c.sockets;
  constexpr uint64_t kSharedLines = 48;
  std::mt19937_64 rng(c.l3_ways * 131 + c.ext_ways * 17 + static_cast<uint64_t>(c.sockets));
  uint64_t hash = 14695981039346656037ull;
  uint64_t now = 1;
  for (int span = 0; span < 2000; ++span) {
    const int core = static_cast<int>(rng() % static_cast<uint64_t>(config.num_cores));
    const size_t count = 1 + rng() % 16;
    const uint64_t base = now;
    std::vector<ApplyLane> lanes(count);
    for (size_t i = 0; i < count; ++i) {
      const bool shared = rng() % 10 < 4;
      const uint64_t line = shared ? read_lines + rng() % kSharedLines : rng() % read_lines;
      const bool write = rng() % 100 < (shared ? 50u : 5u);
      const Addr addr = 0x400000 + line * line_size;
      now += 1 + rng() % 3;
      lanes[i] = ApplyLane{addr, static_cast<uint32_t>(now - base),
                           8 | (write ? ApplyLane::kWriteBit : 0u), 0,
                           static_cast<FunctionId>(i)};
      touched->insert(addr);
    }
    h.ApplyBatch(core, base, lanes.data(), count);
    for (const ApplyLane& lane : lanes) {
      hash = Fnv1a(hash, lane.result);
    }
  }
  return hash;
}

// The recorded digest: the trace's results, then the final totals.
uint64_t LayoutDigest(const CacheHierarchy& h, uint64_t results) {
  const HierarchyTotals totals = h.Totals();
  uint64_t hash = Fnv1a(results, totals.tag_reclaims);
  hash = Fnv1a(hash, totals.back_invalidations);
  hash = Fnv1a(hash, totals.remote_fills);
  hash = Fnv1a(hash, totals.cross_socket_back_invalidations);
  return Fnv1a(hash, h.L3DataLines());
}

void ExpectEmptyLattice(const CacheHierarchy& h, const std::set<Addr>& addrs) {
  EXPECT_EQ(h.L3DataLines(), 0u);
  for (const Addr addr : addrs) {
    EXPECT_FALSE(h.L3HasTag(addr)) << std::hex << addr;
    for (int core = 0; core < h.config().num_cores; ++core) {
      ASSERT_EQ(h.ProbeLevel(core, addr), ServedBy::kDram) << std::hex << addr;
    }
  }
  const AuditResult audit = InvariantAuditor(&h).Audit();
  EXPECT_TRUE(audit.ok()) << (audit.violations.empty() ? "" : audit.violations[0]);
  EXPECT_EQ(audit.tags_checked, 0u);
}

class LatticeLayoutTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LatticeLayoutTest, TraceMatchesRecordedDigest) {
  const LayoutCase& c = GetParam();
  CacheHierarchy h(LayoutConfig(c));
  std::set<Addr> touched;
  ExpectEmptyLattice(h, {0x400000, 0x400040, 0x7fffc0});

  const uint64_t results = RunLayoutTrace(h, c, &touched);
  const uint64_t digest = LayoutDigest(h, results);
  EXPECT_EQ(digest, c.digest) << "0x" << std::hex << digest;
  EXPECT_GT(h.tag_reclaims(), 0u) << "the trace never overflowed an extension bank";
  EXPECT_GT(h.L3DataLines(), 0u);
  const AuditResult audit = InvariantAuditor(&h).Audit();
  EXPECT_TRUE(audit.ok()) << (audit.violations.empty() ? "" : audit.violations[0]);

  h.FlushAll();
  ExpectEmptyLattice(h, touched);
  // A flushed lattice is a fresh one: the trace replays result for result
  // (counters survive the flush, so only the results are compared).
  std::set<Addr> replayed;
  EXPECT_EQ(RunLayoutTrace(h, c, &replayed), results);
}

std::string LayoutCaseName(const ::testing::TestParamInfo<LayoutCase>& info) {
  return "ways" + std::to_string(info.param.l3_ways) + "_ext" +
         std::to_string(info.param.ext_ways) + "_sockets" +
         std::to_string(info.param.sockets);
}

INSTANTIATE_TEST_SUITE_P(
    Planes, LatticeLayoutTest,
    ::testing::Values(LayoutCase{4, 1, 1, 0x6cf039f71f5766beull},
                      LayoutCase{4, 1, 4, 0xce94676ff4873ac7ull},
                      LayoutCase{4, 2, 1, 0xedec9d5383717fb5ull},
                      LayoutCase{4, 2, 4, 0x21db85f616fae46full},
                      LayoutCase{8, 1, 1, 0x554d250b93d75ee7ull},
                      LayoutCase{8, 1, 4, 0xfa48d890b47f0f58ull},
                      LayoutCase{8, 2, 1, 0xccaecd9b9bd0aac2ull},
                      LayoutCase{8, 2, 4, 0x3ba0ef2a45779990ull},
                      LayoutCase{12, 1, 1, 0xc07b86e98aed9013ull},
                      LayoutCase{12, 1, 4, 0x1e0fcc98ecc77a64ull},
                      LayoutCase{12, 2, 1, 0xfde900af99138688ull},
                      LayoutCase{12, 2, 4, 0x751b9ce8df9dbe96ull},
                      LayoutCase{16, 1, 1, 0x407346442a8af473ull},
                      LayoutCase{16, 1, 4, 0xf0e8e41fe97da8e4ull},
                      LayoutCase{16, 2, 1, 0x981bfd6de571d3b2ull},
                      LayoutCase{16, 2, 4, 0x74708df4e06e2d9bull},
                      LayoutCase{32, 1, 1, 0xf556fa2edfd005adull},
                      LayoutCase{32, 1, 4, 0xd7fa07e993e8dbd2ull},
                      LayoutCase{32, 2, 1, 0xdd2044fe4fd5ac04ull},
                      LayoutCase{32, 2, 4, 0x2992e9dfa73c5474ull}),
    LayoutCaseName);

// LRU ties across the plane boundary: ways 7 and 8 carry the same oldest
// stamp, so the L3 eviction takes way 7 — the first index — as the classic
// model does, although the two ways sit in different planes.
TEST(HierarchyTest, L3LruTieAcrossPlaneBoundaryTakesFirstWay) {
  HierarchyConfig config;
  config.num_cores = 1;
  config.l1 = CacheGeometry{128, 64, 2};  // one set: lines leave quickly
  config.l2 = CacheGeometry{256, 64, 4};
  config.l3 = CacheGeometry{2 * 16 * 64, 64, 16};  // 2 sets
  CacheHierarchy h(config);
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const auto line_addr = [&](uint64_t i) { return static_cast<Addr>(0x10000 + i * set_span); };
  // Lines 0..15 fill ways 0..15 of one set in order. Lines 7 and 8 share
  // the oldest stamp; every other way is newer.
  for (uint64_t i = 0; i < 16; ++i) {
    const uint64_t now = (i == 7 || i == 8) ? 1 : 10 + i;
    h.Access(0, line_addr(i), 8, false, now);
  }
  // The private caches (6 lines) no longer hold 7 or 8, so their L3 tags
  // carry no directory state and an eviction drops them outright.
  ASSERT_FALSE(h.InPrivateCache(0, line_addr(7)));
  ASSERT_FALSE(h.InPrivateCache(0, line_addr(8)));
  ASSERT_EQ(h.L3DataLines(), 16u);
  h.Access(0, line_addr(16), 8, false, 100);
  EXPECT_FALSE(h.L3HasTag(line_addr(7)));
  EXPECT_TRUE(h.L3HasTag(line_addr(8)));
  EXPECT_TRUE(h.L3HasTag(line_addr(16)));
  EXPECT_EQ(h.L3DataLines(), 16u);
  EXPECT_TRUE(InvariantAuditor(&h).Audit().ok());
}

// ---------------------------------------------------------------------------
// Directory-extension overflow scenario (test-only, unregistered): a full
// engine-driven workload that actually fires the ReclaimExtWay inclusion
// obligation, which no registered scenario reaches. Core 0 writes two lines
// of one L3 set (their stale L3 copies become in-place dir-only residues);
// core 1 then streams enough fresh lines through the same set that the
// displaced residues overflow the single extension way, reclaiming the
// oldest tag and back-invalidating core 0's private copies.
// ---------------------------------------------------------------------------

class ExtOverflowWriter final : public CoreDriver {
 public:
  ExtOverflowWriter(Addr base, uint64_t span) : base_(base), span_(span) {}
  bool Step(CoreContext& ctx) override {
    if (i_ >= 2) {
      return false;
    }
    ctx.Write(1, base_ + i_ * span_, 8);
    ctx.Compute(1, 100);
    ++i_;
    return true;
  }

 private:
  Addr base_;
  uint64_t span_;
  uint64_t i_ = 0;
};

class ExtOverflowStreamer final : public CoreDriver {
 public:
  ExtOverflowStreamer(Addr base, uint64_t span, uint64_t lines)
      : base_(base), span_(span), lines_(lines) {}
  bool Step(CoreContext& ctx) override {
    if (!delayed_) {
      // Pad past the writer's ops so the quantum merge orders the stream
      // strictly after the residues exist.
      ctx.Compute(2, 60'000);
      delayed_ = true;
      return true;
    }
    if (i_ >= lines_) {
      return false;
    }
    ctx.Read(2, base_ + i_ * span_, 8);
    ctx.Compute(2, 50);
    ++i_;
    return true;
  }

 private:
  Addr base_;
  uint64_t span_;
  uint64_t lines_;
  bool delayed_ = false;
  uint64_t i_ = 0;
};

TEST(HierarchyTest, ExtensionOverflowScenarioFiresReclaimUnderEngine) {
  const HierarchyConfig hconfig = TinyLatticeConfig();
  const uint64_t set_span = hconfig.l3.NumSets() * hconfig.l3.line_size;
  const Addr written = 0x10000;  // two written lines: 0x10000, 0x10000+span
  const Addr streamed = written + 2 * set_span;  // same L3 set, fresh lines

  MachineConfig config;
  config.hierarchy = hconfig;
  Machine machine(config);
  ExtOverflowWriter writer(written, set_span);
  ExtOverflowStreamer streamer(streamed, set_span, hconfig.l3.ways + 2);
  machine.SetDriver(0, &writer);
  machine.SetDriver(1, &streamer);
  Engine engine(&machine);
  machine.SetExecutor(&engine);
  machine.RunFor(200'000);
  machine.SetExecutor(nullptr);
  CacheHierarchy& h = machine.hierarchy();
  // Inclusion invariant for every line the scenario touched: a privately
  // held line always has a lattice tag.
  for (uint64_t i = 0; i < hconfig.l3.ways + 2; ++i) {
    const Addr addr = streamed + i * set_span;
    for (int c = 0; c < hconfig.num_cores; ++c) {
      EXPECT_TRUE(!h.InPrivateCache(c, addr) || h.L3HasTag(addr));
    }
  }
  for (const Addr addr : {written, written + set_span}) {
    for (int c = 0; c < hconfig.num_cores; ++c) {
      EXPECT_TRUE(!h.InPrivateCache(c, addr) || h.L3HasTag(addr));
    }
  }

  const HierarchyTotals totals = h.Totals();
  // The reclaim path really fired, and took private copies with it.
  EXPECT_GT(totals.tag_reclaims, 0u);
  EXPECT_GT(totals.back_invalidations, 0u);
  EXPECT_FALSE(h.InPrivateCache(0, written));  // oldest written line lost its copies
  // Counter consistency: served levels partition accesses, and the L1 split
  // agrees with them.
  uint64_t served_sum = 0;
  for (int i = 0; i < 5; ++i) {
    served_sum += totals.served[i];
  }
  EXPECT_EQ(totals.accesses, served_sum);
  EXPECT_EQ(totals.accesses, totals.l1_hits + totals.l1_misses);
  EXPECT_LE(totals.invalidation_misses, totals.l1_misses);
}

// Extension-bank exhaustion reached the fault-plan way: kExtBankPressure
// shrinks l3_dir_ext_ways at config time, the overflow scenario storms the
// reclaim path, and the invariant auditor must find the lattice consistent
// afterwards.
TEST(HierarchyTest, FaultPlanExtPressureExhaustionStaysAuditClean) {
  HierarchyConfig hconfig = SmallConfig(4);
  FaultPlanConfig fault_config;
  fault_config.enabled_mask = 1u << static_cast<int>(FaultSeam::kExtBankPressure);
  FaultPlan plan(fault_config);
  plan.ApplyToHierarchy(&hconfig);
  EXPECT_EQ(hconfig.l3_dir_ext_ways, 1u);
  EXPECT_EQ(plan.injected(FaultSeam::kExtBankPressure), 1u);

  const uint64_t set_span = hconfig.l3.NumSets() * hconfig.l3.line_size;
  MachineConfig config;
  config.hierarchy = hconfig;
  Machine machine(config);
  ExtOverflowWriter writer(0x10000, set_span);
  ExtOverflowStreamer streamer(0x10000 + 2 * set_span, set_span, hconfig.l3.ways + 2);
  machine.SetDriver(0, &writer);
  machine.SetDriver(1, &streamer);
  Engine engine(&machine);
  machine.SetExecutor(&engine);
  machine.RunFor(200'000);
  machine.SetExecutor(nullptr);

  EXPECT_GT(machine.hierarchy().Totals().tag_reclaims, 0u);
  InvariantAuditor auditor(&machine.hierarchy());
  const AuditResult audit = auditor.Audit();
  EXPECT_TRUE(audit.ok()) << (audit.violations.empty() ? "" : audit.violations[0]);
  EXPECT_GT(audit.tags_checked, 0u);
}

// Parameterized coherence property: whichever core wrote last, a read from
// any *other* core must not be served from that other core's own L1, and
// after the read both copies are coherent (subsequent reads hit locally).
class CoherencePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoherencePropertyTest, ReadAfterRemoteWrite) {
  const int writer = GetParam();
  CacheHierarchy h(SmallConfig(4));
  const Addr addr = 0xA000;
  h.Access(writer, addr, 8, true, 1);
  for (int reader = 0; reader < 4; ++reader) {
    if (reader == writer) {
      continue;
    }
    const AccessResult first = h.Access(reader, addr, 8, false, 2);
    EXPECT_NE(first.level, ServedBy::kL1) << "reader " << reader;
    const AccessResult second = h.Access(reader, addr, 8, false, 3);
    EXPECT_EQ(second.level, ServedBy::kL1) << "reader " << reader;
  }
}

INSTANTIATE_TEST_SUITE_P(Writers, CoherencePropertyTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace dprof
