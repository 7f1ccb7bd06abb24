// Tests for the robustness layer: the deterministic FaultPlan, the lattice
// invariant auditor, the watchdog, and the graceful-degradation paths. The
// load-bearing properties: every fault decision is a pure function of the
// plan seed and simulated coordinates (so faulted runs are byte-identical
// across host thread counts), the auditor catches every corruption kind the
// hierarchy can inject, and healthy audited runs change nothing.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cli/scenario_registry.h"
#include "src/machine/engine.h"
#include "src/machine/faults.h"
#include "src/sim/audit.h"
#include "src/workload/memcached.h"

namespace dprof {
namespace {

RunSpec SmallSpec(const std::string& seams) {
  RunSpec spec;
  spec.cores = 4;
  spec.seed = 1;
  spec.collect_cycles = 1'500'000;
  spec.collect_histories = false;
  spec.build_view_json = true;
  spec.fault_seams = seams;
  return spec;
}

std::string RunJson(const RunSpec& spec, const std::string& scenario = "memcached") {
  return ScenarioReportToJson(RunScenario(ScenarioRegistry::Default(), scenario, spec));
}

TEST(FaultPlanTest, SeamListParsing) {
  uint32_t mask = 0;
  std::string error;
  ASSERT_TRUE(ParseFaultSeamList("slab_grow,lane_drop", &mask, &error));
  EXPECT_EQ(mask, (1u << static_cast<int>(FaultSeam::kSlabGrow)) |
                      (1u << static_cast<int>(FaultSeam::kLaneDrop)));
  ASSERT_TRUE(ParseFaultSeamList("all", &mask, &error));
  EXPECT_EQ(mask, (1u << kNumFaultSeams) - 1);
  EXPECT_FALSE(ParseFaultSeamList("bogus_seam", &mask, &error));
  EXPECT_NE(error.find("bogus_seam"), std::string::npos);
  EXPECT_FALSE(ParseFaultSeamList("", &mask, &error));
}

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeedAndCoordinates) {
  FaultPlanConfig config;
  config.enabled_mask = ~0u;
  FaultPlan a(config);
  FaultPlan b(config);
  for (int core = 0; core < 8; ++core) {
    for (uint64_t i = 0; i < 200; ++i) {
      EXPECT_EQ(a.SlabGrowFails(core, i), b.SlabGrowFails(core, i));
      EXPECT_EQ(a.LaneFaultFor(core, i * 37, 0x1000 + i * 64),
                b.LaneFaultFor(core, i * 37, 0x1000 + i * 64));
      EXPECT_EQ(a.ClockSkew(core, i), b.ClockSkew(core, i));
    }
  }
  FaultPlanConfig other = config;
  other.seed = config.seed + 1;
  FaultPlan c(other);
  int differs = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    differs += a.ClockSkew(0, i) != c.ClockSkew(0, i) ? 1 : 0;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, SeamDecisionsRespectEnabledMask) {
  FaultPlan off(FaultPlanConfig{});
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(off.SlabGrowFails(0, i));
    EXPECT_EQ(off.LaneFaultFor(0, i, 0x40 * i), LaneFault::kNone);
    EXPECT_EQ(off.ClockSkew(0, i), 0u);
    EXPECT_FALSE(off.StallsEpoch(i));
    EXPECT_EQ(off.CorruptionAtAudit(i), -1);
  }
  EXPECT_EQ(off.MailboxCap(), ~0u);
}

// Every recoverable seam surfaces in the report: a faulted run carries the
// "faults" accounting block.
TEST(FaultPlanTest, FaultedRunsReportTheirSeams) {
  for (const char* seams :
       {"slab_grow", "lane_drop,lane_dup", "clock_skew", "mailbox_overflow"}) {
    const std::string json = RunJson(SmallSpec(seams));
    EXPECT_NE(json.find("\"faults\""), std::string::npos) << seams;
  }
}

// Healthy runs with auditing on are the same bytes as runs without: auditing
// only reads, and its schedule rides the deterministic epoch ordinals.
TEST(AuditTest, HealthyAuditedRunIsByteIdentical) {
  RunSpec spec = SmallSpec("");
  const std::string plain = RunJson(spec);
  spec.audit_epochs = 8;
  const std::string audited = RunJson(spec);
  EXPECT_EQ(plain, audited);
  EXPECT_EQ(plain.find("\"error\""), std::string::npos);
}

// Build a small live rig, run it long enough to populate the lattice, then
// corrupt it one kind at a time: the auditor must flag every kind.
TEST(AuditTest, AuditorDetectsEveryCorruptionKind) {
  for (int kind = 0; kind < CacheHierarchy::kNumLatticeFaultKinds; ++kind) {
    RunSpec spec = SmallSpec("");
    if (kind == 6) {
      // Wrong-home corruption only exists on a multi-socket topology.
      spec.topology = "paper-amd";
    }
    auto rig = MakeBaseRig(spec);
    rig->workload = std::make_unique<MemcachedWorkload>(rig->env.get(), MemcachedConfig{});
    rig->workload->Install(*rig->machine);
    Engine engine(rig->machine.get(), EngineConfig{});
    rig->machine->SetExecutor(&engine);
    rig->machine->RunFor(400'000);

    InvariantAuditor auditor(&rig->machine->hierarchy());
    const AuditResult clean = auditor.Audit();
    EXPECT_TRUE(clean.ok()) << "kind " << kind << " pre-corruption: "
                            << (clean.violations.empty() ? "" : clean.violations[0]);
    ASSERT_TRUE(rig->machine->hierarchy().InjectLatticeFault(kind))
        << "kind " << kind << " found nothing to corrupt";
    const AuditResult corrupted = auditor.Audit();
    EXPECT_FALSE(corrupted.ok()) << "kind " << kind << " went undetected";
    rig->machine->SetExecutor(nullptr);
  }
}

// End to end: the lattice_corrupt seam corrupts between audits, and the run
// ends in a structured data_loss diagnostic instead of a crash.
TEST(AuditTest, InjectedCorruptionEndsRunInDataLossDiagnostic) {
  RunSpec spec = SmallSpec("lattice_corrupt");
  spec.audit_epochs = 16;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.status.seam(), "audit");
  EXPECT_GE(report.audits_run, 1u);
}

TEST(WatchdogTest, StallBecomesDeadlineDiagnostic) {
  RunSpec spec = SmallSpec("epoch_stall");
  spec.watchdog_stall_epochs = 32;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.status.seam(), "watchdog");
  // The diagnostic document renders the error block.
  const std::string json = ScenarioReportToJson(report);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("deadline_exceeded"), std::string::npos);
}

// With a short phase 1 the stall lands in phase 2's history collection: the
// dead engine runs no more epochs, and the slice loop must end there instead
// of waiting for a deadline the clock never reaches.
TEST(WatchdogTest, StallDuringHistoryPhaseEndsTheRun) {
  RunSpec spec = SmallSpec("epoch_stall");
  spec.collect_cycles = 1'000'000;
  spec.collect_histories = true;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.status.seam(), "watchdog");
}

TEST(FaultPlanTest, SlabGrowFaultsRecoverAndRunStaysHealthy) {
  RunSpec spec = SmallSpec("slab_grow");
  spec.audit_epochs = 16;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_EQ(report.fault_seams.size(), 1u);
  EXPECT_GT(report.fault_seams[0].injected, 0u);
  EXPECT_EQ(report.fault_seams[0].injected, report.fault_seams[0].recovered);
}

TEST(FaultPlanTest, MailboxOverflowDropsAreCountedNotFatal) {
  RunSpec spec = SmallSpec("mailbox_overflow");
  // Queue depth only reaches the injected cap with enough producer cores
  // spreading packets over the hashed-queue bug path; 4 cores drain too
  // fast to ever exceed it.
  spec.cores = 8;
  spec.collect_cycles = 3'000'000;
  spec.audit_epochs = 16;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.mailbox_dropped, 0u);
  ASSERT_EQ(report.fault_seams.size(), 1u);
  EXPECT_EQ(report.fault_seams[0].injected, report.mailbox_dropped);
}

// Ext-bank pressure shrinks the directory extension bank to one way: the
// hierarchy must absorb it with reclaims/back-invalidations (not corruption:
// the periodic audit stays clean).
TEST(FaultPlanTest, ExtBankPressureStormsStayAuditClean) {
  RunSpec spec = SmallSpec("ext_pressure");
  spec.audit_epochs = 16;
  const ScenarioReport report = RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.hierarchy.tag_reclaims, 0u);
}

// The sampled-mode honesty self-check: injected schedule jitter starves the
// detailed windows; the controller must degrade (widen, then exact fallback)
// rather than report dishonest intervals — and say so in the report.
TEST(DegradeTest, WindowJitterTriggersHonestyDegradation) {
  RunSpec spec = SmallSpec("window_jitter");
  spec.sampled = true;
  spec.sampling_period = 150'000;
  spec.sampling_window = 8'000;
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), "memcached", spec);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.sampling_violations, 0u);
  const std::string json = ScenarioReportToJson(report);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
}

TEST(ValidateRunSpecTest, CoversTheRealCoreLimit) {
  RunSpec spec;
  // Passes the old CLI's [1, 4096] check, aborted the rig before validation
  // moved to the real engine limit.
  spec.cores = Engine::kMaxCores + 1;
  const std::string error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--cores"), std::string::npos);
  EXPECT_NE(error.find(std::to_string(Engine::kMaxCores)), std::string::npos);
  spec.cores = Engine::kMaxCores;
  EXPECT_EQ(ValidateRunSpec(spec), "");
}

TEST(ValidateRunSpecTest, RejectsInconsistentAndMalformedFields) {
  RunSpec spec;
  spec.sampling_period = 1000;  // sampling flags without --sampled
  EXPECT_NE(ValidateRunSpec(spec).find("--sampled"), std::string::npos);
  spec = RunSpec{};
  spec.sampled = true;
  spec.sampling_period = 1000;
  spec.sampling_window = 2000;
  EXPECT_NE(ValidateRunSpec(spec).find("--sampling-window"), std::string::npos);
  spec = RunSpec{};
  spec.fault_seams = "no_such_seam";
  EXPECT_NE(ValidateRunSpec(spec).find("no_such_seam"), std::string::npos);
  spec = RunSpec{};
  spec.fault_seed = 7;  // a fault seed without --fault would be ignored
  std::string error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--fault-seed"), std::string::npos) << error;
  EXPECT_NE(error.find("add --fault"), std::string::npos) << error;
  spec.fault_seams = "all";
  EXPECT_EQ(ValidateRunSpec(spec), "");
  spec = RunSpec{};
  spec.threads = 4096;
  EXPECT_NE(ValidateRunSpec(spec).find("--threads"), std::string::npos);
  EXPECT_EQ(ValidateRunSpec(RunSpec{}), "");
}

TEST(ValidateRunSpecTest, SamplingErrorsNameTheRealFlags) {
  // The CLI flags are --sampling-period/--sampling-window; an error naming
  // --period/--window points the user at flags that do not exist.
  RunSpec spec;
  spec.sampling_period = 1000;
  std::string error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--sampling-period/--sampling-window"), std::string::npos) << error;
  EXPECT_EQ(error.find(" --period"), std::string::npos) << error;
  spec = RunSpec{};
  spec.sampled = true;
  spec.sampling_period = 1000;
  spec.sampling_window = 2000;
  error = ValidateRunSpec(spec);
  EXPECT_EQ(error.rfind("--sampling-window (2000)", 0), 0u) << error;
  EXPECT_NE(error.find("--sampling-period (1000)"), std::string::npos) << error;
  // Without --sampling-period the window is checked against the default
  // period, which the message names.
  spec.sampling_period = 0;
  spec.sampling_window = 500'000;
  error = ValidateRunSpec(spec);
  EXPECT_EQ(error.rfind("--sampling-window (500000)", 0), 0u) << error;
  EXPECT_NE(error.find("--sampling-period (" +
                       std::to_string(SamplingConfig().period_cycles) + ", the default)"),
            std::string::npos)
      << error;
  // And a period below the default window.
  spec.sampling_period = 10'000;
  spec.sampling_window = 0;
  error = ValidateRunSpec(spec);
  EXPECT_EQ(error.rfind("--sampling-window (" + std::to_string(SamplingConfig().window_cycles) +
                            ", the default)",
                        0),
            0u)
      << error;
  EXPECT_NE(error.find("--sampling-period (10000)"), std::string::npos) << error;
  // A window equal to the period leaves nothing to fast-forward: rejected
  // against an explicit period and against the default one.
  spec.sampling_period = 30'000;
  spec.sampling_window = 30'000;
  error = ValidateRunSpec(spec);
  EXPECT_EQ(error.rfind("--sampling-window (30000)", 0), 0u) << error;
  EXPECT_NE(error.find("--sampling-period (30000)"), std::string::npos) << error;
  spec.sampling_period = 0;
  spec.sampling_window = SamplingConfig().period_cycles;
  error = ValidateRunSpec(spec);
  EXPECT_EQ(error.rfind("--sampling-window (" + std::to_string(SamplingConfig().period_cycles) +
                            ")",
                        0),
            0u)
      << error;
  EXPECT_NE(error.find("--sampling-period (" +
                       std::to_string(SamplingConfig().period_cycles) + ", the default)"),
            std::string::npos)
      << error;
  // One cycle short of the period passes.
  spec.sampling_window = SamplingConfig().period_cycles - 1;
  EXPECT_EQ(ValidateRunSpec(spec), "");
}

// The legacy loop builds no engine, so engine-only options would be silently
// ignored: `--legacy-loop --sampled` used to print an exact report with no
// sampling block.
TEST(ValidateRunSpecTest, LegacyLoopRejectsEngineOnlyFlags) {
  RunSpec spec;
  spec.use_engine = false;
  EXPECT_EQ(ValidateRunSpec(spec), "");
  spec.sampled = true;
  std::string error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--sampled"), std::string::npos) << error;
  EXPECT_NE(error.find("--legacy-loop"), std::string::npos) << error;
  spec = RunSpec{};
  spec.use_engine = false;
  spec.audit_epochs = 4;
  error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--audit"), std::string::npos) << error;
  EXPECT_NE(error.find("--legacy-loop"), std::string::npos) << error;
  spec = RunSpec{};
  spec.use_engine = false;
  spec.watchdog_stall_epochs = 8;
  EXPECT_NE(ValidateRunSpec(spec).find("--watchdog"), std::string::npos);
  spec = RunSpec{};
  spec.use_engine = false;
  spec.watchdog_wall_seconds = 10.0;
  EXPECT_NE(ValidateRunSpec(spec).find("--watchdog"), std::string::npos);
  // The direct loop has no engine-side seams; faults need the engine.
  spec = RunSpec{};
  spec.use_engine = false;
  spec.fault_seams = "lane_drop";
  error = ValidateRunSpec(spec);
  EXPECT_NE(error.find("--fault"), std::string::npos) << error;
  EXPECT_NE(error.find("--legacy-loop"), std::string::npos) << error;
}

}  // namespace
}  // namespace dprof
