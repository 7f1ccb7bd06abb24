// Tag-lattice invariant auditing.
//
// An InvariantAuditor walks the hierarchy's private tag columns and the L3
// lattice (data ways + directory-extension bank) and verifies the structural
// invariants the simulator's correctness rests on:
//
//   - inclusion: every line a private L1/L2 holds has a lattice tag, and its
//     holder's bit is set in the embedded directory's sharer mask;
//   - exclusive-bit consistency: a private tag carrying kPrivExclBit belongs
//     to the directory's modified owner, and the directory's excl_levels
//     presence hint admits that level;
//   - directory sanity: owners are in range and inside their sharer sets,
//     sharer/invalidated masks never name nonexistent cores;
//   - extension-bank obligations: per-set tag counts match the tags actually
//     present, no set holds more live extension tags than the
//     l3_dir_ext_ways cap, live extension tags are plain line tags, and no
//     line is tagged twice in one set.
//
// The walk is read-only and allocation-light; with `dprof run --audit=N` the
// engine runs it between epochs every N epochs, so a clean audit
// changes no observable output (byte-identical JSON). Committed-clock
// monotonicity — the one invariant that lives in the engine, not the
// lattice — is checked at the same cadence by the engine itself.

#ifndef DPROF_SRC_SIM_AUDIT_H_
#define DPROF_SRC_SIM_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/hierarchy.h"

namespace dprof {

struct AuditResult {
  uint64_t tags_checked = 0;       // private + lattice tags visited
  uint64_t total_violations = 0;   // all violations found
  std::vector<std::string> violations;  // first kMaxMessages, human-readable

  bool ok() const { return total_violations == 0; }
};

class InvariantAuditor {
 public:
  // Messages kept per audit; the total count is always exact.
  static constexpr size_t kMaxMessages = 8;

  explicit InvariantAuditor(const CacheHierarchy* hierarchy)
      : hierarchy_(hierarchy) {}

  AuditResult Audit() const;

 private:
  const CacheHierarchy* hierarchy_;
};

}  // namespace dprof

#endif  // DPROF_SRC_SIM_AUDIT_H_
