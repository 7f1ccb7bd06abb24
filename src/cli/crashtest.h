// `dprof crashtest`: the robustness acceptance matrix.
//
// Runs every built-in scenario against every fault seam (scenarios x seams
// cells) with invariant auditing and the watchdog armed, and requires every
// cell to end in either a clean recovery (status ok, with the seam's
// injected/recovered counters proving it actually fired) or a structured
// diagnostic (the expected error code for seams whose whole point is to be
// *caught* — lattice corruption by the auditor, stalls by the watchdog).
// A crash, CHECK-abort, or hang anywhere in the matrix is the failure this
// command exists to catch; CI runs it under ASan.

#ifndef DPROF_SRC_CLI_CRASHTEST_H_
#define DPROF_SRC_CLI_CRASHTEST_H_

namespace dprof {

// Runs `dprof crashtest`, printing the matrix as text or, with `json`, as
// one JSON document. Returns 0 iff every cell ended in its expected outcome
// and every seam fired in at least one scenario.
int CmdCrashtest(bool json);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_CRASHTEST_H_
