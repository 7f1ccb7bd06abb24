#!/usr/bin/env python3
"""The dprof benchmark: builds the operation runner and measures one workload.

Run from the root of a dprof checkout:

    python3 perfbench/run.py --workload memcached-t1 --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/ (and through it the dprof
layer libraries) into .bench_build/. Each operation then runs in its own
perfbench_op process, which times the operation between two host-speed probes.
The run:

  * times SETUP_REPS rig set-ups in one process and reports their median;
  * runs the workload's operation back to back until --seconds have passed
    (at least once) and reports the medians;
  * gates every operation's simulated-results digest against the reference
    digest recorded for the seed (perfbench/reference.json), or, for a seed
    without one, against the first operation's digest and a 1-host-thread
    twin of the operation;
  * with --trace 1, also runs the operation once outside-in with spans and
    reports the per-layer metrics instead of the end-to-end ones.

Spans from every process go to .bench_runs/trace-<workload>-seed<seed>.json
(Chrome trace-event JSON; open it in Perfetto). The last stdout line is the
result object; the line before it carries per-operation detail.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNS = ROOT / ".bench_runs"
OP = BUILD / "perfbench_op"
REFERENCE = HERE / "reference.json"

# Host threads each workload's operation uses (its 1-thread twin uses 1).
WORKLOADS = {"memcached-t1": 1, "whatif-sampled-t2": 2}
SETUP_REPS = 31
# The host probe's time at the reference host speed. wall_s and cpu_s are
# reported at this speed: an operation's wall (CPU) time is scaled by
# PROBE_REF_S over its own probe's wall (CPU) time (see host_factor and
# README.md, "Host noise").
PROBE_REF_S = 0.30
# Every process of a run (after the build) must end within this many seconds.
RUN_DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics the traced operation reports (see perfbench_op), then
# the ones this script derives.
TRACED_LAYERS = {
    "rig.factory_s": "s", "rig.install_s": "s", "rig.engine_s": "s",
    "session.phase1_s": "s", "session.phase2_s": "s", "session.views_s": "s",
    "session.ibs_samples": "count",
    "engine.simulate_s": "s", "engine.apply_s": "s", "engine.commit_s": "s",
    "engine.other_s": "s", "engine.epochs": "count",
    "engine.elided_epochs": "count", "engine.ff_epochs": "count", "engine.us_per_epoch": "us",
    "sim.accesses": "count", "sim.apply_ns_per_access": "ns", "sim.maccess_per_host_s": "M/s",
    "sim.l1_miss_rate": "ratio", "sim.invalidation_misses": "count",
    "sim.back_invalidations": "count",
    "sampling.measured_accesses": "count", "sampling.ff_accesses": "count",
    "sampling.ff_share": "ratio",
}
DERIVED_LAYERS = {
    "whatif.experiments": "count", "whatif.s_per_experiment": "s", "whatif.cpu_util": "ratio",
    "host.probe_s": "s", "host.raw_wall_s": "s", "host.raw_cpu_s": "s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {**TRACED_LAYERS, **DERIVED_LAYERS}


class BenchError(Exception):
    """The benchmark itself could not run (no sources, build failure)."""


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no dprof sources at {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    make = ["cmake", "--build", str(BUILD), "--target", "perfbench_op", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_op(workload, seed, mode, *extra, deadline=None):
    """Runs one perfbench_op process; returns its result, or None if it died
    or did not finish by `deadline` (a time.monotonic() value)."""
    cmd = [str(OP), workload, str(seed), mode, *extra]
    started = time.monotonic()
    timeout = None if deadline is None else deadline - started
    if timeout is not None and timeout <= 0:
        print(f"perfbench: no time left for {mode}", file=sys.stderr)
        return None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = [started, time.monotonic() - started]
    return result


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def expected_digest(reference, workload, seed, results):
    """The digest every operation must reproduce: the recorded reference for
    the seed, else the first operation's."""
    recorded = reference.get(workload, {}).get(str(seed))
    if recorded:
        return recorded
    return next((r["digest"] for r in results if r), None)


def gate(results, expected):
    """Counts (attempted, failed) experiments; a dead process, a status that is
    not ok, or a digest other than `expected` fails the whole operation."""
    attempted = failed = 0
    for r in results:
        n = r["experiments"] if r else 1
        attempted += n
        if r is None or not r["ok"] or r["digest"] != expected:
            failed += n
    return attempted, failed


def host_factor(r, clock="wall"):
    """How much slower than the reference speed the host ran one process: the
    geometric mean of the probe's `clock` ("wall" or "cpu") times right
    before and right after its action, over PROBE_REF_S."""
    before, after = r["probe"][clock]
    return math.sqrt(before * after) / PROBE_REF_S


def median(values):
    return statistics.median(values) if values else 0.0


def write_trace(workload, seed, processes):
    """Writes every process's spans as Chrome trace events, one pid per
    process, to .bench_runs/trace-<workload>-seed<seed>.json."""
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    events = []
    for pid, r in enumerate(processes, start=1):
        if r is None:
            continue
        label = f"{r['mode']} #{pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        spans = [{"cat": "bench", "name": f"perfbench_op {r['mode']}",
                  "start_s": r["process_s"][0], "dur_s": r["process_s"][1]}] + r["spans"]
        for s in spans:
            events.append({"ph": "X", "cat": s["cat"], "name": s["name"], "pid": pid, "tid": 0,
                           "ts": s["start_s"] * 1e6, "dur": s["dur_s"] * 1e6,
                           "args": {"workload": workload, "run": run_id, "op": r["mode"]}})
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


def measure(workload, seed, seconds, trace, flip=False):
    """One benchmark run; returns (result object, detail object)."""
    extra = ["--flip-counter"] if flip else []
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = run_op(workload, seed, "setup", str(SETUP_REPS), deadline=deadline)
    ops = []
    started = time.monotonic()
    while not ops or (time.monotonic() - started < seconds and ops[-1] is not None):
        ops.append(run_op(workload, seed, "run", *extra, deadline=deadline))
    reference = load_reference()
    expected = expected_digest(reference, workload, seed, ops)
    checked = list(ops)
    if str(seed) not in reference.get(workload, {}) and WORKLOADS[workload] > 1:
        checked.append(run_op(workload, seed, "twin", *extra, deadline=deadline))
    traced = run_op(workload, seed, "traced", *extra, deadline=deadline) if trace else None
    if trace:
        checked.append(traced)
    attempted, failed = gate(checked, expected)

    done = [r for r in ops if r]
    raw_walls = [r["wall_s"] for r in done]
    raw_cpus = [r["cpu_s"] for r in done]
    walls = [r["wall_s"] / host_factor(r) for r in done]
    cpus = [r["cpu_s"] / host_factor(r, "cpu") for r in done]
    processes = [setup] + checked
    probes = [host_factor(r) * PROBE_REF_S for r in processes if r]
    setups = setup["setup_s"] if setup else []
    if trace:
        threads = WORKLOADS[workload]
        experiments = done[0]["experiments"] if done else 1
        layers = dict(traced["layers"]) if traced else {}
        layers.update({
            "whatif.experiments": experiments,
            "whatif.s_per_experiment": median(walls) / experiments,
            "whatif.cpu_util": median(raw_cpus) / (median(raw_walls) * threads) if done else 0.0,
            "host.probe_s": median(probes),
            "host.raw_wall_s": median(raw_walls),
            "host.raw_cpu_s": median(raw_cpus),
            "trace.overhead_frac": traced["wall_s"] / host_factor(traced) / median(walls) - 1.0
            if traced and done else 0.0,
        })
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_kb"] / 1024.0 for r in done]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    trace_path = write_trace(workload, seed, processes)
    detail = {
        "workload": workload, "seed": seed, "expected_digest": expected,
        "digests": sorted({r["digest"] for r in checked if r}),
        "ops": len(ops), "raw_walls": raw_walls, "raw_cpus": raw_cpus, "walls": walls,
        "cpus": cpus, "setups": setups, "probes": probes,
        "probe_s": median(probes), "trace_file": str(trace_path.relative_to(ROOT)),
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-counter", action="store_true",
                        help="corrupt one simulated counter per operation (gate test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace,
                             args.flip_counter)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
