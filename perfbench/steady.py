#!/usr/bin/env python3
"""Steadiness sets, the steadiness report and reference digests for perfbench.

Run from the root of a dprof checkout:

    # one set: every workload once per seed, untraced, appended as JSON lines
    python3 perfbench/steady.py set --out perfbench/results/set-a.jsonl --seeds 1-10

    # per metric x workload: each set's median and IQR, the shift between the
    # sets, and beside it the host probe's shift between the same sets
    python3 perfbench/steady.py report perfbench/results/set-a.jsonl perfbench/results/set-b.jsonl

    # record reference digests: each seed's operation on the workload's host
    # threads and on one host thread must agree before it is recorded
    python3 perfbench/steady.py record --seeds 0-20

A spread is the distance between the first and third quartile of a set's
run medians (statistics.quantiles(values, n=4)) as a share of their median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

METRICS = list(bench.END_TO_END)
# Unscaled medians of each run's operation times (not gated; see run.py).
RAW = {"raw_wall_s": "raw_walls", "raw_cpu_s": "raw_cpus"}


def value(row, metric):
    if metric in RAW:
        return statistics.median(row["detail"][RAW[metric]])
    return row["result"]["metrics"][metric]["value"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bounds():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def cmd_set(args):
    workloads = args.workloads.split(",") if args.workloads else list(bench.WORKLOADS)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench.ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"steady: {' '.join(cmd)} failed:\n{proc.stderr}")
            row = {"workload": workload, "seed": seed, **json.loads(lines[-2]),
                   "result": json.loads(lines[-1])}
            with out.open("a") as f:
                f.write(json.dumps(row) + "\n")
            values = {k: round(v["value"], 4) for k, v in row["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={row['result']['correct']} "
                  f"probe={row['detail']['probe_s']:.4f} {values}", flush=True)


def load_set(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def summary(values):
    """(median, IQR as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_report(args):
    sets = [load_set(p) for p in args.sets]
    limits = bounds()
    head = f"{'workload':<19} {'metric':<12}"
    for i in range(len(sets)):
        head += f" {'median' + str(i + 1):>11} {'iqr' + str(i + 1):>7}"
    head += f" {'shift':>7} {'bound':>6} {'probe shift':>11}"
    print(head)
    verdict = True
    for workload in bench.WORKLOADS:
        if not all(workload in s for s in sets):
            continue
        probes = [statistics.median([r["detail"]["probe_s"] for r in s[workload]])
                  for s in sets]
        failed = sum(r["result"]["failed"] for s in sets for r in s[workload])
        for metric in METRICS + list(RAW):
            line = f"{workload:<19} {metric:<12}"
            medians = []
            for s in sets:
                med, iqr = summary([value(r, metric) for r in s[workload]])
                medians.append(med)
                line += f" {med:>11.5g} {iqr:>7.2%}"
                if metric in limits and metric != "setup_s" and iqr >= limits[metric]:
                    verdict = False
            shift = medians[-1] / medians[0] - 1
            if shift > limits.get(metric, float("inf")):
                verdict = False
            bound = f"{limits[metric]:>6.0%}" if metric in limits else f"{'-':>6}"
            line += f" {shift:>+7.2%} {bound} {probes[-1] / probes[0] - 1:>+11.2%}"
            print(line)
        print(f"{workload:<19} {'probe_s':<12}" +
              "".join(f" {p:>11.5g} {'':>7}" for p in probes) +
              f"   failed operations: {failed}")
    print("within bounds" if verdict else "OUT OF BOUNDS")
    return 0 if verdict else 1


def cmd_record(args):
    bench.build()
    reference = bench.load_reference()
    for seed in parse_seeds(args.seeds):
        for workload, threads in bench.WORKLOADS.items():
            op = bench.run_op(workload, seed, "run")
            twin = bench.run_op(workload, seed, "twin") if threads > 1 else op
            if not (op and twin and op["ok"] and twin["ok"] and op["digest"] == twin["digest"]):
                sys.exit(f"steady: {workload} seed {seed}: operation and its 1-thread twin "
                         "disagree or failed; nothing recorded")
            reference.setdefault(workload, {})[str(seed)] = op["digest"]
            bench.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {op['digest']}", flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("set", help="run one steadiness set")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((bench.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--workloads", help="comma-separated; default all")
    p = sub.add_parser("report", help="compare steadiness sets")
    p.add_argument("sets", nargs="+")
    p = sub.add_parser("record", help="record reference digests")
    p.add_argument("--seeds", default="1")
    args = parser.parse_args()
    return {"set": cmd_set, "report": cmd_report, "record": cmd_record}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
