#!/usr/bin/env python3
"""Compares two `dprof bench ... --json` documents (micro_costs, parallel_engine).

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.20]
                        [--only name1,name2]

Fails (exit 1) when any host-cost metric (unit ns/op, ns/access, or s)
regresses by more than the threshold relative to the baseline. With --only, only the listed
metrics are gate-eligible (the rest are informational) — used for benches
like parallel_engine where some timings (hardware-thread scaling on shared
runners) are too noisy to gate on. Simulated-cost-model constants (unit
"cycles") are reported but never fail the build: changing the model is a
reviewed decision, not a perf regression.
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc.get("metrics", [])}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20)
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated metric names eligible to fail the gate",
    )
    args = parser.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    only = {name for name in args.only.split(",") if name}

    # A gated metric the current run lacks must fail loudly, not pass
    # silently (renamed metric, misspelled gate name, truncated bench
    # output). A gated metric only the baseline lacks is a newly added row
    # (the merge base predates it) and gates from the next change on.
    missing = [name for name in sorted(only) if name not in cur]
    if missing:
        print(f"FAIL: gated metric(s) missing from current run: "
              f"{', '.join(missing)}")
        return 1

    failures = []
    for name, metric in sorted(cur.items()):
        if name not in base:
            print(f"  NEW    {name:40s} {metric['value']:.2f} {metric['unit']}")
            continue
        old = base[name]
        unit = metric.get("unit", "")
        if only and name not in only:
            print(
                f"  INFO       {name:40s} {old['value']:10.2f} -> "
                f"{metric['value']:10.2f} {unit}"
            )
            continue
        if unit in ("ns/op", "ns/access", "s") and old["value"] > 0:
            ratio = metric["value"] / old["value"]
            status = "OK"
            if ratio > 1.0 + args.threshold:
                status = "REGRESSION"
                failures.append(name)
            print(
                f"  {status:10s} {name:40s} {old['value']:10.2f} -> "
                f"{metric['value']:10.2f} {unit} ({ratio:.2f}x)"
            )
        else:
            changed = "changed" if metric["value"] != old["value"] else "same"
            print(
                f"  CONST-{changed:7s} {name:36s} {old['value']:.2f} -> "
                f"{metric['value']:.2f} {unit}"
            )

    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed more than "
              f"{args.threshold * 100:.0f}%: {', '.join(failures)}")
        return 1
    print("\nbench comparison passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
