#!/usr/bin/env python3
"""Compares two `dprof bench ... --json` documents (micro_costs, parallel_engine).

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.20]
                        [--only name1,name2] [--volatile-prefix prefix]

Fails (exit 1) when any host-cost metric (unit ns/op, ns/access, or s)
regresses by more than the threshold relative to the baseline. With --only, only the listed
metrics are gate-eligible (the rest are informational) — used for benches
like parallel_engine where some timings (hardware-thread scaling on shared
runners) are too noisy to gate on. Simulated-cost-model constants (unit
"cycles") are reported but never fail the build: changing the model is a
reviewed decision, not a perf regression.

Metrics matching --volatile-prefix (e.g. whatif_candidate_) are SKIPped,
never gated, and never treated as missing: the whatif bench names its rows
after whichever candidate fixes the profile ranked that release, so the row
set legitimately differs across baselines.
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
    parser.add_argument(
        "--volatile-prefix",
        default="",
        help="metric-name prefix whose rows are informational only and may "
        "appear on either side without failing (ranked whatif candidates)",
    )
    args = parser.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    only = {name for name in args.only.split(",") if name}

    def volatile(name):
        return bool(args.volatile_prefix) and name.startswith(args.volatile_prefix)

    # A gated metric the current run dropped must fail loudly, not pass
    # silently (renamed metric, truncated bench output). A gated metric the
    # *baseline* lacks is a newly added row (the merge base predates it) and
    # gates from the next change on. One absent from both sides is accepted
    # only when the bench says so itself — it must emit a matching
    # *_skipped_* annotation (e.g. <stem>_skipped_hw_too_small for
    # <stem>_seconds on a runner too small to time it); without one, a
    # misspelled gate name or a silently dropped row must still fail.
    def skip_annotated(name, metrics):
        stem = name[: -len("_seconds")] if name.endswith("_seconds") else name
        return any(m.startswith(stem + "_skipped") for m in metrics)

    missing = []
    for name in sorted(only):
        if name in cur or volatile(name):
            continue
        if name in base:
            missing.append(name)
        elif skip_annotated(name, cur):
            print(f"  SKIP       {name:40s} absent from baseline and current "
                  f"(bench annotated the skip on this host)")
        else:
            missing.append(name)
    if missing:
        print(f"FAIL: gated metric(s) missing from current run: "
              f"{', '.join(missing)}")
        return 1

    failures = []
    for name in sorted(base):
        if name not in cur and volatile(name):
            print(f"  SKIP       {name:40s} volatile row absent from current run")
    for name, metric in sorted(cur.items()):
        if volatile(name):
            side = "both runs" if name in base else "current run only"
            print(
                f"  SKIP       {name:40s} {metric['value']:10.2f} "
                f"{metric.get('unit', '')} (volatile, {side})"
            )
            continue
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
