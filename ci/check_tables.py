#!/usr/bin/env python3
"""Diffs `dprof bench table_*` reproductions against the paper's reference
numbers, with tolerances. Each spec reads the rows a reproduction emits as
`<view>.<row key>.<column>` metrics in its `--json` document.

Usage: check_tables.py --dprof ./build/dprof [--only name1,name2]

Each checked table has a spec below: the headline facts the reproduction must
preserve (which type tops the profile, bounce verdicts, how working sets and
latencies move between operating points), plus numeric values compared against
the paper's numbers (Pesterev 2010) within per-check tolerances. The
simulation is deterministic — fixed seeds, no host dependence — so tolerances
only absorb the model-vs-hardware distance, not run-to-run noise: a change
that walks a value outside its band has changed the reproduction itself.

Exit code 1 when any check fails; tables without a spec are not run.
"""

import argparse
import json
import subprocess
import sys


def view_rows(doc, view):
    """One view of a `dprof bench --json` document, in table row order:
    {row key: {column: value}} from the metrics named
    `<view>.<row key>.<column>` (row keys may hold dots; names split at the
    first and last one)."""
    rows = {}
    for metric in doc["metrics"]:
        name = metric["name"]
        first, last = name.find("."), name.rfind(".")
        if 0 < first < last and name[:first] == view:
            rows.setdefault(name[first + 1:last], {})[name[last + 1:]] = metric["value"]
    return rows


class Checker:
    def __init__(self, name):
        self.name = name
        self.failures = []
        self.passes = 0

    def check(self, label, ok, detail=""):
        if ok:
            self.passes += 1
            print(f"  OK    {label} {detail}")
        else:
            self.failures.append(label)
            print(f"  FAIL  {label} {detail}")

    def near(self, label, value, paper, tol):
        self.check(
            label,
            abs(value - paper) <= tol,
            f"(got {value:.2f}, paper {paper:.2f}, tol ±{tol:.2f})",
        )


def top_row(rows, column):
    """The row key with the largest `column` value (the table's leader)."""
    return max(rows, key=lambda key: rows[key][column])


def check_table_6_1(doc, c):
    """Memcached profile: size-1024 payloads dominate and bounce."""
    rows = view_rows(doc, "profile")
    c.check("profile parsed", len(rows) >= 5, f"({len(rows)} rows)")
    if not rows:
        return
    top = top_row(rows, "miss_pct")
    c.check("size-1024 tops the profile", top == "size-1024", f"(top: {top})")
    # Paper: 45.40% of all L1 misses; tolerance covers the model distance.
    c.near("size-1024 miss share", rows[top]["miss_pct"], 45.40, 16.0)
    for name in ("size-1024", "slab", "net_device", "udp_sock", "skbuff"):
        if name in rows:
            c.check(f"{name} bounces", rows[name]["bounce"] == 1)
    # Paper: the listed types cover ~80% of all misses.
    total = sum(r["miss_pct"] for r in rows.values())
    c.near("top types' combined miss share", total, 81.86, 16.0)


def check_table_6_2(doc, c):
    """Lock-stat under memcached: the Qdisc lock leads, epoll close behind."""
    rows = view_rows(doc, "locks")
    c.check("lock table parsed", len(rows) >= 3, f"({len(rows)} rows)")
    if not rows:
        return
    top = top_row(rows, "overhead_pct")
    c.check("Qdisc lock has the highest overhead", top == "Qdisc lock", f"(top: {top})")
    # Paper: 4.04% — the simulated machine is smaller, so the band is wide,
    # but the lock must stay materially contended.
    c.near("Qdisc lock overhead pct", rows[top]["overhead_pct"], 4.04, 3.5)
    c.check("epoll lock contended", "epoll lock" in rows)


def check_table_6_4_6_5(doc, c):
    """Apache peak vs drop-off: tcp_sock working set and latency blow up."""
    peak = view_rows(doc, "peak")
    drop = view_rows(doc, "dropoff")
    c.check("peak profile parsed", len(peak) >= 4)
    c.check("drop-off profile parsed", len(drop) >= 4)
    if not peak or not drop:
        return
    peak_top = top_row(peak, "miss_pct")
    drop_top = top_row(drop, "miss_pct")
    c.check("tcp_sock tops the peak profile", peak_top == "tcp_sock")
    c.check("tcp_sock tops the drop-off profile", drop_top == "tcp_sock")
    ws_ratio = drop[drop_top]["ws_bytes"] / max(peak[peak_top]["ws_bytes"], 1.0)
    c.check("tcp_sock working set grows at drop-off", ws_ratio > 1.5,
            f"({ws_ratio:.1f}x; paper 10.4x)")
    latency = view_rows(doc, "differential").get("sock_latency")
    c.check("latency line parsed", latency is not None)
    if latency:
        lat_ratio = latency["dropoff_cycles"] / max(latency["peak_cycles"], 1)
        c.check("tcp_sock miss latency grows at drop-off", lat_ratio > 1.2,
                f"({lat_ratio:.1f}x; paper 3x)")


def check_table_6_3(doc, c):
    """OProfile-style memcached profile: flat, driver-heavy, and — the paper's
    point — the tx-queue bug's functions sit mid-table, not on top."""
    rows = view_rows(doc, "functions")
    c.check("function table parsed", len(rows) >= 15, f"({len(rows)} rows)")
    if not rows:
        return
    clk = [r["clk_pct"] for r in rows.values()]
    c.check("rows sorted by % CLK",
            all(clk[i] >= clk[i + 1] for i in range(len(clk) - 1)))
    names = list(rows)
    # Paper's top five (4.4% kfree .. 3.0% kmem_cache_free) is driver and
    # allocator code; the reproduction must keep those families prominent.
    for fn in ("ixgbe_xmit_frame", "ixgbe_clean_rx_irq", "kmem_cache_free"):
        c.check(f"{fn} in the profile", fn in names)
    # Paper: 29 functions above 1% CLK — a flat profile with no smoking gun.
    above = view_rows(doc, "summary").get("above_1pct_clk")
    c.check("above-1% summary line parsed", above is not None)
    if above:
        c.near("functions above 1% CLK", above["functions"], 29.0, 15.0)
    # The diagnosis DProf makes (skb_tx_hash queue selection) is invisible
    # here: dev_queue_xmit must be present but must not top the table.
    c.check("dev_queue_xmit present mid-table", "dev_queue_xmit" in names)
    if "dev_queue_xmit" in names:
        c.check("dev_queue_xmit not in the top 3",
                names.index("dev_queue_xmit") >= 3,
                f"(rank {names.index('dev_queue_xmit') + 1})")


def check_table_6_6(doc, c):
    """Lock-stat under Apache at drop-off: futex dominates, Qdisc is quiet
    (all Apache handling is core-local, unlike the memcached tx path)."""
    rows = view_rows(doc, "locks")
    c.check("lock table parsed", len(rows) >= 2, f"({len(rows)} rows)")
    if not rows:
        return
    top = top_row(rows, "overhead_pct")
    c.check("futex lock has the highest overhead", top == "futex lock", f"(top: {top})")
    # Paper: 6.6% over a 30s hardware run. The simulated run is far shorter
    # and the model distance is large, so the band is wide — but futex must
    # stay materially contended.
    c.near("futex lock overhead pct", rows[top]["overhead_pct"], 6.6, 15.0)
    if "Qdisc lock" in rows:
        c.check("Qdisc lock quiet under Apache",
                rows["Qdisc lock"]["overhead_pct"] < 1.0,
                f"({rows['Qdisc lock']['overhead_pct']:.2f}%)")


def apache_types(rows):
    """Data types of the Apache rows of a `<benchmark>/<type>`-keyed view."""
    return {key.partition("/")[2] for key in rows if key.startswith("Apache/")}


def check_table_6_7(doc, c):
    """History collection: every tracked type yields histories, and the
    paper's conclusion — collection overhead stays small (its worst row is
    16%) — holds for the reproduction."""
    rows = view_rows(doc, "history")
    c.check("history table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    for key, r in rows.items():
        c.check(f"{key} collected histories",
                r["histories"] >= 8, f"({r['histories']:.0f})")
    worst = max(r["overhead_pct"] for r in rows.values())
    c.check("collection overhead stays small", worst <= 25.0,
            f"(worst {worst:.1f}%; paper worst 16%)")
    c.check("Apache tracks tcp_sock", "tcp_sock" in apache_types(rows))


def check_table_6_8(doc, c):
    """History collection rates on the paper topology: every tracked type
    sustains a nonzero rate, and — the paper's standout row — skbuff_fclone
    is Apache's fastest collector (4600 histories/s in Table 6.8)."""
    rows = view_rows(doc, "rates")
    c.check("rate table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    for key, r in rows.items():
        c.check(f"{key} sustains collection",
                r["histories_per_s"] > 0 and r["elems_per_s"] > 0,
                f"({r['histories_per_s']:.0f}/s)")
    apache = {key: r for key, r in rows.items() if key.startswith("Apache/")}
    if apache:
        fastest = top_row(apache, "histories_per_s").partition("/")[2]
        c.check("skbuff_fclone fastest Apache collector",
                fastest == "skbuff_fclone", f"(fastest: {fastest})")
    c.check("Apache tracks tcp_sock", "tcp_sock" in apache_types(rows))


def check_table_6_9(doc, c):
    """Overhead breakdown: the three cost classes partition each row, setup
    broadcasts (communication) dominate skbuff_fclone as in the paper, and
    memory reservations never lead (paper worst: 10%)."""
    rows = view_rows(doc, "breakdown")
    c.check("breakdown table parsed", len(rows) == 4, f"({len(rows)} rows)")
    if not rows:
        return
    for key, r in rows.items():
        total = r["interrupts_pct"] + r["memory_pct"] + r["communication_pct"]
        c.check(f"{key} percents partition the cost", abs(total - 100) <= 2,
                f"(sum {total:.0f}%)")
        c.check(f"{key} memory share stays minor", r["memory_pct"] <= 25,
                f"({r['memory_pct']:.0f}%)")
    if "skbuff_fclone" in rows:
        c.near("skbuff_fclone communication share",
               rows["skbuff_fclone"]["communication_pct"], 90.0, 15.0)


def check_table_6_10(doc, c):
    """Pairwise sampling: object sizes match the paper's, every sweep yields
    histories, and the paper's conclusion — overhead stays tolerable (its
    worst row is 18%) — holds."""
    rows = view_rows(doc, "pairwise")
    c.check("pairwise table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    paper_sizes = {"size-1024": 1024, "skbuff": 256, "skbuff_fclone": 512,
                   "tcp_sock": 1600}
    for key, r in rows.items():
        c.check(f"{key} object size matches paper",
                r["size"] == paper_sizes.get(key.partition("/")[2]),
                f"({r['size']:.0f}B)")
        c.check(f"{key} pairwise sweep collected",
                r["histories"] > 0 and r["sets"] >= 1,
                f"({r['histories']:.0f}/{r['sets']:.0f})")
    worst = max(r["overhead_pct"] for r in rows.values())
    c.check("pairwise overhead stays tolerable", worst <= 20.0,
            f"(worst {worst:.1f}%; paper worst 18%)")


SPECS = {
    "table_6_1_memcached_profile": check_table_6_1,
    "table_6_2_lockstat_memcached": check_table_6_2,
    "table_6_3_oprofile_memcached": check_table_6_3,
    "table_6_4_6_5_apache_profile": check_table_6_4_6_5,
    "table_6_6_lockstat_apache": check_table_6_6,
    "table_6_7_history_collection": check_table_6_7,
    "table_6_8_history_rates": check_table_6_8,
    "table_6_9_overhead_breakdown": check_table_6_9,
    "table_6_10_pairwise": check_table_6_10,
}


def check_sampled_scenario(dprof, c, scenario, expected_top):
    """The sampled-mode run (statistical fast-forward) must reproduce the
    exact run's data-profile conclusions: same dominant type, and every
    reported per-type confidence interval covers the exact-mode share. The
    tolerances are the intervals themselves — sampling widens them, it must
    not move the conclusions."""
    base = [dprof, "run", scenario, "--json", "--cycles", "10000000"]
    exact_proc = subprocess.run(base, capture_output=True, text=True)
    sampled_proc = subprocess.run(base + ["--sampled"], capture_output=True, text=True)
    c.check("exact run succeeded", exact_proc.returncode == 0)
    c.check("sampled run succeeded", sampled_proc.returncode == 0)
    if exact_proc.returncode != 0 or sampled_proc.returncode != 0:
        return
    exact = json.loads(exact_proc.stdout)
    sampled = json.loads(sampled_proc.stdout)
    s = sampled.get("sampling", {})
    c.check("sampling block present", s.get("enabled") is True)
    # FF epochs are coarse (ff_epoch_cycles) while detailed ones stay short,
    # so compare work, not epoch counts: most accesses must be fast-forwarded.
    c.check("run mostly fast-forwarded", s.get("scale", 0) >= 2.0,
            f"(scale {s.get('scale', 0):.1f}x, ff_epochs {s.get('ff_epochs')})")
    ex_rows = exact.get("profile", [])
    sa_rows = sampled.get("profile", [])
    c.check("profiles non-empty", bool(ex_rows) and bool(sa_rows))
    if not ex_rows or not sa_rows:
        return
    top = expected_top if expected_top else ex_rows[0]["type"]
    c.check(f"{top} tops both profiles",
            ex_rows[0]["type"] == sa_rows[0]["type"] == top,
            f"(exact: {ex_rows[0]['type']}, sampled: {sa_rows[0]['type']})")
    ex_by = {r["type"]: r["miss_pct"] for r in ex_rows}
    types = s.get("types", [])
    c.check("per-type intervals reported", len(types) >= 5, f"({len(types)})")
    shared = [t for t in types if t["type"] in ex_by]
    covered = [t for t in shared if t["ci_lo"] <= ex_by[t["type"]] <= t["ci_hi"]]
    c.check("intervals cover exact shares", len(covered) == len(shared),
            f"({len(covered)}/{len(shared)})")
    mr = s.get("l1_miss_rate", {})
    h = exact.get("hierarchy", {})
    if h.get("accesses"):
        exact_mr = 100.0 * h["l1_misses"] / h["accesses"]
        c.check("miss-rate interval covers exact rate",
                mr.get("ci_lo", 0) <= exact_mr <= mr.get("ci_hi", 100),
                f"(exact {exact_mr:.1f}%, ci [{mr.get('ci_lo', 0):.1f}, "
                f"{mr.get('ci_hi', 100):.1f}])")


# Checks that drive `dprof run` directly instead of a table bench. The
# expected dominant types are this reproduction's exact-mode results for
# the paper's workloads: table 6.1 ranks memcached's 1024-byte slab class
# first; the Apache profile (tables 6.4-6.5 regime) is led by tcp_sock.
RUN_SPECS = {
    "sampled_run_memcached": lambda dprof, c: check_sampled_scenario(
        dprof, c, "memcached", "size-1024"),
    "sampled_run_apache": lambda dprof, c: check_sampled_scenario(
        dprof, c, "apache", "tcp_sock"),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dprof", default="./build/dprof")
    parser.add_argument("--only", default="", help="comma-separated table names")
    args = parser.parse_args()

    all_names = set(SPECS) | set(RUN_SPECS)
    only = {name for name in args.only.split(",") if name}
    names = sorted(only if only else all_names)
    unknown = [n for n in names if n not in all_names]
    if unknown:
        print(f"FAIL: no check spec for: {', '.join(unknown)}")
        return 1

    failed = []
    for name in names:
        print(f"== {name}")
        checker = Checker(name)
        try:
            if name in RUN_SPECS:
                RUN_SPECS[name](args.dprof, checker)
            else:
                proc = subprocess.run(
                    [args.dprof, "bench", name, "--json"], capture_output=True, text=True
                )
                if proc.returncode == 0:
                    SPECS[name](json.loads(proc.stdout), checker)
                else:
                    checker.check(f"dprof bench {name} exited {proc.returncode}", False)
        except (ValueError, KeyError, TypeError) as e:
            # Output that is not JSON, or lacks a row or column the spec
            # reads: this spec fails, the others still run.
            checker.check("report readable", False, f"({type(e).__name__}: {e})")
        if checker.failures:
            failed.append(name)

    if failed:
        print(f"\nFAIL: table reproductions out of tolerance: {', '.join(failed)}")
        return 1
    print("\nOK: all checked table reproductions within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
