#!/usr/bin/env python3
"""Diffs `dprof bench table_*` reproductions against the paper's reference
numbers, with tolerances.

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
import re
import subprocess
import sys


def parse_profile_rows(text):
    """Rows of a data-profile table: name, working set, miss share, bounce."""
    rows = []
    for line in text.splitlines():
        m = re.match(
            r"\s*(\S+)\s+([\d.]+)(B|KB|MB|GB)\s+([\d.]+)%\s+(yes|no|-)\s*$", line
        )
        if m and m.group(1) != "Total":
            scale = {"B": 1, "KB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30}[m.group(3)]
            rows.append(
                {
                    "type": m.group(1),
                    "ws_bytes": float(m.group(2)) * scale,
                    "miss_pct": float(m.group(4)),
                    "bounce": m.group(5),
                }
            )
    return rows


def parse_lock_rows(text):
    """Rows of a lock-stat table: lock name, wait seconds, overhead pct."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"\s*(.+?)\s+([\d.]+) sec\s+([\d.]+)%", line)
        if m:
            rows.append(
                {
                    "lock": m.group(1).strip(),
                    "wait_s": float(m.group(2)),
                    "overhead_pct": float(m.group(3)),
                }
            )
    return rows


def section(text, start, end=None):
    i = text.find(start)
    if i < 0:
        return ""
    j = text.find(end, i) if end else -1
    return text[i:j] if end and j >= 0 else text[i:]


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


def check_table_6_1(text, c):
    """Memcached profile: size-1024 payloads dominate and bounce."""
    # The simulated table before the "paper reference rows" echo.
    rows = parse_profile_rows(section(text, "Type name", "paper reference"))
    c.check("profile parsed", len(rows) >= 5, f"({len(rows)} rows)")
    if not rows:
        return
    c.check("size-1024 tops the profile", rows[0]["type"] == "size-1024",
            f"(top: {rows[0]['type']})")
    # Paper: 45.40% of all L1 misses; tolerance covers the model distance.
    c.near("size-1024 miss share", rows[0]["miss_pct"], 45.40, 16.0)
    by_type = {r["type"]: r for r in rows}
    for name in ("size-1024", "slab", "net_device", "udp_sock", "skbuff"):
        if name in by_type:
            c.check(f"{name} bounces", by_type[name]["bounce"] == "yes")
    # Paper: the listed types cover ~80% of all misses.
    total = sum(r["miss_pct"] for r in rows)
    c.near("top types' combined miss share", total, 81.86, 16.0)


def check_table_6_2(text, c):
    """Lock-stat under memcached: the Qdisc lock leads, epoll close behind."""
    rows = parse_lock_rows(section(text, "Lock Name", "paper reference"))
    c.check("lock table parsed", len(rows) >= 3, f"({len(rows)} rows)")
    if not rows:
        return
    c.check("Qdisc lock has the highest overhead", rows[0]["lock"] == "Qdisc lock",
            f"(top: {rows[0]['lock']})")
    # Paper: 4.04% — the simulated machine is smaller, so the band is wide,
    # but the lock must stay materially contended.
    c.near("Qdisc lock overhead pct", rows[0]["overhead_pct"], 4.04, 3.5)
    names = [r["lock"] for r in rows]
    c.check("epoll lock contended", "epoll lock" in names)


def check_table_6_4_6_5(text, c):
    """Apache peak vs drop-off: tcp_sock working set and latency blow up."""
    peak = parse_profile_rows(section(text, "== Table 6.4", "== Table 6.5"))
    drop = parse_profile_rows(section(text, "== Table 6.5", "== Differential"))
    c.check("peak profile parsed", len(peak) >= 4)
    c.check("drop-off profile parsed", len(drop) >= 4)
    if not peak or not drop:
        return
    c.check("tcp_sock tops the peak profile", peak[0]["type"] == "tcp_sock")
    c.check("tcp_sock tops the drop-off profile", drop[0]["type"] == "tcp_sock")
    ws_ratio = drop[0]["ws_bytes"] / max(peak[0]["ws_bytes"], 1.0)
    c.check("tcp_sock working set grows at drop-off", ws_ratio > 1.5,
            f"({ws_ratio:.1f}x; paper 10.4x)")
    m = re.search(r"line latency \(cycles\)\s+(\d+)\s+(\d+)", text)
    c.check("latency line parsed", m is not None)
    if m:
        lat_ratio = int(m.group(2)) / max(int(m.group(1)), 1)
        c.check("tcp_sock miss latency grows at drop-off", lat_ratio > 1.2,
                f"({lat_ratio:.1f}x; paper 3x)")


def parse_function_rows(text):
    """Rows of the OProfile-style table: pct clk, pct L2 misses, function."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"\s*([\d.]+)\s+([\d.]+)\s+(\S+)\s*$", line)
        if m:
            rows.append(
                {
                    "clk_pct": float(m.group(1)),
                    "l2_pct": float(m.group(2)),
                    "fn": m.group(3),
                }
            )
    return rows


def check_table_6_3(text, c):
    """OProfile-style memcached profile: flat, driver-heavy, and — the paper's
    point — the tx-queue bug's functions sit mid-table, not on top."""
    rows = parse_function_rows(section(text, "% CLK", "functions above"))
    c.check("function table parsed", len(rows) >= 15, f"({len(rows)} rows)")
    if not rows:
        return
    c.check("rows sorted by % CLK",
            all(rows[i]["clk_pct"] >= rows[i + 1]["clk_pct"]
                for i in range(len(rows) - 1)))
    names = [r["fn"] for r in rows]
    # Paper's top five (4.4% kfree .. 3.0% kmem_cache_free) is driver and
    # allocator code; the reproduction must keep those families prominent.
    for fn in ("ixgbe_xmit_frame", "ixgbe_clean_rx_irq", "kmem_cache_free"):
        c.check(f"{fn} in the profile", fn in names)
    # Paper: 29 functions above 1% CLK — a flat profile with no smoking gun.
    m = re.search(r"functions above 1% CLK:\s*(\d+)\s*\(paper:\s*29\)", text)
    c.check("above-1% summary line parsed", m is not None)
    if m:
        c.near("functions above 1% CLK", float(m.group(1)), 29.0, 15.0)
    # The diagnosis DProf makes (skb_tx_hash queue selection) is invisible
    # here: dev_queue_xmit must be present but must not top the table.
    c.check("dev_queue_xmit present mid-table", "dev_queue_xmit" in names)
    if "dev_queue_xmit" in names:
        c.check("dev_queue_xmit not in the top 3",
                names.index("dev_queue_xmit") >= 3,
                f"(rank {names.index('dev_queue_xmit') + 1})")


def check_table_6_6(text, c):
    """Lock-stat under Apache at drop-off: futex dominates, Qdisc is quiet
    (all Apache handling is core-local, unlike the memcached tx path)."""
    rows = parse_lock_rows(section(text, "Lock Name", "paper reference"))
    c.check("lock table parsed", len(rows) >= 2, f"({len(rows)} rows)")
    if not rows:
        return
    c.check("futex lock has the highest overhead", rows[0]["lock"] == "futex lock",
            f"(top: {rows[0]['lock']})")
    # Paper: 6.6% over a 30s hardware run. The simulated run is far shorter
    # and the model distance is large, so the band is wide — but futex must
    # stay materially contended.
    c.near("futex lock overhead pct", rows[0]["overhead_pct"], 6.6, 15.0)
    by_lock = {r["lock"]: r for r in rows}
    if "Qdisc lock" in by_lock:
        c.check("Qdisc lock quiet under Apache",
                by_lock["Qdisc lock"]["overhead_pct"] < 1.0,
                f"({by_lock['Qdisc lock']['overhead_pct']:.2f}%)")


def parse_history_rows(text):
    """Rows of the table-6.7 collection summary."""
    rows = []
    for line in text.splitlines():
        m = re.match(
            r"\s*(memcached|Apache)\s+(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s*$",
            line,
        )
        if m:
            rows.append(
                {
                    "bench": m.group(1),
                    "type": m.group(2),
                    "size": int(m.group(3)),
                    "histories": int(m.group(4)),
                    "sets": int(m.group(5)),
                    "time_s": float(m.group(6)),
                    "overhead_pct": float(m.group(7)),
                }
            )
    return rows


def check_table_6_7(text, c):
    """History collection: every tracked type yields histories, and the
    paper's conclusion — collection overhead stays small (its worst row is
    16%) — holds for the reproduction."""
    rows = parse_history_rows(section(text, "Benchmark", "paper reference"))
    c.check("history table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    for r in rows:
        c.check(f"{r['bench']}/{r['type']} collected histories",
                r["histories"] >= 8, f"({r['histories']})")
    worst = max(r["overhead_pct"] for r in rows)
    c.check("collection overhead stays small", worst <= 25.0,
            f"(worst {worst:.1f}%; paper worst 16%)")
    types = {r["type"] for r in rows if r["bench"] == "Apache"}
    c.check("Apache tracks tcp_sock", "tcp_sock" in types)


def parse_rate_rows(text):
    """Rows of table 6.8: bench, type, elems/history, histories/s, elems/s."""
    rows = []
    for line in text.splitlines():
        m = re.match(
            r"\s*(memcached|Apache)\s+(\S+)\s+([\d.]+)\s+(\d+)\s+(\d+)\s*$", line
        )
        if m:
            rows.append(
                {
                    "bench": m.group(1),
                    "type": m.group(2),
                    "elems_per_history": float(m.group(3)),
                    "histories_per_s": int(m.group(4)),
                    "elems_per_s": int(m.group(5)),
                }
            )
    return rows


def check_table_6_8(text, c):
    """History collection rates on the paper topology: every tracked type
    sustains a nonzero rate, and — the paper's standout row — skbuff_fclone
    is Apache's fastest collector (4600 histories/s in Table 6.8)."""
    rows = parse_rate_rows(section(text, "Benchmark", "paper reference"))
    c.check("rate table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    for r in rows:
        c.check(f"{r['bench']}/{r['type']} sustains collection",
                r["histories_per_s"] > 0 and r["elems_per_s"] > 0,
                f"({r['histories_per_s']}/s)")
    apache = [r for r in rows if r["bench"] == "Apache"]
    if apache:
        fastest = max(apache, key=lambda r: r["histories_per_s"])
        c.check("skbuff_fclone fastest Apache collector",
                fastest["type"] == "skbuff_fclone", f"(fastest: {fastest['type']})")
    types = {r["type"] for r in apache}
    c.check("Apache tracks tcp_sock", "tcp_sock" in types)


def parse_breakdown_rows(text):
    """Rows of table 6.9: type, interrupt/memory/communication percents."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"\s*(\S+)\s+(\d+)%\s+(\d+)%\s+(\d+)%\s*$", line)
        if m:
            rows.append(
                {
                    "type": m.group(1),
                    "interrupts_pct": int(m.group(2)),
                    "memory_pct": int(m.group(3)),
                    "communication_pct": int(m.group(4)),
                }
            )
    return rows


def check_table_6_9(text, c):
    """Overhead breakdown: the three cost classes partition each row, setup
    broadcasts (communication) dominate skbuff_fclone as in the paper, and
    memory reservations never lead (paper worst: 10%)."""
    rows = parse_breakdown_rows(section(text, "Data Type", "paper reference"))
    c.check("breakdown table parsed", len(rows) == 4, f"({len(rows)} rows)")
    if not rows:
        return
    by_type = {r["type"]: r for r in rows}
    for r in rows:
        total = r["interrupts_pct"] + r["memory_pct"] + r["communication_pct"]
        c.check(f"{r['type']} percents partition the cost", abs(total - 100) <= 2,
                f"(sum {total}%)")
        c.check(f"{r['type']} memory share stays minor", r["memory_pct"] <= 25,
                f"({r['memory_pct']}%)")
    if "skbuff_fclone" in by_type:
        c.near("skbuff_fclone communication share",
               by_type["skbuff_fclone"]["communication_pct"], 90.0, 15.0)


def parse_pairwise_rows(text):
    """Rows of table 6.10: bench, type, size, histories/sets, time, overhead."""
    rows = []
    for line in text.splitlines():
        m = re.match(
            r"\s*(memcached|Apache)\s+(\S+)\s+(\d+)\s+(\d+)/(\d+)\s+([\d.]+)\s+([\d.]+)\s*$",
            line,
        )
        if m:
            rows.append(
                {
                    "bench": m.group(1),
                    "type": m.group(2),
                    "size": int(m.group(3)),
                    "histories": int(m.group(4)),
                    "sets": int(m.group(5)),
                    "time_s": float(m.group(6)),
                    "overhead_pct": float(m.group(7)),
                }
            )
    return rows


def check_table_6_10(text, c):
    """Pairwise sampling: object sizes match the paper's, every sweep yields
    histories, and the paper's conclusion — overhead stays tolerable (its
    worst row is 18%) — holds."""
    rows = parse_pairwise_rows(section(text, "Benchmark", "note:"))
    c.check("pairwise table parsed", len(rows) == 6, f"({len(rows)} rows)")
    if not rows:
        return
    paper_sizes = {"size-1024": 1024, "skbuff": 256, "skbuff_fclone": 512,
                   "tcp_sock": 1600}
    for r in rows:
        c.check(f"{r['bench']}/{r['type']} object size matches paper",
                r["size"] == paper_sizes.get(r["type"]), f"({r['size']}B)")
        c.check(f"{r['bench']}/{r['type']} pairwise sweep collected",
                r["histories"] > 0 and r["sets"] >= 1,
                f"({r['histories']}/{r['sets']})")
    worst = max(r["overhead_pct"] for r in rows)
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
        if name in RUN_SPECS:
            checker = Checker(name)
            RUN_SPECS[name](args.dprof, checker)
            if checker.failures:
                failed.append(name)
            continue
        proc = subprocess.run(
            [args.dprof, "bench", name, "--json"], capture_output=True, text=True
        )
        if proc.returncode != 0:
            print(f"  FAIL  dprof bench {name} exited {proc.returncode}")
            failed.append(name)
            continue
        doc = json.loads(proc.stdout)
        exit_metric = {m["name"]: m["value"] for m in doc.get("metrics", [])}
        if exit_metric.get("exit_code", 1) != 0:
            print(f"  FAIL  bench program exit_code {exit_metric.get('exit_code')}")
            failed.append(name)
            continue
        checker = Checker(name)
        SPECS[name](doc.get("output", ""), checker)
        if checker.failures:
            failed.append(name)

    if failed:
        print(f"\nFAIL: table reproductions out of tolerance: {', '.join(failed)}")
        return 1
    print("\nOK: all checked table reproductions within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
