#!/usr/bin/env python3
"""Compares sets of benchmark runs (the run JSONs benchmark/run.sh writes).

Claim mode (a change against its parent, choosing-metrics section 8):

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

  Runs are paired by (workload, seed). Per workload and metric it prints
  the parent's and the change's median and quartiles, the change's wins out
  of the pairs, and a verdict:
    gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
                neither), and the medians differ by more than the parent's
                interquartile range, in the better direction;
    regression  the change's median is worse than the parent's by more than
                the metric's bound;
    unresolved  either side's spread (IQR over median) exceeds the bound and
                not every change run beats every parent run;
    same        none of the above.
  A gain also needs the runs interleaved in time (parent and change
  alternating); otherwise it is reported as unresolved. Exits 1 on any
  regression.

Same-code mode (two sets of runs of one commit):

    python3 benchmark/compare.py --same-code FIRST_DIR SECOND_DIR

  Passes when every end-to-end metric's spread stays within its bound in
  both sets (setup_s exempt) and the second median is not worse than the
  first by more than the bound. Exits 1 otherwise.

Both modes refuse (exit 2) to compare runs stamped with different nproc or
SIMD levels. `--spec` names BENCHMARK.json (default: the one next to this
directory). `--selftest` checks the statistics on synthetic runs.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = dict(entry, layer=False)
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = dict(entry, layer=True, bound=None)
    return metrics


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                run = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(run, dict) and "workload" in run and "metrics" in run:
            runs.append(run)
    return runs


def hosts(runs):
    return {(r["host"]["nproc"], r["host"]["simd"]) for r in runs}


def iqr(values):
    """Distance between the quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def spread(values):
    """IQR over median, as the acceptance rule computes it."""
    med = statistics.median(values)
    return iqr(values) / abs(med) if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def group(runs, traced):
    """{(workload, metric): {seed: value}} over runs of one mode."""
    table = {}
    for run in runs:
        if run.get("trace", False) != traced:
            continue
        for name, m in run["metrics"].items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return table


def interleaved(parent_runs, change_runs):
    """True when, among each workload's runs in start-time order, every
    parent run sits next to the change run of the same seed."""
    timelines = {}
    for side, runs in (("p", parent_runs), ("c", change_runs)):
        for r in runs:
            if not r.get("trace", False):
                timelines.setdefault(r["workload"], []).append(
                    (r["host"].get("started_unix", 0), side, r["seed"]))
    for timeline in timelines.values():
        timeline.sort()
        position = {}
        for i, (_, side, seed) in enumerate(timeline):
            position.setdefault(seed, []).append((i, side))
        for entries in position.values():
            if (len(entries) != 2 or entries[0][1] == entries[1][1]
                    or entries[1][0] - entries[0][0] != 1):
                return False
    return True


def verdict(parent, change, better, bound):
    """Claim-mode verdict for paired value lists (same order)."""
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    delta = worse_by(p_med, c_med, better)
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if bound is not None and delta > bound:
        return "regression", wins
    if (bound is not None and not beats_all
            and (spread(parent) > bound or spread(change) > bound)):
        return "unresolved", wins
    if (pairs >= 10 and wins * 10 >= pairs * 9
            and -delta * abs(p_med) > iqr(parent)):
        return "gain", wins
    return "same", wins


def claim(parent_runs, change_runs, metrics):
    ordered = interleaved(parent_runs, change_runs)
    failed = False
    rows = []
    for traced in (False, True):
        p_table = group(parent_runs, traced)
        c_table = group(change_runs, traced)
        for key in sorted(set(p_table) & set(c_table)):
            workload, name = key
            if name not in metrics:
                continue
            seeds = sorted(set(p_table[key]) & set(c_table[key]))
            if not seeds:
                continue
            parent = [p_table[key][s] for s in seeds]
            change = [c_table[key][s] for s in seeds]
            m = metrics[name]
            result, wins = verdict(parent, change, m["better"], m["bound"])
            if result == "gain" and not ordered:
                result = "unresolved"
            failed = failed or result == "regression"
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rows.append((workload, name, p_med, iqr(parent), c_med, iqr(change),
                         -worse_by(p_med, c_med, m["better"]),
                         f"{wins}/{len(seeds)}", result))
    print(f"{'workload':14} {'metric':30} {'parent':>11} {'IQR':>9} "
          f"{'change':>11} {'IQR':>9} {'better':>7} {'wins':>6} verdict")
    for r in rows:
        print(f"{r[0]:14} {r[1]:30} {r[2]:11.5g} {r[3]:9.3g} {r[4]:11.5g} "
              f"{r[5]:9.3g} {r[6]:+7.1%} {r[7]:>6} {r[8]}")
    if not ordered:
        print("note: parent and change runs are not interleaved pair by pair; "
              "no gain can be claimed")
    return 1 if failed else 0


def same_code(first_runs, second_runs, metrics):
    failed = False
    t1, t2 = group(first_runs, False), group(second_runs, False)
    print(f"{'workload':14} {'metric':14} {'median 1':>12} {'spread 1':>9} "
          f"{'median 2':>12} {'spread 2':>9} {'worse':>7} {'bound':>6} ok")
    for key in sorted(set(t1) | set(t2)):
        workload, name = key
        m = metrics.get(name)
        if m is None or m["layer"]:
            continue
        if key not in t1 or key not in t2:
            print(f"{workload:14} {name:14} missing in one set")
            failed = True
            continue
        a, b = list(t1[key].values()), list(t2[key].values())
        s1, s2 = spread(a), spread(b)
        m1, m2 = statistics.median(a), statistics.median(b)
        worse = worse_by(m1, m2, m["better"])
        ok = worse <= m["bound"] and (
            name == "setup_s" or (s1 <= m["bound"] and s2 <= m["bound"]))
        failed = failed or not ok
        print(f"{workload:14} {name:14} {m1:12.5g} {s1:9.3f} {m2:12.5g} "
              f"{s2:9.3f} {worse:+7.1%} {m['bound']:6.2f} "
              f"{'yes' if ok else 'NO'}")
    return 1 if failed else 0


def selftest():
    lower = "lower"
    parent = [100.0 + i for i in range(10)]
    faster = [p * 0.8 for p in parent]
    assert verdict(parent, faster, lower, 0.25) == ("gain", 10)
    slower = [p * 1.3 for p in parent]
    assert verdict(parent, slower, lower, 0.25)[0] == "regression"
    assert verdict(parent, parent, lower, 0.25) == ("same", 0)
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 0.99 for v in noisy], lower,
                   0.1)[0] == "unresolved"
    nine = faster[:9] + [parent[9] * 1.01]
    assert verdict(parent, nine, lower, 0.25) == ("gain", 9)
    eight = faster[:8] + [parent[8] * 1.01, parent[9] * 1.01]
    assert verdict(parent, eight, lower, 0.25)[0] == "same"
    assert verdict(parent[:9], faster[:9], lower, 0.25)[0] == "same"  # < 10 pairs
    assert verdict([10.0] * 10, [11.0] * 10, "higher", 0.25) == ("gain", 10)
    assert abs(spread(list(range(1, 11))) - (8.25 - 2.75) / 5.5) < 1e-12
    assert worse_by(100.0, 110.0, lower) == 0.1
    assert worse_by(100.0, 110.0, "higher") == -0.1

    def run(workload, seed, t, side_value):
        return {"workload": workload, "seed": seed, "trace": False,
                "host": {"nproc": 4, "simd": "avx2", "started_unix": t},
                "metrics": {"ops_per_s": {"value": side_value}}}
    p = [run("w", s, 2 * s + (s % 2), 1.0) for s in range(10)]
    c = [run("w", s, 2 * s + 1 - (s % 2), 1.0) for s in range(10)]
    assert interleaved(p, c)
    c_late = [run("w", s, 100 + s, 1.0) for s in range(10)]
    assert not interleaved(p, c_late)
    # Whole passes over several workloads alternate per workload.
    p2 = [run(w, s, 4 * s + 2 * (s % 2) + i, 1.0)
          for s in range(10) for i, w in enumerate("ab")]
    c2 = [run(w, s, 4 * s + 2 - 2 * (s % 2) + i, 1.0)
          for s in range(10) for i, w in enumerate("ab")]
    assert interleaved(p2, c2)
    assert hosts(p) == {(4, "avx2")}
    print("selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*")
    parser.add_argument("--same-code", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if len(args.dirs) != 2:
        parser.error("give two run directories")
    metrics = load_spec(args.spec)
    first, second = load_runs(args.dirs[0]), load_runs(args.dirs[1])
    if not first or not second:
        print("no runs found", file=sys.stderr)
        return 2
    if len(hosts(first) | hosts(second)) != 1:
        print(f"refusing to compare runs from different hosts (nproc, simd): "
              f"{sorted(hosts(first) | hosts(second))}", file=sys.stderr)
        return 2
    if args.same_code:
        return same_code(first, second, metrics)
    return claim(first, second, metrics)


if __name__ == "__main__":
    sys.exit(main())
