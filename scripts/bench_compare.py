#!/usr/bin/env python3
"""Compare two bench JSON snapshots (bench_util.h JsonRecords documents).

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [--threshold=0.10] [--min-seconds=0.02] [--fail-on-regression]
    scripts/bench_compare.py --selftest

Matches records by their parameter key (dataset, threads, per, minPS
fraction, minRec, and the windowed-bench window/delta sizes), then:

  * flags every per-stage time field (list/tree/mine/wall and the
    windowed per-delta / re-mine costs) that regressed by more than
    --threshold (default 10%), ignoring stages under --min-seconds in
    BOTH snapshots (pure timer noise);
  * flags any schedule-invariant counter (patterns, merge / gate-scan
    counters, and the windowed maintenance counters) that changed at
    all — those are correctness drift, not noise, and are always
    treated as regressions;
  * reports stage or counter fields present on only one side as
    informational "new field" / "removed field" rows — a bench gaining
    or losing instrumentation is an expected schema change, not a
    mismatch (it becomes one only when the shared fields disagree);
  * refuses to compare times across snapshots taken at different scales
    or hardware_concurrency (counter checks still run — they are
    machine-independent).

Exit status: 0 unless --fail-on-regression is given and a regression was
found (then 1); 2 on malformed input. scripts/verify.sh runs this as a
non-fatal stage against the committed bench_runs/ smoke snapshots, and
runs --selftest (synthetic documents exercising the three row classes)
as a fatal one.
"""

import argparse
import json
import sys

TIME_FIELDS = [
    "wall_seconds",
    "list_seconds",
    "tree_seconds",
    "mine_seconds",
    "per_delta_seconds",
    "batch_remine_seconds",
]

# Schedule-invariant counters: identical inputs must produce identical
# values regardless of machine or threads. The windowed
# maintenance counters qualify because the record key pins the delta
# schedule (window_txns, delta_txns) alongside the thresholds.
COUNTER_FIELDS = [
    "patterns_emitted",
    "merge_invocations",
    "runs_merged",
    "timestamps_merged",
    "gate_lists_scanned",
    "gate_gaps_scanned",
    "support_pruned",
    "patterns_final",
    "timestamps_appended",
    "timestamps_retired",
    "transactions_expired",
    "nodes_retired",
    "compactions",
]

KEY_FIELDS = ["dataset", "threads", "per", "min_ps_frac", "min_rec",
              "window_txns", "delta_txns"]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot load {path}: {e}")
    if "records" not in doc:
        sys.exit(f"bench_compare: {path} is not a bench report (no records)")
    return doc


def record_key(rec):
    return tuple(rec.get(k) for k in KEY_FIELDS)


def fmt_key(key):
    parts = [f"{name}={val}" for name, val in zip(KEY_FIELDS, key)
             if val is not None]
    return " ".join(parts)


class Comparison:
    """Outcome buckets of one snapshot comparison."""

    def __init__(self):
        self.matched = 0
        self.regressions = []    # Counter drift + time regressions.
        self.improvements = []   # Times past the threshold the good way.
        self.infos = []          # One-sided records and fields.


def compare(base, cur, threshold, min_seconds, compare_times):
    """Pure comparison of two loaded documents; printing is the caller's."""
    out = Comparison()
    base_by_key = {record_key(r): r for r in base["records"]}
    for rec in cur["records"]:
        key = record_key(rec)
        old = base_by_key.get(key)
        if old is None:
            out.infos.append(f"new record (no baseline): {fmt_key(key)}")
            continue
        out.matched += 1
        for field in COUNTER_FIELDS + TIME_FIELDS:
            in_old, in_cur = field in old, field in rec
            if in_old and not in_cur:
                out.infos.append(
                    f"{fmt_key(key)}: removed field (baseline only): {field}")
            elif in_cur and not in_old:
                out.infos.append(
                    f"{fmt_key(key)}: new field (current only): {field}")
        for field in COUNTER_FIELDS:
            if field in old and field in rec and old[field] != rec[field]:
                out.regressions.append(
                    f"{fmt_key(key)}: COUNTER {field} changed "
                    f"{old[field]} -> {rec[field]}")
        if not compare_times:
            continue
        for field in TIME_FIELDS:
            if field not in old or field not in rec:
                continue
            b, c = float(old[field]), float(rec[field])
            if b < min_seconds and c < min_seconds:
                continue
            if b <= 0.0:
                continue
            delta = (c - b) / b
            line = (f"{fmt_key(key)}: {field} "
                    f"{b:.3f}s -> {c:.3f}s ({delta:+.1%})")
            if delta > threshold:
                out.regressions.append(line)
            elif delta < -threshold:
                out.improvements.append(line)

    dropped = set(base_by_key) - {record_key(r) for r in cur["records"]}
    for key in sorted(dropped, key=str):
        out.infos.append(f"dropped record (baseline only): {fmt_key(key)}")
    return out


def selftest():
    """Synthetic documents exercising each row class; exits nonzero on
    any deviation from the contract pinned here."""
    def doc(records):
        return {"bench": "selftest", "records": records}

    base = doc([
        {"dataset": "a", "threads": 1, "patterns_emitted": 10,
         "nodes_retired": 3, "mine_seconds": 1.0, "tree_seconds": 0.5},
        {"dataset": "gone", "threads": 1, "patterns_emitted": 1},
    ])
    cur = doc([
        # Counter drift (hard), time regression (hard), one removed and
        # one new field (informational).
        {"dataset": "a", "threads": 1, "patterns_emitted": 10,
         "nodes_retired": 4, "mine_seconds": 1.5,
         "compactions": 2},
        {"dataset": "fresh", "threads": 1, "patterns_emitted": 2},
    ])
    out = compare(base, cur, threshold=0.10, min_seconds=0.02,
                  compare_times=True)
    failures = []
    if out.matched != 1:
        failures.append(f"matched {out.matched}, want 1")
    if not any("COUNTER nodes_retired changed 3 -> 4" in r
               for r in out.regressions):
        failures.append("counter drift not flagged")
    if not any("mine_seconds" in r and "+50.0%" in r
               for r in out.regressions):
        failures.append("time regression not flagged")
    if len(out.regressions) != 2:
        failures.append(f"regressions {out.regressions}, want exactly 2")
    if not any("removed field (baseline only): tree_seconds" in i
               for i in out.infos):
        failures.append("one-sided baseline field not informational")
    if not any("new field (current only): compactions" in i
               for i in out.infos):
        failures.append("one-sided current field not informational")
    if not any("new record" in i and "dataset=fresh" in i
               for i in out.infos):
        failures.append("unmatched current record not informational")
    if not any("dropped record" in i and "dataset=gone" in i
               for i in out.infos):
        failures.append("unmatched baseline record not informational")

    # Identical docs: nothing flagged; time improvements land in their
    # own bucket, never in regressions.
    clean = compare(base, base, 0.10, 0.02, True)
    if clean.regressions or clean.improvements:
        failures.append("self-comparison not clean")
    faster = doc([{"dataset": "a", "threads": 1, "patterns_emitted": 10,
                   "nodes_retired": 3, "mine_seconds": 0.5,
                   "tree_seconds": 0.5}])
    sped = compare(base, faster, 0.10, 0.02, True)
    if sped.regressions or not any("mine_seconds" in i
                                   for i in sped.improvements):
        failures.append("improvement misclassified")

    for f in failures:
        print(f"selftest: FAIL: {f}")
    if failures:
        return 1
    print("bench_compare: selftest OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative time regression to flag (0.10 = 10%%)")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="ignore time stages below this in both runs")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any regression is flagged")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in contract checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required (or --selftest)")

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("bench") != cur.get("bench"):
        sys.exit(f"bench_compare: different benches: "
                 f"{base.get('bench')!r} vs {cur.get('bench')!r}")

    compare_times = True
    for field in ["scale", "hardware_concurrency"]:
        b, c = base.get(field), cur.get(field)
        if b is not None and c is not None and b != c:
            print(f"bench_compare: WARNING: {field} differs "
                  f"({b} vs {c}) — skipping time comparison, "
                  f"checking counters only")
            compare_times = False

    out = compare(base, cur, args.threshold, args.min_seconds, compare_times)

    print(f"bench_compare: {base.get('bench')} — {out.matched} record(s) "
          f"matched, threshold {args.threshold:.0%}")
    for line in out.infos:
        print(f"  note:      {line}")
    for line in out.improvements:
        print(f"  improved:  {line}")
    for line in out.regressions:
        print(f"  REGRESSED: {line}")
    if not out.regressions:
        print("bench_compare: no per-stage regression")
        return 0
    print(f"bench_compare: {len(out.regressions)} regression(s) flagged")
    return 1 if args.fail_on_regression else 0


if __name__ == "__main__":
    sys.exit(main())
