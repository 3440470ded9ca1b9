#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark.

    python3 bench/e2e/compare.py BASE CHANGE

BASE and CHANGE are each a results.json written by bench/e2e/run.sh, or a
directory searched recursively for them; every file is one run. For each
workload and each end-to-end metric in BENCHMARK.json the script prints
both sides' median and quartiles and a verdict from the metric's bound:

  worse      the change's median is worse than the base's by more than the
             bound (a regression; the script exits 1)
  unresolved a side's own quartile spread is wider than the bound, so the
             runs cannot tell (unless every change run beats every base run)
  better     the change's median beats the base's by more than the base's
             own quartile spread
  within     none of the above

setup_s has an absolute floor: a difference under 0.02 s is within bound.
Runs of one workload at the same seed on both sides must have the same
result digest; a mismatch is reported and makes the exit status 1.

"better" is not a gain claim: that needs paired, alternating runs (see
README.md). Standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FLOORS = {"setup_s": 0.02}


def load_set(arg):
    path = Path(arg)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and doc.get("schema") == "heteroplace-e2e/v1":
            runs.append(doc)
    if not runs:
        sys.exit(f"compare.py: no heteroplace-e2e/v1 results under {arg}")
    return runs


def values(runs, workload, metric):
    out = []
    for r in runs:
        m = r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(metric, base, change):
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    if abs(cm - bm) < FLOORS.get(metric["name"], 0.0):
        return "within", worse_by
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    change_spread = (c3 - c1) / abs(cm) if cm else 0.0
    if base_spread > bound or change_spread > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > base_spread:
        return "better", worse_by
    return "within", worse_by


def digest_mismatches(base_runs, change_runs):
    pinned = {}
    for r in base_runs:
        for w, res in r["workloads"].items():
            pinned.setdefault((w, r["seed"]), set()).add(res.get("result_digest"))
    bad = []
    for r in change_runs:
        for w, res in r["workloads"].items():
            seen = pinned.get((w, r["seed"]))
            if seen is not None and res.get("result_digest") not in seen:
                bad.append(f"{w} seed {r['seed']}: digest {res.get('result_digest')} "
                           f"vs base {sorted(seen)}")
    return bad


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    base_runs, change_runs = load_set(argv[1]), load_set(argv[2])
    workloads = sorted({w for r in base_runs + change_runs for w in r["workloads"]})

    failed = False
    print(f"base: {len(base_runs)} runs; change: {len(change_runs)} runs")
    header = (f"{'metric':18s} {'unit':8s} {'bound':>6s}  {'base q1 / median / q3':>32s}"
              f"  {'change q1 / median / q3':>32s}  {'worse by':>9s}  verdict")
    for w in workloads:
        rows = []
        verdicts = []
        for m in metrics:
            base, change = values(base_runs, w, m["name"]), values(change_runs, w, m["name"])
            if not base or not change:
                rows.append(f"{m['name']:18s} missing on {'base' if not base else 'change'}")
                verdicts.append("unresolved")
                continue
            v, worse_by = verdict(m, base, change)
            verdicts.append(v)
            bq, cq = quartiles(base), quartiles(change)
            rows.append(f"{m['name']:18s} {m['unit']:8s} {m['bound']:6.2f}  "
                        f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g}  "
                        f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g}  {worse_by:+9.2%}  {v}")
        order = ["worse", "unresolved", "better", "within"]
        summary = next(v for v in order if v in verdicts or v == "within")
        failed = failed or "worse" in verdicts
        print(f"\n{w}: {summary} (n = {len(values(base_runs, w, 'wall_s'))} vs "
              f"{len(values(change_runs, w, 'wall_s'))})")
        print("  " + header)
        for row in rows:
            print("  " + row)
    bad = digest_mismatches(base_runs, change_runs)
    for b in bad:
        print(f"DIGEST MISMATCH {b}")
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
