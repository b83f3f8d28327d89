#!/usr/bin/env python3
"""Compare two sets of e2e benchmark runs, per metric and per workload.

  python3 bench/e2e/compare.py --parent P1.json [P2.json ...]
                               --change C1.json [C2.json ...]
                               [--parent-run GLOB] [--change-run GLOB]

Each file is a BENCH_e2e.json written by run.py, or a trajectory.jsonl of
recorded rows; --parent-run / --change-run keep only the trajectory rows
whose run id matches the glob. Runs pair up in the order given: pair i is
(parent run i, change run i), so alternate the two sides while measuring
and list the files in that order.

For every (metric, workload) both sides print median and quartiles, and
an end-to-end metric gets a verdict against its bound in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread (q3 - q1) is wider than the bound and
              not every change run beats every parent run
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              spread
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. A pair whose host-speed
probes (calib_ms, the median the run's timings were scaled by) differ by
more than 10% is flagged: the host's speed moved between the two runs, and
the pair leans on the scaling. Exits 1 when any metric regressed.
"""

import argparse
import fnmatch
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALIB_TOLERANCE = 0.10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict of one (metric, workload); see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    scale = abs(pm) if pm else 1.0
    if sign * (pm - cm) / scale > bound:
        return "regressed"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > q3 - q1:
        return "improved"
    return "unchanged"


def load_rows(paths, run_glob):
    rows = []
    for path in paths:
        text = Path(path).read_text()
        if path.endswith(".jsonl"):
            for line in text.splitlines():
                if line.strip():
                    row = json.loads(line)
                    if run_glob is None or fnmatch.fnmatch(row["run"], run_glob):
                        rows.append(row)
        else:
            rows.extend(json.loads(text)["rows"])
    return rows


def by_workload(rows):
    out = {}
    for row in rows:
        out.setdefault(row["workload"], []).append(row)
    return out


def compare(parent_rows, change_rows, bench):
    """Report lines plus whether anything regressed."""
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = by_workload(parent_rows), by_workload(change_rows)
    lines, regressed = [], False
    for workload in sorted(set(parent) & set(change)):
        p_rows, c_rows = parent[workload], change[workload]
        lines.append(f"{workload}: {len(p_rows)} parent / {len(c_rows)} change runs")
        for i, (p, c) in enumerate(zip(p_rows, c_rows)):
            if abs(c["calib_ms"] - p["calib_ms"]) > CALIB_TOLERANCE * p["calib_ms"]:
                lines.append(f"  ! pair {i}: host-speed probe {p['calib_ms']:.2f} vs "
                             f"{c['calib_ms']:.2f} ms")
        names = [n for n in specs
                 if all(n in r["metrics"] for r in p_rows + c_rows)]
        for name in names:
            spec = specs[name]
            pv = [r["metrics"][name] for r in p_rows]
            cv = [r["metrics"][name] for r in c_rows]
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
            result = (verdict(pv, cv, spec["better"], spec["bound"])
                      if "bound" in spec else "-")
            regressed |= result == "regressed"
            lines.append(
                f"  {name:24s} {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  ->  "
                f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']:9s} "
                f"{delta:+7.2f}%  {result}")
    return lines, regressed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    ap.add_argument("--change", nargs="+", required=True, metavar="FILE")
    ap.add_argument("--parent-run", metavar="GLOB")
    ap.add_argument("--change-run", metavar="GLOB")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load_rows(args.parent, args.parent_run),
                               load_rows(args.change, args.change_run), bench)
    print("\n".join(lines) if lines else "no workload appears on both sides")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
