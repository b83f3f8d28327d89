#!/usr/bin/env python3
"""Bench-regression gate: compare emitted BENCH_*.json against a baseline.

The smoke benches emit machine-readable BENCH_<name>.json (util/bench_json).
This gate compares the *modeled* throughput metrics against the checked-in
bench/baseline.json. Only the "rows" array is gated; the envelope's "meta"
provenance block (git SHA, compiler, build type, thread count) is
informational and ignored here, so provenance churn can never fail the
gate:

  * Structural mismatches FAIL (exit 1): a baseline bench whose BENCH file
    is missing, a baseline row with no matching emitted row, or a row
    missing the metric key. These mean a bench was dropped or its schema
    drifted — silent loss of coverage.
  * Metric deviations beyond the tolerance band WARN by default (exit 0):
    shared CI runners have noisy clocks, so throughput deltas are surfaced
    in the log but do not fail the build. Pass --strict to turn deviations
    into failures (for dedicated runners).

Baseline format (bench/baseline.json):

  {
    "tolerance_rel": 0.25,
    "benches": {
      "<name>": {
        "metric": "steps_per_s",       # row key holding the gated value
        "key": ["element", "threads"],  # fields identifying a row
        "rows": [ {"element": "Cu", "threads": 2, "steps_per_s": 1.0e5} ]
      }
    },
    "ratios": [
      {"label": "fp64 profile speedup", "bench": "kernels",
       "metric": "pairs_per_s",
       "num": {"kernel": "reference", "path": "profile"},
       "den": {"kernel": "reference", "path": "analytic"},
       "min": 2.0},
      {"label": "fp64 vector over scalar batch", "bench": "kernels",
       "metric": "pairs_per_s",
       "when_meta": {"simd_tier": ["avx2", "avx512"]},
       "num": {"kernel": "reference", "path": "soa"},
       "den": {"kernel": "reference", "path": "soa_scalar"},
       "min": 1.2}
    ]
  }

Ratio checks divide two emitted rows of the *same run* — both sides share
the machine and the load, so unlike absolute throughput they are stable on
shared runners. A ratio below its "min" therefore FAILS even in non-strict
mode: it means a structural performance property (e.g. the profiled hot
path beating virtual dispatch) was lost, not that the runner was slow.

A ratio with "when_meta" applies only when every listed key matches the
emitted BENCH file's top-level metadata (equals the value, or is one of a
list of values); otherwise it is skipped (and says so). This gates
ISA-dependent floors — e.g. the vector-over-scalar speedup is only
meaningful when the run actually dispatched a vector tier
({"simd_tier": ["avx2", "avx512"]}).

Usage: check_bench_regression.py [--build-dir build]
                                 [--baseline bench/baseline.json] [--strict]
"""

import argparse
import json
import math
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def row_key(row, fields):
    return tuple(row.get(f) for f in fields)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="directory holding the emitted BENCH_*.json")
    ap.add_argument("--baseline", default="bench/baseline.json")
    ap.add_argument("--strict", action="store_true",
                    help="fail (not warn) on metric deviations")
    args = ap.parse_args()

    baseline = load_json(args.baseline)
    tolerance = float(baseline.get("tolerance_rel", 0.25))
    benches = baseline.get("benches")
    if not benches:
        print(f"error: {args.baseline} has no 'benches' table")
        return 1

    failures = []
    warnings = []
    checked = 0
    emitted_rows = {}  # bench name -> rows (for the ratio checks below)
    emitted_meta = {}  # bench name -> envelope (for when_meta gating)
    for name, spec in benches.items():
        path = os.path.join(args.build_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            failures.append(f"{name}: {path} not emitted "
                            "(bench removed or not run?)")
            continue
        emitted = load_json(path)
        rows = emitted.get("rows")
        if not isinstance(rows, list):
            failures.append(f"{name}: emitted JSON has no 'rows' array")
            continue
        emitted_rows[name] = rows
        emitted_meta[name] = emitted
        metric = spec["metric"]
        key_fields = spec["key"]
        emitted_by_key = {row_key(r, key_fields): r for r in rows}
        for base_row in spec["rows"]:
            key = row_key(base_row, key_fields)
            label = f"{name}[{', '.join(map(str, key))}]"
            got_row = emitted_by_key.get(key)
            if got_row is None:
                failures.append(f"{label}: no emitted row matches "
                                f"{dict(zip(key_fields, key))}")
                continue
            if metric not in got_row:
                failures.append(f"{label}: emitted row lacks metric "
                                f"'{metric}'")
                continue
            base_val = float(base_row[metric])
            got_val = float(got_row[metric])
            checked += 1
            if base_val <= 0 or got_val <= 0:
                failures.append(f"{label}: non-positive {metric} "
                                f"(baseline {base_val}, got {got_val})")
                continue
            # Symmetric log-ratio band: a 2x slowdown and a 2x speedup are
            # equally far outside it.
            deviation = abs(math.log(got_val / base_val))
            band = math.log1p(tolerance)
            status = "ok"
            if deviation > band:
                direction = "faster" if got_val > base_val else "SLOWER"
                msg = (f"{label}: {metric} {got_val:.6g} vs baseline "
                       f"{base_val:.6g} ({got_val / base_val:.2f}x, "
                       f"{direction}; band ±{tolerance:.0%})")
                warnings.append(msg)
                status = "WARN"
            print(f"  [{status:4s}] {label}: {metric} = {got_val:.6g} "
                  f"(baseline {base_val:.6g})")

    def match_row(rows, selector):
        hits = [r for r in rows
                if all(r.get(k) == v for k, v in selector.items())]
        return hits[0] if len(hits) == 1 else None

    for ratio in baseline.get("ratios", []):
        label = ratio.get("label", "ratio")
        bench = ratio["bench"]
        metric = ratio["metric"]
        rows = emitted_rows.get(bench)
        envelope = emitted_meta.get(bench)
        if rows is None:
            # Bench not row-gated above (or its file failed to load there):
            # read the BENCH file directly so a ratio is never skipped
            # silently.
            path = os.path.join(args.build_dir, f"BENCH_{bench}.json")
            if not os.path.exists(path):
                if bench not in benches:  # otherwise already failed above
                    failures.append(f"{label}: {path} not emitted")
                continue
            envelope = load_json(path)
            rows = envelope.get("rows") or []
        when = ratio.get("when_meta")
        if when:
            missed = {k: v for k, v in when.items()
                      if (envelope or {}).get(k) not in
                      (v if isinstance(v, list) else [v])}
            if missed:
                print(f"  [skip] {label}: requires {when}, emitted "
                      f"{ {k: (envelope or {}).get(k) for k in when} }")
                continue
        num_row = match_row(rows, ratio["num"])
        den_row = match_row(rows, ratio["den"])
        if num_row is None or den_row is None:
            failures.append(f"{label}: no unique emitted row matches "
                            f"num={ratio['num']} / den={ratio['den']}")
            continue
        num = float(num_row.get(metric, 0.0))
        den = float(den_row.get(metric, 0.0))
        if den <= 0 or num <= 0:
            failures.append(f"{label}: non-positive {metric} "
                            f"(num {num}, den {den})")
            continue
        value = num / den
        minimum = float(ratio["min"])
        checked += 1
        status = "ok"
        if value < minimum:
            failures.append(f"{label}: {metric} ratio {value:.2f}x below "
                            f"required {minimum:.2f}x")
            status = "FAIL"
        print(f"  [{status:4s}] {label}: {value:.2f}x (>= {minimum:.2f}x)")

    print(f"\nbench gate: {checked} metric(s) checked, "
          f"{len(warnings)} deviation(s), {len(failures)} structural "
          f"failure(s)")
    for w in warnings:
        print(f"  warning: {w}")
    for f in failures:
        print(f"  FAILURE: {f}")
    if failures:
        return 1
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
