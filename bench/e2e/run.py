#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wsmd backends.

  python3 bench/e2e/run.py [--workload NAME[,NAME...]] [--seed N]
                           [--seconds S] [--trace [0|1]] [--record [RUN_ID]]
  python3 bench/e2e/run.py --self-test

Builds bench/e2e/harness.cpp against this checkout's wsmd_core (Release, in
build-e2e/), runs each workload deck of bench/e2e/workloads/ in its own
harness process, checks the outputs against bench/e2e/expected.json, and
prints every metric with its unit. Untraced runs report the end-to-end
metrics of BENCHMARK.json, traced runs (--trace) its per-layer metrics.
Writes BENCH_e2e.json (and, traced, bench-trace.json) at the checkout root;
--record also appends the rows to bench/e2e/trajectory.jsonl. The last
line on stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See bench/e2e/README.md.
"""

import argparse
import csv
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays exactly as committed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
HARNESS = BUILD / "e2e_harness"
TRAJECTORY = HERE / "trajectory.jsonl"
WORKLOADS = ["cu6k_ref", "ta_gb_sharded1"]
HARNESS_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps this many steps beyond it
# The host-speed probe's time (host_speed.cpp), about its median on the
# reference host (4-vCPU KVM guest on a Xeon with AVX-512). Pass timings are
# scaled to it: a pass run while the probe took 1.5x this is counted 1.5x
# faster. It sets the scale of the numbers only; spreads and comparisons
# do not depend on it.
HOST_NOMINAL_MS = 9.0

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result (no source tree, build failed)."""


# --- Build ---------------------------------------------------------------

def child_env():
    """Keep compiler temporaries and git lookups inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = str(BUILD / "tmp")
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def build():
    missing = [p for p in ("CMakeLists.txt", "src") if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"{ROOT} is not a wsmd checkout (no {', '.join(missing)})")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_harness",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {BUILD / 'build.log'})")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, env=child_env())
    return out.stdout.strip() or "unknown"


# --- Inputs --------------------------------------------------------------

SEED_LINE = re.compile(r"^(\s*seed\s*=\s*)(\S+)", re.MULTILINE)


def deck_seed(text):
    m = SEED_LINE.search(text)
    if m is None:
        raise BenchError("workload deck has no seed line")
    return int(m.group(2))


def with_seed(text, seed):
    """The deck with its seed rewritten (every workload deck sets one)."""
    deck_seed(text)
    return SEED_LINE.sub(lambda m: f"{m.group(1)}{seed}", text)


def run_harness(deck_text, run_dir, seconds, trace):
    """Run one workload in its own harness process; its parsed JSON."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deck = run_dir / "workload.deck"
    deck.write_text(deck_text)
    cmd = [str(HARNESS), f"--deck={deck}", f"--out-dir={run_dir}",
           f"--seconds={seconds}", f"--trace={int(trace)}"]
    with open(run_dir / "harness.log", "w") as log:
        # Own session: a timeout kills the rank processes along with it.
        proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                                stderr=log, env=child_env(), text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"harness exited {proc.returncode}: "
                         f"{(run_dir / 'harness.log').read_text().strip()[-400:]}")
    (run_dir / "harness.json").write_text(out)
    return json.loads(out)


# --- Metrics -------------------------------------------------------------

def step_seconds(progress_s):
    """Per-step wall times: deltas between consecutive progress callbacks."""
    return [b - a for a, b in zip([0.0] + progress_s[:-1], progress_s)]


def tail_percentile(samples):
    """(value, q, n) at the highest percentile with TAIL_BEYOND samples
    strictly beyond it: the (TAIL_BEYOND + 1)-th largest, q = 1 - 10/n."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} step samples: the tail needs more than {TAIL_BEYOND}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 1.0 - TAIL_BEYOND / n, n


def setup_seconds(p):
    """run_scenario call -> start of its stepping loop: the first progress
    callback's absolute time minus the wall_seconds it reports."""
    call, first, first_wall = p["setup_marks"]
    return (first - call) - first_wall


def host_factor(p):
    """How much slower than nominal the host ran during pass p (> 1: slower)."""
    return p["host_ms"] / HOST_NOMINAL_MS


def steps_per_s(passes, scaled=True):
    """Median over passes of timed steps / loop wall time (every rebuild,
    output and checkpoint step included) -- not 1 / median step time --
    each pass scaled by the host speed around it unless scaled=False."""
    return statistics.median(p["steps"] / p["wall_s"] * (host_factor(p) if scaled else 1.0)
                             for p in passes)


def setup_s(passes, scaled=True):
    """Median over passes of the set-up time, host-scaled like steps_per_s."""
    return statistics.median(setup_seconds(p) / (host_factor(p) if scaled else 1.0)
                             for p in passes)


def end_to_end(doc):
    """The end-to-end metrics plus their context: ns/day, the unscaled
    (wall-clock) rate and set-up, the host factor and the per-step times
    (median, and the tail with its q and n). Each metric is a median over
    the run's passes of host-scaled values (see README). The step times are
    wall clock and reported, not gated: on this shared host they follow the
    host's speed."""
    passes = doc["passes"]
    steps = [s for p in passes for s in step_seconds(p["progress_s"])]
    tail, q, n = tail_percentile(steps)
    rate = steps_per_s(passes)
    metrics = {
        "steps_per_s": rate,
        "setup_s": setup_s(passes),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    context = {"ns_per_day": rate * doc["dt_ps"] * 86.4,
               "wall_steps_per_s": steps_per_s(passes, scaled=False),
               "wall_setup_s": setup_s(passes, scaled=False),
               "host_factor": statistics.median(host_factor(p) for p in passes),
               "step_ms_p50": statistics.median(steps) * 1e3, "step_ms_tail": tail * 1e3,
               "tail_q": q, "tail_n": n, "passes": len(passes)}
    return metrics, context


def per_layer(doc):
    metrics = dict(doc["layers"])
    metrics["host.calib_ms"] = doc["calib_ms"]
    metrics["trace.overhead_frac"] = 1.0 - (steps_per_s([doc["traced"]]) /
                                            steps_per_s(doc["passes"]))
    return metrics


# --- Correctness checks --------------------------------------------------

def read_thermo(path):
    with open(path) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def nve_spread_per_atom(rows, stages, atoms):
    """max - min total energy per atom over the final NVE stage. Rows start
    at the last row of the stage's first step (the post-thermalize or
    post-rescale state), not the pre-run emission at the same step."""
    if not stages or stages[-1]["kind"] != "run":
        raise BenchError("workload schedule does not end in an NVE run stage")
    start = sum(s["steps"] for s in stages) - stages[-1]["steps"]
    first = max(i for i, r in enumerate(rows) if r["step"] == start)
    energies = [r["total_eV"] for r in rows[first:]]
    return (max(energies) - min(energies)) / atoms


def within(got, want, tol):
    """The golden-test band: |got - want| <= max(abs, rel * |want|)."""
    def ok(key, rel_key, abs_key):
        return abs(got[key] - want[key]) <= max(tol[abs_key], tol[rel_key] * abs(want[key]))
    return (ok("pe", "energy_rel", "energy_abs") and
            ok("total", "energy_rel", "energy_abs") and
            abs(got["temperature"] - want["temperature"]) <= tol["temp_abs"])


def check_workload(name, doc, expected):
    """[(check, ok, detail)] for one harness result."""
    spec = expected["workloads"][name]
    first = doc["passes"][0]
    final = first["final"]
    checks = []

    def add(check, ok, detail):
        checks.append((check, bool(ok), detail))

    add("finite", all(math.isfinite(v) for v in final.values()), final)
    rows = read_thermo(first["thermo_path"])
    spread = nve_spread_per_atom(rows, doc["stages"], doc["atoms"])
    add("nve_drift", spread <= spec["nve_spread_per_atom"],
        f"{spread:.3g} eV/atom, budget {spec['nve_spread_per_atom']:.3g}")
    repeats = [p["final"] for p in doc["passes"]]
    add("repeat_bitwise", all(f == repeats[0] for f in repeats), f"{len(repeats)} passes")
    if "traced" in doc:
        add("traced_bitwise", doc["traced"]["final"] == final,
            "traced final thermo vs untraced")
    if doc["seed"] == spec["default_seed"]:
        tol = expected["bands"][spec["band"]]
        add("golden", within(final, spec["golden"], tol),
            f"final {final} vs {spec['golden']} ({spec['band']} band)")
    outputs = {
        "thermo_samples": first["thermo_samples"],
        "xyz_frames": first["xyz_frames"],
        "checkpoints": first["checkpoints"],
        "probe_files": sum(1 for o in first["observables"]
                           if o["samples"] > 0 and o["bytes"] > 0),
        "health_events": first["health_events"],
    }
    for key, want in spec["outputs"].items():
        add(f"outputs.{key}", outputs[key] == want, f"{outputs[key]} (want {want})")
    return checks


# --- One workload ----------------------------------------------------------

def row_of(name, doc, metrics, context, checks):
    failed = sum(1 for _, ok, _ in checks if not ok)
    row = {"workload": name, "seed": doc["seed"], "backend": doc["backend"],
           "engine": doc["engine"], "transport": doc["transport"],
           "atoms": doc["atoms"], "dt_ps": doc["dt_ps"],
           "simd_tier": doc["simd_tier"], "nproc": doc["nproc"],
           "compiler": doc["build"]["compiler"],
           "build_type": doc["build"]["build_type"], "calib_ms": doc["calib_ms"],
           "checks_attempted": len(checks), "checks_failed": failed,
           "check_fail_frac": failed / len(checks)}
    row.update(context)
    row["metrics"] = metrics
    return row


def run_workload(name, seed, seconds, trace, expected):
    deck_text = (HERE / "workloads" / f"{name}.deck").read_text()
    seed = deck_seed(deck_text) if seed is None else seed
    run_dir = BUILD / "runs" / name
    doc = run_harness(with_seed(deck_text, seed), run_dir, seconds, trace)
    checks = check_workload(name, doc, expected)
    if trace:
        metrics, context = per_layer(doc), {}
    else:
        metrics, context = end_to_end(doc)
    return row_of(name, doc, metrics, context, checks), checks, doc.get("spans", [])


def chrome_trace(spans_by_workload):
    """The harness spans of every workload as one chrome://tracing document
    (pid = workload, args carry the span id and its parent's)."""
    events = []
    for pid, (name, spans) in enumerate(spans_by_workload):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for sid, (span, start, end, parent) in enumerate(spans):
            events.append({"name": span, "ph": "X", "pid": pid, "tid": 0,
                           "ts": start, "dur": end - start,
                           "args": {"id": sid, "parent": parent}})
    return {"traceEvents": events}


def record(rows, sha, run_id, trace):
    """Append rows to trajectory.jsonl, once per (sha, workload, run)."""
    existing = set()
    if TRAJECTORY.exists():
        for line in TRAJECTORY.read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                existing.add((r["sha"], r["workload"], r["run"]))
    added = 0
    with open(TRAJECTORY, "a") as f:
        for row in rows:
            run = run_id or f"seed{row['seed']}" + ("-trace" if trace else "")
            if (sha, row["workload"], run) in existing:
                continue
            f.write(json.dumps({"sha": sha, "run": run, "trace": bool(trace), **row}) + "\n")
            added += 1
    return added


def print_row(row, checks, units):
    print(f"{row['workload']}: {row['engine']} ({row['backend']}, transport "
          f"{row['transport']}), {row['atoms']} atoms, seed {row['seed']}, "
          f"simd {row['simd_tier']}, nproc {row['nproc']}")
    for name, value in row["metrics"].items():
        extra = ""
        if name == "steps_per_s":
            extra = (f"  ({row['ns_per_day']:.4g} ns/day; wall clock {row['wall_steps_per_s']:.6g}, "
                     f"host factor {row['host_factor']:.3f}, {row['passes']} passes)")
        elif name == "setup_s":
            extra = f"  (wall clock {row['wall_setup_s']:.6g})"
        print(f"  {name:24s} {value:14.6g} {units[name]}{extra}")
    if "step_ms_p50" in row:
        print(f"  {'step_ms_p50':24s} {row['step_ms_p50']:14.6g} ms (not gated)")
        print(f"  {'step_ms_tail':24s} {row['step_ms_tail']:14.6g} ms (not gated; "
              f"q = {row['tail_q']:.4f}, n = {row['tail_n']})")
    print(f"  {'check_fail_frac':24s} {row['check_fail_frac']:14.6g} fraction "
          f"({row['checks_failed']}/{row['checks_attempted']} checks failed)")
    for check, ok, detail in checks:
        if not ok:
            print(f"  FAILED {check}: {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    default=",".join(WORKLOADS), help="comma-separated workloads")
    ap.add_argument("--seed", type=int, help="default: each deck's own seed")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=[0, 1])
    ap.add_argument("--record", nargs="?", const="", metavar="RUN_ID")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        return self_test(bench)
    expected = json.loads((HERE / "expected.json").read_text())
    names = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workload(s) {unknown}; known: {WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    build()

    rows, spans, attempted, failed = [], [], 0, 0
    for name in names:
        try:
            row, checks, wl_spans = run_workload(name, args.seed, seconds,
                                                 args.trace, expected)
        except (BenchError, OSError, ValueError) as e:
            print(f"{name}: FAILED to run: {e}", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        print_row(row, checks, units)
        rows.append(row)
        spans.append((name, wl_spans))
        attempted += row["checks_attempted"]
        failed += row["checks_failed"]

    sha = git_sha()
    meta = {"git_sha": sha, "nproc": os.cpu_count()}
    if rows:
        meta.update({k: rows[0][k] for k in ("compiler", "build_type", "simd_tier")})
    envelope = {"bench": "e2e", "trace": bool(args.trace), "seconds": seconds,
                "meta": meta, "rows": rows}
    (ROOT / "BENCH_e2e.json").write_text(json.dumps(envelope, indent=1) + "\n")
    if args.trace:
        (ROOT / "bench-trace.json").write_text(json.dumps(chrome_trace(spans)) + "\n")
    if args.record is not None:
        print(f"recorded {record(rows, sha, args.record, args.trace)} row(s) "
              f"in {TRAJECTORY.relative_to(ROOT)}")

    def as_metrics(row):
        return {k: {"value": v, "unit": units[k]} for k, v in row["metrics"].items()}

    metrics = (as_metrics(rows[0]) if len(names) == 1 and rows else
               {r["workload"]: as_metrics(r) for r in rows})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# --- Self-test ---------------------------------------------------------------

def canned_doc(trace):
    """A harness result as the C++ side emits it, small enough to check by hand."""
    progress = [0.07 * (k + 1) for k in range(20)]
    progress[9] += 0.8          # one serial rebuild: mean far above median
    for k in range(10, 20):
        progress[k] += 0.8
    first = {"setup_marks": [1.0, 2.5, 0.07], "wall_s": progress[-1], "steps": 20,
             "progress_s": progress, "host_ms": HOST_NOMINAL_MS,
             "final": {"step": 20, "pe": -100.0, "ke": 5.0, "total": -95.0,
                       "temperature": 300.0},
             "thermo_path": "", "thermo_samples": 22, "xyz_frames": 0,
             "checkpoints": 0, "health_events": 0, "observables": []}
    passes = [first, dict(first, setup_marks=[5.0, 6.2, 0.1]),
              dict(first, setup_marks=[9.0, 10.3, 0.1])]
    doc = {"seed": 7, "backend": "sharded:1", "engine": "sharded-wafer",
           "transport": "none", "atoms": 10, "dt_ps": 0.002, "simd_tier": "avx2",
           "nproc": 4, "build": {"compiler": "gcc", "build_type": "Release"},
           "calib_ms": 50.0,
           "stages": [{"kind": "thermalize", "steps": 0}, {"kind": "run", "steps": 20}],
           "passes": passes, "peak_rss_mb": 12.5}
    if trace:
        doc["traced"] = dict(passes[0], wall_s=passes[0]["wall_s"] * 1.25)
        doc["layers"] = {}
    return doc


def self_test(bench):
    failures = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    print("self-test:")
    samples = [float(v) for v in range(1, 101)]
    value, q, n = tail_percentile(samples)
    expect((value, q, n) == (90.0, 0.9, 100), "tail: 10 of 100 samples lie beyond it")
    expect(sum(1 for s in samples if s > value) == TAIL_BEYOND, "tail: exactly 10 beyond")
    try:
        tail_percentile(samples[:10])
        expect(False, "tail: 10 samples are refused")
    except BenchError:
        expect(True, "tail: 10 samples are refused")

    doc = canned_doc(trace=False)
    metrics, context = end_to_end(doc)
    expect(abs(metrics["steps_per_s"] - 20 / doc["passes"][0]["wall_s"]) < 1e-12,
           "throughput = steps / loop wall")
    expect(abs(context["step_ms_p50"] - 70.0) < 1e-9, "median step = 70 ms")
    expect(metrics["steps_per_s"] < 0.7 * 1e3 / context["step_ms_p50"],
           "throughput is not 1 / median step (the rebuild counts)")
    expect(abs(metrics["setup_s"] - 1.2) < 1e-12,
           "setup = median over passes of (first callback - call) - its wall_seconds")
    expect(abs(context["ns_per_day"] - metrics["steps_per_s"] * 0.002 * 86.4) < 1e-12,
           "ns/day = steps/s * dt * 86.4")

    slow = dict(doc["passes"][0], wall_s=doc["passes"][0]["wall_s"] * 3,
                progress_s=[3 * t for t in doc["passes"][0]["progress_s"]])
    m3, c3 = end_to_end(dict(doc, passes=doc["passes"][:2] + [slow]))
    expect(abs(m3["steps_per_s"] - metrics["steps_per_s"]) < 1e-9 and
           abs(c3["step_ms_p50"] - context["step_ms_p50"]) < 1e-9,
           "one slow pass in three moves neither throughput nor median step")

    def on_slow_host(p, f):
        call, first, wall = p["setup_marks"]
        return dict(p, host_ms=f * HOST_NOMINAL_MS, wall_s=f * p["wall_s"],
                    setup_marks=[call, call + f * (first - call - wall) + f * wall, f * wall])
    m4, c4 = end_to_end(dict(doc, passes=[on_slow_host(p, f) for p, f in
                                          zip(doc["passes"], (1.5, 2.0, 1.2))]))
    expect(abs(m4["steps_per_s"] - metrics["steps_per_s"]) < 1e-9 and
           abs(m4["setup_s"] - metrics["setup_s"]) < 1e-9,
           "host-scaled: passes slowed with the probe read as on a nominal host")
    expect(abs(c4["wall_steps_per_s"] - metrics["steps_per_s"] / 1.5) < 1e-9 and
           abs(c4["host_factor"] - 1.5) < 1e-12, "wall-clock rate and host factor kept")

    deck = "name = x\n# seed = 1 (comment)\nseed   = 2024\nrun = 5\n"
    expect(with_seed(deck, 7) == "name = x\n# seed = 1 (comment)\nseed   = 7\nrun = 5\n",
           "seed substitution rewrites only the seed line")
    expect(deck_seed(with_seed(deck, 99)) == 99, "rewritten seed reads back")

    rows = [{"step": 0, "total_eV": -90.0}, {"step": 0, "total_eV": -95.0},
            {"step": 10, "total_eV": -95.2}, {"step": 20, "total_eV": -94.9}]
    expect(abs(nve_spread_per_atom(rows, doc["stages"], 10) - 0.03) < 1e-12,
           "NVE window starts at the last row of its first step")
    tol = {"energy_rel": 1e-3, "energy_abs": 0.1, "temp_abs": 1.0}
    golden = {"pe": -100.0, "total": -95.0, "temperature": 300.0}
    expect(within(dict(golden, pe=-100.05), golden, tol), "band: inside passes")
    expect(not within(dict(golden, temperature=302.0), golden, tol), "band: T outside fails")

    with tempfile.TemporaryDirectory() as tmp:
        thermo = Path(tmp) / "t.csv"
        thermo.write_text("step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
                          "0,-100,0,-100,0\n0,-100,5,-95,300\n"
                          "10,-100,5,-95.01,300\n20,-100,5,-95,300\n")
        doc["passes"][0]["thermo_path"] = str(thermo)
        expected = {"bands": {"wafer": tol},
                    "workloads": {"w": {"default_seed": 7, "band": "wafer",
                                        "nve_spread_per_atom": 0.01, "golden": golden,
                                        "outputs": {"thermo_samples": 22,
                                                    "health_events": 0}}}}
        checks = check_workload("w", doc, expected)
        expect(all(ok for _, ok, _ in checks) and len(checks) == 6,
               f"checks pass on good output ({len(checks)} attempted)")
        expected["workloads"]["w"]["nve_spread_per_atom"] = 1e-4
        expected["workloads"]["w"]["outputs"]["thermo_samples"] = 23
        doc["passes"][2] = dict(doc["passes"][2], final=dict(golden, pe=-99.0))
        bad = sorted(c for c, ok, _ in check_workload("w", doc, expected) if not ok)
        expect(bad == ["nve_drift", "outputs.thermo_samples", "repeat_bitwise"],
               f"checks catch drift, output count and repeat mismatch ({bad})")

    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    row0 = row_of("w", doc, *end_to_end(doc), [("x", True, "")])
    expect(set(row0["metrics"]) == e2e, "untraced row metrics == BENCHMARK.json end_to_end")
    traced = canned_doc(trace=True)
    traced["layers"] = {name: 1.0 for name in layers
                        if name not in ("host.calib_ms", "trace.overhead_frac")}
    lm = per_layer(traced)
    expect(set(lm) == layers, "traced row metrics == BENCHMARK.json per_layer")
    expect(abs(lm["trace.overhead_frac"] - 0.2) < 1e-12, "overhead = 1 - traced/untraced")
    envelope = ROOT / "BENCH_e2e.json"
    if envelope.exists():
        env = json.loads(envelope.read_text())
        want = layers if env["trace"] else e2e
        expect(all(set(r["metrics"]) == want for r in env["rows"]),
               f"{envelope.name} rows name exactly BENCHMARK.json's "
               f"{'per_layer' if env['trace'] else 'end_to_end'} metrics")
    harness = (HERE / "harness.cpp").read_text()
    missing = sorted(n for n in traced["layers"] if f'"{n}"' not in harness)
    expect(not missing, f"the harness emits every other per-layer metric {missing}")

    expect(compare.verdict([10, 10.1, 9.9, 10, 10], [12, 12, 12.1, 11.9, 12],
                           "higher", 0.1) == "improved", "verdict: clear gain")
    expect(compare.verdict([10, 10.1, 9.9, 10, 10], [8, 8, 8.1, 7.9, 8],
                           "higher", 0.1) == "regressed", "verdict: beyond bound")
    expect(compare.verdict([10, 10.1, 9.9, 10, 10], [10, 9.95, 10.05, 10, 10.1],
                           "higher", 0.1) == "unchanged", "verdict: noise")
    expect(compare.verdict([5, 15, 10, 6, 14], [10, 10, 10, 10, 10],
                           "lower", 0.1) == "unresolved", "verdict: spread > bound")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: error: {e}", file=sys.stderr)
        sys.exit(2)
