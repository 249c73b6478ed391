#!/usr/bin/env python3
"""Benchmark of the vpme-scatter solver on one workload.

    python3 perfbench/run.py --workload lingering --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
client runs jobs back to back (a closed loop) for ``--seconds``; BLAS and
OpenMP threads are capped at the number of usable cores.  Set-up time is
measured in fresh processes.  Every job's output passes a correctness gate.
After the measured loop the workload's known-defect probes run, timed apart.

The text summary names every metric with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A traced run runs each job untraced and
then traced on the same input, requires bit-identical outputs, reports the
tracing overhead, and writes its spans to ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("lingering", "theorem-certify", "cli-tabulated")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Cap BLAS/OpenMP threads (before numpy loads) and put ``src/`` on the path."""
    if not (ROOT / "src" / "vpme_scatter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/vpme_scatter under {ROOT}; run from a checkout of the repository")
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)
    sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def work_dir(args) -> Path:
    return WORK_ROOT / f"{args.workload}-seed{args.seed}"


def setup_probe(args) -> int:
    """Child process: set up the workload, report readiness, exit."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, work_dir(args)).setup()
    print("READY", flush=True)
    return 0


def measure_setups(args) -> list[float]:
    """Wall time from process start to the first job being ready, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "READY":
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        times.append(elapsed)
    return times


def run_one(workload, inp, out_dir: Path):
    from workloads import JobRecord

    start = time.perf_counter()
    try:
        return workload.run_job(inp, out_dir)
    except Exception:  # a job that raises is a failed job; the loop goes on
        return JobRecord(ok=False, problems=[traceback.format_exc(limit=4)], job_s=time.perf_counter() - start)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def describe(values: list[float], unit: str) -> str:
    """Median with its sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.4f} {unit} (n={n})"
    if n >= 11:
        k = n - 11
        text += f", p{100.0 * (k + 1) / n:.0f} {sorted(values)[k]:.4f} {unit}"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_probe:
        return setup_probe(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    wd = work_dir(args)
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        return measure(args, spec, wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def measure(args, spec, wd: Path) -> int:
    setups = measure_setups(args)

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, wd)
    first = workload.setup()
    tracer = tracing.Tracer(extra=[(workloads, "certify", "bench.certify", None)]) if args.trace else None

    records, traced, problems, overhead = [], {}, [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        inp = first if index == 0 else workload.make_input(index)
        rec = run_one(workload, inp, wd / f"out{index}")
        records.append(rec)
        problems += [f"job {index}: {p}" for p in rec.problems]
        if tracer is not None:
            job = f"job{index}"
            with tracer.active(job), tracer.span("bench.job"):
                trec = run_one(workload, inp, wd / f"traced{index}")
            traced[job] = trec
            if trec.digest != rec.digest:
                rec.ok = False
                problems.append(f"job {index}: traced outputs differ from untraced ones")
            overhead.append(trec.job_s / rec.job_s - 1.0)
        index += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        with tracer.active("defects"):
            defects = workload.probe_defects()
    else:
        defects = workload.probe_defects()
    problems += [f"known-defect probe: {w}" for w in defects.wrong]

    # Timings come from the jobs that passed their gate; a phase that never
    # completed falls back to whole-job times so every value stays a number.
    timed = [r for r in records if r.ok] or records
    # Known-defect failures are reported in the summary, not counted in the JSON.
    failed = sum(1 for r in records if not r.ok) + len(defects.wrong)
    attempted = len(records) + defects.attempted - defects.known_failures

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{os.environ['OMP_NUM_THREADS']} BLAS/OpenMP threads, {args.seconds:g} s measured"
          + (", traced" if tracer else ""))
    e2e = {
        "setup_s": setups,
        "time_to_solution_s": [r.solve_s for r in timed],
        "certify_s": [r.certify_s for r in timed],
        "job_s": [r.job_s for r in timed],
        "peak_rss_mb": [peak_rss_mb],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in e2e.items():
        print(f"  {name:<20} {describe(values, units[name])}")
    if args.workload == "cli-tabulated":
        print(f"  {'run_s':<20} {describe([r.run_s for r in timed], 's')}  (the `cli.main run` call)")
    print(f"  {'failed_frac':<20} {(failed + defects.known_failures) / (len(records) + defects.attempted):.4f}"
          f"  ({sum(1 for r in records if not r.ok)} of {len(records)} jobs failed their gate; "
          f"probes: {defects.known_failures} known-defect failures and {len(defects.wrong)} wrong results "
          f"of {defects.attempted}" + (f" [{defects.name}, {defects.seconds:.2f} s, timed apart]" if defects.attempted else "") + ")")
    for p in problems:
        print(f"  FAILED {p}")

    if tracer is None:
        metrics = {}
        for name in (m["name"] for m in spec["end_to_end"]):
            finite = [v for v in e2e[name] if math.isfinite(v)] or e2e["job_s"]
            metrics[name] = statistics.median(finite)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        layers = tracing.layer_metrics(tracer, traced)
        layers["trace.overhead_frac"] = statistics.median(overhead)
        print("  per layer (median over traced jobs):")
        for name, value in layers.items():
            print(f"    {name:<38} {value:.6g} {units.get(name) or tracing.TEXT_ONLY[name]}")
        trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = layers
        names = [m["name"] for m in spec["per_layer"]]

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
