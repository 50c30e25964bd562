"""Benchmark command for psmpm: spline and hat MMS plates, CLI soil column.

Usage: python3 perfbench/run.py --workload {mms_ps,mms_hat,soil_partial}
                                --seed N --seconds S --trace {0,1}

Runs whole workload runs, one fresh process each (``workload.py``), one
after another, until the next one would end after ``--seconds``; at least
two run.  Time left over goes to setup-only runs, which stop at the first
step and add samples to the setup time.  BLAS/OpenMP threads are capped
at the number of usable cores.

With ``--trace 0`` it prints the end-to-end metrics: median setup time,
median step time over every step of every run, median run time, median
peak RSS and the relative error.  With ``--trace 1`` it alternates
untraced and traced runs and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted`` (steps), ``failed`` and
``metrics``.  Run it from the repository root; no install is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS, STEP_LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mms_ps", "mms_hat", "soil_partial")
# every workload run is killed once the whole command has taken this long
HARD_LIMIT_S = 175.0
STARTED = time.perf_counter()
MAX_SETUP_RUNS = 10
# interpreter start and imports of a workload process, before its first
# setup-only run has been timed
PROCESS_START_S = 1.5

# The step-layer metrics must add up to the traced mean step time within
# this share; a gap means a step calls code no step layer accounts for.
STEP_SUM_TOL = 0.01


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_once(workload, seed, trace, setup_only=False):
    out_dir = os.path.join(HERE, "out", workload)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, STARTED + HARD_LIMIT_S - start))
    if proc.returncode != 0:
        sys.exit(f"{workload} run failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} run printed no result")
    return json.loads(lines[-1]), time.perf_counter() - start


def run_rounds(workload, seed, deadline, modes):
    """Repeat the runs in ``modes`` as whole rounds until the deadline."""
    results = {m: [] for m in modes}
    longest = 0.0
    while True:
        round_s = 0.0
        for mode in modes:
            res, wall = run_once(workload, seed, mode)
            results[mode].append(res)
            round_s += wall
        longest = max(longest, round_s)
        done = sum(len(r) for r in results.values())
        if done >= 2 and time.perf_counter() + longest > deadline:
            return results


def setup_samples(workload, seed, deadline, runs):
    """Setup times of the whole runs plus setup-only runs in the time left."""
    samples = [r["setup_s"] for r in runs]
    expected = max(samples) + PROCESS_START_S
    for _ in range(MAX_SETUP_RUNS):
        if time.perf_counter() + expected > deadline:
            break
        res, wall = run_once(workload, seed, 0, setup_only=True)
        samples.append(res["setup_s"])
        expected = wall
    return samples


def checks_pass(runs):
    ok = True
    for i, res in enumerate(runs):
        for name, passed in res["checks"].items():
            if not passed:
                print(f"check failed (run {i}): {name}")
                ok = False
    return ok


def end_to_end(runs, setups):
    steps = [s for r in runs for s in r["step_s"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "step_ms": (1e3 * statistics.median(steps), "ms"),
        "run_s": (statistics.median(r["run_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MiB"),
        "rel_error": (statistics.median(r["rel_error"] for r in runs), "1"),
    }


def per_layer(plain, traced):
    out = {name: (statistics.fmean(r["layers"][name] for r in traced), unit)
           for name, unit in LAYER_METRICS}
    missing = sorted({m for r in traced for m in r["missing"]})
    for name in missing:
        print(f"layer missing: {name} (its metrics read 0)")
    layers_ms = sum(out[name][0] for name in STEP_LAYER_METRICS)
    step_ms = statistics.fmean(r["traced_step_ms"] for r in traced)
    ratio = layers_ms / step_ms
    status = "PASS" if abs(ratio - 1.0) <= STEP_SUM_TOL else "OUTSIDE"
    print(f"step layers {layers_ms:.6g} ms / traced step {step_ms:.6g} ms "
          f"= {ratio:.6f} ({status}, tolerance {STEP_SUM_TOL:.0%})")
    out["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain), "s")
    out["trace.missing_layers"] = (len(missing), "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "psmpm", "__init__.py")):
        sys.exit(f"no psmpm sources under {ROOT}/src")

    deadline = time.perf_counter() + args.seconds
    modes = (0, 1) if args.trace else (0,)
    results = run_rounds(args.workload, args.seed, deadline, modes)
    runs = [r for m in modes for r in results[m]]
    digests = {r["digest"] for r in runs}
    correct = checks_pass(runs)
    if len(digests) != 1:
        print("check failed: particle outputs differ between runs "
              f"({len(digests)} distinct digests)")
        correct = False

    setups = []
    if args.trace:
        metrics = per_layer(results[0], results[1])
    else:
        setups = setup_samples(args.workload, args.seed, deadline, runs)
        metrics = end_to_end(runs, setups)
    print(f"{args.workload} seed={args.seed} runs={len(runs)} "
          f"setup samples={len(setups)} correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["steps"] for r in runs),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
