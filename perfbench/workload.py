"""One run of one benchmark workload, in its own process.

Usage: python3 perfbench/workload.py --workload NAME --seed N --trace 0|1
                                     --out DIR [--setup-only]

Imports psmpm from the checkout's ``src`` directory, runs the workload
once from its entry call to its last output, checks the outputs against
references computed here, and prints one JSON object as the last line of
standard output.  ``run.py`` starts this script once per workload run.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

from tracer import LAYER_TARGETS, STEP_TARGET, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Manufactured vibrating plate (restated here, not read from psmpm):
# ux = u0 sin(2 pi X) sin(w t), uy = -u0 sin(2 pi Y) sin(w t), w = pi c.
MMS_U0, MMS_E, MMS_RHO = 0.05, 1e7, 1e3
MMS_H, MMS_PPE = 1.0 / 16.0, 256
MMS_PARTICLES = 362 * 362       # lattice of ~256 per element on 512 elements
# A fixed slice of the first period: 6 of the spline family's 423 steps,
# 16 of the hat family's 80.  Hats take more steps so that their
# seed-dependent setup does not dominate their run time.
MMS_STEPS = {"ps": 6, "hat": 16}
# Sanity bound on the time-averaged RMS position error over that slice:
# both families are far below 5 % of the amplitude at h = 1/16.
MMS_MAX_REL_ERROR = 0.05

# Soil column under self-weight: width W, height H, wave speed 10 m/s, so
# the first mode's period is 4H/c = 0.4 s.  The run covers one period.
SOIL_RHO, SOIL_G, SOIL_W, SOIL_H = 1e3, 9.81, 0.1, 1.0
SOIL_PERIOD = 0.4
SOIL_STEPS, SOIL_EVERY, SOIL_PARTICLES = 800, 10, 768
SOIL_BOTTOM_Y = 1.0 / 32.0
SOIL_STATIC_TOL = 0.15

CSV_HEADER = ["id", "x", "y", "ux", "uy", "vx", "vy", "sxx", "syy", "sxy",
              "V", "rho"]


class SetupDone(Exception):
    """Stops a setup-only run when its first step is called."""


class StepProbe:
    """Wraps ``MpmSystem.step`` outside its span: notes when setup ends,
    keeps the particle set, its initial masses and, for the plate, the
    independent error sum.  With ``setup_only`` the first step raises
    ``SetupDone`` instead of running.

    ``overhead_s`` is the time spent here, which the run time excludes.
    """

    def __init__(self, mpm_core, exact=None, setup_only=False):
        self.setup_end = None
        self.particles = None
        self.m0 = None
        self.err2 = 0.0
        self.steps = 0
        self.overhead_s = 0.0
        inner = mpm_core.MpmSystem.step
        probe = self

        def step(system, particles, t=0.0):
            clock = time.perf_counter()
            if probe.particles is None:
                probe.setup_end = clock
                if setup_only:
                    raise SetupDone
                probe.particles = particles
                probe.m0 = particles.m.copy()
            probe.overhead_s += time.perf_counter() - clock
            inner(system, particles, t)
            clock = time.perf_counter()
            probe.steps += 1
            if exact is not None:
                # run() reports the end-of-step time as t0 + (i + 1) dt
                t_end = probe.steps * system.dt
                diff = particles.x - exact(particles.x0, t_end)
                probe.err2 += float(np.sum(diff ** 2))
            probe.overhead_s += time.perf_counter() - clock

        mpm_core.MpmSystem.step = step


def mms_exact_positions(x0, t):
    c = math.sqrt(MMS_E / MMS_RHO)
    w = math.pi * c
    ux = MMS_U0 * np.sin(2.0 * np.pi * x0[:, 0]) * math.sin(w * t)
    uy = -MMS_U0 * np.sin(2.0 * np.pi * x0[:, 1]) * math.sin(w * t)
    return x0 + np.column_stack([ux, uy])


def particle_digest(p, files=()):
    h = hashlib.sha256()
    for arr in (p.x, p.u, p.v, p.D, p.J, p.sigma, p.V, p.rho, p.m):
        h.update(np.ascontiguousarray(arr).tobytes())
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_mms(kind, seed, setup_only, benchmarks, mpm_core):
    probe = StepProbe(mpm_core, mms_exact_positions, setup_only)
    t0 = time.perf_counter()
    try:
        spec = benchmarks.mms_plate_spec(kind, MMS_H, MMS_PPE, seed=seed)
        spec.t_end = MMS_STEPS[kind] * spec.dt
        result = benchmarks.run_mms(spec)
    except SetupDone:
        return {"setup_s": probe.setup_end - t0}
    run_s = time.perf_counter() - t0 - probe.overhead_s
    rss = peak_rss_mb()

    p = probe.particles
    rms = math.sqrt(probe.err2 / (p.n * probe.steps))
    checks = {
        "steps": probe.steps == MMS_STEPS[kind],
        "particles": p.n == MMS_PARTICLES,
        "mass_bitwise": bool(np.array_equal(p.m, probe.m0)),
        "finite": bool(np.isfinite(p.x).all() and np.isfinite(p.sigma).all()),
        "jacobian_positive": bool((p.J > 0.0).all()),
        "rms_matches_closed_form": abs(result.rms - rms) <= 1e-9 * rms,
        "rms_below_bound": rms / MMS_U0 <= MMS_MAX_REL_ERROR,
    }
    return {"setup_s": probe.setup_end - t0, "run_s": run_s,
            "peak_rss_mb": rss, "rel_error": rms / MMS_U0, "checks": checks,
            "digest": particle_digest(p), "steps": probe.steps}


def parse_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_frame(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ids = [int(r[0]) for r in body]
    values = [[float(v) for v in r[1:]] for r in body]
    ok = (header == CSV_HEADER and ids == list(range(len(body)))
          and all(len(r) == 11 for r in values)
          and all(math.isfinite(v) for r in values for v in r))
    return ok, values


def check_soil_frames(out_dir, p):
    frames = sorted(glob.glob(os.path.join(out_dir, "frame_*.csv")))
    expected = [os.path.join(out_dir, f"frame_{s:06d}.csv")
                for s in range(0, SOIL_STEPS + 1, SOIL_EVERY)]
    checks = {"frame_files": frames == expected}
    parsed = [read_frame(path) for path in frames]
    checks["frames_parse"] = all(ok and len(v) == SOIL_PARTICLES
                                 for ok, v in parsed)
    if not (checks["frame_files"] and checks["frames_parse"]):
        return checks
    # bottom particles picked from the undeformed frame 0; sigma_yy is
    # averaged over the frames of one whole period (t in (0, 0.4 s])
    bottom = [i for i, row in enumerate(parsed[0][1])
              if row[1] <= SOIL_BOTTOM_Y]
    syy = 7
    avg = sum(sum(v[i][syy] for i in bottom) / len(bottom)
              for _, v in parsed[1:]) / (len(parsed) - 1)
    static = -SOIL_RHO * SOIL_G * SOIL_H
    checks["bottom_stress_static"] = \
        abs(avg - static) <= SOIL_STATIC_TOL * abs(static)
    final = parsed[-1][1]
    checks["final_frame_roundtrip"] = all(
        final[i][0] == p.x[i, 0] and final[i][1] == p.x[i, 1]
        and final[i][syy] == p.sigma[i, 1, 1] for i in range(p.n))
    return checks


def run_soil(seed, setup_only, out_dir, cli_io, mpm_core):
    probe = StepProbe(mpm_core, setup_only=setup_only)
    config = os.path.join(out_dir, "soil.ini")
    with open(config, "w") as fh:
        fh.write("[run]\nbenchmark = soil\nbasis = ps\nmass_mode = partial\n"
                 f"t_end = {SOIL_PERIOD!r}\noutput_every = {SOIL_EVERY}\n")
    t0 = time.perf_counter()
    try:
        code = cli_io.cli(["run", config, "--output-dir", out_dir,
                           "--seed", str(seed), "--quiet"])
    except SetupDone:
        return {"setup_s": probe.setup_end - t0}
    run_s = time.perf_counter() - t0 - probe.overhead_s
    rss = peak_rss_mb()

    p = probe.particles
    summary = parse_summary(os.path.join(out_dir, "summary.txt"))
    mass = SOIL_RHO * SOIL_W * SOIL_H
    checks = {
        "exit_code": code == 0,
        "steps": probe.steps == SOIL_STEPS,
        "mass_bitwise": bool(np.array_equal(p.m, probe.m0)),
        "summary_mass": abs(float(summary["total_mass"]) - mass)
        <= 1e-12 * mass,
        "summary_drift": float(summary["mass_drift"]) == 0.0,
        "summary_steps": int(summary["n_steps"]) == SOIL_STEPS,
    }
    vtk = os.path.join(out_dir, "final.vtk")
    with open(vtk) as fh:
        checks["vtk_points"] = f"POINTS {SOIL_PARTICLES} double" in fh.read()
    checks.update(check_soil_frames(out_dir, p))

    # deviation of sigma_yy from the static profile -rho g (H - y0) at the end
    static = -SOIL_RHO * SOIL_G * (SOIL_H - p.x0[:, 1])
    rel = float(np.sqrt(np.mean((p.sigma[:, 1, 1] - static) ** 2))
                / (SOIL_RHO * SOIL_G * SOIL_H))
    outputs = sorted(glob.glob(os.path.join(out_dir, "frame_*.csv"))) + [vtk]
    return {"setup_s": probe.setup_end - t0, "run_s": run_s,
            "peak_rss_mb": rss, "rel_error": rel, "checks": checks,
            "digest": particle_digest(p, outputs), "steps": probe.steps}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mms_ps", "mms_hat", "soil_partial"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first step and report setup_s only")
    args = ap.parse_args(argv)

    import psmpm
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(psmpm.__file__), src]) != src:
        sys.exit(f"psmpm imported from {psmpm.__file__}, not from {src}")
    from psmpm import benchmarks, cli_io, mpm_core

    tracer = Tracer()
    tracer.install([STEP_TARGET])
    if tracer.missing:
        sys.exit(f"cannot time steps: {tracer.missing} not found")
    if args.trace:
        tracer.install(LAYER_TARGETS)
        tracer.count_cg_iterations()

    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    seed = args.seed % 2 ** 32
    if args.workload == "soil_partial":
        result = run_soil(seed, args.setup_only, args.out, cli_io, mpm_core)
    else:
        result = run_mms(args.workload[4:], seed, args.setup_only,
                         benchmarks, mpm_core)
    result["step_s"] = tracer.step_durations()
    if args.trace:
        result["layers"], result["traced_step_ms"] = tracer.reduce()
        result["missing"] = tracer.missing
        tracer.dump(os.path.join(args.out, "trace.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
