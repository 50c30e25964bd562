"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  The expensive manufactured-solution sweeps are shared
across criteria through session-scoped fixtures.
"""

import time

import numpy as np
import pytest

import psmpm.benchmarks as bm
from psmpm.basis import ps_basis
from psmpm.cli_io import basis_invariant_report, generate_mesh
from psmpm.errors import SolverDiverged
from psmpm.mesh import ps_refine
from psmpm.mpm_core import MassMode, MpmSystem, ParticleLayout, init_particles

SEED = 7
H_SWEEP = (0.25, 0.125, 0.0625)
PPE_SWEEP = (16, 64, 256)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


class MassLedger:
    """Collects relative mass drift across every acceptance run."""
    worst = 0.0

    @classmethod
    def track(cls, system, particles, n_steps, on_step=None):
        m0 = particles.m.copy()
        total0 = particles.total_mass()
        system.run(particles, n_steps, on_step=on_step)
        drift = abs(particles.total_mass() - total0) / total0
        if not np.array_equal(particles.m, m0):
            drift = max(drift, np.abs(particles.m - m0).max() / m0.max())
        cls.worst = max(cls.worst, drift)
        return particles


@pytest.fixture(scope="session")
def ps_h_sweep():
    """Spline-family h sweep at 256 ppe (criterion 2)."""
    t0 = time.time()
    report_obj = bm.convergence_study("ps", H_SWEEP, (256,), seed=SEED)
    report_obj.runtime = time.time() - t0
    return report_obj


@pytest.fixture(scope="session")
def hat_h_sweep():
    t0 = time.time()
    report_obj = bm.convergence_study("hat", H_SWEEP, (256,), seed=SEED)
    report_obj.runtime = time.time() - t0
    return report_obj


@pytest.fixture(scope="session")
def ps_ppe_sweep():
    """Spline-family particle sweep at h = 1/8 (criterion 4); the smaller
    Courant keeps the low-ppe consistent runs in their stable regime."""
    return bm.convergence_study("ps", (0.125,), PPE_SWEEP, seed=SEED,
                                courant=0.08)


@pytest.fixture(scope="session")
def soil_runs():
    """Lumped and partially lumped soil columns, plus bottom-stress series."""
    out = {}
    for mode in (MassMode.LUMPED, MassMode.PARTIAL):
        spec = bm.soil_column_spec(mode)
        system, parts = bm.build_system(spec)
        bottom = []
        sel = parts.x0[:, 1] <= 1.0 / 32

        def on_step(i, t, p, bottom=bottom, sel=sel):
            if t >= 2.0:
                bottom.append(p.sigma[sel, 1, 1].mean())

        MassLedger.track(system, parts, spec.n_steps, on_step=on_step)
        deviation = parts.sigma[:, 1, 1] - bm.soil_static_stress(parts.x0[:, 1])
        out[mode] = {
            "rms_deviation": float(np.sqrt(np.mean(deviation ** 2))),
            "bottom_avg": float(np.mean(bottom)),
        }
    return out


def test_criterion_1_basis_invariants():
    """Spline basis invariant battery on five seeded unstructured meshes."""
    t0 = time.time()
    worst = {}
    for seed in range(5):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=seed)
        basis = ps_basis(ps_refine(tri))
        rep = basis_invariant_report(basis)
        for key, value in rep.items():
            worst[key] = max(worst.get(key, 0.0), value)
    runtime = time.time() - t0
    limits = {"partition_of_unity": 1e-10, "gradient_sum": 1e-9,
              "negativity": 1e-12, "c1_value": 1e-9, "c1_gradient": 1e-9,
              "linear_reproduction": 1e-10, "control_containment": 1e-10}
    ok = all(worst[k] <= v for k, v in limits.items()) and runtime < 10.0
    detail = (", ".join(f"{k}={worst[k]:.1e}" for k in limits)
              + f", runtime={runtime:.1f}s (<10s)")

    # analytic vs finite-difference gradients on the last basis
    rng = np.random.default_rng(0)
    fd_worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 0.95, 2)
        step = 1e-6
        def dense(q):
            dofs, vals, _ = basis.eval_at(q)
            out = np.zeros(basis.n_bf)
            out[dofs] = vals
            return out
        dofs, vals, grads = basis.eval_at(p)
        full_g = np.zeros((basis.n_bf, 2))
        full_g[dofs] = grads
        fd = np.column_stack([
            (dense(p + [step, 0]) - dense(p - [step, 0])) / (2 * step),
            (dense(p + [0, step]) - dense(p - [0, step])) / (2 * step)])
        scale = max(1.0, np.abs(full_g).max())
        fd_worst = max(fd_worst, np.abs(fd - full_g).max() / scale)
    ok = ok and fd_worst < 1e-5
    report(1, ok, detail + f", fd_gradients={fd_worst:.1e}")


def test_criterion_2_ps_spatial_convergence(ps_h_sweep):
    """Spline-family spatial order on the manufactured plate."""
    slope = ps_h_sweep.slope_over_h("ps", 256)
    rows = [(r.h, r.rms) for r in ps_h_sweep.rows]
    ok = 2.5 <= slope <= 3.5 and ps_h_sweep.runtime < 600.0
    report(2, ok, f"slope={slope:.2f} in [2.5, 3.5], "
                  f"errors={['%.2e' % r[1] for r in sorted(rows)]}, "
                  f"runtime={ps_h_sweep.runtime:.0f}s (<600s)")


def test_criterion_3_hat_spatial_convergence(hat_h_sweep):
    """Hat-family spatial order on the manufactured plate."""
    slope = hat_h_sweep.slope_over_h("hat", 256)
    ok = 1.7 <= slope <= 2.4 and hat_h_sweep.runtime < 300.0
    report(3, ok, f"slope={slope:.2f} in [1.7, 2.4], "
                  f"runtime={hat_h_sweep.runtime:.0f}s (<300s)")


def test_criterion_4_particle_count_convergence(ps_ppe_sweep):
    """First-order decay of the quadrature error in per-dimension count."""
    slope = ps_ppe_sweep.slope_over_ppe("ps", ps_ppe_sweep.rows[0].h)
    ok = -1.4 <= slope <= -0.6
    report(4, ok, f"slope={slope:.2f} in [-1.4, -0.6]")


def test_criterion_5_grid_crossing():
    """Matched-dof runs: spline stress stays smooth where hats jump."""
    spec_std = bm.mms_plate_spec("hat", 0.0625, 10, seed=SEED)
    spec_std.layout = ParticleLayout(kind="lattice", nx=72, ny=72,
                                     domain=(0.0, 0.0, 1.0, 1.0))
    spec_ps = bm.mms_plate_spec("ps", 0.125, 40, seed=SEED)
    spec_ps.layout = ParticleLayout(kind="lattice", nx=72, ny=72,
                                    domain=(0.0, 0.0, 1.0, 1.0))
    n_std = spec_std.tri.n_nodes
    n_ps = 3 * spec_ps.tri.n_nodes
    res_std = bm.run_mms(spec_std, trace_point=(0.25, 0.47))
    res_ps = bm.run_mms(spec_ps, trace_point=(0.25, 0.47))
    jump_std = float(np.abs(np.diff(res_std.traced_sigma_xx)).max())
    jump_ps = float(np.abs(np.diff(res_ps.traced_sigma_xx)).max())
    ok = (jump_ps <= 0.2 * jump_std
          and res_ps.traced_rms < res_std.traced_rms
          and abs(n_std - 289) <= 10 and abs(n_ps - 243) <= 10)
    report(5, ok,
           f"dofs {n_std}/{n_ps} (~289/~243), jump ratio "
           f"{jump_ps / jump_std:.3f} (<=0.2), traced rms "
           f"{res_ps.traced_rms:.2e} < {res_std.traced_rms:.2e}")


def test_criterion_6_vibrating_bar():
    """Amplitude, period, and stress smoothness of the vibrating bar."""
    spec = bm.vibrating_bar_spec()
    system, parts = bm.build_system(spec)
    traced = int(np.argmin(np.hypot(parts.x0[:, 0] - 0.5,
                                    parts.x0[:, 1] - 1.0)))
    u_mid = np.empty(spec.n_steps)
    energy = np.empty(spec.n_steps)

    def on_step(i, t, p):
        u_mid[i] = p.u[traced, 0]
        kinetic = 0.5 * np.sum(p.m * (p.v ** 2).sum(axis=1))
        strain = 0.5 * (p.D + np.swapaxes(p.D, 1, 2)) - np.eye(2)
        elastic = 0.5 * np.sum(p.V * np.einsum('pij,pij->p', p.sigma, strain))
        energy[i] = kinetic + elastic

    MassLedger.track(system, parts, spec.n_steps, on_step=on_step)

    amplitude = (u_mid.max() - u_mid.min()) / 2.0
    amp_target = 0.1 * 1.0 / (np.pi * np.sqrt(50.0 / 25.0))
    sign = np.sign(u_mid)
    down = np.nonzero((sign[:-1] > 0) & (sign[1:] <= 0))[0]
    period = float(np.diff(down).mean() * spec.dt)
    period_target = 2.0 / np.sqrt(2.0)

    steps_per_period = int(round(period_target / spec.dt))
    drift = abs(energy[steps_per_period - 1] - energy[0]) / energy[0]

    nbins = 20
    bins = np.clip((parts.x[:, 0] * nbins).astype(int), 0, nbins - 1)
    profile = np.array([parts.sigma[bins == b, 0, 0].mean()
                        for b in range(nbins)])
    diffs = np.diff(profile)
    threshold = 0.05 * np.abs(profile).max()
    alternations = sum(
        1 for i in range(len(diffs) - 1)
        if diffs[i] * diffs[i + 1] < 0
        and abs(diffs[i]) > threshold and abs(diffs[i + 1]) > threshold)

    ok = (abs(amplitude - amp_target) <= 0.1 * amp_target
          and abs(period - period_target) <= 0.1 * period_target
          and alternations == 0 and drift < 0.05)
    report(6, ok,
           f"amplitude {amplitude:.4f} (target {amp_target:.4f} ±10%), "
           f"period {period:.3f} (target {period_target:.3f} ±10%), "
           f"energy drift {drift:.1%} (<5%), "
           f"profile alternations {alternations} (=0)")


def test_criterion_7_soil_column(soil_runs):
    """Static limit, consistent-mode divergence, lumping contrast."""
    spec = bm.soil_column_spec(MassMode.CONSISTENT)
    system, parts = bm.build_system(spec)
    diverged = False
    try:
        system.run(parts, spec.n_steps)
    except SolverDiverged:
        diverged = True

    partial = soil_runs[MassMode.PARTIAL]
    lumped = soil_runs[MassMode.LUMPED]
    static = -9810.0
    bottom_err = abs(partial["bottom_avg"] - static) / abs(static)
    ratio = lumped["rms_deviation"] / partial["rms_deviation"]
    ok = diverged and bottom_err <= 0.15 and ratio >= 3.0
    report(7, ok,
           f"consistent diverged={diverged}, partial bottom sigma "
           f"{partial['bottom_avg']:.0f} vs {static:.0f} "
           f"({bottom_err:.1%} <= 15%), lumped/partial profile deviation "
           f"{lumped['rms_deviation']:.0f}/{partial['rms_deviation']:.0f} "
           f"= {ratio:.2f}x (>= 3x)")


def test_criterion_8_conservation():
    """Mass conservation across the suite and quiescent fixed point."""
    tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=SEED)
    basis = ps_basis(ps_refine(tri))
    system = MpmSystem(basis, bm.MaterialModel("linear-elastic", E=100.0,
                                               nu=0.2), dt=1e-3)
    parts = init_particles(basis.locator,
                           ParticleLayout(kind="lattice", nx=12, ny=12),
                           rho0=3.0)
    MassLedger.track(system, parts, 100)
    quiescent = float(np.abs(parts.u).max())
    ok = quiescent < 1e-12 and MassLedger.worst == 0.0
    report(8, ok, f"quiescent displacement {quiescent:.1e} (<1e-12), "
                  f"worst relative mass drift {MassLedger.worst:.1e} (=0)")
