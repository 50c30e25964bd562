"""Exact solutions, body forces, error metric, and benchmark specs."""

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import psmpm
import psmpm.benchmarks as bm
from psmpm.errors import ValidationError
from psmpm.mesh import ps_refine
from psmpm.mpm_core import MassMode, MaterialModel


class TestManufacturedSolution:
    def test_starts_at_rest_configuration(self):
        # sin(pi) in the antiphase component leaves ~1e-16 round-off
        ux, uy, dxx, dyy = bm.mms_exact(np.array([0.3, 0.7]), 0.0)
        assert abs(ux) < 1e-16 and abs(uy) < 1e-16
        assert abs(dxx - 1.0) < 1e-15 and abs(dyy - 1.0) < 1e-15

    def test_period(self):
        assert_allclose(bm.MMS.period, 0.02, rtol=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, t = rng.random(3)
            a = bm.mms_exact(np.array([x, y]), t)
            b = bm.mms_exact(np.array([x, y]), t + bm.MMS.period)
            assert_allclose(a, b, atol=1e-12)

    def test_quarter_period_peak(self):
        # at t = 0.005 the phase is pi/2; at x0 = 0.25 the sine is 1
        ux, _, _, _ = bm.mms_exact(np.array([0.25, 0.0]), 0.005)
        assert_allclose(ux, 0.05, rtol=1e-12)

    def test_velocity_is_time_derivative(self):
        rng = np.random.default_rng(1)
        h = 1e-7
        for _ in range(20):
            x, y, t = rng.random(3)
            vx, vy = bm.mms_velocity(np.array([x, y]), t)
            uxp, uyp, _, _ = bm.mms_exact(np.array([x, y]), t + h)
            uxm, uym, _, _ = bm.mms_exact(np.array([x, y]), t - h)
            assert_allclose(vx, (uxp - uxm) / (2 * h), rtol=1e-6, atol=1e-8)
            assert_allclose(vy, (uyp - uym) / (2 * h), rtol=1e-6, atol=1e-8)

    def test_body_force_zero_at_t0(self):
        gx, gy = bm.mms_body_force(np.array([0.37, 0.81]), 0.0)
        assert abs(gx) < 1e-11 and abs(gy) < 1e-11

    def test_body_force_xy_symmetry(self):
        # swapping axes and shifting the phase by half a period exchanges
        # the two components
        rng = np.random.default_rng(2)
        shift = bm.MMS.period / 2.0
        for _ in range(20):
            x, y, t = rng.random(3)
            gx, gy = bm.mms_body_force(np.array([x, y]), t)
            gx2, gy2 = bm.mms_body_force(np.array([y, x]), t + shift)
            assert_allclose(gy, gx2, rtol=1e-10, atol=1e-12)
            assert_allclose(gx, gy2, rtol=1e-10, atol=1e-12)

    def test_body_force_double_entry_spot_value(self):
        # independent scalar re-implementation of the forcing bracket
        x0 = y0 = 0.25
        t = 0.005
        p = bm.MMS
        w = np.sqrt(p.E / p.rho0) * np.pi
        ux = p.u0 * np.sin(2 * np.pi * x0) * np.sin(w * t)
        dxx = 1 + 2 * p.u0 * np.pi * np.cos(2 * np.pi * x0) * np.sin(w * t)
        dyy = 1 + 2 * p.u0 * np.pi * np.cos(2 * np.pi * y0) * np.sin(w * t + np.pi)
        lam = p.E * p.nu / ((1 + p.nu) * (1 - 2 * p.nu))
        mu = p.E / (2 * (1 + p.nu))
        expected = (np.pi ** 2) * ux * (
            4 * mu / p.rho0 - p.E / p.rho0
            - 4 * (lam * (np.log(dxx * dyy) - 1) - mu) / (p.rho0 * dxx ** 2))
        gx, _ = bm.mms_body_force(np.array([x0, y0]), t)
        assert_allclose(gx, expected, rtol=1e-14)

    def test_momentum_balance_finite_difference_oracle(self):
        # rho * a = d(sigma)/dx + rho * g must balance to < 1e-6 relative
        # with the neo-Hookean stress of the manufactured deformation
        p = bm.MMS
        mat = MaterialModel("neo-hookean", E=p.E, nu=p.nu)
        lam, mu = mat.lam, mat.mu

        def sigma_axis(x0, y0, t, axis):
            _, _, dxx, dyy = bm.mms_exact(np.array([x0, y0]), t)
            j = dxx * dyy
            d = dxx if axis == 0 else dyy
            return lam * np.log(j) / j + mu / j * (d * d - 1.0)

        rng = np.random.default_rng(3)
        delta = 1e-6
        worst = 0.0
        for _ in range(100):
            x0, y0 = rng.uniform(0.05, 0.95, 2)
            t = rng.uniform(0.0, p.period)
            ux, uy, dxx, dyy = bm.mms_exact(np.array([x0, y0]), t)
            j = dxx * dyy
            rho = p.rho0 / j
            gx, gy = bm.mms_body_force(np.array([x0, y0]), t)
            # x balance: current-configuration divergence via the chain rule
            sp_ = sigma_axis(x0 + delta, y0, t, 0)
            sm_ = sigma_axis(x0 - delta, y0, t, 0)
            xp = x0 + delta + bm.mms_exact(np.array([x0 + delta, y0]), t)[0]
            xm = x0 - delta + bm.mms_exact(np.array([x0 - delta, y0]), t)[0]
            ds_dx = (sp_ - sm_) / (xp - xm)
            ax = -(p.E / p.rho0) * np.pi ** 2 * ux
            scale = max(abs(rho * ax), abs(ds_dx), abs(rho * gx), 1.0)
            worst = max(worst, abs(rho * ax - ds_dx - rho * gx) / scale)
            # y balance
            sp_ = sigma_axis(x0, y0 + delta, t, 1)
            sm_ = sigma_axis(x0, y0 - delta, t, 1)
            yp = y0 + delta + bm.mms_exact(np.array([x0, y0 + delta]), t)[1]
            ym = y0 - delta + bm.mms_exact(np.array([x0, y0 - delta]), t)[1]
            ds_dy = (sp_ - sm_) / (yp - ym)
            ay = -(p.E / p.rho0) * np.pi ** 2 * uy
            scale = max(abs(rho * ay), abs(ds_dy), abs(rho * gy), 1.0)
            worst = max(worst, abs(rho * ay - ds_dy - rho * gy) / scale)
        assert worst < 1e-6


# Uncached closed forms of the manufactured fields, in the operation order
# the cached ones must keep: the bitwise reference for them.
def ref_exact(x0, y0, t):
    p = bm.MMS
    w = p.omega
    sx = np.sin(w * t)
    sy = np.sin(w * t + np.pi)
    ux = p.u0 * np.sin(2.0 * np.pi * np.asarray(x0)) * sx
    uy = p.u0 * np.sin(2.0 * np.pi * np.asarray(y0)) * sy
    dxx = 1.0 + 2.0 * p.u0 * np.pi * np.cos(2.0 * np.pi * np.asarray(x0)) * sx
    dyy = 1.0 + 2.0 * p.u0 * np.pi * np.cos(2.0 * np.pi * np.asarray(y0)) * sy
    return ux, uy, dxx, dyy


def ref_velocity(x0, y0, t):
    p = bm.MMS
    w = p.omega
    vx = p.u0 * np.sin(2.0 * np.pi * np.asarray(x0)) * w * np.cos(w * t)
    vy = p.u0 * np.sin(2.0 * np.pi * np.asarray(y0)) * w * np.cos(w * t + np.pi)
    return vx, vy


def ref_body_force(x0, y0, t):
    ux, uy, dxx, dyy = ref_exact(x0, y0, t)
    material = bm.MMS.material
    lam, mu = material.lam, material.mu
    rho0, e = bm.MMS.rho0, bm.MMS.E
    ln_j = np.log(dxx * dyy)
    gx = np.pi ** 2 * ux * (4.0 * mu / rho0 - e / rho0
                            - 4.0 * (lam * (ln_j - 1.0) - mu) / (rho0 * dxx ** 2))
    gy = np.pi ** 2 * uy * (4.0 * mu / rho0 - e / rho0
                            - 4.0 * (lam * (ln_j - 1.0) - mu) / (rho0 * dyy ** 2))
    return gx, gy


def ref_fields(x0, t):
    """(body force, exact positions, velocity), each (n, 2), of x0 (n, 2)."""
    x, y = x0[:, 0], x0[:, 1]
    ux, uy, _, _ = ref_exact(x, y, t)
    return (np.column_stack(ref_body_force(x, y, t)),
            x0 + np.column_stack([ux, uy]),
            np.column_stack(ref_velocity(x, y, t)))


class TestCachedFactors:
    @staticmethod
    def plates():
        return [bm.build_system(bm.mms_plate_spec(kind, 0.25, 16, seed=seed))
                for kind, seed in (("hat", 7), ("ps", 3))]

    def test_fields_equal_closed_form_bitwise(self):
        plates = self.plates()
        dt = plates[0][0].dt
        for _, parts in plates:
            assert parts.v.tobytes() == ref_fields(parts.x0, 0.0)[2].tobytes()
        # the plates alternate, so the slot switches on every call
        for t in (0.0, dt, 0.37 * bm.MMS.period, bm.MMS.period):
            for _, parts in plates:
                got = (bm.mms_body_force(parts.x0, t),
                       bm.mms_exact_positions(parts.x0, t),
                       bm.mms_velocity(parts.x0, t))
                for a, b in zip(got, ref_fields(parts.x0, t)):
                    assert a.shape == b.shape and a.flags.c_contiguous
                    assert a.tobytes() == b.tobytes(), t

    def test_spatial_trig_runs_once_per_particle_set(self, monkeypatch):
        (_, first), (_, second) = self.plates()
        sizes = []

        def counted(fn):
            def wrapper(arg, *args, **kwargs):
                sizes.append(np.size(arg))
                return fn(arg, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "sin", counted(np.sin))
        monkeypatch.setattr(np, "cos", counted(np.cos))

        def spatial_calls(call, x0, t=1e-3):
            sizes.clear()
            call(x0, t)
            return sum(size > 1 for size in sizes)

        # the slot holds the plate built last, and switches on each change
        for call in (bm.mms_body_force, bm.mms_exact_positions,
                     bm.mms_velocity):
            assert spatial_calls(call, first.x0) == 4
            assert spatial_calls(call, first.x0) == 0
            assert spatial_calls(call, second.x0) == 4
        # a writeable copy is evaluated afresh and leaves the slot alone
        copy = second.x0.copy()
        assert spatial_calls(bm.mms_body_force, copy) == 4
        assert spatial_calls(bm.mms_body_force, copy) == 4
        assert spatial_calls(bm.mms_body_force, second.x0) == 0


def allocating_body_force(x0, t):
    """``mms_body_force`` as a chain of allocating expressions: the
    reference for its in-place form, operation for operation."""
    ux, uy, dxx, dyy = bm.mms_exact(x0, t)
    material = bm.MMS.material
    lam, mu = material.lam, material.mu
    rho0, e = bm.MMS.rho0, bm.MMS.E
    const = 4.0 * mu / rho0 - e / rho0
    log_term = 4.0 * (lam * (np.log(dxx * dyy) - 1.0) - mu)
    gx = np.pi ** 2 * ux * (const - log_term / (rho0 * dxx ** 2))
    gy = np.pi ** 2 * uy * (const - log_term / (rho0 * dyy ** 2))
    return np.stack([gx, gy], axis=-1)


class TestBodyForceInPlace:
    TIMES = (0.0, 1e-3, 0.37 * bm.MMS.period, 0.61 * bm.MMS.period)

    def test_equals_allocating_form_bitwise(self):
        rng = np.random.default_rng(11)
        cached = rng.uniform(0.0, 1.0, size=(500, 2))
        cached.flags.writeable = False
        for x0 in (np.array([0.37, 0.81]), rng.uniform(size=(7, 3, 2)),
                   rng.uniform(size=(1, 2)), cached):
            for t in self.TIMES:
                got = bm.mms_body_force(x0, t)
                want = allocating_body_force(x0, t)
                assert got.shape == want.shape == x0.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (x0.shape, t)

    def test_holds_five_rows(self):
        # ux, uy, dxx, dyy and the log J term, then ux, uy and the (n, 2)
        # result, with the trig of a read-only x0 cached beforehand
        x0 = np.random.default_rng(2).uniform(0.0, 1.0, size=(20000, 2))
        x0.flags.writeable = False
        bm.mms_body_force(x0, 1e-3)
        tracemalloc.start()
        try:
            bm.mms_body_force(x0, 2e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.05 * 8 * len(x0)


def test_factor_slot_released_with_its_particle_set():
    plate = bm.build_system(bm.mms_plate_spec("hat", 0.25, 16, seed=7))
    bm.mms_body_force(plate[1].x0, 1e-3)
    assert bm._FACTORS[0]() is plate[1].x0
    del plate
    gc.collect()
    assert bm._FACTORS == [None, None]
    # the slot refills from a new set, and an older set's death leaves it
    old = bm.build_system(bm.mms_plate_spec("hat", 0.25, 16, seed=7))[1]
    new = bm.build_system(bm.mms_plate_spec("ps", 0.25, 16, seed=3))[1]
    bm.mms_body_force(old.x0, 1e-3)
    bm.mms_body_force(new.x0, 1e-3)
    factors = bm._FACTORS[1]
    del old
    gc.collect()
    assert bm._FACTORS[0]() is new.x0 and bm._FACTORS[1] is factors
    assert bm._spatial_factors(new.x0) is factors


class TestBenchmarkSpecs:
    def test_bar_parameters(self):
        spec = bm.vibrating_bar_spec()
        assert spec.material.E == 50.0
        assert spec.material.nu == 0.0
        assert spec.rho0 == 25.0
        assert spec.dt == 5e-3
        assert spec.courant < 1.0

    def test_bar_initial_velocity_profile(self):
        spec = bm.vibrating_bar_spec()
        x0 = np.array([[0.5, 1.0], [0.0, 1.0], [1.0, 0.5]])
        v = spec.initial_velocity(x0)
        assert_allclose(v[0], [0.1, 0.0], atol=1e-15)
        assert_allclose(v[1], [0.0, 0.0], atol=1e-15)
        assert_allclose(v[2, 0], 0.1 * np.sin(np.pi), atol=1e-15)

    def test_soil_parameters_and_static_oracles(self):
        spec = bm.soil_column_spec(MassMode.PARTIAL)
        assert spec.material.E == 1e5
        assert spec.rho0 == 1e3
        # extra empty row above the column
        lo, hi = spec.tri.bbox()
        assert hi[1] > 1.0
        assert_allclose(bm.soil_static_stress(0.0), -9810.0)
        assert_allclose(bm.soil_static_stress(1.0), 0.0)

    def test_soil_max_strain_magnitude(self):
        # static strain at the bottom: rho g H / E ~ 9.8%; with the dynamic
        # factor of two this is the paper's quoted ~18-20% peak strain
        peak = 2.0 * 1e3 * 9.81 * 1.0 / 1e5
        assert 0.15 < peak < 0.22

    def test_mms_spec_courant(self):
        spec = bm.mms_plate_spec("hat", 0.25, 16, seed=7, courant=0.36)
        assert_allclose(spec.courant, 0.36, rtol=0.05)
        assert spec.n_steps * spec.dt == pytest.approx(bm.MMS.period)

    def test_spline_plate_refines_its_mesh_once(self, monkeypatch):
        calls = []

        def counted(tri):
            calls.append(tri)
            return ps_refine(tri)

        monkeypatch.setattr(bm, "ps_refine", counted)
        spec = bm.mms_plate_spec("ps", 0.25, 4, seed=7)
        bm.build_system(spec)
        assert len(calls) == 1
        # the step size still comes from the average sub-triangle edge
        h_typ = ps_refine(spec.tri).mean_sub_edge_length()
        assert spec.h_typical == h_typ
        wave = np.sqrt(bm.MMS.E / bm.MMS.rho0)
        n_steps = max(1, int(round(bm.MMS.period / (0.15 * h_typ / wave))))
        assert spec.dt == bm.MMS.period / n_steps

    def test_mms_initial_state_matches_exact_solution(self):
        spec = bm.mms_plate_spec("hat", 0.25, 16, seed=7)
        system, parts = bm.build_system(spec)
        assert_allclose(parts.v, bm.mms_velocity(parts.x0, 0.0), atol=1e-14)
        assert_allclose(parts.u, 0.0)
        assert_allclose(parts.sigma, 0.0)


class TestRmsError:
    def test_streamed_rms_matches_recorded_trajectory(self):
        # run_mms streams its sum; recompute the metric from a recorded
        # trajectory of the same (deterministic) run
        spec = bm.mms_plate_spec("hat", 0.25, 16, seed=7)
        spec.t_end = 12 * spec.dt
        rms = bm.run_mms(spec).rms

        system, parts = bm.build_system(spec)
        traj, exact = [], []

        def record(i, t, particles):
            traj.append(particles.x.copy())
            exact.append(bm.mms_exact_positions(particles.x0, t))

        system.run(parts, spec.n_steps, on_step=record)
        traj, exact = np.array(traj), np.array(exact)
        n_t, n_p = traj.shape[:2]
        assert (n_t, n_p) == (spec.n_steps, parts.n)
        want = np.sqrt(np.sum((traj - exact) ** 2) / (n_p * n_t))
        assert want > 0.0
        assert_allclose(rms, want, rtol=1e-12)


class TestErrorReport:
    def test_pipeline_with_stubbed_solver(self):
        # exact-trajectory stub: zero errors, table of zeros, slope undefined
        report = bm.ErrorReport()
        for h in (0.25, 0.125):
            report.add(bm.ErrorRow("mms", "ps", h, 16, 1e-4, 0.0))
        assert np.isnan(report.slope_over_h("ps", 16))
        lines = [l for l in report.to_csv().splitlines()
                 if not l.startswith("#")][1:]
        assert all(l.endswith(",0,") for l in lines)

    def test_slope_fits(self):
        report = bm.ErrorReport()
        for h in (0.2, 0.1, 0.05):
            report.add(bm.ErrorRow("mms", "ps", h, 64, 1e-4, 0.5 * h ** 3))
            report.add(bm.ErrorRow("mms", "hat", h, 64, 1e-4, 2.0 * h ** 2))
        assert_allclose(report.slope_over_h("ps", 64), 3.0, rtol=1e-12)
        assert_allclose(report.slope_over_h("hat", 64), 2.0, rtol=1e-12)

    def test_one_distinct_h_is_no_slope(self):
        # two rows at the same h used to reach np.polyfit as a RankWarning
        # and a slope fitted through one point
        report = bm.ErrorReport()
        for rms in (1e-3, 2e-3):
            report.add(bm.ErrorRow("mms", "hat", 0.5, 4, 1e-4, rms))
        with pytest.raises(ValidationError, match="two h values"):
            report.slope_over_h("hat", 4)

    def test_ppe_slope(self):
        report = bm.ErrorReport()
        for ppe in (16, 64, 256):
            report.add(bm.ErrorRow("mms", "hat", 0.125, ppe, 1e-4,
                                   1.0 / np.sqrt(ppe)))
        assert_allclose(report.slope_over_ppe("hat", 0.125), -1.0, rtol=1e-12)

    def test_csv_shape(self):
        report = bm.ErrorReport()
        report.add(bm.ErrorRow("mms", "ps", 0.125, 16, 1e-4, 1e-3))
        report.add(bm.ErrorRow("mms", "ps", 0.0625, 16, 5e-5, 1.2e-4))
        text = report.to_csv()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "benchmark,basis,h,ppe,dt,rms_error,slope"
        assert len(lines) == 3


class TestShortRuns:
    def test_mms_coarse_run_accuracy(self):
        # one period on the coarsest mesh: the error must be well below the
        # displacement amplitude for the scheme to be considered wired right
        spec = bm.mms_plate_spec("ps", 0.25, 16, seed=7, courant=0.08)
        result = bm.run_mms(spec)
        assert result.rms < 0.05 * bm.MMS.u0

    def test_traced_particle_recording(self):
        spec = bm.mms_plate_spec("hat", 0.25, 16, seed=7, courant=0.36,
                                 mass_mode=MassMode.LUMPED)
        result = bm.run_mms(spec, trace_point=(0.25, 0.47))
        assert result.traced_index >= 0
        assert len(result.traced_sigma_xx) == result.n_steps
        assert np.all(np.isfinite(result.traced_sigma_xx))
        assert result.traced_rms > 0.0


def test_builtin_specs_do_not_import_cli_io():
    # layering: the benchmarks take their meshes from mesh, not from cli_io
    code = ("import sys; import psmpm.benchmarks as bm; "
            "bm.mms_plate_spec('ps', 0.5, 4); bm.vibrating_bar_spec(); "
            "bm.soil_column_spec('partial'); "
            "print('psmpm.cli_io' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(psmpm.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_hat_plate_setup_does_not_import_scipy_spatial():
    # the jittered mesh is cut by in-circle tests, not by scipy's qhull,
    # whose import took about 0.1 s of every plate's setup
    code = ("import sys; import psmpm.benchmarks as bm; "
            "bm.build_system(bm.mms_plate_spec('hat', 1 / 16, 256, seed=1)); "
            "print('scipy.spatial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(psmpm.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
