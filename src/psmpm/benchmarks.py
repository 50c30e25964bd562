"""Benchmark definitions, exact solutions, error metrics, convergence driver.

Three runnable setups: a thin vibrating bar (linear elastic, both ends
fixed, initial sinusoidal axial velocity), a vibrating plate with a
manufactured exact solution (neo-Hookean, axis-aligned displacement,
analytic body force), and a soil column compacting under self-weight
(linear elastic, used to compare the mass-matrix modes once elements
empty out).
"""

from __future__ import annotations

import io
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import DirichletConstraint, hat_basis, ps_basis
from .errors import MismatchedSeries, ValidationError
from .mesh import Triangulation, ps_refine
from .mpm_core import (MassMode, MaterialModel, MpmSystem, ParticleLayout,
                       init_particles)


# ---------------------------------------------------------------------------
# Manufactured vibrating-plate solution (axis-aligned displacement)

@dataclass(frozen=True)
class MmsParams:
    """Material and amplitude parameters of the manufactured solution."""
    rho0: float = 1e3
    u0: float = 0.05
    E: float = 1e7
    nu: float = 0.3

    @property
    def omega(self):
        return np.sqrt(self.E / self.rho0) * np.pi

    @property
    def period(self):
        return 2.0 / np.sqrt(self.E / self.rho0)

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))


MMS = MmsParams()


def mms_exact(x0, y0, t, params: MmsParams = MMS):
    """Displacement and diagonal deformation-gradient entries at (x0, y0, t).

    The two displacement components are single-axis sine waves in the
    reference coordinates, oscillating in antiphase.
    """
    w = params.omega
    sx = np.sin(w * t)
    sy = np.sin(w * t + np.pi)
    ux = params.u0 * np.sin(2.0 * np.pi * np.asarray(x0)) * sx
    uy = params.u0 * np.sin(2.0 * np.pi * np.asarray(y0)) * sy
    dxx = 1.0 + 2.0 * params.u0 * np.pi * np.cos(2.0 * np.pi * np.asarray(x0)) * sx
    dyy = 1.0 + 2.0 * params.u0 * np.pi * np.cos(2.0 * np.pi * np.asarray(y0)) * sy
    return ux, uy, dxx, dyy


def mms_velocity(x0, y0, t, params: MmsParams = MMS):
    """Time derivative of the manufactured displacement."""
    w = params.omega
    vx = params.u0 * np.sin(2.0 * np.pi * np.asarray(x0)) * w * np.cos(w * t)
    vy = params.u0 * np.sin(2.0 * np.pi * np.asarray(y0)) * w * np.cos(w * t + np.pi)
    return vx, vy


def mms_body_force(x0, y0, t, params: MmsParams = MMS):
    """Per-mass body force that makes the manufactured fields exact.

    Evaluated in reference coordinates; the bracket combines the shear and
    dilatational contributions of the neo-Hookean stress divergence.
    """
    ux, uy, dxx, dyy = mms_exact(x0, y0, t, params)
    lam, mu = params.lam, params.mu
    rho0, e = params.rho0, params.E
    ln_j = np.log(dxx * dyy)
    gx = np.pi ** 2 * ux * (4.0 * mu / rho0 - e / rho0
                            - 4.0 * (lam * (ln_j - 1.0) - mu) / (rho0 * dxx ** 2))
    gy = np.pi ** 2 * uy * (4.0 * mu / rho0 - e / rho0
                            - 4.0 * (lam * (ln_j - 1.0) - mu) / (rho0 * dyy ** 2))
    return gx, gy


def mms_exact_positions(x0, t, params: MmsParams = MMS):
    """Exact particle positions for reference coordinates (n, 2)."""
    ux, uy, _, _ = mms_exact(x0[:, 0], x0[:, 1], t, params)
    return x0 + np.column_stack([ux, uy])


# ---------------------------------------------------------------------------
# Boundary-condition helpers

_SIDES = {
    "left":   (0, 0, (0.0, 1.0)),   # (axis, end, tangent)
    "right":  (0, 1, (0.0, 1.0)),
    "bottom": (1, 0, (1.0, 0.0)),
    "top":    (1, 1, (1.0, 0.0)),
}


def rectangle_constraints(tri: Triangulation, fixed: dict):
    """Homogeneous constraints on the sides of a rectangular mesh.

    ``fixed`` maps side name (left/right/bottom/top) to the tuple of field
    components pinned to zero there, e.g. ``{"left": (0, 1), "top": (1,)}``.
    """
    lo, hi = tri.bbox()
    scale = max(hi - lo)
    tol = 1e-9 * scale
    out = []
    for side, comps in fixed.items():
        axis, end, tangent = _SIDES[side]
        target = (lo, hi)[end][axis]
        for v in tri.boundary_nodes:
            if abs(tri.nodes[v][axis] - target) <= tol:
                for comp in comps:
                    out.append(DirichletConstraint(
                        vertex=int(v), component=comp, value=0.0,
                        tangent=tangent, tangent_value=0.0))
    return out


# ---------------------------------------------------------------------------
# Benchmark specifications

@dataclass
class BenchmarkSpec:
    """Everything needed to instantiate and run one benchmark."""
    name: str
    tri: Triangulation
    basis_kind: str                      # "hat" | "ps"
    material: MaterialModel
    rho0: float
    dt: float
    t_end: float
    mass_mode: MassMode
    layout: ParticleLayout
    fixed_sides: dict = field(default_factory=dict)
    body_force: object = None            # callable (x0, t) -> (n, 2)
    initial_velocity: object = None      # callable (x0) -> (n, 2)
    h_typical: float = 0.0               # element length entering the CFL check
    seed: int = 0

    @property
    def courant(self):
        c = self.material.wave_speed(self.rho0)
        return self.dt * c / self.h_typical if self.h_typical else 0.0

    @property
    def n_steps(self):
        return max(1, int(round(self.t_end / self.dt)))


def build_system(spec: BenchmarkSpec):
    """Construct (system, particles) for a benchmark specification."""
    if spec.basis_kind == "ps":
        basis = ps_basis(ps_refine(spec.tri))
    elif spec.basis_kind == "hat":
        basis = hat_basis(spec.tri)
    else:
        raise ValidationError(f"unknown basis kind {spec.basis_kind!r}")
    constraints = rectangle_constraints(spec.tri, spec.fixed_sides)
    system = MpmSystem(basis, spec.material, spec.dt,
                       mass_mode=spec.mass_mode, constraints=constraints,
                       body_force=spec.body_force)
    particles = init_particles(basis.locator, spec.layout, spec.rho0)
    if spec.initial_velocity is not None:
        particles.v = np.asarray(spec.initial_velocity(particles.x0),
                                 dtype=float)
    return system, particles


def vibrating_bar_spec(basis_kind="ps", nx=20, ny=4, dt=5e-3, t_end=2.5,
                       mass_mode=MassMode.CONSISTENT) -> BenchmarkSpec:
    """Thin bar, both ends fixed, initial axial velocity 0.1*sin(pi x / L).

    Parameters: rho = 25, E = 50, nu = 0, L = 1, W = 2, dt = 5e-3.  The top
    and bottom edges pin the transverse component only (free slip), so the
    motion stays one-dimensional.
    """
    from .cli_io import generate_mesh
    length, width, v0 = 1.0, 2.0, 0.1
    tri = generate_mesh("structured", length / nx, (0.0, 0.0, length, width),
                        ny=ny)
    material = MaterialModel("linear-elastic", E=50.0, nu=0.0)

    def initial_velocity(x0):
        return np.column_stack([v0 * np.sin(np.pi * x0[:, 0] / length),
                                np.zeros(len(x0))])

    return BenchmarkSpec(
        name="bar", tri=tri, basis_kind=basis_kind, material=material,
        rho0=25.0, dt=dt, t_end=t_end, mass_mode=mass_mode,
        layout=ParticleLayout(kind="lattice", nx=4 * nx, ny=4 * ny,
                              domain=(0.0, 0.0, length, width)),
        fixed_sides={"left": (0, 1), "right": (0, 1),
                     "top": (1,), "bottom": (1,)},
        initial_velocity=initial_velocity,
        h_typical=0.025)


def soil_column_spec(mass_mode, n_rows=16, dt=5e-4, t_end=2.5,
                     basis_kind="ps") -> BenchmarkSpec:
    """Column under self-weight: rho = 1e3, E = 1e5, nu = 0, g = -9.81.

    The mesh extends one extra row of initially empty elements above the
    column so the topmost basis functions are always candidates for
    (partial) lumping.  Bottom fixed in both components, sides fixed
    horizontally with vertical free slip, top free.  With the consistent
    mass matrix the explicit step goes unstable within the first 0.03 s:
    the run stops at the one-step strain-increment check of
    ``MpmSystem.step``, while the reduced diagonal ratio stays below 1e2
    and no column element has drained.
    """
    from .cli_io import generate_mesh
    width, height = 0.1, 1.0
    hy = height / n_rows
    tri = generate_mesh("structured", width,
                        (0.0, 0.0, width, height + hy), ny=n_rows + 1)
    material = MaterialModel("linear-elastic", E=1e5, nu=0.0)
    gravity = np.array([0.0, -9.81])

    def body_force(x0, t):
        return np.broadcast_to(gravity, (len(x0), 2))

    return BenchmarkSpec(
        name="soil", tri=tri, basis_kind=basis_kind, material=material,
        rho0=1e3, dt=dt, t_end=t_end,
        mass_mode=mass_mode if isinstance(mass_mode, MassMode)
        else MassMode.parse(mass_mode),
        layout=ParticleLayout(kind="lattice", nx=16, ny=3 * n_rows,
                              domain=(0.0, 0.0, width, height)),
        fixed_sides={"bottom": (0, 1), "left": (0,), "right": (0,)},
        body_force=body_force,
        h_typical=hy)


def soil_static_displacement(y, rho=1e3, g=9.81, E=1e5, H=1.0):
    """Small-strain static settlement of a column fixed at y = 0."""
    return -(rho * g / E) * (H * y - 0.5 * y ** 2)


def soil_static_stress(y, rho=1e3, g=9.81, H=1.0):
    """Static vertical stress profile: linear from -rho*g*H to zero."""
    return -rho * g * np.maximum(H - y, 0.0)


def mms_family_defaults(basis_kind):
    """Stable (mass mode, Courant) pair for the manufactured-plate runs.

    Hats run lumped at the nominal Courant 0.36.  The spline family keeps
    the consistent mass matrix (lumping costs it an order of accuracy) and
    compensates with a smaller Courant number: on 0.25h-jittered meshes the
    consistent solve is linearly unstable at 0.36, while at 0.15 the
    measured error is step-size independent, so the reported convergence
    is purely spatial.
    """
    if basis_kind == "ps":
        return MassMode.CONSISTENT, 0.15
    return MassMode.LUMPED, 0.36


def mms_plate_spec(basis_kind, h, ppe, seed=7, courant=None, periods=1.0,
                   mass_mode=None,
                   params: MmsParams = MMS) -> BenchmarkSpec:
    """Manufactured vibrating plate on a jittered unit-square mesh.

    Particles start on a global lattice sized to the requested average
    particles per element; the step size holds the Courant number (based on
    the family's typical element length, average edge length for hats and
    average sub-triangle edge length for splines) at the given value and is
    rounded so an integer number of steps covers the run.  Unspecified
    ``courant``/``mass_mode`` fall back to the family defaults.
    """
    from .cli_io import generate_mesh
    default_mode, default_courant = mms_family_defaults(basis_kind)
    if mass_mode is None:
        mass_mode = default_mode
    if courant is None:
        courant = default_courant
    tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
    if basis_kind == "ps":
        h_typ = ps_refine(tri).mean_sub_edge_length()
    else:
        h_typ = tri.mean_edge_length()
    wave = np.sqrt(params.E / params.rho0)
    t_end = periods * params.period
    dt = courant * h_typ / wave
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps

    n_lattice = max(1, int(round(np.sqrt(ppe * tri.n_elements))))
    material = MaterialModel("neo-hookean", E=params.E, nu=params.nu)

    def body_force(x0, t):
        gx, gy = mms_body_force(x0[:, 0], x0[:, 1], t, params)
        return np.column_stack([gx, gy])

    def initial_velocity(x0):
        vx, vy = mms_velocity(x0[:, 0], x0[:, 1], 0.0, params)
        return np.column_stack([vx, vy])

    return BenchmarkSpec(
        name="mms", tri=tri, basis_kind=basis_kind, material=material,
        rho0=params.rho0, dt=dt, t_end=t_end, mass_mode=mass_mode,
        layout=ParticleLayout(kind="lattice", nx=n_lattice, ny=n_lattice,
                              domain=(0.0, 0.0, 1.0, 1.0)),
        fixed_sides={"left": (0,), "right": (0,), "bottom": (1,), "top": (1,)},
        body_force=body_force,
        initial_velocity=initial_velocity,
        h_typical=h_typ, seed=seed)


# ---------------------------------------------------------------------------
# Error metric and convergence study

def rms_error(trajectories, exact):
    """Time-averaged RMS of per-particle position errors.

    Both arrays have shape (n_t, n_p, 2); the result is
    sqrt(sum |x - xhat|^2 / (n_p * n_t)).
    """
    trajectories = np.asarray(trajectories, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if trajectories.shape != exact.shape:
        raise MismatchedSeries(
            f"shape mismatch {trajectories.shape} vs {exact.shape}")
    n_t, n_p = trajectories.shape[:2]
    diff = trajectories - exact
    return float(np.sqrt(np.sum(diff ** 2) / (n_p * n_t)))


@dataclass
class MmsRunResult:
    rms: float
    dt: float
    n_steps: int
    h_typical: float
    traced_index: int = -1
    traced_sigma_xx: np.ndarray | None = None
    traced_positions: np.ndarray | None = None
    traced_rms: float = 0.0


def run_mms(spec: BenchmarkSpec, trace_point=None,
            params: MmsParams = MMS) -> MmsRunResult:
    """Run one manufactured-solution case, streaming the RMS accumulation.

    If ``trace_point`` is given, the particle starting nearest to it has its
    stress and position recorded every step.
    """
    system, particles = build_system(spec)
    n_steps = spec.n_steps

    traced = -1
    sig = pos = None
    if trace_point is not None:
        traced = int(np.argmin(np.hypot(particles.x0[:, 0] - trace_point[0],
                                        particles.x0[:, 1] - trace_point[1])))
        sig = np.empty(n_steps)
        pos = np.empty((n_steps, 2))

    acc = {"err2": 0.0, "traced_err2": 0.0}

    def on_step(i, t, parts):
        diff = parts.x - mms_exact_positions(parts.x0, t, params)
        acc["err2"] += float(np.sum(diff ** 2))
        if traced >= 0:
            sig[i] = parts.sigma[traced, 0, 0]
            pos[i] = parts.x[traced]
            acc["traced_err2"] += float(np.sum(diff[traced] ** 2))

    system.run(particles, n_steps, on_step=on_step)
    rms = float(np.sqrt(acc["err2"] / (particles.n * n_steps)))
    traced_rms = float(np.sqrt(acc["traced_err2"] / n_steps)) if traced >= 0 else 0.0
    return MmsRunResult(rms=rms, dt=spec.dt, n_steps=n_steps,
                        h_typical=spec.h_typical, traced_index=traced,
                        traced_sigma_xx=sig, traced_positions=pos,
                        traced_rms=traced_rms)


@dataclass
class ErrorRow:
    benchmark: str
    basis: str
    h: float            # family-typical element length (measured)
    ppe: int
    dt: float
    rms: float


class ErrorReport:
    """Table of convergence-study results with slope fits."""

    def __init__(self, rows=None):
        self.rows = list(rows) if rows else []

    def add(self, row: ErrorRow):
        self.rows.append(row)

    def extend(self, other: "ErrorReport"):
        self.rows.extend(other.rows)

    def _series(self, basis, ppe=None, h=None):
        out = [r for r in self.rows if r.basis == basis
               and (ppe is None or r.ppe == ppe)
               and (h is None or abs(r.h - h) < 1e-12)]
        return sorted(out, key=lambda r: (r.h, r.ppe))

    def slope_over_h(self, basis, ppe):
        """Log-log slope of rms vs h at fixed particles per element.

        Undefined (nan) when any error vanishes, e.g. with a stubbed exact
        solver.
        """
        rows = self._series(basis, ppe=ppe)
        if len(rows) < 2:
            raise ValidationError("need at least two h values for a slope")
        if any(r.rms <= 0.0 for r in rows):
            return float("nan")
        return float(np.polyfit(np.log([r.h for r in rows]),
                                np.log([r.rms for r in rows]), 1)[0])

    def slope_over_ppe(self, basis, h):
        """Log-log slope of rms vs per-dimension particle count at fixed h."""
        rows = self._series(basis, h=h)
        if len(rows) < 2:
            raise ValidationError("need at least two ppe values for a slope")
        if any(r.rms <= 0.0 for r in rows):
            return float("nan")
        return float(np.polyfit(np.log([np.sqrt(r.ppe) for r in rows]),
                                np.log([r.rms for r in rows]), 1)[0])

    def to_csv(self):
        buf = io.StringIO()
        buf.write("# h column: average edge length (hat basis) or average "
                  "sub-triangle edge length (spline basis)\n")
        buf.write("benchmark,basis,h,ppe,dt,rms_error,slope\n")
        by_key = {}
        for r in self.rows:
            by_key.setdefault((r.basis, r.ppe), []).append(r)
        for r in self.rows:
            slope = ""
            if len(by_key[(r.basis, r.ppe)]) >= 2:
                fitted = self.slope_over_h(r.basis, r.ppe)
                if np.isfinite(fitted):
                    slope = f"{fitted:.17g}"
            buf.write(f"{r.benchmark},{r.basis},{r.h:.17g},{r.ppe},"
                      f"{r.dt:.17g},{r.rms:.17g},{slope}\n")
        return buf.getvalue()


def _study_row(job) -> ErrorRow:
    basis_kind, h, ppe, seed, courant, mass_mode = job
    spec = mms_plate_spec(basis_kind, h, ppe, seed=seed, courant=courant,
                          mass_mode=mass_mode)
    result = run_mms(spec)
    return ErrorRow(benchmark="mms", basis=basis_kind, h=result.h_typical,
                    ppe=int(ppe), dt=result.dt, rms=result.rms)


def convergence_study(basis_kind, h_list, ppe_list, seed=7,
                      courant=None, mass_mode=None) -> ErrorReport:
    """Run the manufactured-solution sweep over mesh sizes and particle
    densities for one basis family (family-default mass mode and Courant
    number unless overridden).

    The environment variable ``PSMPM_THREADS`` (default 1) sets how many
    worker processes run the cells; rows keep the sweep order, so the
    report does not depend on it.
    """
    jobs = [(basis_kind, h, ppe, seed, courant, mass_mode)
            for h in h_list for ppe in ppe_list]
    workers = int(os.environ.get("PSMPM_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return ErrorReport(pool.map(_study_row, jobs))
    return ErrorReport(map(_study_row, jobs))
