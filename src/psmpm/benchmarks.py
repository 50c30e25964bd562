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
import weakref
from dataclasses import dataclass, field

import numpy as np

from .basis import DirichletConstraint, hat_basis, ps_basis
from .errors import ValidationError
from .mesh import PSRefinement, Triangulation, generate_mesh, ps_refine
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
        return self.material.wave_speed(self.rho0) * np.pi

    @property
    def period(self):
        return 2.0 / self.material.wave_speed(self.rho0)

    @property
    def material(self):
        """The neo-Hookean material of the manufactured solution."""
        return MaterialModel("neo-hookean", E=self.E, nu=self.nu)


MMS = MmsParams()

_FACTORS = [None, None]     # [weakref to the last read-only x0, its factors]


def _release_factors(key):
    """Empty the slot when the x0 behind ``key`` dies.  A replaced key is
    dropped with the slot's old entry, so its callback never runs."""
    if _FACTORS[0] is key:
        _FACTORS[:] = None, None


def _spatial_factors(x0):
    """``u0 sin(2 pi X)``, ``u0 sin(2 pi Y)``, ``2 u0 pi cos(2 pi X)`` and
    ``2 u0 pi cos(2 pi Y)`` at reference coordinates ``x0`` (..., 2).

    One slot keeps the factors of the last read-only ``x0``, keyed on
    identity (``is``) through a weak reference: a run passes its
    ``Particles.x0``, read-only and never rebound, to the body force and
    the error stream on every step, and the slot empties once that array
    is gone.  A writeable ``x0`` could change between calls and is not
    cached.
    """
    key = _FACTORS[0]
    if key is None or key() is not x0:
        arg = [2.0 * np.pi * np.asarray(x0)[..., k] for k in (0, 1)]
        factors = ([MMS.u0 * np.sin(a) for a in arg]
                   + [2.0 * MMS.u0 * np.pi * np.cos(a) for a in arg])
        if not isinstance(x0, np.ndarray) or x0.flags.writeable:
            return factors
        _FACTORS[:] = weakref.ref(x0, _release_factors), factors
    return _FACTORS[1]


def mms_exact(x0, t):
    """Displacement and diagonal deformation-gradient entries (ux, uy, dxx,
    dyy) at reference coordinates ``x0`` (..., 2) and time t: single-axis
    sine waves in antiphase.  Only the time factors are evaluated per call
    for a read-only ``x0`` (see ``_spatial_factors``)."""
    fx, fy, gx, gy = _spatial_factors(x0)
    w = MMS.omega
    sx, sy = np.sin(w * t), np.sin(w * t + np.pi)
    return fx * sx, fy * sy, 1.0 + gx * sx, 1.0 + gy * sy


def mms_velocity(x0, t):
    """Time derivative (..., 2) of the manufactured displacement."""
    fx, fy = _spatial_factors(x0)[:2]
    w = MMS.omega
    return np.stack([fx * w * np.cos(w * t),
                     fy * w * np.cos(w * t + np.pi)], axis=-1)


def mms_body_force(x0, t):
    """Per-mass body force (..., 2) that makes the manufactured fields exact
    at reference coordinates ``x0`` (..., 2), which it only reads.  Its trig
    is cached as in ``mms_exact``; the ``log J`` and ``1/dxx^2`` terms are
    formed per call, in place in the four rows ``mms_exact`` returns and one
    more.  The bracket combines the shear and dilatational contributions of
    the neo-Hookean stress divergence."""
    ux, uy, dxx, dyy = map(np.asarray, mms_exact(x0, t))
    lam, mu, rho0 = MMS.material.lam, MMS.material.mu, MMS.rho0
    const = 4.0 * mu / rho0 - MMS.E / rho0
    log_term = np.multiply(dxx, dyy, out=np.empty_like(dxx))
    np.log(log_term, out=log_term)
    log_term -= 1.0
    log_term *= lam
    log_term -= mu
    log_term *= 4.0
    for u, d in ((ux, dxx), (uy, dyy)):
        np.square(d, out=d)
        d *= rho0
        np.subtract(const, np.divide(log_term, d, out=d), out=d)
        u *= np.pi ** 2
        u *= d
    del log_term, dxx, dyy
    return np.stack([ux, uy], axis=-1)


def mms_exact_positions(x0, t):
    """Exact particle positions for reference coordinates (n, 2), which it
    only reads; its trig is cached as in ``mms_exact``."""
    ux, uy, _, _ = mms_exact(x0, t)
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
                        vertex=int(v), component=comp, tangent=tangent))
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
    # spline refinement of ``tri`` when the spec builder already made one;
    # build_system refines ``tri`` itself when this is None
    refinement: PSRefinement | None = None

    @property
    def courant(self):
        c = self.material.wave_speed(self.rho0)
        return self.dt * c / self.h_typical if self.h_typical else 0.0

    @property
    def n_steps(self):
        return max(1, int(round(self.t_end / self.dt)))


def constant_force(g):
    """Body force ``(x0, t) -> (n, 2)`` that is ``g`` at every particle."""
    g = np.asarray(g, dtype=float)
    return lambda x0, t: np.broadcast_to(g, (len(x0), 2))


def build_system(spec: BenchmarkSpec):
    """Construct (system, particles) for a benchmark specification."""
    if spec.basis_kind == "ps":
        ref = spec.refinement
        basis = ps_basis(ps_refine(spec.tri) if ref is None else ref)
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


# Vibrating bar: element columns and rows, time step and run length.
BAR_NX, BAR_NY, BAR_DT, BAR_T_END = 20, 4, 5e-3, 2.5
# Soil column: element rows under the empty top row, time step, run length;
# density, Young's modulus, gravity and column height.
SOIL_ROWS, SOIL_DT, SOIL_T_END = 16, 5e-4, 2.5
SOIL_RHO, SOIL_E, SOIL_G, SOIL_H = 1e3, 1e5, 9.81, 1.0


def vibrating_bar_spec(basis_kind="ps", mass_mode=None) -> BenchmarkSpec:
    """Thin bar, both ends fixed, initial axial velocity 0.1*sin(pi x / L).

    Parameters: rho = 25, E = 50, nu = 0, L = 1, W = 2, on 20 x 4 element
    columns and rows, dt = 5e-3 and t_end = 2.5; the mass mode is
    consistent unless given.  The top and bottom edges pin the transverse
    component only (free slip), so the motion stays one-dimensional.
    """
    length, width, v0 = 1.0, 2.0, 0.1
    tri = generate_mesh("structured", length / BAR_NX,
                        (0.0, 0.0, length, width), ny=BAR_NY)
    material = MaterialModel("linear-elastic", E=50.0, nu=0.0)

    def initial_velocity(x0):
        return np.column_stack([v0 * np.sin(np.pi * x0[:, 0] / length),
                                np.zeros(len(x0))])

    return BenchmarkSpec(
        name="bar", tri=tri, basis_kind=basis_kind, material=material,
        rho0=25.0, dt=BAR_DT, t_end=BAR_T_END,
        mass_mode=MassMode.parse(mass_mode or MassMode.CONSISTENT),
        layout=ParticleLayout(kind="lattice", nx=4 * BAR_NX, ny=4 * BAR_NY,
                              domain=(0.0, 0.0, length, width)),
        fixed_sides={"left": (0, 1), "right": (0, 1),
                     "top": (1,), "bottom": (1,)},
        initial_velocity=initial_velocity,
        h_typical=0.025)


def soil_column_spec(mass_mode=None, basis_kind="ps") -> BenchmarkSpec:
    """Column under self-weight (``SOIL_RHO``, ``SOIL_E``, nu = 0, gravity
    ``-SOIL_G``, height ``SOIL_H``) on 16 element rows, dt = 5e-4 and
    t_end = 2.5; the mass mode is partial lumping unless given.

    The mesh extends one extra row of initially empty elements above the
    column so the topmost basis functions are always candidates for
    (partial) lumping.  Bottom fixed in both components, sides fixed
    horizontally with vertical free slip, top free.  With the consistent
    mass matrix the explicit step goes unstable within the first 0.03 s:
    the run stops at the one-step strain-increment check of
    ``MpmSystem.step``, while the reduced diagonal ratio stays below 1e2
    and no column element has drained.  At t = 0 the 768 particles fill
    32 of the 34 elements, at least 24 in each, but some sub-triangles
    hold only 2.
    """
    width, height, n_rows = 0.1, SOIL_H, SOIL_ROWS
    hy = height / n_rows
    tri = generate_mesh("structured", width,
                        (0.0, 0.0, width, height + hy), ny=n_rows + 1)
    material = MaterialModel("linear-elastic", E=SOIL_E, nu=0.0)
    return BenchmarkSpec(
        name="soil", tri=tri, basis_kind=basis_kind, material=material,
        rho0=SOIL_RHO, dt=SOIL_DT, t_end=SOIL_T_END,
        mass_mode=MassMode.parse(mass_mode or MassMode.PARTIAL),
        layout=ParticleLayout(kind="lattice", nx=16, ny=3 * n_rows,
                              domain=(0.0, 0.0, width, height)),
        fixed_sides={"bottom": (0, 1), "left": (0,), "right": (0,)},
        body_force=constant_force((0.0, -SOIL_G)),
        h_typical=hy)


def soil_static_stress(y):
    """Static vertical stress profile of the soil column at height ``y``:
    linear from ``-SOIL_RHO SOIL_G SOIL_H`` at the bottom to zero."""
    return -SOIL_RHO * SOIL_G * np.maximum(SOIL_H - y, 0.0)


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


def mms_plate_spec(basis_kind, h, ppe, seed=7, courant=None,
                   mass_mode=None) -> BenchmarkSpec:
    """Manufactured vibrating plate on a jittered unit-square mesh, run for
    one period, forced by ``mms_body_force`` of the particles' read-only
    ``x0`` (its trig cached on the identity of ``x0``).

    Particles start on a global lattice sized to the requested average
    particles per element; the step size holds the Courant number (based on
    the family's typical element length, average edge length for hats and
    average sub-triangle edge length for splines) at the given value and is
    rounded so an integer number of steps covers the run.  Unspecified
    ``courant``/``mass_mode`` fall back to the family defaults."""
    default_mode, default_courant = mms_family_defaults(basis_kind)
    mass_mode = MassMode.parse(mass_mode or default_mode)
    if courant is None:
        courant = default_courant
    tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
    refinement = None
    if basis_kind == "ps":
        refinement = ps_refine(tri)
        h_typ = refinement.mean_sub_edge_length()
    else:
        h_typ = tri.mean_edge_length()
    t_end = MMS.period
    dt = courant * h_typ / MMS.material.wave_speed(MMS.rho0)
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps

    n_lattice = max(1, int(round(np.sqrt(ppe * tri.n_elements))))
    material = MMS.material

    return BenchmarkSpec(
        name="mms", tri=tri, basis_kind=basis_kind, material=material,
        rho0=MMS.rho0, dt=dt, t_end=t_end, mass_mode=mass_mode,
        layout=ParticleLayout(kind="lattice", nx=n_lattice, ny=n_lattice,
                              domain=(0.0, 0.0, 1.0, 1.0)),
        fixed_sides={"left": (0,), "right": (0,), "bottom": (1,), "top": (1,)},
        body_force=mms_body_force,
        initial_velocity=lambda x0: mms_velocity(x0, 0.0),
        h_typical=h_typ, refinement=refinement)


# ---------------------------------------------------------------------------
# Error metric and convergence study

@dataclass
class MmsRunResult:
    rms: float
    dt: float
    n_steps: int
    h_typical: float
    traced_index: int = -1
    traced_sigma_xx: np.ndarray | None = None
    traced_rms: float = 0.0


def run_mms(spec: BenchmarkSpec, trace_point=None) -> MmsRunResult:
    """Run one manufactured-solution case, streaming the RMS accumulation.

    ``rms`` is ``sqrt(sum |x - xhat|^2 / (n_p * n_t))`` over every particle
    and every end-of-step time, with ``xhat`` from ``mms_exact_positions``,
    which shares the body force's cached trig (keyed on ``particles.x0``,
    which is never written).  If ``trace_point`` is given, the particle
    starting nearest to it has its stress recorded every step and its own
    RMS error reported."""
    system, particles = build_system(spec)
    n_steps = spec.n_steps

    traced, sig = -1, None
    if trace_point is not None:
        traced = int(np.argmin(np.hypot(particles.x0[:, 0] - trace_point[0],
                                        particles.x0[:, 1] - trace_point[1])))
        sig = np.empty(n_steps)

    acc = {"err2": 0.0, "traced_err2": 0.0}

    def on_step(i, t, parts):
        diff = parts.x - mms_exact_positions(parts.x0, t)
        acc["err2"] += float(np.sum(diff ** 2))
        if traced >= 0:
            sig[i] = parts.sigma[traced, 0, 0]
            acc["traced_err2"] += float(np.sum(diff[traced] ** 2))

    system.run(particles, n_steps, on_step=on_step)
    rms = float(np.sqrt(acc["err2"] / (particles.n * n_steps)))
    traced_rms = float(np.sqrt(acc["traced_err2"] / n_steps)) if traced >= 0 else 0.0
    return MmsRunResult(rms=rms, dt=spec.dt, n_steps=n_steps,
                        h_typical=spec.h_typical, traced_index=traced,
                        traced_sigma_xx=sig, traced_rms=traced_rms)


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

    def _slope(self, basis, ppe=None, h=None):
        """Log-log slope of rms over h (at fixed ``ppe``) or over the
        per-dimension particle count sqrt(ppe) (at fixed ``h``); nan when
        any error vanishes, e.g. with a stubbed exact solver."""
        rows = sorted((r for r in self.rows if r.basis == basis
                       and (ppe is None or r.ppe == ppe)
                       and (h is None or abs(r.h - h) < 1e-12)),
                      key=lambda r: (r.h, r.ppe))
        x = [r.h if h is None else np.sqrt(r.ppe) for r in rows]
        if len(set(x)) < 2:
            raise ValidationError("need at least two %s values for a slope"
                                  % ("h" if h is None else "ppe"))
        if any(r.rms <= 0.0 for r in rows):
            return float("nan")
        return float(np.polyfit(np.log(x), np.log([r.rms for r in rows]),
                                1)[0])

    def slope_over_h(self, basis, ppe):
        """Log-log slope of rms vs h at fixed particles per element."""
        return self._slope(basis, ppe=ppe)

    def slope_over_ppe(self, basis, h):
        """Log-log slope of rms vs per-dimension particle count at fixed h."""
        return self._slope(basis, h=h)

    def to_csv(self):
        buf = io.StringIO()
        buf.write("# h column: average edge length (hat basis) or average "
                  "sub-triangle edge length (spline basis)\n")
        buf.write("benchmark,basis,h,ppe,dt,rms_error,slope\n")
        for r in self.rows:
            try:
                fitted = self.slope_over_h(r.basis, r.ppe)
            except ValidationError:         # fewer than two h values
                fitted = float("nan")
            slope = f"{fitted:.17g}" if np.isfinite(fitted) else ""
            buf.write(f"{r.benchmark},{r.basis},{r.h:.17g},{r.ppe},"
                      f"{r.dt:.17g},{r.rms:.17g},{slope}\n")
        return buf.getvalue()


def convergence_study(basis_kind, h_list, ppe_list, seed=7,
                      courant=None, mass_mode=None) -> ErrorReport:
    """Run the manufactured-solution sweep over mesh sizes and particle
    densities for one basis family (family-default mass mode and Courant
    number unless overridden), in sweep order."""
    report = ErrorReport()
    for h in h_list:
        for ppe in ppe_list:
            result = run_mms(mms_plate_spec(basis_kind, h, ppe, seed=seed,
                                            courant=courant,
                                            mass_mode=mass_mode))
            report.add(ErrorRow(benchmark="mms", basis=basis_kind,
                                h=result.h_typical, ppe=int(ppe),
                                dt=result.dt, rms=result.rms))
    return report
