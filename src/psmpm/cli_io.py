"""Config parsing, mesh generation, result serialization, CLI entry points.

The config format is flat ``key = value`` text under ``[section]`` headers
(diff-friendly, no dependencies).  Subcommands:

* ``run <config>``: time-step a benchmark or custom setup, writing CSV
  particle frames, a final VTK file, and a summary.
* ``converge <config>``: run the manufactured-solution convergence study
  and write/print the error table and fitted slopes.
* ``basis-check <mesh>``: build the spline basis on a mesh file, verify its
  invariants, and dump control triangles and triplets as CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import benchmarks
from .basis import ps_basis, ps_points
from .errors import (MeshDegenerate, ParseError, PsmpmError, ValidationError)
from .mesh import (Triangulation, barycentric_coordinates, cross2,
                   ps_refine, read_mesh_file, write_mesh_file)
from .mpm_core import MassMode, MaterialModel, ParticleLayout

CSV_HEADER = "id,x,y,ux,uy,vx,vy,sxx,syy,sxy,V,rho"


# ---------------------------------------------------------------------------
# Mesh generators

def _lattice_counts(h, extent, what):
    n = extent / h
    if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
        raise ValidationError(
            f"h={h} does not divide the {what} extent {extent}")
    return int(round(n))


def generate_mesh(kind, h, domain, seed=0, ny=None) -> Triangulation:
    """Builtin mesh generators over a rectangle.

    ``structured`` splits an h-lattice of cells into right triangles
    (``ny`` overrides the row count for anisotropic cells).  ``jittered``
    perturbs the interior lattice nodes by uniform noise of amplitude
    0.25 h (seeded) and Delaunay-triangulates; boundary nodes stay put.
    """
    x0, y0, x1, y1 = domain
    nx = _lattice_counts(h, x1 - x0, "x")
    if ny is None:
        ny = _lattice_counts(h, y1 - y0, "y")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    if kind == "structured":
        # two triangles per cell (i, j), whose lower-left node is n00
        n00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
        n10, n11, n01 = n00 + ny + 1, n00 + ny + 2, n00 + 1
        elements = np.column_stack([n00, n10, n11, n00, n11, n01])
        return Triangulation(nodes, elements.reshape(-1, 3))

    if kind == "jittered":
        from scipy.spatial import Delaunay
        rng = np.random.default_rng(seed)
        interior = ((nodes[:, 0] > x0) & (nodes[:, 0] < x1)
                    & (nodes[:, 1] > y0) & (nodes[:, 1] < y1))
        jitter = rng.uniform(-0.25 * h, 0.25 * h, size=(int(interior.sum()), 2))
        nodes = nodes.copy()
        nodes[interior] += jitter
        simplices = Delaunay(nodes).simplices.copy()
        v = nodes[simplices]
        flip = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) \
            - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]) < 0
        simplices[flip] = simplices[flip][:, ::-1]
        tri = Triangulation(nodes, simplices)
        if tri.areas.min() < 1e-3 * h * h:
            raise MeshDegenerate(
                f"jittered mesh contains an element of area {tri.areas.min():.3e}")
        return tri

    raise ValidationError(f"unknown mesh kind {kind!r}")


# ---------------------------------------------------------------------------
# Run configuration

_ENUMS = {
    "benchmark": ("mms", "bar", "soil", "custom"),
    "basis": ("hat", "ps"),
    "mass_mode": ("consistent", "lumped", "partial"),
    "material_model": ("linear-elastic", "neo-hookean"),
    "mesh_kind": ("structured", "jittered", "file"),
    "particles_layout": ("lattice", "ppe"),
}

_POSITIVE = {"dt", "t_end", "material_E", "material_rho", "mesh_h"}


@dataclass
class RunConfig:
    """Validated run parameters; None means "use the benchmark default"."""

    benchmark: str = "custom"
    basis: str = "ps"
    mass_mode: str | None = None
    dt: float | None = None
    t_end: float | None = None
    output_dir: str = "out"
    output_every: int = 10
    seed: int = 0
    h: float | None = None
    ppe: int | None = None
    material_model: str | None = None
    material_E: float | None = None
    material_nu: float | None = None
    material_rho: float | None = None
    mesh_kind: str | None = None
    mesh_h: float | None = None
    mesh_ny: int | None = None
    mesh_domain: tuple | None = None
    mesh_path: str | None = None
    particles_layout: str | None = None
    particles_nx: int | None = None
    particles_ny: int | None = None
    particles_ppe: int | None = None
    gravity: tuple | None = None
    converge_h: tuple | None = None
    converge_ppe: tuple | None = None
    converge_basis: tuple | None = None
    converge_courant: float | None = None


# (section, key) -> (config field, parser)
def _floats(s):
    return tuple(float(v) for v in s.split())


def _ints(s):
    return tuple(int(v) for v in s.split())


_SCHEMA = {
    ("run", "benchmark"): ("benchmark", str),
    ("run", "basis"): ("basis", str),
    ("run", "mass_mode"): ("mass_mode", str),
    ("run", "dt"): ("dt", float),
    ("run", "t_end"): ("t_end", float),
    ("run", "output_dir"): ("output_dir", str),
    ("run", "output_every"): ("output_every", int),
    ("run", "seed"): ("seed", int),
    ("run", "h"): ("h", float),
    ("run", "ppe"): ("ppe", int),
    ("material", "model"): ("material_model", str),
    ("material", "E"): ("material_E", float),
    ("material", "nu"): ("material_nu", float),
    ("material", "rho"): ("material_rho", float),
    ("mesh", "kind"): ("mesh_kind", str),
    ("mesh", "h"): ("mesh_h", float),
    ("mesh", "ny"): ("mesh_ny", int),
    ("mesh", "domain"): ("mesh_domain", _floats),
    ("mesh", "path"): ("mesh_path", str),
    ("particles", "layout"): ("particles_layout", str),
    ("particles", "nx"): ("particles_nx", int),
    ("particles", "ny"): ("particles_ny", int),
    ("particles", "ppe"): ("particles_ppe", int),
    ("forces", "gravity"): ("gravity", _floats),
    ("converge", "h_list"): ("converge_h", _floats),
    ("converge", "ppe_list"): ("converge_ppe", _ints),
    ("converge", "basis"): ("converge_basis", lambda s: tuple(s.split())),
    ("converge", "courant"): ("converge_courant", float),
}

_FIELD_TO_KEY = {f: (s, k) for (s, k), (f, _) in _SCHEMA.items()}


def _validate_config(cfg: RunConfig):
    for name, allowed in _ENUMS.items():
        value = getattr(cfg, name)
        if value is not None and value not in allowed:
            raise ValidationError(
                f"{name}: {value!r} not one of {'|'.join(allowed)}")
    for name in _POSITIVE:
        value = getattr(cfg, name)
        if value is not None and value <= 0.0:
            raise ValidationError(f"{name}: must be positive, got {value}")
    if cfg.material_nu is not None and not -1.0 < cfg.material_nu < 0.5:
        raise ValidationError("material_nu: must lie in (-1, 0.5)")
    if cfg.output_every < 1:
        raise ValidationError("output_every: must be >= 1")
    if cfg.converge_basis is not None:
        for b in cfg.converge_basis:
            if b not in ("hat", "ps"):
                raise ValidationError(f"converge basis: unknown family {b!r}")
    if cfg.mesh_domain is not None and len(cfg.mesh_domain) != 4:
        raise ValidationError("mesh domain: expected `x0 y0 x1 y1`")
    if cfg.gravity is not None and len(cfg.gravity) != 2:
        raise ValidationError("forces gravity: expected `gx gy`")
    return cfg


def parse_config(text) -> RunConfig:
    """Parse config text; raise ParseError/ValidationError on bad input."""
    cfg = RunConfig()
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(s == section for s, _ in _SCHEMA):
                raise ValidationError(f"unknown section [{section}] (line {ln})")
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", line=ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ParseError("key outside any [section]", line=ln)
        entry = _SCHEMA.get((section, key))
        if entry is None:
            raise ValidationError(f"unknown key {key!r} in [{section}] (line {ln})")
        field_name, parser = entry
        try:
            setattr(cfg, field_name, parser(value))
        except ValueError as exc:
            raise ParseError(f"bad value for {section}.{key}: {exc}", line=ln)
    return _validate_config(cfg)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg: RunConfig) -> str:
    """Serialize a config; parse_config(dump_config(c)) == c."""
    defaults = RunConfig()
    by_section = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value == getattr(defaults, f.name):
            continue
        section, key = _FIELD_TO_KEY[f.name]
        if isinstance(value, tuple):
            text = " ".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                            for v in value)
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        by_section.setdefault(section, []).append(f"{key} = {text}")
    out = []
    for section in ("run", "material", "mesh", "particles", "forces", "converge"):
        if section in by_section:
            out.append(f"[{section}]")
            out.extend(by_section[section])
            out.append("")
    return "\n".join(out)


def config_to_spec(cfg: RunConfig) -> benchmarks.BenchmarkSpec:
    """Turn a config into a runnable benchmark specification.

    An unset mass mode resolves to the benchmark's default: the family
    default for the manufactured plate, consistent for the bar, partial
    lumping for the soil column, consistent for custom runs.
    """
    mode = MassMode.parse(cfg.mass_mode) if cfg.mass_mode else None
    if cfg.benchmark == "mms":
        spec = benchmarks.mms_plate_spec(
            cfg.basis, cfg.h if cfg.h else 0.125,
            cfg.ppe if cfg.ppe else 64, seed=cfg.seed, mass_mode=mode)
    elif cfg.benchmark == "bar":
        spec = benchmarks.vibrating_bar_spec(
            basis_kind=cfg.basis, mass_mode=mode or MassMode.CONSISTENT)
    elif cfg.benchmark == "soil":
        spec = benchmarks.soil_column_spec(mode or MassMode.PARTIAL,
                                           basis_kind=cfg.basis)
    else:
        spec = _custom_spec(cfg, mode or MassMode.CONSISTENT)
    if cfg.dt is not None:
        spec.dt = cfg.dt
    if cfg.t_end is not None:
        spec.t_end = cfg.t_end
    return spec


def _custom_spec(cfg: RunConfig, mode: MassMode) -> benchmarks.BenchmarkSpec:
    for required in ("mesh_kind", "material_model", "material_E",
                     "material_nu", "material_rho", "dt", "t_end",
                     "particles_layout"):
        if getattr(cfg, required) is None:
            raise ValidationError(f"custom run: missing {required}")
    if cfg.mesh_kind == "file":
        if cfg.mesh_path is None:
            raise ValidationError("custom run: missing mesh_path")
        tri = read_mesh_file(cfg.mesh_path)
    else:
        if cfg.mesh_h is None or cfg.mesh_domain is None:
            raise ValidationError("custom run: missing mesh h or domain")
        tri = generate_mesh(cfg.mesh_kind, cfg.mesh_h, cfg.mesh_domain,
                            seed=cfg.seed, ny=cfg.mesh_ny)
    material = MaterialModel(cfg.material_model, cfg.material_E,
                             cfg.material_nu)
    if cfg.particles_layout == "lattice":
        if not cfg.particles_nx or not cfg.particles_ny:
            raise ValidationError("lattice layout: missing particles nx/ny")
        layout = ParticleLayout(kind="lattice", nx=cfg.particles_nx,
                                ny=cfg.particles_ny)
    else:
        if not cfg.particles_ppe:
            raise ValidationError("ppe layout: missing particles ppe")
        layout = ParticleLayout(kind="ppe", ppe=cfg.particles_ppe)

    body_force = None
    if cfg.gravity is not None:
        g = np.asarray(cfg.gravity, dtype=float)

        def body_force(x0, t):
            return np.broadcast_to(g, (len(x0), 2))

    h_typ = tri.mean_edge_length()
    return benchmarks.BenchmarkSpec(
        name="custom", tri=tri, basis_kind=cfg.basis, material=material,
        rho0=cfg.material_rho, dt=cfg.dt, t_end=cfg.t_end, mass_mode=mode,
        layout=layout, fixed_sides={}, body_force=body_force,
        h_typical=h_typ)


# ---------------------------------------------------------------------------
# Output frames

@dataclass
class OutputFrame:
    """One snapshot of the particle state."""
    step: int
    time: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    volume: np.ndarray
    rho: np.ndarray

    @classmethod
    def from_particles(cls, step, t, particles):
        return cls(step=step, time=t, x=particles.x.copy(),
                   u=particles.u.copy(), v=particles.v.copy(),
                   sigma=particles.sigma.copy(), volume=particles.V.copy(),
                   rho=particles.rho.copy())

    def columns(self):
        return np.column_stack([
            self.x[:, 0], self.x[:, 1], self.u[:, 0], self.u[:, 1],
            self.v[:, 0], self.v[:, 1], self.sigma[:, 0, 0],
            self.sigma[:, 1, 1], self.sigma[:, 0, 1], self.volume, self.rho])


def write_particle_csv(frame: OutputFrame, path):
    """CSV with the exact spec header and 17-significant-digit floats."""
    cols = frame.columns()
    row = "%d," + ",".join(["%.17g"] * cols.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("".join([row % (i, *r) for i, r in enumerate(cols.tolist())]))


def read_particle_csv(path):
    """Parse a particle CSV back into (ids, columns) arrays."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParseError(f"unexpected CSV header {header!r}", line=1)
        ids = []
        rows = []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 12:
                raise ParseError("expected 12 columns", line=ln)
            ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return np.asarray(ids, dtype=int), np.asarray(rows, dtype=float)


_VTK_FIELDS = ("ux", "uy", "vx", "vy", "sxx", "syy", "sxy", "V", "rho")


def write_vtk(frame: OutputFrame, path):
    """Legacy ASCII POLYDATA file with the particles as vertices."""
    cols = frame.columns()
    n = len(cols)
    out = ["# vtk DataFile Version 3.0\n",
           f"psmpm particles step={frame.step} time={frame.time:.17g}\n",
           "ASCII\nDATASET POLYDATA\n", f"POINTS {n} double\n"]
    out += ["%.17g %.17g 0\n" % (x, y) for x, y in cols[:, :2].tolist()]
    out.append(f"VERTICES {n} {2 * n}\n")
    out += ["1 %d\n" % i for i in range(n)]
    out.append(f"POINT_DATA {n}\n")
    for j, name in enumerate(_VTK_FIELDS, start=2):
        out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        out += ["%.17g\n" % v for v in cols[:, j].tolist()]
    with open(path, "w") as fh:
        fh.write("".join(out))


# ---------------------------------------------------------------------------
# Spline-basis invariant battery (used by `basis-check`)

def basis_invariant_report(basis, seed=0, n_samples=800):
    """Measured invariant violations of a spline basis; dict name -> value."""
    tri = basis.tri
    rng = np.random.default_rng(seed)
    lo, hi = tri.bbox()

    pts = []
    while len(pts) < n_samples:
        cand = rng.uniform(lo, hi, size=(2 * n_samples, 2))
        elem, _, _ = basis.locator.locate_many(cand)
        pts.extend(cand[elem >= 0][:n_samples - len(pts)].tolist())
    pts = np.asarray(pts)
    elem, sub, eta = basis.locator.locate_many(pts)
    dofs, vals, grads = basis.evaluate_located(elem, sub, eta)

    report = {
        "partition_of_unity": float(np.abs(vals.sum(axis=1) - 1.0).max()),
        "gradient_sum": float(np.abs(grads.sum(axis=1)).max()),
        "negativity": float(max(0.0, -vals.min())),
    }

    # C1 continuity across interior main edges: five points on each sampled
    # edge, evaluated in both adjacent elements; the jump of every function
    # is its value from the first side minus its value from the second
    interior = np.nonzero(tri.edge_elements[:, 1] >= 0)[0]
    take = interior if len(interior) <= 40 else rng.choice(
        interior, size=40, replace=False)
    pa, pb = tri.nodes[tri.edges[take, 0]], tri.nodes[tri.edges[take, 1]]
    t = rng.uniform(0.05, 0.95, size=(len(take), 5, 1))
    p = (pa[:, None] + t * (pb - pa)[:, None]).reshape(-1, 2)
    elem = np.repeat(tri.edge_elements[take].T, 5, axis=1).ravel()
    d, v, g = basis.evaluate_located(
        elem, *basis.locator.locate_in(elem, np.concatenate([p, p])))
    sample = np.tile(np.arange(len(p)), 2)
    _, slot = np.unique((sample[:, None] * basis.n_bf + d).ravel(),
                        return_inverse=True)
    sign = np.repeat([1.0, -1.0], len(p))[:, None]
    jump = [np.abs(np.bincount(slot.ravel(), weights=(sign * w).ravel()))
            .max(initial=0.0) for w in (v, g[..., 0], g[..., 1])]
    report["c1_value"] = float(jump[0])
    report["c1_gradient"] = float(max(jump[1:]))

    # linear reproduction from control-point coefficients
    q = basis.control_corners
    coeff = (0.25 - 0.75 * q[..., 0] + 1.5 * q[..., 1]).ravel()
    target = 0.25 - 0.75 * pts[:, 0] + 1.5 * pts[:, 1]
    recon = np.einsum('pf,pf->p', vals, coeff[dofs])
    report["linear_reproduction"] = float(np.abs(recon - target).max())

    # control triangles contain their split points
    worst = 0.0
    for vtx, corners in enumerate(basis.control_corners):
        bc = barycentric_coordinates(corners, ps_points(basis.ref, vtx))
        worst = max(worst, float(-bc.min()))
    report["control_containment"] = worst
    return report


_BASIS_CHECK_LIMITS = {
    "partition_of_unity": 1e-10,
    "gradient_sum": 1e-9,
    "negativity": 1e-12,
    "c1_value": 1e-9,
    "c1_gradient": 1e-9,
    "linear_reproduction": 1e-10,
    "control_containment": 1e-10,
}


def _dump_basis_tables(basis, out_dir):
    with open(os.path.join(out_dir, "control_triangles.csv"), "w") as fh:
        fh.write("vertex,corner,X,Y,area\n")
        for vtx, c in enumerate(basis.control_corners):
            area = abs(0.5 * float(cross2(c[1] - c[0], c[2] - c[0])))
            for q in range(3):
                fh.write(f"{vtx},{q},{c[q, 0]:.17g},{c[q, 1]:.17g},"
                         f"{area:.17g}\n")
    with open(os.path.join(out_dir, "triplets.csv"), "w") as fh:
        fh.write("vertex,q,alpha,beta,gamma\n")
        for vtx in range(basis.tri.n_nodes):
            for q in range(3):
                a, b, g = basis.triplets[vtx, q]
                fh.write(f"{vtx},{q},{a:.17g},{b:.17g},{g:.17g}\n")


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_flags(cfg, args)
    spec = config_to_spec(cfg)
    if spec.courant >= 1.0:
        print(f"warning: Courant number {spec.courant:.3g} >= 1; "
              "the explicit step may be unstable", file=sys.stderr)
    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)

    system, particles = benchmarks.build_system(spec)
    n_steps = spec.n_steps
    mass0 = particles.total_mass()
    t_start = time.perf_counter()

    def write_frame(step, t):
        write_particle_csv(OutputFrame.from_particles(step, t, particles),
                           os.path.join(out_dir, f"frame_{step:06d}.csv"))

    def on_step(i, t, _):
        if (i + 1) % cfg.output_every == 0 or i + 1 == n_steps:
            write_frame(i + 1, t)
        if not args.quiet and (i + 1) % max(1, n_steps // 10) == 0:
            print(f"step {i + 1}/{n_steps}  t={t:.6g}", file=sys.stderr)

    def write_summary(status):
        runtime = time.perf_counter() - t_start
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(f"benchmark = {spec.name}\n")
            fh.write(f"basis = {spec.basis_kind}\n")
            fh.write(f"mass_mode = {spec.mass_mode.value}\n")
            fh.write(f"n_steps = {n_steps}\n")
            fh.write(f"dt = {spec.dt:.17g}\n")
            fh.write(f"t_end = {n_steps * spec.dt:.17g}\n")
            fh.write(f"n_particles = {particles.n}\n")
            fh.write(f"courant = {spec.courant:.17g}\n")
            fh.write(f"total_mass = {particles.total_mass():.17g}\n")
            fh.write(f"mass_drift = {particles.total_mass() - mass0:.17g}\n")
            fh.write(f"min_J = {particles.J.min():.17g}\n")
            fh.write(f"runtime_s = {runtime:.3f}\n")
            fh.write(status)
        return runtime

    write_frame(0, 0.0)
    try:
        system.run(particles, n_steps, on_step=on_step)
    except PsmpmError as exc:
        # the failing step's number, its start time and the reason
        message = " ".join(str(exc).split())
        write_summary(f"status = failed\nerror = {type(exc).__name__}\n"
                      f"step = {exc.step}\nt = {exc.t:.17g}\n"
                      f"message = {message}\n")
        raise
    final = OutputFrame.from_particles(n_steps, n_steps * spec.dt, particles)
    write_vtk(final, os.path.join(out_dir, "final.vtk"))
    runtime = write_summary("status = ok\n")
    if not args.quiet:
        print(f"wrote {out_dir}/ ({n_steps} steps, {runtime:.1f}s)")
    return 0


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_flags(cfg, args)
    h_list = cfg.converge_h or (0.25, 0.125, 0.0625)
    ppe_list = cfg.converge_ppe or (16, 64, 256)
    families = cfg.converge_basis or (cfg.basis,)
    mode = MassMode.parse(cfg.mass_mode) if cfg.mass_mode else None
    os.makedirs(cfg.output_dir, exist_ok=True)

    report = benchmarks.ErrorReport()
    for b in families:
        if not args.quiet:
            print(f"running basis={b}", file=sys.stderr)
        report.extend(benchmarks.convergence_study(
            b, h_list, ppe_list, seed=cfg.seed,
            courant=cfg.converge_courant, mass_mode=mode))

    csv_path = os.path.join(cfg.output_dir, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    for b in families:
        slope = report.slope_over_h(b, max(ppe_list))
        print(f"basis={b} ppe={max(ppe_list)} slope_h={slope:.3f}")
    if not args.quiet:
        print(f"wrote {csv_path}")
    return 0


def _cmd_basis_check(args) -> int:
    tri = read_mesh_file(args.mesh)
    basis = ps_basis(ps_refine(tri))
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    _dump_basis_tables(basis, out_dir)
    report = basis_invariant_report(basis, seed=args.seed)
    failed = False
    for name, value in report.items():
        limit = _BASIS_CHECK_LIMITS[name]
        ok = value <= limit
        failed |= not ok
        if not (ok and args.quiet):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} "
                  f"(limit {limit:.0e})")
    return 1 if failed else 0


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "output_dir", None):
        cfg.output_dir = args.output_dir
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "mass_mode", None):
        cfg.mass_mode = args.mass_mode
    if getattr(args, "basis", None):
        cfg.basis = args.basis
    return _validate_config(cfg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psmpm",
        description="2D material point method on triangular grids with "
                    "hat or C1 spline bases")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    for name, func, text in (
            ("run", _cmd_run, "time-step a configured simulation"),
            ("converge", _cmd_converge, "run the convergence study")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        common(p)
        p.add_argument("--mass-mode", default=None,
                       choices=("consistent", "lumped", "partial"))
        p.add_argument("--basis", default=None, choices=("hat", "ps"))
        p.set_defaults(func=func)

    p_chk = sub.add_parser("basis-check",
                           help="verify spline invariants on a mesh file")
    p_chk.add_argument("mesh")
    p_chk.add_argument("--output-dir", default=None)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--quiet", action="store_true")
    p_chk.set_defaults(func=_cmd_basis_check)

    return parser


def cli(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PsmpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli())


__all__ = [
    "RunConfig", "OutputFrame", "parse_config", "load_config", "dump_config",
    "config_to_spec", "generate_mesh", "write_particle_csv",
    "read_particle_csv", "write_vtk", "write_mesh_file", "cli", "main",
]
