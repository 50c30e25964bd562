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
from dataclasses import dataclass, field, fields

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
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"domain {domain} needs x0 < x1 and y0 < y1")
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
        tri = Triangulation(nodes, Delaunay(nodes).simplices, orient=True)
        if tri.areas.min() < 1e-3 * h * h:
            raise MeshDegenerate(
                f"jittered mesh contains an element of area {tri.areas.min():.3e}")
        return tri

    raise ValidationError(f"unknown mesh kind {kind!r}")


# ---------------------------------------------------------------------------
# Run configuration

BASES = ("hat", "ps")
MASS_MODES = tuple(m.value for m in MassMode)
_ABOVE_ZERO = (0, float("inf"))


def _tuple_of(kind):
    return lambda text: tuple(map(kind, text.split()))


def _key(section, parse, default=None, key=None, allowed=None, bounds=None,
         length=None, least=0):
    """Declare a config key as a ``RunConfig`` field.

    ``key`` is needed only where the key's name is not the field's name
    less ``<section>_``.  ``allowed`` (a tuple of values) and ``bounds``
    (an open interval) apply to every element of a tuple value; ``length``
    is a tuple's required length and ``least`` its least.
    """
    return field(default=default, metadata=dict(
        section=section, key=key, parse=parse, allowed=allowed,
        bounds=bounds, length=length, least=least))


@dataclass
class RunConfig:
    """Validated run parameters; None means "use the benchmark default".

    Each field declares its config key once; ``parse_config``,
    ``_validate_config`` and ``dump_config`` read the declarations in
    field order.
    """

    benchmark: str = _key("run", str, "custom",
                          allowed=("mms", "bar", "soil", "custom"))
    basis: str = _key("run", str, "ps", allowed=BASES)
    mass_mode: str | None = _key("run", str, allowed=MASS_MODES)
    dt: float | None = _key("run", float, bounds=_ABOVE_ZERO)
    t_end: float | None = _key("run", float, bounds=_ABOVE_ZERO)
    output_dir: str = _key("run", str, "out")
    output_every: int = _key("run", int, 10, bounds=_ABOVE_ZERO)
    seed: int = _key("run", int, 0)
    h: float | None = _key("run", float, bounds=_ABOVE_ZERO)
    ppe: int | None = _key("run", int, bounds=_ABOVE_ZERO)
    material_model: str | None = _key(
        "material", str, allowed=("linear-elastic", "neo-hookean"))
    material_E: float | None = _key("material", float, bounds=_ABOVE_ZERO)
    material_nu: float | None = _key("material", float, bounds=(-1, 0.5))
    material_rho: float | None = _key("material", float, bounds=_ABOVE_ZERO)
    mesh_kind: str | None = _key(
        "mesh", str, allowed=("structured", "jittered", "file"))
    mesh_h: float | None = _key("mesh", float, bounds=_ABOVE_ZERO)
    mesh_ny: int | None = _key("mesh", int, bounds=_ABOVE_ZERO)
    mesh_domain: tuple | None = _key("mesh", _tuple_of(float), length=4)
    mesh_path: str | None = _key("mesh", str)
    particles_layout: str | None = _key("particles", str,
                                        allowed=("lattice", "ppe"))
    particles_nx: int | None = _key("particles", int, bounds=_ABOVE_ZERO)
    particles_ny: int | None = _key("particles", int, bounds=_ABOVE_ZERO)
    particles_ppe: int | None = _key("particles", int, bounds=_ABOVE_ZERO)
    gravity: tuple | None = _key("forces", _tuple_of(float), length=2)
    converge_h: tuple | None = _key("converge", _tuple_of(float), least=1,
                                    key="h_list", bounds=_ABOVE_ZERO)
    converge_ppe: tuple | None = _key("converge", _tuple_of(int), least=1,
                                      key="ppe_list", bounds=_ABOVE_ZERO)
    converge_basis: tuple | None = _key("converge", _tuple_of(str),
                                        allowed=BASES, least=1)
    converge_courant: float | None = _key("converge", float,
                                          bounds=_ABOVE_ZERO)


def _where(f):
    """A field's config key as ``(section, key)``."""
    section = f.metadata["section"]
    return section, f.metadata["key"] or f.name.removeprefix(section + "_")


def _validate_config(cfg: RunConfig):
    """Check every set field against its declared constraint."""
    for f in fields(RunConfig):
        value, meta = getattr(cfg, f.name), f.metadata
        if value is None:
            continue
        where = "[%s] %s" % _where(f)
        if meta["length"] is not None and len(value) != meta["length"]:
            raise ValidationError(f"{where}: expected {meta['length']} "
                                  f"values, got {len(value)}")
        if meta["least"] and len(value) < meta["least"]:
            raise ValidationError(f"{where}: got {len(value)} values, "
                                  f"expected at least {meta['least']}")
        for v in value if isinstance(value, tuple) else (value,):
            if meta["allowed"] and v not in meta["allowed"]:
                raise ValidationError(
                    f"{where}: {v!r} not one of {'|'.join(meta['allowed'])}")
            if meta["bounds"] and not meta["bounds"][0] < v < meta["bounds"][1]:
                raise ValidationError("%s: must lie in (%g, %g), got %s"
                                      % (where, *meta["bounds"], v))
    return cfg


def parse_config(text) -> RunConfig:
    """Parse config text; raise ParseError/ValidationError on bad input."""
    keys = {_where(f): f for f in fields(RunConfig)}
    cfg = RunConfig()
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(s == section for s, _ in keys):
                raise ValidationError(f"unknown section [{section}] (line {ln})")
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", line=ln)
        key, _, value = line.partition("=")
        key = key.strip()
        if section is None:
            raise ParseError("key outside any [section]", line=ln)
        f = keys.get((section, key))
        if f is None:
            raise ValidationError(f"unknown key {key!r} in [{section}] (line {ln})")
        try:
            setattr(cfg, f.name, f.metadata["parse"](value.strip()))
        except ValueError as exc:
            raise ParseError(f"bad value for {section}.{key}: {exc}", line=ln)
    return _validate_config(cfg)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg: RunConfig) -> str:
    """Serialize a config; parse_config(dump_config(c)) == c."""
    by_section = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value == f.default:
            continue
        section, key = _where(f)
        text = " ".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                        for v in (value if isinstance(value, tuple)
                                  else (value,)))
        by_section.setdefault(section, []).append(f"{key} = {text}")
    out = []
    for section, lines in by_section.items():
        out += [f"[{section}]", *lines, ""]
    return "\n".join(out)


def config_to_spec(cfg: RunConfig) -> benchmarks.BenchmarkSpec:
    """Turn a config into a runnable benchmark specification.

    An unset mass mode resolves to the benchmark's default: the family
    default for the manufactured plate, consistent for the bar, partial
    lumping for the soil column, consistent for custom runs.  A set key
    that the benchmark would not read is an error: only ``mms`` reads
    ``[run] h`` and ``ppe``, and only ``custom`` reads ``[material]``,
    ``[mesh]``, ``[particles]`` and ``[forces]``.
    """
    for f in fields(RunConfig):
        section, key = _where(f)
        if f.name in ("h", "ppe"):
            reader = "mms"
        elif section in ("run", "converge"):
            continue
        else:
            reader = "custom"
        if cfg.benchmark != reader and getattr(cfg, f.name) != f.default:
            raise ValidationError(
                f"benchmark {cfg.benchmark} does not read [{section}] {key}")
    mode = MassMode.parse(cfg.mass_mode) if cfg.mass_mode else None
    if cfg.benchmark == "mms":
        spec = benchmarks.mms_plate_spec(cfg.basis, cfg.h or 0.125,
                                         cfg.ppe or 64, seed=cfg.seed,
                                         mass_mode=mode)
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
    for name in ("output_dir", "seed", "mass_mode", "basis"):
        if getattr(args, name) not in (None, ""):
            setattr(cfg, name, getattr(args, name))
    return _validate_config(cfg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psmpm",
        description="2D material point method on triangular grids with "
                    "hat or C1 spline bases")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, operand, func, text in (
            ("run", "config", _cmd_run, "time-step a configured simulation"),
            ("converge", "config", _cmd_converge, "run the convergence study"),
            ("basis-check", "mesh", _cmd_basis_check,
             "verify spline invariants on a mesh file")):
        p = sub.add_parser(name, help=text)
        p.add_argument(operand)
        p.add_argument("--output-dir", default=None)
        # basis-check has no config to supply a seed
        p.add_argument("--seed", type=int,
                       default=0 if operand == "mesh" else None)
        p.add_argument("--quiet", action="store_true")
        if operand == "config":
            p.add_argument("--mass-mode", default=None, choices=MASS_MODES)
            p.add_argument("--basis", default=None, choices=BASES)
        p.set_defaults(func=func)

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
