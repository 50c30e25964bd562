"""Config parsing, result serialization, CLI entry points.

The config format is flat ``key = value`` text under ``[section]`` headers
(diff-friendly, no dependencies).  Subcommands:

* ``run <config>``: time-step a benchmark or custom setup, writing CSV
  particle frames, a final VTK file, and a summary.
* ``converge <config>``: run the manufactured-solution convergence study
  and write/print the error table and fitted slopes.
* ``basis-check <mesh>``: build the spline basis on a mesh file, bound its
  invariants exactly, and dump control triangles and triplets as CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import benchmarks
from .basis import basis_invariant_report, ps_basis
from .errors import ParseError, PsmpmError, ValidationError
from .mesh import (cross2, generate_mesh, ps_refine, read_mesh_file,
                   write_mesh_file)
from .mpm_core import MassMode, MaterialModel, ParticleLayout

CSV_HEADER = "id,x,y,ux,uy,vx,vy,sxx,syy,sxy,V,rho"


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
    is a tuple's required length and ``least`` its least, entries distinct.
    """
    return field(default=default, metadata=dict(
        section=section, key=key, parse=parse, allowed=allowed,
        bounds=bounds, length=length, least=least))


@dataclass
class RunConfig:
    """Validated run parameters; None means "use the benchmark default".

    Each field declares its config key once; ``parse_config`` and
    ``_validate_config`` read the declarations in field order.
    ``given`` (not a field) names the fields whose keys the file sets.
    """

    given = frozenset()

    benchmark: str = _key("run", str, "custom",
                          allowed=("mms", "bar", "soil", "custom"))
    basis: str = _key("run", str, "ps", allowed=BASES)
    mass_mode: str | None = _key("run", str, allowed=MASS_MODES)
    dt: float | None = _key("run", float, bounds=_ABOVE_ZERO)
    t_end: float | None = _key("run", float, bounds=_ABOVE_ZERO)
    output_dir: str = _key("run", str, "out")
    output_every: int = _key("run", int, 10, bounds=_ABOVE_ZERO)
    seed: int = _key("run", int, 0, bounds=(-1, float("inf")))
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
    converge_h: tuple = _key("converge", _tuple_of(float),
                             (0.25, 0.125, 0.0625), key="h_list",
                             bounds=_ABOVE_ZERO, least=2)
    converge_ppe: tuple = _key("converge", _tuple_of(int), (64, 256),
                               key="ppe_list", bounds=_ABOVE_ZERO, least=1)
    converge_basis: tuple | None = _key("converge", _tuple_of(str),
                                        allowed=BASES, least=1)
    converge_courant: float | None = _key("converge", float,
                                          bounds=_ABOVE_ZERO)


def _where(f):
    """A field's config key as ``(section, key)``."""
    section = f.metadata["section"]
    return section, f.metadata["key"] or f.name.removeprefix(section + "_")


def _validate_config(cfg: RunConfig):
    """Check every set field against its declaration; floats are finite."""
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
        if meta["least"] and len(set(value)) < len(value):
            raise ValidationError(f"{where}: an entry is repeated")
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not np.isfinite(v):
                raise ValidationError(f"{where}: must be finite, got {v}")
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
    cfg.given = set()
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
        cfg.given.add(f.name)
    return _validate_config(cfg)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _check_read(cfg: RunConfig, command):
    """Raise for the first field, in field order, whose key the file sets
    (whatever its value) and ``psmpm <command>`` does not read, or that a
    custom run reads, needs and finds unset.  ``who`` is falsy for a key
    that is read, else the command, benchmark, mesh kind or particle
    layout that leaves it unread.  Flags set only keys both commands read."""
    b, kind, layout = cfg.benchmark, cfg.mesh_kind, cfg.particles_layout
    custom = command == "run" and b == "custom"
    for f in fields(RunConfig):
        section, name = f.metadata["section"], f.name
        if command == "converge":
            who = not (section == "converge" or name in (
                "basis", "mass_mode", "seed", "output_dir")
                or name == "benchmark" and b == "mms") and "psmpm converge"
        elif section == "converge":
            who = "psmpm run"
        elif section == "run":
            who = name in ("h", "ppe") and b != "mms" and f"benchmark {b}"
        elif b != "custom":
            who = f"benchmark {b}"
        elif section == "mesh" and name != "mesh_kind":
            who = (kind and (name == "mesh_path") != (kind == "file")
                   and f"mesh kind {kind}")
        elif section == "particles" and name != "particles_layout":
            who = (layout and (name == "particles_ppe") != (layout == "ppe")
                   and f"particle layout {layout}")
        else:
            who = None
        if who and name in cfg.given:
            raise ValidationError("%s does not read [%s] %s" % (who, *_where(f)))
        if (custom and not who and getattr(cfg, name) is None
                and name not in ("mass_mode", "mesh_ny", "gravity")):
            raise ValidationError("a custom run needs [%s] %s" % _where(f))


def config_to_spec(cfg: RunConfig) -> benchmarks.BenchmarkSpec:
    """Turn a config into a runnable benchmark specification.

    An unset mass mode is passed on as None, which each spec builder
    resolves to its own default (consistent for custom runs).  A key
    ``psmpm run`` does not read, or a custom run lacks, is an error.
    """
    _check_read(cfg, "run")
    if cfg.benchmark == "mms":
        spec = benchmarks.mms_plate_spec(cfg.basis, cfg.h or 0.125,
                                         cfg.ppe or 64, seed=cfg.seed,
                                         mass_mode=cfg.mass_mode)
    elif cfg.benchmark == "bar":
        spec = benchmarks.vibrating_bar_spec(cfg.basis, cfg.mass_mode)
    elif cfg.benchmark == "soil":
        spec = benchmarks.soil_column_spec(cfg.mass_mode, cfg.basis)
    else:
        spec = _custom_spec(cfg)
    if cfg.dt is not None:
        spec.dt = cfg.dt
    if cfg.t_end is not None:
        spec.t_end = cfg.t_end
    return spec


def _custom_spec(cfg: RunConfig) -> benchmarks.BenchmarkSpec:
    """A custom run's spec; ``_check_read`` has found every key it needs."""
    tri = (read_mesh_file(cfg.mesh_path) if cfg.mesh_kind == "file" else
           generate_mesh(cfg.mesh_kind, cfg.mesh_h, cfg.mesh_domain,
                         seed=cfg.seed, ny=cfg.mesh_ny))
    return benchmarks.BenchmarkSpec(
        name="custom", tri=tri, basis_kind=cfg.basis,
        material=MaterialModel(cfg.material_model, cfg.material_E,
                               cfg.material_nu),
        rho0=cfg.material_rho, dt=cfg.dt, t_end=cfg.t_end,
        mass_mode=MassMode.parse(cfg.mass_mode or MassMode.CONSISTENT),
        layout=ParticleLayout(cfg.particles_layout, cfg.particles_nx,
                              cfg.particles_ny, cfg.particles_ppe),
        h_typical=tri.mean_edge_length(),
        body_force=(None if cfg.gravity is None
                    else benchmarks.constant_force(cfg.gravity)))


# ---------------------------------------------------------------------------
# Particle frames

def _columns(particles):
    """(n, 11) particle columns of ``CSV_HEADER`` after the id."""
    x, u, v, sigma = particles.x, particles.u, particles.v, particles.sigma
    return np.column_stack([
        x[:, 0], x[:, 1], u[:, 0], u[:, 1], v[:, 0], v[:, 1], sigma[:, 0, 0],
        sigma[:, 1, 1], sigma[:, 0, 1], particles.V, particles.rho])


def write_particle_csv(particles, path):
    """CSV of the particles' state with the exact spec header and
    17-significant-digit floats."""
    cols = _columns(particles)
    row = "%d," + ",".join(["%.17g"] * cols.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("".join([row % (i, *r) for i, r in enumerate(cols.tolist())]))


def write_vtk(particles, path, step, t):
    """Legacy ASCII POLYDATA file with the particles as vertices."""
    cols = _columns(particles)
    n = len(cols)
    out = ["# vtk DataFile Version 3.0\n",
           f"psmpm particles step={step} time={t:.17g}\n",
           "ASCII\nDATASET POLYDATA\n", f"POINTS {n} double\n"]
    out += ["%.17g %.17g 0\n" % (x, y) for x, y in cols[:, :2].tolist()]
    out.append(f"VERTICES {n} {2 * n}\n")
    out += ["1 %d\n" % i for i in range(n)]
    out.append(f"POINT_DATA {n}\n")
    for j, name in enumerate(CSV_HEADER.split(",")[3:], start=2):
        out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        out += ["%.17g\n" % v for v in cols[:, j].tolist()]
    with open(path, "w") as fh:
        fh.write("".join(out))


# ---------------------------------------------------------------------------
# Subcommands

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

    def write_frame(step):
        write_particle_csv(particles,
                           os.path.join(out_dir, f"frame_{step:06d}.csv"))

    def on_step(i, t, _):
        if (i + 1) % cfg.output_every == 0 or i + 1 == n_steps:
            write_frame(i + 1)
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

    write_frame(0)
    try:
        system.run(particles, n_steps, on_step=on_step)
    except PsmpmError as exc:
        # the failing step's number, its start time and the reason
        message = " ".join(str(exc).split())
        write_summary(f"status = failed\nerror = {type(exc).__name__}\n"
                      f"step = {exc.step}\nt = {exc.t:.17g}\n"
                      f"message = {message}\n")
        raise
    write_vtk(particles, os.path.join(out_dir, "final.vtk"), n_steps,
              n_steps * spec.dt)
    runtime = write_summary("status = ok\n")
    if not args.quiet:
        print(f"wrote {out_dir}/ ({n_steps} steps, {runtime:.1f}s)")
    return 0


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_flags(cfg, args)
    _check_read(cfg, "converge")
    families = cfg.converge_basis or (cfg.basis,)
    os.makedirs(cfg.output_dir, exist_ok=True)

    report = benchmarks.ErrorReport()
    for b in families:
        if not args.quiet:
            print(f"running basis={b}", file=sys.stderr)
        report.extend(benchmarks.convergence_study(
            b, cfg.converge_h, cfg.converge_ppe, seed=cfg.seed,
            courant=cfg.converge_courant, mass_mode=cfg.mass_mode))

    csv_path = os.path.join(cfg.output_dir, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    ppe = max(cfg.converge_ppe)
    for b in families:
        print(f"basis={b} ppe={ppe} slope_h={report.slope_over_h(b, ppe):.3f}")
    if not args.quiet:
        print(f"wrote {csv_path}")
    return 0


def _cmd_basis_check(args) -> int:
    tri = read_mesh_file(args.mesh)
    basis = ps_basis(ps_refine(tri))
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    _dump_basis_tables(basis, out_dir)
    report = basis_invariant_report(basis)
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
        p.add_argument("--quiet", action="store_true")
        if operand == "config":
            p.add_argument("--seed", type=int, default=None)
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
    "RunConfig", "parse_config", "load_config", "config_to_spec",
    "generate_mesh", "write_particle_csv", "write_vtk", "write_mesh_file",
    "cli", "main",
]

if __name__ == "__main__":
    main()
