"""Span tracing of psmpm from outside the package.

A ``Tracer`` replaces public functions and methods of the psmpm modules
with wrappers that record one span per call: layer name, start, end, the
index of the enclosing span, and an optional count taken from the call
(points located, bytes written, ...).  Spans stay in memory; ``reduce``
turns them into per-layer metrics once the run is over.

A target that no longer exists (renamed or deleted) is recorded in
``Tracer.missing`` and its layer reads as zero, so a traced run keeps
going when the program changes shape.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

STEP = "mpm_core.step"


def _n_points(args, out):
    return len(args[1])


def _file_bytes(args, out):
    return os.path.getsize(args[1])


def _marked_dofs(args, out):
    marked = getattr(out, "marked", None)
    return 0 if marked is None else int(marked.sum())


# (layer, module, attribute path, count taken from the call)
STEP_TARGET = (STEP, "mpm_core", "MpmSystem.step", None)
LAYER_TARGETS = (
    ("cli_io.generate_mesh", "cli_io", "generate_mesh", None),
    ("cli_io.write_csv", "cli_io", "write_particle_csv", _file_bytes),
    ("cli_io.write_vtk", "cli_io", "write_vtk", None),
    ("mesh.ps_refine", "mesh", "ps_refine", None),
    ("mesh.locator_init", "mesh", "PointLocator.__init__", None),
    ("mesh.locate", "mesh", "PointLocator.locate_many", _n_points),
    ("basis.build", "basis", "ps_basis", None),
    ("basis.build", "basis", "hat_basis", None),
    ("basis.control_triangle", "basis", "min_area_control_triangle", None),
    ("basis.evaluate", "basis", "PSBasis.evaluate_located", None),
    ("basis.evaluate", "basis", "HatBasis.evaluate_located", None),
    ("mpm_core.system_init", "mpm_core", "MpmSystem.__init__", None),
    ("mpm_core.mass", "mpm_core", "GridAssembler.mass", _marked_dofs),
    ("mpm_core.forces", "mpm_core", "GridAssembler.forces", None),
    ("mpm_core.momentum", "mpm_core", "GridAssembler.momentum", None),
    ("mpm_core.solve", "mpm_core", "solve_grid", None),
    ("benchmarks.body_force", "benchmarks", "mms_body_force", None),
    ("benchmarks.exact", "benchmarks", "mms_exact_positions", None),
)

# Per-layer metrics: (name, unit).  "_ms" metrics are means per step,
# "_s" metrics totals per workload run.
LAYER_METRICS = (
    ("cli_io.generate_mesh_s", "s"),
    ("cli_io.write_csv_s", "s"),
    ("cli_io.write_csv.bytes", "bytes"),
    ("cli_io.write_vtk_s", "s"),
    ("mesh.ps_refine_s", "s"),
    ("mesh.ps_refine.calls", "count"),
    ("mesh.locator_init_s", "s"),
    ("mesh.locate_setup_s", "s"),
    ("mesh.locate_ms", "ms"),
    ("mesh.locate.points", "count"),
    ("basis.build_s", "s"),
    ("basis.control_triangle_s", "s"),
    ("basis.control_triangle.calls", "count"),
    ("basis.evaluate_ms", "ms"),
    ("mpm_core.system_init_s", "s"),
    ("mpm_core.mass_ms", "ms"),
    ("mpm_core.mass.marked_dofs", "count"),
    ("mpm_core.forces_ms", "ms"),
    ("mpm_core.momentum_ms", "ms"),
    ("mpm_core.solve_ms", "ms"),
    ("mpm_core.solve.calls", "count"),
    ("mpm_core.solve.cg_iterations", "count"),
    ("mpm_core.update_ms", "ms"),
    ("benchmarks.body_force_ms", "ms"),
    ("benchmarks.exact_ms", "ms"),
)
# The layers that make up a step; their "_ms" metrics add up to the step.
STEP_LAYER_METRICS = (
    "mesh.locate_ms", "basis.evaluate_ms", "mpm_core.mass_ms",
    "mpm_core.forces_ms", "mpm_core.momentum_ms", "mpm_core.solve_ms",
    "mpm_core.update_ms", "benchmarks.body_force_ms",
)


class Tracer:
    """Records spans of wrapped psmpm calls; see the module docstring."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, count]
        self.cg_iterations = 0
        self.missing = []
        self._stack = []

    def wrap(self, layer, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each target in place; unresolvable ones go to ``missing``."""
        mods = [importlib.import_module(f"psmpm.{m}") for m in
                ("mesh", "basis", "mpm_core", "benchmarks", "cli_io")]
        for layer, modname, path, count in targets:
            owner = sys.modules[f"psmpm.{modname}"]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(layer, original, count)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            # a module-level function is also bound by name in every module
            # that imported it
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def count_cg_iterations(self):
        """Count the iterations of the sparse CG solver the grid solve uses."""
        mpm_core = importlib.import_module("psmpm.mpm_core")
        linalg = getattr(mpm_core, "spla", None)
        original = getattr(linalg, "cg", None)
        if original is None:
            self.missing.append("mpm_core.spla.cg")
            return
        tracer = self

        def cg(A, b, *args, callback=None, **kwargs):
            def tick(xk):
                tracer.cg_iterations += 1
                if callback is not None:
                    callback(xk)
            return original(A, b, *args, callback=tick, **kwargs)

        linalg.cg = cg

    def step_durations(self):
        return [s[2] - s[1] for s in self.spans if s[0] == STEP]

    def reduce(self):
        """Per-layer metrics of one workload run and its mean step (ms)."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        in_step = [False] * n
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_step[i] = in_step[parent] or spans[parent][0] == STEP
        self_time, calls, counts = {}, {}, {}
        for i, (layer, start, end, _, count) in enumerate(spans):
            key = (layer, in_step[i])
            self_time[key] = self_time.get(key, 0.0) + end - start - child[i]
            calls[key] = calls.get(key, 0) + 1
            counts[key] = counts.get(key, 0) + count
        n_steps = calls.get((STEP, False), 0)
        per_step = 1.0 / max(n_steps, 1)

        def total(table, layer, where=(False, True)):
            return sum(table.get((layer, w), 0) for w in where)

        m = {
            "cli_io.generate_mesh_s": total(self_time, "cli_io.generate_mesh"),
            "cli_io.write_csv_s": total(self_time, "cli_io.write_csv"),
            "cli_io.write_csv.bytes": total(counts, "cli_io.write_csv"),
            "cli_io.write_vtk_s": total(self_time, "cli_io.write_vtk"),
            "mesh.ps_refine_s": total(self_time, "mesh.ps_refine"),
            "mesh.ps_refine.calls": total(calls, "mesh.ps_refine"),
            "mesh.locator_init_s": total(self_time, "mesh.locator_init"),
            "mesh.locate_setup_s": total(self_time, "mesh.locate", (False,)),
            "mesh.locate_ms":
                1e3 * per_step * total(self_time, "mesh.locate", (True,)),
            "mesh.locate.points":
                per_step * total(counts, "mesh.locate", (True,)),
            "basis.build_s": total(self_time, "basis.build"),
            "basis.control_triangle_s":
                total(self_time, "basis.control_triangle"),
            "basis.control_triangle.calls":
                total(calls, "basis.control_triangle"),
            "mpm_core.system_init_s": total(self_time, "mpm_core.system_init"),
            "mpm_core.mass.marked_dofs": total(counts, "mpm_core.mass")
                / max(total(calls, "mpm_core.mass"), 1),
            "mpm_core.solve.calls": per_step * total(calls, "mpm_core.solve"),
            "mpm_core.solve.cg_iterations":
                per_step * self.cg_iterations,
            "mpm_core.update_ms": 1e3 * per_step * total(self_time, STEP),
        }
        for layer in ("basis.evaluate", "mpm_core.mass", "mpm_core.forces",
                      "mpm_core.momentum", "mpm_core.solve",
                      "benchmarks.body_force", "benchmarks.exact"):
            m[layer + "_ms"] = 1e3 * per_step * total(self_time, layer)
        return m, 1e3 * per_step * sum(self.step_durations())

    def dump(self, path):
        """Write the spans as JSON lines: layer, start, end, parent, count."""
        with open(path, "w") as fh:
            for layer, start, end, parent, count in self.spans:
                fh.write(f'["{layer}", {start!r}, {end!r}, {parent}, '
                         f'{count}]\n')
