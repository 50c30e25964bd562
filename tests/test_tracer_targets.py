"""The benchmark tracer's entry points must exist in psmpm.

``perfbench/tracer.py`` wraps psmpm functions by name; a target that no
longer resolves reads as a zero per-layer metric, and a missing
``MpmSystem.step`` stops the benchmark.  The target tables are read from
the tracer's source without importing it as a module.
"""

import importlib
import pathlib
import runpy

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_tables = runpy.run_path(str(TRACER))
TARGETS = (_tables["STEP_TARGET"],) + tuple(_tables["LAYER_TARGETS"])


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_target_resolves(target):
    _, module, path, _ = target
    owner = importlib.import_module(f"psmpm.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
