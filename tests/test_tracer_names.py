"""Every package name the benchmark tracer wraps still exists.

The tracer in ``perfbench/tracer.py`` wraps package functions and
methods by name; a renamed one only shows up when a traced benchmark
run fails. This test reads the tracer's name tables without running
the tracer and resolves each name against the package.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # Executed from its source, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _tracer()
PATHS = sorted(
    {path for _, paths in tracer.SPAN_LAYERS for path in paths}
    | {path for _, path in tracer.LEAF_LAYERS + tracer.COUNT_LAYERS}
)


@pytest.mark.parametrize("path", PATHS)
def test_wrapped_path_resolves(path):
    mod_name, attr = path.split(":")
    owner = importlib.import_module(f"wiretap_exponents.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # The tracer patches the class's own attribute, not an inherited one.
        assert attr in vars(owner), f"{path} is not defined on the class itself"
    assert callable(getattr(owner, attr)), f"{path} is not callable"


@pytest.mark.parametrize("name", tracer.SOLVER_FUNCTIONS)
def test_solver_function_resolves(name):
    assert callable(getattr(importlib.import_module("wiretap_exponents.solvers"), name))


@pytest.mark.parametrize("name", tracer.MODULE_LAYERS)
def test_module_layer_resolves(name):
    importlib.import_module(f"wiretap_exponents.{name}")
