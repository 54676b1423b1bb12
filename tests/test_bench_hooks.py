"""The names the benchmark patches in osqm must exist where it patches them.

bench/tracing.py wraps each TRACE_POINTS entry at the module or class where
callers look it up, and bench/workloads.py paces LvnPlan.rhs; a rename in
src/ would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from osqm import dynamics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


@pytest.mark.parametrize("module_name, path, span", _trace_points())
def test_trace_point_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a class attribute is patched in the class's own __dict__
    assert attr in (owner.__dict__ if isinstance(owner, type) else dir(owner))


def test_lvn_plan_defines_rhs_itself():
    assert "rhs" in dynamics.LvnPlan.__dict__
