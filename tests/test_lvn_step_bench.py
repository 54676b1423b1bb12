import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from osqm.oracle import OperatorMatrix
from osqm.transitions import TrajectoryEngine

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lvn_step_bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("lvn_step_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(os.environ):  # loading pins the BLAS threads in os.environ
    tool = _load()


@pytest.mark.parametrize("name", list(tool.CASES))
def test_case_runs_on_the_current_code(name, monkeypatch):
    # a change to what a case calls fails here, not at the next timing run
    monkeypatch.setattr(tool, "DRAWS", 20)
    figure = tool._time(tool.CASES[name]._replace(calls=1, batches=1))
    assert np.isfinite(figure) and figure > 0


def test_cases_and_groups_match_and_measure_runs_every_case(monkeypatch):
    assert {case.group for case in tool.CASES.values()} == set(tool.GROUPS)
    assert next(iter(tool.CASES)) == "exact-after-setup"  # first in its process
    monkeypatch.setattr(tool, "_time", lambda case: 1.0)
    assert list(tool.measure()) == list(tool.CASES)


def test_loading_the_tool_pins_blas_threads():
    with mock.patch.dict(os.environ, {name: "4" for name in tool.THREADS}):
        _load()
        assert {name: os.environ[name] for name in tool.THREADS} == tool.THREADS


def test_eigh_cases_decompose_a_hermitian_operator_of_their_size(monkeypatch):
    seen, eigh = [], OperatorMatrix.eigh
    monkeypatch.setattr(OperatorMatrix, "eigh", lambda op: seen.append(op) or eigh(op))
    for name, case in tool.CASES.items():
        if case.group == "eigh_ms":
            seen.clear()
            case.factory().call()
            size = int(name.rsplit("-", 1)[1])
            assert [(op.hermitian, op.matrix.shape) for op in seen] == [(True, (size, size))]


# the free particle's half-cell shifts are one matrix product at N = 64 and
# FFT pairs at N = 128, on either side of spectral.GEMM_MAX
def test_exact_free_cases_sit_on_either_side_of_the_gemm_cutoff(monkeypatch):
    from osqm import spectral
    sizes, kernel = [], spectral._half_cell_kernel
    monkeypatch.setattr(spectral, "_half_cell_kernel",
                        lambda n: sizes.append(n) or kernel(n))
    for name, matmul in (("exact-free-64", True), ("exact-free-128", False)):
        timed = tool.CASES[name].factory()
        sizes.clear()
        timed.call()   # the odd columns shifted and shifted back
        assert sizes == ([64, 64] if matmul else [])


def test_host_records_the_blas_that_numpy_runs_on():
    # every eigh of osqm runs on numpy's LAPACK, so its BLAS build decides the timings
    blas = tool._host()["blas"]
    assert blas["name"] and blas["version"]


def test_composite_setup_is_the_workloads():
    _, h, _, w, measurements = tool._composite()
    assert len(h.terms) == 1 and w.values.shape == (32,) * 4
    assert [m.amplitudes for m in measurements] == [(1 / np.sqrt(2),) * 2, (0.6, 0.8)]


def test_ensemble_cases_take_both_paths(monkeypatch):
    # slosh-runs-2000 makes one engine.run per seed, slosh-2000 walks the tree without it
    monkeypatch.setattr(tool, "DRAWS", 20)
    seeds, run = [], TrajectoryEngine.run
    monkeypatch.setattr(TrajectoryEngine, "run", lambda e, seed: seeds.append(seed) or run(e, seed))
    for name, runs in (("slosh-2000", 0), ("slosh-runs-2000", 20)):
        timed = tool.CASES[name].factory()
        timed.prepare()
        seeds.clear()
        timed.call()
        assert len(seeds) == runs
