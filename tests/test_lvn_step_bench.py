import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lvn_step_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("lvn_step_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_steps_runs_on_the_current_plan(monkeypatch):
    # a change to LvnPlan.step's signature fails here, not at the next timing run
    tool = _tool()
    monkeypatch.setattr(tool, "BATCHES", {"oscillator-64": (4, 2)})
    ms = tool.measure_steps()
    assert list(ms) == ["oscillator-64"]
    assert np.isfinite(ms["oscillator-64"]) and ms["oscillator-64"] > 0


def test_measure_calls_runs_each_evolve_lvn_case(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "CALLS", {"exact-32x32": (1, 1), "one-step-64": (2, 2)})
    ms = tool.measure_calls()
    assert list(ms) == ["exact-32x32", "one-step-64"]
    assert all(np.isfinite(v) and v > 0 for v in ms.values())


def test_measure_draws_runs_on_the_current_scenario(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "DRAWS", {"born-draws": (20, 2)})
    us = tool.measure_draws()
    assert list(us) == ["born-draws"]
    assert np.isfinite(us["born-draws"]) and us["born-draws"] > 0


def test_measure_ensembles_runs_on_the_current_engine(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "ENSEMBLES", {"slosh-2000": (20, 2)})
    rates = tool.measure_ensembles()
    assert list(rates) == ["slosh-2000"]
    assert np.isfinite(rates["slosh-2000"]) and rates["slosh-2000"] > 0


def test_measure_ensembles_times_sequential_engine_runs(monkeypatch):
    # the slosh-runs case times engine.run, the memo path of the engine
    tool = _tool()
    monkeypatch.setattr(tool, "ENSEMBLES", {"slosh-runs-2000": (20, 2)})
    rates = tool.measure_ensembles()
    assert list(rates) == ["slosh-runs-2000"]
    assert np.isfinite(rates["slosh-runs-2000"]) and rates["slosh-runs-2000"] > 0


def test_measure_eighs_decomposes_each_case_afresh(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "EIGHS", {name: (2, 2) for name in tool.EIGHS})
    ms = tool.measure_eighs()
    assert list(ms) == ["eigh-oscillator-256", "eigh-pure-state-256"]
    assert all(np.isfinite(v) and v > 0 for v in ms.values())
    # each case is a Hermitian operator of the program, at the size it names
    for name in ms:
        op = tool._eigh_case(name)
        assert op.hermitian and op.matrix.shape[0] == int(name.rsplit("-", 1)[1])


def test_measure_region_builds_times_each_half_line(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "REGION_BUILDS", {name: (1, 1) for name in tool.REGION_BUILDS})
    ms = tool.measure_region_builds()
    assert list(ms) == ["region-half-line-256", "region-half-line-1024"]
    assert all(np.isfinite(v) and v > 0 for v in ms.values())


def test_measure_setups_times_a_fresh_engine_build(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "SETUPS", {"slosh-setup": 2})
    ms = tool.measure_setups()
    assert list(ms) == ["slosh-setup"]
    assert np.isfinite(ms["slosh-setup"]) and ms["slosh-setup"] > 0


def test_measure_setups_times_the_composite_setup(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "SETUPS", {"composite-setup": 1})
    ms = tool.measure_setups()
    assert list(ms) == ["composite-setup"]
    assert np.isfinite(ms["composite-setup"]) and ms["composite-setup"] > 0
    # the workload's inputs: the coupling on 32 x 32 and both scenarios
    h, psi, w, measurements = tool._composite_setup()
    assert len(h.terms) == 1 and w.values.shape == (32,) * 4
    assert [m.amplitudes for m in measurements] == [(1 / np.sqrt(2), 1 / np.sqrt(2)),
                                                    (0.6, 0.8)]


def test_measure_maps_times_each_weyl_map(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "MAPS", {name: (1, 1) for name in tool.MAPS})
    ms = tool.measure_maps()
    assert list(ms) == ["chord-wigner-32x32", "weyl-op-32x32"]
    assert all(np.isfinite(v) and v > 0 for v in ms.values())


def test_measure_after_setup_times_the_exact_call(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "AFTER_SETUP", {"exact-after-setup": (1, 1, 1)})
    ms = tool.measure_after_setup()
    assert list(ms) == ["exact-after-setup"]
    assert np.isfinite(ms["exact-after-setup"]) and ms["exact-after-setup"] > 0
