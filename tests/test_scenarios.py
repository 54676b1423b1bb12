import tracemalloc

import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.io import write_csv
from osqm.scenarios import (HAMILTONIAN_PRESETS, STATE_PRESETS, BandOutcomes,
                            MeasurementScenario, binomial_interval, edge_flattened,
                            hamiltonian_preset, initial_state_preset)
from osqm.transitions import sample_transition, trajectory_rng

DOF1 = PhaseGrid.create(64, 9.0)
DOF2 = PhaseGrid.product(PhaseGrid.create(32, 8.0), PhaseGrid.create(32, 8.0))
SUITED = {"von-neumann-coupling": DOF2}


@pytest.mark.parametrize("name", HAMILTONIAN_PRESETS)
def test_every_hamiltonian_preset_builds(name):
    grid = SUITED.get(name, DOF1)
    symbol = hamiltonian_preset(grid, name, {}).symbol()
    assert symbol.values.shape == grid.phase_shape
    assert np.all(np.isfinite(symbol.values))


@pytest.mark.parametrize("name", STATE_PRESETS)
def test_every_state_preset_builds(name):
    psi = initial_state_preset(SUITED.get(name, DOF1), name, {})
    assert abs(psi.norm_sq() - 1) < 1e-12


def test_binomial_interval():
    # f = 0.5 at n = 100: 3 sigma is 3 * 0.05
    lo, hi = binomial_interval(50, 100)
    assert lo == pytest.approx(0.35, abs=1e-15) and hi == pytest.approx(0.65, abs=1e-15)
    # f = 0 keeps a width from the variance floor 1e-12
    lo, hi = binomial_interval(0, 100)
    assert lo == pytest.approx(-3e-7, rel=1e-12) and hi == pytest.approx(3e-7, rel=1e-12)


def test_edge_flattened_keeps_the_inside_and_holds_the_edge_value():
    cube = lambda q: q ** 3  # noqa: E731 -- odd, so -x1 and +x1 hold differ
    x1, x2 = 2.0, 4.0
    flat = edge_flattened(cube, x1, x2)
    inside = np.linspace(-x1, x1, 41)
    assert np.array_equal(flat(inside), cube(inside))
    beyond = np.linspace(x2, 7.0, 31)
    assert np.array_equal(flat(beyond), np.full_like(beyond, cube(x1)))
    assert np.array_equal(flat(-beyond), np.full_like(beyond, cube(-x1)))


def test_scenario_rejects_a_narrow_ready_band():
    with pytest.raises(ValueError, match="ready band narrower"):
        MeasurementScenario(PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5),
                            band_edge=4.0, displacement=10.0)


def test_scenario_rejects_a_short_pointer_axis():
    # the pointer ends at D = 10 and needs 6 sigma = 4.24 of axis beyond it
    with pytest.raises(ValueError, match="pointer axis too short"):
        MeasurementScenario(PhaseGrid.create(64, 12.0), PhaseGrid.create(32, 7.5),
                            band_edge=5.0, displacement=10.0)


@pytest.fixture(scope="module")
def born_scenarios():
    """Acceptance criterion 8's measurement scenarios, one per amplitude pair."""
    g1, g2 = PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0)
    return [MeasurementScenario(g1, g2, amplitudes=amps)
            for amps in ((1 / np.sqrt(2), 1 / np.sqrt(2)), (0.6, 0.8))]


@pytest.mark.parametrize("base_seed", [0, 2024, 2 ** 40 + 3])
def test_run_ensemble_matches_a_draw_per_seed(born_scenarios, base_seed):
    # the reference draws seed by seed with the scalar sampler
    n = 400
    for sc in born_scenarios:
        probs = sc.band_probabilities(sc._evolved())
        counts = {lab: 0 for lab in sc.band_labels}
        outcomes = []
        for i in range(n):
            label = sc.band_labels[sample_transition(
                probs, trajectory_rng(base_seed, i).random())]
            counts[label] += 1
            outcomes.append(label)
        out = sc.run_ensemble(n, base_seed=base_seed)
        assert out["outcomes"] == outcomes
        assert out["counts"] == counts
        assert all(type(c) is int for c in out["counts"].values())
        assert out["frequencies"] == {"outcome-left": counts["outcome-left"] / n,
                                      "outcome-right": counts["outcome-right"] / n,
                                      "ready": counts["ready"] / n}
        assert out["probabilities"] == dict(zip(sc.band_labels, probs.tolist()))


def test_run_ensemble_reads_the_seed_independent_work_of_construction(
        born_scenarios, monkeypatch):
    # the coupled state, its Born row and the post-state checks are computed
    # once, in _prepare; each call's result dicts are its own
    sc = born_scenarios[1]
    first = sc.run_ensemble(50, base_seed=3)

    def refuse(*args):
        raise AssertionError("seed-independent work redone in run_ensemble")

    for name in ("_evolved", "band_probabilities"):
        monkeypatch.setattr(MeasurementScenario, name, refuse)
    first["post_residuals"].clear()
    first["probabilities"].clear()
    again = sc.run_ensemble(50, base_seed=3)
    assert again["outcomes"] == first["outcomes"]
    assert list(again["post_residuals"]) == ["outcome-left", "outcome-right"]
    assert list(again["probabilities"]) == sc.band_labels


def test_run_ensemble_rejects_an_empty_ensemble(born_scenarios):
    with pytest.raises(ValueError, match="num_seeds must be at least 1"):
        born_scenarios[0].run_ensemble(0, base_seed=0)


@pytest.fixture(scope="module")
def determinism_scenario():
    """Acceptance criterion 12's measurement scenario."""
    return MeasurementScenario(PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5),
                               branch_sep=3.0, band_edge=5.0, displacement=10.0)


def _label_list(sc, n, base_seed):
    """The outcomes as a list of labels, drawn seed by seed."""
    probs = sc.band_probabilities(sc._evolved())
    return [sc.band_labels[sample_transition(probs, trajectory_rng(base_seed, i).random())]
            for i in range(n)]


def test_outcomes_behave_as_the_label_list(determinism_scenario):
    sc = determinism_scenario
    out = sc.run_ensemble(500, base_seed=99)["outcomes"]
    labels = _label_list(sc, 500, 99)
    assert isinstance(out, BandOutcomes) and out.codes.dtype == np.uint8
    assert out == labels and labels == out and not out != labels
    assert out != labels[:-1] and out != labels[:-1] + ["ready"]
    assert repr(out).encode() == repr(labels).encode()
    assert len(out) == len(labels) and list(out) == labels
    assert all(out[i] == labels[i] for i in (0, 1, 250, -1, -500))
    assert out[10:40:3] == labels[10:40:3]
    assert repr(out[::-7]) == repr(labels[::-7])
    assert out.count("outcome-left") == labels.count("outcome-left")
    with pytest.raises(IndexError):
        out[500]
    with pytest.raises(ValueError, match="read-only"):
        out.codes[0] = 1


def test_outcomes_write_criterion_12s_csv_bytes(determinism_scenario, tmp_path):
    sc = determinism_scenario
    out = sc.run_ensemble(500, base_seed=99)["outcomes"]
    blobs = []
    for name, outcomes in (("compact", out), ("list", _label_list(sc, 500, 99))):
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["trajectory", "outcome"], list(enumerate(outcomes)))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_outcomes_hold_one_byte_per_draw(determinism_scenario):
    # the result dict, its small dicts and the array header held 1.4 kB at
    # 10 draws; a list of labels would hold 8 bytes per draw
    sc, n, fixed = determinism_scenario, 40000, 4096
    sc.run_ensemble(10, base_seed=0)     # caches filled outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = sc.run_ensemble(n, base_seed=7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(out["outcomes"]) == n
    assert held <= n + fixed
