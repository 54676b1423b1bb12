import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.scenarios import (HAMILTONIAN_PRESETS, STATE_PRESETS, MeasurementScenario,
                            binomial_interval, edge_flattened, hamiltonian_preset,
                            initial_state_preset)
from osqm.transitions import sample_transition, trajectory_rng

DOF1 = PhaseGrid.create(64, 9.0)
DOF2 = PhaseGrid.create(32, 8.0, dof=2)
SUITED = {"von-neumann-coupling": DOF2}


@pytest.mark.parametrize("name", HAMILTONIAN_PRESETS)
def test_every_hamiltonian_preset_builds(name):
    grid = SUITED.get(name, DOF1)
    symbol = hamiltonian_preset(grid, name).symbol()
    assert symbol.values.shape == grid.phase_shape
    assert np.all(np.isfinite(symbol.values))


@pytest.mark.parametrize("name", STATE_PRESETS)
def test_every_state_preset_builds(name):
    psi = initial_state_preset(SUITED.get(name, DOF1), name)
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


def test_run_ensemble_rejects_an_empty_ensemble(born_scenarios):
    with pytest.raises(ValueError, match="num_seeds must be at least 1"):
        born_scenarios[0].run_ensemble(0)
