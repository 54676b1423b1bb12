import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.scenarios import (HAMILTONIAN_PRESETS, STATE_PRESETS, MeasurementScenario,
                            binomial_interval, edge_flattened, hamiltonian_preset,
                            initial_state_preset)

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
