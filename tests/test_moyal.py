import numpy as np
import pytest

from osqm.moyal import moyal_product
from osqm.grid import PhaseGrid
from osqm.weyl import WeylSymbol, weyl_operator_from_symbol
from osqm.wigner import coherent_state, wigner_from_wavefunction


def _gauss(grid, x0, p0, w):
    X, P = grid.phase_mesh()
    return WeylSymbol(grid, np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / (2 * w ** 2)) + 0j)


def test_identity_star(grid64):
    b = _gauss(grid64, -0.4, 0.6, 1.1)
    one = WeylSymbol(grid64, np.ones(grid64.phase_shape))
    assert np.abs(moyal_product(one, b).values - b.values).max() < 1e-13
    assert np.abs(moyal_product(b, one).values - b.values).max() < 1e-13


def test_star_matches_operator_product(grid64, rng):
    for _ in range(8):
        a = _gauss(grid64, *rng.uniform(-1.5, 1.5, 2), rng.uniform(0.9, 1.3))
        b = _gauss(grid64, *rng.uniform(-1.5, 1.5, 2), rng.uniform(0.9, 1.3))
        lhs = weyl_operator_from_symbol(moyal_product(a, b)).matrix
        rhs = weyl_operator_from_symbol(a).matrix @ weyl_operator_from_symbol(b).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_star_associativity(grid64, rng):
    a = _gauss(grid64, 0.5, -0.3, 1.0)
    b = _gauss(grid64, -0.4, 0.6, 1.1)
    c = _gauss(grid64, 0.2, 0.1, 0.9)
    lhs = moyal_product(moyal_product(a, b), c).values
    rhs = moyal_product(a, moyal_product(b, c)).values
    assert np.abs(lhs - rhs).max() < 1e-6


def test_pure_state_star_idempotency(grid64):
    w = wigner_from_wavefunction(coherent_state(grid64, 0.8, -0.5))
    ws = WeylSymbol(grid64, w.values + 0j)
    out = moyal_product(ws, ws)
    scale = 1 / (2 * np.pi * grid64.hbar)
    assert np.abs(out.values - scale * w.values).max() < 1e-9


def test_star_grid_mismatch(grid64):
    other = PhaseGrid.create(64, 8.0)
    a = _gauss(grid64, 0, 0, 1.0)
    b = _gauss(other, 0, 0, 1.0)
    from osqm.grid import GridMismatchError
    with pytest.raises(GridMismatchError):
        moyal_product(a, b)


def test_star_dof2_unsupported():
    g = PhaseGrid.product(PhaseGrid.create(16, 6.0), PhaseGrid.create(16, 6.0))
    a = WeylSymbol(g, np.ones(g.phase_shape))
    with pytest.raises(NotImplementedError):
        moyal_product(a, a)
