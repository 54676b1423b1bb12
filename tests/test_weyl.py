import numpy as np
import pytest
import scipy.linalg

from osqm.oracle import DensityOperator, OperatorMatrix
from osqm.weyl import (WeylSymbol, mean_value, overlap, weyl_operator_from_symbol,
                       weyl_symbol_from_operator)
from osqm.wigner import coherent_state, wigner_from_wavefunction


def _smooth_symbol(grid, rng, real=True):
    x, p = grid.phase_mesh()
    vals = np.zeros(grid.phase_shape, dtype=complex)
    for _ in range(3):
        x0, p0 = rng.uniform(-1.5, 1.5, 2)
        w = rng.uniform(0.9, 1.4)
        amp = rng.standard_normal()
        if not real:
            amp = amp + 1j * rng.standard_normal()
        vals += amp * np.exp(-((x - x0) ** 2 + (p - p0) ** 2) / (2 * w ** 2))
    return WeylSymbol(grid, vals)


def _band_limited_symbol(grid, rng, real=True, kmax=2):
    """Smooth symbol from random Fourier modes |k| <= kmax on every axis."""
    modes = np.ix_(*[np.r_[:kmax + 1, -kmax:0]] * (2 * grid.dof))
    coef = np.zeros(grid.phase_shape, dtype=complex)
    coef[modes] = (rng.standard_normal((2 * kmax + 1,) * (2 * grid.dof))
                   + 1j * rng.standard_normal((2 * kmax + 1,) * (2 * grid.dof)))
    vals = np.fft.ifftn(coef)
    vals = vals.real if real else vals
    return WeylSymbol(grid, vals / np.abs(vals).max())


def test_constant_symbol_is_identity(grid64):
    m = weyl_operator_from_symbol(WeylSymbol.constant(grid64, 1.0))
    assert np.abs(m.matrix - np.eye(grid64.hilbert_dim)).max() < 1e-14


def test_position_symbol_is_diagonal(grid64):
    X, P = grid64.phase_mesh()
    m = weyl_operator_from_symbol(WeylSymbol(grid64, X + 0j))
    assert np.abs(m.matrix - np.diag(grid64.x(0))).max() < 1e-13


def test_oscillator_spectrum(grid64):
    X, P = grid64.phase_mesh()
    m = weyl_operator_from_symbol(WeylSymbol(grid64, (X ** 2 + P ** 2) / 2 + 0j))
    evals = scipy.linalg.eigvalsh(m.matrix)
    for k in range(8):
        assert abs(evals[k] - (k + 0.5)) < 1e-6


def test_identity_matrix_gives_unit_symbol(grid64):
    op = OperatorMatrix(grid64, np.eye(grid64.hilbert_dim, dtype=complex),
                        hermitian=True)
    sym = weyl_symbol_from_operator(op)
    assert np.abs(sym.values - 1).max() < 1e-13


def test_projector_symbol_is_scaled_wigner(grid64):
    psi = coherent_state(grid64, 0.4, -0.9)
    rho = DensityOperator.pure(psi)
    sym = weyl_symbol_from_operator(rho)
    w = wigner_from_wavefunction(psi)
    scale = 2 * np.pi * grid64.hbar
    assert np.abs(sym.values.real - scale * w.values).max() < 1e-12


def test_symbol_operator_round_trips(grid64, rng):
    for _ in range(10):
        a = _smooth_symbol(grid64, rng, real=bool(rng.integers(0, 2)))
        m = weyl_operator_from_symbol(a)
        a2 = weyl_symbol_from_operator(m)
        assert np.abs(a2.values - a.values).max() < 1e-9
        m2 = weyl_operator_from_symbol(a2)
        assert np.abs(m2.matrix - m.matrix).max() < 1e-9


def test_symbol_operator_round_trips_on_product_grid(grid32x24, rng):
    # Gaussians of _smooth_symbol's widths keep ~1e-5 of Nyquist content on
    # 32 x 24 points, so these smooth symbols are band-limited instead
    for real in (True, False):
        a = _band_limited_symbol(grid32x24, rng, real)
        m = weyl_operator_from_symbol(a)
        a2 = weyl_symbol_from_operator(m)
        assert a2.hermitian == real
        assert np.abs(a2.values - a.values).max() < 1e-9
        m2 = weyl_operator_from_symbol(a2)
        assert np.abs(m2.matrix - m.matrix).max() < 1e-9


def test_product_symbol_maps_to_kron(grid32x24, rng):
    a = _smooth_symbol(grid32x24.factor(0), rng, real=False)
    b = _smooth_symbol(grid32x24.factor(1), rng, real=False)
    ab = WeylSymbol(grid32x24, np.einsum("ac,bd->abcd", a.values, b.values))
    expect = np.kron(weyl_operator_from_symbol(a).matrix,
                     weyl_operator_from_symbol(b).matrix)
    assert np.abs(weyl_operator_from_symbol(ab).matrix - expect).max() < 1e-12


def test_hermiticity_correspondence_both_ways(grid64, rng):
    a = _smooth_symbol(grid64, rng, real=True)
    m = weyl_operator_from_symbol(a)
    assert np.abs(m.matrix - m.matrix.conj().T).max() < 1e-10
    # and a Hermitian matrix maps to a real symbol
    c = _smooth_symbol(grid64, rng, real=False)
    mat = weyl_operator_from_symbol(c).matrix
    herm = 0.5 * (mat + mat.conj().T)
    sym = weyl_symbol_from_operator(OperatorMatrix(grid64, herm, hermitian=True))
    assert sym.hermitian
    # non-Hermitian in, complex symbol out
    sym2 = weyl_symbol_from_operator(OperatorMatrix(grid64, mat))
    assert not sym2.hermitian


def test_mean_value_examples(grid64):
    psi = coherent_state(grid64, 1.5, -0.5)
    w = wigner_from_wavefunction(psi)
    one = WeylSymbol.constant(grid64, 1.0)
    assert abs(mean_value(one, w) - 1) < 1e-12
    X, P = grid64.phase_mesh()
    assert abs(mean_value(WeylSymbol(grid64, X + 0j), w) - 1.5) < 1e-9
    hosc = WeylSymbol(grid64, (X ** 2 + P ** 2) / 2 + 0j)
    expected = (1.5 ** 2 + 0.5 ** 2) / 2 + 0.5
    assert abs(mean_value(hosc, w) - expected) < 1e-9


def test_mean_value_matches_oracle_trace(grid64, rng):
    for _ in range(10):
        a = _smooth_symbol(grid64, rng, real=True)
        psi = coherent_state(grid64, *rng.uniform(-1.5, 1.5, 2))
        w = wigner_from_wavefunction(psi)
        m = weyl_operator_from_symbol(a)
        lhs = mean_value(a, w)
        v = psi.to_vector()
        rhs = np.vdot(v, m.matrix @ v).real
        assert abs(lhs - rhs) < 1e-8


def test_mean_value_rejects_complex_symbol(grid64):
    psi = coherent_state(grid64, 0.0, 0.0)
    w = wigner_from_wavefunction(psi)
    bad = WeylSymbol.constant(grid64, 1 + 1j)
    with pytest.raises(ValueError):
        mean_value(bad, w)


def test_overlap_examples(grid64):
    from osqm.scenarios import initial_state_preset
    w0 = wigner_from_wavefunction(coherent_state(grid64, 0.5, 0.5))
    assert abs(overlap(w0, w0) - 1) < 1e-10
    k0 = initial_state_preset(grid64, "oscillator-eigenstate", {"k": 0})
    k1 = initial_state_preset(grid64, "oscillator-eigenstate", {"k": 1})
    wa = wigner_from_wavefunction(k0)
    wb = wigner_from_wavefunction(k1)
    assert abs(overlap(wa, wb)) < 1e-8


def test_overlap_symmetry_exact(grid64):
    w1 = wigner_from_wavefunction(coherent_state(grid64, 1.0, 0.0))
    w2 = wigner_from_wavefunction(coherent_state(grid64, -1.0, 0.5))
    assert overlap(w1, w2) == overlap(w2, w1)


def test_overlap_clipping_logged(grid64):
    w1 = wigner_from_wavefunction(coherent_state(grid64, -3.5, 0.0))
    w2 = wigner_from_wavefunction(coherent_state(grid64, 3.5, 0.0))
    val = overlap(w1, w2)
    assert 0.0 <= val <= 1.0
