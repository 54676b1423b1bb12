import numpy as np
import pytest

from osqm.grid import ContainmentError, PhaseGrid
from osqm.oracle import OperatorMatrix, WaveFunction, tensor_state
from osqm.spectral import x_to_p
from osqm.weyl import WeylSymbol, mean_value, weyl_operator_from_symbol, \
    weyl_symbol_from_operator
from osqm.wigner import (WignerState, coherent_state, marginals, wavefunction_from_wigner,
                         wigner_from_wavefunction)

HBAR = 1.0


def _pure(psi):
    """|psi><psi| in the discrete l2 basis."""
    v = psi.to_vector()
    return OperatorMatrix(psi.grid, np.outer(v, v.conj()))


def _wigner_of(rho):
    """The Wigner function of a density matrix: its Weyl symbol / (2 pi hbar)^n."""
    g = rho.grid
    return WignerState(g, weyl_symbol_from_operator(rho).values.real
                       / (2 * np.pi * g.hbar) ** g.dof)


@pytest.mark.parametrize("points", [30, 32, 34, 64])
@pytest.mark.parametrize("state", ["coherent", "superposition"])
def test_chord_transform_is_covariant_under_the_quarter_rotation(points, state):
    # on a square grid (dx = dp, hbar = 1) the unitary x -> p transform
    # rotates phase space by a quarter turn: W[F psi](x, p) = W[psi](-p, x),
    # with -p read on the periodic lattice, at N = 2 (mod 4) as at N = 0
    dx = np.sqrt(2 * np.pi / points)
    grid = PhaseGrid.create(points, points * dx / 2)
    assert abs(grid.dp[0] - grid.dx[0]) <= 1e-15 * dx
    psi = coherent_state(grid, 0.8, -0.5)
    if state == "superposition":
        psi = WaveFunction(grid, coherent_state(grid, -1.0, 0.4).values
                           + 0.6j * coherent_state(grid, 1.2, -0.3).values,
                           normalized=False).normalize()
    w = wigner_from_wavefunction(psi).values
    phi = x_to_p(psi.values, dx, 1.0, axis=0)
    turned = wigner_from_wavefunction(WaveFunction(grid, phi)).values
    neg = -np.arange(points) % points      # x_j = (j - N/2) dx, so -x_j sits at -j
    assert np.abs(turned - w[neg, :].T).max() <= 1e-14 * np.abs(w).max()


def test_coherent_wigner_matches_closed_form(grid64):
    psi = coherent_state(grid64, 1.0, 0.5)
    w = wigner_from_wavefunction(psi)
    # (pi hbar)^-1 exp(-((x - x0)^2 + (p - p0)^2) / hbar), unit mass on the grid
    X, P = grid64.phase_mesh()
    exact = np.exp(-((X - 1.0) ** 2 + (P - 0.5) ** 2) / HBAR) / (np.pi * HBAR)
    exact /= exact.sum() * grid64.cell_volume
    assert np.abs(w.values - exact).max() < 1e-9
    assert w.values.min() > -1e-9  # nonnegative up to reconstruction noise


def test_wigner_unit_mass_for_random_pure_states(grid64, rng):
    for _ in range(5):
        vals = sum((rng.standard_normal() + 1j * rng.standard_normal())
                   * coherent_state(grid64, *rng.uniform(-2, 2, 2)).values
                   for _ in range(3))
        psi = WaveFunction(grid64, vals, normalized=False).normalize()
        w = wigner_from_wavefunction(psi)
        assert abs(w.integral() - 1) < 1e-10


def test_odd_cat_negative_at_origin(grid64):
    a = coherent_state(grid64, -2.5, 0.0)
    b = coherent_state(grid64, 2.5, 0.0)
    odd = WaveFunction(grid64, a.values - b.values, normalized=False).normalize()
    w = wigner_from_wavefunction(odd)
    n = grid64.n(0)
    assert w.values[n // 2, n // 2] < -1e-3


def test_wigner_sup_bound(grid64, rng):
    bound = 1 / (np.pi * HBAR)
    for _ in range(5):
        vals = sum((rng.standard_normal() + 1j * rng.standard_normal())
                   * coherent_state(grid64, *rng.uniform(-2, 2, 2)).values
                   for _ in range(2))
        psi = WaveFunction(grid64, vals, normalized=False).normalize()
        w = wigner_from_wavefunction(psi)
        assert np.abs(w.values).max() <= bound + 1e-6


@pytest.mark.parametrize("grid_name, centres", [
    ("grid64", [(-1.0, 0.7)]),
    # an entangled superposition on the unequal product grid
    ("grid32x24", [((-1.0, 0.8), (0.7, -0.4)), ((1.1, -0.6), (-0.5, 0.9))]),
], ids=["dof1", "dof2"])
def test_density_path_matches_pure_path(grid_name, centres, request):
    grid = request.getfixturevalue(grid_name)
    vals = sum(coherent_state(grid, x0, p0).values for x0, p0 in centres)
    psi = WaveFunction(grid, vals, normalized=False).normalize()
    w1 = wigner_from_wavefunction(psi)
    w2 = _wigner_of(_pure(psi))
    assert np.abs(w1.values - w2.values).max() < 1e-12


def test_wigner_linearity_in_density(grid64):
    p1 = coherent_state(grid64, -2.0, 0.0)
    p2 = coherent_state(grid64, 2.0, 0.5)
    r1 = _pure(p1)
    r2 = _pure(p2)
    mix = OperatorMatrix(grid64, 0.5 * r1.matrix + 0.5 * r2.matrix)
    w = _wigner_of(mix)
    w_expected = 0.5 * _wigner_of(r1).values + 0.5 * _wigner_of(r2).values
    assert np.abs(w.values - w_expected).max() < 1e-14


def test_mixed_state_mass_and_bound(grid64, rng):
    parts = []
    for _ in range(4):
        parts.append((0.25, _pure(coherent_state(grid64, *rng.uniform(-2, 2, 2)))))
    mix = OperatorMatrix(grid64, sum(wt * rho.matrix for wt, rho in parts))
    w = _wigner_of(mix)
    assert abs(w.integral() - 1) < 1e-10
    assert np.abs(w.values).max() <= 1 / (np.pi * HBAR) + 1e-6


def test_density_roundtrip_random_pure_states(grid64, rng):
    # centers kept tight: the cross-dyad chord support (separation plus
    # 6 sqrt(2 hbar)) must stay inside the extent for 1e-8 round trips
    for _ in range(20):
        vals = sum((rng.standard_normal() + 1j * rng.standard_normal())
                   * coherent_state(grid64, *rng.uniform(-0.75, 0.75, 2)).values
                   for _ in range(2))
        psi = WaveFunction(grid64, vals, normalized=False).normalize()
        rho = _pure(psi)
        w = wigner_from_wavefunction(psi)
        back = weyl_operator_from_symbol(w.as_symbol())
        assert np.abs(back.matrix - rho.matrix).max() < 1e-8
        again = _wigner_of(back)
        assert np.abs(again.values - w.values).max() < 1e-8


def test_density_from_wigner_top_eigenvector_is_the_state(grid64):
    psi = coherent_state(grid64, 0.8, -0.6)
    rho = weyl_operator_from_symbol(wigner_from_wavefunction(psi).as_symbol())
    evals, evecs = np.linalg.eigh(rho.matrix)
    assert abs(evals[-1] - 1) < 1e-6
    fid = abs(np.vdot(evecs[:, -1], psi.to_vector())) ** 2
    assert fid > 1 - 1e-6


def test_wavefunction_recovery_round_trip(grid64, rng):
    for _ in range(5):
        x0, p0 = rng.uniform(-1.5, 1.5, 2)
        psi = coherent_state(grid64, x0, p0)
        w = wigner_from_wavefunction(psi)
        rec = wavefunction_from_wigner(w)
        assert abs(rec.overlap(psi)) ** 2 > 1 - 1e-6


def test_wavefunction_recovery_phase_convention(grid64):
    psi = coherent_state(grid64, 0.5, 0.4)
    rec = wavefunction_from_wigner(wigner_from_wavefunction(psi))
    n = grid64.n(0)
    assert abs(np.angle(rec.values[n // 2])) < 1e-8


def test_recovery_error_path_for_node_at_origin(grid64):
    from osqm.scenarios import initial_state_preset
    psi1 = initial_state_preset(grid64, "oscillator-eigenstate", {"k": 1})
    w = wigner_from_wavefunction(psi1)
    with pytest.raises(ValueError, match="top eigenvector of weyl_operator_from_symbol"):
        wavefunction_from_wigner(w)


def test_coherent_state_centering_and_variance(grid64):
    psi = coherent_state(grid64, 1.2, -0.8)
    w = wigner_from_wavefunction(psi)
    X, P = grid64.phase_mesh()
    assert abs(mean_value(WeylSymbol(grid64, X + 0j), w) - 1.2) < 1e-9
    assert abs(mean_value(WeylSymbol(grid64, P + 0j), w) + 0.8) < 1e-9
    pos, _ = marginals(w)
    x = grid64.x(0)
    var = ((x - 1.2) ** 2 * pos).sum() * grid64.dx[0]
    assert abs(var - HBAR / 2) < 1e-8


def test_coherent_overlap_formula(grid64):
    z1 = (0.6, -0.3)
    z2 = (-0.9, 0.8)
    w1 = wigner_from_wavefunction(coherent_state(grid64, *z1))
    w2 = wigner_from_wavefunction(coherent_state(grid64, *z2))
    d2 = (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2
    # |<z1|z2>|^2 = tr(rho_1 rho_2), the mean value of rho_2's symbol in state 1
    assert abs(mean_value(w2.as_symbol(), w1) - np.exp(-d2 / (2 * HBAR))) < 1e-10


def test_coherent_containment_guard(grid64):
    with pytest.raises(ContainmentError):
        coherent_state(grid64, 8.5, 0.0)


def test_marginals_normalized_and_match_oracle(grid64):
    psi = coherent_state(grid64, 1.0, 0.3)
    w = wigner_from_wavefunction(psi)
    pos, mom = marginals(w)
    assert abs(pos.sum() * grid64.dx[0] - 1) < 1e-10
    assert abs(mom.sum() * grid64.dp[0] - 1) < 1e-10
    assert np.abs(pos - np.abs(psi.values) ** 2).max() < 1e-12
    assert np.abs(mom - np.abs(psi.momentum_values()) ** 2).max() < 1e-9
    assert pos.min() > -1e-8 and mom.min() > -1e-8


def test_cat_marginals_bimodal_vs_oscillatory(grid64):
    a = coherent_state(grid64, -2.5, 0.0)
    b = coherent_state(grid64, 2.5, 0.0)
    cat = WaveFunction(grid64, a.values + b.values, normalized=False).normalize()
    pos, mom = marginals(wigner_from_wavefunction(cat))
    assert np.abs(pos - np.abs(cat.values) ** 2).max() < 1e-12
    assert np.abs(mom - np.abs(cat.momentum_values()) ** 2).max() < 1e-9
    # position marginal dips between the humps; momentum marginal fringes
    n = grid64.n(0)
    assert pos[n // 2] < 0.05 * pos.max()
    mom_central = mom[n // 2 - 8:n // 2 + 8]
    assert (np.diff(np.sign(np.diff(mom_central))) != 0).any()


def test_composite_wigner_factorizes(rng):
    g1 = PhaseGrid.create(32, 8.0)
    g2 = PhaseGrid.create(32, 8.0)
    pa = coherent_state(g1, 0.7, -0.4)
    pb = coherent_state(g2, -0.5, 0.6)
    comp = tensor_state(pa, pb)
    w = wigner_from_wavefunction(comp)
    wa = wigner_from_wavefunction(pa)
    wb = wigner_from_wavefunction(pb)
    prod = np.einsum("ac,bd->abcd", wa.values, wb.values)
    assert np.abs(w.values - prod).max() < 1e-10
