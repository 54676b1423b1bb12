import numpy as np
import pytest

from osqm.grid import ContainmentError, PhaseGrid
from osqm.oracle import DensityOperator, WaveFunction, tensor_state
from osqm.weyl import mean_value, overlap, WeylSymbol
from osqm.wigner import (coherent_state, coherent_wigner, density_from_wigner,
                         marginals, wavefunction_from_wigner,
                         wigner_from_density, wigner_from_wavefunction)

HBAR = 1.0


def test_coherent_wigner_matches_closed_form(grid64):
    psi = coherent_state(grid64, 1.0, 0.5)
    w = wigner_from_wavefunction(psi)
    exact = coherent_wigner(grid64, 1.0, 0.5)
    assert np.abs(w.values - exact.values).max() < 1e-9
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
    w2 = wigner_from_density(DensityOperator.pure(psi))
    assert np.abs(w1.values - w2.values).max() < 1e-12


def test_wigner_linearity_in_density(grid64):
    p1 = coherent_state(grid64, -2.0, 0.0)
    p2 = coherent_state(grid64, 2.0, 0.5)
    r1 = DensityOperator.pure(p1)
    r2 = DensityOperator.pure(p2)
    mix = DensityOperator(grid64, 0.5 * r1.matrix + 0.5 * r2.matrix)
    w = wigner_from_density(mix)
    w_expected = 0.5 * wigner_from_density(r1).values + \
        0.5 * wigner_from_density(r2).values
    assert np.abs(w.values - w_expected).max() < 1e-14


def test_mixed_state_mass_and_bound(grid64, rng):
    parts = []
    for _ in range(4):
        parts.append((0.25, DensityOperator.pure(
            coherent_state(grid64, *rng.uniform(-2, 2, 2)))))
    mix = DensityOperator(grid64, sum(wt * rho.matrix for wt, rho in parts))
    w = wigner_from_density(mix)
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
        rho = DensityOperator.pure(psi)
        w = wigner_from_wavefunction(psi)
        back = density_from_wigner(w)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-8
        again = wigner_from_density(back)
        assert np.abs(again.values - w.values).max() < 1e-8


def test_density_from_wigner_top_eigenvector_is_the_state(grid64):
    psi = coherent_state(grid64, 0.8, -0.6)
    rho = density_from_wigner(wigner_from_wavefunction(psi))
    import scipy.linalg
    evals, evecs = scipy.linalg.eigh(rho.matrix)
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
    with pytest.raises(ValueError, match="density_from_wigner"):
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
    assert abs(overlap(w1, w2) - np.exp(-d2 / (2 * HBAR))) < 1e-10


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
