import numpy as np
import pytest
import scipy.linalg

from osqm.grid import PhaseGrid
from osqm.oracle import (OperatorMatrix, WaveFunction, momentum_operator, operator_sqrt,
                         position_operator, schrodinger_propagate)
from osqm.regions import Partition, build_partition, classicality_projectors
from osqm.scenarios import MeasurementScenario, initial_state_preset
from osqm.transitions import (apply_quasiprojection, sample_transition,
                              trajectory_rng, transition_probabilities_oracle)
from osqm.weyl import WeylSymbol, weyl_operator_from_symbol
from osqm.wigner import coherent_state


@pytest.fixture(scope="module")
def hosc(grid64):
    X, P = grid64.phase_mesh()
    return weyl_operator_from_symbol(WeylSymbol(grid64, (X ** 2 + P ** 2) / 2 + 0j))


def test_propagate_zero_time(grid64, hosc):
    psi = coherent_state(grid64, 0.5, 0.5)
    out = schrodinger_propagate(psi, hosc, 0.0)
    assert np.abs(out.values - psi.values).max() < 1e-12


def test_propagate_eigenstate_pure_phase(grid64, hosc):
    for k in (0, 2, 5):
        psi = initial_state_preset(grid64, "oscillator-eigenstate", {"k": k})
        out = schrodinger_propagate(psi, hosc, 1.3)
        ov = psi.overlap(out)     # <psi|U psi> = exp(-i E t / hbar)
        assert abs(abs(ov) - 1) < 1e-10
        assert abs(ov - np.exp(-1j * (k + 0.5) * 1.3)) < 1e-6


def test_propagate_unitarity(grid64, hosc):
    psi = coherent_state(grid64, 1.0, -0.5)
    out = schrodinger_propagate(psi, hosc, 3.7)
    assert abs(out.norm_sq() - 1) < 1e-10


def test_coherent_state_rotates(grid64, hosc):
    psi = coherent_state(grid64, 1.0, 0.5)
    out = schrodinger_propagate(psi, hosc, np.pi / 2)
    target = coherent_state(grid64, 0.5, -1.0)
    assert abs(out.overlap(target)) ** 2 > 1 - 1e-9


def test_unitary_matches_propagate_on_a_coherent_state(grid64, hosc):
    psi = coherent_state(grid64, 1.0, -0.5)
    for t in (0.0, 1.3, 3.7):
        want = schrodinger_propagate(psi, hosc, t).to_vector()
        assert np.abs(hosc.unitary(t) @ psi.to_vector() - want).max() < 1e-12


def test_unitary_composes(grid64, hosc):
    a, b = 0.7, 2.1
    assert np.abs(hosc.unitary(a) @ hosc.unitary(b) - hosc.unitary(a + b)).max() < 1e-12


def test_propagate_rejects_non_hermitian(grid64):
    m = OperatorMatrix(grid64, 1j * np.eye(grid64.hilbert_dim))
    psi = coherent_state(grid64, 0, 0)
    with pytest.raises(ValueError):
        schrodinger_propagate(psi, m, 1.0)


def test_operator_sqrt_identity(grid64):
    eye = OperatorMatrix(grid64, np.eye(grid64.hilbert_dim, dtype=complex),
                         hermitian=True, psd=True)
    root = operator_sqrt(eye)
    assert np.abs(root.matrix - eye.matrix).max() < 1e-12


def test_operator_sqrt_projector_fixed_point(grid64):
    v = coherent_state(grid64, 0.5, 0.5).to_vector()
    proj = OperatorMatrix(grid64, np.outer(v, v.conj()), hermitian=True, psd=True)
    root = operator_sqrt(proj)
    assert np.abs(root.matrix - proj.matrix).max() < 1e-8


def test_operator_sqrt_reconstructs_random_psd(grid64, rng):
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    psd = a @ a.conj().T / 64
    m = OperatorMatrix(grid64, psd, hermitian=True, psd=True)
    root = operator_sqrt(m)
    assert np.abs(root.matrix @ root.matrix - psd).max() < 1e-8


def test_operator_sqrt_rejects_non_psd(grid64):
    m = OperatorMatrix(grid64, -np.eye(grid64.hilbert_dim, dtype=complex),
                       hermitian=True)
    with pytest.raises(ValueError):
        operator_sqrt(m)


def test_region_sqrt_operator_makes_one_eigh(grid64, monkeypatch):
    # the region operator's eigh; the root reuses its eigenvectors
    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    region = build_partition(grid64, [0.0]).regions[0]
    root = region.sqrt_operator()
    assert len(calls) == 1
    assert np.abs(root.matrix @ root.matrix - region.operator().matrix).max() < 1e-8


# ---------------------------------------------------------------------------
# measurement on the engine path: a partition's quasiprojectors are the POVM
# effects, transition_probabilities_oracle gives the Born weights,
# sample_transition draws and apply_quasiprojection updates the state


class _Draw:
    """Stands in for a generator whose next uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_povm_identity_effect(grid64):
    # one region covering the grid: its quasiprojector is the identity
    part = build_partition(grid64, [])
    psi = coherent_state(grid64, 1.0, 0.0)
    v = psi.to_vector()
    probs = transition_probabilities_oracle(v, part)
    assert np.array_equal(probs, [1.0])
    assert sample_transition(probs, _Draw(0.37)) == 0
    post = apply_quasiprojection(v, part.regions[0].sqrt_operator())
    assert np.abs(WaveFunction.from_vector(grid64, post).values - psi.values).max() < 1e-12


def _cat_over_halves(grid):
    part = build_partition(grid, [0.0])
    cat = initial_state_preset(grid, "cat", {"centers": [[-3.0, 0.0], [3.0, 0.0]]})
    v = cat.to_vector()
    return part, v, transition_probabilities_oracle(v, part)


def test_povm_projective_split_on_superposition(grid64):
    part, cat, probs = _cat_over_halves(grid64)
    # the halves share the weight up to the quasiprojectors' smoothing
    assert np.abs(probs - 0.5).max() < 1e-3
    projectors = classicality_projectors(part)
    for u, chosen, center in ((0.25, 0, -3.0), (0.75, 1, 3.0)):
        assert sample_transition(probs, _Draw(u)) == chosen
        post = apply_quasiprojection(cat, projectors[chosen])
        assert np.abs(projectors[chosen].matrix @ post - post).max() < 1e-12
        target = coherent_state(grid64, center, 0.0).to_vector()
        assert abs(np.vdot(target, post)) ** 2 > 1 - 1e-4


def test_povm_empirical_frequencies(grid64):
    part, cat, probs = _cat_over_halves(grid64)
    assert abs(probs.sum() - 1) < 1e-12
    rng = trajectory_rng(7, 0)
    draws = np.array([sample_transition(probs, rng) for _ in range(100_000)])
    freq = (draws == 0).mean()
    sigma = np.sqrt(probs[0] * probs[1] / draws.size)
    assert abs(freq - probs[0]) < 4 * sigma


def test_povm_incomplete_effects_rejected(grid64):
    # the effects complete to the identity because the regions tile the grid
    part = build_partition(grid64, [0.0])
    with pytest.raises(ValueError, match="tile"):
        Partition(grid64, part.regions[:1])


# ---------------------------------------------------------------------------
# premeasurement: the measurement scenario's pointer coupling moves the
# pointer into the band of the observed branch. The band weights miss the
# branch Born weights only by the observed tails near x2 = 0, where the
# coupling is weak (1.4e-7 at criterion 8's separation).


def _band_weights(amplitudes):
    sc = MeasurementScenario(PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0),
                             amplitudes=amplitudes)
    v = sc._evolved()
    return v, sc.band_probabilities(v), sc.probs_exact


def test_premeasurement_eigenstate_input():
    _, probs, exact = _band_weights((1.0, 0.0))
    assert np.array_equal(exact, [1.0, 0.0])
    assert abs(probs[0] - 1) < 1e-6
    assert probs[1] < 1e-6 and probs[2] < 1e-6


def test_premeasurement_equal_superposition():
    v, probs, _ = _band_weights((1.0, 1.0))
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert np.abs(probs[[0, 2]] - 0.5).max() < 1e-6


def test_premeasurement_unequal_amplitudes_preserved():
    v, probs, _ = _band_weights((0.6, 0.8))
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert np.abs(probs[[0, 2]] - [0.36, 0.64]).max() < 1e-6


def test_premeasurement_rejects_overlapping_pointers():
    # a pointer pushed to within 5 sqrt(hbar) of the band edge would overlap
    # the ready band's states
    with pytest.raises(ValueError, match="band edge"):
        MeasurementScenario(PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0),
                            displacement=8.0)


def test_kinetic_and_position_operators(grid64):
    xop = position_operator(grid64)
    assert np.abs(np.diag(xop.matrix) - grid64.x(0)).max() < 1e-14
    pop = momentum_operator(grid64)
    psi = coherent_state(grid64, 0.0, 1.2)
    v = psi.to_vector()
    assert abs(np.vdot(v, pop.matrix @ v).real - 1.2) < 1e-9
