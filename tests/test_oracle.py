import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.oracle import (OperatorMatrix, WaveFunction, noise_floor, operator_sqrt,
                         real_matmul, schrodinger_propagate)
from osqm.regions import (Partition, build_partition, classicality_projectors,
                          is_quasirestricted)
from osqm.scenarios import (MeasurementScenario, hamiltonian_preset,
                             initial_state_preset)
from osqm.transitions import (apply_quasiprojection, sample_transition,
                              trajectory_rng, transition_probabilities_oracle)
from osqm.weyl import WeylSymbol, weyl_operator_from_symbol
from osqm.wigner import coherent_state, wigner_from_wavefunction


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_hermitian_flag_rejects_non_finite_entries(grid64, value, where):
    # m - m^H is NaN there, and NaN must fail the Hermitian check, not pass it
    m = np.eye(grid64.hilbert_dim, dtype=complex)
    m[where] = m[where[::-1]] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="flagged Hermitian"):
        OperatorMatrix(grid64, m, hermitian=True)


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


def _counted_eighs(monkeypatch) -> list:
    """A list that gains the matrix of each np.linalg.eigh call from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_region_sqrt_operator_makes_one_eigh(grid64, monkeypatch):
    # a region with a p cut is not diagonal: the region operator's eigh,
    # and the root reuses its eigenvectors
    calls = _counted_eighs(monkeypatch)
    region = build_partition(grid64, [0.0], [0.0]).regions[0]
    root = region.sqrt_operator()
    assert len(calls) == 1
    assert root.eigh()[1] is region.operator().eigh()[1]
    assert np.abs(root.matrix @ root.matrix - region.operator().matrix).max() < 1e-8


def test_x_cut_partition_makes_no_eigh(monkeypatch):
    # operators, roots, PS6 bases and exact projectors of the slosh-oracle
    # partition are all diagonal
    calls = _counted_eighs(monkeypatch)
    grid = PhaseGrid.create(256, 9.0)
    part = build_partition(grid, [0.0])
    v = coherent_state(grid, -4.2, 0.0).to_vector()
    for region in part.regions:
        region.sqrt_operator()
        assert is_quasirestricted(v, region)[1] >= 0
    projectors = classicality_projectors(part)
    assert calls == []
    # the real unit-vector eigenvectors of the real path's layout
    assert all(region.operator().eigh()[1].dtype == float for region in part.regions)
    assert np.array_equal(sum(p.matrix for p in projectors), np.eye(256))


@pytest.mark.parametrize("points, hbar", [(256, 1.0), (512, 0.5), (1024, 0.25)])
def test_x_cut_root_is_the_elementwise_root(points, hbar):
    # d spans [2e-10, 1], [2e-19, 1] and [4e-37, 1]: the eigh-built root
    # missed sqrt(d) by up to 4.0e-7 here
    grid = PhaseGrid.create(points, 9.0, hbar)
    op = build_partition(grid, [0.0]).regions[0].operator()
    d = np.diag(op.matrix).real
    floor = points * np.finfo(float).eps * d.max()
    root = operator_sqrt(op)
    assert np.array_equal(root.matrix, np.diag(np.sqrt(np.where(d > floor, d, 0.0))))
    if points == 256:
        # bit for bit the dense product on the cached eigendecomposition
        w, q = op.eigh()
        dense = (q * np.sqrt(np.where(w > floor, w, 0.0))) @ q.conj().T
        assert np.array_equal(root.matrix, 0.5 * (dense + dense.conj().T))


def _eigh_operator(name):
    """One of the program's own Hermitian operators: an oracle H, a region
    quasiprojector, the phase backend's quantised pure state, a pointer band.
    The half-line and the band are cut only in x, so their decomposition is
    the exact diagonal one; the cell, cut in x and p, takes LAPACK's."""
    grid = PhaseGrid.create(256, 9.0)
    if name in ("free-256", "oscillator-256", "double-well-256"):
        return weyl_operator_from_symbol(hamiltonian_preset(grid, name[:-4], {}).symbol())
    if name == "coupling-16x16":
        g1 = PhaseGrid.create(16, 8.0)
        h = hamiltonian_preset(PhaseGrid.product(g1, g1), "von-neumann-coupling",
                               {"v": 1.0, "w": 1.0})
        return weyl_operator_from_symbol(h.symbol())
    if name == "half-line-256":
        return build_partition(grid, [0.0]).regions[0].operator()
    if name == "cell-256":
        return build_partition(grid, [0.0], [0.0]).regions[0].operator()
    if name == "pure-state-256":
        w = wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3))
        return weyl_operator_from_symbol(w.as_symbol())
    return build_partition(PhaseGrid.create(128, 18.0), [-6.0, 6.0]).regions[1].operator()


@pytest.mark.parametrize("name", ["oscillator-256", "half-line-256", "pure-state-256",
                                  "band-128", "cell-256"])
def test_eigh_is_accurate_on_clustered_spectra(name):
    # the spectra bunch at 0 and 1 (or at the oscillator's even spacing);
    # MRRR's eigenvectors miss the orthonormality bound on the pure state
    # (2.4e-13) and on the band (6.5e-14)
    op = _eigh_operator(name)
    w, q = op.eigh()
    m = op.matrix
    assert np.all(np.diff(w) >= 0)
    assert np.abs((q * w) @ q.conj().T - m).max() <= 1e-13 * np.abs(m).max()
    assert np.abs(q.conj().T @ q - np.eye(len(w))).max() <= 5e-14


@pytest.mark.parametrize("name", ["free-256", "oscillator-256", "double-well-256"])
def test_real_hamiltonians_take_the_real_path(name, monkeypatch):
    # the presets are even in p: max|Im H| is 7e-15 to 1.2e-14, against a
    # floor of 1.9e-11 to 2.7e-11
    op = _eigh_operator(name)
    calls = _counted_eighs(monkeypatch)
    w, q = op.eigh()
    assert len(calls) == 1 and calls[0].dtype == float
    assert q.dtype == float and q.flags.f_contiguous
    want = np.linalg.eigh(op.matrix.real)
    assert np.array_equal(w, want[0]) and np.array_equal(q, want[1])


def _imaginary_pair_at_the_floor(above: bool) -> OperatorMatrix:
    """A real symmetric 64 x 64 matrix, a subsample of the oscillator H, with
    the Hermitian pair +-i c at (0, 1) and (1, 0): c the noise floor, or one
    ulp above it."""
    m = _eigh_operator("oscillator-256").matrix[::4, ::4].real.astype(complex)
    floor = noise_floor(64, np.abs(m).max())
    m[0, 1] += 1j * (np.nextafter(floor, np.inf) if above else floor)
    m[1, 0] = m[0, 1].conjugate()
    assert noise_floor(64, np.abs(m).max()) == floor
    return OperatorMatrix(PhaseGrid.create(64, 9.0), m, hermitian=True)


@pytest.mark.parametrize("name", ["coupling-16x16", "pure-state-256", "above-floor-64"])
def test_complex_hermitian_matrices_keep_the_complex_path(name, monkeypatch):
    # odd in p, a state at p0 = 0.3, and an imaginary part one ulp above the floor
    op = _imaginary_pair_at_the_floor(True) if name == "above-floor-64" else _eigh_operator(name)
    calls = _counted_eighs(monkeypatch)
    w, q = op.eigh()
    assert len(calls) == 1 and calls[0] is op.matrix
    assert q.dtype == complex
    want = np.linalg.eigh(op.matrix)
    assert np.array_equal(w, want[0]) and np.array_equal(q, want[1])


def test_imaginary_part_at_the_floor_takes_the_real_path(monkeypatch):
    op = _imaginary_pair_at_the_floor(False)
    calls = _counted_eighs(monkeypatch)
    assert op.eigh()[1].dtype == float
    assert len(calls) == 1 and calls[0].dtype == float


def test_unitary_on_a_real_q_is_the_complex_formula():
    op = _eigh_operator("oscillator-256")
    w, q = op.eigh()
    assert q.dtype == float
    qc = q.astype(complex)
    for t in (np.pi / 4, 1.3, 4 * np.pi):
        u = op.unitary(t)
        want = (qc * np.exp(-1j * w * t / op.grid.hbar)) @ qc.conj().T
        assert np.abs(u - want).max() <= 1e-13
        assert np.abs(u @ u.conj().T - np.eye(len(w))).max() <= 1e-12


@pytest.mark.parametrize("layout", ["vector", "matrix", "fortran", "real"])
def test_real_matmul_is_the_complex_product(layout):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(48, 64))
    v = rng.normal(size=(64, 5)) + 1j * rng.normal(size=(64, 5))
    v = {"vector": v[:, 0], "matrix": v, "fortran": np.asfortranarray(v),
         "real": v.real}[layout]
    out = real_matmul(a, v)
    assert out.dtype == complex and out.shape == (48,) + v.shape[1:]
    assert np.abs(out - a.astype(complex) @ v).max() <= 1e-13

# ---------------------------------------------------------------------------
# measurement on the engine path: a partition's quasiprojectors are the POVM
# effects, transition_probabilities_oracle gives the Born weights,
# sample_transition draws and apply_quasiprojection updates the state


def test_povm_identity_effect(grid64):
    # one region covering the grid: its quasiprojector is the identity
    part = build_partition(grid64, [])
    psi = coherent_state(grid64, 1.0, 0.0)
    v = psi.to_vector()
    probs = transition_probabilities_oracle(v, part)
    assert np.array_equal(probs, [1.0])
    assert sample_transition(probs, 0.37) == 0
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
        assert sample_transition(probs, u) == chosen
        post = apply_quasiprojection(cat, projectors[chosen])
        assert np.abs(projectors[chosen].matrix @ post - post).max() < 1e-12
        target = coherent_state(grid64, center, 0.0).to_vector()
        assert abs(np.vdot(target, post)) ** 2 > 1 - 1e-4


def test_povm_empirical_frequencies(grid64):
    part, cat, probs = _cat_over_halves(grid64)
    assert abs(probs.sum() - 1) < 1e-12
    rng = trajectory_rng(7, 0)
    draws = np.array([sample_transition(probs, rng.random()) for _ in range(100_000)])
    freq = (draws == 0).mean()
    sigma = np.sqrt(probs[0] * probs[1] / draws.size)
    assert abs(freq - probs[0]) < 4 * sigma


@pytest.mark.parametrize("probs", [[0.25, 0.5, 0.25], [0.5, 0.0, 0.5], [0.1] * 10,
                                   [3.0, 1.0]])
def test_sample_transition_array_matches_scalar(probs):
    p = np.asarray(probs) / np.sum(probs)
    cdf = np.cumsum(p)
    # 0, the largest uniform, each CDF value exactly and its neighbours; the
    # CDF of [0.1] * 10 ends at 1 - 2**-53, the largest uniform, not at 1
    us = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, 0.0),
                         np.nextafter(cdf, 1.0), np.random.default_rng(3).random(50)])
    us = us[us < 1]
    drawn = sample_transition(probs, us)
    assert drawn.shape == us.shape
    scalar = [sample_transition(probs, float(u)) for u in us]
    assert all(type(k) is int for k in scalar)
    assert drawn.tolist() == scalar
    assert all(0 <= k < len(p) and p[k] > 0 for k in scalar)
    assert sample_transition(probs, 0.0) == int(np.argmax(p > 0))
    assert sample_transition(probs, np.nextafter(1.0, 0.0)) == len(p) - 1


@pytest.mark.parametrize("probs", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
@pytest.mark.parametrize("u", [0.5, [0.1, 0.9]])
def test_sample_transition_rejects_a_degenerate_row(probs, u):
    with pytest.raises(ValueError, match="degenerate"):
        sample_transition(probs, u)


@pytest.mark.parametrize("u", [1.0, -0.1, np.nan, [0.2, 1.0], [np.nan]])
def test_sample_transition_rejects_uniforms_outside_the_unit_interval(u):
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        sample_transition([0.5, 0.5], u)


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
