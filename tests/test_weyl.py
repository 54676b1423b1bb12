import numpy as np
import pytest

from osqm.grid import GridMismatchError, PhaseGrid
from osqm.oracle import OperatorMatrix, WaveFunction
from osqm.weyl import (WeylSymbol, mean_value, moyal_product, weyl_operator_from_symbol,
                       weyl_symbol_from_operator)
from osqm.wigner import coherent_state, wavefunction_from_wigner, wigner_from_wavefunction


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
    m = weyl_operator_from_symbol(WeylSymbol(grid64, np.ones(grid64.phase_shape)))
    assert np.abs(m.matrix - np.eye(grid64.hilbert_dim)).max() < 1e-14


def test_position_symbol_is_diagonal(grid64):
    X, P = grid64.phase_mesh()
    m = weyl_operator_from_symbol(WeylSymbol(grid64, X + 0j))
    assert np.abs(m.matrix - np.diag(grid64.x(0))).max() < 1e-13


def test_oscillator_spectrum(grid64):
    X, P = grid64.phase_mesh()
    m = weyl_operator_from_symbol(WeylSymbol(grid64, (X ** 2 + P ** 2) / 2 + 0j))
    evals = np.linalg.eigvalsh(m.matrix)
    for k in range(8):
        assert abs(evals[k] - (k + 0.5)) < 1e-6


def test_identity_matrix_gives_unit_symbol(grid64):
    op = OperatorMatrix(grid64, np.eye(grid64.hilbert_dim, dtype=complex),
                        hermitian=True)
    sym = weyl_symbol_from_operator(op)
    assert np.abs(sym.values - 1).max() < 1e-13


def test_projector_symbol_is_scaled_wigner(grid64):
    psi = coherent_state(grid64, 0.4, -0.9)
    v = psi.to_vector()
    sym = weyl_symbol_from_operator(OperatorMatrix(grid64, np.outer(v, v.conj())))
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
    one = WeylSymbol(grid64, np.ones(grid64.phase_shape))
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
    bad = WeylSymbol(grid64, np.full(grid64.phase_shape, 1 + 1j))
    with pytest.raises(ValueError):
        mean_value(bad, w)


def test_overlap_examples(grid64):
    # |<a|b>|^2 = tr(rho_a rho_b): the mean value of rho_b's symbol in state a
    from osqm.scenarios import initial_state_preset
    w0 = wigner_from_wavefunction(coherent_state(grid64, 0.5, 0.5))
    assert abs(mean_value(w0.as_symbol(), w0) - 1) < 1e-10
    k0 = initial_state_preset(grid64, "oscillator-eigenstate", {"k": 0})
    k1 = initial_state_preset(grid64, "oscillator-eigenstate", {"k": 1})
    wa = wigner_from_wavefunction(k0)
    wb = wigner_from_wavefunction(k1)
    assert abs(mean_value(wb.as_symbol(), wa)) < 1e-8


# the maps as a x2 trigonometric upsample of each dof's block gave them, read
# with 2-D fancy indexes over the last two axes, each dof's pair moved there
# with moveaxis: the reference for the half-cell shift of the odd chords


def _fancy_upsample2(f, axis):
    f = np.asarray(f, dtype=complex)
    n = f.shape[axis]
    F = np.fft.fft(f, axis=axis)
    shape = list(f.shape)
    shape[axis] = 2 * n
    G = np.zeros(shape, dtype=complex)

    def at(i):
        s = [slice(None)] * f.ndim
        s[axis] = i
        return tuple(s)

    G[at(slice(0, n // 2))] = F[at(slice(0, n // 2))]
    G[at(n // 2)] = 0.5 * F[at(n // 2)]
    G[at(2 * n - n // 2)] = 0.5 * F[at(n // 2)]
    G[at(slice(2 * n - n // 2 + 1, 2 * n))] = F[at(slice(n // 2 + 1, n))]
    return 2.0 * np.fft.ifft(G, axis=axis)


def _fancy_tables(n):
    a = np.arange(n)
    ctil = ((a + n // 2) % n) - n // 2
    craw = (a[:, None] - a[None, :]) % n
    s_disp = (2 * a[None, :] + ctil[craw]) % (2 * n)
    jw = (2 * a[:, None] - ctil[None, :]) % (2 * n)
    return craw, s_disp, jw


def _fancy_op_core(arr):
    n = arr.shape[-1]
    craw, s_disp, _ = _fancy_tables(n)
    g = np.fft.ifft(_fancy_upsample2(arr, axis=-2), axis=-1) * (-1.0) ** np.arange(n)
    return g[..., s_disp, craw]


def _fancy_chord_core(e):
    n = e.shape[-1]
    ef = _fancy_upsample2(e, axis=-1)
    crow = np.broadcast_to(np.arange(n)[None, :], (n, n))
    b = ef[..., crow, _fancy_tables(n)[2]] * (-1.0) ** np.arange(n)
    return np.fft.fft(b, axis=-1)


def _fancy_per_dof(arr, core):
    dof = arr.ndim // 2
    for d in reversed(range(dof)):
        arr = core(np.moveaxis(arr, (d, 2 * d + 1), (-2, -1)))
    last = 2 * dof - 2
    return arr.transpose([*range(last, -1, -2), *range(last + 1, 0, -2)])


def _fancy_chords(shape):
    ct = np.indices(shape * 2, sparse=True)       # E[c_0.., t_0..] = m[t + c, t]
    ket = ct[len(shape):]
    return tuple((c + t) % n for c, t, n in zip(ct[:len(shape)], ket, shape)), ket


def _fancy_symbol(grid, m):
    """The symbol of the matrix m: .real of the whole transform if m is Hermitian."""
    bra, ket = _fancy_chords(grid.config_shape)
    vals = _fancy_per_dof(m.reshape(grid.config_shape * 2)[bra + ket], _fancy_chord_core)
    return vals.real + 0j if np.abs(m - m.conj().T).max() <= 1e-10 else vals


def _fancy_wigner(grid, psi):
    """W of psi: .real of the whole transform of its chord block."""
    bra, ket = _fancy_chords(grid.config_shape)
    v = psi.to_vector().reshape(grid.config_shape)
    return (_fancy_per_dof(v[bra] * v.conj()[ket], _fancy_chord_core).real
            / (2 * np.pi * grid.hbar) ** grid.dof)


def _fancy_maps(grid, psi, sym):
    """What _three_maps and wavefunction_from_wigner give, through the reference."""
    shape, dim, scale = grid.config_shape, grid.hilbert_dim, (2 * np.pi * grid.hbar) ** grid.dof

    def operator(values, herm):
        m = _fancy_per_dof(values, _fancy_op_core).reshape(dim, dim)
        return 0.5 * (m + m.conj().T) if herm else m

    w = _fancy_wigner(grid, psi)
    op, herm = operator(sym.values, False), operator(w * scale + 0j, True)
    maps = [w, op, _fancy_symbol(grid, op), herm, _fancy_symbol(grid, herm)]
    if grid.dof == 1:
        n = shape[0]
        a = np.arange(n)
        rows = _fancy_upsample2(w, axis=0)[(a + n // 2) % (2 * n), :]    # W at x_a / 2
        g = grid.dp[0] * (rows * np.exp(2j * np.pi * np.outer(a - n // 2, a - n // 2) / n)).sum(1)
        maps.append(WaveFunction(grid, g / np.sqrt(g[n // 2].real), normalized=False)
                    .normalize().values)
    return maps


def _weyl_case(shape):
    """(grid, state, random complex symbol): a coherent state on dof 1,
    pointer (x) cat on dof 2."""
    from osqm.grid import PhaseGrid
    from osqm.oracle import tensor_state
    from osqm.scenarios import initial_state_preset
    if len(shape) == 1:
        grid = PhaseGrid.create(shape[0], 9.0)
        psi = coherent_state(grid, 1.0, 0.3)
    else:
        g1, g2 = PhaseGrid.create(shape[0], 8.0), PhaseGrid.create(shape[1], 8.0)
        cat = initial_state_preset(g2, "cat", {"centers": [[-2.0, 0.0], [2.0, 0.0]]})
        grid = PhaseGrid.product(g1, g2)
        psi = tensor_state(coherent_state(g1, 0.0, 0.0), cat)
    rng = np.random.default_rng(sum(shape))
    sym = WeylSymbol(grid, rng.standard_normal(grid.phase_shape)
                     + 1j * rng.standard_normal(grid.phase_shape))
    return grid, psi, sym


def _three_maps(grid, psi, sym):
    w = wigner_from_wavefunction(psi)
    op = weyl_operator_from_symbol(sym)
    herm = weyl_operator_from_symbol(w.as_symbol())
    return (w.values, op.matrix, weyl_symbol_from_operator(op).values, herm.matrix,
            weyl_symbol_from_operator(herm).values)


SHAPES = pytest.mark.parametrize("shape", [(30,), (64,), (32, 32), (24, 32), (30, 26)],
                                 ids=["30", "64", "32x32", "24x32", "30x26"])


# at 30 and 26, which are 2 (mod 4), the chord -n/2 is odd and is shifted
@SHAPES
def test_half_cell_cores_match_the_upsampled_reference(shape):
    grid, psi, sym = _weyl_case(shape)
    got = list(_three_maps(grid, psi, sym))
    if grid.dof == 1:
        got.append(wavefunction_from_wigner(wigner_from_wavefunction(psi)).values)
    want = _fancy_maps(grid, psi, sym)
    assert len(got) == len(want) == 5 + (grid.dof == 1)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


def test_recovery_reads_a_composite_state_off_its_operator():
    # psi comes back through the Weyl map on every dof at once
    from osqm.oracle import tensor_state
    from osqm.scenarios import initial_state_preset
    grid, psi, _ = _weyl_case((32, 32))
    rec = wavefunction_from_wigner(wigner_from_wavefunction(psi))
    assert 1 - abs(rec.overlap(psi)) ** 2 <= 1e-12
    assert np.angle(rec.values[16, 16]) == 0
    # dof 0's node at the origin of the product grid
    node = initial_state_preset(grid.factor(0), "oscillator-eigenstate", {"k": 1})
    w = wigner_from_wavefunction(tensor_state(node, coherent_state(grid.factor(1), 0.5, 0.0)))
    with pytest.raises(ValueError, match="top eigenvector of weyl_operator_from_symbol"):
        wavefunction_from_wigner(w)


def _random_case(shape):
    """(grid, random state, random dense Hermitian matrix) on _weyl_case's grid.

    Neither is contained: both fill the Nyquist chords, where the real path
    takes dof 1's Nyquist chord as the mean of its two midpoints. A contained
    state leaves those chords empty, so it passes without that mean."""
    grid = _weyl_case(shape)[0]
    rng = np.random.default_rng(2 * sum(shape) + 1)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = (rng.standard_normal((grid.hilbert_dim,) * 2)
         + 1j * rng.standard_normal((grid.hilbert_dim,) * 2))
    return grid, WaveFunction(grid, v, normalized=False).normalize(), a + a.conj().T


@SHAPES
def test_real_path_matches_the_whole_transform_on_random_inputs(shape):
    grid, psi, herm = _random_case(shape)
    sym = weyl_symbol_from_operator(OperatorMatrix(grid, herm))
    assert sym.hermitian
    got = [wigner_from_wavefunction(psi, check_containment=False).values, sym.values]
    want = [_fancy_wigner(grid, psi), _fancy_symbol(grid, herm)]
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


def test_flagged_and_measured_hermitian_operators_give_one_symbol():
    # within HERM_TOL of Hermitian, not exactly: both take the real path from
    # the same Hermitian part, one on the flag, one on the measured deviation
    grid, _, herm = _random_case((24, 32))
    rng = np.random.default_rng(5)
    m = herm + 1e-12 * rng.standard_normal(herm.shape)
    flagged = weyl_symbol_from_operator(OperatorMatrix(grid, m, hermitian=True))
    measured = weyl_symbol_from_operator(OperatorMatrix(grid, m))
    assert flagged.hermitian and measured.hermitian
    assert np.array_equal(flagged.values, measured.values)


@pytest.mark.parametrize("shape", [(30,), (24, 32)], ids=["30", "24x32"])
def test_real_symbol_quantises_to_the_hermitian_part_of_its_matrix(shape):
    # the symmetrisation runs in place on the cores' array; it must round as
    # the expression it replaced
    grid, _, sym = _weyl_case(shape)
    raw = weyl_operator_from_symbol(WeylSymbol(grid, sym.values.real, hermitian=False)).matrix
    herm = weyl_operator_from_symbol(WeylSymbol(grid, sym.values.real)).matrix
    assert np.array_equal(herm, 0.5 * (raw + raw.conj().T))


@pytest.mark.parametrize("shape", [(30,), (24, 32)], ids=["30", "24x32"])
def test_maps_leave_their_inputs_unchanged(shape):
    # the maps shift odd chords in place, on arrays they must allocate themselves
    grid, psi, sym = _weyl_case(shape)
    w = wigner_from_wavefunction(psi)
    real = WeylSymbol(grid, sym.values.real)
    op, herm = weyl_operator_from_symbol(sym), weyl_operator_from_symbol(real)
    inputs = (psi.values, sym.values, real.values, op.matrix, herm.matrix, w.values)
    before = [a.tobytes() for a in inputs]
    wigner_from_wavefunction(psi)
    for s in (sym, real):
        weyl_operator_from_symbol(s)
    for m in (op, herm):
        weyl_symbol_from_operator(m)
    wavefunction_from_wigner(w)
    assert [a.tobytes() for a in inputs] == before


def test_cached_index_tables_are_read_only():
    # they are shared by every later map on the same grid size
    from osqm import spectral, weyl
    bra, ket = weyl._chord_index((16, 12), half=False)
    half_bra, half_ket = weyl._chord_index((16, 12), half=True)
    for table in [*weyl._flat_tables(16), *bra, *ket, *half_bra, *half_ket,
                  spectral.half_cell_table(16, True), spectral.half_cell_table(16, False)]:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


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
    with pytest.raises(GridMismatchError):
        moyal_product(a, b)


def _dof2_grid():
    return PhaseGrid.product(PhaseGrid.create(32, 6.0), PhaseGrid.create(32, 6.0))


# a real pair, and a complex a whose operator is not Hermitian; both misses
# read about 1e-9, the Nyquist content of Gaussians on 32 points
@pytest.mark.parametrize("complex_a", [False, True], ids=["real", "complex"])
def test_star_matches_operator_product_on_dof2(complex_a):
    grid = _dof2_grid()
    x0, x1, p0, p1 = grid.phase_mesh()
    a = np.exp(-((x0 - 0.5) ** 2 + (p0 + 0.5) ** 2 + (x1 - 0.5) ** 2 + (p1 + 0.5) ** 2) / 2)
    b = np.exp(-((x0 + 0.5) ** 2 + (p0 - 0.5) ** 2 + (x1 + 0.5) ** 2 + (p1 - 0.5) ** 2) / 2)
    a, b = WeylSymbol(grid, a * (1 + 1j * p1 if complex_a else 1)), WeylSymbol(grid, b)
    rhs = weyl_operator_from_symbol(a).matrix @ weyl_operator_from_symbol(b).matrix
    lhs = weyl_operator_from_symbol(moyal_product(a, b)).matrix
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_star_of_product_symbols_is_the_product_of_stars(rng):
    grid = _dof2_grid()
    a1, a2, b1, b2 = (_gauss(grid.factor(0), *rng.uniform(-1, 1, 2), rng.uniform(0.9, 1.3))
                      for _ in range(4))

    def kron(s, u):
        return WeylSymbol(grid, np.einsum("ac,bd->abcd", s.values, u.values))

    lhs = moyal_product(kron(a1, a2), kron(b1, b2)).values
    rhs = kron(moyal_product(a1, b1), moyal_product(a2, b2)).values
    assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()
