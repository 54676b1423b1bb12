import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.spectral import (GEMM_MAX, _half_cell_kernel, cdftn, cidftn, centered_chords,
                           half_cell_table, shift_half_cell, x_to_p)


def test_cdft_inverse_pair(rng):
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.abs(cidftn(cdftn(f, 0), 0) - f).max() < 1e-13


# n // 2 is even at 16 and odd at 18, where the sign table flips
@pytest.mark.parametrize("n", [16, 18])
def test_cdft_is_the_centered_kernel(n):
    f = np.zeros(n)
    f[3] = 1.0
    u = np.arange(n) - n // 2
    expected = np.exp(-2j * np.pi * u * (3 - n // 2) / n)
    assert np.abs(cdftn(f, 0) - expected).max() < 1e-13


def test_half_cell_shift_twice_is_a_one_cell_roll(rng):
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    f -= f @ (-1.0) ** np.arange(32) / 32 * (-1.0) ** np.arange(32)   # no Nyquist term
    g = f.copy()
    assert shift_half_cell(g, 0, True, adjoint=False, negate=False) is g
    assert np.abs(shift_half_cell(g, 0, True, adjoint=False, negate=False)
                  - np.roll(f, -1)).max() < 1e-13


def test_half_cell_shift_exact_for_bandlimited():
    n = 32
    j = np.arange(n) - n // 2
    # a mode inside the open band is exact at the half points
    f = np.cos(2 * np.pi * 3 * j / n + 0.4)
    exact = np.cos(2 * np.pi * 3 * (j + 0.5) / n + 0.4)
    assert np.abs(shift_half_cell(f + 0j, 0, True, adjoint=False, negate=False) - exact).max() < 1e-12


def test_half_cell_shift_keeps_real_real(rng):
    f = rng.standard_normal((32, 3)) + 0j
    assert np.abs(shift_half_cell(f, 0, True, adjoint=False, negate=False).imag).max() < 1e-13


# the Nyquist coefficient is split evenly between +-n/2, as the x2 upsample
# splits it; the pair cancels half a cell past the nodes. n // 2 is odd at 18
@pytest.mark.parametrize("n", [16, 18])
def test_half_cell_shift_maps_the_nyquist_coefficient_to_zero(n):
    table = half_cell_table(n, True)
    assert table[n // 2] == 0
    assert np.abs(shift_half_cell((-1.0) ** np.arange(n) + 0j, 0, True,
                                  adjoint=False, negate=False)).max() < 1e-15


def _fft_pair(arr, axis, table):
    """ifft(table * fft(arr)) along axis, into a new array."""
    spectrum = np.fft.fft(arr, axis=axis)
    spectrum *= table.reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
    return np.fft.ifft(spectrum, axis=axis)


# (parent shape, view of the parent, axis of the view): a whole 1-D array;
# odd rows, shifted along an axis with contiguous rows behind it and along
# the last axis; odd columns, whose shifted axis has strided rows behind it
_LAYOUTS = {
    "1-d": (lambda n: (n,), lambda a: a, 0),
    "odd-rows": (lambda n: (6, n, 3), lambda a: a[1::2], 1),
    "odd-rows-last-axis": (lambda n: (6, n), lambda a: a[1::2], 1),
    "odd-columns": (lambda n: (n, 4, 6), lambda a: a[..., 1::2], 0),
}


# one linear map, two evaluations: under the zero rule the circulant matrix
# up to GEMM_MAX points, the fft pair beyond; the fft pair under the -i rule.
# The fft pair is bitwise the one before the matrix product
@pytest.mark.parametrize("n", [8, 30, 32, 34, 64, 66, 128])
@pytest.mark.parametrize("zero_nyquist", [True, False])
@pytest.mark.parametrize("adjoint, negate", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_shift_half_cell_is_the_fft_pair_of_its_table(n, zero_nyquist, adjoint, negate,
                                                      layout):
    shape, view, axis = _LAYOUTS[layout]
    rng = np.random.default_rng(n)
    parent = rng.standard_normal(shape(n)) + 1j * rng.standard_normal(shape(n))
    table = half_cell_table(n, zero_nyquist)
    table = -table if negate else np.conj(table) if adjoint else table
    want = parent.copy()
    view(want)[...] = _fft_pair(view(parent), axis, table)
    got = parent.copy()
    arr = view(got)
    reads = sum(_half_cell_kernel.cache_info()[:2])
    assert shift_half_cell(arr, axis, zero_nyquist, adjoint=adjoint, negate=negate) is arr
    matmul = zero_nyquist and n <= GEMM_MAX
    assert (sum(_half_cell_kernel.cache_info()[:2]) > reads) == matmul
    if matmul:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)
    untouched = np.ones(parent.shape, bool)
    view(untouched)[...] = False
    assert np.array_equal(got[untouched], parent[untouched])


def test_half_cell_kernel_is_built_once_per_size_and_read_only():
    arr = np.ones((32, 5), complex)
    kernel = _half_cell_kernel(32)
    assert kernel.dtype == float and kernel.shape == (32, 32)
    assert not kernel.flags.writeable
    misses = _half_cell_kernel.cache_info().misses
    for adjoint, negate in [(False, False), (True, False), (False, True)]:
        shift_half_cell(arr, 0, True, adjoint=adjoint, negate=negate)
    assert _half_cell_kernel.cache_info().misses == misses
    assert _half_cell_kernel(32) is kernel
    assert np.array_equal(kernel[:, 0], np.fft.ifft(half_cell_table(32, True)).real)


# the one table of every half-cell phase: the Weyl maps read it with True,
# the LvN split path's term bases, its one reader, with False. At n = 98,
# n * (1 / n) != 1, so np.fft.fftfreq(n, 1 / n) is not the integer
# frequencies, and a table built from it is off by round-off
@pytest.mark.parametrize("n", [30, 32, 98])
def test_half_cell_table_is_the_table_of_every_half_cell_phase(n):
    from osqm.dynamics import HamiltonianTerm, _TermBasis
    k = np.r_[:n // 2, -n // 2:0]
    exact = np.exp(1j * np.pi * k / n)
    weyl, lvn = half_cell_table(n, True), half_cell_table(n, False)
    assert np.array_equal(lvn, exact)
    assert np.array_equal(np.delete(weyl, n // 2), np.delete(exact, n // 2))
    assert weyl[n // 2] == 0
    assert abs(lvn[n // 2] - np.exp(-1j * np.pi / 2)) < 1e-15   # -i to round-off
    grid = PhaseGrid.create(n, 7.0)
    for kind in "xp":   # conv axis 0 (frequency k) for x, 1 for p
        term = HamiltonianTerm(((kind, 0, np.cos),))
        shift = _TermBasis(grid, term, split=False).shift()
        shift = shift if kind == "x" else shift.T
        assert np.array_equal(shift[:, 1::2], np.repeat(lvn[:, None], n // 2, axis=1))
        assert np.all(shift[:, ::2] == 1)


def test_momentum_transform_unitary(grid64, rng):
    dx = grid64.dx[0]
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    phi = x_to_p(psi, dx, grid64.hbar, axis=0)
    dp = grid64.dp[0]
    assert abs((np.abs(phi) ** 2).sum() * dp -
               (np.abs(psi) ** 2).sum() * dx) < 1e-12
    # phi(p_m) = (2 pi hbar)^(-1/2) dx sum_j psi(x_j) exp(-i x_j p_m / hbar)
    hbar = grid64.hbar
    kernel = np.exp(-1j * np.outer(grid64.p(0), grid64.x(0)) / hbar)
    explicit = dx / np.sqrt(2 * np.pi * hbar) * (kernel @ psi)
    assert np.abs(phi - explicit).max() < 1e-12


def test_centered_chords_layout():
    assert list(centered_chords(8)) == [0, 1, 2, 3, -4, -3, -2, -1]


# (-1)^(n // 2) is +1 along the even-half axes (32, 16) and -1 along the
# others; each axis is transformed alone, as x_to_p and the scenario do
@pytest.mark.parametrize("shape", [(32, 32), (30, 32), (16, 16, 16, 16),
                                   (6, 8, 6, 10)])
@pytest.mark.parametrize("kind", [float, complex])
def test_cdftn_matches_per_axis_transforms(shape, kind):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(shape)
    if kind is complex:
        arr = arr + 1j * rng.standard_normal(shape)
    for ax in range(arr.ndim):
        n = shape[ax]
        u = np.arange(n) - n // 2
        kernel = np.exp(-2j * np.pi * np.outer(u, u) / n)   # [u, k], the centered DFT
        want = np.moveaxis(np.tensordot(kernel, arr, axes=(1, ax)), 0, ax)
        got = cdftn(arr, ax)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        spectrum = want.copy()
        back = cidftn(spectrum, ax)
        assert back is spectrum  # in place
        assert np.abs(back - arr).max() <= 1e-14 * np.abs(arr).max()


def test_sign_tables_are_built_once_per_shape_and_axes_and_read_only():
    from osqm.spectral import _sign_tables
    alt, post = _sign_tables((6, 8, 4), 1)
    assert _sign_tables((6, 8, 4), 1)[0] is alt
    assert alt.dtype == post.dtype == np.int8 and alt.shape == (8, 1)
    assert not alt.flags.writeable and not post.flags.writeable
    assert np.array_equal(post, alt)     # (-1)^(8 // 2) = 1
    alt, post = _sign_tables((6, 8, 4), 0)
    assert alt.shape == (6, 1, 1) and np.array_equal(post, -alt)   # (-1)^(6 // 2) = -1


# each listed axis is transformed alone, reading the tables of its own
# (shape, axis)
@pytest.mark.parametrize("shape, axes", [((64,), (0,)), ((32, 32), (0, 1)),
                                         ((30, 16), (0,)), ((6, 8, 6, 10), (1, 3))])
def test_cached_sign_tables_give_the_fresh_tables_transform(shape, axes):
    from osqm.spectral import _sign_tables
    rng = np.random.default_rng(11)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in axes:
        alt, post = _sign_tables.__wrapped__(shape, axis)
        want = np.fft.fft(arr * alt, axis=axis) * post
        for _ in range(2):      # the second call reads the cached tables
            assert np.array_equal(cdftn(arr, axis), want)
            back = np.fft.ifft(want * post, axis=axis) * alt
            assert np.array_equal(cidftn(want.copy(), axis), back)
