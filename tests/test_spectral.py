import numpy as np
import pytest

from osqm.spectral import cdftn, cidftn, centered_chords, upsample2, x_to_p


def test_cdft_inverse_pair(rng):
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.abs(cidftn(cdftn(f, (0,)), (0,)) - f).max() < 1e-13


# n // 2 is even at 16 and odd at 18, where the sign table flips
@pytest.mark.parametrize("n", [16, 18])
def test_cdft_is_the_centered_kernel(n):
    f = np.zeros(n)
    f[3] = 1.0
    u = np.arange(n) - n // 2
    expected = np.exp(-2j * np.pi * u * (3 - n // 2) / n)
    assert np.abs(cdftn(f, (0,)) - expected).max() < 1e-13


def test_upsample_preserves_nodes(rng):
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    fine = upsample2(f)
    assert np.abs(fine[::2] - f).max() < 1e-13


def test_upsample_exact_for_bandlimited():
    n = 32
    j = np.arange(n) - n // 2
    # mode inside the open band interpolates exactly at half points
    f = np.cos(2 * np.pi * 3 * j / n + 0.4)
    fine = upsample2(f)
    jf = (np.arange(2 * n) - n) / 2
    exact = np.cos(2 * np.pi * 3 * jf / n + 0.4)
    assert np.abs(fine - exact).max() < 1e-12


def test_upsample_keeps_real_real(rng):
    f = rng.standard_normal(32)
    assert np.abs(upsample2(f).imag).max() < 1e-13


def test_momentum_transform_unitary(grid64, rng):
    dx = grid64.dx[0]
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    phi = x_to_p(psi, dx, grid64.hbar)
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


# the product of (-1)^(n // 2) over the axes is +1 for the first and third
# shapes and -1 for the others
@pytest.mark.parametrize("shape", [(32, 32), (30, 32), (16, 16, 16, 16),
                                   (6, 8, 6, 10)])
@pytest.mark.parametrize("kind", [float, complex])
def test_cdftn_matches_per_axis_transforms(shape, kind):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(shape)
    if kind is complex:
        arr = arr + 1j * rng.standard_normal(shape)
    axes = tuple(range(arr.ndim))
    want = arr
    for ax in axes:
        want = cdftn(want, (ax,))
    got = cdftn(arr, axes)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    back = arr.astype(complex)
    for ax in axes:
        back = cidftn(back, (ax,))
    spectrum = arr.astype(complex)
    got = cidftn(spectrum, axes)
    assert got is spectrum  # in place
    assert np.abs(got - back).max() <= 1e-15 * np.abs(back).max()


def test_sign_tables_are_built_once_per_shape_and_axes_and_read_only():
    from osqm.spectral import _sign_tables
    alt, post = _sign_tables((6, 8, 4), (0, 2))
    assert _sign_tables((6, 8, 4), (0, 2))[0] is alt
    assert alt.dtype == post.dtype == np.int8 and alt.shape == (6, 1, 4)
    assert not alt.flags.writeable and not post.flags.writeable
    # (-1)^(6 // 2 + 4 // 2) = -1
    assert np.array_equal(post, -alt)


@pytest.mark.parametrize("shape, axes", [((64,), (0,)), ((32, 32), (0, 1)),
                                         ((30, 16), (0,)), ((6, 8, 6, 10), (1, 3))])
def test_cached_sign_tables_give_the_fresh_tables_transform(shape, axes):
    from osqm.spectral import _sign_tables
    rng = np.random.default_rng(11)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    alt, post = _sign_tables.__wrapped__(shape, axes)
    want = np.fft.fftn(arr * alt, axes=axes[::-1]) * post
    for _ in range(2):      # the second call reads the cached tables
        assert np.array_equal(cdftn(arr, axes), want)
        back = np.fft.ifftn(want * post, axes=axes[::-1]) * alt
        assert np.array_equal(cidftn(want.copy(), axes), back)
