"""Centered-grid spectral helpers shared by all transforms.

Grid points are x_j = (j - N/2) dx with N even, and the matching momentum
grid p_m = (m - N/2) dp with dx dp N = 2 pi hbar, so the discrete transforms
below are exactly unitary at the chosen hbar.

There is one centered DFT, cdftn, with its inverse cidftn, along the axes a
caller names: x_to_p takes one axis, the measurement scenario's coupling
step transforms axis 0, and the star product transforms both axes of a
dof-1 symbol.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

__all__ = [
    "alternating_signs",
    "centered_chords",
    "cdftn",
    "cidftn",
    "upsample2",
    "x_to_p",
]


def alternating_signs(n: int) -> np.ndarray:
    """(-1)^k for k = 0..n-1."""
    return (-1.0) ** np.arange(n)


def centered_chords(n: int) -> np.ndarray:
    """Centered representative of each raw residue: values in [-n/2, n/2)."""
    return ((np.arange(n) + n // 2) % n) - n // 2


@lru_cache(maxsize=64)
def _sign_tables(shape: tuple, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(alt, post): the +-1 factors of the centered DFT over axes, multiplied out.

    Along one axis of length n the centered DFT is post_ax * fft(alt_ax * f),
    with alt_ax = (-1)^k and post_ax = (-1)^(n // 2) alt_ax; the sign factors
    of the other axes commute with it exactly, so over several axes it is
    post * fftn(alt * f), and its inverse is alt * ifftn(post * F). post is
    +-alt, so one int8 table serves both; it is 1 along every other axis.
    The tables are built once per (shape, axes) and are read-only.
    """
    alt = np.ones((), dtype=np.int8)
    for ax, n in enumerate(shape):
        signs = alternating_signs(n) if ax in axes else np.ones(1)
        alt = np.multiply.outer(alt, signs.astype(np.int8))
    post = alt if sum(shape[ax] // 2 for ax in axes) % 2 == 0 else -alt
    alt.flags.writeable = post.flags.writeable = False
    return alt, post


def cdftn(arr: np.ndarray, axes: tuple) -> np.ndarray:
    """Centered DFT along axes, into a new complex array:
    F[u] = sum_k f[k] exp(-2 pi i (u - n/2)(k - n/2)/n) along each."""
    axes = normalize_axis_tuple(axes, arr.ndim)
    alt, post = _sign_tables(arr.shape, axes)
    out = np.multiply(arr, alt, dtype=complex)
    # fftn takes the last axis listed first: listed in reverse, the axes are
    # transformed in the order given, as a loop of one-axis transforms would
    np.fft.fftn(out, axes=axes[::-1], out=out)
    return np.multiply(out, post, out=out)


def cidftn(arr: np.ndarray, axes: tuple) -> np.ndarray:
    """Inverse of cdftn along axes, including the 1/n factors, in place on
    the complex arr, which it returns."""
    axes = normalize_axis_tuple(axes, arr.ndim)
    alt, post = _sign_tables(arr.shape, axes)
    np.multiply(arr, post, out=arr)
    np.fft.ifftn(arr, axes=axes[::-1], out=arr)
    return np.multiply(arr, alt, out=arr)


def upsample2(f: np.ndarray, axis: int = -1) -> np.ndarray:
    """Trigonometric x2 interpolation along one axis (even length required).

    The Nyquist coefficient is split symmetrically, so real input stays real
    and values at the original nodes are preserved exactly.
    """
    f = np.asarray(f, dtype=complex)
    n = f.shape[axis]
    if n % 2:
        raise ValueError("upsample2 requires even length")
    F = np.fft.fft(f, axis=axis)
    shape = list(f.shape)
    shape[axis] = 2 * n
    G = np.zeros(shape, dtype=complex)
    sl = [slice(None)] * f.ndim

    def at(i):
        s = sl.copy()
        s[axis] = i
        return tuple(s)

    G[at(slice(0, n // 2))] = F[at(slice(0, n // 2))]
    G[at(n // 2)] = 0.5 * F[at(n // 2)]
    G[at(2 * n - n // 2)] = 0.5 * F[at(n // 2)]
    G[at(slice(2 * n - n // 2 + 1, 2 * n))] = F[at(slice(n // 2 + 1, n))]
    return 2.0 * np.fft.ifft(G, axis=axis)


def x_to_p(psi: np.ndarray, dx: float, hbar: float, axis: int = -1) -> np.ndarray:
    """Unitary position -> momentum transform on the centered grid.

    phi(p_m) = (2 pi hbar)^{-1/2} * dx * sum_j psi(x_j) exp(-i x_j p_m / hbar)
    """
    return cdftn(psi, (axis,)) * (dx / np.sqrt(2 * np.pi * hbar))
