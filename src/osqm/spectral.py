"""Centered-grid spectral helpers shared by all transforms.

Grid points are x_j = (j - N/2) dx with N even, and the matching momentum
grid p_m = (m - N/2) dp with dx dp N = 2 pi hbar, so the discrete transforms
below are exactly unitary at the chosen hbar.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "alternating_signs",
    "centered_chords",
    "cdft",
    "cidft",
    "cdftn",
    "cidftn",
    "upsample2",
    "x_to_p",
    "p_to_x",
    "spectral_derivative",
]


def alternating_signs(n: int) -> np.ndarray:
    """(-1)^k for k = 0..n-1."""
    return (-1.0) ** np.arange(n)


def centered_chords(n: int) -> np.ndarray:
    """Centered representative of each raw residue: values in [-n/2, n/2)."""
    return ((np.arange(n) + n // 2) % n) - n // 2


def cdft(f: np.ndarray, axis: int = -1) -> np.ndarray:
    """Centered DFT: F[u] = sum_k f[k] exp(-2 pi i (u - n/2)(k - n/2)/n)."""
    f = np.asarray(f)
    n = f.shape[axis]
    s = alternating_signs(n) * (-1.0) ** (n // 2)
    shape = [1] * f.ndim
    shape[axis] = n
    sv = s.reshape(shape)
    alt = alternating_signs(n).reshape(shape)
    return sv * np.fft.fft(f * alt, axis=axis)


def cidft(F: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of cdft, including the 1/n factor."""
    F = np.asarray(F)
    n = F.shape[axis]
    s = alternating_signs(n) * (-1.0) ** (n // 2)
    shape = [1] * F.ndim
    shape[axis] = n
    sv = s.reshape(shape)
    alt = alternating_signs(n).reshape(shape)
    return alt * np.fft.ifft(F * sv, axis=axis)


def _sign_tables(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(alt, post): the +-1 factors of cdft multiplied out over every axis.

    cdft along one axis is post_ax * fft(alt_ax * f), with post_ax =
    (-1)^(n // 2) alt_ax; the sign factors of the other axes commute with it
    exactly, so over every axis it is post * fftn(alt * f), and cidft is
    alt * ifftn(post * F). post is +-alt, so one int8 table serves both.
    """
    alt = np.ones((), dtype=np.int8)
    for n in shape:
        alt = np.multiply.outer(alt, alternating_signs(n).astype(np.int8))
    return alt, (alt if sum(n // 2 for n in shape) % 2 == 0 else -alt)


def cdftn(arr: np.ndarray) -> np.ndarray:
    """cdft along every axis, into a new complex array."""
    alt, post = _sign_tables(arr.shape)
    out = np.multiply(arr, alt, dtype=complex)
    # fftn takes the last axis listed first: axis 0 first, as a cdft per axis
    # does, gives that loop's result bit for bit
    np.fft.fftn(out, axes=tuple(reversed(range(arr.ndim))), out=out)
    return np.multiply(out, post, out=out)


def cidftn(arr: np.ndarray) -> np.ndarray:
    """cidft along every axis, in place on the complex arr, which it returns."""
    alt, post = _sign_tables(arr.shape)
    np.multiply(arr, post, out=arr)
    np.fft.ifftn(arr, axes=tuple(reversed(range(arr.ndim))), out=arr)
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
    return cdft(psi, axis=axis) * (dx / np.sqrt(2 * np.pi * hbar))


def p_to_x(phi: np.ndarray, dx: float, hbar: float, axis: int = -1) -> np.ndarray:
    """Inverse of x_to_p."""
    return cidft(phi, axis=axis) * (np.sqrt(2 * np.pi * hbar) / dx)


def spectral_derivative(f: np.ndarray, spacing: float, axis: int = -1,
                        order: int = 1) -> np.ndarray:
    """Fourier differentiation of a periodic grid field.

    The Nyquist mode is zeroed for odd derivative orders so real fields stay
    real. Only valid for fields that are smooth and periodic on the grid.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    k = 2 * np.pi * np.fft.fftfreq(n, spacing)
    if order % 2:
        k = k.copy()
        k[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    mult = (1j * k) ** order
    out = np.fft.ifft(np.fft.fft(f, axis=axis) * mult.reshape(shape), axis=axis)
    if np.isrealobj(f):
        return out.real
    return out
