"""Centered-grid spectral helpers shared by all transforms.

Grid points are x_j = (j - N/2) dx with N even, and the matching momentum
grid p_m = (m - N/2) dp with dx dp N = 2 pi hbar, so the discrete transforms
below are exactly unitary at the chosen hbar.

There is one centered DFT, cdftn, with its inverse cidftn, along one axis:
x_to_p takes each dof's axis in turn, and the measurement scenario's
coupling step axis 0 of its (pointer, observed) array.

There is one half-cell phase table, half_cell_table(n, zero_nyquist), and
one routine that applies it, shift_half_cell. Its argument is the one rule
for the Nyquist frequency: the Weyl maps, the LvN exact path and the LvN
right-hand side (LvnPlan.rhs) pass True; the LvN split path, which undoes
its shift with the conjugate, is the one reader of False.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "alternating_signs",
    "centered_chords",
    "cdftn",
    "cidftn",
    "half_cell_table",
    "shift_half_cell",
    "x_to_p",
]


def alternating_signs(n: int) -> np.ndarray:
    """(-1)^k for k = 0..n-1."""
    return (-1.0) ** np.arange(n)


def centered_chords(n: int) -> np.ndarray:
    """Centered representative of each raw residue: values in [-n/2, n/2)."""
    return ((np.arange(n) + n // 2) % n) - n // 2


@lru_cache(maxsize=64)
def _sign_tables(shape: tuple, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(alt, post): the +-1 factors of the centered DFT along axis of shape.

    Along an axis of length n the centered DFT is post * fft(alt * f), with
    alt = (-1)^k and post = (-1)^(n // 2) alt, and its inverse is
    alt * ifft(post * F). post is +-alt, so one int8 table serves both; it
    is shaped to broadcast along axis. The tables are built once per
    (shape, axis) and are read-only.
    """
    n = shape[axis]
    alt = alternating_signs(n).astype(np.int8).reshape(
        (-1,) + (1,) * (len(shape) - 1 - axis % len(shape)))
    post = alt if (n // 2) % 2 == 0 else -alt
    alt.flags.writeable = post.flags.writeable = False
    return alt, post


def cdftn(arr: np.ndarray, axis: int) -> np.ndarray:
    """Centered DFT along axis, into a new complex array:
    F[u] = sum_k f[k] exp(-2 pi i (u - n/2)(k - n/2)/n)."""
    alt, post = _sign_tables(arr.shape, axis)
    out = np.multiply(arr, alt, dtype=complex)
    np.fft.fft(out, axis=axis, out=out)
    return np.multiply(out, post, out=out)


def cidftn(arr: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of cdftn along axis, including the 1/n factor, in place on
    the complex arr, which it returns."""
    alt, post = _sign_tables(arr.shape, axis)
    np.multiply(arr, post, out=arr)
    np.fft.ifft(arr, axis=axis, out=arr)
    return np.multiply(arr, alt, out=arr)


@lru_cache(maxsize=32)
def half_cell_table(n: int, zero_nyquist: bool) -> np.ndarray:
    """e^{i pi k / n} at each integer frequency k of centered_chords(n), in
    np.fft order; read-only. Every half-cell shift in osqm reads this table.

    ifft(table * fft(f)) samples f's trigonometric interpolant half a cell
    past each node. The argument is the one rule for the Nyquist k = -n/2
    (n even). With zero_nyquist the entry is 0: the Nyquist coefficient is
    split evenly between +-n/2, a pair that cancels there, so real f stays
    real; the Weyl maps, the LvN exact path and LvnPlan.rhs take it.
    Without, it is e^{-i pi / 2} = -i, and the shift is unitary, so its
    conjugate undoes it; the LvN split path is its one reader.
    """
    table = np.exp(1j * np.pi * centered_chords(n) / n)
    if zero_nyquist:
        table[n // 2] = 0.0
    table.flags.writeable = False
    return table


def shift_half_cell(arr: np.ndarray, axis: int, table: np.ndarray) -> np.ndarray:
    """In place on the complex arr: ifft(table * fft(arr)) along axis, with
    table a half_cell_table or a multiple or conjugate of one; returns arr."""
    np.fft.fft(arr, axis=axis, out=arr)
    arr *= table.reshape((-1,) + (1,) * (arr.ndim - 1 - axis % arr.ndim))
    return np.fft.ifft(arr, axis=axis, out=arr)


def x_to_p(psi: np.ndarray, dx: float, hbar: float, axis: int) -> np.ndarray:
    """Unitary position -> momentum transform on the centered grid.

    phi(p_m) = (2 pi hbar)^{-1/2} * dx * sum_j psi(x_j) exp(-i x_j p_m / hbar)
    """
    return cdftn(psi, axis) * (dx / np.sqrt(2 * np.pi * hbar))
