"""Centered-grid spectral helpers shared by all transforms.

Grid points are x_j = (j - N/2) dx with N even, and the matching momentum
grid p_m = (m - N/2) dp with dx dp N = 2 pi hbar, so the discrete transforms
below are exactly unitary at the chosen hbar.

There is one centered DFT, cdftn, with its inverse cidftn, along one axis:
x_to_p takes each dof's axis in turn, and the measurement scenario's
coupling step axis 0 of its (pointer, observed) array.

There is one half-cell shift, the linear map ifft(table * fft(f)) along one
axis with the phase table half_cell_table(n, zero_nyquist), and one routine
that applies it, its adjoint or its negative: shift_half_cell. The argument
is the one rule for the Nyquist frequency: the Weyl maps, the LvN exact path
and the LvN right-hand side (LvnPlan.rhs) pass True; the LvN split path,
which undoes its shift with the adjoint, is the one reader of False.

The map has two evaluations. Under the zero rule, on an axis of at most
GEMM_MAX points, it is one real matrix product with its circulant kernel
ifft(table) on the (re, im) pairs; on a longer axis, and always under the
-i rule, it is the FFT pair. The cutoff is the measured crossover: on the
free particle's exact LvN path the product took 0.74/0.86-0.88/0.95-1.05 of
the FFT pair's time at N = 32/48/64 and 0.99-1.10/1.23-1.30 at N = 96/128
(1 BLAS thread, 2-vCPU Intel Xeon). On the 32^4 coupling of the
composite-measurement workload one shift of the p_0 factor's odd columns
took 1.1 ms, not 2.9, and one of the tanh(x_1) factor's 2.1 ms, not 4.0.
The -i rule's kernel is complex, and its zgemm lost: on that host a pure
FFT loop ran 1.5 times as long right after a 64 x 64 zgemm (1.2 times
after a dgemm), and a one-step split-path call took 1.14-1.24 times as long
with it at N = 32 and 1.34-1.42 times at N = 64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# the longest axis on which shift_half_cell is a matrix product, not an FFT
# pair: the measured crossover (module docstring)
GEMM_MAX = 64

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
    np.fft order; read-only. Every half-cell shift in osqm is this table's
    map, evaluated as the FFT pair or as a product with its kernel.

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


@lru_cache(maxsize=32)
def _half_cell_kernel(n: int) -> np.ndarray:
    """K[j, m] = ifft(half_cell_table(n, True))[(j - m) % n]: the zero rule's
    half-cell shift as a circulant matrix, K f = ifft(table * fft(f)); real,
    since that table is Hermitian, and read-only. The conjugate table's map
    is K^T, the negated table's -K."""
    kernel = np.fft.ifft(half_cell_table(n, True)).real
    j = np.arange(n)
    kernel = kernel[(j[:, None] - j) % n]
    kernel.flags.writeable = False
    return kernel


def shift_half_cell(arr: np.ndarray, axis: int, zero_nyquist: bool, *,
                    adjoint: bool, negate: bool) -> np.ndarray:
    """In place on the complex arr: the half-cell shift of half_cell_table(n,
    zero_nyquist) along axis, its adjoint if adjoint, negated if negate;
    returns arr.

    One linear map, two evaluations: with the zero rule on an axis of at
    most GEMM_MAX points, one real np.matmul with the kernel (K^T for the
    adjoint, -K if negate) on the (re, im) pairs; otherwise the FFT pair
    with the table (its conjugate, times -1). The product reads arr's rows
    in place when the axes behind axis are contiguous, else one contiguous
    copy (an innermost odd-column view, a shift along the last axis)."""
    n = arr.shape[axis]
    if n > GEMM_MAX or not zero_nyquist:
        table = half_cell_table(n, zero_nyquist)
        if adjoint:
            table = np.conj(table)
        if negate:
            table = table * -1.0
        np.fft.fft(arr, axis=axis, out=arr)
        arr *= table.reshape((-1,) + (1,) * (arr.ndim - 1 - axis % arr.ndim))
        return np.fft.ifft(arr, axis=axis, out=arr)
    kernel = _half_cell_kernel(n)
    if adjoint:
        kernel = kernel.T
    if negate:
        kernel = -kernel
    axis %= arr.ndim
    view = arr
    if axis == arr.ndim - 1:    # swap the last axis with the one before it
        view = arr[:, None] if arr.ndim == 1 else np.swapaxes(arr, -1, -2)
        axis = view.ndim - 2
    # the axes behind axis flattened to one row of (re, im) pairs
    src = view if view[(0,) * (axis + 1)].flags.c_contiguous else np.ascontiguousarray(view)
    rows = src.reshape(view.shape[:axis + 1] + (-1,)).view(float)
    view[...] = np.matmul(kernel, rows).view(complex).reshape(view.shape)
    return arr


def x_to_p(psi: np.ndarray, dx: float, hbar: float, axis: int) -> np.ndarray:
    """Unitary position -> momentum transform on the centered grid.

    phi(p_m) = (2 pi hbar)^{-1/2} * dx * sum_j psi(x_j) exp(-i x_j p_m / hbar)
    """
    return cdftn(psi, axis) * (dx / np.sqrt(2 * np.pi * hbar))
