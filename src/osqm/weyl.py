"""Weyl correspondence between grid symbols and dense operators.

The discrete quantization maps the centered plane-wave symbol with integer
frequencies (u, v) to a displacement operator (position phase times cyclic
shift with symmetric half-phase). That choice makes the mode images a
unitary operator basis, so symbol -> operator -> symbol is exact for every
symbol with no Nyquist content, and operators built from contained states
map back to contained symbols. Quadratic identities (oscillator spectrum
hbar(k+1/2), trace pairing, marginals) hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .oracle import DensityOperator, OperatorMatrix
from .spectral import alternating_signs, centered_chords, upsample2

__all__ = [
    "WeylSymbol",
    "weyl_operator_from_symbol",
    "weyl_symbol_from_operator",
    "mean_value",
    "overlap",
]

REAL_TOL = 1e-10


@lru_cache(maxsize=32)
def _index_tables(n: int):
    a = np.arange(n)
    ctil = centered_chords(n)
    craw = (a[:, None] - a[None, :]) % n          # [a, b] raw chord
    s_disp = (2 * a[None, :] + ctil[craw]) % (2 * n)   # [a, b] midpoint slot
    e_rows = (a[None, :] + a[:, None]) % n        # [c, t] bra index
    jw = (2 * a[:, None] - ctil[None, :]) % (2 * n)    # [j, c] gather slot
    return ctil, craw, s_disp, e_rows, jw


def _op_core_1dof(arr: np.ndarray, n: int) -> np.ndarray:
    """Map the last two axes (x_d, p_d) of a symbol block to (bra, ket)."""
    _, craw, s_disp, _, _ = _index_tables(n)
    af = upsample2(arr, axis=-2)
    g = np.fft.ifft(af, axis=-1) * alternating_signs(n)
    return g[..., s_disp, craw]


def _chord_to_symbol_axes(e: np.ndarray, n: int) -> np.ndarray:
    """Shared tail of the symbol map: last axes (c, t) -> (x, p)."""
    jw = _index_tables(n)[4]
    ef = upsample2(e, axis=-1)                    # [..., c, w]
    crow = np.broadcast_to(np.arange(n)[None, :], (n, n))   # [j, c] -> c
    b = ef[..., crow, jw] * alternating_signs(n)  # [..., j, c]
    return np.fft.fft(b, axis=-1)                 # [..., j, m]


def _sym_core_1dof(arr: np.ndarray, n: int) -> np.ndarray:
    """Map the last two axes (bra, ket) of an operator block to (x_d, p_d)."""
    e_rows = _index_tables(n)[3]
    e = arr[..., e_rows, np.arange(n)[None, :]]   # [..., c, t]
    return _chord_to_symbol_axes(e, n)


@dataclass
class WeylSymbol:
    """Observable or operator symbol: complex values on the phase grid."""

    grid: PhaseGrid
    values: np.ndarray
    hermitian: Optional[bool] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.phase_shape:
            raise ValueError("symbol shape does not match grid")
        is_real = np.abs(self.values.imag).max() <= REAL_TOL
        if self.hermitian is None:
            self.hermitian = bool(is_real)
        elif self.hermitian and not is_real:
            raise ValueError("symbol flagged hermitian has imaginary part")

    @classmethod
    def constant(cls, grid: PhaseGrid, value: complex = 1.0) -> "WeylSymbol":
        return cls(grid, np.full(grid.phase_shape, value, dtype=complex))

    def integral(self) -> complex:
        return complex(self.values.sum() * self.grid.cell_volume)


def weyl_operator_from_symbol(sym: WeylSymbol) -> OperatorMatrix:
    """Quantize a grid symbol to a dense matrix; A = 1 maps to the identity.

    The matrix acts on discrete l2 vectors (kernel times dx^n), so real
    symbols give exactly Hermitian matrices.
    """
    grid = sym.grid
    dof = grid.dof
    arr = sym.values
    if dof == 1:
        m = _op_core_1dof(arr, grid.n(0))
    else:
        n1, n2 = grid.n(0), grid.n(1)
        # axes (x1, x2, p1, p2): contract dof 2 then dof 1
        work = np.moveaxis(arr, [1, 3], [-2, -1])       # (x1, p1, x2, p2)
        work = _op_core_1dof(work, n2)                  # (x1, p1, a2, b2)
        work = np.moveaxis(work, [0, 1], [-2, -1])      # (a2, b2, x1, p1)
        work = _op_core_1dof(work, n1)                  # (a2, b2, a1, b1)
        work = np.moveaxis(work, [2, 3], [0, 2])        # (a1, a2, b1, b2)
        m = work.reshape(n1 * n2, n1 * n2)
    herm = bool(sym.hermitian)
    if herm:
        m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(grid, m, hermitian=herm)


def weyl_symbol_from_operator(op: OperatorMatrix | DensityOperator) -> WeylSymbol:
    """Inverse of weyl_operator_from_symbol (exact off the Nyquist sector)."""
    grid = op.grid
    dof = grid.dof
    m = op.matrix
    if dof == 1:
        vals = _sym_core_1dof(m, grid.n(0))
    else:
        n1, n2 = grid.n(0), grid.n(1)
        work = m.reshape(n1, n2, n1, n2)                # (a1, a2, b1, b2)
        work = np.moveaxis(work, [0, 2], [-2, -1])      # (a2, b2, a1, b1)
        work = _sym_core_1dof(work, n1)                 # (a2, b2, x1, p1)
        work = np.moveaxis(work, [0, 1], [-2, -1])      # (x1, p1, a2, b2)
        work = _sym_core_1dof(work, n2)                 # (x1, p1, x2, p2)
        vals = np.moveaxis(work, [1, 2], [2, 1])        # (x1, x2, p1, p2)
    hermitian = np.abs(m - m.conj().T).max() <= REAL_TOL
    if hermitian:
        vals = vals.real.astype(complex)
    return WeylSymbol(grid, vals, hermitian=bool(hermitian))


def mean_value(sym: WeylSymbol, wigner) -> float:
    """<A> = integral of A(z) W(z) dz; requires a real symbol."""
    if not sym.hermitian:
        raise ValueError("mean_value needs a real (Hermitian) symbol")
    if sym.grid != wigner.grid:
        raise GridMismatchError("symbol and state on different grids")
    return float((sym.values.real * wigner.values).sum() * sym.grid.cell_volume)


def overlap(w1, w2) -> float:
    """|<psi|psi'>|^2 = (2 pi hbar)^n int W W' dz for pure-state Wigner
    functions, clipped into [0, 1]."""
    if w1.grid != w2.grid:
        raise GridMismatchError("states on different grids")
    grid = w1.grid
    raw = float((w1.values * w2.values).sum() * grid.cell_volume
                * (2 * np.pi * grid.hbar) ** grid.dof)
    return min(max(raw, 0.0), 1.0)
