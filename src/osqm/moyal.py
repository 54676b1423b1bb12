"""Moyal star product on the phase-space grid.

The grid star product is the twisted convolution that exactly mirrors the
matrix product of the quantized operators: frequencies add mod N with the
symplectic half-phase evaluated on centered representatives, and folds
carry the parity signs of the displacement algebra. The defining identity
weyl_operator_from_symbol(A * B) = A_hat B_hat therefore holds to machine
precision, and associativity is inherited from operator multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .spectral import cdftn, cidftn, half_cell_table
from .weyl import WeylSymbol

__all__ = [
    "StarProductPlan",
    "moyal_product",
]


@dataclass
class StarProductPlan:
    """Precomputed phases for the twisted convolution on one grid."""

    grid: PhaseGrid
    frq: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)          # negacyclic half-twist
    col_phases: np.ndarray = field(repr=False)  # e^{-i pi cx eta_p / N} per cx
    row_kernel: np.ndarray = field(repr=False)  # e^{+i pi cp eta_x / N}
    colsign: np.ndarray = field(repr=False)     # (-1)^{parity of centered p freq}

    @classmethod
    def build(cls, grid: PhaseGrid) -> "StarProductPlan":
        n = grid.n(0)
        frq = np.arange(n) - n // 2
        mu = np.fft.fftshift(half_cell_table(n, False))
        col_phases = np.exp(-1j * np.pi * np.outer(frq, frq) / n)  # [cx, eta_p]
        row_kernel = np.exp(1j * np.pi * np.outer(frq, frq) / n)   # [eta_x, cp]
        colsign = (-1.0) ** (np.abs(frq) % 2)
        return cls(grid=grid, frq=frq, mu=mu, col_phases=col_phases,
                   row_kernel=row_kernel, colsign=colsign)


@lru_cache(maxsize=16)
def _plan(grid: PhaseGrid) -> StarProductPlan:
    return StarProductPlan.build(grid)


def _twisted_rows(m1: np.ndarray, w1: np.ndarray, odd_rows: np.ndarray,
                  mu: np.ndarray) -> np.ndarray:
    """Row-batched cyclic (even rows) / negacyclic (odd rows) convolution
    along the last axis, both arrays in centered frequency layout."""
    n = m1.shape[-1]
    out = np.empty_like(w1)
    for odd in (False, True):
        rows = odd_rows == odd
        if not rows.any():
            continue
        mk = m1[rows]
        wk = w1[rows]
        if odd:
            mk = mk * mu[None, :]
            wk = wk * mu[None, :]
        r = np.fft.ifft(np.fft.fft(mk, axis=-1) * np.fft.fft(wk, axis=-1), axis=-1)
        r = np.roll(r, -(n // 2), axis=-1)
        if odd:
            r = r * np.conj(mu)[None, :]
        out[rows] = r
    return out


def moyal_product(a: WeylSymbol, b: WeylSymbol) -> WeylSymbol:
    """Star product of two grid symbols (1 dof).

    Exactly consistent with operator multiplication under the Weyl maps;
    the continuum star product is recovered up to wrap terms that vanish
    for contained, resolved symbols.
    """
    if a.grid != b.grid:
        raise GridMismatchError("star product operands on different grids")
    grid = a.grid
    if grid.dof != 1:
        raise NotImplementedError(
            "the generic star product is implemented for one degree of freedom; "
            "composite dynamics uses factorized Hamiltonian terms instead")
    n = grid.n(0)
    plan = _plan(grid)
    ahat = cdftn(a.values, (0, 1))
    bhat = cdftn(b.values, (0, 1))
    acc = np.zeros((2 * n, n), dtype=complex)
    frq = plan.frq
    for icx in range(n):
        cx = frq[icx]
        w1 = bhat * plan.col_phases[icx][None, :]
        m1 = plan.row_kernel * ahat[icx][None, :]
        odd_rows = (np.abs(cx + frq) % 2).astype(bool)
        conv = _twisted_rows(m1, w1, odd_rows, plan.mu)
        acc[icx:icx + n] += conv
    out = acc[n // 2:3 * n // 2].copy()
    out[:n // 2] += plan.colsign[None, :] * acc[3 * n // 2:]
    out[n // 2:] += plan.colsign[None, :] * acc[:n // 2]
    return WeylSymbol(grid, cidftn(out / (n * n), (0, 1)))
