"""Moyal star product and bracket on the phase-space grid.

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
from math import comb, factorial

import numpy as np

from .classical import poly_add, poly_derivative, poly_mul
from .grid import GridMismatchError, PhaseGrid
from .spectral import cdftn, cidftn, spectral_derivative
from .weyl import WeylSymbol

__all__ = [
    "StarProductPlan",
    "moyal_product",
    "moyal_product_truncated",
    "moyal_bracket",
    "poly_star",
    "poly_bracket",
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
        mu = np.exp(1j * np.pi * frq / n)
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


def moyal_bracket(a: WeylSymbol, b: WeylSymbol) -> WeylSymbol:
    """{{A, B}} = (A*B - B*A) / (i hbar); real for real operands."""
    grid = a.grid
    ab = moyal_product(a, b)
    ba = moyal_product(b, a)
    vals = (ab.values - ba.values) / (1j * grid.hbar)
    if a.hermitian and b.hermitian:
        vals = vals.real.astype(complex)
    return WeylSymbol(grid, vals)


_ORDERS = (0, 1, 2, 3)


def moyal_product_truncated(a: WeylSymbol, b: WeylSymbol, order: int) -> WeylSymbol:
    """Partial sums of the derivative expansion of the star product.

    Order 0 is the pointwise product, order 1 adds (i hbar / 2) {A, B};
    residual against moyal_product is O(hbar^(order+1)) for resolved
    symbols. Spectral differentiation: operands must be periodic fields.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    if a.grid != b.grid:
        raise GridMismatchError("operands on different grids")
    grid = a.grid
    if grid.dof != 1:
        raise NotImplementedError("truncated star implemented for one dof")
    dx = grid.dx[0]
    dp = grid.dp[0]
    hbar = grid.hbar

    def dxk_dpl(f, kx, kp):
        out = f
        if kx:
            out = spectral_derivative(out, dx, axis=0, order=kx)
        if kp:
            out = spectral_derivative(out, dp, axis=1, order=kp)
        return out

    total = np.zeros(grid.phase_shape, dtype=complex)
    for j in range(order + 1):
        coeff = (1j * hbar / 2) ** j / factorial(j)
        term = np.zeros_like(total)
        for k in range(j + 1):
            term += ((-1) ** k * comb(j, k)
                     * dxk_dpl(a.values, j - k, k)
                     * dxk_dpl(b.values, k, j - k))
        total += coeff * term
    return WeylSymbol(grid, total)


# ---------------------------------------------------------------------------
# exact polynomial star algebra (one dof), used for closed-form cross-checks;
# the dict algebra is classical's

def poly_star(a: dict, b: dict, hbar: float, order: int | None = None) -> dict:
    """Exact star product of polynomials {(xdeg, pdeg): coeff} in one dof.

    The derivative series terminates, so with order=None this is the full
    product. Coefficients may be complex.
    """
    max_deg = max((i + j for i, j in a), default=0)
    max_deg_b = max((i + j for i, j in b), default=0)
    jmax = min(max_deg, max_deg_b)
    if order is not None:
        jmax = min(jmax, order)
    out: dict = {}
    for j in range(jmax + 1):
        coeff = (1j * hbar / 2) ** j / factorial(j)
        for k in range(j + 1):
            da = a
            for _ in range(j - k):
                da = poly_derivative(da, 0)
            for _ in range(k):
                da = poly_derivative(da, 1)
            db = b
            for _ in range(k):
                db = poly_derivative(db, 0)
            for _ in range(j - k):
                db = poly_derivative(db, 1)
            out = poly_add(out, poly_mul(da, db), coeff * (-1) ** k * comb(j, k))
    return out


def poly_bracket(a: dict, b: dict, hbar: float) -> dict:
    """Exact Moyal bracket of polynomials: (a*b - b*a)/(i hbar)."""
    ab = poly_star(a, b, hbar)
    ba = poly_star(b, a, hbar)
    diff = poly_add(ab, ba, -1.0)
    return {k: v / (1j * hbar) for k, v in diff.items()}
