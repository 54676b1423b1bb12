"""Weyl correspondence between grid symbols and dense operators.

The discrete quantization maps the centered plane-wave symbol with integer
frequencies (u, v) to a displacement operator (position phase times cyclic
shift with symmetric half-phase). That choice makes the mode images a
unitary operator basis, so symbol -> operator -> symbol is exact for every
symbol with no Nyquist content, and operators built from contained states
map back to contained symbols. Quadratic identities (oscillator spectrum
hbar(k+1/2), trace pairing, marginals) hold to machine precision.

A composite is the tensor product of its dofs, so both maps act on one
dof's axis pair at a time. Inside the maps each pair is adjacent, as
(x_0, p_0, x_1, p_1, ..) and as (c_0, t_0, c_1, t_1, ..) in the chord block
E[c, t] = m[t + c, t] (_chord_index, which wigner_from_wavefunction also
gathers from a state vector), so _per_dof maps each pair where it lies.

Each core reads a chord c at the midpoints of its pairs: on the nodes for
even c~, half a cell past them for odd c~ (odd c, as n is even). It shifts
the odd chords alone, in place, their (-1)^c sign folded in, then takes the
pair with one flat take, a roll per chord (_gather; tables read-only). The
shift is 0 at the Nyquist frequency, as the x2 upsample it replaces split
that term; dynamics._half_shift differs only there (0 against -i), and would
change a random symbol's operator at any n, a state's W at n = 2 (mod 4)
(the FOUND line on N = 2 (mod 4) in CHANGES.md). On the 32^2 composite the
chord transform takes 22 ms, not 52, weyl_operator_from_symbol 39, not 83,
and 0.91 ms, not 2.05, at n = 256 (BENCH_33.json, 1 thread, AMD EPYC).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .oracle import OperatorMatrix
from .spectral import centered_chords, shift_half_cell

__all__ = [
    "WeylSymbol",
    "weyl_operator_from_symbol",
    "weyl_symbol_from_operator",
    "mean_value",
]

REAL_TOL = 1e-10


@lru_cache(maxsize=32)
def _flat_tables(n: int):
    """(op_take, chord_take): the cores' gathers as flat indices of an n x n pair.

    Entry [a, b] of the operator core is h[j, c], flat j n + c, with c the
    raw chord a - b and j = b + floor(c~/2); entry [j, c] of the chord core
    is e[c, t], flat c n + t, with t = j - ceil(c~/2); odd c are shifted.
    """
    a = np.arange(n)
    ctil = centered_chords(n)
    craw = (a[:, None] - a[None, :]) % n          # [a, b] raw chord
    j = (a[None, :] + ctil[craw] // 2) % n
    t = (a[:, None] + (-ctil[None, :]) // 2) % n   # [j, c]
    return _read_only(j * n + craw, a[None, :] * n + t)


def _read_only(*tables) -> tuple:
    """The tables, made read-only: they are cached and shared by every call."""
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=32)
def _chord_index(shape: tuple) -> tuple:
    """(bra, ket) index tuples over every dof with E[c, t] = m[t + c, t].

    E has axes (c_0, t_0, c_1, t_1, ..); indexing the (bra_0.., ket_0..)
    axes of an operator with bra + ket, or a state V with V[bra] *
    conj(V)[ket], gathers its chord block.
    """
    ct = np.indices(tuple(n for n in shape for _ in "ct"), sparse=True)
    ket = _read_only(*ct[1::2])                   # t_d on axis 2d + 1
    bra = _read_only(*((c + t) % n for c, t, n in zip(ct[::2], ket, shape)))
    return bra, ket


def _paired(split: np.ndarray) -> np.ndarray:
    """The axes (u_0.., v_0..) of split as (u_0, v_0, u_1, v_1, ..): a view."""
    dof = split.ndim // 2
    return split.transpose([ax for d in range(dof) for ax in (d, dof + d)])


def _split(paired: np.ndarray) -> np.ndarray:
    """The axes (u_0, v_0, u_1, v_1, ..) of paired as (u_0.., v_0..): a view."""
    return paired.transpose([*range(0, paired.ndim, 2), *range(1, paired.ndim, 2)])


def _per_dof(arr: np.ndarray, core) -> np.ndarray:
    """Apply a 1-dof core to each axis pair (2d, 2d + 1) of a paired arr, last first."""
    for d in reversed(range(arr.ndim // 2)):
        arr = core(arr, 2 * d)
    return arr


def _gather(arr: np.ndarray, ax: int, chord_axis: int, take: np.ndarray) -> np.ndarray:
    """arr's axis pair (ax, ax + 1) gathered at the flat indices take, once its
    odd chords (along chord_axis, one axis of the pair) have moved half a cell
    along the other, in place, with their sign (-1)^c folded in."""
    odd = [slice(None)] * arr.ndim
    odd[chord_axis] = slice(1, None, 2)
    shift_half_cell(arr[tuple(odd)], 2 * ax + 1 - chord_axis, -1.0)
    flat = arr.reshape(arr.shape[:ax] + (-1,) + arr.shape[ax + 2:])  # a view: contiguous
    return flat.take(take, axis=ax)


def _op_core(arr: np.ndarray, ax: int) -> np.ndarray:
    """Map the axes (x_d, p_d) at ax, ax + 1 of a symbol block to (bra_d, ket_d)."""
    h = np.fft.ifft(arr, axis=ax + 1, out=np.empty(arr.shape, complex))  # [.., x, c, ..]
    return _gather(h, ax, ax + 1, _flat_tables(arr.shape[ax])[0])        # [.., a, b, ..]


def _chord_core(e: np.ndarray, ax: int) -> np.ndarray:
    """Map the axes (c_d, t_d) at ax, ax + 1 of a chord block e, which it
    overwrites, to (x_d, p_d)."""
    b = _gather(e, ax, ax, _flat_tables(e.shape[ax])[1])    # [.., j, c, ..]
    return np.fft.fft(b, axis=ax + 1, out=b)                # [.., x, p, ..]


def _chord_to_symbol(e: np.ndarray) -> np.ndarray:
    """The symbol (x_0.., p_0..) of a paired chord block e, which it overwrites."""
    return _split(_per_dof(e, _chord_core))


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
        if not np.isfinite(self.values).all():
            raise ValueError("symbol values must be finite")
        is_real = np.abs(self.values.imag).max() <= REAL_TOL
        if self.hermitian is None:
            self.hermitian = bool(is_real)
        elif self.hermitian and not is_real:
            raise ValueError("symbol flagged hermitian has imaginary part")


def weyl_operator_from_symbol(sym: WeylSymbol) -> OperatorMatrix:
    """Quantize a grid symbol to a dense matrix; A = 1 maps to the identity.

    The matrix acts on discrete l2 vectors (kernel times dx^n), so real
    symbols give exactly Hermitian matrices.
    """
    grid = sym.grid
    d = grid.hilbert_dim
    m = _split(_per_dof(_paired(sym.values), _op_core)).reshape(d, d)
    herm = bool(sym.hermitian)
    if herm:
        m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(grid, m, hermitian=herm)


def weyl_symbol_from_operator(op: OperatorMatrix) -> WeylSymbol:
    """Inverse of weyl_operator_from_symbol (exact off the Nyquist sector)."""
    grid = op.grid
    shape = grid.config_shape
    m = op.matrix
    bra, ket = _chord_index(shape)
    vals = _chord_to_symbol(m.reshape(shape * 2)[bra + ket])
    hermitian = np.abs(m - m.conj().T).max() <= REAL_TOL
    vals = vals.real.astype(complex, order="C") if hermitian else np.ascontiguousarray(vals)
    return WeylSymbol(grid, vals, hermitian=bool(hermitian))


def mean_value(sym: WeylSymbol, wigner) -> float:
    """<A> = integral of A(z) W(z) dz; requires a real symbol."""
    if not sym.hermitian:
        raise ValueError("mean_value needs a real (Hermitian) symbol")
    if sym.grid != wigner.grid:
        raise GridMismatchError("symbol and state on different grids")
    return float((sym.values.real * wigner.values).sum() * sym.grid.cell_volume)
