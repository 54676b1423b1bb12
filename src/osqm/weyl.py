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
shift is spectral.shift_half_cell with the rule True, negated: the table
half_cell_table(n, True), 0 at the Nyquist frequency, as the x2 upsample it
replaces split that term. Up to spectral.GEMM_MAX points it is one
product with the real kernel -K, beyond (the n = 256 maps) the FFT pair.
The LvN exact path and right-hand side read it with True too; the one
reader of False (-i there) is the LvN split path, and -i here would change
a random symbol's operator at any n, a state's W at n = 2 (mod 4) (the
FOUND line on N = 2 (mod 4) in CHANGES.md). On the 32^2 composite the chord
transform takes 22 ms, not 52, weyl_operator_from_symbol 39, not 83, and
0.91 ms, not 2.05, at n = 256 (BENCH_33.json, 1 thread, AMD EPYC). There
the product took dof 0's odd-chord shift from 3.1 to 1.9 ms and dof 1's,
along the last axis and so through a transposed copy, from 3.9 to 4.5 ms
(1 thread, Intel Xeon).

The symbol side also has a real path, as rfft has beside fft: a pure
state's W and a Hermitian operator's symbol are real, and the chord block
of a Hermitian m, E[c, t] = conj E[-c, t + c] on every dof at once, holds
each chord twice. So _chord_to_real_symbol reads only the chords c_0 in
[0, n_0/2] of dof 0, the dof it transforms last, runs dof 1's core on that
half and ends in one hfft where the complex path takes fft(..).real.
One chord breaks the mirror: dof 1's Nyquist chord c_1 = n_1/2 has one
orientation, so the mirror of its value at a midpoint is its value at the
other midpoint, n_1/2 away, and the half block is not Hermitian there. The
real part that the whole transform keeps is the mean of the two, so for
c_0 < n_0/2 the real path puts that mean in the Nyquist slab (1/n_1 of
the block); at c_0 = 0 the mean adds only an imaginary part, and at
c_0 = n_0/2, read at one midpoint by both paths, hfft keeps the real part
as fft(..).real does. Without the mean, W of a random 32^2 state misses by
0.10 of its max. An operator gives the chords of (m + m^H)/2, the part
whose symbol .real kept. Only a non-Hermitian operator, whose symbol is
complex, takes the complex path. The chord transform takes 10.2 ms, not
26.6, on the 32^2 composite and 0.27 ms, not 0.47, at n = 256; the symbol
of the composite's H 22.5 ms, not 39.0 (BENCH_35.json, 1 thread, AMD EPYC).

The Moyal star product is these maps and one matrix product,
Sym(Op(a) Op(b)), so it runs on every dof as they do.
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
    "moyal_product",
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
def _chord_index(shape: tuple, half: bool) -> tuple:
    """(bra, ket) index tuples over every dof with E[c, t] = m[t + c, t].

    E has axes (c_0, t_0, c_1, t_1, ..); indexing the (bra_0.., ket_0..)
    axes of an operator with bra + ket, or a state V with V[bra] *
    conj(V)[ket], gathers its chord block. With half, only the chords
    c_0 in [0, n_0/2] of dof 0, which _chord_to_real_symbol reads.
    """
    ct = np.indices(tuple(n for n in shape for _ in "ct"), sparse=True)
    ket = _read_only(*ct[1::2])                   # t_d on axis 2d + 1
    bra = _read_only(*((c + t) % n for c, t, n in zip(ct[::2], ket, shape)))
    if half:                                      # read-only views: c_0 is axis 0
        bra, ket = (tuple(ix[:shape[0] // 2 + 1] for ix in tables) for tables in (bra, ket))
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
    axis = 2 * ax + 1 - chord_axis
    shift_half_cell(arr[tuple(odd)], axis, True, adjoint=False, negate=True)
    flat = arr.reshape(arr.shape[:ax] + (-1,) + arr.shape[ax + 2:])  # a view: contiguous
    return flat.take(take, axis=ax)


def _op_core(arr: np.ndarray, ax: int) -> np.ndarray:
    """Map the axes (x_d, p_d) at ax, ax + 1 of a symbol block to (bra_d, ket_d)."""
    h = np.fft.ifft(arr, axis=ax + 1, out=np.empty(arr.shape, complex))  # [.., x, c, ..]
    return _gather(h, ax, ax + 1, _flat_tables(arr.shape[ax])[0])        # [.., a, b, ..]


def _chord_gather(e: np.ndarray, ax: int) -> np.ndarray:
    """The axes (c_d, t_d) at ax, ax + 1 of a chord block e, which it overwrites,
    as [.., j, c, ..]; e may hold only its first chords, as the real path's dof 0."""
    n = e.shape[ax + 1]
    return _gather(e, ax, ax, _flat_tables(n)[1][:, :e.shape[ax]])


def _chord_core(e: np.ndarray, ax: int) -> np.ndarray:
    """Map the axes (c_d, t_d) at ax, ax + 1 of a chord block e, which it
    overwrites, to (x_d, p_d)."""
    b = _chord_gather(e, ax)                                # [.., j, c, ..]
    return np.fft.fft(b, axis=ax + 1, out=b)                # [.., x, p, ..]


def _chord_to_symbol(e: np.ndarray) -> np.ndarray:
    """The symbol (x_0.., p_0..) of a paired chord block e, which it overwrites."""
    return _split(_per_dof(e, _chord_core))


def _chord_to_real_symbol(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out, real on (x_0.., p_0..), the symbol of a Hermitian
    operator from the chords c_0 in [0, n_0/2] of its paired chord block e,
    which it overwrites; returns out.

    It is .real of _chord_to_symbol on the whole block: dof 1 runs the same
    core, with its Nyquist chord made the mean of its two midpoints for
    c_0 < n_0/2, and dof 0 ends in one hfft, written as numpy's hfft is,
    irfft of the conjugate, which can write to out.
    """
    if e.ndim == 4:                                         # dof 1 of a composite
        b = _chord_gather(e, 2)                             # [c_0, t_0, j_1, c_1]
        half = b.shape[2] // 2
        nyq = b[:-1, :, :, half]                            # a view
        nyq += np.roll(nyq, half, axis=2)
        nyq *= 0.5
        e = np.fft.fft(b, axis=3, out=b)                    # [c_0, t_0, x_1, p_1]
    b = _chord_gather(e, 0)                                 # [j_0, c_0, ..]
    np.conjugate(b, out=b)
    return np.fft.irfft(b, out.shape[0], axis=1, norm="forward", out=_paired(out))


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
        np.add(m, m.conj().T, out=m)   # m is the cores' own array: one temporary
        m *= 0.5
    return OperatorMatrix(grid, m, hermitian=herm)


def weyl_symbol_from_operator(op: OperatorMatrix) -> WeylSymbol:
    """Inverse of weyl_operator_from_symbol (exact off the Nyquist sector).

    A Hermitian operator, flagged or within REAL_TOL of its adjoint, maps
    through the real path from the chords of its Hermitian part (m + m^H)/2:
    the real part of the complex map's symbol.
    """
    grid = op.grid
    shape = grid.config_shape
    hermitian = bool(op.hermitian or np.abs(op.matrix - op.matrix.conj().T).max() <= REAL_TOL)
    m = op.matrix.reshape(shape * 2)
    bra, ket = _chord_index(shape, hermitian)
    if not hermitian:
        return WeylSymbol(grid, np.ascontiguousarray(_chord_to_symbol(m[bra + ket])),
                          hermitian=False)
    vals = np.zeros(grid.phase_shape, complex)  # before the temporaries (see wigner)
    e = m[ket + bra]                  # the chords of m^T; conjugated, of m^H
    np.conjugate(e, out=e)
    e += m[bra + ket]
    e *= 0.5
    _chord_to_real_symbol(e, vals.real)
    return WeylSymbol(grid, vals, hermitian=True)


def moyal_product(a: WeylSymbol, b: WeylSymbol) -> WeylSymbol:
    """Star product a * b, defined by its identity Op(a * b) = Op(a) Op(b):
    the symbol of the operator product, on every dof.

    The identity, and associativity with it, hold to round-off where
    Op(a) Op(b) is the image of a symbol with no Nyquist content, on which
    weyl_symbol_from_operator inverts Op, as it is to round-off for
    resolved, contained symbols. At coarse grids the miss is the round trip's:
    for unit-width Gaussians at (x, p) = +-(0.5, -0.5), extent 6, it is
    1.6e-3 of max|Op(a) Op(b)| at N = 16, 3.3e-6 at N = 24, 3.8e-10 at 32.
    """
    if a.grid != b.grid:
        raise GridMismatchError("star product operands on different grids")
    product = weyl_operator_from_symbol(a).matrix @ weyl_operator_from_symbol(b).matrix
    return weyl_symbol_from_operator(OperatorMatrix(a.grid, product))


def mean_value(sym: WeylSymbol, wigner) -> float:
    """<A> = integral of A(z) W(z) dz; requires a real symbol."""
    if not sym.hermitian:
        raise ValueError("mean_value needs a real (Hermitian) symbol")
    if sym.grid != wigner.grid:
        raise GridMismatchError("symbol and state on different grids")
    return float((sym.values.real * wigner.values).sum() * sym.grid.cell_volume)
