"""Liouville-von Neumann evolution of Wigner states.

Every Hamiltonian term is a product of single-variable factors f(x_d) or
g(p_d), at most one per dof. A factor f(x_d) has conv axis x_d and mask
axis p_d; for g(p_d) the two swap. A term's mixed representation takes each
mask axis to its np.fft frequency q, keeps each conv axis in its own
variable, and shifts the odd-q columns half a cell along the conv axis.
There left and right star multiplication by f(x_d) are diagonal:
f(x -+ q dx / 2), the profile's samples rolled by floor(q/2) and by
-ceil(q/2) (Bopp operators, after Cabrera, Bondar, Jacobs & Rabitz, PRA 92,
042122 (2015)). The factors of a term act on disjoint axes, so the term's
bracket is the table c (prod L - prod R) / (i hbar), its generator. This
reproduces the dense-oracle evolution to machine precision in space. A
Hamiltonian is static: each term's coefficient c is a number, which its
generator holds. A term's _TermBasis is the one way every path applies it,
and there are two paths:

- A Hamiltonian of one term is advanced by its exact exponential in the
  term's mixed representation (_TermBasis.mixed): only its mask axes go to
  the frequency domain, and axes of no factor are never transformed. dt
  plays no role on the exact path, and verify_dt has nothing to check.
- Every other Hamiltonian takes 4th-order split steps (LvnPlan): Yoshida's
  triple jump (Phys. Lett. A 150, 262 (1990)) of Strang sweeps over the
  terms' exact exponentials. Between steps the state stays in term 0's
  mixed representation, with the axes of no factor in frequency too.
  verify_dt compares one step with two half steps, which measures the local
  splitting error.

The split path spends its time moving arrays between representations, so
each move is made of in-place np.fft passes (out=, numpy >= 2.0) and one
product with a precomputed table: from term a's representation to term b's
it is an fft along a's conv axes, one product with conj(D_a) D_b and an
ifft along b's conv axes, where D is the half-cell shift e^{i pi k / n} at
conv frequency k on the odd mask columns: spectral.half_cell_table(n, False),
-i at the Nyquist k = -n/2, so that conj(D) undoes D.

The exact path and rhs run on the half spectrum of the real W and shift
with the Weyl maps' rule, half_cell_table(n, True), 0 at the Nyquist k. For
a term whose last mask axis is r it is an rfft along r, an fft along the
term's other mask axis, the odd columns' half-cell shifts, one product with
a diagonal table, the shifts back and the inverse fft, and one irfft that
writes the real result: no complex copy of W and no .real. With the 0,
the two shifts are a projection, not a unitary pair: they drop the
conv-axis Nyquist component of each odd mask column. The Weyl image of an
operator, as every Wigner function in osqm is, has none there (with a
table of ones the path returns the test states to 4.1e-16 of max|W|), so
only an array that is no such image loses anything. Against
weyl_symbol_from_operator(U rho U^H), with rho W's own operator, the free
particle at N = 30/34/38 (extent 7, t 0.3) reads 1.5e-15/2.3e-15/2.1e-15
of max|W|, where the -i rule read 5.7e-11/2.0e-12/3.7e-13 (item 17 of
ROADMAP.md).

Its values are the real part of the full complex path's with the same
rule, to round-off. With 0 at the Nyquist k, the mixed array Y of a real W
obeys conj Y(-q) = Y(q), so that real part is the inverse transform of
E-bar Y with E-bar = (E + E~) / 2, E~(q) = conj E(-q), on the interior
columns 0 < q_r < n_r/2, which irfft reads for q_r and -q_r alike; on the
edge columns q_r = 0 and n_r/2 irfft keeps the real part after the inverse
transforms, the same part .real kept, so E and E-bar give the same result
there. For a real profile E~ = E except on the rows where a mask axis other
than r sits at its Nyquist index, whose reflection -q is the row itself:
3.1% of the 32^4 coupling's half spectrum, no row at all for a one-factor
term. So E-bar is one diagonal table, E with exp(s conj G(-q)) averaged in
on those rows when the table is built, and rhs takes G-bar likewise.
Without it the coupling's result misses the complex path's real part by
1.5e-6 of max|W|.

The exact path runs in one block of three half-spectrum complex arrays,
allocated with the plan and starting on a 64-byte cache line: the
generator, the E-bar table and the work array that the rfft writes,
3 x 8.9 MB on 32^4. Beside them the plan holds conj G(-q) on the Nyquist
rows, 0.3 MB there. A call allocates its real result, a few small arrays
and, for each odd-column shift, a temporary the size of those columns.
With a fresh complex array per call, where that array landed set the
call's time: after the composite-measurement benchmark's set-up the
product with the exp table took 1.5-1.7 ms on one heap and 6.6-7.7 ms on
another, and FFT passes take about a fifth longer on an array that does
not start on a cache line (_cache_aligned). A call on the 32^4 coupling
takes 21 ms, against 32 ms when its four odd-column shifts were FFT pairs
along the 32-point conv axes (BENCH_42.json: medians of 5 runs, 1 thread,
Intel Xeon, 2 vCPUs). On those axes each shift is one real matrix product
(spectral.GEMM_MAX): 1.1 ms for the p_0 factor, where its FFT pair took
2.9, and 2.1 ms for the tanh(x_1) factor, whose odd columns are copied to a
contiguous buffer first, where the FFT pair took 4.0.

The tables belong to the Hamiltonian. Hamiltonian.lvn_plan builds its
LvnPlan on the first evolve_lvn call, never before, and every later call
reads it: on the split path each term's padded generator, the move tables,
and the exp(s G) tables of the latest call's step sizes; on the exact path
the term's half-spectrum generator, one E-bar table and the work array. A
call with other step sizes replaces those exp tables, so the bytes held do
not grow with the number of calls or of distinct dt and t_final values. On
dof 2 most tables are the size of the state or of its half spectrum: the
one-term 32^4 coupling holds three 8.9 MB arrays.

The split path keeps its state in a row-padded buffer: the last axis has
_PAD spare entries, which stay zero, so no axis runs at a power-of-two
stride. On a C-contiguous N x N complex array an FFT along axis 0 steps by
16 N bytes, and successive rows fall in the same cache sets: one such FFT
took 85 us at N = 128 and 424 us at N = 256, against 45 and 147 us along
axis 1, and 49 and 156 us along axis 0 of rows of N + 1 entries (1 thread,
AMD EPYC). FFTs along the last axis run on the [..., :N] view, those along
every other axis on the whole buffer, and the move and exp(s G) tables have
the padded shape, so each product multiplies two whole buffers. The exact
path stays contiguous.

Both paths check that the state stays on the grid: the x- and p-marginal
mass in the outer 2-cell shell must stay below grid.CONTAINMENT_TOL, else
ContainmentError (the LvN state would otherwise wrap over the periodic edge
unnoticed). The split path checks every steps // 20 steps and the final
state, the exact path the final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .spectral import centered_chords, half_cell_table, shift_half_cell
from .weyl import WeylSymbol
from .wigner import WignerState

__all__ = [
    "HamiltonianTerm",
    "Hamiltonian",
    "EvolutionUnstableError",
    "evolve_lvn",
    "step_count",
]


class EvolutionUnstableError(RuntimeError):
    """Time step too large: one split step and two half steps disagree."""


@dataclass(frozen=True)
class HamiltonianTerm:
    """coefficient * product of factors; each factor is one-variable.

    factors: sequence of (kind, dof, profile) with kind in {"x", "p"} and
    profile a callable evaluated on that axis's coordinate array. At most
    one factor per dof: f(x_d) g(x_d) is the one factor (f g)(x_d), and
    f(x_d) g(p_d) is not a factorized Weyl symbol. coefficient is a
    number: a Hamiltonian is static, so a callable raises TypeError.
    """

    factors: tuple
    coefficient: float = 1.0

    def __post_init__(self):
        if callable(self.coefficient):
            raise TypeError("a term's coefficient must be a number, not a callable")
        if not self.factors:
            raise ValueError("a term needs a factor: a constant has no bracket")
        seen_dofs = set()
        for kind, dof, _ in self.factors:
            if kind not in ("x", "p"):
                raise ValueError("factor kind must be 'x' or 'p'")
            if dof in seen_dofs:
                raise ValueError("at most one factor per dof in a term")
            seen_dofs.add(dof)


@dataclass(frozen=True)
class Hamiltonian:
    """Sum of factorized terms; renders to a real Weyl symbol on demand.

    terms is stored as a tuple and the instance is frozen, so the LvnPlan it
    keeps (lvn_plan) cannot go stale. A Hamiltonian with no terms, or with
    a factor whose dof is not an int in range(grid.dof), raises ValueError.
    """

    grid: PhaseGrid
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("Hamiltonian has no terms")
        for term in self.terms:
            for _, dof, _ in term.factors:
                if not isinstance(dof, (int, np.integer)) or not 0 <= dof < self.grid.dof:
                    raise ValueError(f"factor dof {dof!r} is not a dof of the "
                                     f"{self.grid.dof}-dof grid")

    @cached_property
    def lvn_plan(self) -> "LvnPlan":
        """The tables every evolve_lvn call on this Hamiltonian reads.

        Built on the first access, which is the first evolve_lvn call that
        moves the state, and kept in the instance's __dict__ for its life
        (see LvnPlan for what it holds).
        """
        return LvnPlan(self.grid, self)

    def symbol(self) -> WeylSymbol:
        mesh = self.grid.phase_mesh()
        n = self.grid.dof
        vals = np.zeros(self.grid.phase_shape)
        for term in self.terms:
            part = np.ones(self.grid.phase_shape)
            for kind, dof, profile in term.factors:
                coord = mesh[dof] if kind == "x" else mesh[n + dof]
                part = part * profile(coord)
            vals += float(term.coefficient) * part
        return WeylSymbol(self.grid, vals + 0j)


# ---------------------------------------------------------------------------
# mixed representations: every path applies a term where its bracket is diagonal

# spare entries at the end of the last axis of a split-path buffer
_PAD = 1


def _padded(arr: np.ndarray) -> np.ndarray:
    """arr in a complex buffer with _PAD zero entries after its last axis.

    A table whose last axis broadcasts (length 1) is returned as it is.
    """
    if arr.shape[-1] == 1:
        return arr
    buf = np.zeros(arr.shape[:-1] + (arr.shape[-1] + _PAD,), dtype=complex)
    buf[..., :arr.shape[-1]] = arr
    return buf


def _embed(table: np.ndarray, conv_axis: int, mask_axis: int, ndim: int) -> np.ndarray:
    """A [conv, mask] table in the broadcast shape of an ndim-axis array, C order."""
    shape = [1] * ndim
    shape[conv_axis] = shape[mask_axis] = len(table)
    if conv_axis > mask_axis:
        table = table.T
    return np.ascontiguousarray(table).reshape(shape)


def _cache_aligned(shape: tuple) -> np.ndarray:
    """An uninitialised complex array whose data starts on a 64-byte cache line.

    np.empty is only 16-byte aligned: a large array starts 16 bytes into its
    mapping. The exact path's FFT passes on the 32^4 coupling took about 21
    ms with the state on a cache-line boundary and 26-29 ms 16, 32 or 48
    bytes past one (1 thread, AMD EPYC).
    """
    nbytes = int(np.prod(shape)) * 16
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(complex).reshape(shape)


def _factor_tables(grid: PhaseGrid, kind: str, dof: int, profile):
    """(conv_axis, mask_axis, left, right) of a single-variable factor.

    In the mixed representation, column q (the signed np.fft frequency of
    the mask axis) of left/right star multiplication by f(x_d) is
    f(x -+ q dx / 2) along the conv axis: with odd columns half a cell past
    the nodes, the profile's samples rolled by floor(q/2) and by -ceil(q/2).
    For g(p_d) the signs flip, so the two rolls swap. The tables broadcast
    over the full array.
    """
    n = grid.n(dof)
    q = centered_chords(n)
    if kind == "x":
        samples, conv_axis, mask_axis = grid.x(dof), dof, grid.dof + dof
        rolls = (q // 2, -q // 2)
    else:
        samples, conv_axis, mask_axis = grid.p(dof), grid.dof + dof, dof
        rolls = (-q // 2, q // 2)
    f = np.asarray(profile(samples), dtype=complex)
    nodes = np.arange(n)[:, None]
    left, right = (_embed(f[(nodes - roll) % n], conv_axis, mask_axis, 2 * grid.dof)
                   for roll in rolls)
    return conv_axis, mask_axis, left, right


class _TermBasis:
    """One term's mixed representation, where its bracket is diagonal.

    The factors of a term sit on distinct dofs, so their conv and mask axes
    are disjoint and one representation diagonalizes every L_f and R_f at
    once. There the bracket of c * (product of factors) is the generator
    c (prod L - prod R) / (i hbar): on the conv axes it is indexed by grid
    node, on the mask axes by np.fft frequency, and it broadcasts along the
    axes of no factor.

    split selects the generator's layout: for the split path a row-padded
    buffer, whose [..., :width] view is the table, and for the exact path
    its half spectrum, the columns 0..n_r/2 of the last mask axis r, which
    `half` indexes in a full table. fft and ifft run in place along the
    conv axes of an array that may be a split-path buffer, padded along its
    last axis: an FFT along that axis runs on its first `width` entries,
    every other FFT on the whole array. mixed, which the exact path and rhs
    run, works on the half spectrum.

    nyquist_rows holds, for the other mask axis of a two-factor term, the
    half spectrum's rows where that axis sits at its Nyquist index, and
    conj G(-q) on them: there E-bar averages in exp(s conj G(-q)) (see the
    module docstring). A one-factor term has none.
    """

    def __init__(self, grid: PhaseGrid, term: HamiltonianTerm, split: bool):
        axes, masks = [], []
        lam_left = lam_right = 1.0
        for kind, dof, profile in term.factors:
            axis, mask, f_left, f_right = _factor_tables(grid, kind, dof, profile)
            axes.append(axis)
            masks.append(mask)
            lam_left = lam_left * f_left
            lam_right = lam_right * f_right
        self.axes = tuple(axes)
        self.masks = tuple(masks)
        self.shape = grid.phase_shape
        self.width = self.shape[-1]
        # every axis but the conv axes: in frequency on the split path
        self.others = tuple(ax for ax in range(len(self.shape)) if ax not in self.axes)
        generator = (float(term.coefficient) * (lam_left - lam_right)
                     / (1j * grid.hbar))
        self.r = max(self.masks)
        n_r = self.shape[self.r]
        self.half_shape = self.shape[:self.r] + (n_r // 2 + 1,) + self.shape[self.r + 1:]
        self.half = (slice(None),) * self.r + (slice(0, n_r // 2 + 1),)
        self.nyquist_rows = []
        for m in self.masks:
            if m != self.r:
                rows = [slice(None)] * len(self.shape)
                rows[m] = slice(self.shape[m] // 2, self.shape[m] // 2 + 1)
                # G(-q) on the row: m's Nyquist index is its own reflection,
                # and along r column j reflects to column -j % n_r
                reflected = np.roll(np.flip(generator[tuple(rows)], self.r), 1, self.r)
                rows[self.r] = self.half[self.r]
                self.nyquist_rows.append((tuple(rows), np.conj(reflected[self.half])))
        self.generator = _padded(generator) if split else generator[self.half]

    def bar(self, table: np.ndarray, f) -> np.ndarray:
        """E-bar of table = f(G) on the half spectrum, in place: on each
        Nyquist row the mean of table and f(conj G(-q))."""
        for rows, tilde in self.nyquist_rows:
            table[rows] += f(tilde)
            table[rows] *= 0.5
        return table

    def shift(self) -> np.ndarray:
        """D: the odd mask columns' half-cell shift, with the conv axes in frequency."""
        shift = 1.0
        for axis, mask in zip(self.axes, self.masks):
            odd = np.arange(self.shape[mask]) % 2 == 1
            table = np.where(odd[None, :], half_cell_table(self.shape[axis], False)[:, None], 1.0)
            shift = shift * _embed(table, axis, mask, len(self.shape))
        return shift

    def _on(self, arr: np.ndarray, axis: int) -> np.ndarray:
        return arr[..., :self.width] if axis == arr.ndim - 1 else arr

    def fft(self, arr: np.ndarray) -> np.ndarray:
        for axis in self.axes:
            view = self._on(arr, axis)
            np.fft.fft(view, axis=axis, out=view)
        return arr

    def ifft(self, arr: np.ndarray) -> np.ndarray:
        for axis in reversed(self.axes):
            view = self._on(arr, axis)
            np.fft.ifft(view, axis=axis, out=view)
        return arr

    def _shift_odd(self, arr: np.ndarray, zero_nyquist: bool, adjoint: bool) -> None:
        """Shift the odd mask columns of arr along each conv axis by half a
        cell, with half_cell_table(n, zero_nyquist)'s map or its adjoint."""
        for axis, mask in zip(self.axes, self.masks):
            index = [slice(None)] * arr.ndim
            index[mask] = slice(1, None, 2)
            shift_half_cell(arr[tuple(index)], axis, zero_nyquist, adjoint=adjoint, negate=False)

    def to_mixed(self, arr: np.ndarray) -> np.ndarray:
        """The complex arr, in place, in the split path's mixed representation:
        every axis but the conv axes in frequency."""
        np.fft.fftn(arr, axes=self.others, out=arr)
        self._shift_odd(arr, zero_nyquist=False, adjoint=False)
        return arr

    def from_mixed(self, arr: np.ndarray) -> np.ndarray:
        """The inverse of to_mixed, in place."""
        self._shift_odd(arr, zero_nyquist=False, adjoint=True)
        np.fft.ifftn(arr, axes=self.others, out=arr)
        return arr

    def mixed(self, w: np.ndarray, table: np.ndarray, out) -> np.ndarray:
        """The real Wigner array of the diagonal table applied to the real w
        in the mixed representation; table is an E-bar on the half spectrum
        (bar).

        An rfft along the last mask axis r and an fft along the other mask
        axis, the odd columns' shifts with the Weyl maps' rule (0 at the
        Nyquist frequency), one product and the inverses, ending in one
        irfft: the mask axes alone are transformed, on the half spectrum
        q_r = 0..n_r/2. out is the half-spectrum array it runs in, or None
        for a new one.
        """
        c2c_axes = tuple(m for m in self.masks if m != self.r)
        arr = np.fft.rfft(w, axis=self.r, out=out)
        if c2c_axes:
            np.fft.fftn(arr, axes=c2c_axes, out=arr)
        self._shift_odd(arr, zero_nyquist=True, adjoint=False)
        # in place, table first: complex products round by operand order,
        # which numpy's temporary elision would pick by array size in a * b
        np.multiply(table, arr, out=arr)
        self._shift_odd(arr, zero_nyquist=True, adjoint=True)
        if c2c_axes:
            np.fft.ifftn(arr, axes=c2c_axes, out=arr)
        return np.fft.irfft(arr, n=self.shape[self.r], axis=self.r)


# Yoshida's triple jump: Strang sweeps of W1 dt, W0 dt and W1 dt compose
# to a 4th-order step (Phys. Lett. A 150, 262 (1990)).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) * _W1


def _yoshida_sweep(n_terms: int) -> list:
    """(term, fraction of dt) of each exponential of one 4th-order step.

    A Strang sweep takes terms 0..m-2 by half steps, term m-1 by a whole
    one and comes back; adjacent exponentials of one term merge, so the
    step begins and ends with half a W1 step of term 0.
    """
    last = n_terms - 1
    order = list(range(last)) + [last] + list(range(last - 1, -1, -1))
    seq = []
    for weight in (_W1, _W0, _W1):
        for j in order:
            frac = weight if j == last else 0.5 * weight
            if seq and seq[-1][0] == j:
                seq[-1] = (j, seq[-1][1] + frac)
            else:
                seq.append((j, frac))
    return seq


def _check_marginal_containment(grid: PhaseGrid, arr: np.ndarray) -> None:
    """ContainmentError if the x- or p-marginal leaks into the edge shell."""
    n = grid.dof
    grid.check_containment(arr.sum(axis=tuple(range(n, 2 * n))),
                           what="LvN x-marginal")
    grid.check_containment(arr.sum(axis=tuple(range(n))),
                           what="LvN p-marginal")


class LvnPlan:
    """Mixed representations, exp(s G) tables and 4th-order split steps for
    one (grid, Hamiltonian).

    Hamiltonian.lvn_plan builds one on the first evolve_lvn call and every
    later call on that Hamiltonian reads it. Every path applies a term in
    its mixed representation (_TermBasis), and rhs sums the terms' brackets
    taken there, each as _TermBasis.mixed of its G-bar. A Hamiltonian of one
    term takes the exact path (exact), _TermBasis.mixed of one E-bar table
    on the half spectrum of the real state (see the module docstring). Its
    arrays are contiguous, and block holds the three large ones: the
    half-spectrum generator, the E-bar table of the latest call and the
    work array each call runs in, 3 x 8.9 MB on the 32^4 coupling. They are
    one cache-aligned allocation, so the call's time does not depend on
    where the process's earlier arrays left them. Every other Hamiltonian
    takes split steps.

    A split state is (coef, pending): the state in term 0's mixed
    representation, with every axis but term 0's conv axes in np.fft
    frequency, and an amount s of term 0 whose exponential exp(s G_0) is
    not yet applied. enter is an fftn over those axes and the half-cell
    shift of the odd mask columns; real inverts it. coef is a row-padded
    buffer (see the module docstring): its last axis has _PAD spare zero
    entries, and the state is coef[..., :N]. The generators, move and
    exp(s G) tables are padded alike, so no FFT or product of a step runs
    at a power-of-two stride. The last exponential of a step is left
    pending and merges with the first of the next, so between steps the
    state stays in term 0's representation. A step runs on the coef
    buffer: each move from term a's representation to term b's is an fft
    along a's conv axes, one product with the table conj(D_a) D_b built
    here (D is _TermBasis.shift), and an ifft along b's conv axes, followed
    by the product with exp(s G_b).

    exp(s G) tables are built once per distinct (term, s) and kept across
    calls. A call starts at enter or exact; a table it builds first drops
    every table the call has not used yet, so the plan holds the tables of
    one call, and a call with other step sizes replaces them. Held between
    calls, on the dof-2 three-term Hamiltonian of 32^4 (one full-size
    term): 87 MB after a call of whole steps (7 exp tables), 156 MB after
    one with verify_dt and a shorter last step (20); on the oscillator at
    N = 256, 14 MB after a call with verify_dt.
    """

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        if h.grid != grid:
            raise GridMismatchError("Hamiltonian grid mismatch")
        split = len(h.terms) > 1
        self.bases = [_TermBasis(grid, term, split) for term in h.terms]
        self.sweep = _yoshida_sweep(len(self.bases))
        self._tables = {}
        # the exact path's generator, exp table and work array: one block
        self.block = self._exp_out = self._work = None
        if not split:
            basis, = self.bases
            self.block = _cache_aligned((3,) + basis.half_shape)
            self.block[0] = basis.generator
            basis.generator, self._exp_out, self._work = self.block
        self._used = set()
        self._moves = {}
        for (a, _), (b, _) in zip(self.sweep, self.sweep[1:]):
            if (a, b) not in self._moves:
                move = np.conj(self.bases[a].shift()) * self.bases[b].shift()
                self._moves[a, b] = _padded(move)

    def rhs(self, w: np.ndarray) -> np.ndarray:
        """dW/dt = (H*W - W*H) / (i hbar), summed term by term."""
        # [..., :width][half]: the half spectrum of a padded or of a half generator
        return sum(basis.mixed(w, basis.bar(basis.generator[..., :basis.width][basis.half].copy(),
                                            lambda g: g), out=None)
                   for basis in self.bases)

    def _exp(self, j: int, s: float) -> np.ndarray:
        """exp(s G_j); on the exact path its E-bar (_TermBasis.bar)."""
        key = (j, s)
        self._used.add(key)
        table = self._tables.get(key)
        if table is None:
            # dropped before the new table is allocated
            self._tables = {k: t for k, t in self._tables.items() if k in self._used}
            basis = self.bases[j]
            table = np.multiply(s, basis.generator, out=self._exp_out)
            np.exp(table, out=table)
            if self.block is not None:
                basis.bar(table, lambda g: np.exp(s * g))
            self._tables[key] = table
        return table

    def exact(self, arr: np.ndarray, total: float) -> np.ndarray:
        """Wigner array arr after time total under a one-term H; starts a call.

        Runs in the block's work array and returns the irfft's new real
        array, so the next call leaves it as it is.
        """
        self._used.clear()
        return self.bases[0].mixed(arr, self._exp(0, total), out=self._work)

    def enter(self, arr: np.ndarray):
        """The split state of the Wigner array arr; starts a call."""
        self._used.clear()
        basis = self.bases[0]
        return _padded(basis.to_mixed(arr.astype(complex))), 0.0

    def step(self, coef: np.ndarray, pending: float, dt: float):
        """Advance a state by dt; coef is overwritten and returned."""
        (_, first), *body, (_, last) = [(j, frac * dt) for j, frac in self.sweep]
        coef *= self._exp(0, pending + first)
        cur = 0
        for j, s in body:
            self._move(coef, cur, j)
            coef *= self._exp(j, s)
            cur = j
        self._move(coef, cur, 0)
        return coef, last

    def _move(self, coef: np.ndarray, a: int, b: int) -> None:
        self.bases[a].fft(coef)
        coef *= self._moves[a, b]
        self.bases[b].ifft(coef)

    def real(self, coef: np.ndarray, pending: float) -> np.ndarray:
        """The Wigner array of a state; coef is left as it is."""
        basis = self.bases[0]
        arr = coef[..., :basis.width] * self._exp(0, pending)[..., :basis.width]
        return basis.from_mixed(arr).real


def step_count(t_final: float, dt: float) -> tuple[int, float]:
    """Whole dt steps to t_final, with 1e-12 slack, and the shorter last step."""
    whole = int(np.floor(t_final / dt + 1e-12))
    tail = t_final - whole * dt
    if tail < 1e-12 * max(1.0, abs(t_final)):
        tail = 0.0
    return whole, tail


def evolve_lvn(w: WignerState, h: Hamiltonian, t_final: float, dt: float,
               verify_dt: bool = True) -> WignerState:
    """Propagate a Wigner state on dW/dt = -{{W, H}} by t_final.

    Two paths, both through the tables of h.lvn_plan, which the first call
    that moves the state builds and later calls reuse:

    - A Hamiltonian of one term is advanced by its exact exponential,
      computed directly from the initial state on the half spectrum of the
      real W with the Weyl maps' half-cell rule, and the result is real as
      computed: the real part of the full complex exponential's to
      round-off, since the one table it applies is E-bar, E with
      exp(t conj G(-q)) averaged in on the rows where a mask axis other
      than the last sits at its Nyquist index (see the module docstring).
      dt plays no role on the exact path, and verify_dt has nothing to
      check.
    - Every other Hamiltonian takes 4th-order split steps of dt, and a
      shorter last step reaches t_final: Yoshida's triple jump of Strang
      sweeps over the terms' exact exponentials. Each step is unitary, so
      mass and purity are kept to round-off. The state is carried complex,
      and the call returns its real part. With verify_dt it first
      compares the first step it takes (dt, or t_final when dt exceeds it)
      with two half steps and raises EvolutionUnstableError on a mismatch
      above 1e-3; that mismatch is the local splitting error.

    Containment: ContainmentError when the x- or p-marginal has 1e-6 or
    more of its mass in the outer 2-cell shell. The split path checks
    every steps // 20 steps and the final state; the exact path checks the
    final state.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")
    if h.grid != w.grid:
        raise GridMismatchError("Hamiltonian grid mismatch")
    steps, remainder = step_count(t_final, dt)
    if steps == 0 and remainder == 0.0:
        return WignerState(w.grid, w.values.copy())
    plan = h.lvn_plan
    if len(h.terms) == 1:
        arr = plan.exact(w.values, steps * dt + remainder)
    else:
        arr = _evolve_split(w, plan, steps, dt, remainder, verify_dt)
    _check_marginal_containment(w.grid, arr)
    return WignerState(w.grid, arr)


def _check_step_halving(one: np.ndarray, half: np.ndarray, scale: float,
                        dt: float) -> None:
    mismatch = np.abs(one - half).max() / max(scale, 1e-300)
    if mismatch > 1e-3:
        raise EvolutionUnstableError(
            f"step-halving mismatch {mismatch:.2e} at dt={dt}; "
            f"reduce dt (try {dt / 4})")


def _evolve_split(w, plan, steps, dt, remainder, verify_dt):
    state = plan.enter(w.values)
    if verify_dt:
        first = dt if steps else remainder
        coef, pending = state
        one = plan.real(*plan.step(coef.copy(), pending, first))
        half = plan.step(coef.copy(), pending, first / 2)
        half = plan.real(*plan.step(*half, first / 2))
        _check_step_halving(one, half, np.abs(w.values).max(), first)

    for k in range(1, steps + 1):
        state = plan.step(*state, dt)
        if k % max(1, steps // 20) == 0:
            _check_marginal_containment(w.grid, plan.real(*state))
    if remainder > 0.0:
        state = plan.step(*state, remainder)
    return plan.real(*state)
