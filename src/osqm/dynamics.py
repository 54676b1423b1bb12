"""Liouville-von Neumann evolution of Wigner states.

Every Hamiltonian term is a product of single-variable factors f(x_d) or
g(p_d). In the frequency domain a factor's left/right star multiplications
are one-axis twisted convolutions (cyclic or negacyclic by the parity of
the conjugate frequency); twisting the odd-parity columns and an FFT along
the convolution axis make both diagonal. The factors of a term sit on
distinct dofs, so one term basis diagonalizes the term's whole bracket,
with eigenvalues c (prod L - prod R) / (i hbar) (after Cabrera, Bondar,
Jacobs & Rabitz, PRA 92, 042122 (2015)). This reproduces the dense-oracle
evolution to machine precision in space. A Hamiltonian is static: each
term's coefficient c is a number, which its generator holds. A term's
_TermBasis is the one way every path applies it, and there are two paths:

- A Hamiltonian of one term is advanced by its exact exponential in the
  term's mixed representation (_TermBasis.mixed): only its factors' mask
  axes go to the frequency domain, and its conv axes stay in their own
  variables, with a half-cell shift of the odd mask columns. dt plays no
  role on the exact path, and verify_dt has nothing to check.
- Every other Hamiltonian takes 4th-order split steps (LvnPlan): Yoshida's
  triple jump (Phys. Lett. A 150, 262 (1990)) of Strang sweeps over the
  terms' exact exponentials. The state stays in the frequency domain
  between steps. verify_dt compares one step with two half steps, which
  measures the local splitting error.

The split path spends its time moving arrays between bases, so each basis
change is an in-place np.fft pass (out=, numpy >= 2.0) and one product
with a precomputed table: the centered transform over every axis is
spectral.cdftn, and a split step moves from term a's basis to term b's by
an ifft along a's axes, one fused untwist_a * twist_b table and an fft
along b's axes.

The exact path makes 8 FFT passes over the state where a change to the
twisted basis and back makes 12. On the 32^4 coupling these are an fftn
over the two mask axes, an fft and an ifft on the odd half of each of the
two conv axes, the same shifts back and the ifftn (2 + 2 + 2 + 2 passes),
against a centred transform over all four axes, an fft along each conv
axis and both inverses (4 + 2 + 2 + 4). It holds two state-sized tables
where the twisted basis held four. One evolve_lvn call there took 29.6 ms,
against 43.2 ms through the twisted basis (medians of 5 runs of
tools/lvn_step_bench.py, 1 BLAS thread, AMD EPYC).

The tables belong to the Hamiltonian. Hamiltonian.lvn_plan builds its
LvnPlan on the first evolve_lvn call, never before, and every later call
reads it: on the split path each term's twist, untwist and padded
generator, the move tables, and the exp(s G) tables of the latest call's
step sizes; on the exact path the term's generator in its mixed
representation and one exp table. A call with other step sizes replaces
those exp tables, so the bytes held do not grow with the number of calls or
of distinct dt and t_final values. On dof 2 most tables are the size of the
state: the one-term 32^4 coupling holds two 16.8 MB tables.

The split path keeps its state in a row-padded buffer: the last axis has
_PAD spare entries, which stay zero, so no axis runs at a power-of-two
stride. On a C-contiguous N x N complex array an FFT along axis 0 steps by
16 N bytes, and successive rows fall in the same cache sets: one such FFT
took 85 us at N = 128 and 424 us at N = 256, against 45 and 147 us along
axis 1, and 49 and 156 us along axis 0 of rows of N + 1 entries (1 thread,
AMD EPYC). FFTs along the last axis run on the [..., :N] view, those along
every other axis on the whole buffer, and the move and exp(s G) tables have
the padded shape, so each product multiplies two whole buffers. On every
case the tests and the benchmark run, the results are bitwise those of the
contiguous layout. The exact path stays contiguous: padded, its dof-2 32^4
evolution through the twisted basis took 88 ms against 83 ms, and it was
not bitwise equal.

Both paths check that the state stays on the grid: the x- and p-marginal
mass in the outer 2-cell shell must stay below grid.CONTAINMENT_TOL, else
ContainmentError (the LvN state would otherwise wrap over the periodic edge
unnoticed). The split path checks every steps // 20 steps and the final
state, the exact path the final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .spectral import cdft, cdftn, cidftn
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
    keeps (lvn_plan) cannot go stale. A Hamiltonian with no terms raises
    ValueError.
    """

    grid: PhaseGrid
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("Hamiltonian has no terms")

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
# term bases: every path applies a term through the basis that diagonalizes it

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


@lru_cache(maxsize=16)
def _freq_tables(n: int):
    """(centred frequencies, twist): twist[u, k] is mu[u] on odd k columns, else 1."""
    frq = np.arange(n) - n // 2
    mu = np.exp(1j * np.pi * frq / n)
    odd = (np.abs(frq) % 2).astype(bool)
    twist = np.where(odd[None, :], mu[:, None], 1.0)
    twist.flags.writeable = False
    return frq, twist


def _embed(table: np.ndarray, conv_axis: int, mask_axis: int, ndim: int) -> np.ndarray:
    """A [conv, mask] table in the broadcast shape of an ndim-axis array, C order."""
    shape = [1] * ndim
    shape[conv_axis] = shape[mask_axis] = len(table)
    if conv_axis > mask_axis:
        table = table.T
    return np.ascontiguousarray(table).reshape(shape)


def _factor_twist(shape: tuple, conv_axis: int, mask_axis: int) -> np.ndarray:
    """A factor's twist in the broadcast shape of an array of that shape."""
    return _embed(_freq_tables(shape[conv_axis])[1], conv_axis, mask_axis, len(shape))


@lru_cache(maxsize=16)
def _half_shift(n: int) -> np.ndarray:
    """d = e^{i pi a / n} at each signed frequency a in [-n/2, n/2), in np.fft order.

    ifft(d * fft(f)) samples the trigonometric interpolant of f half a cell
    past each node.
    """
    shift = np.exp(1j * np.pi * np.fft.fftfreq(n, 1.0 / n) / n)
    shift.flags.writeable = False
    return shift


def _mixed_order(table: np.ndarray, conv_axis: int, mask_axis: int) -> np.ndarray:
    """A factor's twisted-basis table re-indexed to the term's mixed representation.

    Conv-axis Fourier mode q = (n/2 - k) mod n goes to grid node k, and the
    centred mask frequency index u = (j + n/2) mod n to uncentred index j.
    """
    n = table.shape[conv_axis]
    table = np.take(table, (n // 2 - np.arange(n)) % n, axis=conv_axis)
    return np.roll(table, n // 2, axis=mask_axis)


def _factor_basis(grid: PhaseGrid, kind: str, dof: int, profile):
    """(conv_axis, mask_axis, lam_left, lam_right) of a single-variable factor.

    For a factor f(x_d), left/right star multiplication acts on the
    frequency array by convolving along the x_d-frequency axis with the
    kernel fhat[u] e^{-+i pi u k / N}, where k is the p_d frequency; odd k
    columns are negacyclic. For f(p_d) the axes swap and the phase signs
    flip. Twisting the odd columns by mu (_factor_twist) and an FFT along
    conv_axis make both convolutions diagonal, with eigenvalues lam_left
    and lam_right; their factor (-1)^q on conv-axis Fourier mode q (roll)
    re-centres the convolution, a roll by -N/2. The tables broadcast over
    the full array.
    """
    n = grid.n(dof)
    frq, twist = _freq_tables(n)
    if kind == "x":
        axis_vals, conv_axis, mask_axis, sign = grid.x(dof), dof, grid.dof + dof, -1.0
    else:
        axis_vals, conv_axis, mask_axis, sign = grid.p(dof), grid.dof + dof, dof, 1.0
    fhat = cdft(np.asarray(profile(axis_vals), dtype=complex)) / n
    phases = np.exp(1j * np.pi * np.outer(frq, frq) / n)  # [u, k]
    roll = ((-1.0) ** np.arange(n))[:, None]
    left, right = (np.fft.fft(fhat[:, None] * phases ** s * twist, axis=0) * roll
                   for s in (sign, -sign))
    return (conv_axis, mask_axis, _embed(left, conv_axis, mask_axis, 2 * grid.dof),
            _embed(right, conv_axis, mask_axis, 2 * grid.dof))


class _TermBasis:
    """The representations that diagonalize one term's bracket, and its generator.

    The factors of a term sit on distinct dofs, so their twisted FFTs act on
    disjoint axes and diagonalize every L_f and R_f at once: the term's basis
    is the FFT along its factors' conv axes of twist * (frequency array), with
    twist the product of the factors' twists. There the bracket of
    c * (product of factors) is the table c (prod L - prod R) / (i hbar).

    split selects where the generator lives. For the split path it is that
    table in the twisted basis, as a row-padded buffer; its [..., :width]
    view is the table itself. For the exact path it is the same table in
    the term's mixed representation (see mixed), re-indexed once here; such
    a basis never builds its full-size twist and untwist, which only the
    split path and rhs read. Every twisted-basis change runs in place on
    the array it is given, which may be a split-path buffer padded along its
    last axis: an FFT along that axis runs on its first `width` entries,
    every other FFT on the whole array.
    """

    def __init__(self, grid: PhaseGrid, term: HamiltonianTerm, split: bool):
        axes, masks = [], []
        lam_left = lam_right = 1.0
        for kind, dof, profile in term.factors:
            axis, mask, f_left, f_right = _factor_basis(grid, kind, dof, profile)
            if not split:
                f_left = _mixed_order(f_left, axis, mask)
                f_right = _mixed_order(f_right, axis, mask)
            axes.append(axis)
            masks.append(mask)
            lam_left = lam_left * f_left
            lam_right = lam_right * f_right
        self.axes = tuple(axes)
        self.masks = tuple(masks)
        self.shape = grid.phase_shape
        self.width = self.shape[-1]
        generator = (float(term.coefficient) * (lam_left - lam_right)
                     / (1j * grid.hbar))
        self.generator = _padded(generator) if split else generator

    @cached_property
    def twist(self) -> np.ndarray:
        twist = 1.0
        for axis, mask in zip(self.axes, self.masks):
            twist = twist * _factor_twist(self.shape, axis, mask)
        return twist

    @cached_property
    def untwist(self) -> np.ndarray:
        return np.conj(self.twist)

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

    def from_basis(self, coef: np.ndarray) -> np.ndarray:
        self.ifft(coef)
        coef *= self.untwist
        return coef

    def _shift_odd(self, arr: np.ndarray, conj: bool) -> None:
        """Shift the odd mask columns of arr along each conv axis by half a cell."""
        for axis, mask in zip(self.axes, self.masks):
            index = [slice(None)] * arr.ndim
            index[mask] = slice(1, None, 2)
            odd = arr[tuple(index)]
            shift = _half_shift(arr.shape[axis])
            shape = [1] * arr.ndim
            shape[axis] = shift.size
            np.fft.fft(odd, axis=axis, out=odd)
            odd *= (np.conj(shift) if conj else shift).reshape(shape)
            np.fft.ifft(odd, axis=axis, out=odd)

    def mixed(self, w: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The real Wigner array of table applied to w in the mixed representation.

        The term's mixed representation keeps each conv axis in its own
        variable and takes each mask axis to its (uncentred) frequency. On a
        conv axis the twisted-basis change fft * twist * cdft is a signed
        permutation P on even mask columns and P S on odd ones, with S the
        half-cell shift ifft(d fft(.)), |d| = 1. So P^-1 diag(E) P is diag(E)
        re-indexed (the generator this basis keeps), and the centring signs
        of the mask axes cancel in pairs or become that re-indexing's roll
        of N/2. Axes of no factor are never transformed. This is the
        Bopp-operator picture of Cabrera, Bondar, Jacobs & Rabitz (PRA 92,
        042122 (2015)).
        """
        out = w.astype(complex)
        np.fft.fftn(out, axes=self.masks, out=out)
        self._shift_odd(out, conj=False)
        # in place, table first: complex products round by operand order,
        # which numpy's temporary elision would pick by array size in a * b
        np.multiply(table, out, out=out)
        self._shift_odd(out, conj=True)
        np.fft.ifftn(out, axes=self.masks, out=out)
        return out.real


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
    """Term bases, exp(s G) tables and 4th-order split steps for one
    (grid, Hamiltonian).

    Hamiltonian.lvn_plan builds one on the first evolve_lvn call and every
    later call on that Hamiltonian reads it. A Hamiltonian of one term takes
    the exact path (exact) in the term's mixed representation: its tables
    keep the state's contiguous layout, and it holds the generator there
    plus the one exp(total G) table of the latest call, two tables the size
    of the state on the 32^4 coupling (16.8 MB each), and no twist or
    untwist. rhs of such a plan applies the generator there too. Every other
    Hamiltonian takes split steps.

    A split state is (coef, pending): its coefficients in term 0's basis and
    an amount s of term 0 whose exponential exp(s G_0) is not yet applied.
    coef is a row-padded buffer (see the module docstring): its last axis
    has _PAD spare zero entries, and the state is coef[..., :N]. The
    generators, move and exp(s G) tables are padded alike, so no FFT or
    product of a step runs at a power-of-two stride.
    The last exponential of a step is left pending and merges with the
    first of the next, so between steps the state never leaves the
    frequency domain. A step runs on the coef buffer: each move from term
    a's basis to term b's is an ifft along a's axes, one product with the
    table untwist_a * twist_b built here, and an fft along b's axes,
    followed by the product with exp(s G_b).

    exp(s G) tables are built once per distinct (term, s) and kept across
    calls. A call starts at enter or exact; a table it builds first drops
    every table the call has not used yet, so the plan holds the tables of
    one call, and a call with other step sizes replaces them. Held between
    calls, on the dof-2 three-term Hamiltonian of 32^4 (one full-size
    term): 120 MB after a call of whole steps (7 exp tables), 190 MB after
    one with verify_dt and a shorter last step (20); on the oscillator at
    N = 256, 18 MB after a call with verify_dt.
    """

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        if h.grid != grid:
            raise GridMismatchError("Hamiltonian grid mismatch")
        split = len(h.terms) > 1
        self.bases = [_TermBasis(grid, term, split) for term in h.terms]
        self.sweep = _yoshida_sweep(len(self.bases))
        self._tables = {}
        self._used = set()
        self._moves = {}
        for (a, _), (b, _) in zip(self.sweep, self.sweep[1:]):
            if (a, b) not in self._moves:
                self._moves[a, b] = _padded(self.bases[a].untwist * self.bases[b].twist)

    def rhs(self, w: np.ndarray) -> np.ndarray:
        """dW/dt = (H*W - W*H) / (i hbar), summed term by term."""
        if len(self.bases) == 1:
            basis = self.bases[0]
            return basis.mixed(w, basis.generator)
        what = cdftn(w)
        acc = np.zeros_like(what)
        for basis in self.bases:
            coef = basis.fft(what * basis.twist)
            coef *= basis.generator[..., :basis.width]
            acc += basis.from_basis(coef)
        return cidftn(acc).real

    def _exp(self, j: int, s: float) -> np.ndarray:
        key = (j, s)
        self._used.add(key)
        table = self._tables.get(key)
        if table is None:
            # dropped before the new table is allocated
            self._tables = {k: t for k, t in self._tables.items() if k in self._used}
            table = self._tables[key] = np.exp(s * self.bases[j].generator)
        return table

    def exact(self, arr: np.ndarray, total: float) -> np.ndarray:
        """Wigner array arr after time total under a one-term H; starts a call."""
        self._used.clear()
        return self.bases[0].mixed(arr, self._exp(0, total))

    def enter(self, arr: np.ndarray):
        """The split state of the Wigner array arr; starts a call."""
        self._used.clear()
        basis = self.bases[0]
        return basis.fft(_padded(cdftn(arr) * basis.twist)), 0.0

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
        self.bases[a].ifft(coef)
        coef *= self._moves[a, b]
        self.bases[b].fft(coef)

    def real(self, coef: np.ndarray, pending: float) -> np.ndarray:
        """The Wigner array of a state; coef is left as it is."""
        basis = self.bases[0]
        what = basis.ifft(coef * self._exp(0, pending))[..., :basis.width]
        return cidftn(what * basis.untwist).real


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
      computed directly from the initial state. dt plays no role on the
      exact path, and verify_dt has nothing to check.
    - Every other Hamiltonian takes 4th-order split steps of dt, and a
      shorter last step reaches t_final: Yoshida's triple jump of Strang
      sweeps over the terms' exact exponentials. Each step is unitary, so
      mass and purity are kept to round-off. With verify_dt it first
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
