"""Liouville-von Neumann evolution of Wigner states.

Every Hamiltonian term is a product of single-variable factors f(x_d) or
g(p_d). In the frequency domain a factor's left/right star multiplications
are one-axis twisted convolutions (cyclic or negacyclic by the parity of
the conjugate frequency); twisting the odd-parity columns and an FFT along
the convolution axis make both diagonal. The factors of a term sit on
distinct dofs, so one term basis diagonalizes the term's whole bracket,
with eigenvalues c (prod L - prod R) / (i hbar) (after Cabrera, Bondar,
Jacobs & Rabitz, PRA 92, 042122 (2015)). This reproduces the dense-oracle
evolution to machine precision in space. The term basis is the one way
every path applies a term, and there are two paths:

- A static Hamiltonian of one term is advanced by its exact exponential in
  its basis. dt plays no role on the exact path, and verify_dt has nothing
  to check.
- Every other Hamiltonian takes 4th-order split steps (LvnPlan): Yoshida's
  triple jump (Phys. Lett. A 150, 262 (1990)) of Strang sweeps over the
  terms' exact exponentials. A time-dependent coefficient is taken at the
  midpoint time of each sweep, so each sweep stays symmetric. The state
  stays in the frequency domain between steps. verify_dt compares one step
  with two half steps, which measures the local splitting error.

The split path spends its time moving arrays between bases, so each basis
change is an in-place np.fft pass (out=, numpy >= 2.0) and one product
with a precomputed table: the centered transform over every axis is
spectral.cdftn, and a split step moves from term a's basis to term b's by
an ifft along a's axes, one fused untwist_a * twist_b table and an fft
along b's axes. No table outlives its evolve_lvn call; on dof 2 most are
the size of the state.

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
evolution took 88 ms against 83 ms, and it was not bitwise equal.

Both paths check that the state stays on the grid: the x- and p-marginal
mass in the outer 2-cell shell must stay below grid.CONTAINMENT_TOL, else
ContainmentError (the LvN state would otherwise wrap over the periodic edge
unnoticed). The split path checks every steps // 20 steps and the final
state, the exact path the final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

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
    number or a callable of time.
    """

    factors: tuple
    coefficient: Union[float, Callable[[float], float]] = 1.0
    label: str = ""

    def __post_init__(self):
        seen_dofs = set()
        for kind, dof, _ in self.factors:
            if kind not in ("x", "p"):
                raise ValueError("factor kind must be 'x' or 'p'")
            if dof in seen_dofs:
                raise ValueError("at most one factor per dof in a term")
            seen_dofs.add(dof)

    def coeff_at(self, t: float) -> float:
        if callable(self.coefficient):
            return float(self.coefficient(t))
        return float(self.coefficient)


@dataclass
class Hamiltonian:
    """Sum of factorized terms; renders to a real Weyl symbol on demand."""

    grid: PhaseGrid
    terms: Sequence[HamiltonianTerm]

    def symbol(self, t: float = 0.0) -> WeylSymbol:
        mesh = self.grid.phase_mesh()
        n = self.grid.dof
        vals = np.zeros(self.grid.phase_shape)
        for term in self.terms:
            part = np.ones(self.grid.phase_shape)
            for kind, dof, profile in term.factors:
                coord = mesh[dof] if kind == "x" else mesh[n + dof]
                part = part * profile(coord)
            vals += term.coeff_at(t) * part
        return WeylSymbol(self.grid, vals + 0j)

    def is_static(self) -> bool:
        return all(not callable(t.coefficient) for t in self.terms)


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
    frq = np.arange(n) - n // 2
    mu = np.exp(1j * np.pi * frq / n)
    odd = (np.abs(frq) % 2).astype(bool)
    return frq, mu, odd


def _factor_basis(grid: PhaseGrid, kind: str, dof: int, profile):
    """(conv_axis, twist, lam_left, lam_right) of a single-variable factor.

    For a factor f(x_d), left/right star multiplication acts on the
    frequency array by convolving along the x_d-frequency axis with the
    kernel fhat[u] e^{-+i pi u k / N}, where k is the p_d frequency; odd k
    columns are negacyclic. For f(p_d) the axes swap and the phase signs
    flip. Twisting the odd columns by mu (twist) and an FFT along conv_axis
    make both convolutions diagonal, with eigenvalues lam_left and
    lam_right; their factor (-1)^q on conv-axis Fourier mode q (roll)
    re-centres the convolution, a roll by -N/2. The tables broadcast over
    the full array.
    """
    n = grid.n(dof)
    frq, mu, odd = _freq_tables(n)
    if kind == "x":
        axis_vals, conv_axis, mask_axis, sign = grid.x(dof), dof, grid.dof + dof, -1.0
    else:
        axis_vals, conv_axis, mask_axis, sign = grid.p(dof), grid.dof + dof, dof, 1.0
    shape = [1] * (2 * grid.dof)
    shape[conv_axis] = shape[mask_axis] = n

    def embed(table):  # [conv, mask] -> broadcast shape, C order
        if conv_axis > mask_axis:
            table = table.T
        return np.ascontiguousarray(table).reshape(shape)

    twist = np.where(odd[None, :], mu[:, None], 1.0)
    fhat = cdft(np.asarray(profile(axis_vals), dtype=complex)) / n
    phases = np.exp(1j * np.pi * np.outer(frq, frq) / n)  # [u, k]
    roll = ((-1.0) ** np.arange(n))[:, None]
    left, right = (np.fft.fft(fhat[:, None] * phases ** s * twist, axis=0) * roll
                   for s in (sign, -sign))
    return conv_axis, embed(twist), embed(left), embed(right)


class _TermBasis:
    """The basis that diagonalizes one term's bracket, and its generator.

    The factors of a term sit on distinct dofs, so their twisted FFTs act on
    disjoint axes and diagonalize every L_f and R_f at once: the term's basis
    is the FFT along its factors' conv axes of twist * (frequency array), with
    twist the product of the factors' twists. There the bracket of
    c * (product of factors) is the table generator = c (prod L - prod R)
    / (i hbar). Every basis change runs in place on the array it is given,
    which may be a split-path buffer padded along its last axis: an FFT
    along that axis runs on its first `width` entries, every other FFT on
    the whole array.
    """

    def __init__(self, grid: PhaseGrid, term: HamiltonianTerm, c: float):
        axes = []
        twist = lam_left = lam_right = 1.0
        for kind, dof, profile in term.factors:
            axis, f_twist, f_left, f_right = _factor_basis(grid, kind, dof, profile)
            axes.append(axis)
            twist = twist * f_twist
            lam_left = lam_left * f_left
            lam_right = lam_right * f_right
        self.axes = tuple(axes)
        self.width = grid.n(grid.dof - 1)
        self.twist = twist
        self.untwist = np.conj(twist)
        self.generator = c * (lam_left - lam_right) / (1j * grid.hbar)

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

    def to_basis(self, what: np.ndarray) -> np.ndarray:
        what *= self.twist
        return self.fft(what)

    def from_basis(self, coef: np.ndarray) -> np.ndarray:
        self.ifft(coef)
        coef *= self.untwist
        return coef

    def propagate(self, coef: np.ndarray, s: float) -> np.ndarray:
        """Frequency-domain state at time s from its basis coefficients."""
        return self.from_basis(coef * np.exp(s * self.generator))


# Yoshida's triple jump: Strang sweeps of W1 dt, W0 dt and W1 dt compose
# to a 4th-order step (Phys. Lett. A 150, 262 (1990)).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) * _W1


def _yoshida_sweep(n_terms: int) -> list:
    """(term, fraction of dt, parts) of each exponential of one 4th-order step.

    A Strang sweep takes terms 0..m-2 by half steps, term m-1 by a whole
    one and comes back; adjacent exponentials of one term merge, so the
    step begins and ends with half a W1 step of term 0. parts holds the
    (fraction, midpoint) of each merged piece, with midpoint the centre of
    the piece's Strang sweep in units of dt from the step's start.
    """
    last = n_terms - 1
    order = list(range(last)) + [last] + list(range(last - 1, -1, -1))
    seq = []
    start = 0.0
    for weight in (_W1, _W0, _W1):
        mid = start + 0.5 * weight
        start += weight
        for j in order:
            frac = weight if j == last else 0.5 * weight
            if seq and seq[-1][0] == j:
                _, merged, parts = seq[-1]
                seq[-1] = (j, merged + frac, parts + ((frac, mid),))
            else:
                seq.append((j, frac, ((frac, mid),)))
    return seq


def _check_marginal_containment(grid: PhaseGrid, arr: np.ndarray) -> None:
    """ContainmentError if the x- or p-marginal leaks into the edge shell."""
    n = grid.dof
    grid.check_containment(arr.sum(axis=tuple(range(n, 2 * n))),
                           what="LvN x-marginal")
    grid.check_containment(arr.sum(axis=tuple(range(n))),
                           what="LvN p-marginal")


class LvnPlan:
    """Term bases and 4th-order split steps for one (grid, Hamiltonian).

    A constant coefficient sits in its term's generator. A callable one
    does not (the generator has unit coefficient): each exponential of its
    term is scaled by the coefficient at the midpoint of the Strang sweep
    it belongs to, which keeps every sweep symmetric and the triple jump
    4th order.

    A state is (coef, pending): its coefficients in term 0's basis and an
    amount s of term 0 whose exponential exp(s G_0) is not yet applied.
    coef is a row-padded buffer (see the module docstring): its last axis
    has _PAD spare zero entries, and the state is coef[..., :N]. The move
    and exp(s G) tables are padded alike, so no FFT or product of a step
    runs at a power-of-two stride.
    The last exponential of a step is left pending and merges with the
    first of the next, so between steps the state never leaves the
    frequency domain. A step runs on the coef buffer: each move from term
    a's basis to term b's is an ifft along a's axes, one product with the
    table untwist_a * twist_b built here, and an fft along b's axes,
    followed by the product with exp(s G_b). exp(s G) tables of constant
    terms are built once per distinct (term, s); those of a callable term
    change with every step.
    """

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        if h.grid != grid:
            raise GridMismatchError("Hamiltonian grid mismatch")
        self.terms = list(h.terms)
        self.timed = [callable(term.coefficient) for term in self.terms]
        self.bases = [_TermBasis(grid, term, 1.0 if timed else term.coeff_at(0.0))
                      for term, timed in zip(self.terms, self.timed)]
        self.sweep = _yoshida_sweep(len(self.bases))
        self._generators = [_padded(basis.generator) for basis in self.bases]
        self._tables = {}
        self._moves = {}
        for (a, *_), (b, *_) in zip(self.sweep, self.sweep[1:]):
            if (a, b) not in self._moves:
                self._moves[a, b] = _padded(self.bases[a].untwist * self.bases[b].twist)

    def _scale(self, j: int, t: float) -> float:
        """Term j's coefficient at t, or 1 where its generator holds it."""
        return self.terms[j].coeff_at(t) if self.timed[j] else 1.0

    def rhs(self, w: np.ndarray, t: float) -> np.ndarray:
        """dW/dt = (H*W - W*H) / (i hbar), summed term by term."""
        what = cdftn(w)
        acc = np.zeros_like(what)
        for j, basis in enumerate(self.bases):
            coef = basis.fft(what * basis.twist)
            coef *= basis.generator
            acc += self._scale(j, t) * basis.from_basis(coef)
        return cidftn(acc).real

    def _amount(self, j: int, frac: float, parts: tuple, t: float,
                dt: float) -> float:
        if not self.timed[j]:
            return frac * dt
        coeff_at = self.terms[j].coeff_at
        return sum(f * dt * coeff_at(t + m * dt) for f, m in parts)

    def _exp(self, j: int, s: float) -> np.ndarray:
        if self.timed[j]:
            return np.exp(s * self._generators[j])
        table = self._tables.get((j, s))
        if table is None:
            table = self._tables[(j, s)] = np.exp(s * self._generators[j])
        return table

    def enter(self, arr: np.ndarray):
        basis = self.bases[0]
        return basis.fft(_padded(cdftn(arr) * basis.twist)), 0.0

    def step(self, coef: np.ndarray, pending: float, t: float, dt: float):
        """Advance a state from t by dt; coef is overwritten and returned."""
        (_, first), *rest = [(j, self._amount(j, frac, parts, t, dt))
                             for j, frac, parts in self.sweep]
        if not rest:  # one term: its exponentials commute, all stay pending
            return coef, pending + first
        *body, (_, last) = rest
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
               verify_dt: bool = True, t0: float = 0.0) -> WignerState:
    """Propagate a Wigner state on dW/dt = -{{W, H}} from t0 by t_final.

    Two paths:

    - A static Hamiltonian of one term is advanced by its exact
      exponential, computed directly from the initial state. dt plays no
      role on the exact path, and verify_dt has nothing to check.
    - Every other Hamiltonian takes 4th-order split steps of dt, and a
      shorter last step reaches t_final: Yoshida's triple jump of Strang
      sweeps over the terms' exact exponentials, a time-dependent
      coefficient taken at its sweep's midpoint time. Each step is unitary,
      so mass and purity are kept to round-off. With verify_dt it first
      compares the first step it takes (dt, or t_final when dt exceeds it)
      with two half steps from t0 and raises EvolutionUnstableError on a
      mismatch above 1e-3; that mismatch is the local splitting error.

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
    if h.is_static() and len(h.terms) == 1:
        arr = _evolve_exact(w, h, steps * dt + remainder)
    else:
        arr = _evolve_split(w, h, steps, dt, remainder, t0, verify_dt)
    return WignerState(w.grid, arr)


def _check_step_halving(one: np.ndarray, half: np.ndarray, scale: float,
                        dt: float) -> None:
    mismatch = np.abs(one - half).max() / max(scale, 1e-300)
    if mismatch > 1e-3:
        raise EvolutionUnstableError(
            f"step-halving mismatch {mismatch:.2e} at dt={dt}; "
            f"reduce dt (try {dt / 4})")


def _evolve_exact(w, h, total):
    if total == 0:
        return w.values.copy()
    prop = LvnPlan(w.grid, h).bases[0]
    arr = cidftn(prop.propagate(prop.to_basis(cdftn(w.values)), total)).real
    _check_marginal_containment(w.grid, arr)
    return arr


def _evolve_split(w, h, steps, dt, remainder, t0, verify_dt):
    grid = w.grid
    if steps == 0 and remainder == 0.0:
        return w.values.copy()
    plan = LvnPlan(grid, h)
    state = plan.enter(w.values)
    if verify_dt:
        first = dt if steps else remainder
        coef, pending = state
        one = plan.real(*plan.step(coef.copy(), pending, t0, first))
        half = plan.step(coef.copy(), pending, t0, first / 2)
        half = plan.real(*plan.step(*half, t0 + first / 2, first / 2))
        _check_step_halving(one, half, np.abs(w.values).max(), first)

    for k in range(1, steps + 1):
        state = plan.step(*state, t0 + (k - 1) * dt, dt)
        if k % max(1, steps // 20) == 0:
            _check_marginal_containment(grid, plan.real(*state))
    if remainder > 0.0:
        state = plan.step(*state, t0 + steps * dt, remainder)
    arr = plan.real(*state)
    _check_marginal_containment(grid, arr)
    return arr
