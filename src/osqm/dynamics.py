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
every path applies a term:

- A static Hamiltonian of one term is advanced by its exact exponential in
  its basis. dt only sets the snapshot times; verify_dt has nothing to
  check.
- A static Hamiltonian of two or more terms takes 4th-order split steps:
  Yoshida's triple jump (Phys. Lett. A 150, 262 (1990)) of Strang sweeps
  over the terms' exact exponentials. The state stays in the frequency
  domain between steps. verify_dt compares one step with two half steps,
  which measures the local splitting error.
- A Hamiltonian with a time-dependent coefficient is stepped by classical
  RK4 with fixed dt. Its right-hand side (LvnPlan.rhs) takes each term to
  its basis, multiplies by the unit-coefficient generator and comes back,
  scaled by the coefficient at t. verify_dt makes the same step-halving
  comparison, which catches steps beyond RK4's stability bound, and an
  L2-norm growth check runs every steps // 20 steps.

The two static paths spend their time moving arrays between bases, so each
basis change is an in-place np.fft pass (out=, numpy >= 2.0) and one
product with a precomputed table: the centered transform over every axis
is spectral.cdftn, and a split step moves from term a's basis to term b's
by an ifft along a's axes, one fused untwist_a * twist_b table and an fft
along b's axes. No table outlives its evolve_lvn call; on dof 2 most are
the size of the state.

Every path checks that the state stays on the grid: the x- and p-marginal
mass in the outer 2-cell shell must stay below PhaseGrid.check_containment's
tolerance, else ContainmentError (the LvN state would otherwise wrap over
the periodic edge unnoticed). The stepping paths check every steps // 20
steps, the split and exact paths also the final state, the exact path
every snapshot.
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
    """Time step too large: step halving disagrees or the RK4 norm grows."""


@dataclass(frozen=True)
class HamiltonianTerm:
    """coefficient * product of factors; each factor is one-variable.

    factors: sequence of (kind, dof, profile) with kind in {"x", "p"} and
    profile a callable evaluated on that axis's coordinate array. At most
    one factor per (kind, dof) pair, and factors on the same dof must not
    mix x and p (that would not be a factorized Weyl symbol).
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
    / (i hbar). Every basis change runs in place on the array it is given.
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
        self.twist = twist
        self.untwist = np.conj(twist)
        self.generator = c * (lam_left - lam_right) / (1j * grid.hbar)

    def fft(self, arr: np.ndarray) -> np.ndarray:
        for axis in self.axes:
            np.fft.fft(arr, axis=axis, out=arr)
        return arr

    def ifft(self, arr: np.ndarray) -> np.ndarray:
        for axis in reversed(self.axes):
            np.fft.ifft(arr, axis=axis, out=arr)
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


class _Splitting:
    """4th-order split-operator steps for a static Hamiltonian of 2+ terms.

    A state is (coef, pending): its coefficients in term 0's basis and an
    exponent of term 0 not yet applied. The last exponential of a step is
    left pending and merges with the first of the next, so between steps
    the state never leaves the frequency domain. A step runs on the coef
    buffer: each move from term a's basis to term b's is an ifft along a's
    axes, one product with the table untwist_a * twist_b built here, and an
    fft along b's axes, followed by the product with exp(s G_b). exp(s G)
    tables are built once per distinct (term, s).
    """

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        self.props = [_TermBasis(grid, term, term.coeff_at(0.0)) for term in h.terms]
        self.sweep = _yoshida_sweep(len(self.props))
        self._tables = {}
        self._moves = {}
        for (a, _), (b, _) in zip(self.sweep, self.sweep[1:]):
            if (a, b) not in self._moves:
                self._moves[a, b] = self.props[a].untwist * self.props[b].twist

    def _exp(self, j: int, s: float) -> np.ndarray:
        table = self._tables.get((j, s))
        if table is None:
            table = self._tables[(j, s)] = np.exp(s * self.props[j].generator)
        return table

    def enter(self, arr: np.ndarray):
        return self.props[0].to_basis(cdftn(arr)), 0.0

    def step(self, coef: np.ndarray, pending: float, dt: float):
        """Advance a state by dt; coef is overwritten and returned."""
        (_, first), *body, (_, last) = self.sweep
        coef *= self._exp(0, pending + first * dt)
        cur = 0
        for j, frac in body:
            self._move(coef, cur, j)
            coef *= self._exp(j, frac * dt)
            cur = j
        self._move(coef, cur, 0)
        return coef, last * dt

    def _move(self, coef: np.ndarray, a: int, b: int) -> None:
        self.props[a].ifft(coef)
        coef *= self._moves[a, b]
        self.props[b].fft(coef)

    def real(self, coef: np.ndarray, pending: float) -> np.ndarray:
        """The Wigner array of a state; coef is left as it is."""
        return cidftn(self.props[0].from_basis(coef * self._exp(0, pending))).real


def _check_marginal_containment(grid: PhaseGrid, arr: np.ndarray) -> None:
    """ContainmentError if the x- or p-marginal leaks into the edge shell."""
    n = grid.dof
    grid.check_containment(arr.sum(axis=tuple(range(n, 2 * n))),
                           what="LvN x-marginal")
    grid.check_containment(arr.sum(axis=tuple(range(n))),
                           what="LvN p-marginal")


class LvnPlan:
    """Reusable right-hand-side evaluator for one (grid, Hamiltonian).

    Each term's basis is built once with a unit coefficient; rhs scales the
    term's bracket by its coefficient at t.
    """

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        if h.grid != grid:
            raise GridMismatchError("Hamiltonian grid mismatch")
        self.terms = list(h.terms)
        self.bases = [_TermBasis(grid, term, 1.0) for term in h.terms]

    def rhs(self, w: np.ndarray, t: float) -> np.ndarray:
        """dW/dt = (H*W - W*H) / (i hbar), summed term by term."""
        what = cdftn(w)
        acc = np.zeros_like(what)
        for term, basis in zip(self.terms, self.bases):
            c = term.coeff_at(t)
            if c != 0.0:
                coef = basis.fft(what * basis.twist)
                coef *= basis.generator
                acc += c * basis.from_basis(coef)
        return cidftn(acc).real


def step_count(t_final: float, dt: float) -> tuple[int, float]:
    """Whole dt steps to t_final, with 1e-12 slack, and the shorter last step."""
    whole = int(np.floor(t_final / dt + 1e-12))
    tail = t_final - whole * dt
    if tail < 1e-12 * max(1.0, abs(t_final)):
        tail = 0.0
    return whole, tail


def evolve_lvn(w: WignerState, h: Hamiltonian, t_final: float, dt: float,
               verify_dt: bool = True, snapshots_every: int = 0,
               t0: float = 0.0):
    """Propagate a Wigner state on dW/dt = -{{W, H}} from t0 by t_final.

    The time step dt sets the snapshot times and, on the stepping paths,
    the step; a shorter last step reaches t_final. Three paths:

    - A static Hamiltonian of one term is advanced by its exact
      exponential. The final state and each snapshot are computed directly
      from the initial state; verify_dt has nothing to check.
    - A static Hamiltonian of two or more terms takes 4th-order split
      steps: Yoshida's triple jump of Strang sweeps over the terms' exact
      exponentials. Each step is unitary, so mass and purity are kept to
      round-off. With verify_dt it first compares one step with two half
      steps and raises EvolutionUnstableError on a mismatch above 1e-3;
      here that mismatch is the local splitting error.
    - A time-dependent Hamiltonian is stepped by RK4, which conserves mass
      exactly per stage. verify_dt makes the same step-halving check,
      which catches steps beyond RK4's stability bound; every steps // 20
      steps it also raises EvolutionUnstableError if the L2 norm grew
      beyond 1e-4 per unit time.

    Containment: ContainmentError when the x- or p-marginal has 1e-6 or
    more of its mass in the outer 2-cell shell. Both stepping paths check
    every steps // 20 steps, the split path also the final state; the
    exact path checks the final state and every snapshot.

    Returns the final WignerState, or (final, snapshots) when
    snapshots_every > 0; snapshots are (time, WignerState) after every
    snapshots_every whole steps of dt. Taking snapshots never changes the
    final state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.grid != w.grid:
        raise GridMismatchError("Hamiltonian grid mismatch")
    steps, remainder = step_count(t_final, dt)
    if not h.is_static():
        evolve = _evolve_rk4
    elif len(h.terms) == 1:
        evolve = _evolve_exact
    else:
        evolve = _evolve_split
    arr, snaps = evolve(w, h, steps, dt, remainder, snapshots_every, t0,
                        verify_dt)
    out = WignerState(w.grid, arr)
    if snapshots_every:
        return out, snaps
    return out


def _check_step_halving(one: np.ndarray, half: np.ndarray, scale: float,
                        dt: float) -> None:
    mismatch = np.abs(one - half).max() / max(scale, 1e-300)
    if mismatch > 1e-3:
        raise EvolutionUnstableError(
            f"step-halving mismatch {mismatch:.2e} at dt={dt}; "
            f"reduce dt (try {dt / 4})")


def _evolve_exact(w, h, steps, dt, remainder, snapshots_every, t0, verify_dt):
    grid = w.grid
    prop = _TermBasis(grid, h.terms[0], h.terms[0].coeff_at(0.0))
    coef = prop.to_basis(cdftn(w.values))

    def state_at(s):
        arr = cidftn(prop.propagate(coef, s)).real
        _check_marginal_containment(grid, arr)
        return arr

    snaps = []
    if snapshots_every:
        for k in range(snapshots_every, steps + 1, snapshots_every):
            snaps.append((t0 + k * dt, WignerState(grid, state_at(k * dt))))
    total = steps * dt + remainder
    arr = state_at(total) if total > 0 else w.values.copy()
    return arr, snaps


def _evolve_split(w, h, steps, dt, remainder, snapshots_every, t0, verify_dt):
    grid = w.grid
    if steps == 0 and remainder == 0.0:
        return w.values.copy(), []
    split = _Splitting(grid, h)
    state = split.enter(w.values)
    if verify_dt and steps > 0:
        coef, pending = state
        one = split.real(*split.step(coef.copy(), pending, dt))
        half = split.real(*split.step(*split.step(coef.copy(), pending, dt / 2),
                                      dt / 2))
        _check_step_halving(one, half, np.abs(w.values).max(), dt)

    snaps = []
    for k in range(1, steps + 1):
        state = split.step(*state, dt)
        check = k % max(1, steps // 20) == 0
        snap = snapshots_every and k % snapshots_every == 0
        if check or snap:
            arr = split.real(*state)
            if check:
                _check_marginal_containment(grid, arr)
            if snap:
                snaps.append((t0 + k * dt, WignerState(grid, arr)))
    if remainder > 0.0:
        state = split.step(*state, remainder)
    arr = split.real(*state)
    _check_marginal_containment(grid, arr)
    return arr, snaps


def _evolve_rk4(w, h, steps, dt, remainder, snapshots_every, t0, verify_dt):
    plan = LvnPlan(w.grid, h)
    arr = w.values.copy()

    def rk4_step(a, t, step):
        k1 = plan.rhs(a, t)
        k2 = plan.rhs(a + 0.5 * step * k1, t + 0.5 * step)
        k3 = plan.rhs(a + 0.5 * step * k2, t + 0.5 * step)
        k4 = plan.rhs(a + step * k3, t + step)
        return a + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    if verify_dt and steps > 0:
        one = rk4_step(arr, t0, dt)
        half = rk4_step(rk4_step(arr, t0, dt / 2), t0 + dt / 2, dt / 2)
        _check_step_halving(one, half, np.abs(arr).max(), dt)

    norm0 = float(np.sqrt((arr ** 2).sum()))
    snaps = []
    t = t0
    for k in range(steps):
        arr = rk4_step(arr, t, dt)
        t += dt
        if (k + 1) % max(1, steps // 20) == 0:
            norm = float(np.sqrt((arr ** 2).sum()))
            elapsed = max(t - t0, dt)
            if norm > norm0 * (1 + 1e-4 * elapsed + 1e-3):
                raise EvolutionUnstableError(
                    f"L2 norm grew by {norm / norm0 - 1:.2e} after t={elapsed:.3g}; "
                    f"RK4 unstable at dt={dt}, reduce the step (try {dt / 4})")
            _check_marginal_containment(w.grid, arr)
        if snapshots_every and (k + 1) % snapshots_every == 0:
            snaps.append((t, WignerState(w.grid, arr.copy())))
    if remainder > 0.0:
        arr = rk4_step(arr, t, remainder)
    return arr, snaps
