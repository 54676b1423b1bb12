"""Liouville-von Neumann evolution of Wigner states.

The right-hand side -{{W, H}} is applied term by term in the frequency
domain. Every Hamiltonian term is a product of single-variable factors
f(x_d) or g(p_d); for such factors the left/right star multiplications
are one-axis twisted convolutions (cyclic or negacyclic by the parity of
the conjugate frequency), which reproduces the dense-oracle evolution to
machine precision in space.

Time stepping has three paths:

- A static Hamiltonian of one term is advanced by its exact exponential.
  Each factor's twisted convolution is diagonal after twisting the
  odd-parity columns and an FFT along its convolution axis, so the bracket
  of the term is diagonal with eigenvalues c (prod L - prod R) (after
  Cabrera, Bondar, Jacobs & Rabitz, PRA 92, 042122 (2015)). dt only sets
  the snapshot times; verify_dt has nothing to check.
- A static Hamiltonian of two or more terms takes 4th-order split steps:
  Yoshida's triple jump (Phys. Lett. A 150, 262 (1990)) of Strang sweeps
  over the terms' exact exponentials. The state stays in the frequency
  domain between steps. verify_dt compares one step with two half steps,
  which measures the local splitting error.
- A Hamiltonian with a time-dependent coefficient is stepped by classical
  RK4 with fixed dt. verify_dt makes the same step-halving comparison,
  which catches steps beyond RK4's stability bound, and an L2-norm growth
  check runs every steps // 20 steps.

The two static paths spend their time moving arrays between bases, so each
basis change is an in-place np.fft pass (out=, numpy >= 2.0) and one
product with a precomputed table: the centered transform over every axis
is one fftn between +-1 sign tables, and a split step moves from term a's
basis to term b's by an ifft along a's axes, one fused untwist_a * twist_b
table and an fft along b's axes. No table outlives its evolve_lvn call;
on dof 2 most are the size of the state.

Every path checks that the state stays on the grid: the x- and p-marginal
mass in the outer 2-cell shell must stay below PhaseGrid.check_containment's
tolerance, else ContainmentError (the LvN state would otherwise wrap over
the periodic edge unnoticed). The stepping paths check every steps // 20
steps, the split and exact paths also the final state, the exact path
every snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grid import GridMismatchError, PhaseGrid
from .spectral import alternating_signs, cdft
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
# frequency-domain factor application

@lru_cache(maxsize=16)
def _freq_tables(n: int):
    frq = np.arange(n) - n // 2
    mu = np.exp(1j * np.pi * frq / n)
    odd = (np.abs(frq) % 2).astype(bool)
    return frq, mu, odd


def _sign_tables(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(alt, post): the +-1 factors of spectral.cdft multiplied out over axes.

    cdft along one axis is post_ax * fft(alt_ax * f), with post_ax =
    (-1)^(n // 2) alt_ax; the sign factors of the other axes commute with it
    exactly, so over every axis it is post * fftn(alt * f), and cidft is
    alt * ifftn(post * F). post is +-alt, so one int8 table serves both.
    """
    alt = np.ones((), dtype=np.int8)
    for n in shape:
        alt = np.multiply.outer(alt, alternating_signs(n).astype(np.int8))
    return alt, (alt if sum(n // 2 for n in shape) % 2 == 0 else -alt)


def _cdftn(arr: np.ndarray) -> np.ndarray:
    """spectral.cdft along every axis, into a new complex array."""
    alt, post = _sign_tables(arr.shape)
    out = np.multiply(arr, alt, dtype=complex)
    # fftn takes the last axis listed first: axis 0 first, as a cdft per axis
    # does, gives that loop's result bit for bit
    np.fft.fftn(out, axes=tuple(reversed(range(arr.ndim))), out=out)
    return np.multiply(out, post, out=out)


def _cidftn(arr: np.ndarray) -> np.ndarray:
    """spectral.cidft along every axis, in place on arr, which it returns."""
    alt, post = _sign_tables(arr.shape)
    np.multiply(arr, post, out=arr)
    np.fft.ifftn(arr, axes=tuple(reversed(range(arr.ndim))), out=arr)
    return np.multiply(arr, alt, out=arr)


class _FactorOp:
    """One-axis twisted convolution for a single-variable factor.

    For a factor f(x_d), left/right star multiplication acts on the
    frequency array by convolving along the x_d-frequency axis with the
    kernel fhat[u] e^{-i side pi u k / N}, where k is the p_d frequency;
    odd k rows are negacyclic. For f(p_d) the axes swap and the phase sign
    flips.
    """

    def __init__(self, grid: PhaseGrid, kind: str, dof: int, profile,
                 mode: str):
        n = grid.n(dof)
        frq, mu, odd = _freq_tables(n)
        self.n = n
        self.mu = mu
        self.odd = odd
        ndim = 2 * grid.dof
        if kind == "x":
            axis_vals = grid.x(dof)
            self.conv_axis = dof
            self.mask_axis = grid.dof + dof
            base_sign = -1.0
        else:
            axis_vals = grid.p(dof)
            self.conv_axis = grid.dof + dof
            self.mask_axis = dof
            base_sign = +1.0
        fhat = cdft(np.asarray(profile(axis_vals), dtype=complex)) / n
        phases = np.exp(1j * np.pi * np.outer(frq, frq) / n)  # [u, k]
        if mode == "left":
            kern = fhat[:, None] * phases ** base_sign
        elif mode == "right":
            kern = fhat[:, None] * phases ** (-base_sign)
        else:  # bracket: left - right
            kern = fhat[:, None] * (phases ** base_sign - phases ** (-base_sign))
        # precompute the conv-axis FFT of the kernel per parity class
        k_even = kern[:, ~odd]
        k_odd = kern[:, odd] * mu[:, None]
        self.fk_even = np.fft.fft(k_even, axis=0)
        self.fk_odd = np.fft.fft(k_odd, axis=0)
        self.ndim = ndim

    def _embed(self, table: np.ndarray) -> np.ndarray:
        """A [conv, mask] table shaped to broadcast over the full array."""
        shape = [1] * self.ndim
        shape[self.conv_axis] = shape[self.mask_axis] = self.n
        if self.conv_axis > self.mask_axis:
            table = table.T
        # C order: a transposed table would make every product with it strided
        return np.ascontiguousarray(table).reshape(shape)

    def twist(self) -> np.ndarray:
        """mu along the conv axis on odd mask columns, 1 on even ones."""
        return self._embed(np.where(self.odd[None, :], self.mu[:, None], 1.0))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of apply() in the basis fft_conv(twist * what).

        The roll by -n/2 after the inverse FFT is the factor (-1)^q on
        conv-axis Fourier mode q.
        """
        lam = np.empty((self.n, self.n), dtype=complex)
        sign = ((-1.0) ** np.arange(self.n))[:, None]
        lam[:, ~self.odd] = self.fk_even * sign
        lam[:, self.odd] = self.fk_odd * sign
        return self._embed(lam)

    def apply(self, what: np.ndarray) -> np.ndarray:
        n = self.n
        arr = np.moveaxis(what, (self.conv_axis, self.mask_axis), (-2, -1))
        out = np.empty_like(arr)
        for odd_class, fk in ((False, self.fk_even), (True, self.fk_odd)):
            cols = self.odd == odd_class
            sub = arr[..., cols]
            if odd_class:
                sub = sub * self.mu[:, None]
            r = np.fft.ifft(np.fft.fft(sub, axis=-2) * fk, axis=-2)
            r = np.roll(r, -(n // 2), axis=-2)
            if odd_class:
                r = r * np.conj(self.mu)[:, None]
            out[..., cols] = r
        return np.moveaxis(out, (-2, -1), (self.conv_axis, self.mask_axis))


class _TermOp:
    """Bracket contribution of one Hamiltonian term in frequency space."""

    def __init__(self, grid: PhaseGrid, term: HamiltonianTerm):
        self.term = term
        if len(term.factors) == 1:
            kind, dof, profile = term.factors[0]
            self.single = _FactorOp(grid, kind, dof, profile, mode="bracket")
            self.lefts = self.rights = None
        else:
            self.single = None
            self.lefts = [_FactorOp(grid, k, d, f, mode="left")
                          for k, d, f in term.factors]
            self.rights = [_FactorOp(grid, k, d, f, mode="right")
                           for k, d, f in term.factors]

    def bracket(self, what: np.ndarray, t: float) -> np.ndarray:
        c = self.term.coeff_at(t)
        if c == 0.0:
            return np.zeros_like(what)
        if self.single is not None:
            return c * self.single.apply(what)
        left = what
        for op in self.lefts:
            left = op.apply(left)
        right = what
        for op in self.rights:
            right = op.apply(right)
        return c * (left - right)


class _TermExponential:
    """exp(s L) for one static term, L = c (prod L_f - prod R_f) / (i hbar).

    The factors of a term sit on distinct dofs, so their twisted FFTs act on
    disjoint axes and diagonalize every L_f and R_f at once: the term's basis
    is the FFT along its factors' conv axes of twist * (frequency array), with
    twist the product of the factors' twists. Every basis change runs in
    place on the array it is given.
    """

    def __init__(self, grid: PhaseGrid, term: HamiltonianTerm):
        axes = []
        twist = lam_left = lam_right = 1.0
        for kind, dof, profile in term.factors:
            left = _FactorOp(grid, kind, dof, profile, mode="left")
            right = _FactorOp(grid, kind, dof, profile, mode="right")
            axes.append(left.conv_axis)
            twist = twist * left.twist()
            lam_left = lam_left * left.eigenvalues()
            lam_right = lam_right * right.eigenvalues()
        self.axes = tuple(axes)
        self.twist = twist
        self.untwist = np.conj(twist)
        self.generator = term.coeff_at(0.0) * (lam_left - lam_right) / (1j * grid.hbar)

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
        self.props = [_TermExponential(grid, term) for term in h.terms]
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
        return self.props[0].to_basis(_cdftn(arr)), 0.0

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
        return _cidftn(self.props[0].from_basis(coef * self._exp(0, pending))).real


def _check_marginal_containment(grid: PhaseGrid, arr: np.ndarray) -> None:
    """ContainmentError if the x- or p-marginal leaks into the edge shell."""
    n = grid.dof
    grid.check_containment(arr.sum(axis=tuple(range(n, 2 * n))),
                           what="LvN x-marginal")
    grid.check_containment(arr.sum(axis=tuple(range(n))),
                           what="LvN p-marginal")


class LvnPlan:
    """Reusable right-hand-side evaluator for one (grid, Hamiltonian)."""

    def __init__(self, grid: PhaseGrid, h: Hamiltonian):
        if h.grid != grid:
            raise GridMismatchError("Hamiltonian grid mismatch")
        self.grid = grid
        self.ops = [_TermOp(grid, term) for term in h.terms]
        self.hbar = grid.hbar

    def rhs(self, w: np.ndarray, t: float) -> np.ndarray:
        what = _cdftn(w)
        acc = np.zeros_like(what)
        for op in self.ops:
            acc += op.bracket(what, t)
        # dW/dt = (H*W - W*H)/(i hbar); ops compute (H*W - W*H) per term
        return _cidftn(acc / (1j * self.hbar)).real


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
    prop = _TermExponential(grid, h.terms[0])
    coef = prop.to_basis(_cdftn(w.values))

    def state_at(s):
        arr = _cidftn(prop.propagate(coef, s)).real
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
