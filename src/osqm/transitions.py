"""Measurement-free projection dynamics over a coarse graining.

A trajectory alternates unitary evolution with scheduled stochastic
quasiprojections: at each projection time the region probabilities
p_j = tr(Pi_j rho) are computed, one region is sampled (Born rule), and
the state is updated with Pi_j^(1/2) (or the exact classicality projector
in comparison mode). Everything is deterministic given (config, seed).

Nothing reads the state between two events, so TrajectoryEngine propagates
from stop to stop (an event or a snapshot) in one go: one cached dense
propagator U(n dt) = OperatorMatrix.unitary per interval on the oracle
backend, one evolve_lvn call per interval on the phase backend. The oracle
backend carries the state as its flat l2 vector (WaveFunction.to_vector())
from start to end. Every event, on both backends and in the measurement
scenario, takes the Born weights with transition_probabilities_oracle,
updates with apply_quasiprojection and checks PS6 with is_quasirestricted.
The three take an l2 array whose first axis is the partition's Hilbert
space (on an (n1, n2) array, Pi acts as Pi (x) I), and the caller passes
the update operator: Pi_j^(1/2) or the exact projector.

Inside an interval the state evolves deterministically; only the region
drawn at an event is random. So the state at any stop is a function of the
regions drawn before it, and TrajectoryEngine memoises each event's outcome
in a trie keyed by that region history: the Born row and rank-1 distance
per history, the PS6 residual per region drawn from it. A run draws with
its own rng as a fresh run does and reads the cached rows; it builds the
state only on a history no earlier run of the engine drew, or at a
snapshot, by replaying the advances and updates of the regions it drew.
This pays where runs share long history prefixes (Born rows near 0 or 1,
few events). Where histories diverge, each run adds about one node per
event, so the memo stops growing at MEMO_LIMIT Born rows and runs beyond
it are computed as a fresh run computes them.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import Hamiltonian, evolve_lvn, step_count
from .oracle import NotPositiveError, OperatorMatrix, WaveFunction, check_unit_norm
from .regions import Partition, classicality_projectors, is_quasirestricted
from .weyl import mean_value, weyl_operator_from_symbol
from .wigner import WignerState, wigner_from_wavefunction

logger = logging.getLogger(__name__)

__all__ = [
    "ProjectionSchedule",
    "TrajectoryRecord",
    "TrajectoryEngine",
    "transition_probabilities",
    "transition_probabilities_oracle",
    "sample_transition",
    "apply_quasiprojection",
    "run_ensemble",
    "zeno_experiment",
    "trajectory_rng",
    "worker_count",
    "QuasirestrictionError",
]

PROB_CLIP = -1e-8
MIN_TRANSITION_PROB = 1e-12
RANK1_TOL = 1e-4   # largest ||rho - psi psi^H||_1 of a phase event's state
ZENO_SATURATION = 0.5  # q_first above this is outside the short-interval regime
# Born rows one engine's memo may hold. A row, in a node or a history,
# costs 120-190 bytes at two or three regions (tracemalloc), so a full memo
# is 2-3 MB, about as much as the dense N = 256 operators an oracle engine
# caches anyway.
MEMO_LIMIT = 1 << 14
PHASE_EXACT_REASON = (
    "backend 'phase' cannot run projection_mode 'exact': a sharply projected "
    "state leaves the grid's momentum range, so the Wigner grid cannot hold it")


class QuasirestrictionError(RuntimeError):
    """A post-projection state fails PS6: it is not quasirestricted."""


class _Branch:
    """A region drawn at a memoised event (or the start, at the home
    region): the PS6 residual of its post-projection state, the node of
    the next event once a run has reached it, and the _History of the runs
    that end here once one has."""

    __slots__ = ("resid", "child", "history")

    def __init__(self, resid: float):
        self.resid = resid
        self.child = None
        self.history = None


class _Event:
    """A memoised event, given the regions drawn before it: its Born row,
    the rank-1 distance of the state it projected, and per region the
    _Branch of a draw that passed PS6 (None until one has). It holds no
    state."""

    __slots__ = ("probs", "distance", "branches")

    def __init__(self, probs: np.ndarray, distance: float):
        self.probs = probs
        self.distance = distance
        self.branches = [None] * len(probs)


class _History:
    """What every run of one region history on one engine records: the
    engine's backend, times, event steps and home region label, and per
    event the region label drawn, the Born row (one read-only array), the
    PS6 residual and the rank-1 distance."""

    __slots__ = ("backend", "times", "event_steps", "home", "event_regions",
                 "prob_rows", "ps6_residuals", "rank1_distances")

    def __init__(self, engine: "TrajectoryEngine", path: list):
        labels = engine.partition.labels()
        self.backend = engine.backend
        self.times = engine.times
        self.event_steps = engine.event_steps
        self.home = labels[engine.home_index]
        self.event_regions = tuple(labels[chosen] for _, chosen, _ in path)
        self.prob_rows = np.asarray([node.probs for node, _, _ in path])
        self.prob_rows.flags.writeable = False
        self.ps6_residuals = tuple(branch.resid for _, _, branch in path)
        self.rank1_distances = tuple(node.distance for node, _, _ in path)


def _cached_projectors(partition: Partition) -> list:
    cached = getattr(partition, "_exact_projectors", None)
    if cached is None:
        cached = classicality_projectors(partition)
        partition._exact_projectors = cached
    return cached


@dataclass(frozen=True)
class ProjectionSchedule:
    """When quasiprojections fire during a trajectory."""

    mode: str = "periodic"          # continuous | periodic | single-shot
    dt_proj: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("continuous", "periodic", "single-shot"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "periodic" and (self.dt_proj is None or self.dt_proj <= 0):
            raise ValueError("periodic schedule needs dt_proj > 0")

    def stride(self, dt: float, steps: int) -> int:
        if self.mode == "continuous":
            return 1
        if self.mode == "single-shot":
            return steps
        if self.dt_proj < dt - 1e-12:
            raise ValueError("dt_proj must be >= the dynamics step dt")
        return max(1, int(round(self.dt_proj / dt)))


def _born_weights(probs: np.ndarray) -> np.ndarray:
    """Clip round-off negatives to zero (logged) and normalize.

    A weight below PROB_CLIP is not round-off, so it raises instead.
    """
    neg = probs < 0
    if neg.any():
        worst = probs[neg].min()
        if worst < PROB_CLIP:
            raise ValueError(f"transition probability {worst:.3e} below clip floor")
        logger.info("clipped %d negative transition probabilities (worst %.2e)",
                    int(neg.sum()), worst)
        probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def transition_probabilities(w: WignerState, partition: Partition) -> np.ndarray:
    """Born weights from the symbol-side integrals p_j = int Pi_j W dz.

    Sums to 1 exactly (partition of unity); tiny negative quadrature noise
    is clipped to zero and logged.
    """
    return _born_weights(np.array([mean_value(r.symbol(), w)
                                   for r in partition.regions]))


def transition_probabilities_oracle(v: np.ndarray, partition: Partition) -> np.ndarray:
    """Operator-side Born weights p_j = <v|Pi_j|v>, clipped as above.

    v is an l2 array whose first axis is the partition's Hilbert space: a
    flat state vector, or an (n1, n2) array V, whose weight is
    tr(V^H Pi_j V), the Born weight of Pi_j (x) I on vec(V).
    """
    return _born_weights(np.array([np.vdot(v, r.operator().matrix @ v).real
                                   for r in partition.regions]))


def sample_transition(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of a region index."""
    p = np.asarray(probabilities, dtype=float)
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("degenerate probability vector")
    cdf = np.cumsum(p / total)
    u = rng.random()
    return min(int(np.searchsorted(cdf, u, side="right")), len(p) - 1)


def apply_quasiprojection(v: np.ndarray, update: OperatorMatrix) -> np.ndarray:
    """State update A v / |A v| with the caller's update operator A.

    A is the chosen region's Pi_R^(1/2) (POVM form, region.sqrt_operator())
    or, for quantifying the quasiprojector approximation, its exact
    classicality projector. v is an l2 array whose first axis is A's Hilbert
    space (A acts on that axis, as A (x) I on vec(V)); the updated array
    has v's shape.
    """
    out = update.matrix @ v
    norm = np.linalg.norm(out)
    if norm ** 2 < MIN_TRANSITION_PROB:
        raise ValueError(
            f"projection weight {norm ** 2:.3e} below {MIN_TRANSITION_PROB}; "
            "a forbidden transition was sampled (sampler inconsistency)")
    return check_unit_norm(out / norm)


def trajectory_rng(base_seed: int, traj_index: int) -> np.random.Generator:
    """Independent counter-based substream per (seed, trajectory)."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


class TrajectoryRecord:
    """Full log of one seeded run.

    A record holds its seed, its snapshots and the _History its run drew,
    which every run of that region history on the engine shares, so a
    caller that keeps every record pays a few words per trajectory. The
    list fields are fresh lists; times and prob_rows are the shared
    read-only arrays. rank1_distances is ||rho - psi psi^H||_1 of the state
    each event projected (0 on the oracle backend).
    """

    __slots__ = ("seed", "_history", "_snapshots")

    def __init__(self, seed: int, history: _History, snapshots: tuple):
        self.seed = seed
        self._history = history
        self._snapshots = snapshots

    @property
    def snapshots(self) -> list:
        """(time, state array) at each snapshot stop."""
        return list(self._snapshots)

    @property
    def backend(self) -> str:
        return self._history.backend

    @property
    def times(self) -> np.ndarray:
        return self._history.times

    @property
    def event_steps(self) -> list:
        return list(self._history.event_steps)

    @property
    def prob_rows(self) -> np.ndarray:
        return self._history.prob_rows

    @property
    def ps6_residuals(self) -> list:
        return list(self._history.ps6_residuals)

    @property
    def rank1_distances(self) -> list:
        return list(self._history.rank1_distances)

    @property
    def event_regions(self) -> list:
        return list(self._history.event_regions)

    @property
    def region_labels(self) -> list:
        """The region after each step: the home region, then the one drawn
        at the latest event."""
        h = self._history
        current, prev, track = h.home, 0, [h.home]
        for k, drawn in zip(h.event_steps, h.event_regions):
            track += [current] * (k - prev - 1) + [drawn]
            prev, current = k, drawn
        return track + [current] * (len(h.times) - 1 - prev)

    @property
    def final_region(self) -> str:
        regions = self._history.event_regions
        return regions[-1] if regions else self._history.home

    def summary(self) -> dict:
        return {"seed": self.seed, "final_region": self.final_region,
                "num_events": len(self._history.event_regions)}


class _Propagator:
    """What run() needs of a backend, on the backend's state type: advance
    by an interval, Born weights, the l2 vector an event projects (with its
    rank-1 distance) and the state of a projected vector, and a snapshot."""

    def __init__(self, engine: "TrajectoryEngine"):
        self.psi0 = engine.psi0
        self.v0 = engine.v0
        self.h = engine.h
        self.partition = engine.partition
        self.dt = engine.dt


class _OraclePropagator(_Propagator):
    """Wavefunction backend: dense propagators U(n dt + tail) from one eigh
    (OperatorMatrix.unitary).

    The state is the flat l2 vector of WaveFunction.to_vector() throughout;
    no WaveFunction is built per stop. Its unit norm, which a WaveFunction
    would check when built, is checked after each advance and projection.
    Each U is built once per distinct interval (n, tail) and cached; the
    most frequent interval is built up front, so forked ensemble workers
    share it.
    """

    def __init__(self, engine: "TrajectoryEngine", common_span: tuple):
        super().__init__(engine)
        if not self.h.is_static():
            raise ValueError("oracle backend needs a static Hamiltonian")
        self._hm = weyl_operator_from_symbol(self.h.symbol())
        self._u = {}
        self._propagator(*common_span)

    def _propagator(self, n: int, tail: float) -> np.ndarray:
        u = self._u.get((n, tail))
        if u is None:
            u = self._u[(n, tail)] = self._hm.unitary(n * self.dt + tail)
        return u

    def initial(self) -> np.ndarray:
        return self.v0

    def advance(self, v: np.ndarray, n: int, tail: float, t0: float) -> np.ndarray:
        return check_unit_norm(self._propagator(n, tail) @ v)

    def born_weights(self, v: np.ndarray) -> np.ndarray:
        return transition_probabilities_oracle(v, self.partition)

    def to_vector(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        return v, 0.0

    def from_vector(self, v: np.ndarray) -> np.ndarray:
        return v

    def snapshot(self, v: np.ndarray) -> np.ndarray:
        return v.copy()


class _PhasePropagator(_Propagator):
    """Wigner backend: one evolve_lvn per interval, events on the top
    eigenvector of the quantised W (see to_vector)."""

    def initial(self) -> WignerState:
        return wigner_from_wavefunction(self.psi0)

    def advance(self, w: WignerState, n: int, tail: float,
                t0: float) -> WignerState:
        return evolve_lvn(w, self.h, n * self.dt + tail, self.dt,
                          verify_dt=False, t0=t0)

    def born_weights(self, w: WignerState) -> np.ndarray:
        return transition_probabilities(w, self.partition)

    @staticmethod
    def to_vector(w: WignerState) -> tuple[np.ndarray, float]:
        """Top eigenvector psi of rho = Op[(2 pi hbar)^n W], and ||rho - psi psi^H||_1.

        The state starts pure and LvN and Pi^(1/2) keep it pure, so rho is
        psi psi^H up to the W-grid flow's spectral spread (about 1e-6). The
        distance, sum |l_i| over the lower eigenvalues plus |1 - l_top|,
        bounds |tr(Pi rho) - <psi|Pi|psi>| for every 0 <= Pi <= I, so every
        Born-weight error of the step. RANK1_TOL = 1e-4 is 5x the largest
        value of the oscillator periodic runs (2.2e-5); above it, W is not
        the pure state the engine evolves, and the run stops.
        """
        lam, q = weyl_operator_from_symbol(w.as_symbol()).eigh()
        distance = float(np.abs(lam[:-1]).sum() + abs(1.0 - lam[-1]))
        if distance > RANK1_TOL:
            raise NotPositiveError(
                f"quantised Wigner state is not rank one: ||rho - psi psi^H||_1 = "
                f"{distance:.2e} exceeds {RANK1_TOL:.0e} (smallest eigenvalue "
                f"{lam[0]:.2e})")
        return q[:, -1], distance

    def from_vector(self, v: np.ndarray) -> WignerState:
        return wigner_from_wavefunction(WaveFunction.from_vector(self.psi0.grid, v))

    def snapshot(self, w: WignerState) -> np.ndarray:
        return w.values.copy()


class TrajectoryEngine:
    """Prepared trajectory runner: shared operators, per-seed randomness.

    Time runs in steps of dt to t_final, counted as evolve_lvn counts them:
    whole steps, then one shorter step if dt does not divide t_final, so
    the last recorded time is t_final. A projection event fires after
    every stride-th step and after the last one.

    The state is needed only at events and snapshots, so run() propagates
    from one such stop straight to the next. backend "oracle" keeps the
    state as its l2 vector and applies a dense propagator U(n dt) per
    interval, built once per distinct length from the Hamiltonian's
    eigendecomposition; each advance and projection checks the unit norm.
    backend "phase" makes one evolve_lvn call per interval with step dt;
    an event projects the top eigenvector of the quantised W (to_vector)
    and re-enters with wigner_from_wavefunction. It rejects projection_mode
    "exact" (PHASE_EXACT_REASON). On the phase backend a snapshot stop
    splits the evolve_lvn call, and each call returns the real part of its
    carried state, so taking snapshots can move a phase trajectory's low
    bits (up to 1.1e-8 relative on the 64-point oscillator at extent 8).

    psi0 becomes its l2 vector v0 once, here. An event's update operator is
    the chosen region's Pi^(1/2) (projection_mode "sqrt") or its exact
    classicality projector, built once per partition ("exact").

    The engine memoises event outcomes in a trie keyed by the region history
    drawn so far (_Event nodes, _Branch edges). A node holds the event's
    Born row and rank-1 distance; a branch holds the PS6 residual of one
    drawn region and, where runs end, the _History their records share.
    None holds a state. run() draws each region with its own rng from the
    cached row. It builds the state only on a node or branch that is not
    cached yet, or at a snapshot stop, by replaying the drawn history's
    advances and updates from the last state it built (_replay). These are
    the calls and unit-norm checks a fresh run makes, so every record is
    bitwise what a fresh engine computes. An error (PS6, a degenerate row,
    a forbidden transition) is never cached: every run that draws that
    branch recomputes it and raises again. Born weights are computed once
    per node, so the clip log of _born_weights fires once per history, not
    once per run. The memo holds at most MEMO_LIMIT Born rows (memo_rows
    counts them: one per node, one per event of each history); once it is
    full, a run that leaves it goes on as a fresh run, storing nothing.

    The paper's postulates are checked, not assumed: the initial state must
    be quasirestricted to its most probable region (ValueError otherwise),
    and every event's post-projection state must pass PS6
    (QuasirestrictionError otherwise); each event's residual is recorded in
    TrajectoryRecord.ps6_residuals.
    """

    def __init__(self, psi0: WaveFunction, h: Hamiltonian, partition: Partition,
                 t_final: float, dt: float, schedule: ProjectionSchedule,
                 backend: str = "oracle", projection_mode: str = "sqrt",
                 snapshot_every: int = 0):
        if backend not in ("oracle", "phase"):
            raise ValueError(f"unknown backend {backend!r}")
        if projection_mode not in ("sqrt", "exact"):
            raise ValueError(f"unknown projection mode {projection_mode!r}")
        if backend == "phase" and projection_mode == "exact":
            raise ValueError(PHASE_EXACT_REASON)
        self.psi0 = psi0
        self.h = h
        self.partition = partition
        self.t_final = t_final
        self.dt = dt
        self.schedule = schedule
        self.backend = backend
        self.projection_mode = projection_mode
        self.snapshot_every = snapshot_every
        whole, tail = step_count(t_final, dt)
        self.steps = whole + (tail > 0)
        self.stride = schedule.stride(dt, self.steps)
        self.times = np.arange(self.steps + 1) * dt
        if self.steps:
            self.times[-1] = t_final
        self.times.flags.writeable = False      # every record shares it
        self._stops = self._plan_stops(whole, tail)
        self.event_steps = tuple(k for _, k, _, _, event, _ in self._stops if event)
        self.v0 = psi0.to_vector()
        probs0 = transition_probabilities_oracle(self.v0, partition)
        self.home_index = int(np.argmax(probs0))
        ok, resid = is_quasirestricted(self.v0, partition.regions[self.home_index])
        if not ok:
            raise ValueError(
                f"initial state is not quasirestricted to any region "
                f"(best residual {resid:.3e}); the coarse-graining "
                "containment requirement fails at t=0")
        self._memo = _Branch(resid)     # the start: nothing drawn yet
        self.memo_rows = 0              # Born rows held in the memo
        self.exact_projectors = (_cached_projectors(partition)
                                 if projection_mode == "exact" else None)
        if backend == "oracle":
            spans = Counter((n, tail) for _, _, n, tail, _, _ in self._stops)
            common = spans.most_common(1)[0][0] if spans else (0, 0.0)
            self._propagator = _OraclePropagator(self, common)
        else:
            self._propagator = _PhasePropagator(self)

    def _plan_stops(self, whole: int, tail: float) -> list:
        """(last stop's step, step, whole dt steps since it, tail, event?, snapshot?)."""
        stops = []
        prev = 0
        for k in range(1, self.steps + 1):
            event = k % self.stride == 0 or k == self.steps
            snap = bool(self.snapshot_every) and k % self.snapshot_every == 0
            if event or snap:
                last = k > whole
                stops.append((prev, k, k - prev - last, tail if last else 0.0,
                              event, snap))
                prev = k
        return stops

    def _update(self, chosen: int) -> OperatorMatrix:
        """The update operator of an event that drew region chosen."""
        if self.exact_projectors is None:
            return self.partition.regions[chosen].sqrt_operator()
        return self.exact_projectors[chosen]

    def _replay(self, state, done: int, upto: int, drawn: dict):
        """The state after stops[:upto], from a state after stops[:done].

        Each stop advances, then its event updates with the region drawn
        there if drawn (stop index -> region index) has one, by a fresh
        run's calls.
        """
        prop = self._propagator
        for j in range(done, upto):
            prev, _, n, tail, _, _ = self._stops[j]
            state = prop.advance(state, n, tail, self.times[prev])
            if j in drawn:
                v = apply_quasiprojection(prop.to_vector(state)[0], self._update(drawn[j]))
                state = prop.from_vector(v)
        return state

    def run(self, seed: int, traj_index: int = 0) -> TrajectoryRecord:
        rng = trajectory_rng(seed, traj_index)
        prop = self._propagator
        snaps = []
        branch, cached = self._memo, True   # cached: branch is in the memo
        drawn = {}                          # stop index -> region drawn at its event
        path = []                           # (node, region drawn, branch) per event
        state, done = prop.initial(), 0     # the last state built: after stops[:done]
        for i, (_, k, _, _, event, snap) in enumerate(self._stops):
            if event:
                node, v = branch.child, None
                if node is None:
                    before = self._replay(state, done, i + 1, drawn)
                    probs = prop.born_weights(before)
                    chosen = sample_transition(probs, rng)
                    v, distance = prop.to_vector(before)
                    node = _Event(probs, distance)
                    cached = cached and self._insert(branch, "child", node)
                else:
                    chosen = sample_transition(node.probs, rng)
                branch = node.branches[chosen]
                if branch is None:
                    if v is None:
                        v = prop.to_vector(self._replay(state, done, i + 1, drawn))[0]
                    v = apply_quasiprojection(v, self._update(chosen))
                    ok, resid = is_quasirestricted(v, self.partition.regions[chosen])
                    if not ok:
                        raise QuasirestrictionError(
                            f"post-projection state fails quasirestriction in "
                            f"{self.partition.labels()[chosen]} (residual {resid:.3e})")
                    state, done = prop.from_vector(v), i + 1
                    branch = node.branches[chosen] = _Branch(resid)
                drawn[i] = chosen
                path.append((node, chosen, branch))
            if snap:
                state, done = self._replay(state, done, i + 1, drawn), i + 1
                snaps.append((float(self.times[k]), prop.snapshot(state)))
        history = branch.history
        if history is None:
            history = _History(self, path)
            if cached:
                self._insert(branch, "history", history, len(path))
        return TrajectoryRecord(seed, history, tuple(snaps))

    def _insert(self, branch: _Branch, slot: str, entry, rows: int = 1) -> bool:
        """Store entry, a node or a history of rows Born rows, on a memo
        branch if the memo has room for them; False if it has not."""
        if self.memo_rows + rows > MEMO_LIMIT:
            return False
        setattr(branch, slot, entry)
        self.memo_rows += rows
        return True


def worker_count() -> int:
    env = os.environ.get("OSQM_THREADS", "")
    try:
        n = int(env)
    except ValueError:
        n = 1
    return max(1, n)


_ENGINE = None


def _pool_run(args):
    seed, idx = args
    rec = _ENGINE.run(seed, idx)
    return rec.summary()


def run_ensemble(engine: TrajectoryEngine, seeds: Sequence[int]) -> list:
    """Run many seeds; returns per-seed summaries in seed order.

    Parallel fan-out uses worker_count() forked workers (OSQM_THREADS)
    sharing the prepared engine; results are order-stable so aggregation
    is deterministic.
    """
    global _ENGINE
    workers = worker_count()
    jobs = [(int(s), i) for i, s in enumerate(seeds)]
    if workers <= 1 or len(jobs) < 4:
        return [_run_one(engine, s, i) for s, i in jobs]
    import multiprocessing as mp
    _ENGINE = engine
    try:
        with mp.get_context("fork").Pool(workers) as pool:
            return pool.map(_pool_run, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
    finally:
        _ENGINE = None


def _run_one(engine, seed, idx):
    return engine.run(seed, idx).summary()


def zeno_experiment(psi0: WaveFunction, h: Hamiltonian, partition: Partition,
                    dt_proj_values: Sequence[float], t_total: float) -> list:
    """Measurement-interval sweep for the short-time quadratic law.

    For each projection interval the conditional run starts from the
    home-projected state, evolves, records the per-interval misprojection
    probability q = 1 - p_home, projects back home and repeats, so the
    reported survival is the exact expectation of the stochastic process
    conditioned on staying home. Rows with q above ZENO_SATURATION are
    flagged (outside the short-interval regime).

    It measures and projects with the sharp classicality projectors: the
    freshly projected state is then an exact eigenvector of the next
    measurement and q(dt) is purely quadratic at small dt, whereas the
    smooth quasiprojector POVM's boundary overlap would add an
    interval-independent pedestal to q that hides the quadratic law.

    Returns rows of dict(dt_proj, q_first, q_mean, survival, flagged).
    """
    v0 = psi0.to_vector()
    home = int(np.argmax(transition_probabilities_oracle(v0, partition)))
    proj = _cached_projectors(partition)[home]
    hmat = weyl_operator_from_symbol(h.symbol())

    rows = []
    for dtp in dt_proj_values:
        u = hmat.unitary(dtp)
        v = apply_quasiprojection(v0, proj)
        n_int = max(1, int(round(t_total / dtp)))
        survival = 1.0
        qs = []
        for _ in range(n_int):
            v = u @ v
            p_home = min(max(np.vdot(v, proj.matrix @ v).real, 0.0), 1.0)
            qk = 1.0 - p_home
            qs.append(qk)
            survival *= p_home
            v = apply_quasiprojection(v, proj)
        q_first = qs[0]
        rows.append({
            "dt_proj": float(dtp),
            "q_first": float(q_first),
            "q_mean": float(np.mean(qs)),
            "survival": float(survival),
            "flagged": bool(q_first > ZENO_SATURATION),
        })
    return rows


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)
