"""Measurement-free projection dynamics over a coarse graining.

A trajectory alternates unitary evolution with scheduled stochastic
quasiprojections: at each projection time the region probabilities
p_j = tr(Pi_j rho) are computed, one region is sampled (Born rule), and
the state is updated with Pi_j^(1/2) (or the exact classicality projector
in comparison mode). Everything is deterministic given (config, seed).

Nothing reads the state between two events, so TrajectoryEngine propagates
from stop to stop (an event or a snapshot) in one go: one cached dense
propagator U(n dt) per interval on the oracle backend, one evolve_lvn call
per interval on the phase backend. The oracle backend carries the state as
its flat l2 vector (WaveFunction.to_vector()) from start to end. Every
event, on both backends and in the measurement scenario, updates with
apply_quasiprojection and checks PS6 with is_quasirestricted; these and
transition_probabilities_oracle take a WaveFunction, its l2 vector, or an
array whose first axis is the partition's space (Pi acts as Pi (x) I).
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import Hamiltonian, evolve_lvn, step_count
from .oracle import (NotPositiveError, OperatorMatrix, WaveFunction, check_unit_norm,
                     state_vector)
from .regions import Partition, Region, classicality_projectors, is_quasirestricted
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
]

PROB_CLIP = -1e-8
MIN_TRANSITION_PROB = 1e-12
RANK1_TOL = 1e-4   # largest ||rho - psi psi^H||_1 of a phase event's state
PHASE_EXACT_REASON = (
    "backend 'phase' cannot run projection_mode 'exact': a sharply projected "
    "state leaves the grid's momentum range, so the Wigner grid cannot hold it")


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


def transition_probabilities_oracle(psi, partition: Partition) -> np.ndarray:
    """Operator-side Born weights p_j = <psi|Pi_j|psi>, clipped as above.

    psi is a WaveFunction, its l2 vector, or an array whose first axis is
    the partition's Hilbert space: on an (n1, n2) array V the weight is
    tr(V^H Pi_j V), the Born weight of Pi_j (x) I on vec(V).
    """
    v = state_vector(psi)
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


def apply_quasiprojection(psi, region: Region, mode: str = "sqrt",
                          exact_projector: Optional[OperatorMatrix] = None):
    """State update Pi_R^(1/2) psi / norm (POVM form).

    mode="exact" uses the supplied classicality projector instead, for
    quantifying the quasiprojector approximation. psi is a WaveFunction,
    its l2 vector, or an array whose first axis is the region's Hilbert
    space (the operator acts on that axis, as Pi_R (x) I on vec(V)); the
    updated state comes back in the same form.
    """
    v = state_vector(psi)
    if mode == "sqrt":
        op = region.sqrt_operator().matrix
    elif mode == "exact":
        if exact_projector is None:
            raise ValueError("exact mode needs the classicality projector")
        op = exact_projector.matrix
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    out = op @ v
    norm = np.linalg.norm(out)
    if norm ** 2 < MIN_TRANSITION_PROB:
        raise ValueError(
            f"projection weight {norm ** 2:.3e} below {MIN_TRANSITION_PROB}; "
            "a forbidden transition was sampled (sampler inconsistency)")
    if isinstance(psi, WaveFunction):
        return WaveFunction.from_vector(psi.grid, out / norm)
    return check_unit_norm(out / norm)


def trajectory_rng(base_seed: int, traj_index: int) -> np.random.Generator:
    """Independent counter-based substream per (seed, trajectory)."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class TrajectoryRecord:
    """Full log of one seeded run."""

    seed: int
    times: np.ndarray
    region_labels: list
    prob_rows: np.ndarray          # probabilities at each projection event
    event_steps: list
    event_regions: list
    ps6_residuals: list
    backend: str
    snapshots: list = field(default_factory=list)
    final_region: str = ""
    # ||rho - psi psi^H||_1 of the state each event projected (0 on oracle)
    rank1_distances: list = field(default_factory=list)

    def summary(self) -> dict:
        return {"seed": self.seed, "final_region": self.final_region,
                "num_events": len(self.event_steps)}


class _Propagator:
    """What run() needs of a backend, on the backend's state type: advance
    by an interval, Born weights, the l2 vector an event projects (with its
    rank-1 distance) and the state of a projected vector, and a snapshot."""

    def __init__(self, engine: "TrajectoryEngine"):
        self.psi0 = engine.psi0
        self.h = engine.h
        self.partition = engine.partition
        self.dt = engine.dt


class _OraclePropagator(_Propagator):
    """Wavefunction backend: dense propagators U(n dt + tail) from one eigh.

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
        self._w, self._q = weyl_operator_from_symbol(self.h.symbol()).eigh()
        self._u = {}
        self._propagator(*common_span)

    def _propagator(self, n: int, tail: float) -> np.ndarray:
        u = self._u.get((n, tail))
        if u is None:
            phases = np.exp(-1j * self._w * (n * self.dt + tail) / self.psi0.grid.hbar)
            u = self._u[(n, tail)] = (self._q * phases) @ self._q.conj().T
        return u

    def initial(self) -> np.ndarray:
        return self.psi0.to_vector()

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
    "exact" (PHASE_EXACT_REASON).
    """

    def __init__(self, psi0: WaveFunction, h: Hamiltonian, partition: Partition,
                 t_final: float, dt: float, schedule: ProjectionSchedule,
                 backend: str = "oracle", projection_mode: str = "sqrt",
                 check_ps6: bool = True, snapshot_every: int = 0,
                 require_quasirestricted: bool = True):
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
        self.check_ps6 = check_ps6
        self.snapshot_every = snapshot_every
        whole, tail = step_count(t_final, dt)
        self.steps = whole + (tail > 0)
        self.stride = schedule.stride(dt, self.steps)
        self.times = np.arange(self.steps + 1) * dt
        if self.steps:
            self.times[-1] = t_final
        self._stops = self._plan_stops(whole, tail)
        probs0 = transition_probabilities_oracle(psi0, partition)
        self.home_index = int(np.argmax(probs0))
        if require_quasirestricted:
            ok, resid = is_quasirestricted(psi0, partition.regions[self.home_index])
            if not ok:
                raise ValueError(
                    f"initial state is not quasirestricted to any region "
                    f"(best residual {resid:.3e}); the coarse-graining "
                    "containment requirement fails at t=0")
        self.exact_projectors = (_cached_projectors(partition)
                                 if projection_mode == "exact" else [None] * len(partition))
        if backend == "oracle":
            spans = Counter((n, tail) for _, n, tail, _, _ in self._stops)
            common = spans.most_common(1)[0][0] if spans else (0, 0.0)
            self._propagator = _OraclePropagator(self, common)
        else:
            self._propagator = _PhasePropagator(self)

    def _plan_stops(self, whole: int, tail: float) -> list:
        """(step, whole dt steps since the last stop, tail, event?, snapshot?)."""
        stops = []
        prev = 0
        for k in range(1, self.steps + 1):
            event = k % self.stride == 0 or k == self.steps
            snap = bool(self.snapshot_every) and k % self.snapshot_every == 0
            if event or snap:
                last = k > whole
                stops.append((k, k - prev - last, tail if last else 0.0,
                              event, snap))
                prev = k
        return stops

    def run(self, seed: int, traj_index: int = 0) -> TrajectoryRecord:
        rng = trajectory_rng(seed, traj_index)
        prop = self._propagator
        labels = self.partition.labels()
        current = self.home_index
        region_track = [labels[current]]
        prob_rows = []
        event_steps = []
        event_regions = []
        ps6_resids = []
        rank1 = []
        snaps = []

        state = prop.initial()
        prev = 0
        for k, n, tail, event, snap in self._stops:
            state = prop.advance(state, n, tail, self.times[prev])
            region_track.extend([labels[current]] * (k - prev - 1))
            if event:
                probs = prop.born_weights(state)
                chosen = sample_transition(probs, rng)
                prob_rows.append(probs)
                event_steps.append(k)
                event_regions.append(labels[chosen])
                v, distance = prop.to_vector(state)
                rank1.append(distance)
                region = self.partition.regions[chosen]
                v = apply_quasiprojection(v, region, self.projection_mode,
                                          self.exact_projectors[chosen])
                if self.check_ps6:
                    ok, resid = is_quasirestricted(v, region)
                    ps6_resids.append(resid)
                    if not ok:
                        raise RuntimeError(
                            f"post-projection state fails quasirestriction in "
                            f"{labels[chosen]} (residual {resid:.3e})")
                state = prop.from_vector(v)
                current = chosen
            region_track.append(labels[current])
            if snap:
                snaps.append((float(self.times[k]), prop.snapshot(state)))
            prev = k

        return TrajectoryRecord(
            seed=seed, times=self.times.copy(), region_labels=region_track,
            prob_rows=np.asarray(prob_rows), event_steps=event_steps,
            event_regions=event_regions, ps6_residuals=ps6_resids,
            backend=self.backend, snapshots=snaps,
            final_region=region_track[-1], rank1_distances=rank1)


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


def run_ensemble(engine: TrajectoryEngine, seeds: Sequence[int],
                 workers: Optional[int] = None) -> list:
    """Run many seeds; returns per-seed summaries in seed order.

    Parallel fan-out uses forked workers sharing the prepared engine;
    results are order-stable so aggregation is deterministic.
    """
    global _ENGINE
    if workers is None:
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
                    dt_proj_values: Sequence[float], t_total: float,
                    projection_mode: str = "exact",
                    saturation: float = 0.5) -> list:
    """Measurement-interval sweep for the short-time quadratic law.

    For each projection interval the conditional run starts from the
    home-projected state, evolves, records the per-interval misprojection
    probability q = 1 - p_home, projects back home and repeats, so the
    reported survival is the exact expectation of the stochastic process
    conditioned on staying home. Rows with q above the saturation level
    are flagged (outside the short-interval regime).

    projection_mode "exact" measures and projects with the sharp
    classicality projectors: the freshly projected state is then an exact
    eigenvector of the next measurement and q(dt) is purely quadratic at
    small dt. The "sqrt" mode uses the smooth quasiprojector POVM, whose
    boundary overlap adds an interval-independent pedestal to q; that
    pedestal is physical for the smooth coarse graining but hides the
    quadratic law, so the scaling fit uses the exact mode.

    Returns rows of dict(dt_proj, q_first, q_mean, survival, flagged).
    """
    probs0 = transition_probabilities_oracle(psi0, partition)
    home = int(np.argmax(probs0))
    region = partition.regions[home]
    home_proj = (_cached_projectors(partition)[home]
                 if projection_mode == "exact" else None)
    home_op = (region.operator() if home_proj is None else home_proj).matrix

    hmat = weyl_operator_from_symbol(h.symbol())
    w, q = hmat.eigh()
    grid = psi0.grid

    rows = []
    for dtp in dt_proj_values:
        u = (q * np.exp(-1j * w * dtp / grid.hbar)) @ q.conj().T
        v = apply_quasiprojection(psi0.to_vector(), region, projection_mode, home_proj)
        n_int = max(1, int(round(t_total / dtp)))
        survival = 1.0
        qs = []
        for _ in range(n_int):
            v = u @ v
            p_home = min(max(np.vdot(v, home_op @ v).real, 0.0), 1.0)
            qk = 1.0 - p_home
            qs.append(qk)
            survival *= p_home
            v = apply_quasiprojection(v, region, projection_mode, home_proj)
        q_first = qs[0]
        rows.append({
            "dt_proj": float(dtp),
            "q_first": float(q_first),
            "q_mean": float(np.mean(qs)),
            "survival": float(survival),
            "flagged": bool(q_first > saturation),
        })
    return rows


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)
