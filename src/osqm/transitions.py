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
from start to end. An event takes its Born weights through its backend:
the oracle backend and the measurement scenario with
transition_probabilities_oracle, the phase backend with the symbol-side
transition_probabilities (p_j = int Pi_j W dz). Every event, on both
backends and in the measurement scenario, updates with
apply_quasiprojection and checks PS6 with is_quasirestricted. These two and
transition_probabilities_oracle take an l2 array whose first axis is the
partition's Hilbert space (on an (n1, n2) array, Pi acts as Pi (x) I), and
the caller passes the update operator: Pi_j^(1/2) or the exact projector.

Inside an interval the state evolves deterministically; only the region
drawn at an event is random. So the state at any stop is a function of the
regions drawn before it: TrajectoryEngine.run memoises what each event
gives in a trie with one node per region history (see TrajectoryEngine),
and run_ensemble walks the tree of histories breadth first, one state per
distinct history.
"""

from __future__ import annotations

import logging
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
    "trajectory_uniforms",
    "QuasirestrictionError",
]

PROB_CLIP = -1e-8
MIN_TRANSITION_PROB = 1e-12
RANK1_TOL = 1e-4   # largest ||rho - psi psi^H||_1 of a phase event's state
STRIDE_RTOL = 1e-9  # how far dt_proj / dt may lie from a whole number, relative
ZENO_SATURATION = 0.5  # q_first above this is outside the short-interval regime
# Born rows one engine's memo may hold. A row, in a node or a history,
# costs 120-190 bytes at two or three regions (tracemalloc), so a full memo
# is 2-3 MB, about as much as the dense N = 256 operators an oracle engine
# caches anyway.
MEMO_LIMIT = 1 << 14
BACKENDS = ("oracle", "phase")
PROJECTION_MODES = ("sqrt", "exact")
SCHEDULE_MODES = ("continuous", "periodic", "single-shot")
SEED_BOUND = 1 << 64     # trajectory seeds lie in [0, SEED_BOUND)
INDEX_BOUND = 1 << 32    # trajectory indices lie in [0, INDEX_BOUND)
_M32 = 0xFFFFFFFF
# NumPy's SeedSequence (numpy/random/bit_generator.pyx) mixes its entropy
# into a pool of four words with 20 hashes, and the Philox key takes four
# more; hash k xors a word with constant k and multiplies it by constant k + 1
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _M32 for k in range(21))
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32 for k in range(5))
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHASE_EXACT_REASON = (
    "backend 'phase' cannot run projection_mode 'exact': a sharply projected "
    "state leaves the grid's momentum range, so the Wigner grid cannot hold it")
SNAPSHOT_REASON = "only a single phase run writes snapshots"


class QuasirestrictionError(RuntimeError):
    """A post-projection state fails PS6: it is not quasirestricted."""


class _Node:
    """A memoised region history: the regions drawn so far. It holds the
    PS6 residual of its last draw (at the root, the start's own residual);
    once a run has reached the next event, that event's Born row, the
    rank-1 distance of the state it projected and per region the _Node of
    a draw that passed PS6 (None until one has); and, once a run has ended
    here, the _History its records share. It holds no state."""

    __slots__ = ("resid", "probs", "distance", "children", "history")

    def __init__(self, resid: float):
        self.resid = resid
        self.probs = self.distance = self.children = self.history = None


class _History:
    """What every run of one region history on one engine records: the
    engine's backend, times, event steps and home region label, and per
    event the region label drawn, the Born row (one read-only array), the
    PS6 residual and the rank-1 distance. path holds a (node, region drawn,
    child) triple per event."""

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
        self.ps6_residuals = tuple(child.resid for _, _, child in path)
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

    mode: str                       # one of SCHEDULE_MODES
    dt_proj: Optional[float] = None

    def __post_init__(self):
        if self.mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        # None, 0, NaN and inf fail it: stride() needs a finite dt_proj / dt
        if self.mode == "periodic" and not 0 < (self.dt_proj or 0) < np.inf:
            raise ValueError(f"periodic schedule needs a finite dt_proj > 0, got {self.dt_proj!r}")

    def stride(self, dt: float, steps: int) -> int:
        if self.mode == "continuous":
            return 1
        if self.mode == "single-shot":
            return steps
        if self.dt_proj < dt - 1e-12:
            raise ValueError("dt_proj must be >= the dynamics step dt")
        # a rounded stride would fire events at another interval than dt_proj
        ratio = self.dt_proj / dt
        stride = round(ratio)
        if abs(ratio - stride) > STRIDE_RTOL * ratio:
            raise ValueError(f"dt_proj {self.dt_proj!r} is not a whole number of "
                             f"dt {dt!r} steps (ratio {ratio:.12g})")
        return stride


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

    Pi_j is the Weyl image of region j's operator, and the grid Weyl map
    pairs traces exactly, so p_j is tr(Pi_j rho_W) to round-off, with rho_W
    W's own operator. Sums to 1 exactly (partition of unity); tiny negative
    quadrature noise is clipped to zero and logged.
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


def sample_transition(probabilities: np.ndarray, u):
    """Region indices of uniforms u in [0, 1) under the inverse CDF of a Born row.

    u is one float, which gives an int, or an array of floats, which gives
    an index array of its shape. The row is checked and its CDF built once
    per call, so an ensemble passes all its uniforms in one call; a draw
    from a generator is sample_transition(probs, rng.random()).
    """
    p = np.asarray(probabilities, dtype=float)
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("degenerate probability vector")
    cdf = np.cumsum(p / total)
    idx = np.searchsorted(cdf, u, side="right")
    if idx.ndim == 0:
        if not 0.0 <= u < 1.0:
            raise ValueError(f"uniform {u} outside [0, 1)")
        return min(int(idx), len(p) - 1)
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniforms outside [0, 1)")
    return np.minimum(idx, len(p) - 1)


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
    """Independent counter-based substream per (seed, trajectory): Philox
    keyed by SeedSequence(entropy=base_seed, spawn_key=(traj_index,)).

    base_seed lies in [0, SEED_BOUND) and traj_index in [0, INDEX_BOUND)
    (ValueError otherwise), the domain in which trajectory_uniforms computes
    the same stream; TrajectoryEngine.run draws from this Generator, and
    run_ensemble and MeasurementScenario.run_ensemble from that kernel.
    """
    if not (0 <= base_seed < SEED_BOUND and 0 <= traj_index < INDEX_BOUND):
        raise ValueError(f"seed {base_seed} or trajectory index {traj_index} outside "
                         "[0, 2^64) and [0, 2^32)")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def _domain(values, bound: int, what: str) -> np.ndarray:
    """values as a uint64 array of one dimension or more, or ValueError if
    one lies outside [0, bound)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        # Python ints past int64's range come as objects, or as floats
        # beside a negative one: compare them as Python ints
        a = np.asarray(values, dtype=object)
        if not all(isinstance(v, (int, np.integer)) for v in a.flat):
            raise TypeError(f"{what}s must be integers")
    if a.size and not (a.min() >= 0 and a.max() < bound):
        worst = a.min() if a.min() < 0 else a.max()
        raise ValueError(f"{what} {worst} outside [0, 2^{bound.bit_length() - 1})")
    return np.atleast_1d(a.astype(np.uint64))


def _hash(v: np.ndarray, consts: tuple, k: int) -> np.ndarray:
    """SeedSequence's k-th hash of the uint32 array v."""
    v = (v ^ consts[k]) * consts[k + 1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word y into the pool word x."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit halves."""
    al, ah = a & _M32, a >> 32
    bl, bh = b & _M32, b >> 32
    ll, hl, lh = bl * al, bh * al, bl * ah
    mid = (ll >> 32) + (hl & _M32) + (lh & _M32)
    return bh * ah + (hl >> 32) + (lh >> 32) + (mid >> 32), b * a


def trajectory_uniforms(seeds, indices, count: int) -> np.ndarray:
    """trajectory_rng(seed, index).random(count) for every (seed, index) pair
    of the broadcast seeds and indices, bit for bit, as array arithmetic.

    The result has the broadcast shape plus a last axis of count. Seeds lie
    in [0, SEED_BOUND) and indices in [0, INDEX_BOUND) (ValueError
    otherwise): there SeedSequence's entropy is five uint32 words, the
    seed's two, two zero pads and the index. Its pool of four words gives
    the two Philox key words, and Philox4x64-10 turns counters 1, 2, ... into
    four words each; draw k is word k % 4 of counter k // 4 + 1, taken to a
    double as (word >> 11) 2^-53, as Generator.random does.
    """
    shape = np.broadcast_shapes(np.shape(seeds), np.shape(indices))
    seeds = _domain(seeds, SEED_BOUND, "seed")
    index = _domain(indices, INDEX_BOUND, "trajectory index").astype(np.uint32)
    zero = np.zeros(1, np.uint32)
    entropy = ((seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32),
               zero, zero)
    pool = [_hash(word, _HASH_A, k) for k, word in enumerate(entropy)]
    k = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _HASH_A, k))
                k += 1
    for dst in range(4):
        pool[dst] = _mix(pool[dst], _hash(index, _HASH_A, k + dst))
    words = [_hash(p, _HASH_B, i).astype(np.uint64) for i, p in enumerate(pool)]
    key0 = (words[0] | words[1] << 32)[..., None]     # one column per counter
    key1 = (words[2] | words[3] << 32)[..., None]
    blocks = -(-count // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros(1, np.uint64)
    for r in range(10):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    full = np.broadcast_shapes(x0.shape, x1.shape, x2.shape, x3.shape)
    out = np.stack([np.broadcast_to(x, full) for x in (x0, x1, x2, x3)], axis=-1)
    out = out.reshape(*full[:-1], 4 * blocks)[..., :count]
    return ((out >> 11) * 2.0 ** -53).reshape(*shape, count)


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


class _OraclePropagator:
    """Wavefunction backend: dense propagators U(n dt + tail) from one eigh
    (OperatorMatrix.unitary).

    The state is the flat l2 vector of WaveFunction.to_vector() throughout;
    no WaveFunction is built per stop. Its unit norm, which a WaveFunction
    would check when built, is checked after each advance and projection.
    One U is built up front for each distinct interval (n, tail) of the
    engine's stops.
    """

    def __init__(self, engine: "TrajectoryEngine"):
        self.v0, self.partition = engine.v0, engine.partition
        hm = weyl_operator_from_symbol(engine.h.symbol())
        spans = dict.fromkeys((n, tail) for _, n, tail, _, _ in engine._stops)
        self._u = {(n, tail): hm.unitary(n * engine.dt + tail) for n, tail in spans}

    def initial(self) -> np.ndarray:
        return self.v0

    def advance(self, v: np.ndarray, n: int, tail: float) -> np.ndarray:
        return check_unit_norm(self._u[(n, tail)] @ v)

    def born_weights(self, v: np.ndarray) -> np.ndarray:
        return transition_probabilities_oracle(v, self.partition)

    def to_vector(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        return v, 0.0

    def from_vector(self, v: np.ndarray) -> np.ndarray:
        return v


class _PhasePropagator:
    """Wigner backend: one evolve_lvn per interval, events on the top
    eigenvector of the quantised W (see to_vector).

    The initial Wigner state is built once, here, and every run starts from
    it. Nothing writes into a state: evolve_lvn, the Born weights and
    to_vector read theirs, and a snapshot copies, so its array is read-only.
    """

    def __init__(self, engine: "TrajectoryEngine"):
        self.h, self.dt, self.partition = engine.h, engine.dt, engine.partition
        self._w0 = wigner_from_wavefunction(engine.psi0)
        self._w0.values.flags.writeable = False

    def initial(self) -> WignerState:
        return self._w0

    def advance(self, w: WignerState, n: int, tail: float) -> WignerState:
        return evolve_lvn(w, self.h, n * self.dt + tail, self.dt, verify_dt=False)

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
        return wigner_from_wavefunction(WaveFunction.from_vector(self._w0.grid, v))

    def snapshot(self, w: WignerState) -> np.ndarray:
        return w.values.copy()


class TrajectoryEngine:
    """Prepared trajectory runner: shared operators, per-seed randomness.

    Time runs in steps of dt to t_final, counted as evolve_lvn counts them:
    whole steps, then one shorter step if dt does not divide t_final, so
    the last recorded time is t_final. A projection event fires after
    every stride-th step and after the last one.

    The state is needed only at events and snapshots, so run() propagates
    from one such stop straight to the next. A backend's propagator gives
    run() what it needs on the backend's state type: advance by an
    interval, Born weights, the l2 vector an event projects (with its
    rank-1 distance) and the state of a projected vector; the phase
    backend's also takes snapshots. backend "oracle" keeps the
    state as its l2 vector and applies a dense propagator U(n dt) per
    interval, built once per distinct length from the Hamiltonian's
    eigendecomposition; each advance and projection checks the unit norm.
    backend "phase" makes one evolve_lvn call per interval with step dt,
    whose stability it checks once, when built; an event projects the top
    eigenvector of the quantised W (to_vector) and re-enters with
    wigner_from_wavefunction. It rejects projection_mode "exact"
    (PHASE_EXACT_REASON). Only the phase backend takes snapshots
    (SNAPSHOT_REASON). A snapshot stop splits the evolve_lvn call, and each
    call of the split path (a Hamiltonian of more than one term) returns the
    real part of its carried state, so taking snapshots can move a phase
    trajectory's low bits (up to 1.1e-8 relative on the 64-point oscillator
    at extent 8). The exact path of a one-term Hamiltonian moves them too.
    Each call returns Sym(U rho U^H) for its own input's operator rho, to
    2.3e-11 of max|W| on the dof-2 coupling, but that symbol's operator
    misses U rho U^H (by 1.5e-3, 5.7e-6 and 7.3e-10 on the 32^4 coupling
    and the free particle at N = 30 and 64, t 0.1), so a second call starts
    from another operator: two calls of 0.1 differ from one of 0.2 by
    1.7e-5, 1.0e-6 and 1.3e-10 of max|W| there.

    psi0 becomes its l2 vector v0 once, here. An event's update operator is
    the chosen region's Pi^(1/2) (projection_mode "sqrt") or its exact
    classicality projector P_j, built once per partition ("exact"). Both
    modes draw from the quasiprojector weights tr(Pi_j rho), so "exact" is
    not a projective instrument: it draws with Pi_j but updates with P_j,
    whose weight tr(P_j rho) can differ (by up to 0.175 along one
    oscillator run at N = 256, dt_proj pi/8). zeno_experiment draws and
    updates with P_j.

    The engine memoises a trie of region histories, one _Node per history
    drawn so far, the start at its root. A node holds the PS6 residual of
    its last draw; once a run reaches the next event, that event's Born row,
    rank-1 distance and a child node per region drawn; and, where runs end,
    the _History their records share. None holds a state. run() walks
    node.children[chosen], drawing each region with its own rng from the
    cached row. It builds the state only at a node or child that is not
    cached yet, or at a snapshot stop, by replaying the drawn history's
    advances and updates from the last state it built (_replay). These are
    the calls and unit-norm checks a fresh run makes, so every record is
    bitwise what a fresh engine computes. An error (PS6, a degenerate row,
    a forbidden transition) is never cached: every run that draws that
    region there recomputes it and raises again. Born weights are computed
    once per node, so the clip log of _born_weights fires once per history,
    not once per run. The memo holds at most MEMO_LIMIT Born rows (memo_rows
    counts them: one per node that holds a row, one per event of each
    history); once it is full, a run that leaves it goes on from a detached
    node, storing nothing.

    The paper's postulates are checked, not assumed: the initial state must
    be quasirestricted to its most probable region (ValueError otherwise),
    and every event's post-projection state must pass PS6
    (QuasirestrictionError, naming the seed and trajectory index, otherwise);
    each event's residual is recorded in TrajectoryRecord.ps6_residuals.
    """

    def __init__(self, psi0: WaveFunction, h: Hamiltonian, partition: Partition,
                 t_final: float, dt: float, schedule: ProjectionSchedule,
                 backend: str = "oracle", projection_mode: str = "sqrt",
                 snapshot_every: int = 0):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if projection_mode not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {projection_mode!r}")
        if backend == "phase" and projection_mode == "exact":
            raise ValueError(PHASE_EXACT_REASON)
        if backend == "oracle" and snapshot_every > 0:
            raise ValueError(f"snapshot_every > 0 needs backend 'phase', since "
                             f"{SNAPSHOT_REASON}")
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
        self.event_steps = tuple(k for k, _, _, event, _ in self._stops if event)
        self.v0 = psi0.to_vector()
        probs0 = transition_probabilities_oracle(self.v0, partition)
        self.home_index = int(np.argmax(probs0))
        ok, resid = is_quasirestricted(self.v0, partition.regions[self.home_index])
        if not ok:
            raise ValueError(
                f"initial state is not quasirestricted to any region "
                f"(best residual {resid:.3e}); the coarse-graining "
                "containment requirement fails at t=0")
        self._memo = _Node(resid)       # the start: nothing drawn yet
        self.memo_rows = 0              # Born rows held in the memo
        self.exact_projectors = (_cached_projectors(partition)
                                 if projection_mode == "exact" else None)
        if backend == "oracle":
            self._propagator = _OraclePropagator(self)
        else:
            self._propagator = _PhasePropagator(self)
            # its intervals skip evolve_lvn's step-halving check: check dt once
            evolve_lvn(self._propagator.initial(), h, min(dt, t_final), dt)

    def _plan_stops(self, whole: int, tail: float) -> list:
        """(step, whole dt steps since the last stop, tail, event?, snapshot?)."""
        stops = []
        prev = 0
        for k in range(1, self.steps + 1):
            event = k % self.stride == 0 or k == self.steps
            snap = bool(self.snapshot_every) and k % self.snapshot_every == 0
            if event or snap:
                last = k > whole
                stops.append((k, k - prev - last, tail if last else 0.0, event, snap))
                prev = k
        return stops

    def _update(self, chosen: int) -> OperatorMatrix:
        """The update operator of an event that drew region chosen."""
        if self.exact_projectors is None:
            return self.partition.regions[chosen].sqrt_operator()
        return self.exact_projectors[chosen]

    def _project(self, v: np.ndarray, chosen: int, seed: int, traj_index: int):
        """(update of v by region chosen, its PS6 residual), or QuasirestrictionError."""
        v = apply_quasiprojection(v, self._update(chosen))
        ok, resid = is_quasirestricted(v, self.partition.regions[chosen])
        if not ok:
            raise QuasirestrictionError(
                f"post-projection state fails quasirestriction in "
                f"{self.partition.labels()[chosen]} (residual {resid:.3e}); "
                f"seed {seed}, trajectory {traj_index}")
        return v, resid

    def _replay(self, state, done: int, upto: int, drawn: dict):
        """The state after stops[:upto], from a state after stops[:done].

        Each stop advances, then its event updates with the region drawn
        there if drawn (stop index -> region index) has one, by a fresh
        run's calls.
        """
        prop = self._propagator
        for j in range(done, upto):
            _, n, tail, _, _ = self._stops[j]
            state = prop.advance(state, n, tail)
            if j in drawn:
                v = apply_quasiprojection(prop.to_vector(state)[0], self._update(drawn[j]))
                state = prop.from_vector(v)
        return state

    def run(self, seed: int, traj_index: int = 0) -> TrajectoryRecord:
        rng = trajectory_rng(seed, traj_index)
        prop = self._propagator
        snaps = []
        node, cached = self._memo, True     # cached: node is in the memo
        drawn = {}                          # stop index -> region drawn at its event
        path = []                           # (node, region drawn, child) per event
        state, done = prop.initial(), 0     # the last state built: after stops[:done]
        for i, (k, _, _, event, snap) in enumerate(self._stops):
            if event:
                v = None
                if node.probs is None:
                    before = self._replay(state, done, i + 1, drawn)
                    probs = prop.born_weights(before)
                    chosen = sample_transition(probs, rng.random())
                    v, distance = prop.to_vector(before)
                    if cached and not self._room(1):
                        node, cached = _Node(node.resid), False
                    node.probs, node.distance = probs, distance
                    node.children = [None] * len(probs)
                else:
                    chosen = sample_transition(node.probs, rng.random())
                child = node.children[chosen]
                if child is None:
                    if v is None:
                        v = prop.to_vector(self._replay(state, done, i + 1, drawn))[0]
                    v, resid = self._project(v, chosen, seed, traj_index)
                    state, done = prop.from_vector(v), i + 1
                    child = node.children[chosen] = _Node(resid)
                drawn[i] = chosen
                path.append((node, chosen, child))
                node = child
            if snap:
                state, done = self._replay(state, done, i + 1, drawn), i + 1
                snaps.append((float(self.times[k]), prop.snapshot(state)))
        history = node.history
        if history is None:
            history = _History(self, path)
            if cached and self._room(len(path)):
                node.history = history
        return TrajectoryRecord(seed, history, tuple(snaps))

    def _room(self, rows: int) -> bool:
        """Count rows more Born rows into the memo if it has room for them;
        False, counting none, if it has not."""
        if self.memo_rows + rows > MEMO_LIMIT:
            return False
        self.memo_rows += rows
        return True


def run_ensemble(engine: TrajectoryEngine, seeds: Sequence[int]) -> list:
    """Run seeds[i] as trajectory i of engine; per-seed summaries in seed order.

    A breadth-first walk of the history tree that bypasses the memo: the
    seeds that drew the same regions so far share one post-update l2 vector,
    one Born row per event, one sample_transition call on their runs'
    uniforms and one update per region drawn, by run's arithmetic, so the
    summaries are bitwise engine.run's. Seed i's uniforms are the draws its
    run takes from trajectory_rng(seeds[i], i), computed for every seed in
    one trajectory_uniforms call; so seeds lie in [0, SEED_BOUND) and number
    at most INDEX_BOUND (ValueError otherwise, as engine.run raises). If a
    group raises, the lowest failing seed is run with engine.run, which
    raises what a loop of runs raises first.
    """
    seeds = [int(s) for s in seeds]
    levels, prop = len(engine.event_steps), engine._propagator
    u = trajectory_uniforms(seeds, np.arange(len(seeds)), levels)
    final = np.full(len(seeds), engine.home_index)
    # a group: (post-update l2 vector, members), all after stops[:done]
    groups, done, failed = [(None, np.arange(len(seeds)))], 0, {}
    events = (i for i, (_, _, _, event, _) in enumerate(engine._stops) if event)
    for level, i in enumerate(events):
        children = []
        for v, members in groups:
            sub = members
            try:
                state = prop.initial() if v is None else prop.from_vector(v)
                before = engine._replay(state, done, i + 1, {})
                chosen = sample_transition(prop.born_weights(before), u[members, level])
                v = prop.to_vector(before)[0]
                # in order of lowest member: a region that raises skips higher ones only
                for region in dict.fromkeys(chosen.tolist()):
                    sub = members[chosen == region]
                    v_sub = engine._project(v, region, seeds[sub[0]], sub[0])[0]
                    children.append((v_sub, sub))
                    final[sub] = region
            except (ValueError, RuntimeError) as exc:    # the engine's checks
                failed[sub[0]] = exc        # lowest failing member: its error
        groups, done = children, i + 1
    if failed:
        k = min(failed)
        engine.run(seeds[k], int(k))
        raise failed[k]
    labels = engine.partition.labels()
    return [{"seed": s, "final_region": labels[f], "num_events": levels}
            for s, f in zip(seeds, final)]


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

    Each interval count is rounded, n_intervals = max(1, round(t_total /
    dt_proj)), so a row's survival covers t_covered = n_intervals * dt_proj,
    which need not be t_total.

    Returns rows of dict(dt_proj, n_intervals, t_covered, q_first, q_mean,
    survival, flagged).
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
            "n_intervals": n_int,
            "t_covered": float(n_int * dtp),
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
