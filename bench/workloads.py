"""The benchmark's workloads, driven through osqm's public functions.

Every workload builds its inputs from the workload seed, times its set-up
several times, then repeats its seeded unit of work (a "trajectory") in a
timed loop and checks the outputs against `osqm.acceptance.Tolerances`.

- slosh-oracle: `TrajectoryEngine.run` on the dense oracle backend.
- lvn-oscillator: one `evolve_lvn` of a seeded coherent state per trajectory.
- composite-measurement: a dof-2 `evolve_lvn` (part a), then seeded Born
  draws of `MeasurementScenario.run_ensemble` (part b); each draw is one
  trajectory.

With a tracer the timed loop runs twice, untraced and traced, each for half
the time; the traced half feeds the per-layer metrics and the ratio of the
two gives the tracing overhead. Every reported time is scaled to the
reference host speed that `pace.Pace` measures next to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from osqm import dynamics, oracle, regions, scenarios, transitions, weyl, wigner
from osqm.acceptance import Tolerances
from osqm.grid import ContainmentError, PhaseGrid

from pace import Pace
from tracing import SpanTable, Tracer

# Width of the band, in standard deviations, that seeded Born frequencies
# must fall in around the summed oracle probabilities.
BORN_SIGMAS = 3.0
# Smallest region probability at which an event counts as random for the
# frequency check; below it the count is a Poisson tail, not a normal one.
RANDOM_EVENT_MIN_PROB = 0.05
# Trajectories per block of the tail estimate. On slosh-oracle (about 1300
# trajectories a run) the value with 10 beyond it over the whole run spread
# by 24% between runs: it sits among sporadic slow trajectories whose count
# varies. The median over blocks leaves one burst of host jitter moving one
# block. Over five runs it spread by 22% per block of 250 (near p96) and by
# 15% per block of 100 (p90).
TAIL_BLOCK = 100

clock = time.perf_counter


@dataclass(frozen=True)
class SloshSpec:
    points: int = 256
    x_extent: float = 9.0
    x0: float = -4.2
    dt: float = np.pi / 64
    t_final: float = 4 * np.pi
    dt_proj: float = np.pi / 4
    # "exact": in "sqrt" mode about 3% of seeds raise the PS6 RuntimeError
    # (residual 1.4e-3 to 6.6e-3 against 1e-3), so operations would fail.
    projection_mode: str = "exact"
    setups: int = 5
    repeat: int = 16          # seeds re-run for the determinism digest


@dataclass(frozen=True)
class LvnSpec:
    points: int = 128
    x_extent: float = 9.0
    centre_max: float = 1.5
    t_final: float = np.pi
    dt: float = 0.005
    setups: int = 21


@dataclass(frozen=True)
class CompositeSpec:
    points: int = 32
    x_extent: float = 8.0
    cat_at: float = 2.0
    t_final: float = 0.2
    dt: float = 0.05
    pointer: tuple = (128, 18.0)
    observed: tuple = (32, 9.0)
    amplitudes: tuple = ((1 / np.sqrt(2), 1 / np.sqrt(2)), (0.6, 0.8))
    draws_per_call: int = 2000
    min_draws: int = 10000    # per amplitude pair, as in acceptance criterion 8
    setups: int = 3


@dataclass
class Context:
    """Seeded inputs, time budget, gates and the optional tracer of one run."""

    seed: int
    seconds: float
    tracer: Optional[Tracer] = None
    tol: Tolerances = field(default_factory=Tolerances)
    pace: Pace = field(default_factory=Pace)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def phases(self) -> list:
        """(traced, seconds) for each timed loop of the run."""
        if self.tracer is None:
            return [(False, self.seconds)]
        return [(False, self.seconds / 2), (True, self.seconds / 2)]

    def loop(self, seconds: float, min_count: int, step) -> None:
        """Call step(k) until `seconds` of step time and `min_count` calls,
        with reference-kernel bursts between steps."""
        self.pace.sample()
        busy = 0.0
        k = 0
        while k < min_count or busy < seconds:
            self.pace.tick()
            t0, b0 = clock(), self.pace.busy
            step(k)
            busy += clock() - t0 - (self.pace.busy - b0)
            k += 1
        self.pace.sample()

    @contextlib.contextmanager
    def op(self, label: str, traced: bool, scaled: bool = True):
        """Time one operation, less any reference bursts run inside it.

        Spans are tagged with `label` and recorded when `traced`; a traced
        operation takes no bursts inside, so they stay out of its spans.
        An operation that is not `scaled` reports raw seconds.
        """
        op = _Try(label, clock(), 0.0, scaled=scaled)
        b0 = self.pace.busy
        self.pace.inline = not traced
        with self.request(label, traced):
            yield op
        op.seconds = clock() - op.start - (self.pace.busy - b0)

    def factor(self, op) -> float:
        """Multiplier taking `op`'s seconds to the reference speed."""
        return self.pace.factor_at(op.start, op.seconds) if op.scaled else 1.0

    def median_factor(self, ops) -> float:
        return float(np.median([self.factor(op) for op in ops])) if ops else 1.0

    @contextlib.contextmanager
    def request(self, label: str, traced: bool):
        """Tag spans with `label`; record them only when `traced`."""
        if self.tracer is None:
            yield
            return
        self.tracer.request = label
        self.tracer.active = traced
        try:
            yield
        finally:
            self.tracer.active = False

    def draw_seed(self) -> int:
        return int(self.rng.integers(2 ** 31))


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int
    failed: int
    checks: dict              # name -> {"passed": bool, ...detail}
    metrics: dict             # end-to-end name -> value (untraced loop)
    layers: dict              # per-layer name -> value (traced runs only)
    details: dict
    digest: str

    @property
    def correct(self) -> bool:
        return all(c["passed"] for c in self.checks.values())


# ---------------------------------------------------------------------------
# shared pieces

@dataclass
class _Try:
    """One timed operation: a set-up or an attempted trajectory."""

    request: str
    start: float
    seconds: float
    ok: bool = True
    payload: object = None
    scaled: bool = True


def _timed_setups(ctx: Context, count: int, build):
    """Run `build` `count` times, with reference bursts around each.

    Returns the set-ups as timed operations and the last result.
    """
    setups = []
    result = None
    for k in range(count):
        ctx.pace.sample()
        with ctx.op(f"setup/{k}", traced=True) as op:
            result = build()
        setups.append(op)
    ctx.pace.sample()
    return setups, result


def _setup_s(ctx: Context, setups) -> float:
    return float(np.median([op.seconds * ctx.factor(op) for op in setups]))


def tail(samples) -> tuple[float, float, int]:
    """Tail time: the highest value with 10 samples beyond it, per block.

    Samples are cut, in run order, into blocks of at least TAIL_BLOCK; the
    median over blocks of each block's value with 10 beyond it is returned,
    with the percentile that value sits at in its block and the sample
    count. Below 11 samples the maximum is returned, as percentile 100.
    """
    xs = np.asarray(samples, dtype=float)
    n = len(xs)
    if n < 11:
        return float(xs.max()), 100.0, n
    blocks = np.array_split(xs, max(1, n // TAIL_BLOCK))
    value = float(np.median([np.sort(b)[-11] for b in blocks]))
    return value, 100.0 * (1 - 10 * len(blocks) / n), n


def _loop_metrics(ctx: Context, tries: list, per_try: int = 1) -> tuple[dict, dict]:
    """Trajectory metrics of one timed loop, at reference speed.

    Each try holds `per_try` trajectories. With none completed, the failed
    attempts are timed instead.
    """
    raw = np.array([t.seconds for t in tries])
    factors = np.array([ctx.factor(t) for t in tries])
    secs = raw * factors
    ok = np.array([t.ok for t in tries])
    timed = ok if ok.any() else np.ones_like(ok)
    per_traj = secs[timed] / per_try
    value, pct, n = tail(per_traj)
    return ({"trajectories_per_s": per_try * int(ok.sum()) / secs.sum(),
             "trajectory_p50_ms": 1e3 * float(np.median(per_traj)),
             "trajectory_tail_ms": 1e3 * value},
            {"tail_percentile": pct, "tail_samples": n,
             "raw_p50_ms": 1e3 * float(np.median(raw[timed])) / per_try,
             "factor_p50": float(np.median(factors))})


def _common_metrics(setup_s: float) -> dict:
    return {"setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _check(passed: bool, **detail) -> dict:
    return {"passed": bool(passed), **detail}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def born_frequency_z(chosen, probs) -> float:
    """|count - sum p| / sigma for independent draws with probabilities p."""
    chosen = np.asarray(chosen, dtype=float)
    probs = np.asarray(probs, dtype=float)
    var = float((probs * (1 - probs)).sum())
    dev = abs(chosen.sum() - probs.sum())
    if var == 0.0:
        return 0.0 if dev == 0.0 else np.inf
    return dev / np.sqrt(var)


def rk4_steps(t_final: float, dt: float) -> int:
    """Steps `evolve_lvn` takes to reach t_final: whole steps plus a remainder."""
    steps = int(np.floor(t_final / dt + 1e-12))
    if t_final - steps * dt >= 1e-12 * max(1.0, abs(t_final)):
        steps += 1
    return steps


def rhs_bytes_computed(grid: PhaseGrid, h: dynamics.Hamiltonian) -> int:
    """Bytes one LvN right-hand side reads and writes, computed, not measured.

    Model: each whole-array operation on the complex128 phase-space array
    reads it once and writes it once. Per call: the forward and inverse
    centred transforms take 3 passes per axis plus a cast and a real part;
    the accumulator takes a fill and a scale; each single-factor term takes
    7 passes for its twisted convolution (gather, twist, FFT, kernel, IFFT,
    roll, scatter, over both parity classes) plus scale and accumulate, and
    a product term applies each factor from both sides and subtracts.
    """
    ndim = 2 * grid.dof
    passes = (1 + 3 * ndim) + 1 + 1 + (3 * ndim + 1)
    for term in h.terms:
        f = len(term.factors)
        passes += (7 if f == 1 else 7 * 2 * f + 1) + 2
    nbytes = 16 * int(np.prod(grid.phase_shape))
    return 2 * nbytes * passes


def _max_err(w_a, w_b) -> float:
    return float(np.abs(w_a.values - w_b.values).max())


def _reference_wigner(psi, hmat, t_final):
    """Dense-oracle state at t_final as a Wigner function (check only)."""
    out = oracle.schrodinger_propagate(psi, hmat, t_final)
    return wigner.wigner_from_wavefunction(out, check_containment=False)


def _failed(op_failures: int, checks: dict, run_wide: tuple) -> int:
    """Failed operations plus one per failed run-wide check."""
    return op_failures + sum(not checks[name]["passed"] for name in run_wide)


def overhead(untraced: dict, traced: dict) -> float:
    """Traced minus untraced time per trajectory, as a share of untraced."""
    return untraced["trajectories_per_s"] / traced["trajectories_per_s"] - 1.0


# ---------------------------------------------------------------------------
# slosh-oracle

def _slosh_setup(spec: SloshSpec):
    grid = PhaseGrid.create(spec.points, spec.x_extent)
    h = scenarios.hamiltonian_preset(grid, "oscillator", {})
    partition = regions.build_partition(grid, [0.0])
    psi0 = wigner.coherent_state(grid, spec.x0, 0.0)
    engine = transitions.TrajectoryEngine(
        psi0, h, partition, t_final=spec.t_final, dt=spec.dt,
        schedule=transitions.ProjectionSchedule("periodic", dt_proj=spec.dt_proj),
        backend="oracle", projection_mode=spec.projection_mode)
    # the first trajectory's PS6 checks would otherwise decompose these lazily
    for region in partition.regions:
        region.operator().eigh()
    return engine


def _run_seed(engine, seed: int):
    try:
        return engine.run(seed), ""
    except RuntimeError as exc:      # PS6: post-projection state not quasirestricted
        return None, str(exc)


def _slosh_digest(seeds, results) -> str:
    parts = []
    for seed, (rec, err) in zip(seeds, results):
        if rec is None:
            parts.append((seed, "raised", err))
        else:
            parts.append((seed, rec.event_regions, rec.final_region))
            parts.append(np.ascontiguousarray(rec.prob_rows).tobytes())
    return _digest(*parts)


def slosh_oracle(ctx: Context, spec: SloshSpec = SloshSpec()) -> Outcome:
    setups, engine = _timed_setups(ctx, spec.setups, lambda: _slosh_setup(spec))
    labels = engine.partition.labels()
    tol = ctx.tol
    tries: list[_Try] = []
    loops = {}
    for traced, budget in ctx.phases():
        start = len(tries)

        def step(_):
            seed = ctx.draw_seed()
            req = f"traj/{len(tries)}"
            with ctx.op(req, traced) as op:
                rec, err = _run_seed(engine, seed)
            op.ok = rec is not None and max(rec.ps6_residuals, default=0.0) < tol.ps6_tol
            op.payload = (seed, rec, err)
            tries.append(op)

        ctx.loop(budget, spec.repeat if start == 0 else 1, step)
        loops[traced] = tries[start:]

    records = [t.payload[1] for t in tries if t.payload[1] is not None]
    raised = len(tries) - len(records)
    checks = {}
    worst = max((max(r.ps6_residuals, default=0.0) for r in records), default=0.0)
    checks["ps6_residuals"] = _check(worst < tol.ps6_tol, max_residual=worst,
                                     gate=tol.ps6_tol)
    rows = np.concatenate([r.prob_rows for r in records]) if records else np.zeros((0, 2))
    row_err = float(np.abs(rows.sum(axis=1) - 1).max()) if len(rows) else np.inf
    checks["born_rows_sum_to_1"] = _check(
        row_err < tol.povm_complete and bool((rows >= 0).all()),
        max_error=row_err, gate=tol.povm_complete)
    chosen, probs = [], []
    for rec in records:
        for k, row in enumerate(rec.prob_rows):
            if row.min() >= RANDOM_EVENT_MIN_PROB:
                chosen.append(rec.event_regions[k] == labels[1])
                probs.append(row[1])
                break
    z = born_frequency_z(chosen, probs)
    checks["first_random_event_frequency"] = _check(
        bool(chosen) and z <= BORN_SIGMAS, z=z, sigmas=BORN_SIGMAS,
        trajectories=len(chosen),
        frequency=float(np.mean(chosen)) if chosen else None,
        oracle_probability=float(np.mean(probs)) if probs else None)
    first = [t.payload for t in tries[:spec.repeat]]
    seeds = [seed for seed, _, _ in first]
    digest = _slosh_digest(seeds, [(rec, err) for _, rec, err in first])
    again = _slosh_digest(seeds, [_run_seed(engine, s) for s in seeds])
    checks["repeat_digest"] = _check(again == digest, digest=digest)

    attempted = len(tries)
    failed = _failed(sum(not t.ok for t in tries), checks,
                     ("born_rows_sum_to_1", "first_random_event_frequency",
                      "repeat_digest"))
    traj, detail = _loop_metrics(ctx, loops[False])
    metrics = {**_common_metrics(_setup_s(ctx, setups)), **traj,
               "evolve_s": traj["trajectory_p50_ms"] / 1e3}
    layers = {}
    if ctx.tracer is not None:
        traced = loops[True]
        done = [t.payload[1] for t in traced if t.payload[1] is not None]
        layers = layer_metrics(
            ctx, ctx.tracer.table(), setups, traced, [], len(traced),
            {"oracle.step_matvecs_per_trajectory":
                 float(np.mean([len(r.times) - 1 for r in done])) if done else 0.0,
             "trace.overhead_share": overhead(traj, _loop_metrics(ctx, traced)[0])})
    detail.update(trajectories=attempted, ps6_raised=raised)
    return Outcome(attempted, failed, checks, metrics, layers, detail, digest)


# ---------------------------------------------------------------------------
# lvn-oscillator

def _lvn_state(ctx: Context, spec: LvnSpec, grid: PhaseGrid):
    x0, p0 = ctx.rng.uniform(-spec.centre_max, spec.centre_max, 2)
    psi = wigner.coherent_state(grid, x0, p0)
    return psi, wigner.wigner_from_wavefunction(psi)


def _lvn_setup(ctx: Context, spec: LvnSpec):
    grid = PhaseGrid.create(spec.points, spec.x_extent)
    h = scenarios.hamiltonian_preset(grid, "oscillator", {})
    _lvn_state(ctx, spec, grid)
    return grid, h


def lvn_oscillator(ctx: Context, spec: LvnSpec = LvnSpec()) -> Outcome:
    setups, (grid, h) = _timed_setups(ctx, spec.setups, lambda: _lvn_setup(ctx, spec))
    hmat = weyl.weyl_operator_from_symbol(h.symbol())
    tol = ctx.tol
    tries: list[_Try] = []
    loops = {}
    for traced, budget in ctx.phases():
        start = len(tries)

        def step(_):
            req = f"traj/{len(tries)}"
            psi, w0 = _lvn_state(ctx, spec, grid)
            with ctx.op(req, traced) as op:
                try:
                    wt = dynamics.evolve_lvn(w0, h, spec.t_final, spec.dt)
                except (dynamics.EvolutionUnstableError, ContainmentError):
                    wt = None
            err = np.inf if wt is None else \
                _max_err(wt, _reference_wigner(psi, hmat, spec.t_final))
            op.ok = err < tol.dynamics_maxnorm
            op.payload = (err, None if wt is None else wt.values.tobytes())
            tries.append(op)

        with ctx.pace.hooked(dynamics.LvnPlan, "rhs"):
            ctx.loop(budget, 1, step)
        loops[traced] = tries[start:]

    errors = [t.payload[0] for t in tries]
    checks = {"dynamics_maxnorm": _check(all(t.ok for t in tries),
                                         max_error=max(errors),
                                         gate=tol.dynamics_maxnorm)}
    digest = _digest(tries[0].payload[1])
    attempted = len(tries)
    failed = _failed(sum(not t.ok for t in tries), checks, ())
    traj, detail = _loop_metrics(ctx, loops[False])
    metrics = {**_common_metrics(_setup_s(ctx, setups)), **traj,
               "evolve_s": traj["trajectory_p50_ms"] / 1e3}
    layers = {}
    if ctx.tracer is not None:
        traced = loops[True]
        reqs = [t.request for t in traced]
        table = ctx.tracer.table()
        layers = layer_metrics(
            ctx, table, setups, [], traced, len(traced),
            _dynamics_computed(table, reqs, grid, h, spec)
            | {"trace.overhead_share": overhead(traj, _loop_metrics(ctx, traced)[0])})
    detail.update(evolves=attempted, max_error=max(errors))
    return Outcome(attempted, failed, checks, metrics, layers, detail, digest)


def _dynamics_computed(table: SpanTable, evolves, grid, h, spec) -> dict:
    calls = int(table.select("dynamics.rhs", evolves).sum())
    useful = 4 * rk4_steps(spec.t_final, spec.dt) * len(evolves)
    return {"dynamics.useful_rhs_ratio": useful / calls if calls else 0.0,
            "dynamics.rhs_bytes_computed": float(rhs_bytes_computed(grid, h))}


# ---------------------------------------------------------------------------
# composite-measurement

def _composite_setup(spec: CompositeSpec):
    g1 = PhaseGrid.create(spec.points, spec.x_extent)
    grid = PhaseGrid.product(g1, g1)
    h = scenarios.hamiltonian_preset(grid, "von-neumann-coupling", {"v": 1.0, "w": 1.0})
    pointer = wigner.coherent_state(g1, 0.0, 0.0)
    cat = scenarios.initial_state_preset(
        g1, "cat", {"centers": [[-spec.cat_at, 0.0], [spec.cat_at, 0.0]]})
    psi = oracle.tensor_state(pointer, cat)
    w0 = wigner.wigner_from_wavefunction(psi)
    gp = PhaseGrid.create(*spec.pointer)
    go = PhaseGrid.create(*spec.observed)
    measurements = [scenarios.MeasurementScenario(gp, go, amplitudes=a)
                    for a in spec.amplitudes]
    return grid, h, psi, w0, measurements


def composite_measurement(ctx: Context,
                          spec: CompositeSpec = CompositeSpec()) -> Outcome:
    setups, (grid, h, psi, w0, measurements) = _timed_setups(
        ctx, spec.setups, lambda: _composite_setup(spec))
    tol = ctx.tol
    reference = _reference_wigner(psi, weyl.weyl_operator_from_symbol(h.symbol()),
                                  spec.t_final)
    evolves: list[_Try] = []
    calls: list[_Try] = []      # payload: (measurement index, run_ensemble output)
    loops = {}
    min_calls = -(-spec.min_draws // spec.draws_per_call) * len(measurements)
    for traced, budget in ctx.phases():
        e0, c0 = len(evolves), len(calls)

        def evolve(_):
            req = f"evolve/{len(evolves)}"
            # Reported raw: bursts taken inside this memory-bound evolution
            # were distorted by its cache traffic (their medians moved 1.5
            # times while the evolution held within 6%).
            with ctx.op(req, traced, scaled=False) as op:
                wt = dynamics.evolve_lvn(w0, h, spec.t_final, spec.dt, verify_dt=False)
            op.payload = _max_err(wt, reference)
            op.ok = op.payload < tol.dynamics_maxnorm
            evolves.append(op)

        def ensemble(k):
            which = k % len(measurements)
            req = f"ensemble/{len(calls)}"
            with ctx.op(req, traced) as op:
                out = measurements[which].run_ensemble(spec.draws_per_call,
                                                       base_seed=ctx.draw_seed())
            op.payload = (which, out)
            calls.append(op)

        ctx.loop(budget / 2, 1, evolve)
        ctx.loop(budget / 2, min_calls if c0 == 0 else 1, ensemble)
        loops[traced] = (evolves[e0:], calls[c0:])

    outs = [t.payload for t in calls]
    errors = [t.payload for t in evolves]
    checks = {"dynamics_maxnorm": _check(all(t.ok for t in evolves),
                                         max_error=max(errors),
                                         gate=tol.dynamics_maxnorm)}
    row_err = max(abs(sum(out["probabilities"].values()) - 1) for _, out in outs)
    checks["born_rows_sum_to_1"] = _check(row_err < tol.povm_complete,
                                          max_error=row_err, gate=tol.povm_complete)
    margins = []
    for which in range(len(measurements)):
        mine = [out for w, out in outs if w == which]
        draws = sum(out["num_seeds"] for out in mine)
        left = sum(out["counts"]["outcome-left"] for out in mine) / draws
        expected = mine[0]["expected"]["outcome-left"]
        margins.append({"frequency": left, "expected": expected, "draws": draws})
        checks[f"born_margin_{which}"] = _check(
            abs(left - expected) < tol.born_margin, gate=tol.born_margin, **margins[-1])
    worst = max(max(out["post_residuals"].values()) for _, out in outs)
    checks["ps6_residuals"] = _check(worst < tol.ps6_tol, max_residual=worst,
                                     gate=tol.ps6_tol)
    which, out = outs[0]
    digest = _digest(out["outcomes"], out["probabilities"])
    again = measurements[which].run_ensemble(out["num_seeds"], base_seed=out["base_seed"])
    checks["repeat_digest"] = _check(
        _digest(again["outcomes"], again["probabilities"]) == digest, digest=digest)

    draws = spec.draws_per_call * len(calls)
    attempted = len(evolves) + draws
    run_wide = tuple(name for name in checks if name != "dynamics_maxnorm")
    failed = _failed(sum(not t.ok for t in evolves), checks, run_wide)

    untraced_evolves, untraced_calls = loops[False]
    traj, detail = _loop_metrics(ctx, untraced_calls, spec.draws_per_call)
    evolve, evolve_detail = _loop_metrics(ctx, untraced_evolves)
    metrics = {**_common_metrics(_setup_s(ctx, setups)), **traj,
               "evolve_s": evolve["trajectory_p50_ms"] / 1e3}
    layers = {}
    if ctx.tracer is not None:
        traced_evolves, traced_calls = loops[True]
        evolve_reqs = [t.request for t in traced_evolves]
        table = ctx.tracer.table()
        traced_traj = _loop_metrics(ctx, traced_calls, spec.draws_per_call)[0]
        layers = layer_metrics(
            ctx, table, setups, traced_calls, traced_evolves,
            spec.draws_per_call * len(traced_calls),
            _dynamics_computed(table, evolve_reqs, grid, h, spec)
            | {"trace.overhead_share": overhead(traj, traced_traj)})
    detail.update(draws=draws, evolves=len(evolves), max_error=max(errors),
                  evolve_raw_s=evolve_detail["raw_p50_ms"] / 1e3,
                  evolve_factor=evolve_detail["factor_p50"],
                  born=margins)
    return Outcome(attempted, failed, checks, metrics, layers, detail, digest)


# ---------------------------------------------------------------------------
# per-layer metrics of the traced loop

def layer_metrics(ctx: Context, table: SpanTable, setup_ops, traced_ops, evolve_ops,
                  trajectories: int, computed: dict) -> dict:
    """Per-layer metrics; a layer the workload never reaches reads 0.

    Set-up metrics are totals per set-up (median over set-ups); the rest are
    medians over calls in the traced loop, or counts per trajectory.
    `evolve_ops` are the traced operations that each hold one `evolve_lvn`,
    `traced_ops` the others. Times are at reference speed, by the median
    factor of the operations they come from. `computed` supplies values
    derived rather than traced.
    """
    setup_scale = ctx.median_factor(setup_ops)
    evolve_scale = ctx.median_factor(evolve_ops)
    run_scale = ctx.median_factor(traced_ops) if traced_ops else evolve_scale
    setups = [op.request for op in setup_ops]
    evolves = [op.request for op in evolve_ops]
    timed = [op.request for op in traced_ops + evolve_ops]
    ms, us = 1e3 * run_scale, 1e6 * run_scale

    def per_setup(name, self_only=False, count=False):
        counts, totals = table.per_request(name, setups, self_only)
        return float(np.median(counts if count else totals * 1e3 * setup_scale))

    def p50(name, scale, self_only=False):
        return table.median(name, timed, self_only) * scale

    def per_trajectory(name):
        return float(table.select(name, timed).sum()) / trajectories

    rhs_per_evolve = table.per_request("dynamics.rhs", evolves)[0] if evolves else [0.0]
    return {
        "dynamics.rhs_calls": float(np.median(rhs_per_evolve)),
        "dynamics.rhs_self_ms_p50": p50("dynamics.rhs", 1e3 * evolve_scale, self_only=True),
        "dynamics.evolve_lvn_s": p50("dynamics.evolve_lvn", evolve_scale),
        "weyl.symbol_to_operator_ms": per_setup("weyl.symbol_to_operator"),
        "oracle.eigh_calls": per_setup("oracle.eigh", count=True),
        "oracle.eigh_ms": per_setup("oracle.eigh"),
        "regions.classicality_projectors_ms": per_setup("regions.classicality_projectors"),
        "regions.quasiprojector_operator_ms": per_setup("regions.quasiprojector_operator"),
        "regions.coherent_quadrature_ms": per_setup("regions.coherent_quadrature"),
        "scenarios.measurement_prepare_self_ms":
            per_setup("scenarios.measurement_prepare", self_only=True),
        "wigner.from_wavefunction_ms":
            table.median("wigner.from_wavefunction", setups) * 1e3 * setup_scale,
        "transitions.run_self_ms_p50": p50("transitions.run", ms, self_only=True),
        "transitions.events_per_trajectory": per_trajectory("transitions.sample_transition"),
        "transitions.born_weights_self_us_p50":
            p50("transitions.born_weights", us, self_only=True),
        "transitions.apply_quasiprojection_self_us_p50":
            p50("transitions.apply_quasiprojection", us, self_only=True),
        "regions.is_quasirestricted_calls": per_trajectory("regions.is_quasirestricted"),
        "regions.is_quasirestricted_self_us_p50":
            p50("regions.is_quasirestricted", us, self_only=True),
        "transitions.trajectory_rng_us_p50": p50("transitions.trajectory_rng", us),
        "transitions.sample_transition_us_p50": p50("transitions.sample_transition", us),
        "scenarios.evolved_ms": p50("scenarios.evolved", ms),
        "scenarios.band_probabilities_ms": p50("scenarios.band_probabilities", ms),
        "scenarios.run_ensemble_self_ms": p50("scenarios.run_ensemble", ms, self_only=True),
        "dynamics.useful_rhs_ratio": 0.0,
        "dynamics.rhs_bytes_computed": 0.0,
        "oracle.step_matvecs_per_trajectory": 0.0,
        **computed,
    }


WORKLOADS = {
    "slosh-oracle": slosh_oracle,
    "lvn-oscillator": lvn_oscillator,
    "composite-measurement": composite_measurement,
}
