"""Timings of two checkouts: one figure per row of `CASES`, and `osqm regress`.

    python tools/lvn_step_bench.py --parent OLD --change NEW --runs 5 --out BENCH.json

OLD and NEW are checkouts of this repository. Each run measures one checkout
in a fresh process, and the runs alternate which checkout goes first. BLAS
threads are pinned to 1. The file holds every run and, per case, the median
over runs and the change/parent ratio of the medians, grouped as `GROUPS`.

One loop times every case. Its factory builds the inputs, one call runs
untimed, then each batch times `calls` calls; where a case has a `prepare`,
it runs untimed before the untimed call and before each batch. A run's
figure is the median over batches of the mean time per call in the unit of
the case's group; a call of `DRAWS` Born draws or seeds counts as that many.

- oscillator-N: one `LvnPlan.step` on a state kept in its first term's mixed
  representation, on the oscillator at N = 64, 128, 256 (extent 9, dt
  0.005); three-term-32x32: on a dof-2 three-term H (extent 8, dt 0.05).
- exact-32x32: the composite-measurement workload's `evolve_lvn` call on its
  set-up; exact-free-N: one exact-path `evolve_lvn` of the free particle
  to t 1 at N = 64, 128, 256 (extent 9), whose half-cell shifts are one
  matrix product at 64 and FFT pairs above `spectral.GEMM_MAX`;
  one-step-N: one dt 0.005 call of the oscillator at N, as the phase
  backend's continuous schedule makes it. exact-after-setup: exact-32x32
  first in its process, after the workload's three set-ups and dense
  reference step, whose arrays stay alive and decide where the evolution's
  buffers land: a cost that depends on memory placement.
- born-draws: `MeasurementScenario.run_ensemble` on acceptance criterion 8's
  scenario, with its shared evolution and post-state checks.
- slosh-2000: one `transitions.run_ensemble` call on a fresh slosh-oracle
  engine; slosh-runs-2000: one `engine.run(seed)` per seed, the memoised
  path that workload times.
- eigh-*-256: a fresh `OperatorMatrix.eigh` of the oscillator's oracle H,
  or of the quantised Wigner function of a coherent state (N = 256).
  unitary-oscillator-256: `OperatorMatrix.unitary(pi / 4)` on that H's
  cached decomposition, one of the propagators a slosh-oracle set-up builds.
- region-*: a fresh partition's first region: its quasiprojector, root and
  PS6 split. half-line-N: x < 0 at N = 256 (hbar 1) and 1024 (hbar 1/4), as
  an engine set-up builds it; cell-256: x < 0, p < 0, a quadrature and an
  `eigh`.
- slosh-setup, composite-setup: those workloads' set-ups, from
  bench/workloads.py; chord-wigner-32x32, weyl-op-32x32: the Weyl maps of
  the composite set-up's state and Hamiltonian; weyl-symbol-32x32: that
  operator's symbol; chord-wigner-256: the Wigner function of the N = 256
  oscillator's coherent state; weyl-op-256: that oscillator's H to an
  operator, the dof-1 map that the slosh-oracle set-up and each
  phase-backend event run.
- star-product-64: `moyal_product` of two Gaussian symbols at N = 64, as the
  package exports it: `osqm.weyl.moyal_product`, Sym(Op(a) Op(b)), and the
  twisted convolution of `osqm.moyal` in a checkout that still has it.
- pace-reference: one bench/pace.py `Pace().reference_kernel()` burst. It
  calls nothing in osqm, so it shows how fast the host ran.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# before numpy loads (only functions import it); the checkouts' runs inherit it
os.environ.update(THREADS)
BENCH = Path(__file__).resolve().parents[1] / "bench"
DRAWS = 2000  # Born draws per born-draws call, seeds per slosh call


def _ms(seconds: float) -> float:
    return seconds * 1e3


# group: (what its figures are, seconds per call -> figure)
GROUPS = {
    "lvn_step_ms": ("ms per LvnPlan split step", _ms),
    "evolve_lvn_ms": ("ms per evolve_lvn call", _ms),
    "born_draw_us": ("us per Born draw of MeasurementScenario.run_ensemble",
                     lambda seconds: seconds * 1e6),
    "ensemble_seeds_per_s": ("seeds/s of transitions.run_ensemble and of engine.run",
                             lambda seconds: 1 / seconds),
    "eigh_ms": ("ms per fresh OperatorMatrix.eigh", _ms),
    "unitary_ms": ("ms per OperatorMatrix.unitary on a cached eigendecomposition", _ms),
    "region_build_ms": ("ms per region build (operator, root, PS6 split)", _ms),
    "setup_ms": ("ms per slosh-oracle and per composite-measurement set-up", _ms),
    "weyl_map_ms": ("ms per Weyl map, on the composite's 32 x 32 inputs or at N = 256",
                    _ms),
    "star_product_ms": ("ms per moyal_product at N = 64", _ms),
    "pace_ms": ("ms per bench/pace.py reference burst", _ms),
}


class Timed(NamedTuple):
    """A factory's timed call, its untimed prepare, and the draws or seeds per call."""

    call: Callable[[], object]
    prepare: Optional[Callable[[], None]] = None
    units: int = 1


class Case(NamedTuple):
    group: str
    factory: Callable[[], Timed]
    calls: int  # per batch
    batches: int


def _bench(module: str):
    """A module of bench/, imported as the benchmark imports it."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    return importlib.import_module(module)


def _slosh():
    """A fresh slosh-oracle engine, as that workload's set-up builds it."""
    workloads = _bench("workloads")
    return workloads._slosh_setup(workloads.SloshSpec())


def _composite():
    """(grid, h, psi, w0, measurements) of a fresh composite-measurement set-up."""
    workloads = _bench("workloads")
    return workloads._composite_setup(workloads.CompositeSpec())


def _oscillator(points: int):
    """(grid, h, coherent state at (1.0, 0.3)) of the oscillator at N = points."""
    from osqm import scenarios, wigner
    from osqm.grid import PhaseGrid

    grid = PhaseGrid.create(points, 9.0)
    return (grid, scenarios.hamiltonian_preset(grid, "oscillator", {}),
            wigner.coherent_state(grid, 1.0, 0.3))


def _step(points: int) -> Timed:
    """LvnPlan.step of the oscillator at N = points, or if 0 of a dof-2 three-term H."""
    import numpy as np
    from osqm import dynamics, oracle, wigner
    from osqm.grid import PhaseGrid

    if points:
        (grid, h, psi), dt = _oscillator(points), 0.005
    else:
        g1 = PhaseGrid.create(32, 8.0)
        grid, term = PhaseGrid.product(g1, g1), dynamics.HamiltonianTerm
        h = dynamics.Hamiltonian(grid, [
            term((("p", 1, lambda p: p ** 2 / 2),)), term((("x", 1, lambda x: x ** 2 / 2),)),
            term((("p", 0, lambda p: p), ("x", 1, np.tanh)), coefficient=0.8)])
        psi = oracle.tensor_state(wigner.coherent_state(g1, 0.0, 0.0),
                                  wigner.coherent_state(g1, -1.0, 0.0))
        dt = 0.05
    plan = dynamics.LvnPlan(grid, h)
    state = plan.enter(wigner.wigner_from_wavefunction(psi).values)

    def step():
        nonlocal state
        state = plan.step(*state, dt)
    return Timed(step)


def _one_step(points: int) -> Timed:
    from osqm import dynamics, wigner

    _, h, psi = _oscillator(points)
    w = wigner.wigner_from_wavefunction(psi)
    return Timed(lambda: dynamics.evolve_lvn(w, h, 0.005, 0.005, verify_dt=False))


def _exact(after_setup: bool) -> Timed:
    """The composite workload's evolve_lvn; after_setup: after its set-ups and
    its reference step, in its order, their arrays alive while timed."""
    from osqm import dynamics, weyl

    workloads = _bench("workloads")
    spec = workloads.CompositeSpec()
    for _ in range(spec.setups if after_setup else 1):
        _, h, psi, w0, measurements = workloads._composite_setup(spec)
    alive = (measurements, workloads._reference_wigner(
        psi, weyl.weyl_operator_from_symbol(h.symbol()), spec.t_final)) if after_setup else ()

    def call(alive=alive):
        return dynamics.evolve_lvn(w0, h, spec.t_final, spec.dt, verify_dt=False)
    return Timed(call)


def _exact_free(points: int) -> Timed:
    """One evolve_lvn of the free particle to t 1 at N = points (extent 9)."""
    from osqm import dynamics, scenarios, wigner
    from osqm.grid import PhaseGrid

    grid = PhaseGrid.create(points, 9.0)
    h = scenarios.hamiltonian_preset(grid, "free", {})
    w = wigner.wigner_from_wavefunction(wigner.coherent_state(grid, 1.0, 0.3))
    return Timed(lambda: dynamics.evolve_lvn(w, h, 1.0, 0.005))


def _born_draws() -> Timed:
    from osqm.grid import PhaseGrid
    from osqm.scenarios import MeasurementScenario

    # the default amplitudes are the equal pair
    sc = MeasurementScenario(PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0))
    seeds = itertools.count()
    return Timed(lambda: sc.run_ensemble(DRAWS, base_seed=next(seeds)), units=DRAWS)


def _slosh_ensemble(runs: bool) -> Timed:
    """DRAWS new seeds per call on a fresh slosh-oracle engine: one engine.run
    per seed if runs, else one transitions.run_ensemble call."""
    from osqm.transitions import run_ensemble

    engine, calls = None, itertools.count()

    def prepare():
        nonlocal engine
        engine = _slosh()  # fresh: no earlier call's runs are cached

    def call():
        first = next(calls) * DRAWS
        seeds = range(first, first + DRAWS)
        if runs:
            for seed in seeds:
                engine.run(seed)
        else:
            run_ensemble(engine, seeds)
    return Timed(call, prepare, DRAWS)


def _eigh(operator: str) -> Timed:
    from osqm import weyl, wigner

    _, h, psi = _oscillator(256)
    op = weyl.weyl_operator_from_symbol(h.symbol() if operator == "oscillator"
                                        else wigner.wigner_from_wavefunction(psi).as_symbol())

    def call():
        op._eig = None  # decompose afresh, not from the cache
        op.eigh()
    return Timed(call)


def _unitary() -> Timed:
    import math
    from osqm import weyl

    op = weyl.weyl_operator_from_symbol(_oscillator(256)[1].symbol())
    op.eigh()
    return Timed(partial(op.unitary, math.pi / 4))


def _region_build(points: int, p_cuts, at: tuple) -> Timed:
    """The first region of a fresh partition cut at x = 0 and p_cuts: its
    operator, root and PS6 split on the coherent state at `at`."""
    from osqm import regions, wigner
    from osqm.grid import PhaseGrid

    grid = PhaseGrid.create(points, 9.0, 256 / points)
    v = wigner.coherent_state(grid, *at).to_vector()

    def build():
        region = regions.build_partition(grid, [0.0], p_cuts).regions[0]
        region.sqrt_operator()
        regions.is_quasirestricted(v, region)
    return Timed(build)


def _weyl_map(which: str) -> Timed:
    """chord: the composite set-up's state to W; op: its H to an operator;
    symbol: that operator back; chord-256, op-256: the N = 256 oscillator's
    state to W, its H to an operator."""
    from osqm import weyl, wigner

    if which == "chord-256":
        return Timed(partial(wigner.wigner_from_wavefunction, _oscillator(256)[2]))
    if which == "op-256":
        return Timed(partial(weyl.weyl_operator_from_symbol, _oscillator(256)[1].symbol()))
    _, h, psi, _, _ = _composite()
    if which == "chord":
        return Timed(partial(wigner.wigner_from_wavefunction, psi))
    if which == "op":
        return Timed(partial(weyl.weyl_operator_from_symbol, h.symbol()))
    op = weyl.weyl_operator_from_symbol(h.symbol())
    return Timed(partial(weyl.weyl_symbol_from_operator, op))


def _star_product() -> Timed:
    import numpy as np
    from osqm import moyal_product
    from osqm.grid import PhaseGrid
    from osqm.weyl import WeylSymbol

    grid = PhaseGrid.create(64, 9.0)
    x, p = grid.phase_mesh()
    a, b = (WeylSymbol(grid, np.exp(-((x - c) ** 2 + (p + c) ** 2) / 2)) for c in (0.5, -0.5))
    return Timed(partial(moyal_product, a, b))


CASES = {
    # first: its figure depends on what ran before it in the process
    "exact-after-setup": Case("evolve_lvn_ms", partial(_exact, True), 5, 9),
    "oscillator-64": Case("lvn_step_ms", partial(_step, 64), 100, 9),
    "oscillator-128": Case("lvn_step_ms", partial(_step, 128), 50, 9),
    "oscillator-256": Case("lvn_step_ms", partial(_step, 256), 20, 9),
    "three-term-32x32": Case("lvn_step_ms", partial(_step, 0), 3, 7),
    "exact-32x32": Case("evolve_lvn_ms", partial(_exact, False), 5, 9),
    "exact-free-64": Case("evolve_lvn_ms", partial(_exact_free, 64), 100, 9),
    "exact-free-128": Case("evolve_lvn_ms", partial(_exact_free, 128), 50, 9),
    "exact-free-256": Case("evolve_lvn_ms", partial(_exact_free, 256), 20, 9),
    "one-step-64": Case("evolve_lvn_ms", partial(_one_step, 64), 50, 9),
    "one-step-128": Case("evolve_lvn_ms", partial(_one_step, 128), 20, 9),
    "one-step-256": Case("evolve_lvn_ms", partial(_one_step, 256), 10, 9),
    "born-draws": Case("born_draw_us", _born_draws, 1, 9),
    "slosh-2000": Case("ensemble_seeds_per_s", partial(_slosh_ensemble, False), 1, 5),
    "slosh-runs-2000": Case("ensemble_seeds_per_s", partial(_slosh_ensemble, True), 1, 5),
    "eigh-oscillator-256": Case("eigh_ms", partial(_eigh, "oscillator"), 5, 9),
    "eigh-pure-state-256": Case("eigh_ms", partial(_eigh, "pure-state"), 5, 9),
    "unitary-oscillator-256": Case("unitary_ms", _unitary, 10, 9),
    "region-half-line-256": Case("region_build_ms",
                                 partial(_region_build, 256, None, (-4.2, 0.0)), 5, 9),
    "region-half-line-1024": Case("region_build_ms",
                                  partial(_region_build, 1024, None, (-4.2, 0.0)), 1, 7),
    "region-cell-256": Case("region_build_ms",
                            partial(_region_build, 256, [0.0], (-3.0, -3.0)), 3, 7),
    "slosh-setup": Case("setup_ms", lambda: Timed(_slosh), 1, 7),
    "composite-setup": Case("setup_ms", lambda: Timed(_composite), 1, 5),
    "chord-wigner-32x32": Case("weyl_map_ms", partial(_weyl_map, "chord"), 3, 7),
    "chord-wigner-256": Case("weyl_map_ms", partial(_weyl_map, "chord-256"), 50, 9),
    "weyl-op-32x32": Case("weyl_map_ms", partial(_weyl_map, "op"), 3, 7),
    "weyl-symbol-32x32": Case("weyl_map_ms", partial(_weyl_map, "symbol"), 3, 7),
    "weyl-op-256": Case("weyl_map_ms", partial(_weyl_map, "op-256"), 20, 9),
    "star-product-64": Case("star_product_ms", _star_product, 5, 9),
    "pace-reference": Case("pace_ms", lambda: Timed(_bench("pace").Pace().reference_kernel),
                           5, 9),
}


def _time(case: Case) -> float:
    """A case's figure: the median over batches of its group's unit per call."""
    timed = case.factory()
    prepare = timed.prepare or (lambda: None)
    prepare()
    timed.call()  # untimed: warms the FFT plans and the tables a case keeps
    figures = []
    for _ in range(case.batches):
        prepare()
        start = time.perf_counter()
        for _ in range(case.calls):
            timed.call()
        seconds = (time.perf_counter() - start) / (case.calls * timed.units)
        figures.append(GROUPS[case.group][1](seconds))
    return statistics.median(figures)


def measure() -> dict:
    """Every case's figure, in CASES order, for the osqm on sys.path."""
    return {name: _time(case) for name, case in CASES.items()}


def _child(tree: Path, *args: str) -> str:
    """stdout of a Python command on tree's osqm; its stderr in the error if it fails."""
    res = subprocess.run([sys.executable, *args],
                         env={**os.environ, "PYTHONPATH": str(tree / "src")},
                         capture_output=True, text=True)
    if res.returncode:
        raise RuntimeError(f"{' '.join(args)} on {tree} exited with status "
                           f"{res.returncode}:\n{res.stderr}")
    return res.stdout


def _run_regress(tree: Path) -> dict:
    """report.json seconds per criterion, and the wall time of the command."""
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        _child(tree, "-m", "osqm", "regress", "--out-dir", out)
        wall = time.perf_counter() - start
        report = json.loads((Path(out) / "report.json").read_text())
    if not all(r["passed"] for r in report):
        raise RuntimeError(f"osqm regress failed in {tree}")
    return {"wall": wall, **{str(r["criterion"]): r["seconds"] for r in report}}


def _medians(runs: list) -> dict:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def _commit(tree: Path):
    res = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--measure", action="store_true",
                        help="print this checkout's figure of every case as JSON")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not (args.parent and args.change and args.out) or args.runs < 1:
        parser.error("--parent, --change, --out and --runs >= 1 are required")
    trees = {"parent": args.parent, "change": args.change}
    measured = {side: [] for side in trees}
    regress = {side: [] for side in trees}
    for run in range(args.runs):
        order = list(trees) if run % 2 == 0 else list(reversed(trees))
        for side in order:
            measured[side].append(json.loads(_child(trees[side], __file__, "--measure")))
            regress[side].append(_run_regress(trees[side]))
    medians = {side: _medians(measured[side]) for side in trees}

    def cases(group):
        return {name: {"parent": medians["parent"][name],
                       "change": medians["change"][name],
                       "ratio": medians["change"][name] / medians["parent"][name],
                       "runs": {side: [r[name] for r in measured[side]] for side in trees}}
                for name, case in CASES.items() if case.group == group}

    result = {
        "what": "; ".join([what for what, _ in GROUPS.values()]
                          + ["osqm regress seconds per criterion"]),
        "host": _host(),
        "threads": THREADS,
        "runs": args.runs,
        "order": "alternating; run k measures the parent first when k is even",
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        **{group: cases(group) for group in GROUPS},
        "regress_seconds": {
            "timer": "each checkout's own acceptance.run_regression_suite",
            "median": {side: _medians(regress[side]) for side in trees},
            "runs": regress},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
