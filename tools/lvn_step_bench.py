"""Timings of two checkouts: LvN steps and calls, Born draws, ensembles,
Hermitian eigendecompositions, region builds, Weyl maps, set-ups and
`osqm regress`.

    python tools/lvn_step_bench.py --parent OLD --change NEW --runs 5 --out BENCH.json

OLD and NEW are checkouts of this repository. Each run measures one checkout
in a fresh process, and the runs alternate which checkout goes first. BLAS
threads are pinned to 1. The file holds every run and, per case, the median
over runs and the change/parent ratio of the medians.

A step is one `LvnPlan.step` on a state that stays in its first term's
mixed representation, as `evolve_lvn` takes it between steps: the dof-1
oscillator at N = 64, 128 and 256 (extent 9, dt 0.005, the lvn-oscillator
workload's) and a dof-2 three-term Hamiltonian on 32 x 32 (extent 8, dt
0.05). A run's figure for a case is the median over batches of the mean
time per step of a batch.

A call is one whole `evolve_lvn` call, repeated on one Hamiltonian and one
state, as the phase backend and the composite-measurement workload repeat
it: exact-32x32 is that workload's evolution (the one-term
von-neumann-coupling on 32 x 32, extent 8, to t 0.2 at dt 0.05), and
one-step-N is one dt 0.005 step of the oscillator at N = 64, 128 and 256
(extent 9), as the phase backend's continuous schedule takes it, both with
verify_dt=False. A run's figure for a case is the median over batches of the
mean time per call of a batch, after one untimed call.

The born-draws case is one `MeasurementScenario.run_ensemble` call on
acceptance criterion 8's scenario (pointer grid 128 points, extent 18;
observed grid 32, extent 9; equal amplitudes), including its shared
evolution and post-state checks. A run's figure is the median over calls of
the call's time divided by its draws.

The slosh-2000 case is one `transitions.run_ensemble` call of 2000 seeds on
the slosh-oracle workload's engine (oscillator, N = 256, extent 9, coherent
state at x -4.2, t_final 4 pi, dt pi/64, periodic dt_proj pi/4, exact mode).
The slosh-runs-2000 case runs 2000 seeds on that engine as 2000 sequential
`engine.run(seed)` calls, the memoised path the slosh-oracle workload
times. Each call or loop gets a freshly built engine and its own seeds, and
only the call or loop is timed. A run's figure is the median over calls or
loops of the seeds per second.

An eigh case is one `OperatorMatrix.eigh` that decomposes afresh (the cached
decomposition is dropped before each call) on one of the program's own
Hermitian operators: eigh-oscillator-256 is the oracle H of the oscillator
(N = 256, extent 9), and eigh-pure-state-256 the quantised Wigner function of
the coherent state at (1.0, 0.3) on that grid, as the phase backend's rank-1
gate decomposes it. A run's figure is the median over batches of the mean ms
per call of a batch, after one untimed call.

A region case builds the partition cut at x = 0 afresh and, for its x < 0
region, the quasiprojector, its root and its PS6 split (one
`regions.is_quasirestricted` call on the coherent state at (-4.2, 0)), as an
engine set-up does: region-half-line-256 at N = 256 and hbar 1,
region-half-line-1024 at N = 1024 and hbar 1/4, both at extent 9. A run's
figure is the median over batches of the mean ms per build of a batch, after
one untimed build.

The slosh-setup case builds the slosh-oracle workload's engine afresh (grid,
oscillator Hamiltonian, half-line partition, coherent state, exact-mode
TrajectoryEngine) and decomposes both region operators, as that workload's
set-up does. The composite-setup case builds the composite-measurement
workload's set-up afresh: the von-neumann-coupling Hamiltonian on 32 x 32
(extent 8), the pointer coherent state (x) the cat at -2 and 2, its Wigner
function, and the two MeasurementScenarios on acceptance criterion 8's
grids with amplitudes (1/sqrt 2, 1/sqrt 2) and (0.6, 0.8). A run's figure
for a set-up case is the median ms over builds after one untimed build.

A map case is one Hilbert <-> phase-space map on that workload's 32 x 32
inputs: chord-wigner-32x32 is wigner_from_wavefunction of its pointer (x)
cat state, weyl-op-32x32 is weyl_operator_from_symbol of its coupling
Hamiltonian's symbol. A run's figure is the median over batches of the mean
ms per call of a batch, after one untimed call.

The exact-after-setup case is exact-32x32 timed as the composite-measurement
workload times it: first in its process, after three composite set-ups and
the workload's dense reference step (the state propagated by the oracle H
and transformed to a Wigner function), on the last set-up's Hamiltonian and
state. The arrays those leave behind decide where the evolution's buffers
land, so this case shows a cost that depends on memory placement, which
exact-32x32, timed in a process that has run only LvN steps, may not. A
run's figure is as for exact-32x32.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# case: (steps per batch, batches)
BATCHES = {"oscillator-64": (100, 9), "oscillator-128": (50, 9),
           "oscillator-256": (20, 9), "three-term-32x32": (3, 7)}
# case: (evolve_lvn calls per batch, batches)
CALLS = {"exact-32x32": (5, 9), "one-step-64": (50, 9), "one-step-128": (20, 9),
         "one-step-256": (10, 9)}
# case: (draws per run_ensemble call, calls)
DRAWS = {"born-draws": (2000, 9)}
# case: (seeds per timed call or loop, calls or loops); slosh-2000 makes one
# transitions.run_ensemble call, slosh-runs-2000 one engine.run per seed
ENSEMBLES = {"slosh-2000": (2000, 5), "slosh-runs-2000": (2000, 5)}
# case: (eigh calls per batch, batches)
EIGHS = {"eigh-oscillator-256": (5, 9), "eigh-pure-state-256": (5, 9)}
# case: (region builds per batch, batches)
REGION_BUILDS = {"region-half-line-256": (5, 9), "region-half-line-1024": (1, 7)}
# case: timed builds
SETUPS = {"slosh-setup": 7, "composite-setup": 5}
# case: (map calls per batch, batches)
MAPS = {"chord-wigner-32x32": (3, 7), "weyl-op-32x32": (3, 7)}
# case: (composite set-ups before it, evolve_lvn calls per batch, batches)
AFTER_SETUP = {"exact-after-setup": (3, 5, 9)}


def _case(name: str):
    """(plan, state, dt) of a named case, built from the osqm on sys.path."""
    import numpy as np
    from osqm import dynamics
    from osqm.dynamics import Hamiltonian, HamiltonianTerm
    from osqm.grid import PhaseGrid
    from osqm.oracle import tensor_state
    from osqm.scenarios import hamiltonian_preset
    from osqm.wigner import coherent_state, wigner_from_wavefunction

    if name.startswith("oscillator-"):
        grid = PhaseGrid.create(int(name.split("-")[1]), 9.0)
        h = hamiltonian_preset(grid, "oscillator", {})
        psi, dt = coherent_state(grid, 1.0, 0.3), 0.005
    else:
        g1 = PhaseGrid.create(32, 8.0)
        grid = PhaseGrid.product(g1, g1)
        h = Hamiltonian(grid, [
            HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),)),
            HamiltonianTerm((("x", 1, lambda x: x ** 2 / 2),)),
            HamiltonianTerm((("p", 0, lambda p: p), ("x", 1, np.tanh)),
                            coefficient=0.8),
        ])
        psi = tensor_state(coherent_state(g1, 0.0, 0.0), coherent_state(g1, -1.0, 0.0))
        dt = 0.05
    plan = dynamics.LvnPlan(grid, h)
    return plan, plan.enter(wigner_from_wavefunction(psi).values), dt


def measure_steps() -> dict:
    """ms per split step of each case, for the osqm on sys.path."""
    out = {}
    for name, (steps, batches) in BATCHES.items():
        plan, state, dt = _case(name)
        for _ in range(3):  # warm the FFT plans and the exp tables
            state = plan.step(*state, dt)
        per_step = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(steps):
                state = plan.step(*state, dt)
            per_step.append((time.perf_counter() - start) / steps * 1e3)
        out[name] = statistics.median(per_step)
    return out


def _call_case(name: str):
    """(w, h, t_final, dt) of a named evolve_lvn case."""
    from osqm.grid import PhaseGrid
    from osqm.oracle import tensor_state
    from osqm.scenarios import hamiltonian_preset, initial_state_preset
    from osqm.wigner import coherent_state, wigner_from_wavefunction

    if name.startswith("one-step-"):
        grid = PhaseGrid.create(int(name.split("-")[2]), 9.0)
        h = hamiltonian_preset(grid, "oscillator", {})
        return wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3)), h, 0.005, 0.005
    g1 = PhaseGrid.create(32, 8.0)
    h = hamiltonian_preset(PhaseGrid.product(g1, g1), "von-neumann-coupling",
                           {"v": 1.0, "w": 1.0})
    cat = initial_state_preset(g1, "cat", {"centers": [[-2.0, 0.0], [2.0, 0.0]]})
    w = wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0), cat))
    return w, h, 0.2, 0.05


def measure_calls() -> dict:
    """ms per evolve_lvn call of each case, for the osqm on sys.path."""
    from osqm.dynamics import evolve_lvn

    out = {}
    for name, (calls, batches) in CALLS.items():
        w, h, t_final, dt = _call_case(name)
        # untimed: warms the FFT plans and builds the tables a Hamiltonian keeps
        evolve_lvn(w, h, t_final, dt, verify_dt=False)
        per_call = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                evolve_lvn(w, h, t_final, dt, verify_dt=False)
            per_call.append((time.perf_counter() - start) / calls * 1e3)
        out[name] = statistics.median(per_call)
    return out


def measure_draws() -> dict:
    """us per Born draw of run_ensemble, for the osqm on sys.path."""
    from osqm.grid import PhaseGrid
    from osqm.scenarios import MeasurementScenario

    out = {}
    for name, (draws, calls) in DRAWS.items():
        # the default amplitudes are the equal pair
        sc = MeasurementScenario(PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0))
        sc.run_ensemble(draws)  # warm the FFT plans
        per_draw = []
        for call in range(calls):
            start = time.perf_counter()
            sc.run_ensemble(draws, base_seed=call)
            per_draw.append((time.perf_counter() - start) / draws * 1e6)
        out[name] = statistics.median(per_draw)
    return out


def _slosh_engine():
    """A freshly built slosh-oracle engine, with both region operators decomposed."""
    import numpy as np
    from osqm import regions, scenarios, wigner
    from osqm.grid import PhaseGrid
    from osqm.transitions import ProjectionSchedule, TrajectoryEngine

    grid = PhaseGrid.create(256, 9.0)
    h = scenarios.hamiltonian_preset(grid, "oscillator", {})
    partition = regions.build_partition(grid, [0.0])
    engine = TrajectoryEngine(wigner.coherent_state(grid, -4.2, 0.0), h, partition,
                              4 * np.pi, np.pi / 64, ProjectionSchedule("periodic", np.pi / 4),
                              projection_mode="exact")
    for region in partition.regions:
        region.operator().eigh()
    return engine


def measure_ensembles() -> dict:
    """seeds/s of transitions.run_ensemble and of engine.run, for the osqm on sys.path."""
    from osqm.transitions import run_ensemble

    out = {}
    for name, (seeds, calls) in ENSEMBLES.items():
        rates = []
        for call in range(calls):
            # fresh: no earlier call's runs are cached in the engine
            engine = _slosh_engine()
            batch = range(call * seeds, (call + 1) * seeds)
            start = time.perf_counter()
            if name == "slosh-runs-2000":
                for seed in batch:
                    engine.run(seed)
            else:
                run_ensemble(engine, batch)
            rates.append(seeds / (time.perf_counter() - start))
        out[name] = statistics.median(rates)
    return out


def _eigh_case(name: str):
    """The OperatorMatrix of a named eigh case."""
    from osqm import scenarios
    from osqm.grid import PhaseGrid
    from osqm.weyl import weyl_operator_from_symbol
    from osqm.wigner import coherent_state, wigner_from_wavefunction

    grid = PhaseGrid.create(256, 9.0)
    if name == "eigh-oscillator-256":
        h = scenarios.hamiltonian_preset(grid, "oscillator", {})
        return weyl_operator_from_symbol(h.symbol())
    w = wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3))
    return weyl_operator_from_symbol(w.as_symbol())


def measure_eighs() -> dict:
    """ms per fresh OperatorMatrix.eigh of each case, for the osqm on sys.path."""
    out = {}
    for name, (calls, batches) in EIGHS.items():
        op = _eigh_case(name)
        op.eigh()  # untimed
        per_call = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                op._eig = None  # decompose afresh, not from the cache
                op.eigh()
            per_call.append((time.perf_counter() - start) / calls * 1e3)
        out[name] = statistics.median(per_call)
    return out


def _region_build(grid, v):
    """Build the x < 0 region of a fresh x = 0 cut: operator, root, PS6 split."""
    from osqm import regions

    region = regions.build_partition(grid, [0.0]).regions[0]
    region.sqrt_operator()
    regions.is_quasirestricted(v, region)


def measure_region_builds() -> dict:
    """ms per x < 0 region build of each case, for the osqm on sys.path."""
    from osqm.grid import PhaseGrid
    from osqm.wigner import coherent_state

    out = {}
    for name, (builds, batches) in REGION_BUILDS.items():
        points = int(name.rsplit("-", 1)[1])
        grid = PhaseGrid.create(points, 9.0, 256 / points)
        v = coherent_state(grid, -4.2, 0.0).to_vector()
        _region_build(grid, v)  # untimed
        per_build = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(builds):
                _region_build(grid, v)
            per_build.append((time.perf_counter() - start) / builds * 1e3)
        out[name] = statistics.median(per_build)
    return out


def _composite_setup():
    """(h, psi, w, measurements) of a freshly built composite-measurement set-up."""
    import numpy as np
    from osqm import oracle, scenarios, wigner
    from osqm.grid import PhaseGrid

    g1 = PhaseGrid.create(32, 8.0)
    h = scenarios.hamiltonian_preset(PhaseGrid.product(g1, g1), "von-neumann-coupling",
                                     {"v": 1.0, "w": 1.0})
    cat = scenarios.initial_state_preset(g1, "cat", {"centers": [[-2.0, 0.0], [2.0, 0.0]]})
    psi = oracle.tensor_state(wigner.coherent_state(g1, 0.0, 0.0), cat)
    w = wigner.wigner_from_wavefunction(psi)
    pointer, observed = PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0)
    measurements = [scenarios.MeasurementScenario(pointer, observed, amplitudes=a)
                    for a in ((1 / np.sqrt(2), 1 / np.sqrt(2)), (0.6, 0.8))]
    return h, psi, w, measurements


def measure_setups() -> dict:
    """ms per slosh-oracle engine build with its region eighs and per
    composite-measurement set-up, for the osqm on sys.path."""
    build = {"slosh-setup": _slosh_engine, "composite-setup": _composite_setup}
    out = {}
    for name, builds in SETUPS.items():
        build[name]()  # untimed: warms the FFT plans and the imports
        times = []
        for _ in range(builds):
            start = time.perf_counter()
            build[name]()
            times.append((time.perf_counter() - start) * 1e3)
        out[name] = statistics.median(times)
    return out


def measure_maps() -> dict:
    """ms per Weyl map call on the composite's 32 x 32 inputs, for the osqm on sys.path."""
    from osqm.weyl import weyl_operator_from_symbol
    from osqm.wigner import wigner_from_wavefunction

    h, psi, _, _ = _composite_setup()
    symbol = h.symbol()
    maps = {"chord-wigner-32x32": lambda: wigner_from_wavefunction(psi),
            "weyl-op-32x32": lambda: weyl_operator_from_symbol(symbol)}
    out = {}
    for name, (calls, batches) in MAPS.items():
        maps[name]()  # untimed
        per_call = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                maps[name]()
            per_call.append((time.perf_counter() - start) / calls * 1e3)
        out[name] = statistics.median(per_call)
    return out


def measure_after_setup() -> dict:
    """ms per exact evolve_lvn call after the composite set-ups and its
    reference step, for the osqm on sys.path; run it first in its process."""
    from osqm import oracle, wigner
    from osqm.dynamics import evolve_lvn
    from osqm.weyl import weyl_operator_from_symbol

    out = {}
    for name, (setups, calls, batches) in AFTER_SETUP.items():
        for _ in range(setups):
            h, psi, w, measurements = _composite_setup()
        # the set-up's and the reference's arrays stay alive while timed, as
        # they do in the workload
        hmat = weyl_operator_from_symbol(h.symbol())
        reference = wigner.wigner_from_wavefunction(
            oracle.schrodinger_propagate(psi, hmat, 0.2), check_containment=False)
        evolve_lvn(w, h, 0.2, 0.05, verify_dt=False)  # untimed: builds the plan
        per_call = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                evolve_lvn(w, h, 0.2, 0.05, verify_dt=False)
            per_call.append((time.perf_counter() - start) / calls * 1e3)
        out[name] = statistics.median(per_call)
        del measurements, hmat, reference
    return out


def _env(tree: Path) -> dict:
    return {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}


def _run_measure(tree: Path) -> dict:
    res = subprocess.run([sys.executable, __file__, "--measure"], env=_env(tree),
                         check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def _run_regress(tree: Path) -> dict:
    """report.json seconds per criterion, and the wall time of the command."""
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "osqm", "regress", "--out-dir", out],
                       env=_env(tree), check=True, capture_output=True)
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
    return {"cpu": cpu, "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _commit(tree: Path):
    res = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--measure", action="store_true",
                        help="print this checkout's ms per step and per call, "
                             "us per draw, ensemble seeds/s, ms per eigh, per "
                             "region build, per set-up and per map as JSON")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.measure:
        # first: its figure depends on what ran before it in the process
        after_setup = measure_after_setup()
        print(json.dumps({**measure_steps(), **measure_calls(), **after_setup,
                          **measure_draws(), **measure_ensembles(),
                          **measure_eighs(), **measure_region_builds(),
                          **measure_setups(),
                          **measure_maps()}))
        return 0
    if not (args.parent and args.change and args.out) or args.runs < 1:
        parser.error("--parent, --change, --out and --runs >= 1 are required")
    trees = {"parent": args.parent, "change": args.change}
    measured = {side: [] for side in trees}
    regress = {side: [] for side in trees}
    for run in range(args.runs):
        order = list(trees) if run % 2 == 0 else list(reversed(trees))
        for side in order:
            measured[side].append(_run_measure(trees[side]))
            regress[side].append(_run_regress(trees[side]))
    medians = {side: _medians(measured[side]) for side in trees}

    def cases(names):
        return {name: {"parent": medians["parent"][name],
                       "change": medians["change"][name],
                       "ratio": medians["change"][name] / medians["parent"][name],
                       "runs": {side: [r[name] for r in measured[side]] for side in trees}}
                for name in names}

    result = {
        "what": ("ms per LvnPlan split step; ms per evolve_lvn call; us per Born "
                 "draw of MeasurementScenario.run_ensemble; seeds/s of "
                 "transitions.run_ensemble and of engine.run; ms per fresh "
                 "OperatorMatrix.eigh; ms per x < 0 region build (operator, "
                 "root, PS6 split); ms per slosh-oracle engine build with "
                 "its region eighs and per composite-measurement set-up; ms "
                 "per Weyl map on the composite's 32 x 32 inputs; osqm regress "
                 "seconds per criterion"),
        "host": _host(),
        "threads": THREADS,
        "runs": args.runs,
        "order": "alternating; run k measures the parent first when k is even",
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "lvn_step_ms": cases(BATCHES),
        "evolve_lvn_ms": cases({**CALLS, **AFTER_SETUP}),
        "born_draw_us": cases(DRAWS),
        "ensemble_seeds_per_s": cases(ENSEMBLES),
        "eigh_ms": cases(EIGHS),
        "region_build_ms": cases(REGION_BUILDS),
        "setup_ms": cases(SETUPS),
        "weyl_map_ms": cases(MAPS),
        "regress_seconds": {
            "timer": "each checkout's own acceptance.run_regression_suite",
            "median": {side: _medians(regress[side]) for side in trees},
            "runs": regress},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
