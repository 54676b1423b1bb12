"""The benchmark's own tests, at toy sizes: run with `python -m pytest bench/tests`."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from osqm.acceptance import Tolerances
from tracing import Tracer, self_times

DEFINITION = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DEFINITION["end_to_end"]}
PER_LAYER = {m["name"] for m in DEFINITION["per_layer"]}

TOY = {
    "slosh-oracle": workloads.SloshSpec(points=64, t_final=np.pi, setups=2, repeat=4),
    "lvn-oscillator": workloads.LvnSpec(points=64, t_final=0.1, setups=3),
    "composite-measurement": workloads.CompositeSpec(points=24, t_final=0.1, setups=1),
}


def run_toy(name, seed=0, traced=False, tol=Tolerances()):
    ctx = workloads.Context(seed=seed, seconds=0.05, tracer=Tracer() if traced else None,
                            tol=tol)
    if ctx.tracer is None:
        return workloads.WORKLOADS[name](ctx, TOY[name])
    with ctx.tracer.patched():
        return workloads.WORKLOADS[name](ctx, TOY[name])


def test_definition_names_every_workload():
    assert {w["name"] for w in DEFINITION["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_and_reports_every_metric(name):
    out = run_toy(name, traced=True)
    assert out.correct, out.checks
    assert out.attempted >= 1
    assert set(out.metrics) == END_TO_END
    assert set(out.layers) == PER_LAYER
    assert all(np.isfinite(v) and v > 0 for v in out.metrics.values())
    assert out.layers["trace.overhead_share"] > -1.0


def test_layers_reached_match_the_workload():
    slosh = run_toy("slosh-oracle", traced=True).layers
    assert slosh["oracle.eigh_calls"] > 0 and slosh["transitions.run_self_ms_p50"] > 0
    assert slosh["dynamics.rhs_calls"] == 0
    lvn = run_toy("lvn-oscillator", traced=True).layers
    steps = workloads.rk4_steps(TOY["lvn-oscillator"].t_final, TOY["lvn-oscillator"].dt)
    assert lvn["dynamics.rhs_calls"] == 4 * steps + 12     # verify_dt takes 3 steps
    assert lvn["transitions.run_self_ms_p50"] == 0


@pytest.mark.parametrize("name, tightened, check", [
    ("lvn-oscillator", {"dynamics_maxnorm": 1e-14}, "dynamics_maxnorm"),
    ("slosh-oracle", {"povm_complete": 0.0}, "born_rows_sum_to_1"),
    ("composite-measurement", {"born_margin": 1e-9}, "born_margin_0"),
])
def test_tightened_tolerance_trips_its_check(name, tightened, check):
    out = run_toy(name, tol=replace(Tolerances(), **tightened))
    assert not out.checks[check]["passed"]
    assert not out.correct
    assert out.failed >= 1


@pytest.mark.parametrize("name", ["slosh-oracle", "lvn-oscillator"])
def test_same_seed_gives_identical_digest(name):
    assert run_toy(name, seed=7).digest == run_toy(name, seed=7).digest


def test_other_seed_gives_other_digest():
    assert run_toy("slosh-oracle", seed=7).digest != run_toy("slosh-oracle", seed=8).digest


def test_self_times_on_synthetic_nest():
    # a[0, 10] holds b[1, 4] and c[5, 9]; c holds d[6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 3.0, 2.0, 2.0])


def test_tracer_records_nesting_and_requests():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(0) == 2 and not tracer.spans        # inactive: nothing recorded
    tracer.active, tracer.request = True, "r1"
    outer(0)
    tracer.request = "r2"
    inner(0)
    table = tracer.table()
    assert [tracer.names[i] for i in table.name] == ["outer", "inner", "inner", "inner"]
    assert list(table.parent) == [-1, 0, 0, -1]
    assert (table.self_time <= table.duration).all()
    counts, _ = table.per_request("inner", ["r1", "r2", "r3"])
    assert list(counts) == [2, 1, 0]
    assert table.median("missing") == 0.0


def test_patched_restores_every_trace_point():
    import importlib

    def lookup(module, path):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [lookup(m, p) for m, p, _ in tracing.TRACE_POINTS]
    with Tracer().patched():
        assert all(lookup(m, p) is not b
                   for (m, p, _), b in zip(tracing.TRACE_POINTS, before))
    assert all(lookup(m, p) is b for (m, p, _), b in zip(tracing.TRACE_POINTS, before))


def test_tail_has_ten_samples_beyond_per_block():
    value, pct, n = workloads.tail(np.arange(1, 21))
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    # four blocks of 100; one holds 10 outliers, which do not move the median
    xs = np.tile(np.arange(100.0), 4)
    xs[:10] = 1e6
    value, pct, n = workloads.tail(xs)
    assert (value, pct, n) == (89.0, 90.0, 400)


def test_born_frequency_z():
    assert workloads.born_frequency_z([1, 0, 1, 0], [0.5] * 4) == 0.0
    assert workloads.born_frequency_z([1, 1, 1, 1], [0.5] * 4) == pytest.approx(2.0)


def test_op_time_leaves_out_reference_bursts():
    import pace
    ctx = workloads.Context(seed=0, seconds=0.0)
    with ctx.op("inside", traced=False) as op:
        ctx.pace.sample(3)
    assert 0.0 <= op.seconds < 0.1 * ctx.pace.busy
    bursts = ctx.pace.summary()
    assert bursts["bursts"] == 3
    assert ctx.factor(op) == pytest.approx(pace.REFERENCE_S / bursts["median_s"])
    with ctx.op("raw", traced=False, scaled=False) as raw:
        pass
    assert ctx.factor(raw) == 1.0
