"""TrajectoryEngine against the per-dt loops it replaced, plus its helpers."""

import logging

import numpy as np
import pytest

from osqm import regions, scenarios, wigner
from osqm.dynamics import EvolutionUnstableError, evolve_lvn
from osqm.grid import PhaseGrid
from osqm.oracle import NotPositiveError, WaveFunction
from osqm.regions import classicality_projectors, is_quasirestricted
from osqm import transitions
from osqm.transitions import (ProjectionSchedule, QuasirestrictionError,
                              TrajectoryEngine, _born_weights, _PhasePropagator,
                              apply_quasiprojection, run_ensemble, sample_transition,
                              trajectory_rng, trajectory_uniforms,
                              transition_probabilities, transition_probabilities_oracle)
from osqm.weyl import weyl_operator_from_symbol

DT = np.pi / 32


@pytest.fixture(scope="module")
def setup():
    grid = PhaseGrid.create(64, 9.0)
    h = scenarios.hamiltonian_preset(grid, "oscillator", {})
    partition = regions.build_partition(grid, [0.0])
    psi0 = wigner.coherent_state(grid, -2.0, 0.0)
    return psi0, h, partition


def _engine(setup, t_final, dt, schedule, **kwargs):
    psi0, h, partition = setup
    kwargs.setdefault("projection_mode", "exact")
    return TrajectoryEngine(psi0, h, partition, t_final, dt, schedule, **kwargs)


def _oracle_reference(engine, durations, seed, snapshot_every=0):
    """The per-dt loop: one U(step) matvec per step, events every stride steps."""
    psi0, partition = engine.psi0, engine.partition
    grid = psi0.grid
    w, q = weyl_operator_from_symbol(engine.h.symbol()).eigh()
    exact = (classicality_projectors(partition)
             if engine.projection_mode == "exact" else None)
    labels = partition.labels()
    rng = trajectory_rng(seed, 0)
    v = psi0.to_vector()
    current = int(np.argmax(transition_probabilities_oracle(v, partition)))
    out = {"region_labels": [labels[current]], "prob_rows": [],
           "event_regions": [], "ps6": [], "snapshots": []}
    t = 0.0
    for k, tau in enumerate(durations, 1):
        v = (q * np.exp(-1j * w * tau / grid.hbar)) @ (q.conj().T @ v)
        t += tau
        if k % engine.stride == 0 or k == len(durations):
            probs = transition_probabilities_oracle(v, partition)
            chosen = sample_transition(probs, rng.random())
            region = partition.regions[chosen]
            v = apply_quasiprojection(v, exact[chosen] if exact else region.sqrt_operator())
            out["prob_rows"].append(probs)
            out["event_regions"].append(labels[chosen])
            out["ps6"].append(is_quasirestricted(v, region)[1])
            current = chosen
        out["region_labels"].append(labels[current])
        if snapshot_every and k % snapshot_every == 0:
            out["snapshots"].append((t, v.copy()))
    return out


def _assert_matches(rec, ref, tol):
    assert rec.event_regions == ref["event_regions"]
    assert rec.region_labels == ref["region_labels"]
    assert np.abs(rec.prob_rows - np.asarray(ref["prob_rows"])).max() < tol
    assert np.abs(np.subtract(rec.ps6_residuals, ref["ps6"])).max() < tol


def test_oracle_jump_matches_per_dt_loop(setup):
    eng = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 4))
    assert (eng.steps, eng.stride) == (64, 8)
    for seed in range(20):
        rec = eng.run(seed)
        _assert_matches(rec, _oracle_reference(eng, [DT] * 64, seed), 1e-12)
        assert rec.event_steps == list(range(8, 65, 8))


@pytest.mark.parametrize("mode", ["continuous", "single-shot"])
def test_oracle_schedules_match_per_dt_loop(setup, mode):
    eng = _engine(setup, np.pi / 2, DT, ProjectionSchedule(mode))
    assert eng.steps == 16
    for seed in range(3):
        rec = eng.run(seed)
        _assert_matches(rec, _oracle_reference(eng, [DT] * 16, seed), 1e-12)
        assert len(rec.event_steps) == (16 if mode == "continuous" else 1)


def test_snapshots_coprime_to_stride(setup):
    sched = ProjectionSchedule("periodic", 16 * DT)
    plain = _engine(setup, 2 * np.pi, DT, sched)
    snapped = _engine(setup, 2 * np.pi, DT, sched, snapshot_every=5)
    assert plain.stride == 16
    for seed in range(3):
        rec = snapped.run(seed)
        ref = _oracle_reference(snapped, [DT] * 64, seed, snapshot_every=5)
        _assert_matches(rec, ref, 1e-12)
        _assert_matches(plain.run(seed), ref, 1e-12)
        assert [t for t, _ in rec.snapshots] == pytest.approx(
            [k * DT for k in range(5, 65, 5)], abs=1e-12)
        for (_, got), (_, want) in zip(rec.snapshots, ref["snapshots"]):
            assert np.abs(got - want).max() < 1e-12


def test_t_final_not_a_whole_number_of_steps(setup):
    eng = _engine(setup, 1.0, 0.3, ProjectionSchedule("periodic", 0.6))
    rec = eng.run(4)
    assert rec.times[-1] == 1.0
    assert rec.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert rec.event_steps == [2, 4]
    _assert_matches(rec, _oracle_reference(eng, [0.3, 0.3, 0.3, 0.1], 4), 1e-12)
    single = _engine(setup, 1.0, 0.3, ProjectionSchedule("single-shot"))
    assert single.run(4).event_steps == [4]


@pytest.mark.parametrize("dt_proj, dt", [(0.15, 0.1), (0.25, 0.1)])
def test_dt_proj_not_a_whole_number_of_steps_raises(dt_proj, dt):
    # rounded to whole steps, 0.15 would fire every step and 0.25 every 0.2
    with pytest.raises(ValueError, match="not a whole number of dt"):
        ProjectionSchedule("periodic", dt_proj).stride(dt, 100)


# 0.3 / 0.1 is 2.9999999999999996 in floats
@pytest.mark.parametrize("dt_proj, dt, stride", [(np.pi / 4, np.pi / 64, 16),
                                                 (0.1, 0.01, 10), (0.3, 0.1, 3)])
def test_dt_proj_a_whole_number_of_steps_up_to_round_off_passes(dt_proj, dt, stride):
    assert ProjectionSchedule("periodic", dt_proj).stride(dt, 100) == stride


def test_same_seed_same_record(setup):
    eng = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 4),
                  snapshot_every=7)
    a, b = eng.run(11, 3), eng.run(11, 3)
    assert a.event_regions == b.event_regions and a.region_labels == b.region_labels
    assert np.array_equal(a.prob_rows, b.prob_rows)
    assert np.array_equal(a.times, b.times)
    assert a.ps6_residuals == b.ps6_residuals
    assert all(ta == tb and np.array_equal(sa, sb)
               for (ta, sa), (tb, sb) in zip(a.snapshots, b.snapshots))


def test_one_cached_propagator_per_interval_length(setup):
    periodic = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", 16 * DT))
    assert len(periodic._propagator._u) == 1        # U(16 dt), built up front
    periodic.run(0)
    assert len(periodic._propagator._u) == 1
    snapped = _engine(setup, 2 * np.pi + 0.05, DT,
                      ProjectionSchedule("periodic", 16 * DT), snapshot_every=5)
    rec = snapped.run(0)
    snaps = [round(t / DT) for t, _ in rec.snapshots]
    stops = sorted(set(rec.event_steps) | set(snaps))
    lengths = {(b - a, b == snapped.steps) for a, b in zip([0] + stops, stops)}
    assert len(snapped._propagator._u) <= len(lengths)


def test_cached_propagators_are_the_hamiltonian_unitary(setup):
    h = setup[1]
    hm = weyl_operator_from_symbol(h.symbol())
    eng = _engine(setup, 2 * np.pi + 0.05, DT, ProjectionSchedule("periodic", 16 * DT),
                  snapshot_every=5)
    eng.run(0)
    assert any(tail > 0 for _, tail in eng._propagator._u)
    for (n, tail), u in eng._propagator._u.items():
        assert np.array_equal(u, hm.unitary(n * DT + tail))


def _phase_reference(engine, seed):
    """Per-dt evolve_lvn calls with the rank-1 event update: quantise W,
    project rho's top eigenvector, re-enter from the projected vector."""
    psi0, partition, dt = engine.psi0, engine.partition, engine.dt
    labels = partition.labels()
    rng = trajectory_rng(seed, 0)
    w = wigner.wigner_from_wavefunction(psi0)
    rows, chosen_labels = [], []
    for k in range(1, engine.steps + 1):
        w = evolve_lvn(w, engine.h, dt, dt, verify_dt=False)
        if k % engine.stride == 0 or k == engine.steps:
            probs = transition_probabilities(w, partition)
            chosen = sample_transition(probs, rng.random())
            region = partition.regions[chosen]
            rho = weyl_operator_from_symbol(w.as_symbol()).matrix
            top = np.linalg.eigh(rho)[1][:, -1]
            v = region.sqrt_operator().matrix @ top
            v /= np.linalg.norm(v)
            assert is_quasirestricted(v, region)[0]
            w = wigner.wigner_from_wavefunction(WaveFunction.from_vector(w.grid, v))
            rows.append(probs)
            chosen_labels.append(labels[chosen])
    return np.asarray(rows), chosen_labels


def test_phase_interval_calls_match_per_dt_calls(setup):
    eng = _engine(setup, 1.0, 0.05, ProjectionSchedule("periodic", 0.25),
                  backend="phase", projection_mode="sqrt")
    for seed in range(6):
        rows, chosen = _phase_reference(eng, seed)
        rec = eng.run(seed)
        assert rec.event_regions == chosen
        assert np.abs(rec.prob_rows - rows).max() < 1e-9


def test_phase_single_shot_matches_per_dt_calls(setup):
    eng = _engine(setup, 1.0, 0.05, ProjectionSchedule("single-shot"),
                  backend="phase", projection_mode="sqrt", snapshot_every=8)
    rows, chosen = _phase_reference(eng, 2)
    rec = eng.run(2)
    assert rec.event_regions == chosen
    assert np.abs(rec.prob_rows - rows).max() < 1e-9
    assert [t for t, _ in rec.snapshots] == pytest.approx([0.4, 0.8])


def test_phase_periodic_runs_match_the_oracle(setup):
    # every seed aborted when the phase backend renormalised op rho op^H
    sched = ProjectionSchedule("periodic", 0.5)
    phase = _engine(setup, 3.0, 0.01, sched, backend="phase", projection_mode="sqrt")
    oracle = _engine(setup, 3.0, 0.01, sched, projection_mode="sqrt")
    for seed in range(20):
        got, want = phase.run(seed), oracle.run(seed)
        assert got.event_regions == want.event_regions
        assert np.abs(got.prob_rows - want.prob_rows).max() < 1e-8
        assert len(got.rank1_distances) == len(got.event_steps) == 6
        assert max(got.rank1_distances) < 1e-4
        assert want.rank1_distances == [0.0] * 6


def test_rank1_step_rejects_a_mixed_state(setup):
    psi0 = setup[0]
    pure = wigner.wigner_from_wavefunction(psi0)
    v, distance = _PhasePropagator.to_vector(pure)
    assert distance < 1e-12 and abs(abs(np.vdot(v, psi0.to_vector())) - 1) < 1e-12
    other = wigner.wigner_from_wavefunction(wigner.coherent_state(psi0.grid, 2.0, 0.0))
    mixed = wigner.WignerState(psi0.grid, 0.5 * (pure.values + other.values))
    with pytest.raises(NotPositiveError, match="not rank one"):
        _PhasePropagator.to_vector(mixed)


def test_phase_backend_rejects_exact_projection(setup):
    with pytest.raises(ValueError, match="momentum range"):
        _engine(setup, 1.0, 0.05, ProjectionSchedule("single-shot"), backend="phase")


def test_event_functions_act_on_the_first_axis_of_a_state_array():
    # a state array V of shape (n1, n2) against regions of the first factor:
    # each function must equal the dense path of Pi (x) I on vec(V)
    g1 = PhaseGrid.create(32, 9.0)
    partition = regions.build_partition(g1, [-3.0, 3.0])
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(32, 8)) + 1j * rng.normal(size=(32, 8))
    arr /= np.linalg.norm(arr)
    vec = arr.ravel()
    eye = np.eye(8)
    dense = [np.kron(r.operator().matrix, eye) for r in partition.regions]
    want = np.array([np.vdot(vec, m @ vec).real for m in dense])
    got = transition_probabilities_oracle(arr, partition)
    assert np.abs(got - want / want.sum()).max() < 1e-13
    for region in partition.regions:
        post = apply_quasiprojection(arr, region.sqrt_operator())
        assert post.shape == (32, 8)
        root = np.kron(region.sqrt_operator().matrix, eye) @ vec
        assert np.abs(post.ravel() - root / np.linalg.norm(root)).max() < 1e-13
        # Pi (x) I has Pi's eigenvalues, with eigenvectors q_i (x) e_j
        w, q = region.operator().eigh()
        drop = np.kron(q[:, w <= 1e-6], eye)
        for state in (arr, post):
            out = drop.conj().T @ state.ravel()
            assert abs(is_quasirestricted(state, region)[1]
                       - np.linalg.norm(out)) < 1e-13


def test_quasirestriction_residual_matches_full_projection(setup):
    psi0, _, partition = setup
    v = psi0.to_vector()
    for region in partition.regions:
        w, q = region.operator().eigh()
        coeffs = q.conj().T @ v
        want = np.sqrt((np.abs(coeffs[w <= 1e-6]) ** 2).sum())
        assert abs(is_quasirestricted(v, region)[1] - want) < 1e-15


def test_born_weights_clip_round_off_and_reject_real_negatives(caplog):
    with caplog.at_level(logging.INFO, logger="osqm.transitions"):
        probs = _born_weights(np.array([-5e-9, 0.25, 0.75]))
    assert probs.tolist() == [0.0, 0.25, 0.75]
    assert "clipped 1 negative" in caplog.text
    with pytest.raises(ValueError, match="below clip floor"):
        _born_weights(np.array([-1e-6, 1.0]))


def test_oracle_engine_checks_the_unit_norm_at_every_stop(setup):
    # a fresh engine: a run on a memoised history would apply no U at all
    eng = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 4))
    for key in eng._propagator._u:
        eng._propagator._u[key] = eng._propagator._u[key] * 1.01
    with pytest.raises(ValueError, match="should be normalized"):
        eng.run(0)


@pytest.mark.parametrize("backend, mode, t_final, dt, dt_proj", [
    ("oracle", "sqrt", 2.5 * np.pi, DT, np.pi / 2),
    ("oracle", "exact", 2.5 * np.pi, DT, np.pi / 2),
    ("phase", "sqrt", 3.0, 0.01, 0.5)], ids=["oracle-sqrt", "oracle-exact", "phase-sqrt"])
def test_run_ensemble_returns_the_per_seed_summaries_in_seed_order(
        setup, backend, mode, t_final, dt, dt_proj):
    # the last event straddles the cut: the final regions differ
    def engine():
        return _engine(setup, t_final, dt, ProjectionSchedule("periodic", dt_proj),
                       backend=backend, projection_mode=mode)
    seeds = range(10, 26)
    one = engine()
    serial = [one.run(s, i).summary() for i, s in enumerate(seeds)]
    assert len({row["final_region"] for row in serial}) == 2
    assert run_ensemble(engine(), seeds) == serial


def test_run_ensemble_of_no_seeds_is_empty(setup):
    engine = _engine(setup, np.pi, DT, ProjectionSchedule("periodic", np.pi / 2))
    assert run_ensemble(engine, []) == []


# the edges of the seed words: zero, one word full, two words, the top bit, all ones
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


def _generator_draws(seeds, indices, count):
    return np.array([trajectory_rng(int(s), int(i)).random(count)
                     for s, i in zip(seeds, indices)]).reshape(len(seeds), count)


@pytest.mark.parametrize("count", [1, 3, 4, 5, 16, 17])
def test_trajectory_uniforms_are_the_generator_draws(count):
    # per-element seeds, with indices that fill their word and reach its top
    seeds = EDGE_SEEDS + np.random.default_rng(count).integers(
        0, 2 ** 64, 500, dtype=np.uint64).tolist()
    indices = [i * 2654435761 % 2 ** 32 for i in range(len(seeds))]
    indices[-1] = 2 ** 32 - 1
    got = trajectory_uniforms(seeds, indices, count)
    assert got.shape == (len(seeds), count)
    assert np.array_equal(got, _generator_draws(seeds, indices, count))
    # a scalar seed with an index range
    for seed in EDGE_SEEDS:
        got = trajectory_uniforms(seed, np.arange(40), count)
        assert np.array_equal(got, _generator_draws([seed] * 40, range(40), count))
    # a scalar pair keeps the shape of random(count)
    assert np.array_equal(trajectory_uniforms(2 ** 64 - 1, 7, count),
                          trajectory_rng(2 ** 64 - 1, 7).random(count))


def test_trajectory_uniforms_broadcast_seeds_against_indices():
    seeds, indices = np.array([[3], [2 ** 40]], dtype=np.uint64), np.arange(5)
    got = trajectory_uniforms(seeds, indices, 2)
    assert got.shape == (2, 5, 2)
    for (a, b), s in np.ndenumerate(np.broadcast_to(seeds, (2, 5))):
        assert np.array_equal(got[a, b], trajectory_rng(int(s), b).random(2))
    assert trajectory_uniforms([], [], 3).shape == (0, 3)
    assert trajectory_uniforms([4, 5], [0, 1], 0).shape == (2, 0)


@pytest.mark.parametrize("seed, index, message", [
    (-1, 0, "seed -1 outside"), (2 ** 64, 0, "seed 18446744073709551616 outside"),
    (0, 2 ** 32, "trajectory index 4294967296 outside"),
    (0, -1, "trajectory index -1 outside")])
def test_seeds_and_indices_outside_their_words_raise(seed, index, message):
    with pytest.raises(ValueError, match=message):
        trajectory_uniforms(seed, index, 1)
    with pytest.raises(ValueError, match=message):
        trajectory_uniforms([5, seed], [0, index], 1)
    with pytest.raises(ValueError, match="outside"):
        trajectory_rng(seed, index)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_run_ensemble_rejects_the_seeds_engine_run_rejects(setup, seed):
    engine = _engine(setup, np.pi, DT, ProjectionSchedule("periodic", np.pi / 2))
    with pytest.raises(ValueError, match="outside"):
        engine.run(seed, 1)
    with pytest.raises(ValueError, match="outside"):
        run_ensemble(engine, [0, seed])


def test_run_ensemble_takes_the_seeds_of_every_word_size(setup):
    engine = _engine(setup, 2.5 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 2))
    seeds = EDGE_SEEDS + [2 ** 64 - 2 - k for k in range(10)]
    serial = [engine.run(s, i).summary() for i, s in enumerate(seeds)]
    assert len({row["final_region"] for row in serial}) == 2
    assert run_ensemble(engine, seeds) == serial


def _assert_same_record(got, want):
    for name in ("seed", "region_labels", "event_steps", "event_regions", "ps6_residuals",
                 "backend", "final_region", "rank1_distances"):
        assert getattr(got, name) == getattr(want, name)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.prob_rows, want.prob_rows)
    assert len(got.snapshots) == len(want.snapshots)
    for (t_got, snap_got), (t_want, snap_want) in zip(got.snapshots, want.snapshots):
        assert t_got == t_want and np.array_equal(snap_got, snap_want)


def _nodes(node):
    """A memo node and every node below it."""
    yield node
    for child in filter(None, node.children or ()):
        yield from _nodes(child)


def _events(engine):
    """Every memo node that holds a Born row: one per memoised event."""
    return [node for node in _nodes(engine._memo) if node.probs is not None]


def _histories(engine):
    """Every history the memo holds."""
    return [node.history for node in _nodes(engine._memo) if node.history is not None]


@pytest.mark.parametrize("mode", ["exact", "sqrt"])
def test_memoised_engine_records_equal_fresh_engine_records(setup, mode):
    sched = ProjectionSchedule("periodic", np.pi / 4)
    memo = _engine(setup, 2 * np.pi, DT, sched, projection_mode=mode)
    for seed in range(40):
        fresh = _engine(setup, 2 * np.pi, DT, sched, projection_mode=mode)
        _assert_same_record(memo.run(seed), fresh.run(seed))
    # 40 runs of 8 events share prefixes: far fewer nodes than events
    assert len(_events(memo)) < 40 * 8 / 2


def test_memoised_phase_engine_replays_snapshots_bitwise(setup):
    sched = ProjectionSchedule("periodic", 0.25)
    kwargs = dict(backend="phase", projection_mode="sqrt", snapshot_every=3)
    memo = _engine(setup, 1.0, 0.05, sched, **kwargs)
    for seed in range(6):
        fresh = _engine(setup, 1.0, 0.05, sched, **kwargs)
        want = fresh.run(seed)
        assert len(want.snapshots) == 6
        _assert_same_record(memo.run(seed), want)
        _assert_same_record(memo.run(seed), want)


def test_warm_memoised_phase_runs_build_no_wigner_state(setup, monkeypatch):
    # the engine builds the initial Wigner state once; a run that stays in
    # the memo builds none, and its record is still a fresh engine's
    sched = ProjectionSchedule("periodic", 0.5)
    kwargs = dict(backend="phase", projection_mode="sqrt")
    memo = _engine(setup, 1.5, 0.05, sched, **kwargs)
    seeds = range(20)
    for seed in seeds:
        memo.run(seed)
    calls = []
    build = transitions.wigner_from_wavefunction
    monkeypatch.setattr(transitions, "wigner_from_wavefunction",
                        lambda *args: calls.append(args) or build(*args))
    warm = [memo.run(seed) for seed in seeds]
    assert calls == []
    monkeypatch.undo()
    for seed, record in zip(seeds, warm):
        _assert_same_record(record, _engine(setup, 1.5, 0.05, sched, **kwargs).run(seed))


def test_memo_nodes_hold_no_state(setup):
    eng = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 4),
                  projection_mode="sqrt", snapshot_every=5)
    for seed in range(20):
        eng.run(seed)
    nodes = list(_nodes(eng._memo))
    assert _events(eng)
    regions_count = len(eng.partition.regions)
    def arrays(obj):
        return {name: getattr(obj, name).shape for name in obj.__slots__
                if isinstance(getattr(obj, name), np.ndarray)}

    for node in nodes:
        # the Born row of the next event, once a run has reached it
        want = {} if node.probs is None else {"probs": (regions_count,)}
        assert arrays(node) == want
    histories = _histories(eng)
    assert histories
    for history in histories:
        # what the records of one history share: one Born row per event, and
        # the engine's own times
        assert arrays(history) == {"prob_rows": (len(eng.event_steps), regions_count),
                                   "times": eng.times.shape}
        assert history.times is eng.times


@pytest.mark.parametrize("limit", [0, 600])
def test_memo_stops_growing_at_its_limit_on_diverging_histories(setup, monkeypatch, limit):
    # every dt an event whose Born row is far from 0 and 1: runs share
    # short prefixes, so each adds about one node and one history row per event
    sched = ProjectionSchedule("continuous")
    # each from a fresh engine, whose memo has room for its one run
    want = [_engine(setup, 2 * np.pi, DT, sched).run(seed) for seed in range(12)]
    monkeypatch.setattr(transitions, "MEMO_LIMIT", limit)
    eng = _engine(setup, 2 * np.pi, DT, sched)
    events = len(eng.event_steps)
    grown = []
    for seed in range(12):
        before = eng.memo_rows
        _assert_same_record(eng.run(seed), want[seed])
        grown.append(eng.memo_rows - before)
        nodes, histories = _events(eng), _histories(eng)
        assert eng.memo_rows == len(nodes) + sum(len(h.prob_rows) for h in histories)
        assert eng.memo_rows <= limit
    if limit:
        assert min(grown[:3]) > events       # the histories diverge
        assert grown[-1] == 0                # and the memo is full


def _walk(engine, seed):
    """(node, region drawn) at each memoised event a run of seed reaches,
    up to its first draw with no cached child; and that child (None if
    the draw has none)."""
    rng = trajectory_rng(seed, 0)
    node, path = engine._memo, []
    while node is not None and node.probs is not None:
        chosen = sample_transition(node.probs, rng.random())
        path.append((node, chosen))
        node = node.children[chosen]
    return path, node


def _slosh_sqrt_engine():
    """The slosh set-up in sqrt mode: a draw of Born weight below ~0.011
    leaves a PS6 residual above the gate."""
    grid = PhaseGrid.create(256, 9.0)
    h = scenarios.hamiltonian_preset(grid, "oscillator", {})
    partition = regions.build_partition(grid, [0.0])
    return TrajectoryEngine(wigner.coherent_state(grid, -4.2, 0.0), h, partition,
                            4 * np.pi, np.pi / 64, ProjectionSchedule("periodic", np.pi / 4),
                            projection_mode="sqrt")


def test_a_branch_failing_ps6_raises_on_every_run_that_draws_it():
    eng = _slosh_sqrt_engine()
    passed, raised = {}, {}
    for seed in range(300):
        try:
            passed[seed] = eng.run(seed)
        except QuasirestrictionError as exc:
            raised[seed] = str(exc)
    assert 5 <= len(raised) <= 20
    failing = set()                        # (id of node, region drawn)
    for seed, message in raised.items():
        path, child = _walk(eng, seed)
        assert child is None               # the failed draw is not cached
        failing.add((id(path[-1][0]), path[-1][1]))
        with pytest.raises(QuasirestrictionError) as again:
            eng.run(seed)
        assert str(again.value) == message
    assert len(failing) < len(raised)      # some seeds draw the same failing branch
    failing_nodes = {node for node, _ in failing}
    shared = 0
    for seed, rec in passed.items():
        path, child = _walk(eng, seed)
        assert child is not None and child.probs is None
        assert not any((id(node), chosen) in failing for node, chosen in path)
        # it shared a failing run's prefix and drew another region there
        shared += any(id(node) in failing_nodes for node, _ in path)
        _assert_same_record(eng.run(seed), rec)
    assert shared > 0


def test_a_failing_ensemble_raises_what_the_serial_loop_raises():
    engine = _slosh_sqrt_engine()
    for index, seed in enumerate(range(300)):
        try:
            engine.run(seed, index)
        except QuasirestrictionError as exc:
            first = exc
            break
    else:
        raise AssertionError("no seed failed PS6")
    assert str(first).endswith(f"; seed {seed}, trajectory {index}")
    with pytest.raises(QuasirestrictionError) as walked:
        run_ensemble(_slosh_sqrt_engine(), range(300))
    assert type(walked.value) is type(first)
    assert str(walked.value) == str(first)


def test_phase_engine_rejects_an_unstable_step(setup):
    # unchecked, dt 0.5 gives a Born weight of 0.650 at t 5 against the
    # oracle's 0.666, and dt 0.8 gives 0.552 (step-halving mismatch 5.7e-3)
    with pytest.raises(EvolutionUnstableError, match="step-halving mismatch"):
        _engine(setup, 5.0, 0.5, ProjectionSchedule("single-shot"), backend="phase",
                projection_mode="sqrt")


def test_zeno_rows_state_the_rounded_time_they_cover(setup):
    # t_total 1.0 is not a whole number of either interval: 1.0 / 0.3 rounds
    # to 3 intervals and 1.0 / 0.4 to 2, so the rows cover 0.9 and 0.8
    psi0, h, partition = setup
    rows = transitions.zeno_experiment(psi0, h, partition, [0.3, 0.4], t_total=1.0)
    assert [r["n_intervals"] for r in rows] == [3, 2]
    assert np.abs(np.array([r["t_covered"] for r in rows]) - [0.9, 0.8]).max() < 1e-12
