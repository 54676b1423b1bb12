"""TrajectoryEngine against the per-dt loops it replaced, plus its helpers."""

import logging

import numpy as np
import pytest

from osqm import regions, scenarios, wigner
from osqm.dynamics import evolve_lvn
from osqm.grid import PhaseGrid
from osqm.oracle import NotPositiveError, WaveFunction, schrodinger_propagate
from osqm.regions import classicality_projectors, is_quasirestricted
from osqm.transitions import (ProjectionSchedule, TrajectoryEngine, _born_weights,
                              _PhasePropagator, apply_quasiprojection,
                              sample_transition, trajectory_rng,
                              transition_probabilities,
                              transition_probabilities_oracle)
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
    current = int(np.argmax(transition_probabilities_oracle(psi0, partition)))
    out = {"region_labels": [labels[current]], "prob_rows": [],
           "event_regions": [], "ps6": [], "snapshots": []}
    v = psi0.to_vector()
    t = 0.0
    for k, tau in enumerate(durations, 1):
        v = (q * np.exp(-1j * w * tau / grid.hbar)) @ (q.conj().T @ v)
        t += tau
        if k % engine.stride == 0 or k == len(durations):
            psi = WaveFunction.from_vector(grid, v)
            probs = transition_probabilities_oracle(psi, partition)
            chosen = sample_transition(probs, rng)
            region = partition.regions[chosen]
            psi = apply_quasiprojection(psi, region, engine.projection_mode,
                                        exact[chosen] if exact else None)
            out["prob_rows"].append(probs)
            out["event_regions"].append(labels[chosen])
            out["ps6"].append(is_quasirestricted(psi, region)[1])
            v = psi.to_vector()
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


def _phase_reference(engine, seed):
    """Per-dt evolve_lvn calls with the rank-1 event update: quantise W,
    project rho's top eigenvector, re-enter from the projected vector."""
    psi0, partition, dt = engine.psi0, engine.partition, engine.dt
    labels = partition.labels()
    rng = trajectory_rng(seed, 0)
    w = wigner.wigner_from_wavefunction(psi0)
    rows, chosen_labels = [], []
    for k in range(1, engine.steps + 1):
        w = evolve_lvn(w, engine.h, dt, dt, verify_dt=False, t0=(k - 1) * dt)
        if k % engine.stride == 0 or k == engine.steps:
            probs = transition_probabilities(w, partition)
            chosen = sample_transition(probs, rng)
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
        post = apply_quasiprojection(arr, region)
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
    for region in partition.regions:
        w, q = region.operator().eigh()
        coeffs = q.conj().T @ psi0.to_vector()
        want = np.sqrt((np.abs(coeffs[w <= 1e-6]) ** 2).sum())
        assert abs(is_quasirestricted(psi0, region)[1] - want) < 1e-15


def test_born_weights_clip_round_off_and_reject_real_negatives(caplog):
    with caplog.at_level(logging.INFO, logger="osqm.transitions"):
        probs = _born_weights(np.array([-5e-9, 0.25, 0.75]))
    assert probs.tolist() == [0.0, 0.25, 0.75]
    assert "clipped 1 negative" in caplog.text
    with pytest.raises(ValueError, match="below clip floor"):
        _born_weights(np.array([-1e-6, 1.0]))


def test_oracle_engine_checks_the_unit_norm_at_every_stop(setup):
    eng = _engine(setup, 2 * np.pi, DT, ProjectionSchedule("periodic", np.pi / 4))
    eng.run(0)
    for key in eng._propagator._u:
        eng._propagator._u[key] = eng._propagator._u[key] * 1.01
    with pytest.raises(ValueError, match="should be normalized"):
        eng.run(0)


@pytest.mark.parametrize("mode", ["sqrt", "exact"])
def test_oracle_layers_agree_bitwise_on_wavefunction_and_vector(setup, mode):
    psi0, h, partition = setup
    # a quarter period puts the packet across the cut at x = 0
    psi = schrodinger_propagate(psi0, weyl_operator_from_symbol(h.symbol()), np.pi / 2)
    v = psi.to_vector()
    assert np.array_equal(transition_probabilities_oracle(psi, partition),
                          transition_probabilities_oracle(v, partition))
    exact = classicality_projectors(partition)
    for j, region in enumerate(partition.regions):
        assert is_quasirestricted(psi, region) == is_quasirestricted(v, region)
        got_wf = apply_quasiprojection(psi, region, mode, exact[j])
        got_v = apply_quasiprojection(v, region, mode, exact[j])
        assert isinstance(got_wf, WaveFunction) and isinstance(got_v, np.ndarray)
        assert np.array_equal(got_wf.values,
                              WaveFunction.from_vector(psi.grid, got_v).values)
