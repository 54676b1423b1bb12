from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

from osqm import dynamics
from osqm.dynamics import (EvolutionUnstableError, Hamiltonian, HamiltonianTerm,
                           evolve_lvn, step_count)
from osqm.grid import ContainmentError, PhaseGrid
from osqm.oracle import WaveFunction, schrodinger_propagate
from osqm.weyl import WeylSymbol, mean_value, weyl_operator_from_symbol
from osqm.scenarios import initial_state_preset
from osqm.wigner import coherent_state, wigner_from_wavefunction


@pytest.fixture(scope="module")
def osc(grid64):
    return Hamiltonian(grid64, [
        HamiltonianTerm((("p", 0, lambda p: p ** 2 / 2),)),
        HamiltonianTerm((("x", 0, lambda x: x ** 2 / 2),)),
    ])


@pytest.fixture(scope="module")
def w0(grid64):
    return wigner_from_wavefunction(coherent_state(grid64, 1.0, 0.3))


def test_term_without_factors_is_rejected():
    with pytest.raises(ValueError, match="needs a factor"):
        HamiltonianTerm(())


def test_callable_coefficient_is_rejected():
    # a Hamiltonian is static: its coefficients are numbers
    with pytest.raises(TypeError, match="coefficient must be a number"):
        HamiltonianTerm((("x", 0, lambda x: x),), coefficient=np.sin)


def test_zero_time_is_identity(grid64, osc, w0):
    out = evolve_lvn(w0, osc, 0.0, 0.01)
    assert np.abs(out.values - w0.values).max() == 0.0


def test_oscillator_full_period_returns(grid64, osc, w0):
    out = evolve_lvn(w0, osc, 2 * np.pi, 0.005, verify_dt=False)
    assert np.abs(out.values - w0.values).max() < 1e-5


def test_free_particle_matches_oracle(grid64, w0):
    free = Hamiltonian(grid64, [HamiltonianTerm((("p", 0, lambda p: p ** 2 / 2),))])
    out = evolve_lvn(w0, free, 1.0, 0.005, verify_dt=False)
    hm = weyl_operator_from_symbol(free.symbol())
    psi = coherent_state(grid64, 1.0, 0.3)
    oracle = wigner_from_wavefunction(schrodinger_propagate(psi, hm, 1.0))
    assert np.abs(out.values - oracle.values).max() < 1e-5


def test_mass_conserved_exactly(grid64, osc, w0):
    out = evolve_lvn(w0, osc, 1.0, 0.01, verify_dt=False)
    assert abs(out.integral() - 1) < 1e-12


def test_purity_conserved(grid64, osc, w0):
    out = evolve_lvn(w0, osc, 2 * np.pi, 0.01, verify_dt=False)
    assert abs(out.purity() - w0.purity()) < 1e-6


def test_evolution_linearity(grid64, osc):
    wa = wigner_from_wavefunction(coherent_state(grid64, -1.5, 0.0))
    wb = wigner_from_wavefunction(coherent_state(grid64, 1.0, 0.5))
    mix_vals = 0.3 * wa.values + 0.7 * wb.values
    from osqm.wigner import WignerState
    mix = WignerState(grid64, mix_vals)
    t, dt = 0.7, 0.01
    out_mix = evolve_lvn(mix, osc, t, dt, verify_dt=False)
    out_a = evolve_lvn(wa, osc, t, dt, verify_dt=False)
    out_b = evolve_lvn(wb, osc, t, dt, verify_dt=False)
    assert np.abs(out_mix.values - 0.3 * out_a.values - 0.7 * out_b.values).max() < 1e-8


def test_ehrenfest_means_follow_classical_flow(grid64, osc, w0):
    X, P = grid64.phase_mesh()
    xs = WeylSymbol(grid64, X + 0j)
    ps = WeylSymbol(grid64, P + 0j)
    for t in (0.5, 1.2):
        out = evolve_lvn(w0, osc, t, 0.005, verify_dt=False)
        x_exp = 1.0 * np.cos(t) + 0.3 * np.sin(t)
        p_exp = 0.3 * np.cos(t) - 1.0 * np.sin(t)
        assert abs(mean_value(xs, out) - x_exp) < 1e-6
        assert abs(mean_value(ps, out) - p_exp) < 1e-6


def test_double_well_quartic_term():
    # on grid64 (p extent 11.2) the state reaches the momentum edge by
    # t = 0.5; 128 points keep both marginals off the edge shell
    from osqm.scenarios import hamiltonian_preset
    grid = PhaseGrid.create(128, 9.0)
    h = hamiltonian_preset(grid, "double-well", {"a": 0.15, "b": 2.0})
    psi = coherent_state(grid, -2.0, 0.0)
    w = wigner_from_wavefunction(psi)
    out = evolve_lvn(w, h, 0.5, 0.002, verify_dt=False)
    hm = weyl_operator_from_symbol(h.symbol())
    oracle = wigner_from_wavefunction(schrodinger_propagate(psi, hm, 0.5))
    assert np.abs(out.values - oracle.values).max() < 1e-5


def test_double_well_leaving_the_grid_raises(grid64):
    from osqm.scenarios import hamiltonian_preset
    h = hamiltonian_preset(grid64, "double-well", {"a": 0.15, "b": 2.0})
    w = wigner_from_wavefunction(coherent_state(grid64, -2.0, 0.0))
    with pytest.raises(ContainmentError, match="marginal"):
        evolve_lvn(w, h, 0.5, 0.002, verify_dt=False)


def test_momentum_edge_state_rejected(grid64):
    # a Gaussian boosted to one unit below the momentum extent: |psi(x)|^2
    # is well inside the grid, |psi~(p)|^2 is not
    x = grid64.x(0)
    p0 = grid64.p_extents[0] - 1.0
    psi = WaveFunction(grid64, np.exp(-x ** 2 / 2 + 1j * p0 * x),
                       normalized=False).normalize()
    with pytest.raises(ContainmentError, match="psi~"):
        wigner_from_wavefunction(psi)


@pytest.mark.parametrize("t_final", [-1.0, np.nan, np.inf])
def test_t_final_not_finite_and_non_negative_is_rejected(grid64, osc, w0, t_final):
    with pytest.raises(ValueError, match="t_final"):
        evolve_lvn(w0, osc, t_final, 0.01)


@pytest.mark.parametrize("t_final", [0.0, 0.1])
def test_hamiltonian_without_terms_is_rejected(grid64, w0, t_final):
    with pytest.raises(ValueError, match="Hamiltonian has no terms"):
        evolve_lvn(w0, Hamiltonian(grid64, []), t_final, 0.01)


def test_dof2_coupling_stays_on_the_grid():
    # the grid bracket of p1 tanh(x2) is not real; a stepper that drops the
    # imaginary part at every stage left the grid here by t = 0.06
    from osqm.oracle import tensor_state
    g1 = PhaseGrid.create(32, 8.0)
    h = Hamiltonian(PhaseGrid.product(g1, g1), [
        HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),)),
        HamiltonianTerm((("x", 1, lambda x: x ** 2 / 2),)),
        HamiltonianTerm((("p", 0, lambda p: p), ("x", 1, np.tanh)),
                        coefficient=0.8),
    ])
    w = wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0),
                                              coherent_state(g1, -1.0, 0.0)))
    out = evolve_lvn(w, h, 0.06, 0.01, verify_dt=False)
    x1_marginal = out.values.sum(axis=(1, 2, 3))
    assert g1.containment_shell_mass(x1_marginal) < 1e-12


def test_instability_detection(grid64, osc, w0):
    with pytest.raises(EvolutionUnstableError):
        evolve_lvn(w0, osc, 5.0, 0.5)  # one step and two half steps differ by 3e-3


def test_dt_beyond_t_final_verifies_the_one_step_taken(grid64, osc, w0):
    # dt = 1.6 > t_final = 1.5 takes one step of 1.5, which verify_dt must
    # check as it checks dt = 1.5 (mismatch 0.88); unchecked, only the
    # containment check stopped it, at 1.019e-6 of its 1e-6 bound
    with pytest.raises(EvolutionUnstableError, match="at dt=1.5"):
        evolve_lvn(w0, osc, 1.5, 1.6)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_dt_not_finite_is_rejected(grid64, osc, w0, dt):
    # dt = inf returned a state 90% off in one unchecked step of t_final
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        evolve_lvn(w0, osc, 1.5, dt)


def test_composite_coupling_term_matches_oracle():
    g1 = PhaseGrid.create(32, 8.0)
    g2 = PhaseGrid.create(32, 8.0)
    gg = PhaseGrid.product(g1, g2)
    from osqm.oracle import tensor_state
    psi = tensor_state(coherent_state(g1, 0.0, 0.0),
                       coherent_state(g2, -1.0, 0.0))
    w0 = wigner_from_wavefunction(psi)
    h = Hamiltonian(gg, [HamiltonianTerm(
        (("p", 0, lambda p: p), ("x", 1, lambda x: np.tanh(x))),
        coefficient=0.8)])
    out = evolve_lvn(w0, h, 0.4, 0.005, verify_dt=False)
    hm = weyl_operator_from_symbol(h.symbol())
    oracle = wigner_from_wavefunction(
        schrodinger_propagate(psi, hm, 0.4), check_containment=False)
    assert np.abs(out.values - oracle.values).max() < 1e-6


def test_split_step_is_fourth_order(grid64, osc, w0):
    # the oscillator returns to its initial state after 2 pi
    errs = [np.abs(evolve_lvn(w0, osc, 2 * np.pi, dt, verify_dt=False).values
                   - w0.values).max() for dt in (0.1, 0.05)]
    assert 12 < errs[0] / errs[1] < 20


def test_composite_three_term_split_matches_oracle():
    g1 = PhaseGrid.create(32, 8.0)
    gg = PhaseGrid.product(g1, g1)
    from osqm.oracle import tensor_state
    psi = tensor_state(coherent_state(g1, 0.0, 0.0),
                       coherent_state(g1, -1.0, 0.0))
    h = Hamiltonian(gg, [
        HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),)),
        HamiltonianTerm((("x", 1, lambda x: x ** 2 / 2),)),
        HamiltonianTerm((("p", 0, lambda p: p), ("x", 1, np.tanh)),
                        coefficient=0.8),
    ])
    out = evolve_lvn(wigner_from_wavefunction(psi), h, 0.4, 0.05,
                     verify_dt=False)
    hm = weyl_operator_from_symbol(h.symbol())
    oracle = wigner_from_wavefunction(
        schrodinger_propagate(psi, hm, 0.4), check_containment=False)
    assert np.abs(out.values - oracle.values).max() < 1e-6


def test_step_count_keeps_whole_steps_and_drops_round_off_tails():
    assert step_count(np.pi, np.pi / 64) == (64, 0.0)
    assert step_count(3 * 0.1, 0.1) == (3, 0.0)       # 0.30000000000000004 / 0.1
    whole, tail = step_count(1.0, 0.3)
    assert whole == 3 and tail == pytest.approx(0.1, abs=1e-15)
    assert step_count(0.0, 0.1) == (0, 0.0)


# ---------------------------------------------------------------------------
# in-place changes of representation

def _three_term_h():
    gg = PhaseGrid.product(PhaseGrid.create(32, 8.0), PhaseGrid.create(32, 8.0))
    return Hamiltonian(gg, [
        HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),)),
        HamiltonianTerm((("x", 1, lambda x: x ** 2 / 2),)),
        HamiltonianTerm((("p", 0, lambda p: p), ("x", 1, np.tanh)),
                        coefficient=0.8),
    ])


def _double_well_h():
    from osqm.scenarios import hamiltonian_preset
    return hamiltonian_preset(PhaseGrid.create(128, 9.0), "double-well",
                              {"a": 0.15, "b": 2.0})


def _factor_axes(grid, term):
    """(conv_axis, mask_axis) of each factor of a term."""
    n = grid.dof
    return [(dof, n + dof) if kind == "x" else (n + dof, dof)
            for kind, dof, _ in term.factors]


def _odd_shift(shape, conv, mask, nyquist):
    """e^{i pi k / n} at conv-axis frequency k on odd mask frequencies, else 1;
    at the Nyquist k = -n/2 the value nyquist (-1j for the split path, 0 for
    the exact path and rhs)."""
    n = shape[conv]
    k_shape, q_shape = [1] * len(shape), [1] * len(shape)
    k_shape[conv], q_shape[mask] = n, shape[mask]
    k = np.fft.fftfreq(n, 1.0 / n).reshape(k_shape)
    odd = (np.arange(shape[mask]) % 2 == 1).reshape(q_shape)
    shift = np.where(k == -n // 2, nyquist, np.exp(1j * np.pi * k / n))
    return np.where(odd, shift, 1.0)


def _to_mixed(grid, term, what, nyquist):
    """A frequency array (np.fft order on every axis) in the term's mixed
    representation: per factor, the odd mask columns' half-cell shift, then
    an inverse FFT along the factor's conv axis."""
    for conv, mask in _factor_axes(grid, term):
        what = np.fft.ifft(what * _odd_shift(what.shape, conv, mask, nyquist), axis=conv)
    return what


def _from_mixed(grid, term, coef, nyquist):
    for conv, mask in reversed(_factor_axes(grid, term)):
        coef = np.fft.fft(coef, axis=conv) * np.conj(_odd_shift(coef.shape, conv, mask, nyquist))
    return coef


def _reference_step(h, plan, coef, pending, dt):
    """One split step as unmerged Strang sweeps of to_mixed(from_mixed(.)) * exp.

    Yoshida's three sweeps take w1 dt, w0 dt and w1 dt. Returns the state in
    term 0's mixed representation with nothing left pending.
    """
    grid, terms = h.grid, h.terms
    gens = [b.generator[..., :b.width] for b in plan.bases]
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    last = len(terms) - 1
    order = list(range(last)) + [last] + list(range(last - 1, -1, -1))
    coef = coef * np.exp(pending * gens[0])
    cur = 0
    for weight in (w1, w0, w1):
        for j in order:
            s = (weight if j == last else 0.5 * weight) * dt
            coef = _to_mixed(grid, terms[j], _from_mixed(grid, terms[cur], coef, -1j), -1j)
            coef = coef * np.exp(s * gens[j])
            cur = j
    return _to_mixed(grid, terms[0], _from_mixed(grid, terms[cur], coef, -1j), -1j)


@pytest.mark.parametrize("case", ["oscillator", "double-well", "three-term"])
def test_split_step_matches_basis_change_composition(case, grid64, osc):
    if case == "oscillator":
        h = osc
        w = wigner_from_wavefunction(coherent_state(grid64, 1.0, 0.3))
    elif case == "double-well":
        h = _double_well_h()
        w = wigner_from_wavefunction(coherent_state(h.grid, -2.0, 0.0))
    else:
        from osqm.oracle import tensor_state
        h = _three_term_h()
        g1 = h.grid.factor(0)
        w = wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0),
                                                  coherent_state(g1, -1.0, 0.0)))
    plan = dynamics.LvnPlan(h.grid, h)
    n = w.values.shape[-1]  # the state is the first n entries of a padded row
    coef, _ = plan.enter(w.values)
    want = _to_mixed(h.grid, h.terms[0], np.fft.fftn(w.values), -1j)
    scale = np.abs(want).max()
    assert np.abs(coef[..., :n] - want).max() < 1e-13 * scale
    pending, dt = 0.013, 0.05
    for _ in range(2):
        want = _reference_step(h, plan, coef[..., :n], pending, dt)
        coef, pending = plan.step(coef.copy(), pending, dt)
        got = coef[..., :n] * np.exp(pending * plan.bases[0].generator[..., :n])
        assert np.abs(got - want).max() < 1e-13 * scale


def _full_generator(grid, term):
    """A term's generator on every mask frequency (the split path's layout)."""
    return dynamics._TermBasis(grid, term, split=True).generator[..., :grid.phase_shape[-1]]


def _exact_case(name):
    """(Hamiltonian, Wigner state) of a one-term case."""
    from osqm.oracle import tensor_state
    from osqm.scenarios import hamiltonian_preset
    free_grids = {"free-64": (64, 9.0), "free-30": (30, 6.5)}
    if name in free_grids:
        grid = PhaseGrid.create(*free_grids[name])
        return (hamiltonian_preset(grid, "free", {}),
                wigner_from_wavefunction(coherent_state(grid, 0.5, 0.3)))
    if name == "x-potential-64":  # one x factor: its mask axis p is the last axis
        grid = PhaseGrid.create(64, 8.0)
        term = HamiltonianTerm((("x", 0, lambda x: x ** 4 / 4 + np.tanh(x)),))
        return (Hamiltonian(grid, [term]),
                wigner_from_wavefunction(coherent_state(grid, 0.5, 0.3)))
    g1 = PhaseGrid.create(34 if name == "coupling-34" else 32, 8.0)
    grid = PhaseGrid.product(g1, g1)
    if name.startswith("coupling"):
        h = hamiltonian_preset(grid, "von-neumann-coupling", {"v": 1.0, "w": 1.0})
    else:  # p1^2 / 2: a term on one dof of two
        h = Hamiltonian(grid, [HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),))])
    cat = initial_state_preset(g1, "cat", {"centers": [[-2.0, 0.0], [2.0, 0.0]]})
    return h, wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0), cat))


@pytest.mark.parametrize("name", ["free-64", "free-30", "coupling", "p1-squared",
                                  "x-potential-64", "coupling-34"])
def test_exact_path_matches_basis_change_composition(name):
    # the exact path moves only the mask axes to the frequency domain, on the
    # half spectrum, with 0 at the Nyquist frequency in its half-cell shift;
    # it must give the real part of exp(t G) applied in the mixed
    # representation reached from the full np.fft spectrum with that rule,
    # also at N = 30, where N / 2 is odd, on an axis pair of no factor, and
    # at N = 34 on dof 2, where the mask-Nyquist row and the last edge column
    # are odd
    h, w = _exact_case(name)
    total = 0.2
    term = h.terms[0]
    coef = np.exp(total * _full_generator(h.grid, term)) * _to_mixed(
        h.grid, term, np.fft.fftn(w.values), 0.0)
    want = np.fft.ifftn(_from_mixed(h.grid, term, coef, 0.0))
    got = evolve_lvn(w, h, total, 0.05)
    scale = np.abs(w.values).max()
    assert np.abs(got.values - want.real).max() <= 1e-15 * scale
    if name.startswith("coupling"):
        # the reference is not real: on the rows where the other mask axis
        # sits at its Nyquist index, the half spectrum must take E-bar, not
        # plain E, to keep its real part
        assert np.abs(want.imag).max() > 1e-8 * scale
        basis, = h.lvn_plan.bases
        plain = basis.mixed(w.values, np.exp(total * basis.generator), out=None)
        assert np.abs(plain - want.real).max() > 1e-8 * scale


@pytest.mark.parametrize("name", ["free-64", "free-30", "coupling", "p1-squared",
                                  "x-potential-64", "coupling-34"])
def test_one_term_rhs_matches_the_np_fft_reference(name):
    # the generator applied in the mixed representation reached from the
    # full np.fft spectrum, with 0 at the Nyquist frequency
    h, w = _exact_case(name)
    plan = dynamics.LvnPlan(h.grid, h)
    got = plan.rhs(w.values)
    term = h.terms[0]
    coef = _full_generator(h.grid, term) * _to_mixed(h.grid, term, np.fft.fftn(w.values), 0.0)
    want = np.fft.ifftn(_from_mixed(h.grid, term, coef, 0.0)).real
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _oracle_evolution(h, w, t):
    """weyl_symbol_from_operator(U rho U^H) over (2 pi hbar)^n, rho W's own operator."""
    from osqm.oracle import OperatorMatrix
    from osqm.weyl import weyl_symbol_from_operator
    g = h.grid
    rho = weyl_operator_from_symbol(w.as_symbol()).matrix
    u = weyl_operator_from_symbol(h.symbol()).unitary(t)
    want = weyl_symbol_from_operator(OperatorMatrix(g, u @ rho @ u.conj().T))
    return want.values.real / (2 * np.pi * g.hbar) ** g.dof


@pytest.mark.parametrize("n", [30, 34, 38])
def test_exact_free_evolution_at_odd_half_n_matches_the_oracle(n):
    # at N = 2 (mod 4) the -i Nyquist rule missed by 5.7e-11/2.0e-12/3.7e-13;
    # the Weyl maps' rule reads 1.5e-15/2.3e-15/2.1e-15
    from osqm.scenarios import hamiltonian_preset
    grid = PhaseGrid.create(n, 7.0)
    h = hamiltonian_preset(grid, "free", {})
    w = wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3))
    out = evolve_lvn(w, h, 0.3, 0.05)
    want = _oracle_evolution(h, w, 0.3)
    assert np.abs(out.values - want).max() <= 1e-14 * np.abs(w.values).max()


@pytest.mark.parametrize("n", [32, 34])
@pytest.mark.parametrize("kind", ["x", "p"])
def test_factor_tables_are_the_rolled_profile_samples(n, kind):
    # column q of left/right multiplication by f(x) is f rolled by floor(q/2)
    # and by -ceil(q/2); for g(p) the two swap. At N = 34 the Nyquist
    # column q = -17 is odd.
    grid = PhaseGrid.create(n, 7.0)
    profile = lambda v: v ** 3 / 3 + np.tanh(v)   # no symmetry to hide a sign
    conv, mask, left, right = dynamics._factor_tables(grid, kind, 0, profile)
    f = profile(grid.x(0) if kind == "x" else grid.p(0))
    q = np.fft.fftfreq(n, 1.0 / n).astype(int)
    floor_half, minus_ceil_half = q // 2, -((q + 1) // 2)
    rolls = (floor_half, minus_ceil_half) if kind == "x" else (minus_ceil_half, floor_half)
    for table, roll in zip((left, right), rolls):
        table = table.reshape(n, n) if conv < mask else table.reshape(n, n).T
        want = np.stack([np.roll(f, s) for s in roll], axis=1)   # [conv, mask]
        assert np.array_equal(table, want)


def test_split_path_at_odd_half_n_matches_the_oracle():
    # every other split-path test runs at an even N / 2; at N = 34 the odd
    # mask columns include the np.fft Nyquist column. The oracle evolves W's
    # own operator, so only the splitting error and round-off remain
    # (9.4e-10 here, 1.8e-11 at N = 32).
    from osqm.scenarios import hamiltonian_preset
    grid = PhaseGrid.create(34, 7.0)
    h = hamiltonian_preset(grid, "oscillator", {})
    w = wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3))
    out = evolve_lvn(w, h, 1.0, 0.005)
    assert np.abs(out.values - _oracle_evolution(h, w, 1.0)).max() < 1e-8


def test_exact_plan_holds_one_block_of_three_half_spectrum_arrays():
    # the generator on the half spectrum, the one E-bar table and the work
    # array, in one block allocated with the plan: no move tables; beside
    # them only conj G(-q) on the rows where the other mask axis sits at its
    # Nyquist index
    h, w = _exact_case("coupling")
    evolve_lvn(w, h, 0.2, 0.05)
    evolve_lvn(w, h, 0.3, 0.05)
    plan = h.lvn_plan
    basis, = plan.bases
    half = w.values.shape[:-1] + (w.values.shape[-1] // 2 + 1,)
    assert basis.half_shape == half
    assert plan.block.shape == (3,) + half and plan.block.dtype == complex
    assert plan.block.flags.c_contiguous and plan.block.ctypes.data % 64 == 0
    table, = plan._tables.values()
    for k, arr in enumerate((basis.generator, table, plan._work)):
        assert arr.shape == half
        assert arr.ctypes.data == plan.block[k].ctypes.data
    (rows, tilde), = basis.nyquist_rows
    assert tilde.shape == table[rows].shape
    assert tilde.nbytes * 32 == plan.block[0].nbytes
    held = [a for a in (*vars(basis).values(), *vars(plan).values())
            if isinstance(a, np.ndarray)]
    assert all(np.shares_memory(a, plan.block) for a in held)
    assert plan._moves == {}


@pytest.mark.parametrize("name", ["free-30", "coupling-34"])
def test_exact_path_shifts_keep_a_weyl_image(name):
    # the zero Nyquist rule drops the conv-axis Nyquist component of the odd
    # mask columns; a Wigner function has none there, so a table of ones
    # returns it (4.1e-16 on coupling-34), while a random array loses some
    h, w = _exact_case(name)
    basis = dynamics._TermBasis(h.grid, h.terms[0], split=False)
    ones = np.ones(basis.half_shape, dtype=complex)
    scale = np.abs(w.values).max()
    assert np.abs(basis.mixed(w.values, ones, out=None) - w.values).max() < 1e-15 * scale
    noise = np.random.default_rng(0).standard_normal(w.values.shape)
    assert np.abs(basis.mixed(noise, ones, out=None) - noise).max() > 0.1


def test_one_factor_term_has_no_nyquist_rows():
    # with one mask axis, the last, E-bar is plain E
    for name in ("free-64", "p1-squared", "x-potential-64"):
        h, _ = _exact_case(name)
        assert dynamics._TermBasis(h.grid, h.terms[0], split=False).nyquist_rows == []


def test_warm_exact_call_allocates_little_beyond_its_result():
    # the call runs in the plan's block: what it allocates is its real result
    # (8.4 MB on 32^4) and a few small arrays
    import tracemalloc
    h, w = _exact_case("coupling")
    evolve_lvn(w, h, 0.2, 0.05)
    tracemalloc.start()
    try:
        out = evolve_lvn(w, h, 0.2, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.values.nbytes


@pytest.mark.parametrize("name", ["free-64", "coupling"])
def test_exact_result_is_its_own_contiguous_array(name):
    # the plan's work array is overwritten by the next call: a result owns
    # its memory
    h, w = _exact_case(name)
    first = evolve_lvn(w, h, 0.2, 0.05)
    kept = first.values.copy()
    evolve_lvn(w, h, 0.3, 0.05)
    assert first.values.tobytes() == kept.tobytes()
    assert first.values.flags.c_contiguous
    assert not np.shares_memory(first.values, h.lvn_plan.block)


def _power_of_two_strides(arr):
    """Strides of arr's axes of length > 1, bar the element stride, that are 2^k."""
    return [stride for size, stride in zip(arr.shape, arr.strides)
            if size > 1 and stride != arr.itemsize and stride & (stride - 1) == 0]


@pytest.mark.parametrize("case", ["oscillator-64", "oscillator-128",
                                  "oscillator-256", "three-term"])
def test_split_buffers_have_no_power_of_two_stride(case):
    # an FFT or product along such a stride maps successive rows to the same
    # cache sets; the split path pads its rows to avoid it
    from osqm.oracle import tensor_state
    from osqm.scenarios import hamiltonian_preset
    if case == "three-term":
        h = _three_term_h()
        g1 = h.grid.factor(0)
        psi = tensor_state(coherent_state(g1, 0.0, 0.0), coherent_state(g1, -1.0, 0.0))
    else:
        grid = PhaseGrid.create(int(case.split("-")[1]), 9.0)
        h = hamiltonian_preset(grid, "oscillator", {})
        psi = coherent_state(grid, 1.0, 0.3)
    w = wigner_from_wavefunction(psi)
    plan = dynamics.LvnPlan(h.grid, h)
    coef, pending = plan.enter(w.values)
    buffers = [coef]
    for _ in range(2):
        coef, pending = plan.step(coef, pending, 0.05)
        buffers.append(coef)
    buffers += list(plan._moves.values()) + list(plan._tables.values())
    buffers += [plan._exp(j, 0.05) for j in range(len(plan.bases))]
    assert len(buffers) > 3 + len(plan._moves)
    for arr in buffers:
        assert _power_of_two_strides(arr) == [], (arr.shape, arr.strides)
    # the spare entries stay zero, and the Wigner array is unpadded
    assert not coef[..., w.values.shape[-1]:].any()
    assert plan.real(coef, pending).shape == w.values.shape


@pytest.mark.parametrize("name", ["free", "oscillator"])
def test_repeated_evolution_repeats_bitwise(grid64, w0, name):
    # the changes of representation run in place: they must not write into
    # the input state; the tables a Hamiltonian keeps across calls give every
    # call the bits a fresh Hamiltonian gives, through a change of t_final
    # and back
    from osqm.scenarios import hamiltonian_preset
    h = hamiltonian_preset(grid64, name, {})
    start = w0.values.copy()
    runs = [(1.0, 0.05), (0.7, 0.05), (1.0, 0.05), (1.0, 0.04)]
    outs = [evolve_lvn(w0, h, t_final, dt).values for t_final, dt in runs]
    assert np.array_equal(w0.values, start)
    assert np.array_equal(outs[2], outs[0])
    for (t_final, dt), out in zip(runs, outs):
        fresh = evolve_lvn(w0, hamiltonian_preset(grid64, name, {}), t_final, dt)
        assert np.array_equal(out, fresh.values)


def test_composite_evolution_repeats_bitwise():
    h = _three_term_h()
    from osqm.oracle import tensor_state
    g1 = h.grid.factor(0)
    w = wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0),
                                              coherent_state(g1, -1.0, 0.0)))
    first = evolve_lvn(w, h, 0.2, 0.05, verify_dt=False)
    other = evolve_lvn(w, h, 0.25, 0.05, verify_dt=False)
    again = evolve_lvn(w, h, 0.2, 0.05, verify_dt=False)
    assert np.array_equal(again.values, first.values)
    fresh = evolve_lvn(w, _three_term_h(), 0.25, 0.05, verify_dt=False)
    assert np.array_equal(other.values, fresh.values)


# ---------------------------------------------------------------------------
# the tables a Hamiltonian keeps across evolve_lvn calls

def _quadratic_h(grid, kinds):
    """One quadratic term per kind: one term takes the exact path, two split."""
    return Hamiltonian(grid, [HamiltonianTerm(((kind, 0, lambda q: q ** 2 / 2),))
                              for kind in kinds])


@pytest.mark.parametrize("kinds", [("p",), ("p", "x")], ids=["exact", "split"])
def test_term_bases_are_built_once_per_term(grid64, w0, monkeypatch, kinds):
    built = []
    init = dynamics._TermBasis.__init__

    def counting(self, grid, term, split):
        built.append(term)
        init(self, grid, term, split)

    monkeypatch.setattr(dynamics._TermBasis, "__init__", counting)
    h = _quadratic_h(grid64, kinds)
    for t_final, dt in [(0.2, 0.05), (0.3, 0.05), (0.2, 0.05), (0.2, 0.04), (0.1, 0.05)]:
        evolve_lvn(w0, h, t_final, dt)
    assert built == list(h.terms)


@pytest.mark.parametrize("kinds", [("p",), ("p", "x")], ids=["exact", "split"])
def test_exp_tables_are_those_of_the_latest_call(grid64, w0, kinds):
    # a call with other step sizes replaces the exp tables, so the bytes held
    # do not grow with the number of distinct dt and t_final values
    h = _quadratic_h(grid64, kinds)
    runs = [(0.2, 0.05), (0.3, 0.05), (0.3, 0.04), (0.25, 0.03), (0.1, 0.02)]
    for t_final, dt in runs:
        evolve_lvn(w0, h, t_final, dt)
    one_call = _quadratic_h(grid64, kinds)
    evolve_lvn(w0, one_call, *runs[-1])
    assert set(h.lvn_plan._tables) == set(one_call.lvn_plan._tables)
    assert 0 < len(h.lvn_plan._tables) <= len(h.terms) * len(runs)


@pytest.mark.parametrize("name", ["free", "oscillator", "double-well",
                                  "von-neumann-coupling"])
def test_preset_hamiltonian_holds_no_tables_before_its_first_evolution(name):
    from osqm.oracle import tensor_state
    from osqm.scenarios import hamiltonian_preset
    g1 = PhaseGrid.create(32, 8.0)
    if name == "von-neumann-coupling":
        grid = PhaseGrid.product(g1, g1)
        psi = tensor_state(coherent_state(g1, 0.0, 0.0), coherent_state(g1, 1.0, 0.0))
    else:
        grid, psi = g1, coherent_state(g1, 0.0, 0.0)
    h = hamiltonian_preset(grid, name, {})
    h.symbol()
    w = wigner_from_wavefunction(psi)
    evolve_lvn(w, h, 0.0, 0.01)  # no time, no evolution
    assert "lvn_plan" not in vars(h)
    evolve_lvn(w, h, 0.02, 0.01)
    assert isinstance(vars(h)["lvn_plan"], dynamics.LvnPlan)


def test_hamiltonian_terms_are_a_frozen_tuple(grid64):
    # a Hamiltonian keeps its LvN tables, so its terms cannot change
    term = HamiltonianTerm((("p", 0, lambda p: p ** 2 / 2),))
    h = Hamiltonian(grid64, [term])
    assert h.terms == (term,)
    with pytest.raises(AttributeError):
        h.terms.append(term)
    with pytest.raises(FrozenInstanceError):
        h.terms = (term, term)
    with pytest.raises(ValueError, match="Hamiltonian has no terms"):
        Hamiltonian(grid64, [])


@pytest.mark.parametrize("points, dof", [((64,), -1), ((64,), 1), ((32, 32), 2)])
def test_factor_dof_off_the_grid_is_rejected(points, dof):
    # dof -1 on a dof-1 grid read the other axis in symbol(): a p factor
    # rendered as a function of x
    grids = [PhaseGrid.create(n, 8.0) for n in points]
    grid = grids[0] if len(grids) == 1 else PhaseGrid.product(*grids)
    term = HamiltonianTerm((("p", dof, lambda p: p ** 2 / 2),))
    with pytest.raises(ValueError, match="not a dof of the"):
        Hamiltonian(grid, [term])


@dataclass
class _Quadratic:
    """A callable profile that, as an eq=True dataclass, does not hash."""

    k: float

    def __call__(self, x):
        return 0.5 * self.k * x ** 2


@pytest.mark.parametrize("split", [False, True])
def test_unhashable_profile_evolves(grid64, w0, split):
    kinds = ["x", "p"] if split else ["x"]
    terms = [HamiltonianTerm(((kind, 0, _Quadratic(1.0)),)) for kind in kinds]
    with pytest.raises(TypeError):
        hash(terms[0])
    same = [HamiltonianTerm(((kind, 0, lambda q: 0.5 * q ** 2),)) for kind in kinds]
    out = evolve_lvn(w0, Hamiltonian(grid64, terms), 0.2, 0.05)
    want = evolve_lvn(w0, Hamiltonian(grid64, same), 0.2, 0.05)
    assert np.array_equal(out.values, want.values)


# ---------------------------------------------------------------------------
# the LvN bracket against the dense oracle

def _oracle_rhs(h, w):
    """Weyl symbol of (H rho - rho H) / (i hbar) over (2 pi hbar)^n.

    rho is W's own operator. For the coherent state at (1, 0.3) it differs
    from psi psi^H by 1.1e-10, since the grid Weyl map is exact only off the
    Nyquist sector, and against psi psi^H the right-hand side would read
    1.5e-9 relative.
    """
    from osqm.oracle import OperatorMatrix
    from osqm.weyl import weyl_symbol_from_operator
    g = h.grid
    rho = weyl_operator_from_symbol(w.as_symbol()).matrix
    hm = weyl_operator_from_symbol(h.symbol()).matrix
    comm = OperatorMatrix(g, (hm @ rho - rho @ hm) / (1j * g.hbar))
    return weyl_symbol_from_operator(comm).values.real / (2 * np.pi * g.hbar) ** g.dof


@pytest.mark.parametrize("name", ["oscillator", "double-well"])
def test_lvn_rhs_matches_the_oracle_commutator(grid64, name):
    from osqm.scenarios import hamiltonian_preset
    h = hamiltonian_preset(grid64, name, {})
    w = wigner_from_wavefunction(coherent_state(grid64, 1.0, 0.3))
    got = dynamics.LvnPlan(grid64, h).rhs(w.values)
    want = _oracle_rhs(h, w)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [30, 34])
@pytest.mark.parametrize("name", ["oscillator", "double-well"])
def test_lvn_rhs_at_odd_half_n_matches_the_oracle_commutator(name, n):
    # the -i Nyquist rule missed by up to 6.0e-9; 0 reads 3.4e-15 or less
    from osqm.scenarios import hamiltonian_preset
    grid = PhaseGrid.create(n, 7.0)
    h = hamiltonian_preset(grid, name, {})
    w = wigner_from_wavefunction(coherent_state(grid, 1.0, 0.3))
    got = dynamics.LvnPlan(grid, h).rhs(w.values)
    want = _oracle_rhs(h, w)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_dof2_lvn_rhs_matches_the_oracle_commutator():
    from osqm.oracle import tensor_state
    g1 = PhaseGrid.create(24, 6.0)
    gg = PhaseGrid.product(g1, g1)
    h = Hamiltonian(gg, [
        HamiltonianTerm((("p", 0, lambda p: p), ("x", 1, np.tanh)),
                        coefficient=1 + 0.5 * np.sin(0.3)),
        HamiltonianTerm((("p", 1, lambda p: p ** 2 / 2),))])
    w = wigner_from_wavefunction(tensor_state(coherent_state(g1, 0.0, 0.0),
                                              coherent_state(g1, -1.0, 0.0)))
    got = dynamics.LvnPlan(gg, h).rhs(w.values)
    want = _oracle_rhs(h, w)
    # 9.5e-9: the dof-2 grid Weyl map's own error, not the right-hand side's
    assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()
