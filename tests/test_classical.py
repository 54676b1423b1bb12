import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osqm.classical import (ClassicalObservable, FlowResult, SymplecticForm,
                            evolve_region_classically, flow_points, hamilton_flow,
                            poisson_bracket, symplectic_product)
from osqm.grid import PhaseGrid, PhasePoint

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_symplectic_matrix_squares_to_minus_identity():
    for dof in (1, 2):
        J = SymplecticForm(dof)
        assert np.array_equal(J.squared(), -np.eye(2 * dof, dtype=np.int64))


def test_symplectic_product_unit_vectors():
    assert symplectic_product(PhasePoint.of(1, 0), PhasePoint.of(0, 1)) == 1.0


def test_symplectic_product_hand_value():
    # (2,3) against (5,7): 2*7 - 3*5
    assert symplectic_product(PhasePoint.of(2, 3), PhasePoint.of(5, 7)) == -1.0


def test_symplectic_product_dof_mismatch():
    with pytest.raises(ValueError):
        symplectic_product(PhasePoint.of([1, 0], [0, 0]), PhasePoint.of(1, 0))


@given(finite, finite, finite, finite)
@settings(max_examples=50, deadline=None)
def test_symplectic_antisymmetry(x1, p1, x2, p2):
    z1 = PhasePoint.of(x1, p1)
    z2 = PhasePoint.of(x2, p2)
    assert symplectic_product(z1, z1) == 0.0
    assert symplectic_product(z1, z2) == -symplectic_product(z2, z1)


@given(finite, finite, finite, finite, st.floats(min_value=-3, max_value=3,
                                                 allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_symplectic_bilinearity(x1, p1, x2, p2, a):
    z1 = PhasePoint.of(x1, p1)
    z2 = PhasePoint.of(x2, p2)
    za = PhasePoint.of(a * x1, a * p1)
    assert symplectic_product(za, z2) == pytest.approx(
        a * symplectic_product(z1, z2), rel=1e-12, abs=1e-9)


@pytest.fixture(scope="module")
def cgrid():
    return PhaseGrid.create(64, 9.0)


def test_poisson_canonical_pair(cgrid):
    x = ClassicalObservable.from_poly(cgrid, {(1, 0): 1.0})
    p = ClassicalObservable.from_poly(cgrid, {(0, 1): 1.0})
    out = poisson_bracket(x, p)
    assert np.abs(out.values - 1.0).max() < 1e-14


def test_poisson_self_bracket_zero(cgrid):
    a = ClassicalObservable.from_poly(cgrid, {(2, 1): 0.7, (0, 3): -1.2})
    assert np.abs(poisson_bracket(a, a).values).max() < 1e-12


def test_poisson_symbolic_example(cgrid):
    x2 = ClassicalObservable.from_poly(cgrid, {(2, 0): 1.0})
    p = ClassicalObservable.from_poly(cgrid, {(0, 1): 1.0})
    out = poisson_bracket(x2, p)
    assert out.poly == {(1, 0): 2.0}


def test_poisson_jacobi_identity_on_random_polynomials(cgrid, rng):
    def random_poly():
        poly = {}
        for _ in range(4):
            i, j = rng.integers(0, 3, 2)
            poly[(int(i), int(j))] = float(rng.standard_normal())
        return ClassicalObservable.from_poly(cgrid, poly)

    for _ in range(5):
        a, b, c = random_poly(), random_poly(), random_poly()
        jac = (poisson_bracket(a, poisson_bracket(b, c)).values
               + poisson_bracket(b, poisson_bracket(c, a)).values
               + poisson_bracket(c, poisson_bracket(a, b)).values)
        scale = max(np.abs(poisson_bracket(a, poisson_bracket(b, c)).values).max(),
                    1.0)
        assert np.abs(jac).max() / scale < 1e-8


def test_poisson_spectral_path_on_smooth_fields(cgrid):
    X, P = cgrid.phase_mesh()
    a = ClassicalObservable(cgrid, np.exp(-(X ** 2 + P ** 2) / 4))
    b = ClassicalObservable(cgrid, np.exp(-((X - 1) ** 2 + P ** 2) / 5))
    out = poisson_bracket(a, b)
    # antisymmetry through the spectral path
    out2 = poisson_bracket(b, a)
    assert np.abs(out.values + out2.values).max() < 1e-10


@pytest.fixture(scope="module")
def oscillator(cgrid):
    return ClassicalObservable.from_poly(cgrid, {(2, 0): 0.5, (0, 2): 0.5})


def test_flow_oscillator_period(oscillator):
    res = hamilton_flow(oscillator, PhasePoint.of(1, 0), 2 * np.pi, 2 * np.pi / 4000)
    end = res.points[-1]
    assert abs(end.x[0] - 1) < 1e-6 and abs(end.p[0]) < 1e-6


def test_flow_free_uniform_motion(cgrid):
    free = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5})
    res = hamilton_flow(free, PhasePoint.of(0, 1), 3.0, 1e-3)
    end = res.points[-1]
    assert abs(end.x[0] - 3) < 1e-9 and abs(end.p[0] - 1) < 1e-12


def test_flow_quarter_period_rotation(oscillator):
    # second-order integrator: position error ~ dt^2 at fixed time
    res = hamilton_flow(oscillator, PhasePoint.of(1, 0), np.pi / 2, 1e-4)
    end = res.points[-1]
    assert abs(end.x[0]) < 1e-5 and abs(end.p[0] + 1) < 1e-5


def test_flow_exit_flagged(cgrid):
    free = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5})
    res = hamilton_flow(free, PhasePoint.of(8.0, 5.0), 5.0, 1e-2)
    assert res.exited and res.t_exit is not None


def test_flow_energy_drift_quadratic(oscillator):
    period = 2 * np.pi
    dt = period / 4000
    z0 = PhasePoint.of(1.3, -0.4)
    res = hamilton_flow(oscillator, z0, 100 * period, dt, store_every=10 ** 9)

    def energy(z):
        return (z.x[0] ** 2 + z.p[0] ** 2) / 2

    drift = abs(energy(res.points[-1]) - energy(z0)) / energy(z0)
    assert drift < 1e-6


def test_monodromy_volume_preservation(oscillator):
    # one leapfrog step is affine for quadratic H: its linear part is the
    # basis points' images less the origin's
    points = np.hstack([np.zeros((2, 1)), np.eye(2)])
    xs, ps = flow_points(oscillator, points[:1], points[1:], 0.05, 0.05)
    images = np.vstack([xs, ps])
    m = images[:, 1:] - images[:, :1]
    assert abs(np.linalg.det(m) - 1) < 1e-10


def test_flow_needs_a_polynomial_form(cgrid, oscillator):
    sampled = ClassicalObservable(cgrid, oscillator.values)
    with pytest.raises(ValueError, match="polynomial form"):
        hamilton_flow(sampled, PhasePoint.of(1.0, 0.0), 0.1, 0.01)


def test_region_flow_identity(cgrid, oscillator):
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    mask[28:36, 28:36] = True
    assert np.array_equal(evolve_region_classically(mask, oscillator, 0.0), mask)


def test_region_flow_half_period_reflection(cgrid, oscillator):
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    mask[34:40, 30:38] = True
    image = evolve_region_classically(mask, oscillator, np.pi, dt=1e-3)
    n = cgrid.n(0)
    reflected = mask[::-1, ::-1]
    # grid centers are offset under j -> N-j; compare via cell-center reflection
    expected = np.zeros_like(mask)
    for (jx, jp) in np.argwhere(mask):
        expected[(n - jx) % n, (n - jp) % n] = True
    assert np.array_equal(image, expected)


def test_region_flow_free_shear_contains_point(cgrid):
    free = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5})
    # box x in [0,1], p in [1,2]
    n = cgrid.n(0)
    dx, dp = cgrid.dx[0], cgrid.dp[0]
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    jx0 = n // 2
    jx1 = n // 2 + int(round(1.0 / dx))
    jp0 = n // 2 + int(round(1.0 / dp))
    jp1 = n // 2 + int(round(2.0 / dp))
    mask[jx0:jx1, jp0:jp1] = True
    image = evolve_region_classically(mask, free, 1.0, dt=1e-3)
    # the sheared region contains (x, p) = (2, 1.5)
    jx = int(round(2.0 / dx)) + n // 2
    jp = int(round(1.5 / dp)) + n // 2
    assert image[jx, jp]


def test_region_flow_escape_raises(cgrid):
    free = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5})
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    mask[-3:, -3:] = True  # near corner, large momentum
    with pytest.raises(ValueError):
        evolve_region_classically(mask, free, 5.0, dt=1e-2)


def test_region_flow_array_matches_per_point_flow(cgrid):
    # a non-quadratic H flows all cells at once; the array flow must land
    # where one point at a time does, within 1e-9 after 100 steps
    h = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5, (4, 0): 0.05})
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    mask[30:36, 28:34] = True
    t, dt = 1.0, 1e-2
    image = evolve_region_classically(mask, h, t, dt=dt)
    axis, n = cgrid.axis(0), cgrid.n(0)
    idx = np.argwhere(mask)
    xs, ps = flow_points(h, axis.x[idx[:, 0]][None], axis.p[idx[:, 1]][None], t, dt)
    expected = np.zeros_like(mask)
    for (jx, jp), x_t, p_t in zip(idx, xs[0], ps[0]):
        end = hamilton_flow(h, PhasePoint.of(axis.x[jx], axis.p[jp]), t, dt).points[-1]
        assert abs(end.x[0] - x_t) < 1e-9 and abs(end.p[0] - p_t) < 1e-9
        expected[int(np.rint(end.x[0] / axis.dx)) + n // 2,
                 int(np.rint(end.p[0] / axis.dp)) + n // 2] = True
    assert np.array_equal(image, expected)
