import numpy as np
import pytest

from osqm.classical import ClassicalObservable, evolve_region_classically, flow_points
from osqm.grid import PhaseGrid


@pytest.fixture(scope="module")
def cgrid():
    return PhaseGrid.create(64, 9.0)


@pytest.fixture(scope="module")
def oscillator(cgrid):
    return ClassicalObservable.from_poly(cgrid, {(2, 0): 0.5, (0, 2): 0.5})


def _flow_one(h, x, p, t, dt):
    """The final (x, p) of one dof-1 point under flow_points."""
    xs, ps = flow_points(h, [[x]], [[p]], t, dt)
    return xs[0, 0], ps[0, 0]


def test_flow_oscillator_period(oscillator):
    x, p = _flow_one(oscillator, 1.0, 0.0, 2 * np.pi, 2 * np.pi / 4000)
    assert abs(x - 1) < 1e-6 and abs(p) < 1e-6


def test_flow_free_uniform_motion(cgrid):
    free = ClassicalObservable.from_poly(cgrid, {(0, 2): 0.5})
    x, p = _flow_one(free, 0.0, 1.0, 3.0, 1e-3)
    assert abs(x - 3) < 1e-9 and abs(p - 1) < 1e-12


def test_flow_quarter_period_rotation(oscillator):
    # second-order integrator: position error ~ dt^2 at fixed time
    x, p = _flow_one(oscillator, 1.0, 0.0, np.pi / 2, 1e-4)
    assert abs(x) < 1e-5 and abs(p + 1) < 1e-5


def test_flow_energy_drift_quadratic(oscillator):
    period = 2 * np.pi
    dt = period / 4000
    x0, p0 = 1.3, -0.4
    x, p = _flow_one(oscillator, x0, p0, 100 * period, dt)

    def energy(x, p):
        return (x ** 2 + p ** 2) / 2

    drift = abs(energy(x, p) - energy(x0, p0)) / energy(x0, p0)
    assert drift < 1e-6


def test_monodromy_volume_preservation(oscillator):
    # one leapfrog step is affine for quadratic H: its linear part is the
    # basis points' images less the origin's
    points = np.hstack([np.zeros((2, 1)), np.eye(2)])
    xs, ps = flow_points(oscillator, points[:1], points[1:], 0.05, 0.05)
    images = np.vstack([xs, ps])
    m = images[:, 1:] - images[:, :1]
    assert abs(np.linalg.det(m) - 1) < 1e-10


def test_region_flow_identity(cgrid, oscillator):
    mask = np.zeros(cgrid.phase_shape, dtype=bool)
    mask[28:36, 28:36] = True
    assert np.array_equal(evolve_region_classically(mask, oscillator, 0.0, dt=1e-3), mask)


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
    x, p, n = cgrid.x(0), cgrid.p(0), cgrid.n(0)
    idx = np.argwhere(mask)
    xs, ps = flow_points(h, x[idx[:, 0]][None], p[idx[:, 1]][None], t, dt)
    expected = np.zeros_like(mask)
    for (jx, jp), x_t, p_t in zip(idx, xs[0], ps[0]):
        x_end, p_end = _flow_one(h, x[jx], p[jp], t, dt)
        assert abs(x_end - x_t) < 1e-9 and abs(p_end - p_t) < 1e-9
        expected[int(np.rint(x_end / cgrid.dx[0])) + n // 2,
                 int(np.rint(p_end / cgrid.dp[0])) + n // 2] = True
    assert np.array_equal(image, expected)
