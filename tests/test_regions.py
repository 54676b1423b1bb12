import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.regions import (PS6_CUTOFF, _checked_projector, _coherent_quadrature_1dof,
                          build_partition, classicality_projectors, is_quasirestricted,
                          quasiprojector_defect)
from osqm.scenarios import MeasurementScenario
from osqm.transitions import transition_probabilities_oracle

DOF2 = PhaseGrid.product(PhaseGrid.create(16, 5.0), PhaseGrid.create(16, 5.0))


def _cell_sum(grid, mask):
    """(dx dp / 2 pi hbar) sum over masked cells of |z><z|, one state per cell."""
    x, p, hbar = grid.x(0), grid.p(0), grid.hbar
    span = 2 * grid.x_extents[0]
    diff = x[:, None] - x[None, :]
    env = sum(np.exp(-(diff + k * span) ** 2 / (2 * hbar)) for k in range(-3, 4))
    env /= np.sqrt((env[:, 0] ** 2).sum())
    jx, jp = np.nonzero(mask)
    states = env[:, jx] * np.exp(1j * np.outer(x, p[jp]) / hbar)   # [j, cell]
    return grid.dx[0] * grid.dp[0] / (2 * np.pi * hbar) * (states @ states.conj().T)


def _rotated_ellipse(grid, a=4.0, b=2.0, angle=0.6):
    x, p = np.meshgrid(grid.x(0), grid.p(0), indexing="ij")
    u = np.cos(angle) * x + np.sin(angle) * p
    v = -np.sin(angle) * x + np.cos(angle) * p
    return (u / a) ** 2 + (v / b) ** 2 < 1


def _masks(grid):
    n = grid.n(0)
    half = np.zeros((n, n), dtype=bool)
    half[: n // 2, :] = True
    rand = np.random.default_rng(11).random((n, n)) < 0.4
    return {"half-plane": half, "rotated ellipse": _rotated_ellipse(grid),
            "random": rand}


@pytest.mark.parametrize("name", ["half-plane", "rotated ellipse", "random"])
def test_quadrature_matches_the_cell_sum(grid64, name):
    mask = _masks(grid64)[name]
    got = _coherent_quadrature_1dof(grid64, mask)
    assert np.abs(got - _cell_sum(grid64, mask)).max() < 1e-13


def test_pointer_bands_match_the_cell_sum():
    # criterion 12's scenario: three x bands over every momentum
    g1, g2 = PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5)
    sc = MeasurementScenario(g1, g2, branch_sep=3.0, band_edge=5.0, displacement=10.0)
    edges = [0, int(round(10.0 / g1.dx[0])), int(round(20.0 / g1.dx[0])), 64]
    for region, lo, hi in zip(sc.partition.regions, edges, edges[1:]):
        mask = np.zeros((64, 64), dtype=bool)
        mask[lo:hi, :] = True
        assert np.abs(region.operator().matrix - _cell_sum(g1, mask)).max() < 1e-13


def test_full_grid_quadrature_is_the_identity(grid64):
    full = _coherent_quadrature_1dof(grid64, np.ones((64, 64), dtype=bool))
    assert np.abs(full - np.eye(64)).max() < 1e-12


def test_dof2_box_operator_is_the_kron_of_its_factor_blocks():
    grid = DOF2
    part = build_partition(grid, [[0.0], [0.0]])
    assert len(part.regions) == 4
    for region in part.regions:
        blocks = []
        for d in range(2):
            (j0, j1), (m0, m1) = region.x_bounds[d], region.p_bounds[d]
            mask = np.zeros((16, 16), dtype=bool)
            mask[j0:j1, m0:m1] = True
            blocks.append(_cell_sum(grid.factor(d), mask))
        ref = np.kron(blocks[0], blocks[1])
        assert np.abs(region.operator().matrix - ref).max() < 1e-13


@pytest.mark.parametrize("points", [64, 256])
@pytest.mark.parametrize("x_cuts", [[0.0], [-3.0, 3.0]])
def test_x_cut_operator_is_the_quadrature_diagonal(points, x_cuts):
    # summed over every p column the plane waves' Gram is N I, so the
    # quadrature of a box with no p cut is diagonal up to round-off
    grid = PhaseGrid.create(points, 9.0)
    for region in build_partition(grid, x_cuts).regions:
        quad = _coherent_quadrature_1dof(grid, region.mask)
        op = region.operator()
        assert np.array_equal(op.matrix, np.diag(np.diag(op.matrix)))
        assert np.abs(np.diag(op.matrix) - np.diag(quad)).max() <= 1e-15
        assert np.abs(quad - np.diag(np.diag(quad))).max() <= 1e-14
        # the cached decomposition is exact: sorted d and unit vectors
        w, q = op.eigh()
        assert np.all(np.diff(w) >= 0)
        assert np.array_equal((q * w) @ q.conj().T, op.matrix)


def test_dof2_box_with_a_p_cut_is_the_kron_of_its_factor_blocks():
    # a p cut on one dof keeps the box off the diagonal path
    grid = DOF2
    part = build_partition(grid, [[0.0], []], [[], [0.0]])
    assert len(part.regions) == 4
    for region in part.regions:
        assert not np.array_equal(region.operator().matrix,
                                  np.diag(np.diag(region.operator().matrix)))
        blocks = []
        for d in range(2):
            (j0, j1), (m0, m1) = region.x_bounds[d], region.p_bounds[d]
            mask = np.zeros((16, 16), dtype=bool)
            mask[j0:j1, m0:m1] = True
            blocks.append(_cell_sum(grid.factor(d), mask))
        ref = np.kron(blocks[0], blocks[1])
        assert np.abs(region.operator().matrix - ref).max() < 1e-13


@pytest.mark.parametrize("shape", [(64,), (64, 5)])
def test_x_cut_event_functions_are_diagonal_closed_forms(grid64, shape):
    # the identities an O(N) event path on such regions would use: the PS6
    # residual is the mass where d <= PS6_CUTOFF, the Born weight sum d |v|^2
    part = build_partition(grid64, [-3.0, 3.0])
    rng = np.random.default_rng(5)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v /= np.linalg.norm(v)
    mass = (np.abs(v) ** 2).reshape(64, -1).sum(axis=1)
    ds = [np.diag(r.operator().matrix).real for r in part.regions]
    for region, d in zip(part.regions, ds):
        assert (d <= PS6_CUTOFF).any()
        want = np.sqrt(mass[d <= PS6_CUTOFF].sum())
        assert abs(is_quasirestricted(v, region)[1] - want) <= 1e-15
    weights = np.array([d @ mass for d in ds])
    assert np.abs(transition_probabilities_oracle(v, part) - weights).max() <= 1e-15


def _deflation_reference(partition):
    """Greedy deflation from the identity for every region but the last."""
    ops = [r.operator().matrix for r in partition.regions]
    order = np.argsort([m.trace().real for m in ops])
    eye = np.eye(partition.grid.hilbert_dim)
    deflate = eye.astype(complex)
    out = [None] * len(ops)
    for idx in order[:-1]:
        m = deflate @ ops[idx] @ deflate
        w, q = np.linalg.eigh(0.5 * (m + m.conj().T))
        sel = q[:, w > 0.5]
        proj = sel @ sel.conj().T
        out[idx] = 0.5 * (proj + proj.conj().T)
        deflate = deflate - out[idx]
    rem = eye - sum(p for p in out if p is not None)
    out[int(order[-1])] = 0.5 * (rem + rem.conj().T)
    return out


@pytest.mark.parametrize("x_cuts", [[0.0], [-3.0, 3.0]])
def test_classicality_projectors_match_explicit_deflation(grid64, x_cuts):
    part = build_partition(grid64, x_cuts)
    got = classicality_projectors(part)
    for p, ref in zip(got, _deflation_reference(part)):
        assert np.array_equal(p.matrix, ref)


@pytest.mark.parametrize("x_cuts", [[0.0], [-3.0, 3.0]])
def test_quasiprojector_defect_is_the_largest_pair_defect(grid64, x_cuts):
    # ||Pi_a Pi_b - delta_ab Pi_a||_tr / tr Pi_a over every ordered pair, with
    # the trace norm as the sum of singular values
    part = build_partition(grid64, x_cuts)
    ops = [r.operator().matrix for r in part.regions]
    eye = np.eye(len(ops))
    pairs = [np.linalg.svd(a @ b - eye[i, j] * a, compute_uv=False).sum()
             / a.trace().real for i, a in enumerate(ops) for j, b in enumerate(ops)]
    got = quasiprojector_defect(part)
    assert isinstance(got, float)
    assert abs(got - max(pairs)) < 1e-12 * max(pairs)
    assert 0 < got < 1


def test_projector_check_rejects_a_matrix_that_is_not_idempotent(grid64):
    proj = classicality_projectors(build_partition(grid64, [0.0]))[0].matrix
    _checked_projector(grid64, proj)
    # a Hermitian perturbation, so only the idempotence check can fail
    bump = np.zeros_like(proj)
    bump[3, 5] = bump[5, 3] = 1e-9
    with pytest.raises(ValueError, match="not idempotent"):
        _checked_projector(grid64, proj + bump)


def test_partition_rejects_a_box_side_below_five_sqrt_hbar(grid64):
    with pytest.raises(ValueError, match="below the minimum"):
        build_partition(grid64, [0.0, 4.0])
    with pytest.raises(ValueError, match="below the minimum"):
        build_partition(grid64, [0.0], [-2.0, 2.0])


def test_partition_rejects_a_boundary_outside_the_grid(grid64):
    with pytest.raises(ValueError, match="outside the grid axis"):
        build_partition(grid64, [10.0])
    with pytest.raises(ValueError, match="outside the grid axis"):
        build_partition(grid64, [0.0], [20.0])


def test_dof2_partition_reads_an_empty_list_as_no_cuts():
    grid = DOF2
    want = build_partition(grid, [[], [0.0]], [[], []]).labels()
    assert build_partition(grid, [[], [0.0]]).labels() == want
    assert build_partition(grid, [[], [0.0]], []).labels() == want
    assert build_partition(grid, []).labels() == build_partition(grid, [[], []]).labels()


@pytest.mark.parametrize("x_cuts", [[0.0], [[0.0]], [[], [], [0.0]], [[], 0.0]])
def test_dof2_partition_rejects_cuts_not_one_list_per_dof(x_cuts):
    grid = DOF2
    with pytest.raises(ValueError, match=r"one list of cuts per dof, such as \[\[\], \[0.0\]\]"):
        build_partition(grid, x_cuts)


def test_dof1_partition_rejects_nested_cuts(grid64):
    with pytest.raises(ValueError, match=r"a list of cuts, such as \[0.0\]"):
        build_partition(grid64, [[0.0]])
