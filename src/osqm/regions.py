"""Coarse graining of phase space: regions, quasiprojectors, projectors.

A partition is a set of axis-aligned boxes snapped to grid cells, disjoint
and exhaustive. Each region's quasiprojector Pi_R is defined once, as an
operator: the coherent-state (anti-Wick) quadrature over the region's cells
(Cahill & Glauber, Phys. Rev. 177, 1857 (1969)). In the continuum its Weyl
symbol is the sharp characteristic function chi_R smoothed by the coherent
state's Gaussian. The quadrature uses lattice-periodized coherent states,
so the full-grid sum is the identity to machine precision. The region's
phase-space symbol is the Weyl image of that operator, so the symbol-side
Born weight int Pi_R W dz equals tr(Pi_R rho_W) to round-off.

A box that spans the whole momentum axis on every dof (a region cut only in
x, such as a half-line or a pointer band) has a diagonal quasiprojector:
summed over every p column the plane waves' Gram matrix is N I, so
Pi_R = diag(d) with d_j the coherent states' weight at x_j summed over the
box's x cells. Such a region's operator is built from d in O(N^2), with its
eigendecomposition exact and its root elementwise, and the classicality
projectors of a partition of such regions are 0/1 indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .grid import PhaseGrid
from .oracle import PSD_TOL, OperatorMatrix, operator_sqrt, real_matmul
from .weyl import WeylSymbol, weyl_symbol_from_operator

__all__ = [
    "Region",
    "Partition",
    "build_partition",
    "quasiprojector_operator",
    "quasiprojector_defect",
    "classicality_projectors",
    "is_quasirestricted",
]

MIN_SIDE_FACTOR = 5.0  # box sides must be >= 5 sqrt(hbar) per axis
AMBIGUITY_MARGIN = 1e-9  # least distance of a deflated eigenvalue from the 1/2 split
PS6_TOL = 1e-3     # largest residual of a quasirestricted state
PS6_CUTOFF = 1e-6  # Pi_R eigenvalues at or below this are outside its range


@dataclass
class Region:
    """One coarse-graining region: a labeled cell mask with cached fields.

    Boxes carry per-dof index bounds; general masks (for example classical
    flow images) leave bounds as None and support dof 1 only when the
    operator or its symbol is needed.
    """

    label: str
    grid: PhaseGrid
    mask: np.ndarray
    x_bounds: Optional[tuple] = None   # per dof: (j_lo, j_hi) cell index range
    p_bounds: Optional[tuple] = None
    _symbol: Optional[WeylSymbol] = field(default=None, init=False, repr=False)
    _operator: Optional[OperatorMatrix] = field(default=None, init=False, repr=False)
    _sqrt: Optional[OperatorMatrix] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.phase_shape:
            raise ValueError("region mask must have the grid's phase shape")

    def symbol(self) -> WeylSymbol:
        """The Weyl symbol of operator(): Pi_R on phase space."""
        if self._symbol is None:
            self._symbol = weyl_symbol_from_operator(self.operator())
        return self._symbol

    def operator(self) -> OperatorMatrix:
        if self._operator is None:
            self._operator = quasiprojector_operator(self)
        return self._operator

    def sqrt_operator(self) -> OperatorMatrix:
        if self._sqrt is None:
            self._sqrt = operator_sqrt(self.operator())
        return self._sqrt


@dataclass
class Partition:
    """Disjoint, exhaustive list of regions."""

    grid: PhaseGrid
    regions: list

    def __post_init__(self):
        total = sum(r.mask.astype(int) for r in self.regions)
        if not np.all(total == 1):
            raise ValueError("regions must tile the grid exactly once")

    def labels(self) -> list:
        return [r.label for r in self.regions]

    def operator_sum(self) -> np.ndarray:
        dim = self.grid.hilbert_dim
        out = np.zeros((dim, dim), dtype=complex)
        for r in self.regions:
            out += r.operator().matrix
        return out


def _axis_intervals(grid: PhaseGrid, boundaries: Sequence[float], d: int,
                    momentum: bool) -> list:
    """Split one axis into index intervals at snapped boundaries."""
    n = grid.n(d)
    if momentum:
        lo, step = -grid.p_extents[d], grid.dp[d]
    else:
        lo, step = -grid.x_extents[d], grid.dx[d]
    cuts = [0]
    for b in sorted(boundaries):
        idx = int(round((b - lo) / step))
        if not (0 < idx < n):
            raise ValueError(f"boundary {b} outside the grid axis")
        if idx <= cuts[-1]:
            raise ValueError("boundaries must be strictly increasing after snapping")
        cuts.append(idx)
    cuts.append(n)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def _cuts_per_dof(boundaries, dof: int, name: str) -> list:
    """One list of cuts per dof; None or an empty list means no cuts at all."""
    if boundaries is None or len(boundaries) == 0:
        return [[] for _ in range(dof)]
    if dof == 1 and np.ndim(boundaries) == 1:
        return [list(boundaries)]
    if dof > 1 and len(boundaries) == dof and all(np.ndim(b) == 1 for b in boundaries):
        return [list(b) for b in boundaries]
    example = [0.0] if dof == 1 else [[]] * (dof - 1) + [[0.0]]
    raise ValueError(f"{name} on a {dof}-dof grid must be "
                     f"{'a list of cuts' if dof == 1 else 'one list of cuts per dof'}, "
                     f"such as {example}; got {boundaries!r}")


def build_partition(grid: PhaseGrid, x_boundaries, p_boundaries=None) -> Partition:
    """Partition the grid into boxes cut at the given axis boundaries.

    For dof 1 pass plain lists; for more dofs pass one list per dof, such
    as [[], [0.0]]. None or an empty list means no cuts on any dof.
    Boundaries are snapped to cell edges. Every resulting box side must be
    at least 5 sqrt(hbar) (quantum-blob compatibility), else construction
    fails naming the offending region.
    """
    dof = grid.dof
    x_boundaries = _cuts_per_dof(x_boundaries, dof, "x_boundaries")
    p_boundaries = _cuts_per_dof(p_boundaries, dof, "p_boundaries")
    x_iv = [_axis_intervals(grid, x_boundaries[d], d, momentum=False)
            for d in range(dof)]
    p_iv = [_axis_intervals(grid, p_boundaries[d], d, momentum=True)
            for d in range(dof)]

    min_side = MIN_SIDE_FACTOR * np.sqrt(grid.hbar)
    regions = []
    from itertools import product
    for combo in product(*(x_iv + p_iv)):
        x_part = combo[:dof]
        p_part = combo[dof:]
        label_bits = []
        mask = np.ones(grid.phase_shape, dtype=bool)
        for kind, offset, part, spacing in (("x", 0, x_part, grid.dx),
                                            ("p", dof, p_part, grid.dp)):
            for d in range(dof):
                j0, j1 = part[d]
                side = (j1 - j0) * spacing[d]
                label_bits.append(f"{kind}{d}:{j0}-{j1}")
                if side < min_side - 1e-12:
                    raise ValueError(
                        f"region {kind}-axis {d} side {side:.3f} below the minimum "
                        f"{min_side:.3f} = 5 sqrt(hbar)")
                ax_mask = np.zeros(grid.n(d), dtype=bool)
                ax_mask[j0:j1] = True
                mask &= _broadcast_axis(ax_mask, offset + d, 2 * dof)
        regions.append(Region(label="|".join(label_bits), grid=grid, mask=mask,
                              x_bounds=tuple(x_part), p_bounds=tuple(p_part)))
    return Partition(grid=grid, regions=regions)


def _broadcast_axis(ax_mask: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = len(ax_mask)
    return ax_mask.reshape(shape)


def _periodized_gaussian(grid: PhaseGrid, d: int) -> np.ndarray:
    """G[j, j0] = periodized exp(-(x_j - x_{j0})^2 / (2 hbar)), unnormalized.

    G depends on j - j0 only, so one profile over the 2N - 1 offsets fills it.
    """
    n = grid.n(d)
    offsets = np.arange(1 - n, n) * grid.dx[d]
    span = 2 * grid.x_extents[d]
    profile = np.zeros(2 * n - 1)
    for k in range(-3, 4):
        profile += np.exp(-(offsets + k * span) ** 2 / (2 * grid.hbar))
    j = np.arange(n)
    return profile[j[:, None] - j[None, :] + n - 1]


def _coherent_quadrature_1dof(grid: PhaseGrid, mask2d: np.ndarray) -> np.ndarray:
    """(dx dp / 2 pi hbar) sum over masked cells of |z><z| for dof-1 grids.

    The cell at (x, p) adds g(x_j - x) g(x_k - x) e^{i (x_j - x_k) p / hbar}
    to entry (j, k), with g the periodized Gaussian envelope scaled to unit
    norm. Momentum columns of the mask with the same x-support X form one
    group P, whose cells sum to an elementwise product of two Gram matrices:

        sum_{p in P} sum_{x in X} = (G_X G_X^T) * (Phi_P Phi_P^H),

    where G_X holds the envelope columns of X and Phi_P the plane waves
    e^{i x_j p / hbar} of P. A box mask is a single group.
    """
    genv = _periodized_gaussian(grid, 0)                   # [j, jx0]
    phase = np.exp(1j * np.outer(grid.x(0), grid.p(0)) / grid.hbar)   # [j, jp0]
    groups: dict = {}
    for jp, support in enumerate(mask2d.T):
        if support.any():
            groups.setdefault(support.tobytes(), []).append(jp)
    out = np.zeros(genv.shape, dtype=complex)
    for cols in groups.values():
        env = genv[:, mask2d[:, cols[0]]]
        waves = phase[:, cols]
        out += (env @ env.T) * (waves @ waves.conj().T)
    # common squared norm of every lattice-centered periodized state
    norm_sq = float((genv[:, 0] ** 2).sum())
    return out * (grid.dx[0] * grid.dp[0] / (2 * np.pi * grid.hbar) / norm_sq)


def _x_cut_diagonal(grid: PhaseGrid, d: int, cells: tuple) -> np.ndarray:
    """sum over x0 in cells of g(x_j - x0)^2 / ||g||^2: the quadrature's
    diagonal on dof d of a box that spans every momentum column there."""
    genv = _periodized_gaussian(grid, d)
    j0, j1 = cells
    return (genv[:, j0:j1] ** 2).sum(axis=1) / (genv[:, 0] ** 2).sum()


def quasiprojector_operator(region: Region) -> OperatorMatrix:
    """Coherent-state quadrature over the region's cells.

    Hermitian and PSD by construction; eigenvalues lie in [0, 1] because the
    full-grid quadrature is exactly the identity (lattice covariance of the
    periodized states). This is Pi_R's one definition: Region.symbol() is
    its Weyl image. Composite (dof 2) regions must factor per dof.

    A box whose p-bounds span the whole p axis on every dof is diagonal:
    the cell at (x0, p) adds g(x_j - x0) g(x_k - x0) e^{i (x_j - x_k) p / hbar},
    and summed over every p the phases give N delta_jk, which the prefactor
    dx dp / 2 pi hbar = 1 / N cancels. Its operator is diag(d), with d the
    outer product of the per-dof diagonals and its eigendecomposition exact
    (OperatorMatrix.diagonal). Boxes with a p cut and general masks take the
    quadrature.
    """
    grid = region.grid
    if region.p_bounds is not None and all(
            bounds == (0, grid.n(d)) for d, bounds in enumerate(region.p_bounds)):
        d = reduce(np.multiply.outer, [_x_cut_diagonal(grid, k, cells)
                                       for k, cells in enumerate(region.x_bounds)])
        return OperatorMatrix.diagonal(grid, d.ravel())
    if grid.dof == 1:
        m = _coherent_quadrature_1dof(grid, region.mask)
        m = 0.5 * (m + m.conj().T)
        return OperatorMatrix(grid, m, hermitian=True, psd=True)
    if region.x_bounds is None or region.p_bounds is None:
        raise NotImplementedError("dof-2 quasiprojectors need box regions")
    blocks = []
    for d in range(2):
        sub = grid.factor(d)
        j0, j1 = region.x_bounds[d]
        m0, m1 = region.p_bounds[d]
        mask = np.zeros((grid.n(d), grid.n(d)), dtype=bool)
        mask[j0:j1, m0:m1] = True
        blocks.append(_coherent_quadrature_1dof(sub, mask))
    m = np.kron(blocks[0], blocks[1])
    m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(grid, m, hermitian=True, psd=True)


def quasiprojector_defect(partition: Partition) -> float:
    """How far the quasiprojectors are from orthogonal projectors.

    The largest over region pairs (a, b) of the relative trace-norm
    deviation ||Pi_a Pi_b - delta_ab Pi_a||_tr / tr Pi_a.
    """
    ops = [r.operator().matrix for r in partition.regions]
    traces = [float(m.trace().real) for m in ops]
    worst = 0.0
    for a in range(len(ops)):
        for b in range(len(ops)):
            dev = ops[a] @ ops[b]
            if a == b:
                dev = dev - ops[a]
                tn = float(np.abs(np.linalg.eigvalsh(dev)).sum())
            else:
                tn = float(np.linalg.svd(dev, compute_uv=False).sum())
            worst = max(worst, tn / traces[a])
    return worst


def classicality_projectors(partition: Partition) -> list:
    """Exact orthogonal projectors close to the quasiprojectors.

    Greedy spectral deflation in ascending region-trace order: each region's
    projector spans the eigenvectors of the deflated quasiprojector
    (I - Q) Pi_R (I - Q) with eigenvalue above 1/2, and the final (largest)
    region takes the orthogonal remainder. Idempotence, mutual
    orthogonality, and completeness hold to machine precision; closeness to
    the quasiprojectors is bounded by the partition defect (checked by the
    acceptance suite). Eigenvalues within AMBIGUITY_MARGIN of the 1/2 split
    raise, since the assignment would be numerically arbitrary.

    When every quasiprojector is diagonal (a partition cut only in x), so is
    each deflated one: diag(k d), with k the 0/1 indicator of the positions
    not yet assigned. Its eigenvalues are k d, and the projector is the 0/1
    indicator of k d > 1/2, which the deflation takes with no eigh or GEMM.
    """
    grid = partition.grid
    regions = partition.regions
    ops = [r.operator() for r in regions]
    order = np.argsort([op.matrix.trace().real for op in ops])
    last = int(order[-1])
    out: list = [None] * len(ops)
    if all(op._diag is not None for op in ops):
        rest = np.ones(grid.hilbert_dim)
        for idx in order[:-1]:
            w = rest * ops[idx]._diag
            _check_split(w, regions[idx])
            out[idx] = (w > 0.5).astype(float)
            rest = rest - out[idx]
        out[last] = rest
        return [_checked_projector(grid, p) for p in out]
    eye = np.eye(grid.hilbert_dim)
    deflate = eye.astype(complex)
    for k, idx in enumerate(order[:-1]):
        if k == 0:
            # deflate is still the identity, and I Pi I symmetrised is Pi
            # bit for bit: take the decomposition the operator has cached
            w, q = ops[idx].eigh()
        else:
            m = deflate @ ops[idx].matrix @ deflate
            m = 0.5 * (m + m.conj().T)
            w, q = np.linalg.eigh(m)
        _check_split(w, regions[idx])
        sel = q[:, w > 0.5]
        proj = sel @ sel.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        out[idx] = proj
        deflate = deflate - proj
    rem = eye - sum(p for p in out if p is not None)
    out[last] = 0.5 * (rem + rem.conj().T)
    return [_checked_projector(grid, p) for p in out]


def _check_split(w: np.ndarray, region: Region) -> None:
    """Raise when a deflated eigenvalue lies within AMBIGUITY_MARGIN of 1/2."""
    dist = np.abs(w - 0.5)
    if dist.min() < AMBIGUITY_MARGIN:
        raise ValueError(
            f"ambiguous eigenvalue clustering for region {region.label}: "
            f"eigenvalue {w[dist.argmin()]!r} sits at the 1/2 split; spectrum "
            f"around the split: {np.sort(w[dist < 0.05]).tolist()}")


def _checked_projector(grid: PhaseGrid, p: np.ndarray) -> OperatorMatrix:
    """Wrap a Hermitian matrix, or the diagonal of a diagonal one, as a
    projector after checking P^2 = P.

    A Hermitian P with ||P^2 - P||_max <= delta has ||P^2 - P||_2 <= D delta
    (D the dimension), so each eigenvalue l obeys |l^2 - l| <= D delta and
    lies within D delta of 0 or 1. The bound delta = PSD_TOL / D therefore
    gives every guarantee the PSD flag's eigh check gave (no eigenvalue below
    -PSD_TOL), for one GEMM instead of an eigh. The deflated projectors of
    a two-region partition reach 8.0e-15 at D = 256, where delta = 3.9e-11.
    For a diagonal P, P^2 - P is diagonal with entries p^2 - p, so the
    elementwise max is the value the dense product gives.
    """
    dim = grid.hilbert_dim
    diagonal = p.ndim == 1
    dev = float(np.abs((p * p if diagonal else p @ p) - p).max())
    if dev > PSD_TOL / dim:
        raise ValueError(
            f"classicality projector is not idempotent: ||P^2 - P||_max = "
            f"{dev:.2e} exceeds {PSD_TOL / dim:.2e}")
    if diagonal:
        return OperatorMatrix.diagonal(grid, p)
    return OperatorMatrix(grid, p, hermitian=True)


def is_quasirestricted(v: np.ndarray, region: Region) -> tuple[bool, float]:
    """Test membership in the numerical range of Pi_R^(1/2).

    v is an l2 array whose first axis is the region's Hilbert space: a flat
    state vector, or an (n1, n2) array V, tested as vec(V) against
    Pi_R (x) I. The residual is the norm of the component of v outside the
    span of quasiprojector eigenvectors with eigenvalue above PS6_CUTOFF,
    and v passes below PS6_TOL. (The cutoff acts on the eigenvalues of
    Pi_R itself; cutting on sqrt(eigenvalue) instead would keep essentially
    every mode of a Gaussian-smoothed quasiprojector and the test would
    never reject.)
    """
    w, q = region.operator().eigh()
    # eigh sorts w ascending: the eigenvectors at or below the cutoff are a
    # prefix of q's columns; |<q_i|v>| = |v^H q_i| needs no conjugated copy.
    # A real q (eigh's real path) gives q_i^T v, the conjugate of v^H q_i,
    # by one real GEMM: v^H q would first cast q to complex, a copy of q and
    # a complex GEMM.
    low = q[:, :np.searchsorted(w, PS6_CUTOFF, side="right")]
    overlaps = v.conj().T @ low if np.iscomplexobj(low) else real_matmul(low.T, v)
    residual = float(np.sqrt((np.abs(overlaps) ** 2).sum()))
    return residual < PS6_TOL, residual
