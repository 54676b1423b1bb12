"""Coarse graining of phase space: regions, quasiprojectors, projectors.

A partition is a set of axis-aligned boxes snapped to grid cells, disjoint
and exhaustive. Each region carries the sharp characteristic function, the
Gaussian-smoothed quasiprojector symbol Pi_R = chi_R * phi (phi is the
ground coherent state's Wigner Gaussian, unit mass), and the quasiprojector
operator built from a coherent-state quadrature over the region's cells.
The quadrature uses lattice-periodized coherent states, so the full-grid
sum is the identity to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .grid import PhaseGrid
from .oracle import PSD_TOL, OperatorMatrix, operator_sqrt, state_vector
from .weyl import WeylSymbol, weyl_symbol_from_operator

__all__ = [
    "Region",
    "Partition",
    "build_partition",
    "quasiprojector_symbol",
    "quasiprojector_operator",
    "quasiprojector_defect",
    "DefectReport",
    "classicality_projectors",
    "is_quasirestricted",
    "smoothing_kernel",
]

MIN_SIDE_FACTOR = 5.0  # box sides must be >= 5 sqrt(hbar) per axis


def smoothing_kernel(grid: PhaseGrid) -> np.ndarray:
    """Ground coherent state's Wigner Gaussian, normalized to unit mass."""
    mesh = grid.phase_mesh()
    n = grid.dof
    expo = np.zeros(grid.phase_shape)
    for d in range(n):
        expo += mesh[d] ** 2 + mesh[n + d] ** 2
    phi = np.exp(-expo / grid.hbar)
    return phi / (phi.sum() * grid.cell_volume)


def _fft_convolve(field: np.ndarray, kernel_centered: np.ndarray,
                  cell_volume: float) -> np.ndarray:
    """Periodic convolution with a kernel stored centered on the grid."""
    k = np.fft.ifftshift(kernel_centered)
    out = np.fft.ifftn(np.fft.fftn(field) * np.fft.fftn(k)).real
    return out * cell_volume


@dataclass
class Region:
    """One coarse-graining region: a labeled cell mask with cached fields.

    Boxes carry per-dof index bounds; general masks (for example classical
    flow images) leave bounds as None and support dof 1 only when the
    operator is needed.
    """

    label: str
    grid: PhaseGrid
    mask: np.ndarray
    x_bounds: Optional[tuple] = None   # per dof: (j_lo, j_hi) cell index range
    p_bounds: Optional[tuple] = None
    _symbol: Optional[WeylSymbol] = field(default=None, repr=False)
    _operator: Optional[OperatorMatrix] = field(default=None, repr=False)
    _sqrt: Optional[OperatorMatrix] = field(default=None, repr=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.phase_shape:
            raise ValueError("region mask must have the grid's phase shape")

    @property
    def chi(self) -> np.ndarray:
        return self.mask.astype(float)

    def cell_count(self) -> int:
        return int(self.mask.sum())

    def symbol(self) -> WeylSymbol:
        if self._symbol is None:
            self._symbol = quasiprojector_symbol(self)
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
    """Disjoint, exhaustive list of regions with the shared kernel."""

    grid: PhaseGrid
    regions: list
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        total = np.zeros(self.grid.phase_shape)
        for r in self.regions:
            total += r.chi
        if not np.all(total == 1.0):
            raise ValueError("regions must tile the grid exactly once")

    def labels(self) -> list:
        return [r.label for r in self.regions]

    def __len__(self):
        return len(self.regions)

    def __getitem__(self, i):
        return self.regions[i]

    def by_label(self, label: str) -> Region:
        for r in self.regions:
            if r.label == label:
                return r
        raise KeyError(label)

    def symbol_sum(self) -> np.ndarray:
        out = np.zeros(self.grid.phase_shape)
        for r in self.regions:
            out += r.symbol().values.real
        return out

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


def build_partition(grid: PhaseGrid, x_boundaries, p_boundaries=None) -> Partition:
    """Partition the grid into boxes cut at the given axis boundaries.

    For dof 1 pass plain lists; for dof 2 pass one list per dof. Boundaries
    are snapped to cell edges. Every resulting box side must be at least
    5 sqrt(hbar) (quantum-blob compatibility), else construction fails
    naming the offending region.
    """
    n = grid.points
    dof = grid.dof
    if p_boundaries is None:
        p_boundaries = [] if dof == 1 else [[] for _ in range(dof)]
    if dof == 1:
        x_boundaries = [list(x_boundaries)]
        p_boundaries = [list(p_boundaries)]
    else:
        x_boundaries = [list(b) for b in x_boundaries]
        p_boundaries = [list(b) for b in p_boundaries]
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
        for d in range(dof):
            j0, j1 = x_part[d]
            side = (j1 - j0) * grid.dx[d]
            label_bits.append(f"x{d}:{j0}-{j1}")
            if side < min_side - 1e-12:
                raise ValueError(
                    f"region x-axis {d} side {side:.3f} below the minimum "
                    f"{min_side:.3f} = 5 sqrt(hbar)")
            ax_mask = np.zeros(grid.n(d), dtype=bool)
            ax_mask[j0:j1] = True
            mask &= _broadcast_axis(ax_mask, d, 2 * dof)
        for d in range(dof):
            j0, j1 = p_part[d]
            side = (j1 - j0) * grid.dp[d]
            label_bits.append(f"p{d}:{j0}-{j1}")
            if side < min_side - 1e-12:
                raise ValueError(
                    f"region p-axis {d} side {side:.3f} below the minimum "
                    f"{min_side:.3f} = 5 sqrt(hbar)")
            ax_mask = np.zeros(grid.n(d), dtype=bool)
            ax_mask[j0:j1] = True
            mask &= _broadcast_axis(ax_mask, dof + d, 2 * dof)
        regions.append(Region(label="|".join(label_bits), grid=grid, mask=mask,
                              x_bounds=tuple(x_part), p_bounds=tuple(p_part)))
    return Partition(grid=grid, regions=regions, kernel=smoothing_kernel(grid))


def _broadcast_axis(ax_mask: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = len(ax_mask)
    return ax_mask.reshape(shape)


def quasiprojector_symbol(region: Region) -> WeylSymbol:
    """Pi_R = chi_R convolved with the unit-mass coherent Gaussian."""
    grid = region.grid
    phi = smoothing_kernel(grid)
    vals = _fft_convolve(region.chi, phi, grid.cell_volume)
    return WeylSymbol(grid, vals + 0j)


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


def quasiprojector_operator(region: Region) -> OperatorMatrix:
    """Coherent-state quadrature over the region's cells.

    Hermitian and PSD by construction; eigenvalues lie in [0, 1] because the
    full-grid quadrature is exactly the identity (lattice covariance of the
    periodized states). Its Weyl symbol matches quasiprojector_symbol to
    discretization accuracy. Composite (dof 2) regions must factor per dof.
    """
    grid = region.grid
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


@dataclass
class DefectReport:
    """Relative trace-norm deviations from exact-projector behaviour.

    pair_defects[(a, b)] = ||Pi_a Pi_b - delta_ab Pi_a||_tr / tr Pi_a.
    """

    pair_defects: dict
    max_defect: float

    def diagonal(self) -> dict:
        return {a: v for (a, b), v in self.pair_defects.items() if a == b}


def quasiprojector_defect(partition: Partition) -> DefectReport:
    """Measure how far the quasiprojectors are from orthogonal projectors."""
    ops = [r.operator().matrix for r in partition.regions]
    traces = [float(m.trace().real) for m in ops]
    out = {}
    worst = 0.0
    for a, ra in enumerate(partition.regions):
        for b, rb in enumerate(partition.regions):
            dev = ops[a] @ ops[b]
            if a == b:
                dev = dev - ops[a]
                tn = float(np.abs(scipy.linalg.eigvalsh(dev)).sum())
            else:
                tn = float(scipy.linalg.svdvals(dev).sum())
            val = tn / traces[a]
            out[(ra.label, rb.label)] = val
            worst = max(worst, val)
    return DefectReport(pair_defects=out, max_defect=worst)


def classicality_projectors(partition: Partition,
                            ambiguity_margin: float = 1e-9) -> list:
    """Exact orthogonal projectors close to the quasiprojectors.

    Greedy spectral deflation in ascending region-trace order: each region's
    projector spans the eigenvectors of the deflated quasiprojector
    (I - Q) Pi_R (I - Q) with eigenvalue above 1/2, and the final (largest)
    region takes the orthogonal remainder. Idempotence, mutual
    orthogonality, and completeness hold to machine precision; closeness to
    the quasiprojectors is bounded by the partition defect (checked by the
    acceptance suite). Eigenvalues too close to the 1/2 split raise, since
    the assignment would be numerically arbitrary.
    """
    grid = partition.grid
    ops = [r.operator().matrix for r in partition.regions]
    dim = grid.hilbert_dim
    order = np.argsort([m.trace().real for m in ops])
    eye = np.eye(dim)
    deflate = eye.astype(complex)
    out: list = [None] * len(ops)
    for k, idx in enumerate(order[:-1]):
        if k == 0:
            # deflate is still the identity, and I Pi I symmetrised is Pi
            # bit for bit: take the decomposition the operator has cached
            w, q = partition.regions[idx].operator().eigh()
        else:
            m = deflate @ ops[idx] @ deflate
            m = 0.5 * (m + m.conj().T)
            w, q = scipy.linalg.eigh(m)
        gap = np.abs(w - 0.5).min()
        if gap < ambiguity_margin:
            raise ValueError(
                f"ambiguous eigenvalue clustering for region "
                f"{partition.regions[idx].label}: eigenvalue {w[np.abs(w - 0.5).argmin()]!r} "
                f"sits at the 1/2 split; spectrum around the split: "
                f"{w[np.abs(w - 0.5) < 0.05].tolist()}")
        sel = q[:, w > 0.5]
        proj = sel @ sel.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        out[idx] = proj
        deflate = deflate - proj
    last = int(order[-1])
    rem = eye - sum(p for p in out if p is not None)
    out[last] = 0.5 * (rem + rem.conj().T)
    return [_checked_projector(grid, p) for p in out]


def _checked_projector(grid: PhaseGrid, p: np.ndarray) -> OperatorMatrix:
    """Wrap a Hermitian matrix as a projector after checking P^2 = P.

    A Hermitian P with ||P^2 - P||_max <= delta has ||P^2 - P||_2 <= D delta
    (D the dimension), so each eigenvalue l obeys |l^2 - l| <= D delta and
    lies within D delta of 0 or 1. The bound delta = PSD_TOL / D therefore
    gives every guarantee the PSD flag's eigh check gave (no eigenvalue below
    -PSD_TOL), for one GEMM instead of an eigh. The deflated projectors of
    a two-region partition reach 8.0e-15 at D = 256, where delta = 3.9e-11.
    """
    dim = grid.hilbert_dim
    dev = float(np.abs(p @ p - p).max())
    if dev > PSD_TOL / dim:
        raise ValueError(
            f"classicality projector is not idempotent: ||P^2 - P||_max = "
            f"{dev:.2e} exceeds {PSD_TOL / dim:.2e}")
    return OperatorMatrix(grid, p, hermitian=True)


def is_quasirestricted(psi, region: Region, tol: float = 1e-3,
                       cutoff: float = 1e-6) -> tuple[bool, float]:
    """Test membership in the numerical range of Pi_R^(1/2).

    psi is a WaveFunction, its l2 vector, or an array whose first axis is
    the region's space (an (n1, n2) array V is tested as vec(V) against
    Pi_R (x) I). The residual is the norm of the component of psi outside
    the span of quasiprojector eigenvectors with eigenvalue above the
    pseudo-inverse cutoff. (The cutoff acts on the
    eigenvalues of Pi_R itself; cutting on sqrt(eigenvalue) instead would
    keep essentially every mode of a Gaussian-smoothed quasiprojector and
    the test would never reject.)
    """
    w, q = region.operator().eigh()
    # eigh sorts w ascending: the eigenvectors at or below the cutoff are a
    # prefix of q's columns; |<q_i|v>| = |v^H q_i| needs no conjugated copy
    out = np.searchsorted(w, cutoff, side="right")
    overlaps = state_vector(psi).conj().T @ q[:, :out]
    residual = float(np.sqrt((np.abs(overlaps) ** 2).sum()))
    return residual < tol, residual
