"""Phase-space grids with hbar-consistent position/momentum sampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["PhaseGrid", "GridMismatchError", "ContainmentError"]

CONTAINMENT_TOL = 1e-6  # largest mass a state may hold in the outer 2-cell shell


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class ContainmentError(ValueError):
    """A state leaks outside the grid's containment shell."""


@dataclass(frozen=True)
class PhaseGrid:
    """Discretized 2n-dimensional phase space.

    Per axis d: N_d points, x_j = (j - N_d/2) dx_d, p_m = (m - N_d/2) dp_d,
    with the Fourier pairing dx dp N = 2 pi hbar, so discrete x <-> p
    transforms are unitary. Positions cover [-x_extent, x_extent); the
    momentum extent is derived, p_extent = pi hbar / dx. dof is 1 or 2.
    """

    dof: int
    points: tuple[int, ...]
    x_extents: tuple[float, ...]
    hbar: float = 1.0

    def __post_init__(self):
        if self.dof not in (1, 2):
            raise ValueError("dof must be 1 or 2")
        if len(self.points) != self.dof or len(self.x_extents) != self.dof:
            raise ValueError("need one point count and one extent per dof")
        for n in self.points:
            if n % 2 or n < 16:
                raise ValueError("points must be even and >= 16 per axis")
        if self.hbar <= 0 or any(L <= 0 for L in self.x_extents):
            raise ValueError("hbar and extents must be positive")

    @classmethod
    def create(cls, points: int, x_extent: float, hbar: float = 1.0) -> "PhaseGrid":
        """A 1-dof grid; PhaseGrid.product combines two into a composite."""
        return cls(dof=1, points=(int(points),), x_extents=(float(x_extent),),
                   hbar=float(hbar))

    @classmethod
    def product(cls, g1: "PhaseGrid", g2: "PhaseGrid") -> "PhaseGrid":
        """Cartesian product of two 1-dof grids (composite system)."""
        if g1.dof != 1 or g2.dof != 1:
            raise ValueError("product combines 1-dof grids")
        if g1.hbar != g2.hbar:
            raise GridMismatchError("product grids need equal hbar")
        return cls(dof=2, points=(g1.points[0], g2.points[0]),
                   x_extents=(g1.x_extents[0], g2.x_extents[0]), hbar=g1.hbar)

    def factor(self, d: int) -> "PhaseGrid":
        """The 1-dof grid of axis d."""
        return PhaseGrid(dof=1, points=(self.points[d],),
                         x_extents=(self.x_extents[d],), hbar=self.hbar)

    def n(self, d: int = 0) -> int:
        return self.points[d]

    # cached in the instance __dict__, outside the fields that == and hash use
    @cached_property
    def dx(self) -> tuple[float, ...]:
        return tuple(2 * L / n for L, n in zip(self.x_extents, self.points))

    @cached_property
    def dx_volume(self) -> float:
        """dx multiplied over dofs: the l2 weight of one node."""
        return float(np.prod(self.dx))

    @cached_property
    def dp(self) -> tuple[float, ...]:
        return tuple(2 * np.pi * self.hbar / (n * dxi)
                     for n, dxi in zip(self.points, self.dx))

    @cached_property
    def _samples(self) -> tuple[np.ndarray, ...]:
        """Read-only sample arrays, x_0.. then p_0..; every caller shares them."""
        out = tuple((np.arange(n) - n // 2) * step
                    for n, step in zip(self.points * 2, self.dx + self.dp))
        for arr in out:
            arr.setflags(write=False)
        return out

    @property
    def p_extents(self) -> tuple[float, ...]:
        return tuple(n * dpi / 2 for n, dpi in zip(self.points, self.dp))

    @property
    def cell_volume(self) -> float:
        """dx dp per dof, multiplied over dofs."""
        v = 1.0
        for dxi, dpi in zip(self.dx, self.dp):
            v *= dxi * dpi
        return v

    @property
    def config_shape(self) -> tuple[int, ...]:
        return tuple(self.points)

    @property
    def phase_shape(self) -> tuple[int, ...]:
        """Wigner/symbol array shape: x axes first, then p axes."""
        return tuple(self.points) + tuple(self.points)

    @property
    def hilbert_dim(self) -> int:
        d = 1
        for n in self.points:
            d *= n
        return d

    def x(self, d: int = 0) -> np.ndarray:
        return self._samples[d]

    def p(self, d: int = 0) -> np.ndarray:
        return self._samples[self.dof + d]

    def phase_mesh(self):
        """Meshgrid of all phase-space coordinates, x axes then p axes."""
        return np.meshgrid(*self._samples, indexing="ij")

    def containment_shell_mass(self, values: np.ndarray) -> float:
        """Fraction of total |values| mass in the outermost 2-cell shell."""
        a = np.abs(np.asarray(values))
        total = a.sum()
        if total == 0:
            return 0.0
        inner = a
        for ax in range(a.ndim):
            sl = [slice(None)] * a.ndim
            sl[ax] = slice(2, a.shape[ax] - 2)
            inner = inner[tuple(sl)]
        return float((total - inner.sum()) / total)

    def check_containment(self, values: np.ndarray, what: str) -> None:
        m = self.containment_shell_mass(values)
        if not m < CONTAINMENT_TOL:
            raise ContainmentError(
                f"{what} has {m:.3e} of its mass in the outer 2-cell shell "
                f"(tolerance {CONTAINMENT_TOL:.1e}); enlarge the grid")

