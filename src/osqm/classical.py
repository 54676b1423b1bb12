"""Classical phase-space layer: observables and their Hamiltonian flow.

Polynomial observables are coefficient dicts, differentiated exactly by
poly_derivative. Every flow (a point set, a region image) runs the same
kick-drift-kick leapfrog, _leapfrog (Stormer-Verlet; Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2006, I.1.4), on coordinate
arrays that hold one entry per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .grid import PhaseGrid

__all__ = [
    "ClassicalObservable",
    "evolve_region_classically",
    "poly_derivative",
]

# Polynomial observables are stored as {(xdeg_0..xdeg_{n-1}, pdeg_0..pdeg_{n-1}): coeff}.
PolyDict = Mapping[tuple, float]


def _poly_clean(poly: dict) -> dict:
    return {k: v for k, v in poly.items() if v != 0.0}


def poly_derivative(poly: PolyDict, index: int) -> dict:
    out: dict = {}
    for k, v in poly.items():
        if k[index] == 0:
            continue
        kk = list(k)
        kk[index] -= 1
        out[tuple(kk)] = out.get(tuple(kk), 0.0) + v * k[index]
    return _poly_clean(out)


def poly_eval(poly: PolyDict, coords: Sequence):
    """The polynomial at coords (x then p), each an array."""
    out = 0.0
    for k, v in poly.items():
        term = v
        for deg, c in zip(k, coords):
            if deg:
                term = term * (c if deg == 1 else c ** deg)
        out = out + term
    return out


@dataclass
class ClassicalObservable:
    """Real function on phase space, as grid samples and/or a polynomial.

    Polynomial observables keep their coefficient dict so derivatives stay
    exact, and build its partial derivatives d/dz_i once (z = x then p);
    only those can be flowed.
    """

    grid: PhaseGrid
    values: np.ndarray
    poly: Optional[dict] = None
    _poly_grad: Optional[list] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.phase_shape:
            raise ValueError("values must have the grid's phase-space shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("observable values must be finite")
        if self.poly is not None:
            self._poly_grad = [poly_derivative(self.poly, i)
                              for i in range(2 * self.grid.dof)]

    @classmethod
    def from_poly(cls, grid: PhaseGrid, poly: PolyDict) -> "ClassicalObservable":
        mesh = grid.phase_mesh()
        vals = poly_eval(poly, mesh)
        return cls(grid=grid, values=np.broadcast_to(vals, grid.phase_shape).copy(),
                   poly=_poly_clean(dict(poly)))

    def _partials(self, x: Sequence, p: Sequence, first: int) -> list:
        """dH/dz_i at (x, p) for i = first .. first + dof - 1, z = (x, p).

        x and p hold one entry per dof, each an array of points; so does
        the result.
        """
        if self.poly is None:
            raise ValueError("point derivatives need a polynomial form")
        n = self.grid.dof
        z = [*x, *p]
        return [poly_eval(d, z) for d in self._poly_grad[first:first + n]]


def _leapfrog(h: ClassicalObservable, x: list, p: list, dt: float, steps: int):
    """Yield (x, p) after each kick-drift-kick step of Hamilton's equations
    xdot = dH/dp, pdot = -dH/dx.

    x and p hold one entry per dof, each an array of the points flowed at
    once.
    """
    n = h.grid.dof
    half = 0.5 * dt
    for _ in range(steps):
        p = [pd - half * g for pd, g in zip(p, h._partials(x, p, 0))]
        x = [xd + dt * g for xd, g in zip(x, h._partials(x, p, n))]
        p = [pd - half * g for pd, g in zip(p, h._partials(x, p, 0))]
        yield x, p


def flow_points(h: ClassicalObservable, xs: np.ndarray, ps: np.ndarray,
                t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog a set of points at once; xs and ps have shape (dof, npts).

    Returns the final (xs, ps). Nothing checks that the points stay on the
    grid.
    """
    x = list(np.array(xs, dtype=float))
    p = list(np.array(ps, dtype=float))
    for x, p in _leapfrog(h, x, p, dt, int(round(t / dt))):
        pass
    return np.stack(x), np.stack(p)


def evolve_region_classically(mask: np.ndarray, h: ClassicalObservable,
                              t: float, dt: float = 1e-3) -> np.ndarray:
    """Flow every cell center of a mask and re-bin: the point-set image.

    Used by the classical-consistency checks. All cell centers flow at once
    through flow_points. Raises if any center lies off the grid at time t;
    the flow in between is not checked.
    """
    grid = h.grid
    if mask.shape != grid.phase_shape:
        raise ValueError("mask must have the grid's phase-space shape")
    if t == 0:
        return mask.copy()
    n = grid.dof
    idx = np.argwhere(mask)
    axes = [grid.axis(d) for d in range(n)]
    x0 = np.stack([axes[d].x[idx[:, d]] for d in range(n)])
    p0 = np.stack([axes[d].p[idx[:, n + d]] for d in range(n)])
    xT, pT = flow_points(h, x0, p0, t, dt)
    out = np.zeros_like(mask, dtype=bool)
    loc = []
    for d, coord, spacing in ([(d, xT[d], axes[d].dx) for d in range(n)]
                              + [(d, pT[d], axes[d].dp) for d in range(n)]):
        j = np.rint(coord / spacing).astype(int) + grid.n(d) // 2
        if (j < 0).any() or (j >= grid.n(d)).any():
            raise ValueError("region image escapes the grid")
        loc.append(j)
    out[tuple(loc)] = True
    return out
