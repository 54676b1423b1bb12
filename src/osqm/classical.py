"""Classical phase-space layer: observables and their Hamiltonian flow.

Polynomial observables are coefficient dicts, differentiated exactly by
poly_derivative. Every flow (a point set, a region image) runs the same
kick-drift-kick leapfrog, _leapfrog (Stormer-Verlet; Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2006, I.1.4), on coordinate
arrays that hold one entry per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    """Real polynomial on phase space, a coefficient dict.

    It keeps the dict so derivatives stay exact, and builds its partial
    derivatives d/dz_i once (z = x then p) for the flow.
    """

    grid: PhaseGrid
    poly: dict
    _poly_grad: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._poly_grad = [poly_derivative(self.poly, i)
                           for i in range(2 * self.grid.dof)]

    @classmethod
    def from_poly(cls, grid: PhaseGrid, poly: PolyDict) -> "ClassicalObservable":
        return cls(grid=grid, poly=_poly_clean(dict(poly)))

    def _partials(self, x: Sequence, p: Sequence, first: int) -> list:
        """dH/dz_i at (x, p) for i = first .. first + dof - 1, z = (x, p).

        x and p hold one entry per dof, each an array of points; so does
        the result.
        """
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
                              t: float, dt: float) -> np.ndarray:
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
    x0 = np.stack([grid.x(d)[idx[:, d]] for d in range(n)])
    p0 = np.stack([grid.p(d)[idx[:, n + d]] for d in range(n)])
    xT, pT = flow_points(h, x0, p0, t, dt)
    out = np.zeros_like(mask, dtype=bool)
    loc = []
    for d, coord, spacing in ([(d, xT[d], grid.dx[d]) for d in range(n)]
                              + [(d, pT[d], grid.dp[d]) for d in range(n)]):
        j = np.rint(coord / spacing).astype(int) + grid.n(d) // 2
        if (j < 0).any() or (j >= grid.n(d)).any():
            raise ValueError("region image escapes the grid")
        loc.append(j)
    out[tuple(loc)] = True
    return out
