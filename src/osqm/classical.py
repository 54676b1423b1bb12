"""Classical phase-space layer: symplectic structure, observables, flows.

Polynomial observables are coefficient dicts with one exact algebra
(poly_mul, poly_derivative, poly_add), which the Moyal polynomial star
product shares. Every flow (one point, a point set, a region image) runs
the same kick-drift-kick leapfrog, _leapfrog (Stormer-Verlet; Hairer,
Lubich & Wanner, Geometric Numerical Integration, 2006, I.1.4), on
coordinates that are floats for one point or arrays for many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .grid import GridMismatchError, PhaseGrid, PhasePoint
from .spectral import spectral_derivative

__all__ = [
    "SymplecticForm",
    "ClassicalObservable",
    "symplectic_product",
    "poisson_bracket",
    "hamilton_flow",
    "FlowResult",
    "evolve_region_classically",
    "poly_mul",
    "poly_derivative",
    "poly_add",
]

# Polynomial observables are stored as {(xdeg_0..xdeg_{n-1}, pdeg_0..pdeg_{n-1}): coeff}.
PolyDict = Mapping[tuple, float]


class SymplecticForm:
    """The block matrix J = [[0, I], [-I, 0]] on 2n-dimensional phase space."""

    def __init__(self, dof: int):
        self.dof = dof
        n = dof
        J = np.zeros((2 * n, 2 * n), dtype=np.int64)
        J[:n, n:] = np.eye(n, dtype=np.int64)
        J[n:, :n] = -np.eye(n, dtype=np.int64)
        self.matrix = J

    def squared(self) -> np.ndarray:
        return self.matrix @ self.matrix


def symplectic_product(z: PhasePoint, z2: PhasePoint) -> float:
    """sigma(z, z') = x . p' - p . x'."""
    if z.dof != z2.dof:
        raise ValueError(f"dof mismatch: {z.dof} vs {z2.dof}")
    return float(np.dot(z.x, z2.p) - np.dot(z.p, z2.x))


def _poly_clean(poly: dict) -> dict:
    return {k: v for k, v in poly.items() if v != 0.0}


def poly_mul(a: PolyDict, b: PolyDict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return _poly_clean(out)


def poly_derivative(poly: PolyDict, index: int) -> dict:
    out: dict = {}
    for k, v in poly.items():
        if k[index] == 0:
            continue
        kk = list(k)
        kk[index] -= 1
        out[tuple(kk)] = out.get(tuple(kk), 0.0) + v * k[index]
    return _poly_clean(out)


def poly_add(a: PolyDict, b: PolyDict, w: complex = 1.0) -> dict:
    """a + w b, dropping zero coefficients."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + w * v
    return _poly_clean(out)


def _power(c, deg: int):
    """c ** deg with the bits numpy gives an array c, for a float c too.

    numpy squares by one multiplication and takes higher powers from its own
    power loop, which need not round as the C library's pow (a float's **) does.
    """
    if deg == 1:
        return c
    if deg == 2:
        return c * c
    return np.power(c, deg)


def poly_eval(poly: PolyDict, coords: Sequence):
    """The polynomial at coords (x then p), each a float or an array."""
    out = 0.0
    for k, v in poly.items():
        term = v
        for deg, c in zip(k, coords):
            if deg:
                term = term * _power(c, deg)
        out = out + term
    return out


@dataclass
class ClassicalObservable:
    """Real function on phase space, as grid samples and/or a polynomial.

    Polynomial observables keep their coefficient dict so derivatives stay
    exact, and build its partial derivatives d/dz_i once (z = x then p);
    periodic grid fields fall back to spectral differentiation.
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

        x and p hold one entry per dof, each a float or an array of points;
        so does the result.
        """
        if self.poly is None:
            raise ValueError("point derivatives need a polynomial form")
        n = self.grid.dof
        z = [*x, *p]
        return [poly_eval(d, z) for d in self._poly_grad[first:first + n]]


def _check_same_grid(a: ClassicalObservable, b: ClassicalObservable):
    if a.grid != b.grid:
        raise GridMismatchError("observables live on different grids")


def poisson_bracket(a: ClassicalObservable, b: ClassicalObservable) -> ClassicalObservable:
    """{A,B} = dA/dx dB/dp - dB/dx dA/dp, per dof, summed.

    Exact product-rule algebra when both operands carry polynomial form;
    spectral differentiation of the grid samples otherwise (valid only for
    fields that are periodic on the grid).
    """
    _check_same_grid(a, b)
    grid = a.grid
    n = grid.dof
    if a.poly is not None and b.poly is not None:
        out: dict = {}
        for i in range(n):
            out = poly_add(out, poly_mul(a._poly_grad[i], b._poly_grad[n + i]))
            out = poly_add(out, poly_mul(b._poly_grad[i], a._poly_grad[n + i]), -1.0)
        return ClassicalObservable.from_poly(grid, out)

    vals = np.zeros(grid.phase_shape)
    for i in range(n):
        ax_x, ax_p = i, n + i
        dxi = grid.dx[i]
        dpi = grid.dp[i]
        vals += (spectral_derivative(a.values, dxi, axis=ax_x)
                 * spectral_derivative(b.values, dpi, axis=ax_p))
        vals -= (spectral_derivative(b.values, dxi, axis=ax_x)
                 * spectral_derivative(a.values, dpi, axis=ax_p))
    return ClassicalObservable(grid=grid, values=vals)


@dataclass
class FlowResult:
    """Trajectory from hamilton_flow; truncated if it left the grid."""

    points: list
    times: np.ndarray
    exited: bool = False
    t_exit: Optional[float] = None


def _inside(grid: PhaseGrid, x: Sequence, p: Sequence) -> bool:
    for d in range(grid.dof):
        if abs(x[d]) > grid.x_extents[d] or abs(p[d]) > grid.p_extents[d]:
            return False
    return True


def _leapfrog(h: ClassicalObservable, x: list, p: list, dt: float, steps: int):
    """Yield (x, p) after each kick-drift-kick step of Hamilton's equations
    xdot = dH/dp, pdot = -dH/dx.

    x and p hold one entry per dof, each a float (one point) or an array
    (many points flowed at once).
    """
    n = h.grid.dof
    half = 0.5 * dt
    for _ in range(steps):
        p = [pd - half * g for pd, g in zip(p, h._partials(x, p, 0))]
        x = [xd + dt * g for xd, g in zip(x, h._partials(x, p, n))]
        p = [pd - half * g for pd, g in zip(p, h._partials(x, p, 0))]
        yield x, p


def hamilton_flow(h: ClassicalObservable, z0: PhasePoint, t: float, dt: float,
                  store_every: int = 1) -> FlowResult:
    """Integrate Hamilton's equations from z0 with the fixed-step leapfrog.

    Every store_every-th point and the last are kept. Exits are flagged and
    the trajectory truncated at the last inside point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = h.grid
    x = [float(c) for c in z0.x]
    p = [float(c) for c in z0.p]
    if not _inside(grid, x, p):
        raise ValueError("initial point outside grid")
    steps = int(round(t / dt))
    pts = [PhasePoint(tuple(x), tuple(p))]
    times = [0.0]
    exited = False
    t_exit = None
    for k, (x, p) in enumerate(_leapfrog(h, x, p, dt, steps), start=1):
        if not _inside(grid, x, p):
            exited = True
            t_exit = k * dt
            break
        if k % store_every == 0 or k == steps:
            pts.append(PhasePoint(tuple(x), tuple(p)))
            times.append(k * dt)
    return FlowResult(points=pts, times=np.asarray(times), exited=exited,
                      t_exit=t_exit)


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
