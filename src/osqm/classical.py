"""Classical phase-space layer: symplectic structure, observables, flows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

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


def poly_eval(poly: PolyDict, coords: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros(np.broadcast(*coords).shape if len(coords) > 1 else np.shape(coords[0]))
    for k, v in poly.items():
        term = v * np.ones_like(out)
        for deg, c in zip(k, coords):
            if deg:
                term = term * c ** deg
        out = out + term
    return out


@dataclass
class ClassicalObservable:
    """Real function on phase space, as grid samples and/or closed form.

    Polynomial observables keep their coefficient dict so derivatives stay
    exact, and build its partial derivatives d/dz_i once (z = x then p);
    periodic grid fields fall back to spectral differentiation.
    """

    grid: PhaseGrid
    values: np.ndarray
    poly: Optional[dict] = None
    fn: Optional[Callable] = None
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

    @classmethod
    def from_callable(cls, grid: PhaseGrid, fn: Callable) -> "ClassicalObservable":
        vals = fn(*grid.phase_mesh())
        return cls(grid=grid, values=vals, fn=fn)

    def gradient_at(self, z: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dx, dH/dp) at a point; needs poly or callable form."""
        n = self.grid.dof
        return self._partials(z.x, z.p, 0), self._partials(z.x, z.p, n)

    def _partials(self, x, p, first: int) -> np.ndarray:
        """dH/dz_i at (x, p) for i = first .. first + dof - 1, z = (x, p)."""
        n = self.grid.dof
        if self.poly is not None:
            coords = [np.asarray(c) for c in (*x, *p)]
            return np.array([poly_eval(d, coords)
                             for d in self._poly_grad[first:first + n]], dtype=float)
        if self.fn is not None:
            eps = 1e-6
            base = np.concatenate([x, p]).astype(float)
            out = np.empty(n)
            for k in range(n):
                e = np.zeros(2 * n)
                e[first + k] = eps
                out[k] = (self.fn(*(base + e)) - self.fn(*(base - e))) / (2 * eps)
            return out
        raise ValueError("point derivatives need a poly or callable form")


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
            for term, sign in ((poly_mul(a._poly_grad[i], b._poly_grad[n + i]), 1.0),
                               (poly_mul(b._poly_grad[i], a._poly_grad[n + i]), -1.0)):
                for k, v in term.items():
                    out[k] = out.get(k, 0.0) + sign * v
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

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __len__(self):
        return len(self.points)


def _inside(grid: PhaseGrid, x: np.ndarray, p: np.ndarray) -> bool:
    for d in range(grid.dof):
        if abs(x[d]) > grid.x_extents[d] or abs(p[d]) > grid.p_extents[d]:
            return False
    return True


def hamilton_flow(h: ClassicalObservable, z0: PhasePoint, t: float, dt: float,
                  store_every: int = 1) -> FlowResult:
    """Integrate Hamilton's equations xdot = dH/dp, pdot = -dH/dx.

    Fixed-step leapfrog (kick-drift-kick); exits are flagged and the
    trajectory truncated at the last inside point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = h.grid
    if not _inside(grid, np.asarray(z0.x), np.asarray(z0.p)):
        raise ValueError("initial point outside grid")
    steps = int(round(t / dt))
    x = np.array(z0.x, dtype=float)
    p = np.array(z0.p, dtype=float)
    pts = [PhasePoint(tuple(x), tuple(p))]
    times = [0.0]
    exited = False
    t_exit = None
    n = grid.dof
    for k in range(steps):
        p_half = p - 0.5 * dt * h._partials(x, p, 0)
        x = x + dt * h._partials(x, p_half, n)
        p = p_half - 0.5 * dt * h._partials(x, p_half, 0)
        if not _inside(grid, x, p):
            exited = True
            t_exit = (k + 1) * dt
            break
        if (k + 1) % store_every == 0 or k == steps - 1:
            pts.append(PhasePoint(tuple(x), tuple(p)))
            times.append((k + 1) * dt)
    return FlowResult(points=pts, times=np.asarray(times), exited=exited,
                      t_exit=t_exit)


def leapfrog_monodromy(h: ClassicalObservable, dt: float) -> np.ndarray:
    """Linear map of one leapfrog step for quadratic H, built exactly by
    applying the step to basis points (the step is affine for quadratic H)."""
    n = h.grid.dof
    dim = 2 * n

    def step(vec):
        z = PhasePoint(tuple(vec[:n]), tuple(vec[n:]))
        res = hamilton_flow(h, z, dt, dt)
        return res.points[-1].as_vector()

    origin = step(np.zeros(dim))
    M = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        M[:, i] = step(e) - origin
    return M


def _poly_partial_arrays(h: ClassicalObservable, xs: np.ndarray, ps: np.ndarray,
                         first: int) -> np.ndarray:
    """Vectorized dH/dz_i, i = first .. first + dof - 1, shape (n, npts)."""
    n = h.grid.dof
    if h.poly is None:
        raise ValueError("vectorized flow needs a polynomial Hamiltonian")
    coords = [xs[d] for d in range(n)] + [ps[d] for d in range(n)]
    return np.stack([poly_eval(d, coords) for d in h._poly_grad[first:first + n]])


def flow_points(h: ClassicalObservable, xs: np.ndarray, ps: np.ndarray,
                t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog all points at once (polynomial H); returns final (xs, ps)."""
    xs = np.array(xs, dtype=float)
    ps = np.array(ps, dtype=float)
    steps = int(round(t / dt))
    n = h.grid.dof
    for _ in range(steps):
        ps -= 0.5 * dt * _poly_partial_arrays(h, xs, ps, 0)
        xs += dt * _poly_partial_arrays(h, xs, ps, n)
        ps -= 0.5 * dt * _poly_partial_arrays(h, xs, ps, 0)
    return xs, ps


def evolve_region_classically(mask: np.ndarray, h: ClassicalObservable,
                              t: float, dt: float = 1e-3) -> np.ndarray:
    """Flow every cell center of a mask and re-bin: the point-set image.

    Used by the classical-consistency checks. Raises if any cell center
    leaves the grid. Polynomial Hamiltonians flow all cells vectorized;
    other forms fall back to per-cell integration.
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
    if h.poly is not None:
        xT, pT = flow_points(h, x0, p0, t, dt)
    else:
        xT = np.empty_like(x0)
        pT = np.empty_like(p0)
        for k in range(idx.shape[0]):
            res = hamilton_flow(h, PhasePoint.of(x0[:, k], p0[:, k]), t, dt)
            if res.exited:
                raise ValueError("region image escapes the grid")
            zT = res.points[-1]
            xT[:, k] = zT.x
            pT[:, k] = zT.p
    out = np.zeros_like(mask, dtype=bool)
    loc = []
    for d in range(n):
        jx = np.rint(xT[d] / axes[d].dx).astype(int) + grid.n(d) // 2
        if (jx < 0).any() or (jx >= grid.n(d)).any():
            raise ValueError("region image escapes the grid")
        loc.append(jx)
    for d in range(n):
        jp = np.rint(pT[d] / axes[d].dp).astype(int) + grid.n(d) // 2
        if (jp < 0).any() or (jp >= grid.n(d)).any():
            raise ValueError("region image escapes the grid")
        loc.append(jp)
    out[tuple(loc)] = True
    return out
