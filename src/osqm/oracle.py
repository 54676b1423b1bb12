"""Dense Hilbert-space reference layer.

States are unit vectors in C^(N^n) (discrete l2 convention: v_j =
psi(x_j) sqrt(dx^n)), operators are dense matrices acting on them, and
propagation goes through exact eigendecompositions so this layer is more
accurate than anything it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np
import scipy.linalg

from .grid import PhaseGrid
from .spectral import cdft, x_to_p

__all__ = [
    "OperatorMatrix",
    "WaveFunction",
    "DensityOperator",
    "NotPositiveError",
    "position_operator",
    "momentum_operator",
    "kinetic_operator",
    "schrodinger_propagate",
    "operator_sqrt",
    "tensor_state",
    "check_unit_norm",
]

HERM_TOL = 1e-10
PSD_TOL = 1e-8
NORM_TOL = 1e-10   # allowed | |psi|^2 - 1 | of a state flagged normalized


class NotPositiveError(ValueError):
    """A density matrix has an eigenvalue below -PSD_TOL, or is not the
    pure state it must be."""


@dataclass
class WaveFunction:
    """Configuration-space state: psi sampled on the grid, continuum norm.

    values has shape (N,)*dof; sum |psi|^2 dx^dof = 1 when normalized.
    """

    grid: PhaseGrid
    values: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.config_shape:
            raise ValueError("wavefunction shape does not match grid")
        if self.normalized:
            n2 = self.norm_sq()
            if abs(n2 - 1) > NORM_TOL:
                raise ValueError(f"state flagged normalized but |psi|^2 sums to {n2!r}")

    def _dvol(self) -> float:
        v = 1.0
        for d in self.grid.dx:
            v *= d
        return v

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self._dvol())

    def normalize(self) -> "WaveFunction":
        n = np.sqrt(np.sum(np.abs(self.values) ** 2) * self._dvol())
        return WaveFunction(self.grid, self.values / n)

    def to_vector(self) -> np.ndarray:
        """Flat unit vector in the discrete l2 convention."""
        return (self.values * np.sqrt(self._dvol())).ravel()

    @classmethod
    def from_vector(cls, grid: PhaseGrid, v: np.ndarray,
                    normalized: bool = True) -> "WaveFunction":
        dvol = 1.0
        for d in grid.dx:
            dvol *= d
        vals = np.asarray(v, dtype=complex).reshape(grid.config_shape) / np.sqrt(dvol)
        return cls(grid, vals, normalized=normalized)

    def overlap(self, other: "WaveFunction") -> complex:
        """<self|other>: self is conjugated, as in QuTiP's Qobj.overlap."""
        return complex(np.vdot(self.to_vector(), other.to_vector()))

    def momentum_values(self) -> np.ndarray:
        """psi-tilde(p) on the momentum grid (unitary transform per axis)."""
        out = self.values
        for d in range(self.grid.dof):
            out = x_to_p(out, self.grid.dx[d], self.grid.hbar, axis=d)
        return out


def check_unit_norm(v: np.ndarray) -> np.ndarray:
    """v, once |v|^2 = 1 within NORM_TOL, as a normalized WaveFunction checks."""
    n2 = np.vdot(v, v).real
    if abs(n2 - 1) > NORM_TOL:
        raise ValueError(f"state vector should be normalized but |v|^2 sums to {n2!r}")
    return v


@dataclass
class DensityOperator:
    """Dense density matrix in the discrete position basis (trace 1).

    Construction checks that the matrix is Hermitian with unit trace and
    that its smallest eigenvalue is not below -PSD_TOL (NotPositiveError);
    that eigenvalue costs a cubic-time eigvalsh on every construction.
    """

    grid: PhaseGrid
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.grid.hilbert_dim
        if self.matrix.shape != (dim, dim):
            raise ValueError("density matrix has wrong dimension")
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm > HERM_TOL:
            raise ValueError(f"density matrix not Hermitian (dev {herm:.2e})")
        tr = self.matrix.trace().real
        if abs(tr - 1) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        evmin = scipy.linalg.eigvalsh(self.matrix, subset_by_index=[0, 0])[0]
        if evmin < -PSD_TOL:
            raise NotPositiveError(
                f"density matrix has eigenvalue {evmin:.2e} < -{PSD_TOL}")

    @classmethod
    def pure(cls, psi: WaveFunction) -> "DensityOperator":
        v = psi.to_vector()
        return cls(psi.grid, np.outer(v, v.conj()))


@dataclass
class OperatorMatrix:
    """Dense operator on the discrete Hilbert space, with verified flags."""

    grid: PhaseGrid
    matrix: np.ndarray
    hermitian: bool = False
    psd: bool = False
    _eig: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.grid.hilbert_dim
        if self.matrix.shape != (dim, dim):
            raise ValueError("operator matrix has wrong dimension")
        if self.hermitian:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            if dev > HERM_TOL:
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.2e}")
        if self.psd:
            if not self.hermitian:
                raise ValueError("psd flag requires hermitian flag")
            if self.eigh()[0][0] < -PSD_TOL:
                raise ValueError(
                    f"operator flagged PSD has eigenvalue {self.eigh()[0][0]:.2e}")

    def eigh(self):
        """Cached eigendecomposition (Hermitian operators only)."""
        if not self.hermitian:
            raise ValueError("eigh needs a Hermitian operator")
        if self._eig is None:
            w, q = scipy.linalg.eigh(self.matrix)
            object.__setattr__(self, "_eig", (w, q))
        return self._eig

    def unitary(self, t: float) -> np.ndarray:
        """Dense propagator exp(-i H t / hbar) = Q exp(-i w t / hbar) Q^H,
        from the cached eigendecomposition."""
        w, q = self.eigh()
        return (q * np.exp(-1j * w * t / self.grid.hbar)) @ q.conj().T


def position_operator(grid: PhaseGrid, d: int = 0) -> OperatorMatrix:
    dof = grid.dof
    x = grid.x(d)
    diag = np.ones(grid.config_shape)
    shape = [1] * dof
    shape[d] = grid.n(d)
    diag = (diag * x.reshape(shape)).ravel()
    return OperatorMatrix(grid, np.diag(diag.astype(complex)), hermitian=True)


def momentum_operator(grid: PhaseGrid, d: int = 0) -> OperatorMatrix:
    return kinetic_operator(grid, lambda p: p, d)


def kinetic_operator(grid: PhaseGrid, tfun, d: int = 0) -> OperatorMatrix:
    """Operator T(p_d): diagonal in the momentum representation of axis d."""
    n = grid.n(d)
    tvals = np.asarray(tfun(grid.p(d)), dtype=float)
    # 1-axis unitary centered DFT matrix
    F = cdft(np.eye(n), axis=0) / np.sqrt(n)
    block = F.conj().T @ np.diag(tvals.astype(complex)) @ F
    block = 0.5 * (block + block.conj().T)
    m = _embed_axis_block(grid, block, d)
    return OperatorMatrix(grid, m, hermitian=True)


def _embed_axis_block(grid: PhaseGrid, block: np.ndarray, d: int) -> np.ndarray:
    """block on axis d, the identity on every other axis."""
    return reduce(np.kron, [block if k == d else np.eye(grid.n(k), dtype=complex)
                            for k in range(grid.dof)])


def tensor_state(psi1: WaveFunction, psi2: WaveFunction) -> WaveFunction:
    """Composite state on the product grid (PS2 bookkeeping)."""
    grid = PhaseGrid.product(psi1.grid, psi2.grid)
    vals = np.multiply.outer(psi1.values, psi2.values)
    return WaveFunction(grid, vals)


def schrodinger_propagate(psi: WaveFunction, h: OperatorMatrix, t: float) -> WaveFunction:
    """psi(t) = exp(-i H t / hbar) psi via exact eigendecomposition."""
    if not h.hermitian:
        raise ValueError("Hamiltonian must be Hermitian")
    w, q = h.eigh()
    v = psi.to_vector()
    phases = np.exp(-1j * w * t / psi.grid.hbar)
    out = q @ (phases * (q.conj().T @ v))
    return WaveFunction.from_vector(psi.grid, out)


def operator_sqrt(p: OperatorMatrix) -> OperatorMatrix:
    """Hermitian PSD square root.

    Eigenvalues at or below the noise floor dim * eps * max|w|, the scale
    of eigh's backward error, are set to 0 before the root: the root of
    round-off (7.8e-16 becomes 2.8e-8) would otherwise swamp the small
    eigenvalues it stands for. Eigenvalues below -1e-6 are rejected. The
    root keeps p's eigenvectors with the rooted eigenvalues as its
    eigendecomposition, so its PSD flag is checked without a second eigh.
    """
    if not p.hermitian:
        raise ValueError("operator_sqrt needs a Hermitian operator")
    w, q = p.eigh()
    if w[0] < -1e-6:
        raise ValueError(f"operator significantly non-PSD (min eig {w[0]:.2e})")
    floor = len(w) * np.finfo(float).eps * np.abs(w).max()
    clipped = np.where(w > floor, w, 0.0)
    root_w = np.sqrt(clipped)
    root = (q * root_w) @ q.conj().T
    root = 0.5 * (root + root.conj().T)
    return OperatorMatrix(p.grid, root, hermitian=True, psd=True, _eig=(root_w, q))
