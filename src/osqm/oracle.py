"""Dense Hilbert-space reference layer.

States are unit vectors in C^(N^n) (discrete l2 convention: v_j =
psi(x_j) sqrt(dx^n)), operators are dense matrices acting on them, and
propagation goes through exact eigendecompositions so this layer is more
accurate than anything it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import PhaseGrid
from .spectral import x_to_p

__all__ = [
    "OperatorMatrix",
    "WaveFunction",
    "NotPositiveError",
    "schrodinger_propagate",
    "operator_sqrt",
    "tensor_state",
    "check_unit_norm",
    "noise_floor",
    "real_matmul",
]

HERM_TOL = 1e-10
PSD_TOL = 1e-8
NORM_TOL = 1e-10   # allowed | |psi|^2 - 1 | of a state flagged normalized


class NotPositiveError(ValueError):
    """A density matrix is not the pure state it must be: the phase
    backend's rank-1 gate (transitions._PhasePropagator.to_vector) raises
    it when the quantised Wigner state is too far from rank one."""


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
            if not abs(n2 - 1) <= NORM_TOL:
                raise ValueError(f"state flagged normalized but |psi|^2 sums to {n2!r}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx_volume)

    def normalize(self) -> "WaveFunction":
        n = np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx_volume)
        return WaveFunction(self.grid, self.values / n)

    def to_vector(self) -> np.ndarray:
        """Flat unit vector in the discrete l2 convention."""
        return (self.values * np.sqrt(self.grid.dx_volume)).ravel()

    @classmethod
    def from_vector(cls, grid: PhaseGrid, v: np.ndarray) -> "WaveFunction":
        vals = np.asarray(v, dtype=complex).reshape(grid.config_shape) / np.sqrt(grid.dx_volume)
        return cls(grid, vals)

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


def noise_floor(dim: int, scale: float) -> float:
    """dim * eps * scale: the backward error of an eigen-solve of a dim x dim
    Hermitian matrix whose largest entry or eigenvalue has size scale."""
    return dim * np.finfo(float).eps * scale


def real_matmul(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a real matrix a and a complex array v whose first axis a
    acts on, as one real GEMM on v's float view (each row holds its
    entries' real and imaginary parts side by side). a @ v itself would
    cast a to complex first: a copy of a and a GEMM of twice the flops."""
    parts = np.ascontiguousarray(v, dtype=complex).view(float).reshape(len(v), -1)
    return (a @ parts).view(complex).reshape(a.shape[:1] + v.shape[1:])


@dataclass
class OperatorMatrix:
    """Dense operator on the discrete Hilbert space, with verified flags."""

    grid: PhaseGrid
    matrix: np.ndarray
    hermitian: bool = False
    psd: bool = False
    _eig: Optional[tuple] = field(default=None, repr=False, compare=False)
    _diag: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.grid.hilbert_dim
        if self.matrix.shape != (dim, dim):
            raise ValueError("operator matrix has wrong dimension")
        if self.hermitian:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            if not dev <= HERM_TOL:  # NaN fails this, so no eigh sees a NaN or inf
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.2e}")
        if self.psd:
            if not self.hermitian:
                raise ValueError("psd flag requires hermitian flag")
            if self.eigh()[0][0] < -PSD_TOL:
                raise ValueError(
                    f"operator flagged PSD has eigenvalue {self.eigh()[0][0]:.2e}")

    @classmethod
    def diagonal(cls, grid: PhaseGrid, d: np.ndarray) -> "OperatorMatrix":
        """The PSD operator diag(d) of a nonnegative real vector d, with its
        exact eigendecomposition cached: d in ascending order, and unit-vector
        eigenvectors as the real path of eigh() returns them, a real
        Fortran-ordered q. Neither the PSD check nor eigh() makes a LAPACK
        call, and operator_sqrt roots d elementwise."""
        d = np.asarray(d, dtype=float)
        order = np.argsort(d, kind="stable")
        q = np.zeros((len(d), len(d)), order="F")
        q[order, np.arange(len(d))] = 1.0
        op = cls(grid, np.diag(d), hermitian=True, psd=True, _eig=(d[order], q))
        op._diag = d
        return op

    def eigh(self):
        """Cached eigendecomposition (Hermitian operators only): ascending
        eigenvalues w and orthonormal eigenvector columns q.

        numpy.linalg.eigh: LAPACK's divide-and-conquer solver (Gu &
        Eisenstat, SIMAX 16, 1995), whose eigenvectors are orthonormal to
        4e-15 on the quantised pure states. A matrix whose largest imaginary
        entry is at or below noise_floor(dim, max|H|), the solver's own
        backward error, is decomposed as its real part (syevd): q is real,
        at about a third of the complex solve's time. Every other matrix
        takes the complex solver (heevd) and a complex q. The free,
        oscillator and double-well presets are even in p, so their matrices
        take the real path.
        q is kept in LAPACK's own Fortran order (numpy returns a C-ordered
        copy): the layout sets how the GEMMs of unitary() and operator_sqrt
        sum, and so the last bits of the figures `osqm regress` reports.
        """
        if not self.hermitian:
            raise ValueError("eigh needs a Hermitian operator")
        if self._eig is None:
            m = self.matrix
            if np.abs(m.imag).max() <= noise_floor(len(m), np.abs(m).max()):
                m = m.real
            w, q = np.linalg.eigh(m)
            object.__setattr__(self, "_eig", (w, np.asfortranarray(q)))
        return self._eig

    def unitary(self, t: float) -> np.ndarray:
        """Dense propagator exp(-i H t / hbar) = Q exp(-i w t / hbar) Q^H,
        from the cached eigendecomposition. On a real q its real and
        imaginary parts are two real GEMMs, Q cos(w t / hbar) Q^T and
        -Q sin(w t / hbar) Q^T: a complex factor would cast q to complex
        before one complex GEMM, twice the work."""
        w, q = self.eigh()
        if np.iscomplexobj(q):
            return (q * np.exp(-1j * w * t / self.grid.hbar)) @ q.conj().T
        phase = w * t / self.grid.hbar
        u = np.empty(q.shape, dtype=complex)
        u.real = (q * np.cos(phase)) @ q.T
        u.imag = (q * -np.sin(phase)) @ q.T
        return u


def tensor_state(psi1: WaveFunction, psi2: WaveFunction) -> WaveFunction:
    """Composite state on the product grid (PS2 bookkeeping)."""
    grid = PhaseGrid.product(psi1.grid, psi2.grid)
    vals = np.multiply.outer(psi1.values, psi2.values)
    return WaveFunction(grid, vals)


def schrodinger_propagate(psi: WaveFunction, h: OperatorMatrix, t: float) -> WaveFunction:
    """psi(t) = exp(-i H t / hbar) psi via exact eigendecomposition; a real
    q is applied by real_matmul."""
    if not h.hermitian:
        raise ValueError("Hamiltonian must be Hermitian")
    w, q = h.eigh()
    v = psi.to_vector()
    phases = np.exp(-1j * w * t / psi.grid.hbar)
    if np.iscomplexobj(q):
        out = q @ (phases * (q.conj().T @ v))
    else:
        out = real_matmul(q, phases * real_matmul(q.T, v))
    return WaveFunction.from_vector(psi.grid, out)


def operator_sqrt(p: OperatorMatrix) -> OperatorMatrix:
    """Hermitian PSD square root.

    Eigenvalues at or below noise_floor(dim, max|w|), the scale of eigh's
    backward error, are set to 0 before the root: the root of round-off
    (7.8e-16 becomes 2.8e-8) would otherwise swamp the small eigenvalues it
    stands for. Eigenvalues below -1e-6 are rejected. The
    root keeps p's eigenvectors with the rooted eigenvalues as its
    eigendecomposition, so its PSD flag is checked without a second eigh.

    A diagonal p (OperatorMatrix.diagonal, such as the quasiprojector of a
    region cut only in x) has unit-vector eigenvectors, so its root is
    diag(sqrt(d)) under the same floor: built elementwise, it is bit for bit
    the product (q sqrt(w)) q^H, and it is diagonal in turn.
    """
    if not p.hermitian:
        raise ValueError("operator_sqrt needs a Hermitian operator")
    w, q = p.eigh()
    if w[0] < -1e-6:
        raise ValueError(f"operator significantly non-PSD (min eig {w[0]:.2e})")
    floor = noise_floor(len(w), np.abs(w).max())
    if p._diag is not None:
        return OperatorMatrix.diagonal(p.grid, np.sqrt(np.where(p._diag > floor, p._diag, 0.0)))
    root_w = np.sqrt(np.where(w > floor, w, 0.0))
    root = (q * root_w) @ q.conj().T
    root = 0.5 * (root + root.conj().T)
    return OperatorMatrix(p.grid, root, hermitian=True, psd=True, _eig=(root_w, q))
