"""Wigner quasiprobability states and the maps to and from Hilbert space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ContainmentError, PhaseGrid
from .oracle import WaveFunction
from .weyl import WeylSymbol, _chord_index, _chord_to_real_symbol, weyl_operator_from_symbol

__all__ = [
    "WignerState",
    "wigner_from_wavefunction",
    "wavefunction_from_wigner",
    "coherent_state",
    "marginals",
]

RECOVERY_FLOOR = 1e-6  # least |psi(0)|^2 at which wavefunction_from_wigner fixes arg psi(0)


@dataclass
class WignerState:
    """Real quasiprobability array over the phase grid, unit integral."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.phase_shape:
            raise ValueError("Wigner array shape does not match grid")
        tot = self.integral()
        if not abs(tot - 1) <= 1e-8:
            raise ValueError(f"Wigner function integrates to {tot!r}, not 1")

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def purity(self) -> float:
        """(2 pi hbar)^n int W^2 dz; 1 for pure states."""
        g = self.grid
        return float((self.values ** 2).sum() * g.cell_volume
                     * (2 * np.pi * g.hbar) ** g.dof)

    def as_symbol(self) -> WeylSymbol:
        """The Weyl symbol of the density operator, (2 pi hbar)^n W."""
        g = self.grid
        return WeylSymbol(g, self.values * (2 * np.pi * g.hbar) ** g.dof + 0j)


def wigner_from_wavefunction(psi: WaveFunction, check_containment: bool = True) -> WignerState:
    """Wigner function of a pure state: the symbol map of |psi><psi|.

    The chord block E[c, t] = psi[t + c] conj(psi[t]) is gathered from the
    state on every dof at once, without building the density matrix, and
    only for the chords c_0 in [0, n_0/2] of dof 0: |psi><psi| is Hermitian,
    so W is real and the other half holds no more. That half runs the real
    path that weyl_symbol_from_operator runs on a Hermitian operator, so the
    two agree to machine precision. With check_containment, both
    |psi(x)|^2 and |psi~(p)|^2 must keep their outer 2-cell shell mass below
    PhaseGrid.check_containment's tolerance (ContainmentError otherwise).
    """
    grid = psi.grid
    if check_containment:
        grid.check_containment(np.abs(psi.values) ** 2, what="|psi|^2")
        grid.check_containment(np.abs(psi.momentum_values()) ** 2,
                               what="|psi~(p)|^2")
    v = psi.to_vector().reshape(grid.config_shape)
    bra, ket = _chord_index(grid.config_shape, half=True)
    # W is allocated first and the transform writes it, with no conjugated or
    # scaled copy: a W allocated after such temporaries sits above the heap
    # holes they leave, which the 32^4 arrays of a later evolution cannot
    # reuse (+48 MB RSS on the composite-measurement workload)
    w = np.empty(grid.phase_shape)
    _chord_to_real_symbol(v[bra] * v.conj()[ket], w)
    w *= 1.0 / (2 * np.pi * grid.hbar) ** grid.dof
    return WignerState(grid, w)


def wavefunction_from_wigner(w: WignerState) -> WaveFunction:
    """Recover psi from a pure-state Wigner function, phase fixed by
    arg psi(0) = 0.

    The origin column of weyl_operator_from_symbol(w.as_symbol()) holds
    psi(x) conj(psi(0)) dx^n, on every dof at once: the Weyl map reads the
    odd chords half a cell past the nodes through the one table,
    spectral.half_cell_table(n, True), as wigner_from_wavefunction does.
    Needs |psi(0)|^2 above RECOVERY_FLOOR; otherwise recover psi as the top
    eigenvector of that operator.
    """
    grid, shape = w.grid, w.grid.config_shape
    origin = np.ravel_multi_index([n // 2 for n in shape], shape)
    g = weyl_operator_from_symbol(w.as_symbol()).matrix[:, origin]
    at0 = g[origin].real / grid.dx_volume     # real: the map symmetrises the matrix
    if at0 <= RECOVERY_FLOOR:
        raise ValueError(
            f"|psi(0)|^2 = {at0:.3e} below threshold {RECOVERY_FLOOR:.1e}; recover psi "
            "as the top eigenvector of weyl_operator_from_symbol(w.as_symbol())")
    return WaveFunction(grid, g.reshape(shape), normalized=False).normalize()


def coherent_state(grid: PhaseGrid, x0, p0) -> WaveFunction:
    """Minimum-uncertainty Gaussian centered at (x0, p0).

    Position variance hbar/2 per axis; the Wigner function is the
    normalized Gaussian (pi hbar)^{-n} exp(-((x-x0)^2+(p-p0)^2)/hbar).
    Sampled as a periodized Gaussian so lattice translations are exact.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if len(x0) != grid.dof or len(p0) != grid.dof:
        raise ValueError("center must supply one (x0, p0) pair per dof")
    if not (np.isfinite(x0).all() and np.isfinite(p0).all()):
        raise ValueError("coherent-state centre must be finite")
    hbar = grid.hbar
    sigma = np.sqrt(hbar / 2)
    for d in range(grid.dof):
        if abs(x0[d]) > grid.x_extents[d] - 6 * sigma:
            raise ContainmentError(f"x center {x0[d]} within 6 sigma of the edge")
        if abs(p0[d]) > grid.p_extents[d] - 6 * sigma:
            raise ContainmentError(f"p center {p0[d]} within 6 sigma of the edge")
    factors = []
    for d in range(grid.dof):
        x = grid.x(d)
        span = 2 * grid.x_extents[d]
        psi = np.zeros(grid.n(d), dtype=complex)
        for k in range(-3, 4):
            xs = x + k * span
            psi += np.exp(-(xs - x0[d]) ** 2 / (2 * hbar)
                          + 1j * p0[d] * (xs - x0[d] / 2) / hbar)
        psi *= (np.pi * hbar) ** (-0.25)
        factors.append(psi)
    vals = factors[0]
    for f in factors[1:]:
        vals = np.multiply.outer(vals, f)
    return WaveFunction(grid, vals, normalized=False).normalize()


def marginals(w: WignerState) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) by integrating W over the
    conjugate axes. The position marginal equals |psi(x)|^2 exactly by
    construction of the chord transform."""
    g = w.grid
    n = g.dof
    vol_p = np.prod([g.dp[d] for d in range(n)])
    pos = w.values.sum(axis=tuple(range(n, 2 * n))) * vol_p
    mom = w.values.sum(axis=tuple(range(n))) * g.dx_volume
    return pos, mom
