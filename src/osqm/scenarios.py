"""Scenario presets and the composite measurement run.

The measurement scenario realizes the pointer-plus-observed structure on a
product grid: pointer bands along the first position axis are the coarse
graining, a p1 * lambda(x2) coupling drives the pointer into the band
matching the observed branch, and the region transition then reproduces
Born statistics for the branch amplitudes. The coupling propagator is
diagonal in the (p1, x2) mixed representation. The bands are a partition
of the pointer grid, and the state stays an (n1, n2) array V, on which a
band operator acts as (A (x) I) vec(V) = vec(A V). The engine's event
functions take V as an l2 array whose first axis is the pointer's space,
the scenario passes each band's Pi^(1/2) as the update operator, and no
composite-sized operator is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Hamiltonian, HamiltonianTerm
from .grid import PhaseGrid
from .oracle import WaveFunction, tensor_state
# unused here, but the benchmark's tracer patches this name in every module
# that imports it, so it must resolve
from .regions import _coherent_quadrature_1dof  # noqa: F401
from .regions import build_partition, is_quasirestricted
from .spectral import cdftn, cidftn
# unused here, but the benchmark's tracer patches this name in every module
# that imports it, so it must resolve
from .transitions import trajectory_rng  # noqa: F401
from .transitions import (apply_quasiprojection, sample_transition,
                          trajectory_uniforms, transition_probabilities_oracle)
from .wigner import coherent_state

__all__ = [
    "hamiltonian_preset",
    "initial_state_preset",
    "HAMILTONIAN_PRESETS",
    "STATE_PRESETS",
    "MeasurementScenario",
    "BandOutcomes",
    "binomial_interval",
]

HAMILTONIAN_PRESETS = ("free", "oscillator", "double-well", "von-neumann-coupling")
STATE_PRESETS = ("coherent", "cat", "oscillator-eigenstate")


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10 + s * (-15 + 6 * s))


def edge_flattened(profile, x1: float, x2: float):
    """Freeze a profile to its value at +/-x1 beyond that radius.

    Potentials that keep growing toward the wrap boundary put enormous
    energy scales at the grid edge, which amplifies edge couplings of the
    discrete kinetic operator far beyond anything physical. Scenario
    potentials are therefore flattened smoothly between x1 and x2; the
    dynamical region inside |x| < x1 is untouched.
    """

    def flattened(x):
        raw = profile(x)
        hold = profile(np.clip(x, -x1, x1))
        w = _smoothstep((np.abs(x) - x1) / (x2 - x1))
        return (1 - w) * raw + w * hold

    return flattened


def hamiltonian_preset(grid: PhaseGrid, name: str, params: Optional[dict] = None) -> Hamiltonian:
    """Build one of the named Hamiltonians.

    free: p^2/(2m)                      params: mass
    oscillator: p^2/(2m) + m w^2 x^2/2  params: mass, omega
    double-well: p^2/(2m) + a (x^2-b^2)^2   params: mass, a, b
    von-neumann-coupling (dof 2): v * p1 * tanh(x2 / w)   params: v, w
    """
    p = dict(params or {})
    if name == "free":
        m = p.pop("mass", 1.0)
        _reject_extra(name, p)
        terms = [HamiltonianTerm((("p", 0, lambda q, m=m: q ** 2 / (2 * m)),))]
    elif name == "oscillator":
        m = p.pop("mass", 1.0)
        om = p.pop("omega", 1.0)
        _reject_extra(name, p)
        terms = [HamiltonianTerm((("p", 0, lambda q, m=m: q ** 2 / (2 * m)),)),
                 HamiltonianTerm((("x", 0, lambda q, m=m, om=om: 0.5 * m * om ** 2 * q ** 2),))]
    elif name == "double-well":
        m = p.pop("mass", 1.0)
        a = p.pop("a", 0.15)
        b = p.pop("b", 2.0)
        flat_frac = p.pop("flatten_at", 0.55)
        _reject_extra(name, p)
        ext = grid.x_extents[0]
        vwell = edge_flattened(lambda q, a=a, b=b: a * (q ** 2 - b ** 2) ** 2,
                               flat_frac * ext, 0.9 * ext)
        terms = [HamiltonianTerm((("p", 0, lambda q, m=m: q ** 2 / (2 * m)),)),
                 HamiltonianTerm((("x", 0, vwell),))]
    elif name == "von-neumann-coupling":
        if grid.dof != 2:
            raise ValueError("von-neumann-coupling needs a 2-dof grid")
        v = p.pop("v", 1.0)
        w = p.pop("w", 1.0)
        _reject_extra(name, p)
        ext2 = grid.x_extents[1]
        lam = edge_flattened(lambda q, w=w: np.tanh(q / w),
                             0.7 * ext2, 0.95 * ext2)
        terms = [HamiltonianTerm((("p", 0, lambda q: q),
                                  ("x", 1, lam)),
                                 coefficient=v)]
    else:
        raise ValueError(
            f"unknown hamiltonian preset {name!r}; available: {HAMILTONIAN_PRESETS}")
    return Hamiltonian(grid, terms)


def _reject_extra(name, leftover):
    if leftover:
        raise ValueError(f"unknown parameters for preset {name!r}: {sorted(leftover)}")


def initial_state_preset(grid: PhaseGrid, name: str,
                         params: Optional[dict] = None) -> WaveFunction:
    """coherent (x0, p0); cat (centers, weights); oscillator-eigenstate (k,
    omega, mass)."""
    p = dict(params or {})
    if name == "coherent":
        x0 = p.pop("x0", 0.0)
        p0 = p.pop("p0", 0.0)
        _reject_extra(name, p)
        return coherent_state(grid, x0, p0)
    if name == "cat":
        centers = p.pop("centers", [[-3.0, 0.0], [3.0, 0.0]])
        weights = p.pop("weights", [1.0, 1.0])
        _reject_extra(name, p)
        vals = sum(w * coherent_state(grid, c[0], c[1]).values
                   for w, c in zip(weights, centers))
        return WaveFunction(grid, vals, normalized=False).normalize()
    if name == "oscillator-eigenstate":
        k = int(p.pop("k", 0))
        om = p.pop("omega", 1.0)
        m = p.pop("mass", 1.0)
        _reject_extra(name, p)
        from .weyl import weyl_operator_from_symbol
        h = hamiltonian_preset(grid, "oscillator", {"omega": om, "mass": m})
        hm = weyl_operator_from_symbol(h.symbol())
        _, vecs = hm.eigh()
        return WaveFunction.from_vector(grid, vecs[:, k])
    raise ValueError(f"unknown state preset {name!r}; available: {STATE_PRESETS}")


def binomial_interval(k: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Normal-approximation confidence interval for a frequency."""
    f = k / n
    half = z * np.sqrt(max(f * (1 - f), 1e-12) / n)
    return f - half, f + half


class BandOutcomes(Sequence):
    """The band label of each draw, held as a read-only uint8 array of
    indices into labels: one byte per draw. Iteration, len, indexing (a
    slice gives a BandOutcomes), == and repr are those of the label list."""

    __slots__ = ("labels", "codes")

    def __init__(self, labels: Sequence, codes: np.ndarray):
        self.labels = tuple(labels)
        self.codes = codes
        self.codes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        picked = self.codes[i]
        if picked.ndim:
            return BandOutcomes(self.labels, picked)
        return self.labels[picked]

    def __iter__(self):
        return map(self.labels.__getitem__, self.codes.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, BandOutcomes)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class MeasurementScenario:
    """Pointer (axis 1) measuring which branch the observed system (axis 2)
    occupies, with pointer-position bands as the coarse graining.

    amplitudes c weight the two observed branch states at (-s, 0), (+s, 0);
    the pointer starts at the origin inside the ready band and is pushed to
    -D or +D by the coupling. The coupling is a phase diagonal in (p1, x2),
    v T p1 tanh(x2) over the window T = D / v, with the raw tanh of unit
    width; the "von-neumann-coupling" Hamiltonian preset flattens its tanh
    beyond 0.7 x_extent instead.
    """

    pointer_grid: PhaseGrid
    observed_grid: PhaseGrid
    amplitudes: tuple[float, float] = (1 / np.sqrt(2), 1 / np.sqrt(2))
    branch_sep: float = 4.3         # observed branches at +/- branch_sep
    band_edge: float = 6.0          # bands split at x1 = +/- band_edge
    displacement: float = 12.0      # pointer travel after the coupling window
    coupling_v: float = 12.0        # displacement rate; window T = D / v

    def __post_init__(self):
        g1 = self.pointer_grid
        sigma = np.sqrt(g1.hbar / 2)
        if self.displacement - self.band_edge < 5 * np.sqrt(g1.hbar):
            raise ValueError("pointer outcome position too close to the band edge")
        if self.band_edge < 5 * np.sqrt(g1.hbar):
            raise ValueError("ready band narrower than 5 sqrt(hbar) half-width")
        if g1.x_extents[0] < self.displacement + 6 * sigma:
            raise ValueError("pointer axis too short for the displacement")
        self.grid = PhaseGrid.product(self.pointer_grid, self.observed_grid)
        self.window = self.displacement / self.coupling_v
        self._prepare()

    def _prepare(self):
        g1, g2 = self.pointer_grid, self.observed_grid
        c1, c2 = self.amplitudes
        norm = np.hypot(c1, c2)
        self.probs_exact = np.array([c1 ** 2, c2 ** 2]) / norm ** 2
        ready = coherent_state(g1, 0.0, 0.0)
        left = coherent_state(g2, -self.branch_sep, 0.0)
        right = coherent_state(g2, +self.branch_sep, 0.0)
        obs = WaveFunction(g2, (c1 * left.values + c2 * right.values) / norm,
                           normalized=False).normalize()
        self.psi0 = tensor_state(ready, obs)
        # band quasiprojectors and their roots, built here as set-up cost
        self.band_labels = ["outcome-left", "ready", "outcome-right"]
        self.partition = build_partition(g1, [-self.band_edge, self.band_edge])
        for region in self.partition.regions:
            region.sqrt_operator()
        # coupling propagator: diagonal in the (p1, x2) representation
        lam = np.tanh(g2.x(0))
        self.phase_full = np.exp(-1j * self.coupling_v * self.window
                                 * np.outer(g1.p(0), lam) / self.grid.hbar)

    def _evolved(self) -> np.ndarray:
        """psi(T) as an (n1, n2) array in the discrete l2 convention."""
        g1 = self.pointer_grid
        v = self.psi0.to_vector().reshape(self.pointer_grid.n(0),
                                          self.observed_grid.n(0))
        vp = cdftn(v, (0,)) / np.sqrt(g1.n(0))    # unitary per-axis transform
        vp = vp * self.phase_full
        return cidftn(vp, (0,)) * np.sqrt(g1.n(0))

    def band_probabilities(self, v2d: np.ndarray) -> np.ndarray:
        """Born weights of the three bands for the (n1, n2) state array."""
        return transition_probabilities_oracle(v2d, self.partition)

    def run_ensemble(self, num_seeds: int, base_seed: int = 0) -> dict:
        """Couple, fire the transition once per seed, tally outcomes.

        The pre-transition evolution is deterministic and shared; each seed
        contributes one Born-rule draw and the post-state checks run once
        per outcome (the post-state is seed-independent). Seed i's draw is
        the first uniform in [0, 1) of trajectory_rng(base_seed, i); one
        trajectory_uniforms call computes all num_seeds of them, so
        base_seed lies in [0, 2^64) and num_seeds is at most 2^32
        (ValueError otherwise). They go through one sample_transition call,
        so the Born row is checked and its CDF built once per ensemble.
        "outcomes" is a BandOutcomes, one byte per draw, equal to the list
        of drawn band labels.
        """
        if num_seeds < 1:
            raise ValueError(f"num_seeds must be at least 1, got {num_seeds}")
        vT = self._evolved()
        probs = self.band_probabilities(vT)
        post_resid = {}
        for idx in (0, 2):
            if probs[idx] > 1e-9:
                region = self.partition.regions[idx]
                post = apply_quasiprojection(vT, region.sqrt_operator())
                post_resid[self.band_labels[idx]] = is_quasirestricted(post, region)[1]
        us = trajectory_uniforms(base_seed, np.arange(num_seeds), 1)[:, 0]
        drawn = sample_transition(probs, us).astype(np.uint8)
        tally = np.bincount(drawn, minlength=len(self.band_labels)).tolist()
        counts = dict(zip(self.band_labels, tally))
        freq_left = counts["outcome-left"] / num_seeds
        freq_right = counts["outcome-right"] / num_seeds
        return {
            "probabilities": {lab: float(p) for lab, p in zip(self.band_labels, probs)},
            "expected": {"outcome-left": float(self.probs_exact[0]),
                         "outcome-right": float(self.probs_exact[1])},
            "counts": counts,
            "frequencies": {"outcome-left": freq_left, "outcome-right": freq_right,
                            "ready": counts["ready"] / num_seeds},
            "post_residuals": post_resid,
            "num_seeds": num_seeds,
            "base_seed": base_seed,
            "outcomes": BandOutcomes(self.band_labels, drawn),
        }


def zeno_scenario(grid: PhaseGrid) -> dict:
    """Standard fixture: oscillator sloshing against a half-plane split."""
    h = hamiltonian_preset(grid, "oscillator", {})
    part = build_partition(grid, [0.0])
    psi0 = coherent_state(grid, -3.0, 0.0)
    return {"hamiltonian": h, "partition": part, "psi0": psi0,
            "law_sweep": list(np.geomspace(0.001, 0.01, 6)),
            "survival_sweep": [2 * np.pi / k for k in (64, 32, 16, 8, 4, 2, 1)]}
