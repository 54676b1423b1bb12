import importlib
import inspect
import pkgutil

import pytest

import osqm

MODULES = ["osqm"] + [f"osqm.{m.name}" for m in pkgutil.iter_modules(osqm.__path__)]

# names deleted from the package; none may come back through a stale export
DELETED = {
    "osqm": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement"],
    "osqm.oracle": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement",
                    "state_vector", "DensityOperator.mix", "OperatorMatrix.expectation"],
    "osqm.classical": ["_poly_partial_arrays", "ClassicalObservable.from_callable"],
    "osqm.transitions": ["_density_quasirestricted"],
    "osqm.dynamics": ["_FactorOp", "_TermOp", "_TermExponential", "_cdftn", "_cidftn",
                      "_sign_tables", "_Splitting", "_evolve_rk4"],
    "osqm.moyal": ["_poly_dx", "_poly_dp", "_poly_mulc", "_poly_add", "_cdft2", "_cidft2"],
    "osqm.weyl": ["_sym_core_1dof"],
    "osqm.wigner": ["_pure_chord_block"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _resolves(target, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    assert [n for n in DELETED[name] if _resolves(module, n)] == []
    assert set(DELETED[name]).isdisjoint(getattr(module, "__all__", []))


def test_deleted_event_members_are_gone():
    from osqm.grid import PhaseGrid
    from osqm.scenarios import MeasurementScenario
    from osqm.transitions import _OraclePropagator, _PhasePropagator
    sc = MeasurementScenario(PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5),
                             branch_sep=3.0, band_edge=5.0, displacement=10.0,
                             coupling_v=10.0)
    for member in ("band_ops", "band_sqrts", "band_eigs", "project_band",
                   "band_residual", "hamiltonian"):
        assert not hasattr(sc, member)
    for cls in (_OraclePropagator, _PhasePropagator):
        assert not hasattr(cls, "ps6")


def test_deleted_dead_members_are_gone():
    from osqm.grid import PhasePoint
    from osqm.regions import Partition
    from osqm.weyl import WeylSymbol
    assert not hasattr(WeylSymbol, "from_function")
    assert not hasattr(PhasePoint, "as_vector")
    assert "kernel" not in Partition.__dataclass_fields__


# options that no caller set, now module constants or always on
DELETED_PARAMETERS = [
    ("osqm.dynamics", "evolve_lvn", "snapshots_every"),
    ("osqm.transitions", "TrajectoryEngine", "check_ps6"),
    ("osqm.transitions", "TrajectoryEngine", "require_quasirestricted"),
    ("osqm.oracle", "DensityOperator", "validate_psd"),
    ("osqm.oracle", "operator_sqrt", "clip_log"),
    ("osqm.regions", "classicality_projectors", "ambiguity_margin"),
    ("osqm.wigner", "wavefunction_from_wigner", "threshold"),
    ("osqm.grid", "PhaseGrid.check_containment", "tol"),
    ("osqm.transitions", "zeno_experiment", "saturation"),
    ("osqm.transitions", "zeno_experiment", "projection_mode"),
    ("osqm.transitions", "run_ensemble", "workers"),
    ("osqm.transitions", "apply_quasiprojection", "mode"),
    ("osqm.transitions", "apply_quasiprojection", "exact_projector"),
    ("osqm.regions", "is_quasirestricted", "tol"),
    ("osqm.regions", "is_quasirestricted", "cutoff"),
    ("osqm.weyl", "overlap", "clip_log"),
]


@pytest.mark.parametrize("module, qualname, parameter", DELETED_PARAMETERS)
def test_deleted_parameters_are_gone(module, qualname, parameter):
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    assert parameter not in inspect.signature(target).parameters


def test_deleted_flow_members_are_gone():
    from osqm.classical import ClassicalObservable, FlowResult
    assert not hasattr(ClassicalObservable, "gradient_at")
    for member in ("__iter__", "__getitem__", "__len__"):
        assert member not in vars(FlowResult)
