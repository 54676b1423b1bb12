import importlib
import pkgutil

import pytest

import osqm

MODULES = ["osqm"] + [f"osqm.{m.name}" for m in pkgutil.iter_modules(osqm.__path__)]

# names deleted from the package; none may come back through a stale export
DELETED = {
    "osqm": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement"],
    "osqm.oracle": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement"],
    "osqm.classical": ["_poly_partial_arrays"],
    "osqm.moyal": ["_poly_dx", "_poly_dp", "_poly_mulc", "_poly_add"],
    "osqm.transitions": ["_density_quasirestricted"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    assert [n for n in DELETED[name] if hasattr(module, n)] == []
    assert set(DELETED[name]).isdisjoint(getattr(module, "__all__", []))


def test_deleted_event_members_are_gone():
    from osqm.grid import PhaseGrid
    from osqm.scenarios import MeasurementScenario
    from osqm.transitions import _OraclePropagator, _PhasePropagator
    sc = MeasurementScenario(PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5),
                             branch_sep=3.0, band_edge=5.0, displacement=10.0,
                             coupling_v=10.0)
    for member in ("band_ops", "band_sqrts", "band_eigs", "project_band",
                   "band_residual"):
        assert not hasattr(sc, member)
    for cls in (_OraclePropagator, _PhasePropagator):
        assert not hasattr(cls, "ps6")


def test_deleted_flow_members_are_gone():
    from osqm.classical import ClassicalObservable, FlowResult
    assert not hasattr(ClassicalObservable, "gradient_at")
    for member in ("__iter__", "__getitem__", "__len__"):
        assert member not in vars(FlowResult)
