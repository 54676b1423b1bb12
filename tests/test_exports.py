import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import osqm

MODULES = ["osqm"] + [f"osqm.{m.name}" for m in pkgutil.iter_modules(osqm.__path__)]

# names deleted from the package; none may come back through a stale export
DELETED = {
    "osqm": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement",
             "SymplecticForm", "symplectic_product", "poisson_bracket", "hamilton_flow",
             "PhasePoint", "moyal_bracket", "moyal_product_truncated", "DensityOperator",
             "overlap", "coherent_wigner", "density_from_wigner", "wigner_from_density",
             "quasiprojector_symbol", "StarProductPlan",
             # the names osqm.moyal held before the module was deleted
             "_poly_dx", "_poly_dp", "_poly_mulc", "_poly_add", "_cdft2", "_cidft2",
             "_ORDERS", "poly_star", "poly_bracket", "_plan", "_twisted_rows"],
    "osqm.oracle": ["povm_apply", "VonNeumannCoupling", "measurement_premeasurement",
                    "state_vector", "DensityOperator.mix", "OperatorMatrix.expectation",
                    "DensityOperator", "position_operator", "momentum_operator",
                    "kinetic_operator", "_embed_axis_block", "WaveFunction._dvol"],
    "osqm.classical": ["_poly_partial_arrays", "ClassicalObservable.from_callable",
                       "ClassicalObservable.fn", "leapfrog_monodromy", "SymplecticForm",
                       "symplectic_product", "poisson_bracket", "_check_same_grid",
                       "poly_mul", "poly_add", "hamilton_flow", "_inside", "FlowResult",
                       "_power"],
    "osqm.grid": ["PhasePoint", "GridAxis", "_axis", "PhaseGrid.axis"],
    "osqm.regions": ["Partition.__len__", "Partition.__getitem__", "DefectReport",
                     "quasiprojector_symbol", "smoothing_kernel", "_fft_convolve",
                     "Region.chi"],
    "osqm.scenarios": ["MeasurementScenario.coupling_w"],
    "osqm.transitions": ["_density_quasirestricted", "_OraclePropagator._propagator",
                         "worker_count", "_ENGINE", "_pool_run", "_run_one",
                         "_Event", "_Branch", "TrajectoryEngine._insert",
                         "_OraclePropagator.snapshot", "_Propagator"],
    "osqm.spectral": ["cdft", "cidft", "spectral_derivative", "p_to_x", "upsample2",
                      "_half_cell_table"],
    "osqm.dynamics": ["_FactorOp", "_TermOp", "_TermExponential", "_cdftn", "_cidftn",
                      "_sign_tables", "_Splitting", "_evolve_rk4",
                      "HamiltonianTerm.coeff_at", "Hamiltonian.is_static",
                      "LvnPlan._scale", "LvnPlan._amount", "_evolve_exact",
                      "_TermBasis.propagate", "_TermBasis.to_basis", "_freq_tables",
                      "_factor_basis", "_factor_twist", "_mixed_order",
                      "_TermBasis.twist", "_TermBasis.untwist", "_TermBasis.from_basis",
                      "_half_shift", "_TermBasis.tables", "_TermBasis._front",
                      "_TermBasis._flip", "_TermBasis._product", "_TermBasis._shift_half",
                      "_TermBasis._half_spectrum_columns"],
    "osqm.weyl": ["_sym_core_1dof", "overlap", "WeylSymbol.constant", "WeylSymbol.integral",
                  "StarProductPlan", "_plan", "_twisted_rows"],
    "osqm.wigner": ["_pure_chord_block", "wigner_from_density", "density_from_wigner",
                    "coherent_wigner"],
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


# modules deleted from the package, their jobs taken by another module's code
DELETED_MODULES = ["osqm.moyal"]   # moyal_product is in osqm.weyl


@pytest.mark.parametrize("name", DELETED_MODULES)
def test_deleted_modules_do_not_import(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


def test_deleted_event_members_are_gone():
    from osqm.grid import PhaseGrid
    from osqm.scenarios import MeasurementScenario
    from osqm.transitions import _OraclePropagator, _PhasePropagator
    sc = MeasurementScenario(PhaseGrid.create(64, 15.0), PhaseGrid.create(32, 7.5),
                             branch_sep=3.0, band_edge=5.0, displacement=10.0)
    for member in ("band_ops", "band_sqrts", "band_eigs", "project_band",
                   "band_residual", "hamiltonian", "window"):
        assert not hasattr(sc, member)
    for cls in (_OraclePropagator, _PhasePropagator):
        assert not hasattr(cls, "ps6")


def test_deleted_dead_members_are_gone():
    from osqm.regions import Partition
    from osqm.weyl import WeylSymbol
    assert not hasattr(WeylSymbol, "from_function")
    assert "kernel" not in Partition.__dataclass_fields__


# options that no caller set, now module constants or always on
DELETED_PARAMETERS = [
    ("osqm.dynamics", "evolve_lvn", "snapshots_every"),
    ("osqm.transitions", "TrajectoryEngine", "check_ps6"),
    ("osqm.transitions", "TrajectoryEngine", "require_quasirestricted"),
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
    ("osqm.classical", "ClassicalObservable", "fn"),
    ("osqm.scenarios", "MeasurementScenario", "coupling_w"),
    ("osqm.acceptance", "_partition_fixtures", "points"),
    ("osqm.acceptance", "_partition_fixtures", "extent"),
    ("osqm.acceptance", "_partition_fixtures", "hbar"),
    ("osqm.regions", "Region", "_symbol"),
    ("osqm.regions", "Region", "_operator"),
    ("osqm.regions", "Region", "_sqrt"),
    ("osqm.transitions", "_OraclePropagator", "common_span"),
    ("osqm.dynamics", "evolve_lvn", "t0"),
    ("osqm.dynamics", "Hamiltonian.symbol", "t"),
    ("osqm.dynamics", "HamiltonianTerm", "label"),
    ("osqm.dynamics", "LvnPlan.step", "t"),
    ("osqm.dynamics", "LvnPlan.rhs", "t"),
    ("osqm.transitions", "_OraclePropagator.advance", "t0"),
    ("osqm.transitions", "_PhasePropagator.advance", "t0"),
    ("osqm.oracle", "WaveFunction.from_vector", "normalized"),
    ("osqm.acceptance", "run_regression_suite", "tolerances"),
    ("osqm.scenarios", "binomial_interval", "z"),
    ("osqm.grid", "PhaseGrid.create", "dof"),
    ("osqm.classical", "ClassicalObservable", "values"),
    ("osqm.spectral", "shift_half_cell", "factor"),
    ("osqm.scenarios", "MeasurementScenario", "coupling_v"),
    ("osqm.acceptance", "CriterionResult", "seconds"),
    ("osqm.spectral", "cdftn", "axes"),
    ("osqm.spectral", "cidftn", "axes"),
]


@pytest.mark.parametrize("module, qualname, parameter", DELETED_PARAMETERS)
def test_deleted_parameters_are_gone(module, qualname, parameter):
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    assert parameter not in inspect.signature(target).parameters


def test_deleted_flow_members_are_gone():
    from osqm.classical import ClassicalObservable
    assert not hasattr(ClassicalObservable, "gradient_at")


# Settable values in src/osqm: defaulted parameters of every def, plus the
# defaulted dataclass fields that __init__ takes. A lambda's defaults bind
# loop or closure values and are not counted. The number is the true count:
# a new option raises it and a deleted one lowers it in the same change,
# with the reason in CHANGES.md.
SETTABLE_VALUES = 47


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _field_settable(value: ast.expr) -> bool:
    """A dataclass field with this default is an __init__ parameter."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    if "default" not in kw and "default_factory" not in kw:
        return False
    return not (isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False)


def settable_values(root: Path) -> int:
    count = 0
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                             and _field_settable(st.value) for st in node.body)
    return count


def test_settable_values_do_not_grow():
    assert settable_values(Path(osqm.__file__).parent) == SETTABLE_VALUES


def unused_imports(path: Path) -> list:
    """Names that the module at path imports but never reads.

    Imports on a line marked # noqa are exempt. A name read only inside a
    string annotation counts as unused.
    """
    source = path.read_text()
    lines = source.splitlines()
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # no linter is installed, so this is the check; __init__ re-exports
    root = Path(osqm.__file__).parent
    unused = [u for path in sorted(root.glob("*.py")) if path.name != "__init__.py"
              for u in unused_imports(path)]
    assert unused == []


def test_importing_every_module_loads_no_scipy():
    # numpy is the one runtime dependency: scipy would load a second BLAS
    env = dict(os.environ)
    src = str(Path(osqm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
