import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import osqm
from osqm import cli
from osqm.grid import PhaseGrid
from osqm.io import read_grid_dump
from osqm.oracle import NotPositiveError
from osqm.transitions import TrajectoryEngine


def _write_config(tmp_path):
    cfg = {
        "grid": {"points": 64, "x_extent": 9.0},
        "hamiltonian": {"preset": "oscillator"},
        "initial_state": {"preset": "coherent", "params": {"x0": -2.0, "p0": 0.0}},
        "partition": {"x_boundaries": [0.0]},
        "schedule": {"dt": 0.01, "t_final": 3.0, "mode": "single-shot"},
        "backend": "phase",
        "output": {"out_dir": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_state_leaving_the_grid_exits_with_numerics_code(tmp_path, capsys):
    # a free packet at p0 = 5 reaches the x edge of [-9, 9) near t = 1.2
    cfg = {
        "grid": {"points": 64, "x_extent": 9.0},
        "hamiltonian": {"preset": "free"},
        "initial_state": {"preset": "coherent", "params": {"x0": 0.0, "p0": 5.0}},
        "schedule": {"dt": 0.05, "t_final": 2.0, "mode": "single-shot"},
        "backend": "phase",
        "output": {"out_dir": str(tmp_path / "out")},
    }
    path = tmp_path / "leak.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("numerical abort:") and "x-marginal" in err


def test_phase_backend_single_shot_oscillator_runs(tmp_path):
    # the split LvN step is unitary, so the density matrix built at the
    # event stays positive semi-definite
    assert cli.main(["run", str(_write_config(tmp_path))]) == cli.EXIT_OK
    assert (tmp_path / "out" / "metadata.json").is_file()


def test_phase_backend_periodic_oscillator_runs(tmp_path):
    # every seed aborted with a non-positive density matrix when the phase
    # backend renormalised op rho op^H by a small Born weight
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["schedule"].update(mode="periodic", dt_proj=0.5)
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 6


def test_quasirestriction_failure_exits_with_numerics_code(tmp_path, capsys):
    # on seed 1105 one event's sqrt update leaves a PS6 residual of 1.24e-3,
    # above the 1e-3 tolerance
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["schedule"].update(mode="periodic", dt_proj=0.5)
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--seed", "1105"]) == cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: post-projection state fails quasirestriction")


def test_unstable_phase_step_exits_with_numerics_code(tmp_path, capsys):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["schedule"].update(dt=0.5, t_final=5.0)
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICS
    assert capsys.readouterr().err.startswith("numerical abort: step-halving mismatch")


def test_phase_single_run_writes_snapshots_on_its_grid(tmp_path):
    assert cli.main(["run", str(_write_config(tmp_path)), "--snapshots", "100"]) \
        == cli.EXIT_OK
    dumps = sorted((tmp_path / "out").glob("wigner_t*.osqm"))
    assert [d.name for d in dumps] == [f"wigner_t{t:.6f}.osqm" for t in (1.0, 2.0, 3.0)]
    for dump in dumps:
        grid, values = read_grid_dump(dump)
        assert grid == PhaseGrid.create(64, 9.0)
        assert abs(values.sum() * grid.cell_volume - 1) < 1e-9


@pytest.mark.parametrize("change, got", [
    ({"backend": "oracle"}, "got backend 'oracle' and num_seeds 1"),
    ({"ensemble": {"num_seeds": 4}}, "got backend 'phase' and num_seeds 4")])
def test_snapshots_only_a_single_phase_run_writes_exit_with_config_code(
        tmp_path, capsys, change, got):
    # such a run took every snapshot and wrote none of them
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.update(change)
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--snapshots", "50"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "snapshot_stride > 0 needs backend 'phase' and ensemble num_seeds 1" in err
    assert got in err
    assert not (tmp_path / "out").exists()


def test_event_time_column_ends_at_t_final(tmp_path):
    # dt = 0.3 does not divide t_final = 1.0: the last step is 0.1 long
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["schedule"].update(dt=0.3, t_final=1.0)
    cfg["backend"] = "oracle"
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["4", "1.0"]]


def test_non_positive_density_exits_with_numerics_code(tmp_path, capsys,
                                                       monkeypatch):
    def not_positive(self, *args, **kwargs):
        raise NotPositiveError("density matrix has eigenvalue -3e-08 < -1e-08")

    monkeypatch.setattr(TrajectoryEngine, "run", not_positive)
    assert cli.main(["run", str(_write_config(tmp_path))]) == cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("numerical abort:") and "Traceback" not in err


def test_regress_out_dir_writes_report(tmp_path):
    out = tmp_path / "regress"
    assert cli.main(["regress", "--only", "7,11", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [(r["criterion"], r["passed"]) for r in report] == [(7, True), (11, True)]


@pytest.mark.parametrize("only", ["x", "1,,2", "99", "0", "7,13"])
def test_regress_only_outside_the_criteria_exits_with_config_code(capsys, only):
    assert cli.main(["regress", "--only", only]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no criterion ran


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(osqm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "osqm", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "usage: osqm" in out.stdout


@pytest.mark.parametrize("block, key, value, message", [
    ("hamiltonian", "params", {"omega": "fast"}, "hamiltonian: "),
    ("output", "out_dir", 5, "output: out_dir must be a string"),
    ("initial_state", "preset", "cat", "not quasirestricted")])
def test_input_the_run_cannot_use_exits_with_config_code(tmp_path, capsys, block,
                                                         key, value, message):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg[block][key] = value
    if key == "preset":
        # the default cat's two packets sit on both sides of the x = 0 cut
        cfg[block].pop("params")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("base_seed, num_seeds, override", [
    (2 ** 64 - 1, 2, None), (0, 3, 2 ** 64 - 2), (0, 1, 2 ** 64)])
def test_seeds_past_2_to_the_64_exit_with_config_code(tmp_path, capsys, base_seed,
                                                      num_seeds, override):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.update(backend="oracle", ensemble={"base_seed": base_seed, "num_seeds": num_seeds})
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(cfg))
    args = ["run", str(path)] + ([] if override is None else ["--seed", str(override)])
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invalid configuration:",
        f"  - ensemble: base_seed + num_seeds must be at most 2^64, since seeds run up "
        f"to base_seed + num_seeds - 1; got {override or base_seed} + {num_seeds}"]
    assert not (tmp_path / "out").exists()


def test_the_last_seed_below_2_to_the_64_runs(tmp_path, capsys):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.update(backend="oracle", ensemble={"base_seed": 2 ** 64 - 3, "num_seeds": 3})
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["num_seeds"] == 3


@pytest.mark.parametrize("dt_proj", [0.15, 0.25])
def test_dt_proj_not_a_whole_number_of_steps_exits_with_config_code(tmp_path, capsys,
                                                                  dt_proj):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["schedule"].update(dt=0.1, mode="periodic", dt_proj=dt_proj)
    path = tmp_path / "stride.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "scenario: dt_proj" in err and "not a whole number of dt" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backend", ["oracle", "phase"])
@pytest.mark.parametrize("block, key, message", [
    ("hamiltonian", "omega", "hamiltonian: symbol values must be finite"),
    ("initial_state", "x0", "initial_state: coherent-state centre must be finite")])
def test_nan_preset_parameter_exits_with_config_code(tmp_path, capsys, backend,
                                                     block, key, message):
    # json reads NaN; on the phase backend a NaN omega raised a traceback
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg["backend"] = backend
    cfg[block].setdefault("params", {})[key] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and message in err
    assert "Traceback" not in err


def test_dof2_cuts_not_one_list_per_dof_exit_with_config_code(tmp_path, capsys):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.update(grid={"dof": 2, "points": 32, "x_extent": 8.0},
               hamiltonian={"preset": "von-neumann-coupling"},
               initial_state={"preset": "coherent",
                              "params": {"x0": [0.0, -2.0], "p0": [0.0, 0.0]}})
    path = tmp_path / "dof2.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "one list of cuts per dof, such as [[], [0.0]]" in err
    assert "Traceback" not in err


def test_snapshots_on_an_unequal_dof2_grid_exit_with_config_code(tmp_path, capsys):
    # the grid dump carries one point count, so the run would fail at its end
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.update(grid={"dof": 2, "points": [40, 32], "x_extent": [9.0, 8.0]},
               hamiltonian={"preset": "von-neumann-coupling",
                            "params": {"v": 0.01, "w": 2.0}},
               initial_state={"preset": "coherent",
                              "params": {"x0": [0.0, -2.0], "p0": [0.0, 0.0]}},
               partition={"x_boundaries": [[], [0.0]]},
               schedule={"dt": 0.05, "t_final": 0.1, "mode": "single-shot"})
    cfg["output"]["snapshot_stride"] = 1
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "snapshot_stride > 0 needs equal point counts per dof" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, key, value", [
    ("ensemble", "num_seeds", "ten"), ("ensemble", "num_seeds", None),
    ("schedule", "dt", "0.01"), ("schedule", "dt_proj", "0.1"),
    ("schedule", "t_final", "x"), ("schedule", "dt", -0.01)])
def test_malformed_number_exits_with_config_code(tmp_path, capsys, block, key, value):
    cfg = json.loads(_write_config(tmp_path).read_text())
    cfg.setdefault(block, {})[key] = value
    if key == "dt_proj":
        cfg["schedule"]["mode"] = "periodic"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and f"{key} must be" in err


def test_verbose_shows_info_records(tmp_path):
    logger = logging.getLogger("osqm")
    try:
        assert cli.main(["run", str(_write_config(tmp_path)),
                         "--verbose"]) == cli.EXIT_OK
        assert logger.level == logging.INFO
        assert logging.getLogger("osqm.transitions").isEnabledFor(logging.INFO)
    finally:
        logger.setLevel(logging.NOTSET)
