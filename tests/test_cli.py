import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osqm
from osqm import cli
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
