import copy

import pytest

from osqm.config import ConfigError, parse_config

BASE = {
    "grid": {"points": 64, "x_extent": 9.0},
    "hamiltonian": {"preset": "oscillator"},
    "initial_state": {"preset": "coherent", "params": {"x0": -2.0, "p0": 0.0}},
    "partition": {"x_boundaries": [0.0]},
    "schedule": {"dt": 0.01, "dt_proj": 0.1, "t_final": 1.0, "mode": "periodic"},
    "ensemble": {"num_seeds": 4, "base_seed": 0},
}
_DELETE = object()


def _with(**changes):
    """BASE with dotted keys (block__key) set, or removed with _DELETE."""
    cfg = copy.deepcopy(BASE)
    for dotted, value in changes.items():
        *blocks, key = dotted.split("__")
        target = cfg
        for b in blocks:
            target = target[b]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    return cfg


def test_valid_config_parses():
    cfg = parse_config(BASE)
    assert cfg.schedule["dt"] == 0.01 and cfg.ensemble["num_seeds"] == 4


# BASE on a dof-2 grid, with BASE's dof-1 partition x_boundaries [0.0]
DOF2 = {"grid__dof": 2, "grid__points": 32, "grid__x_extent": 8.0,
        "hamiltonian__preset": "von-neumann-coupling",
        "initial_state__params": {"x0": [0.0, -2.0], "p0": [0.0, 0.0]}}

# a single phase run with snapshots on a dof-2 grid of unequal point counts
UNEQUAL_SNAPSHOTS = {
    "grid__dof": 2, "grid__points": [40, 32], "grid__x_extent": [9.0, 8.0],
    "hamiltonian__preset": "von-neumann-coupling",
    "hamiltonian__params": {"v": 0.01, "w": 2.0},
    "initial_state__params": {"x0": [0.0, -2.0], "p0": [0.0, 0.0]},
    "partition__x_boundaries": [[], [0.0]],
    "schedule": {"dt": 0.05, "t_final": 0.1, "mode": "single-shot"},
    "ensemble__num_seeds": 1, "backend": "phase", "output": {"snapshot_stride": 1}}

# one case per ConfigError branch of parse_config
CASES = {
    "unknown top-level key": (_with(extra=1), "unknown top-level keys"),
    "missing block": (_with(grid=_DELETE), "missing required block 'grid'"),
    "block not an object": (_with(schedule=3), "schedule: expected an object"),
    "unknown block key": (_with(schedule__bogus=1), "schedule: unknown keys ['bogus']"),
    "hamiltonian preset": (_with(hamiltonian__preset="rotor"),
                           "hamiltonian: unknown preset 'rotor'"),
    "state preset": (_with(initial_state__preset="squeezed"),
                     "initial_state: unknown preset 'squeezed'"),
    "backend": (_with(backend="gpu"), "backend: 'gpu' not in"),
    "projection mode": (_with(projection_mode="soft"), "projection_mode: 'soft' not in"),
    "exact projection on the phase backend": (
        _with(backend="phase", projection_mode="exact"),
        "projection_mode: backend 'phase' cannot run projection_mode 'exact'"),
    "schedule mode": (_with(schedule__mode="sometimes"), "schedule: unknown mode"),
    "dt not a number": (_with(schedule__dt="0.01"), "schedule: dt must be a number"),
    "t_final not a number": (_with(schedule__t_final="x"),
                             "schedule: t_final must be a number"),
    "dt_proj not a number": (_with(schedule__dt_proj="0.1"),
                             "schedule: dt_proj must be a number"),
    "dt not positive": (_with(schedule__dt=-0.01), "schedule: dt must be > 0"),
    "t_final negative": (_with(schedule__t_final=-1.0), "schedule: t_final must be >= 0"),
    "periodic without dt_proj": (_with(schedule__dt_proj=_DELETE),
                                 "schedule: periodic mode needs dt_proj"),
    "dt_proj below dt": (_with(schedule__dt_proj=0.001), "schedule: dt_proj must be >= dt"),
    "num_seeds a word": (_with(ensemble__num_seeds="ten"),
                         "ensemble: num_seeds must be an integer >= 1"),
    "num_seeds null": (_with(ensemble__num_seeds=None),
                       "ensemble: num_seeds must be an integer >= 1"),
    "num_seeds zero": (_with(ensemble__num_seeds=0),
                       "ensemble: num_seeds must be an integer >= 1"),
    "base_seed negative": (_with(ensemble__base_seed=-1),
                           "ensemble: base_seed must be an integer >= 0"),
    "base_seed not an integer": (_with(ensemble__base_seed=1.5),
                                 "ensemble: base_seed must be an integer >= 0"),
    "seeds past 2^64": (_with(ensemble__base_seed=2 ** 64 - 3),
                        "ensemble: base_seed + num_seeds must be at most 2^64"),
    "num_seeds past 2^32": (_with(ensemble__num_seeds=2 ** 32 + 1),
                            "ensemble: num_seeds must be at most 2^32"),
    "snapshot_stride a word": (_with(output={"snapshot_stride": "x"}),
                               "output: snapshot_stride must be an integer >= 0"),
    "out_dir a number": (_with(output={"out_dir": 5}), "output: out_dir must be a string"),
    "grid build": (_with(grid__points=15), "grid: points must be even"),
    "partition build": (_with(partition__x_boundaries=[20.0]), "partition: "),
    "dof-2 cuts not one list per dof": (
        _with(**DOF2),
        "partition: x_boundaries on a 2-dof grid must be one list of cuts per dof, "
        "such as [[], [0.0]]"),
    "hamiltonian build": (_with(hamiltonian__params={"spin": 1}),
                          "hamiltonian: unknown parameters"),
    "hamiltonian param a word": (_with(hamiltonian__params={"omega": "fast"}),
                                 "hamiltonian: "),
    "state build": (_with(initial_state__params={"x0": 0.0, "q": 1}),
                    "initial_state: unknown parameters"),
    "snapshots on an unequal dof-2 grid": (
        _with(**UNEQUAL_SNAPSHOTS),
        "output: snapshot_stride > 0 needs equal point counts per dof"),
}


@pytest.mark.parametrize("case", CASES)
def test_config_error_branch(case):
    raw, message = CASES[case]
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert len(info.value.errors) == 1
    assert info.value.errors[0].startswith(message)


def test_dof2_partition_may_leave_out_p_boundaries():
    cfg = parse_config(_with(**DOF2, partition__x_boundaries=[[], [0.0]]))
    assert len(cfg.build_partition(cfg.build_grid()).regions) == 2


def test_every_error_is_reported_at_once():
    with pytest.raises(ConfigError) as info:
        parse_config(_with(schedule__dt="0.01", ensemble__num_seeds=None, backend="gpu"))
    assert len(info.value.errors) == 3


def test_unequal_dof2_grid_without_snapshots_parses():
    cfg = parse_config(_with(**{**UNEQUAL_SNAPSHOTS, "output": {"snapshot_stride": 0}}))
    assert cfg.build_grid().points == (40, 32)
