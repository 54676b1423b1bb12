import numpy as np
import pytest

from osqm.grid import PhaseGrid
from osqm.io import read_grid_dump, write_grid_dump


@pytest.mark.parametrize("hbar", [1.0, 0.5])
@pytest.mark.parametrize("points, x_extents", [((32,), (9.0,)), ((16, 16), (4.0, 6.0))],
                         ids=["dof1", "dof2"])
def test_grid_dump_round_trip(tmp_path, points, x_extents, hbar):
    grid = PhaseGrid(dof=len(points), points=points, x_extents=x_extents, hbar=hbar)
    values = np.random.default_rng(3).standard_normal(grid.phase_shape)
    path = tmp_path / "field.osqm"
    write_grid_dump(path, grid, values)
    got_grid, got = read_grid_dump(path)
    assert got_grid == grid
    assert np.array_equal(got, values)


def test_grid_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "field.osqm"
    write_grid_dump(path, PhaseGrid.create(16, 4.0), np.zeros((16, 16)))
    path.write_bytes(b"OSQX" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_grid_dump(path)
