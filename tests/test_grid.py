import dataclasses

import numpy as np
import pytest

from osqm.grid import PhaseGrid


def test_cached_spacings_leave_equality_hash_and_frozenness_alone():
    used = PhaseGrid.create(64, 9.0)
    assert used.dx == (18.0 / 64,) and used.dp == (2 * np.pi / 18.0,)
    fresh = PhaseGrid.create(64, 9.0)
    assert used == fresh and hash(used) == hash(fresh)
    assert used != PhaseGrid.create(64, 8.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.hbar = 2.0


@pytest.mark.parametrize("kwargs, message", [
    (dict(dof=3, points=(16, 16, 16), x_extents=(1.0, 1.0, 1.0)), "dof must be 1 or 2"),
    (dict(dof=2, points=(16, 16), x_extents=(1.0,)), "one point count and one extent"),
    (dict(dof=1, points=(17,), x_extents=(1.0,)), "even and >= 16"),
    (dict(dof=1, points=(14,), x_extents=(1.0,)), "even and >= 16"),
    (dict(dof=1, points=(16,), x_extents=(1.0,), hbar=0.0), "must be positive"),
    (dict(dof=1, points=(16,), x_extents=(-1.0,)), "must be positive"),
])
def test_invalid_grids_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PhaseGrid(**kwargs)


@pytest.mark.parametrize("grid", [
    PhaseGrid.create(64, 9.0),
    PhaseGrid.product(PhaseGrid.create(32, 7.0), PhaseGrid.create(24, 6.0)),
], ids=["dof1", "dof2"])
def test_dx_volume_is_the_product_of_dx(grid):
    product = 1.0
    for d in grid.dx:
        product *= d
    assert grid.dx_volume == product
