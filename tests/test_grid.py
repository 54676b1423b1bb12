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
