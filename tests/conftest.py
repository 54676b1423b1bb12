import os

# One BLAS/OpenMP thread unless the caller chose otherwise: on a 2-vCPU
# machine the default threading made the dense tests about 1.5x slower.
# Set before numpy is imported, since BLAS reads these once at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from osqm.grid import PhaseGrid


@pytest.fixture(scope="session")
def grid64():
    """Default 1-dof grid with enough margin for 1e-8 level checks."""
    return PhaseGrid.create(64, 9.0)


@pytest.fixture(scope="session")
def grid96():
    return PhaseGrid.create(96, 9.0)


@pytest.fixture(scope="session")
def grid32x24():
    """Unequal dof-2 product grid: a swapped axis pair changes the shapes."""
    return PhaseGrid.product(PhaseGrid.create(32, 7.0), PhaseGrid.create(24, 6.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
