import pytest

from osqm.acceptance import CRITERIA, Tolerances


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion_passes(criterion):
    result = criterion(Tolerances())
    assert result.passed, result.line()
