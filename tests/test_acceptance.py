import pytest

from osqm.acceptance import CRITERIA, Tolerances, run_regression_suite
from osqm.regions import PS6_TOL


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion_passes(criterion):
    result = criterion(Tolerances())
    assert result.passed, result.line()


def test_suite_times_each_criterion():
    results, ok = run_regression_suite(only=[2], echo=None)
    assert ok and [r.cid for r in results] == [2]
    assert results[0].seconds > 0


def test_ps6_gate_has_one_source():
    assert Tolerances().ps6_tol == PS6_TOL
