import time

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


def test_criterion_seconds_fit_in_the_wall_time_of_the_call():
    # a monotonic timer: no criterion reads negative, none outlasts the call
    start = time.perf_counter()
    results, _ = run_regression_suite(only=[1, 2, 3], echo=None)
    wall = time.perf_counter() - start
    assert [r.cid for r in results] == [1, 2, 3]
    assert all(r.seconds >= 0 for r in results)
    assert sum(r.seconds for r in results) <= wall


def test_ps6_gate_has_one_source():
    assert Tolerances().ps6_tol == PS6_TOL
