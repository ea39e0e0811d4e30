"""Maximum and bulk-chasing marking strategy tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenadapt.estimator import EstimatorReport
from eigenadapt.marking import mark_doerfler, mark_max


def _report(eta):
    eta = np.asarray(eta, dtype=np.float64)
    return EstimatorReport(
        kind="pointwise", eta=eta, elem_part=eta.copy(),
        jump_part=np.zeros_like(eta), eta_max=float(eta.max()),
        eta_l2=float(np.sqrt(np.sum(eta * eta))))


def test_max_threshold_worked_example():
    ms = mark_max(_report([4.0, 2.0, 1.0, 0.5]), 0.5)
    np.testing.assert_array_equal(ms.elements, [0, 1])


def test_max_theta_one_marks_argmax_set():
    ms = mark_max(_report([1.0, 3.0, 3.0, 2.0]), 1.0)
    np.testing.assert_array_equal(ms.elements, [1, 2])


def test_max_all_equal_marks_everything():
    for theta in (0.1, 0.5, 1.0):
        ms = mark_max(_report([2.0, 2.0, 2.0]), theta)
        np.testing.assert_array_equal(ms.elements, [0, 1, 2])


def test_max_never_empty_on_positive_input():
    assert len(mark_max(_report([1e-30, 5.0]), 1.0)) == 1


def test_theta_validation():
    rep = _report([1.0, 2.0])
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            mark_max(rep, bad)
        with pytest.raises(ValueError):
            mark_doerfler(rep, bad)
    with pytest.raises(ValueError):
        mark_doerfler(rep, 0.5, bulk="cubed")


def test_all_zero_reports_mark_nothing():
    rep = _report([0.0, 0.0, 0.0])
    assert len(mark_max(rep, 0.5)) == 0
    assert len(mark_doerfler(rep, 0.5)) == 0


def test_doerfler_worked_example():
    # theta^2 * (9 + 16) = 16, met by the eta=4 element alone
    ms = mark_doerfler(_report([3.0, 4.0]), 0.8)
    np.testing.assert_array_equal(ms.elements, [1])


def test_doerfler_flat_distribution():
    ms = mark_doerfler(_report([1.0, 1.0, 1.0, 1.0]), 0.5)
    assert len(ms) == 1


def test_doerfler_theta_one_takes_positive_prefix():
    ms = mark_doerfler(_report([2.0, 0.0, 1.0]), 1.0)
    np.testing.assert_array_equal(ms.elements, [0, 2])


def test_doerfler_tie_break_by_index():
    ms = mark_doerfler(_report([2.0, 3.0, 3.0, 2.0]), 0.6)
    # ties resolved toward the lower element index
    assert ms.elements[0] == 1


def test_doerfler_value_bulk_broader_on_flat_input():
    rep = _report([1.0, 1.0, 1.0, 1.0])
    sq = mark_doerfler(rep, 0.5, bulk="squared")
    val = mark_doerfler(rep, 0.5, bulk="value")
    assert len(sq) == 1
    assert len(val) == 2
    assert set(sq.elements) <= set(val.elements)


@pytest.mark.parametrize("bulk", ["squared", "value"])
def test_doerfler_independent_of_eta_scale(bulk):
    eta = np.array([4.0, 3.0, 2.0, 1.0, 0.5])
    base = mark_doerfler(_report(eta), 0.5, bulk=bulk).elements
    assert len(base) >= 1
    for s in (1e-170, 1e160):
        with np.errstate(over="ignore"):  # the report's eta_l2 overflows
            rep = _report(eta * s)
        np.testing.assert_array_equal(
            mark_doerfler(rep, 0.5, bulk=bulk).elements, base)


etas = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(etas, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_max_monotone_in_theta(eta, t1, t2):
    rep = _report(eta)
    lo, hi = min(t1, t2), max(t1, t2)
    wide = set(mark_max(rep, lo).elements)
    narrow = set(mark_max(rep, hi).elements)
    assert narrow <= wide
    if rep.eta_max > 0.0:
        assert len(narrow) >= 1


@settings(max_examples=200, deadline=None)
@given(etas, st.floats(0.01, 1.0), st.sampled_from(["squared", "value"]))
# eta^2 underflows here, so raw squared masses give a zero target
@example(eta=[3.8176439498489916e-162], theta=0.25, bulk="squared")
def test_doerfler_bulk_and_minimality(eta, theta, bulk):
    rep = _report(eta)
    ms = mark_doerfler(rep, theta, bulk=bulk)
    vals = rep.eta
    if vals.max() == 0.0:
        assert len(ms) == 0
        return
    x = vals / vals.max()
    mass = x ** 2 if bulk == "squared" else x
    frac = theta ** 2 if bulk == "squared" else theta
    total = float(mass.sum())
    got = float(mass[ms.elements].sum())
    target = frac * total
    assert got >= target - 1e-9 * total
    # dropping the smallest marked member must break the bulk inequality
    # (unless that member carries zero mass, where the greedy prefix ends)
    smallest = ms.elements[np.argmin(vals[ms.elements])]
    rest = got - float(mass[smallest])
    if mass[smallest] > 0.0:
        assert rest < target + 1e-9 * total


@settings(max_examples=100, deadline=None)
@given(etas, st.floats(0.01, 1.0))
def test_doerfler_deterministic(eta, theta):
    rep = _report(eta)
    a = mark_doerfler(rep, theta)
    b = mark_doerfler(rep, theta)
    np.testing.assert_array_equal(a.elements, b.elements)
