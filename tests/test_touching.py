"""Touching-point solver: small frozen problems and the solver contracts."""

import math

import numpy as np
import pytest

from montouch import (
    Box,
    ConvergenceError,
    Indicator,
    LinearMonotoneOracle,
    PreconditionError,
    ResolventOracle,
    SingularOperatorError,
    SubdifferentialOracle,
    fixed_point,
    operator_norm,
    touch,
    verify_touch,
)
from helpers import random_gate_matrix, random_monotone_matrix, random_touch_instance


class ShiftedAbsOracle(ResolventOracle):
    """Subdifferential of |. - 2| on the line, via the shifted soft threshold."""

    dim = 1

    def resolvent(self, lam, x):
        v = float(np.asarray(x, dtype=float)[0]) - 2.0
        return np.array([math.copysign(max(abs(v) - lam, 0.0), v) + 2.0])


def shifted_abs_subgradient(y):
    """The set boundary values of the subdifferential of |. - 2| at y."""
    if y < 2.0:
        return (-1.0, -1.0)
    if y > 2.0:
        return (1.0, 1.0)
    return (-1.0, 1.0)


def test_grid_oracle_for_shifted_abs_touching_point():
    # independent check that -y in subdiff |y - 2| only at y = 1
    best = None
    for y in np.linspace(-5.0, 5.0, 100001):
        lo, hi = shifted_abs_subgradient(y)
        dist = max(lo - (-y), (-y) - hi, 0.0)
        if best is None or dist < best[1]:
            best = (y, dist)
    assert best[0] == pytest.approx(1.0, abs=1e-4)
    assert best[1] <= 1e-4


def test_touch_shifted_abs():
    res = touch(ShiftedAbsOracle(), [[-1.0]], 0.5)
    assert res.d == pytest.approx(1.0, abs=1e-9)
    assert res.e == pytest.approx(-1.0, abs=1e-9)
    assert res.mu == pytest.approx(0.25)
    assert res.graph_residual <= 1e-9


def test_touch_normal_cone_of_interval():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    res = touch(oracle, [[-1.0]], 0.5)
    assert res.d == pytest.approx(2.0, abs=1e-9)
    assert res.e == pytest.approx(-2.0, abs=1e-9)


def test_touch_graph_residual_invariant():
    rng = np.random.default_rng(83)
    for _ in range(10):
        dim = int(rng.integers(1, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
        res = touch(oracle, q, 0.5)
        assert np.linalg.norm(res.e - q @ res.d) <= 1e-9 * max(1.0, np.linalg.norm(res.d))
        assert res.graph_residual <= 1e-8 * max(1.0, np.linalg.norm(res.d))


def test_touch_independent_of_start():
    rng = np.random.default_rng(89)
    q = random_gate_matrix(rng, 4, lam=0.5)
    oracle = SubdifferentialOracle(Indicator(Box([-1.0] * 4, [1.0] * 4)))
    base = touch(oracle, q, 0.5)
    for _ in range(5):
        other = touch(oracle, q, 0.5, start=3.0 * rng.normal(size=4))
        assert np.linalg.norm(other.d - base.d) <= 1e-8


def test_touch_gate_failure():
    with pytest.raises(PreconditionError):
        touch(ShiftedAbsOracle(), [[-1.0]], 2.0)


def test_touch_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        touch(ShiftedAbsOracle(), -np.eye(2), 0.5)


def test_touch_rejects_bad_gamma():
    # mu = 1/4 and beta = 1, so the certified interval is (0, 2 mu / beta^2) = (0, 0.5)
    for gamma in (0.0, 0.5):
        with pytest.raises(ValueError, match="certified interval"):
            touch(ShiftedAbsOracle(), [[-1.0]], 0.5, gamma=gamma)
    res = touch(ShiftedAbsOracle(), [[-1.0]], 0.5, gamma=0.3)
    assert res.d == pytest.approx(1.0, abs=1e-9)


def test_touch_iteration_cap():
    with pytest.raises(ConvergenceError) as info:
        touch(ShiftedAbsOracle(), [[-1.0]], 0.5, max_iter=2, tol=1e-14)
    assert info.value.iterations == 2
    assert math.isfinite(info.value.residual)


def test_touch_raises_on_non_finite_iterate():
    class ConstantOracle(ResolventOracle):
        dim = 1

        def __init__(self, value):
            self.value = value

        def resolvent(self, lam, x):
            return np.array([self.value])

    for value in (math.inf, math.nan):
        with pytest.raises(ConvergenceError, match="non-finite") as info:
            touch(ConstantOracle(value), [[-1.0]], 0.5)
        assert info.value.iterations == 1


def test_touch_error_bound_covers_true_error():
    # the true error of a loose solve can far exceed its raw residual; the
    # certified bound ||F(d) - d|| / (1 - rho) must still cover it
    rng = np.random.default_rng(7)
    for _ in range(100):
        oracle, q = random_touch_instance(rng)
        loose = touch(oracle, q, 0.5, tol=1e-4)
        tight = touch(oracle, q, 0.5, tol=1e-13)
        gap = float(np.linalg.norm(loose.d - tight.d))
        assert gap <= loose.error_bound + tight.error_bound


def test_touch_contraction_bound_linear_instances():
    rng = np.random.default_rng(97)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
        res = touch(oracle, q, 0.5, start=rng.normal(size=dim))
        beta = operator_norm(q)
        bound = math.sqrt(1.0 - 2.0 * res.gamma * res.mu + res.gamma**2 * beta**2)
        steps = res.step_norms
        for a, b in zip(steps, steps[1:]):
            if a > 1e-12 and b > 1e-12:
                assert b / a <= bound + 0.05


def test_fixed_point_shifted_abs():
    res = fixed_point(ShiftedAbsOracle(), [[-1.0]], 0.5)
    assert res.e == pytest.approx(-1.0, abs=1e-9)  # the fixed point of M o T
    assert res.d == pytest.approx(1.0, abs=1e-9)   # d = T e


def test_fixed_point_gate_failure():
    with pytest.raises(PreconditionError):
        fixed_point(ShiftedAbsOracle(), [[1.0]], 0.5)


def test_fixed_point_singular_map():
    # T = 0 passes the quadratic gate but is not invertible
    with pytest.raises(SingularOperatorError):
        fixed_point(ShiftedAbsOracle(), [[0.0]], 0.5)


def test_verify_touch_passes_on_correct_result():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    q = np.array([[-1.0]])
    res = touch(oracle, q, 0.5)
    report = verify_touch(oracle, q, res)
    assert report.passed
    assert report.residuals["error_bound"] <= report.thresholds["error_bound"]
    assert report.residuals["error_bound"] == pytest.approx(res.error_bound)


def test_verify_touch_makes_one_resolvent_call():
    class CountingOracle(ResolventOracle):
        def __init__(self, inner):
            self.inner = inner
            self.dim = inner.dim
            self.calls = 0

        def resolvent(self, lam, x):
            self.calls += 1
            return self.inner.resolvent(lam, x)

    rng = np.random.default_rng(101)
    q = random_gate_matrix(rng, 4, lam=0.5)
    oracle = CountingOracle(LinearMonotoneOracle(random_monotone_matrix(rng, 4)))
    res = touch(oracle, q, 0.5)
    oracle.calls = 0
    assert verify_touch(oracle, q, res).passed
    assert oracle.calls == 1


def test_verify_touch_flags_perturbed_result():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    q = np.array([[-1.0]])
    res = touch(oracle, q, 0.5)
    res.e = res.e + 1e-3
    report = verify_touch(oracle, q, res)
    assert not report.passed
    assert report.residuals["graph_residual"] == pytest.approx(1e-3, rel=0.2)
    # a step at the end of the certified interval (0, 0.5) certifies nothing
    res = touch(oracle, q, 0.5)
    res.gamma = 0.5
    report = verify_touch(oracle, q, res)
    assert not report.passed
    assert report.residuals["error_bound"] == math.inf


def test_verify_touch_rejects_mismatched_dimensions():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    res = touch(oracle, np.array([[-1.0]]), 0.5)
    with pytest.raises(ValueError):
        verify_touch(oracle, -np.eye(2), res)
