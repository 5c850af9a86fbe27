"""Touching-point solver: small frozen problems and the solver contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    max_sym_eigenvalue,
    operator_norm,
    touch,
    verify_touch,
)
from helpers import (
    gate_matrix_with_norm,
    random_gate_matrix,
    random_monotone_matrix,
    random_prox_function,
    random_touch_instance,
)


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
    # Q = -I: lam = beta = 1, so gamma = 1 and rho = 0 even though the gate
    # is only asked for lam = 1/2
    assert res.gamma == 1.0
    assert res.rho == 0.0
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
    # Q = -I: rho(gamma) = ||I + gamma Q|| = |1 - gamma|, so the certified
    # interval {gamma > 0 : rho(gamma) < 1} is (0, 2), whatever gate constant
    # the caller passes
    rule = r"certified interval \{gamma > 0 : rho\(gamma\) = \|\|I \+ gamma Q\|\| < 1\}"
    for gamma, rho in ((0.0, r"inf"), (2.0, r"1\.0+e\+00"), (-0.5, r"inf"),
                       (math.inf, r"inf"), (math.nan, r"inf")):
        with pytest.raises(ValueError, match=rule + r": rho\(gamma\) = " + rho):
            touch(ShiftedAbsOracle(), [[-1.0]], 0.5, gamma=gamma)
    for gamma in (0.3, 1.9):
        res = touch(ShiftedAbsOracle(), [[-1.0]], 0.5, gamma=gamma)
        assert res.d == pytest.approx(1.0, abs=1e-9)
        assert res.rho == pytest.approx(abs(1.0 - gamma))


def test_touch_iteration_cap():
    # the automatic step solves Q = -I in one exact step, so the cap is shown
    # at gamma = 0.5 (rho = 1/2)
    with pytest.raises(ConvergenceError) as info:
        touch(ShiftedAbsOracle(), [[-1.0]], 0.5, max_iter=2, tol=1e-14, gamma=0.5)
    assert info.value.iterations == 2
    assert math.isfinite(info.value.residual)
    with pytest.raises(ValueError, match="max_iter"):
        touch(ShiftedAbsOracle(), [[-1.0]], 0.5, max_iter=0)


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


def test_touch_stops_within_its_error_bound():
    # touch stops on rho step / (1 - rho) <= tol max(1, ||y||), which bounds
    # ||F(d) - d|| / (1 - rho) for an exact resolvent: the certified bound at
    # the stop must meet tol itself, also where rho is close to 1
    rng = np.random.default_rng(7)
    instances = [random_touch_instance(rng) for _ in range(100)]
    rng = np.random.default_rng(31)
    for _ in range(12):
        dim = int(rng.integers(4, 25))
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
        instances.append((oracle, gate_matrix_with_norm(rng, dim, lam=0.5, norm=3.0)))
    for tol in (1e-6, 1e-10):
        for oracle, q in instances:
            res = touch(oracle, q, 0.5, tol=tol)
            assert res.error_bound <= tol * max(1.0, float(np.linalg.norm(res.d)))


@settings(deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.05, 0.95))
def test_any_certified_gamma_converges(seed, fraction):
    # any step in the certified interval (0, 2 lam / beta^2) contracts; the
    # fraction stays off the ends, where rho -> 1 and the solve never ends
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    q = random_gate_matrix(rng, dim, lam=0.5)
    if rng.integers(2):
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
    else:
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
    limit = 2.0 * -max_sym_eigenvalue(q) / operator_norm(q) ** 2
    res = touch(oracle, q, 0.5, tol=1e-8, gamma=fraction * limit)
    tight = touch(oracle, q, 0.5, tol=1e-12)
    assert res.rho < 1.0
    assert res.error_bound <= 1e-8 * max(1.0, float(np.linalg.norm(res.d)))
    assert np.linalg.norm(res.d - tight.d) <= res.error_bound + tight.error_bound


@settings(deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.01, 4.0))
def test_step_norm_gates_and_certifies(seed, gamma):
    # on a dense, generally non-normal Q the default step minimises
    # rho = ||I + gamma Q||, so it does no worse than lam / beta^2, whose
    # rho the bound sqrt(1 - lam^2 / beta^2) covers; a given step is
    # accepted iff rho(gamma) < 1, and then converges within its bound
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))  # in R^1 every gate matrix is -lam
    q = gate_matrix_with_norm(rng, dim, lam=0.5, norm=float(rng.uniform(0.6, 4.0)))
    if rng.integers(2):
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
    else:
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
    beta = operator_norm(q)
    gamma0 = 0.5 / beta**2
    rho0 = float(np.linalg.norm(np.eye(dim) + gamma0 * q, 2))
    assert rho0 <= math.sqrt(1.0 - 0.25 / beta**2) + 1e-12
    tight = touch(oracle, q, 0.5, tol=1e-12)
    assert tight.rho <= rho0 + 1e-12
    rho = float(np.linalg.norm(np.eye(dim) + gamma * q, 2))
    if rho >= 1.0:
        with pytest.raises(ValueError, match="certified interval"):
            touch(oracle, q, 0.5, gamma=gamma)
    elif rho <= 0.95:
        res = touch(oracle, q, 0.5, tol=1e-8, gamma=gamma)
        assert res.rho == pytest.approx(rho, abs=1e-12)
        assert res.error_bound <= 1e-8 * max(1.0, float(np.linalg.norm(res.d)))
        assert np.linalg.norm(res.d - tight.d) <= res.error_bound + tight.error_bound


def test_touch_contraction_bound_linear_instances():
    rng = np.random.default_rng(97)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
        start = rng.normal(size=dim)
        beta = operator_norm(q)
        # random_gate_matrix puts the top symmetric eigenvalue of Q at -1/2
        gamma0 = 0.5 / beta**2
        bound0 = math.sqrt(1.0 - 2.0 * gamma0 * 0.5 + gamma0**2 * beta**2)
        # the default step against its factor ||I + gamma Q||, then the step
        # lam / beta^2 against the bound, which that factor never exceeds
        auto = touch(oracle, q, 0.5, start=start)
        plain = touch(oracle, q, 0.5, gamma=gamma0, start=start)
        assert auto.rho <= plain.rho + 1e-12
        for res, bound in ((auto, auto.rho), (plain, bound0)):
            rho = float(np.linalg.norm(np.eye(dim) + res.gamma * q, 2))
            assert res.rho == pytest.approx(rho, abs=1e-12)
            assert res.rho <= bound + 1e-12
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
    # a step at the end of the certified interval (0, 2) certifies nothing,
    # whatever factor the result itself carries
    res = touch(oracle, q, 0.5)
    res.gamma = 2.0
    res.rho = 0.0
    report = verify_touch(oracle, q, res)
    assert not report.passed
    assert report.residuals["error_bound"] == math.inf


def test_verify_touch_rejects_mismatched_dimensions():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    res = touch(oracle, np.array([[-1.0]]), 0.5)
    with pytest.raises(ValueError):
        verify_touch(oracle, -np.eye(2), res)
