"""Resolvent oracles, anti-monotonicity certificates, constrained prox."""

import math

import numpy as np
import pytest

import montouch
from montouch import (
    Ball,
    Box,
    ConvergenceError,
    Indicator,
    LinearMonotoneOracle,
    PreconditionError,
    ScaledSquare,
    SeparableSum,
    SubdifferentialOracle,
    SubspaceRestrictedOracle,
    Support,
    build_problem,
    is_mu_unmonotone,
    minty_point,
    modulus_from_lambda,
    orthonormal_range,
)
from montouch import monotone
from montouch.hilbert import BlockCirculant
from montouch.monotone import certified_lambda
from helpers import (dense, random_gate_matrix, random_monotone_matrix, random_prox_function,
                     top_sym_eigenvalue)

# the cycle operator Q = T^{-1} of tests/data/three_ball.json, a BlockCirculant
CYCLE_Q = build_problem([Ball([0.0, 0.0], 1.0), Ball([6.0, 0.0], 1.0),
                         Ball([3.0, 5.0], 1.0)]).q

DIAGONAL = orthonormal_range(np.array([[1.0], [1.0]]) @ np.array([[1.0, 1.0]]))
ANTIDIAGONAL = orthonormal_range(np.array([[1.0], [-1.0]]) @ np.array([[1.0, -1.0]]))


def zero_function(dim):
    return Indicator(Box([-math.inf] * dim, [math.inf] * dim))


# ------------------------------------------------------------ oracles

def test_subdifferential_resolvent_is_prox():
    oracle = SubdifferentialOracle(Indicator(Box([1.0], [2.0])))
    assert np.allclose(oracle.resolvent(1.0, [0.0]), [1.0])
    assert np.allclose(oracle.resolvent(0.3, [1.5]), [1.5])


def test_linear_monotone_resolvent():
    oracle = LinearMonotoneOracle(np.diag([1.0, 3.0]))
    assert np.allclose(oracle.resolvent(1.0, [2.0, 4.0]), [1.0, 1.0])


def test_linear_monotone_refuses_a_circulant():
    # -Q is monotone (sym = I/2), so the gate alone would pass it, but the
    # resolvent is a dense solve
    minus_q = BlockCirculant(-CYCLE_Q.spectrum, CYCLE_Q.block_dim)
    with pytest.raises(ValueError, match="not a BlockCirculant"):
        LinearMonotoneOracle(minus_q)


def test_linear_monotone_rejects_nonmonotone():
    with pytest.raises(ValueError):
        LinearMonotoneOracle(-np.eye(2))
    # the slack is rounding-sized (1e-8 here), so an eigenvalue of -1e-7 far
    # below the norm is not forgiven
    with pytest.raises(ValueError, match="not monotone"):
        LinearMonotoneOracle(np.diag([1e6, -1e-7]))
    # skew maps are monotone
    LinearMonotoneOracle(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_resolvents_firmly_nonexpansive_sampled():
    rng = np.random.default_rng(59)
    oracles = [
        SubdifferentialOracle(random_prox_function(rng, 3)),
        LinearMonotoneOracle(random_monotone_matrix(rng, 3)),
        SubspaceRestrictedOracle(
            SeparableSum((Support(Box([-1.0], [1.0])), ScaledSquare(1.0, 1))),
            DIAGONAL,
        ),
    ]
    for oracle in oracles:
        lam = 0.8
        for _ in range(50):
            x = 2.0 * rng.normal(size=oracle.dim)
            y = 2.0 * rng.normal(size=oracle.dim)
            jx = oracle.resolvent(lam, x)
            jy = oracle.resolvent(lam, y)
            lhs = float((jx - jy) @ (jx - jy))
            rhs = float((jx - jy) @ (x - y))
            assert lhs <= rhs + 1e-10


# -------------------------------------------------------- minty points

def test_minty_point_examples():
    assert np.allclose(minty_point(SubdifferentialOracle(Indicator(Box([1.0], [2.0]))), 1.0), [1.0])
    assert np.allclose(minty_point(SubdifferentialOracle(zero_function(2)), 0.3), [0.0, 0.0])
    assert np.allclose(minty_point(LinearMonotoneOracle(np.eye(3)), 2.0), np.zeros(3))


def test_minty_point_rejects_bad_mu():
    oracle = LinearMonotoneOracle(np.eye(2))
    with pytest.raises(ValueError):
        minty_point(oracle, 0.0)
    with pytest.raises(ValueError):
        minty_point(oracle, -1.0)


def test_minty_reconstruction_residual():
    # -mu y lies in M y, so a fresh unit-step resolvent must return y
    rng = np.random.default_rng(61)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
        for mu in (0.1, 1.0, 10.0):
            y = minty_point(oracle, mu)
            back = oracle.resolvent(1.0, y - mu * y)
            assert np.linalg.norm(back - y) <= 1e-8


# ----------------------------------------------- unmonotone certificates

def test_is_mu_unmonotone_frozen_values():
    holds, cert = is_mu_unmonotone(-np.eye(2), 0.5)
    assert holds and cert.max_eig == pytest.approx(0.0, abs=1e-12)
    holds, cert = is_mu_unmonotone(-np.eye(2), 0.6)
    assert not holds and cert.max_eig == pytest.approx(0.2, abs=1e-12)
    assert cert.operator_norm == pytest.approx(1.0, abs=1e-12)
    # mu-unmonotone only up to about 1e-8: at 1e-7 the witness eigenvalue
    # 9e-8 is far above the rounding slack of about 1e-10
    holds, cert = is_mu_unmonotone(np.diag([-1e4, -1e-8]), 1e-7)
    assert not holds and cert.max_eig == pytest.approx(9e-8, rel=1e-6)


def test_is_mu_unmonotone_certifies_the_cycle_operator():
    # closed form on the circulant: sym(Q) = -I/2, so the exact modulus is
    # 0.5 / (1 + ||Q||^2), which modulus_from_lambda gives
    mu = modulus_from_lambda(CYCLE_Q, 0.5)
    assert mu == 0.5 / (1.0 + np.abs(CYCLE_Q.spectrum).max() ** 2)
    holds, cert = is_mu_unmonotone(CYCLE_Q, mu)
    assert holds, cert
    holds, reference = is_mu_unmonotone(dense(CYCLE_Q), mu)
    assert holds and abs(cert.max_eig - reference.max_eig) <= 1e-12
    assert cert.operator_norm == pytest.approx(reference.operator_norm, rel=1e-12)
    holds, cert = is_mu_unmonotone(CYCLE_Q, mu * (1.0 + 1e-6))
    assert not holds, cert


def test_is_mu_unmonotone_rejects_bad_mu():
    with pytest.raises(ValueError):
        is_mu_unmonotone(-np.eye(2), 0.0)


def test_certificate_cross_checked_on_graph_pairs():
    # when the certificate holds, the defining inequality holds on samples
    rng = np.random.default_rng(67)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        mu = modulus_from_lambda(q, 0.5)
        holds, _ = is_mu_unmonotone(q, mu)
        assert holds
        for _ in range(50):
            y1 = 3.0 * rng.normal(size=dim)
            y2 = 3.0 * rng.normal(size=dim)
            dy = y1 - y2
            dq = q @ y1 - q @ y2
            value = float(dy @ dq) + mu * (float(dy @ dy) + float(dq @ dq))
            assert value <= 1e-9


def test_certificate_implies_shifted_monotonicity():
    # valid certificate at mu forces sym(Q) + mu I nonpositive
    rng = np.random.default_rng(71)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        mu = modulus_from_lambda(q, 0.5)
        holds, _ = is_mu_unmonotone(q, mu)
        assert holds
        assert top_sym_eigenvalue(q + mu * np.eye(dim)) <= 1e-11


def test_modulus_from_lambda_frozen_values():
    assert modulus_from_lambda(-np.eye(2), 1.0) == 0.5
    assert modulus_from_lambda(-2.0 * np.eye(3), 2.0) == pytest.approx(0.4, abs=1e-12)


def test_modulus_from_lambda_gate_failure():
    with pytest.raises(PreconditionError):
        modulus_from_lambda(-np.eye(2), 2.0)  # needs <y,Qy> <= -2||y||^2
    with pytest.raises(ValueError):
        modulus_from_lambda(-np.eye(2), 0.0)
    # lam below the gate's slack passes no Q whose top eigenvalue is >= 0
    with pytest.raises(PreconditionError, match="eigenvalue 0.000000e\\+00"):
        modulus_from_lambda([[0.0]], 1e-13)


def test_modulus_certifies_unmonotonicity():
    # mu from the gate always certifies; see the touching solver contract
    rng = np.random.default_rng(73)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        mu = modulus_from_lambda(q, 0.5)
        holds, cert = is_mu_unmonotone(q, mu)
        assert holds, cert


# ------------------------------------------------------------ scale

def _orthogonal(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)))[0]


@pytest.mark.parametrize("s", [1e3, 1e5])
def test_certified_lambda_gate_is_unit_free(s):
    # Q = s U (K - I/2) U^T with K skew has sym(Q) = -(s/2) I up to rounding,
    # which an absolute slack refused at lam = s/2 as s grew
    rng = np.random.default_rng(5)
    for _ in range(100):
        u, g = _orthogonal(rng, 8), rng.normal(size=(8, 8))
        q = s * u @ (g - g.T - 0.5 * np.eye(8)) @ u.T
        assert certified_lambda(q, s / 2) == pytest.approx(s / 2, rel=1e-12)
        with pytest.raises(PreconditionError):
            certified_lambda(q, s / 2 * (1.0 + 1e-6))


def test_certified_lambda_slack_is_sized_by_sym_q():
    # sym(Q) has eigenvalues -1e6 (x7) and -1, so lam = 1 is exact; the top
    # eigenvalue rounds by about 1e-10, which a slack of 1e-12 * max(1, lam)
    # alone refused in 41 of these 100 draws
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = _orthogonal(rng, 8)
        q = u @ np.diag([-1e6] * 7 + [-1.0]) @ u.T
        assert certified_lambda(q, 1.0) == pytest.approx(1.0, rel=1e-8)
        with pytest.raises(PreconditionError):
            certified_lambda(q, 1.0 + 1e-6)


@pytest.mark.parametrize("s", [1e3, 1e6])
def test_linear_monotone_gate_is_unit_free(s):
    # s G G^T is positive semidefinite and singular: its zero eigenvalues
    # round to about -1e-16 s, which an absolute slack refused
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = rng.normal(size=(6, 3))
        LinearMonotoneOracle(s * g @ g.T)
        with pytest.raises(ValueError, match="not monotone"):
            LinearMonotoneOracle(s * g @ g.T - 1e-6 * s * np.eye(6))


@pytest.mark.parametrize("s", [1e4, 1e6])
def test_unmonotone_certificate_is_unit_free(s):
    # Q = U (-s I) U^T is mu-unmonotone exactly up to mu = s / (1 + s^2)
    rng = np.random.default_rng(7)
    edge = s / (1.0 + s * s)
    for _ in range(100):
        u = _orthogonal(rng, 8)
        q = u @ (-s * np.eye(8)) @ u.T
        holds, cert = is_mu_unmonotone(q, edge)
        assert holds, cert
        holds, cert = is_mu_unmonotone(q, edge * (1.0 + 1e-6))
        assert not holds, cert


# ------------------------------------------- the restricted resolvent

def restricted_prox(fn, subspace, lam, v):
    """argmin_{z in subspace} fn(z) + ||z - v||^2 / (2 lam)."""
    return SubspaceRestrictedOracle(fn, subspace).resolvent(lam, v)


def test_sum_prox_box_meets_diagonal():
    fn = Indicator(Box([0.0, -math.inf], [2.0, math.inf]))
    out = restricted_prox(fn, DIAGONAL, 1.0, np.array([3.0, 3.0]))
    assert np.allclose(out, [2.0, 2.0], atol=1e-9)
    # step size does not matter for indicators
    out = restricted_prox(fn, DIAGONAL, 0.05, np.array([3.0, 3.0]))
    assert np.allclose(out, [2.0, 2.0], atol=1e-9)


def test_sum_prox_zero_function_projects():
    fn = zero_function(2)
    v = np.array([3.0, 1.0])
    out = restricted_prox(fn, DIAGONAL, 1.0, v)
    assert np.allclose(out, [2.0, 2.0], atol=1e-11)


def test_sum_prox_infeasible_raises(monkeypatch):
    # box [2,3]^2 never meets the antidiagonal line
    monkeypatch.setattr(monotone, "SUM_PROX_MAX_ITER", 2000)
    fn = Indicator(Box([2.0, 2.0], [3.0, 3.0]))
    with pytest.raises(ConvergenceError, match="within 2000 Dykstra steps") as info:
        restricted_prox(fn, ANTIDIAGONAL, 1.0, np.zeros(2))
    assert info.value.residual > 1e-3
    assert info.value.iterations == 2000


def test_sum_prox_rejects_bad_step():
    with pytest.raises(ValueError):
        restricted_prox(zero_function(2), DIAGONAL, 0.0, np.zeros(2))


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
def test_every_resolvent_rejects_bad_steps(lam):
    fn = SeparableSum((Support(Box([-1.0], [1.0])), Indicator(Box([0.0], [2.0]))))
    x = np.array([1.0, -0.5])
    calls = (
        lambda: LinearMonotoneOracle(np.diag([1.0, 3.0])).resolvent(lam, x),
        lambda: SubdifferentialOracle(fn).resolvent(lam, x),
        lambda: SubspaceRestrictedOracle(fn, DIAGONAL).resolvent(lam, x),
    )
    for call in calls:
        with pytest.raises(ValueError, match="step must be positive and finite"):
            call()


def test_sum_prox_optimality_sampled():
    rng = np.random.default_rng(79)
    for _ in range(15):
        fn = SeparableSum((
            Support(Box([-1.0 - rng.random()], [1.0 + rng.random()])),
            ScaledSquare(float(0.5 + rng.random()), 1),
        ))
        lam = float(10.0 ** rng.uniform(-0.5, 0.5))
        v = 3.0 * rng.normal(size=2)
        z = restricted_prox(fn, DIAGONAL, lam, v)
        fz = fn.value(z)
        for _ in range(50):
            w = DIAGONAL.basis @ (DIAGONAL.basis.T @ (z + rng.normal(size=2)))
            gap = float((v - z) @ (w - z)) - lam * (fn.value(w) - fz)
            assert gap <= 1e-8


def test_sum_prox_output_in_subspace():
    fn = SeparableSum((Support(Box([-1.0], [1.0])), Support(Box([-1.0], [1.0]))))
    z = restricted_prox(fn, DIAGONAL, 1.0, np.array([2.0, -1.0]))
    # z lies in the diagonal up to machine precision
    assert abs(z[0] - z[1]) <= 1e-12
    fn = SeparableSum((Support(Box([-1.0], [1.0])), Support(Box([-2.0], [2.0]))))
    oracle = SubspaceRestrictedOracle(fn, DIAGONAL)
    assert oracle.dim == 2
    # ambient coordinates: the value lies on the diagonal
    z = oracle.resolvent(0.7, np.array([3.0, -1.0]))
    assert abs(z[0] - z[1]) <= 1e-12


def test_restricted_resolvent_is_bitwise_public_dykstra():
    # the same steps through the public prox and np.linalg.norm
    def reference(fn, subspace, lam, v):
        x, p = np.array(v, dtype=float), np.zeros(len(v))
        while True:
            y = fn.prox(lam, x + p)
            p = x + p - y
            x_next = subspace.project(y)
            residual = max(np.linalg.norm(x_next - x), np.linalg.norm(y - x_next))
            x = x_next
            if residual <= 1e-11 * max(1.0, np.linalg.norm(x)):
                return x

    rng = np.random.default_rng(83)
    cycle = build_problem([Ball([0.0, 0.0], 1.0), Ball([6.0, 0.0], 1.0),
                           Ball([3.0, 5.0], 1.0)])
    cases = [(cycle.support_sum, cycle.range_space),
             (SeparableSum((Support(Box([-1.0], [1.0])), ScaledSquare(1.0, 1))), DIAGONAL)]
    for fn, subspace in cases:
        oracle = SubspaceRestrictedOracle(fn, subspace)
        for _ in range(10):
            lam, x = float(10.0 ** rng.uniform(-1, 1)), 4.0 * rng.normal(size=oracle.dim)
            assert oracle.resolvent(lam, x).tobytes() == reference(fn, subspace, lam, x).tobytes()


def test_sum_prox_is_gone():
    # the restricted oracle's resolvent is the one route to Dykstra's scheme
    assert not hasattr(montouch, "sum_prox") and "sum_prox" not in montouch.__all__
    assert not hasattr(monotone, "sum_prox")
