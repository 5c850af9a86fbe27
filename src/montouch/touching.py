"""Touching-point solver.

When a maximally monotone operator M and a linear map Q with
<y, Qy> <= -lam ||y||^2 share a graph point, that point (d, e) with
e = Q d and e in M d is unique; the forward-backward iteration

    y_next = J_{gamma M}(y + gamma Q y)

contracts to d.  With mu = lam / (1 + ||Q||^2) and beta = ||Q||, any
gamma in (0, 2 mu / beta^2) gives the contraction factor
sqrt(1 - 2 gamma mu + gamma^2 beta^2); the default is gamma = mu / beta^2.

``fixed_point`` solves the composed problem y in M(T y) for an invertible
T by handing Q = T^{-1} to ``touch``; ``verify_touch`` replays the solve
from random starts to confirm the point is the only one found.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .hilbert import as_operator, as_vector, invert, max_sym_eigenvalue, operator_norm
from .monotone import SPECTRAL_SLACK, modulus_from_lambda


@dataclass
class TouchResult:
    """Touching pair and solve diagnostics.

    ``d`` is the domain coordinate, ``e`` the common operator value
    (e = Q d, e in M d).  ``graph_residual`` is the M-inclusion residual
    ||J_{gamma M}(d + gamma e) - d||, from one extra resolvent call.
    ``step_norms`` records ||y_next - y|| per iteration.
    """

    d: np.ndarray
    e: np.ndarray
    graph_residual: float
    iterations: int
    gamma: float
    mu: float
    step_norms: list = field(default_factory=list, repr=False)


@dataclass
class VerificationReport:
    """Named residuals with their pass thresholds and an overall verdict."""

    residuals: dict
    thresholds: dict
    passed: bool
    details: dict = field(default_factory=dict)


def _inclusion_residual(oracle, gamma, d, e):
    # e in M d  iff  J_{gamma M}(d + gamma e) == d
    back = oracle.resolvent(gamma, d + gamma * e)
    return float(np.linalg.norm(back - d))


def touch(oracle, q, lam, tol=1e-10, max_iter=100000, gamma="auto", start=None):
    """Find the touching point of the monotone oracle and the linear map ``q``.

    Requires the quadratic-form gate <y, Qy> <= -lam ||y||^2 (checked
    spectrally) and a step ``gamma`` in the certified interval
    (0, 2 mu / beta^2); ValueError names the interval otherwise.  Stops
    once ||y_next - y|| <= tol * max(1, ||y||); hitting the cap raises
    ConvergenceError with the last step norm.
    """
    q = as_operator(q, square=True)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )
    mu = modulus_from_lambda(q, lam)
    beta = operator_norm(q)
    limit = 2.0 * mu / beta**2
    if gamma == "auto":
        gamma = mu / beta**2
    gamma = float(gamma)
    if not 0.0 < gamma < limit:
        raise ValueError(
            f"gamma {gamma:.6e} is outside the certified interval (0, {limit:.6e})"
        )

    y = np.zeros(oracle.dim) if start is None else as_vector(start, dim=oracle.dim)
    step_norms = []
    for it in range(1, int(max_iter) + 1):
        y_next = oracle.resolvent(gamma, y + gamma * (q @ y))
        step = float(np.linalg.norm(y_next - y))
        step_norms.append(step)
        y = y_next
        if step <= tol * max(1.0, float(np.linalg.norm(y))):
            d = y
            e = q @ d
            residual = _inclusion_residual(oracle, gamma, d, e)
            return TouchResult(
                d=d, e=e, graph_residual=residual, iterations=it,
                gamma=gamma, mu=mu, step_norms=step_norms,
            )
    raise ConvergenceError(
        f"touch did not converge within {max_iter} iterations "
        f"(last step {step_norms[-1]:.3e}, gamma {gamma:.3e})",
        residual=step_norms[-1],
        iterations=int(max_iter),
    )


def fixed_point(oracle, t, lam, tol=1e-10, max_iter=100000):
    """Unique fixed point of M o T for invertible T with
    <x, Tx> + lam ||Tx||^2 <= 0.

    The hypothesis is checked spectrally (sym(T) + lam T^T T nonpositive);
    the returned TouchResult has e = the fixed point and d = T e.
    """
    t = as_operator(t, square=True)
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    gate = max_sym_eigenvalue(0.5 * (t + t.T) + lam * (t.T @ t)) if t.shape[0] else 0.0
    if gate > SPECTRAL_SLACK:
        raise PreconditionError(
            f"<x, Tx> + lam ||Tx||^2 <= 0 fails: largest eigenvalue of the "
            f"witness form is {gate:.6e}"
        )
    q = invert(t)
    return touch(oracle, q, lam, tol=tol, max_iter=max_iter)


def _sample_ball(rng, dim, radius):
    u = rng.normal(size=dim)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / norm) * u


def verify_touch(oracle, q, result, restarts=5, tol=1e-10, max_iter=100000, seed=0):
    """Replay ``touch`` from random starts and check the result is stable.

    Reruns the solve ``restarts`` times from points sampled in the ball of
    radius max(1, ||Q||), then reports the maximum pairwise deviation of
    the recovered d's (the given result included) and the graph residual
    of the given result.  Passes iff both stay within
    1e-6 * max(1, ||d||) and every restart converged; a restart that
    fails to converge is recorded, not raised.
    """
    q = as_operator(q, square=True)
    d = as_vector(result.d, dim=oracle.dim)
    e = as_vector(result.e, dim=oracle.dim)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )

    # the modulus determines lam through mu = lam / (1 + ||Q||^2)
    lam = result.mu * (1.0 + operator_norm(q) ** 2)
    graph_residual = float(np.linalg.norm(e - q @ d)) + _inclusion_residual(
        oracle, result.gamma, d, e
    )

    rng = np.random.default_rng(seed)
    radius = max(1.0, operator_norm(q))
    points = [d]
    failures = []
    for k in range(int(restarts)):
        start = _sample_ball(rng, oracle.dim, radius)
        try:
            rerun = touch(oracle, q, lam, tol=tol, max_iter=max_iter, start=start)
        except ConvergenceError as err:
            failures.append({"restart": k, "residual": err.residual})
            continue
        points.append(rerun.d)

    deviation = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            deviation = max(deviation, float(np.linalg.norm(points[i] - points[j])))

    scale = max(1.0, float(np.linalg.norm(d)))
    thresholds = {
        "max_deviation": 1e-6 * scale,
        "graph_residual": 1e-6 * scale,
    }
    residuals = {"max_deviation": deviation, "graph_residual": graph_residual}
    passed = (
        deviation <= thresholds["max_deviation"]
        and graph_residual <= thresholds["graph_residual"]
        and not failures
    )
    return VerificationReport(
        residuals=residuals,
        thresholds=thresholds,
        passed=passed,
        details={"restarts": int(restarts), "failed_restarts": failures},
    )
