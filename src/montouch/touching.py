"""Touching-point solver.

When a maximally monotone operator M and a linear map Q with
<y, Qy> <= -lam ||y||^2 share a graph point, that point (d, e) with
e = Q d and e in M d is unique; the forward-backward iteration

    y_next = F(y) = J_{gamma M}((I + gamma Q) y)

contracts to d.  The resolvent J is nonexpansive, and with beta = ||Q||

    ||(I + gamma Q) y||^2 = ||y||^2 + 2 gamma <y, Qy> + gamma^2 ||Qy||^2
                          <= (1 - 2 gamma lam + gamma^2 beta^2) ||y||^2,

so any gamma in the certified interval (0, 2 lam / beta^2) gives F the
contraction factor rho = sqrt(1 - 2 gamma lam + gamma^2 beta^2).  ``touch``
takes lam = -max_sym_eigenvalue(Q), the largest constant for which the gate
holds; the default step gamma = lam / beta^2 minimises rho, to
sqrt(1 - lam^2 / beta^2).  On Q = -lam I that is rho = 0 and one step is exact.

The contraction certifies any candidate d: since F(d*) = d*,

    ||d - d*|| <= ||F(d) - d|| + ||F(d) - F(d*)|| <= ||F(d) - d|| + rho ||d - d*||,

so ||d - d*|| <= ||F(d) - d|| / (1 - rho).  ``touch`` reports this bound
for its answer; ``verify_touch`` and ``cycles.verify_identities`` recompute it.
``touch`` also stops on it: after a step y -> y_next,
||F(y_next) - y_next|| <= rho ||y_next - y||, so it stops once
rho ||y_next - y|| / (1 - rho) <= tol max(1, ||y_next||), and its
``error_bound`` then stays within tol max(1, ||d||).  The bound assumes an
exact resolvent: an oracle that solves an inner problem (``sum_prox`` stops
on a change of 1e-11) adds its own error, which the bound does not see.

``fixed_point`` solves y in M(T y) for an invertible T as ``touch`` on
Q = T^{-1}: substituting y = T x turns <x, Tx> + lam ||Tx||^2 <= 0 into
the gate <y, Qy> <= -lam ||y||^2 that ``touch`` checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .hilbert import as_operator, as_vector, invert, max_sym_eigenvalue, operator_norm
from .monotone import certified_lambda


@dataclass
class TouchResult:
    """Touching pair and solve diagnostics.

    ``d`` is the domain coordinate, ``e`` the common operator value
    (e = Q d, e in M d).  ``graph_residual`` is the M-inclusion residual
    ||F(d) - d|| = ||J_{gamma M}(d + gamma e) - d||, from one extra
    resolvent call, and ``error_bound`` = graph_residual / (1 - rho)
    bounds the distance from ``d`` to the exact touching point.  ``rho`` is
    the certified contraction factor at ``gamma``.  ``step_norms`` records
    ||y_next - y|| per iteration.
    """

    d: np.ndarray
    e: np.ndarray
    graph_residual: float
    error_bound: float
    iterations: int
    gamma: float
    rho: float
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


def _contraction_factor(gamma, lam, beta):
    # rounding can push the square below 0 where it is exactly 0 (Q = -lam I
    # at gamma = lam / beta^2); lam <= 0 certifies nothing and gives rho >= 1
    return math.sqrt(max(0.0, 1.0 - 2.0 * gamma * lam + (gamma * beta) ** 2))


def _error_bound(residual, rho):
    # ||d - d*|| <= ||F(d) - d|| / (1 - rho); a gamma outside the certified
    # interval (possible in a caller-built result) gives rho >= 1 and no bound
    return residual / (1.0 - rho) if rho < 1.0 else math.inf


def _certificate(oracle, q, d, gamma=None):
    # ||F(d) - d|| and its error bound, lam and beta derived from q
    lam = -max_sym_eigenvalue(q)
    beta = operator_norm(q)
    gamma = lam / beta**2 if gamma is None else gamma  # touch's default step
    residual = _inclusion_residual(oracle, gamma, d, q @ d)
    return residual, _error_bound(residual, _contraction_factor(gamma, lam, beta))


def _pass_threshold(x):
    return 1e-6 * max(1.0, float(np.linalg.norm(x)))


def touch(oracle, q, lam, tol=1e-10, max_iter=100000, gamma="auto", start=None):
    """Find the touching point of the monotone oracle and the linear map ``q``.

    ``lam`` only gates: the quadratic-form gate <y, Qy> <= -lam ||y||^2 is
    checked spectrally, and the step and the contraction factor use the
    certified constant lam = -max_sym_eigenvalue(Q), which is at least the
    caller's lam up to slack.  ``gamma`` must lie in the certified interval
    (0, 2 lam / beta^2); ValueError names the interval otherwise.  Stops
    once the error bound of the new iterate, rho ||y_next - y|| / (1 - rho),
    is within tol * max(1, ||y_next||), and certifies the answer with
    ``error_bound``; hitting the cap, or a non-finite step, raises
    ConvergenceError with the last step norm.
    """
    q = as_operator(q, square=True)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )
    if int(max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    lam = certified_lambda(q, lam)
    beta = operator_norm(q)
    limit = 2.0 * lam / beta**2
    if gamma == "auto":
        gamma = lam / beta**2
    gamma = float(gamma)
    if not 0.0 < gamma < limit:
        raise ValueError(
            f"gamma {gamma:.6e} is outside the certified interval (0, {limit:.6e})"
        )
    rho = _contraction_factor(gamma, lam, beta)

    y = np.zeros(oracle.dim) if start is None else as_vector(start, dim=oracle.dim)
    step_norms = []
    for it in range(1, int(max_iter) + 1):
        y_next = oracle.resolvent(gamma, y + gamma * (q @ y))
        step = float(np.linalg.norm(y_next - y))
        step_norms.append(step)
        if not math.isfinite(step):
            raise ConvergenceError(
                f"touch produced a non-finite iterate at iteration {it} "
                f"(gamma {gamma:.3e})",
                residual=step,
                iterations=it,
            )
        y = y_next
        # rho step / (1 - rho) <= tol max(1, ||y||), without the division
        if rho * step <= (1.0 - rho) * tol * max(1.0, float(np.linalg.norm(y))):
            d = y
            e = q @ d
            residual = _inclusion_residual(oracle, gamma, d, e)
            return TouchResult(
                d=d, e=e, graph_residual=residual,
                error_bound=_error_bound(residual, rho),
                iterations=it, gamma=gamma, rho=rho, step_norms=step_norms,
            )
    raise ConvergenceError(
        f"touch did not converge within {max_iter} iterations "
        f"(last step {step_norms[-1]:.3e}, gamma {gamma:.3e}, rho {rho:.6f})",
        residual=step_norms[-1],
        iterations=int(max_iter),
    )


def fixed_point(oracle, t, lam, tol=1e-10, max_iter=100000):
    """Unique fixed point of M o T for invertible T with
    <x, Tx> + lam ||Tx||^2 <= 0.

    This is ``touch`` on Q = T^{-1}, whose gate <y, Qy> <= -lam ||y||^2 is
    the same hypothesis written in y = T x; a singular T raises
    SingularOperatorError.  The returned TouchResult has e = the fixed
    point and d = T e.
    """
    return touch(oracle, invert(t), lam, tol=tol, max_iter=max_iter)


def verify_touch(oracle, q, result):
    """Certify a touching result with one resolvent call.

    With F(d) = J_{gamma M}(d + gamma Q d) at the result's gamma, reports
    ``graph_residual`` = ||e - Q d|| + ||F(d) - d|| and ``error_bound`` =
    ||F(d) - d|| / (1 - rho), which bounds the distance from d to the
    unique touching point.  The factor rho is derived afresh from ``q``
    (lam = -max_sym_eigenvalue(Q), beta = ||Q||), not read from the result;
    a gamma outside the certified interval gives rho >= 1 and an infinite
    bound.  Passes iff both stay within 1e-6 * max(1, ||d||).
    """
    q = as_operator(q, square=True)
    d = as_vector(result.d, dim=oracle.dim)
    e = as_vector(result.e, dim=oracle.dim)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )

    fixed_residual, bound = _certificate(oracle, q, d, result.gamma)
    residuals = {
        "graph_residual": float(np.linalg.norm(e - q @ d)) + fixed_residual,
        "error_bound": bound,
    }
    threshold = _pass_threshold(d)
    thresholds = {name: threshold for name in residuals}
    return VerificationReport(
        residuals=residuals,
        thresholds=thresholds,
        passed=all(value <= threshold for value in residuals.values()),
    )
