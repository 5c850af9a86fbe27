"""Touching-point solver.

When a maximally monotone operator M and a linear map Q with
<y, Qy> <= -lam ||y||^2 share a graph point, that point (d, e) with
e = Q d and e in M d is unique; the forward-backward iteration

    y_next = F(y) = J_{gamma M}((I + gamma Q) y)

contracts to d.  The resolvent J is nonexpansive, so F has the Lipschitz
factor of its linear part, the step norm

    rho(gamma) = ||I + gamma Q||,
    rho(gamma)^2 = max_{||y|| = 1} 1 + 2 gamma <y, Qy> + gamma^2 ||Qy||^2,

the top eigenvalue of I + gamma (Q + Q^T) + gamma^2 Q^T Q.  Each term of
the maximum is a convex quadratic in gamma, so rho^2 is convex and the steps
with rho(gamma) < 1 form an interval, the certified interval.  With
lam = -max_sym_eigenvalue(Q), the largest constant for which the gate holds,
and beta = ||Q||, every term is at most 1 - 2 gamma lam + gamma^2 beta^2, so
the interval contains (0, 2 lam / beta^2) and rho(lam / beta^2) is at most
sqrt(1 - lam^2 / beta^2).  Taking y on top of sym(Q) gives
rho(gamma) >= |1 - gamma lam|.  The default step minimises rho by a golden
section search within rho(lam / beta^2) / lam of 1 / lam, and keeps
lam / beta^2 unless the search clearly beats it.  That step is already the
minimiser where every eigenvalue of sym(Q) is -lam: on Q = -lam I, where
rho = 0 and one step is exact, and on the generalized cycle's normal Q,
where rho = cos(pi/N).  On a non-normal Q the minimiser can lie well outside
(0, 2 lam / beta^2) and contract much faster.

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
from .hilbert import (
    BlockCirculant,
    as_operator,
    as_vector,
    invert,
    max_sym_eigenvalue,
    operator_norm,
)
from .monotone import certified_lambda

# Symmetric eigen-solves the default-step search spends, counting the one at
# lam / beta^2; the other 15 shrink the search interval about 500-fold.
_STEP_SEARCH_SOLVES = 16
# rho^2 a searched step must save over lam / beta^2 to replace it.
_STEP_GAIN = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class TouchResult:
    """Touching pair and solve diagnostics.

    ``d`` is the domain coordinate, ``e`` the common operator value
    (e = Q d, e in M d).  ``graph_residual`` is the M-inclusion residual
    ||F(d) - d|| = ||J_{gamma M}(d + gamma e) - d||, from one extra
    resolvent call, and ``error_bound`` = graph_residual / (1 - rho)
    bounds the distance from ``d`` to the exact touching point.  ``rho`` is
    the contraction factor ||I + gamma Q|| at ``gamma``.  ``step_norms``
    records ||y_next - y|| per iteration.
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


def _squared_step_norm(q):
    # gamma -> rho(gamma)^2, the top eigenvalue of I + gamma (Q + Q^T) + gamma^2 Q^T Q;
    # a circulant is normal, so that is max_k |1 + gamma s_k|^2 over its spectrum
    if isinstance(q, BlockCirculant):
        re, mod2 = q.spectrum.real, np.abs(q.spectrum) ** 2
        return lambda g: float(np.max(1.0 + 2.0 * g * re + g * g * mod2))
    eye, sym2, gram = np.eye(q.shape[0]), q + q.T, q.T @ q
    return lambda g: float(np.linalg.eigvalsh(eye + g * sym2 + g * g * gram)[-1])


def _step_norm(q, gamma):
    # rho(gamma) = ||I + gamma Q||, the Lipschitz factor of F; J_{gamma M}
    # needs a finite gamma > 0, so any other step certifies nothing
    if not (math.isfinite(gamma) and gamma > 0.0):
        return math.inf
    if isinstance(q, BlockCirculant):
        # clamped at 0 so that rounding keeps rho = 0 where I + gamma Q vanishes
        return math.sqrt(max(0.0, _squared_step_norm(q)(gamma)))
    return float(np.linalg.norm(np.eye(q.shape[0]) + gamma * q, 2))


def _default_step(q, lam):
    # The step that minimises rho(gamma), for lam = -max_sym_eigenvalue(Q) > 0.
    # rho^2 is a maximum of convex quadratics in gamma, hence convex, and
    # rho(gamma) >= |1 - gamma lam| (take y on top of sym(Q)), so a step that
    # beats gamma0 = lam / beta^2 lies within rho(gamma0) / lam of 1 / lam.
    # Golden section there; gamma0 stays unless clearly beaten.
    gamma0 = lam / operator_norm(q) ** 2
    square = _squared_step_norm(q)
    best = square(gamma0)
    radius = math.sqrt(max(0.0, best)) / lam
    lo, hi = 1.0 / lam - radius, 1.0 / lam + radius
    a, b = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fa, fb = square(a), square(b)
    for _ in range(_STEP_SEARCH_SOLVES - 3):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - _INVPHI * (hi - lo)
            fa = square(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INVPHI * (hi - lo)
            fb = square(b)
    gamma, value = (a, fa) if fa <= fb else (b, fb)
    return gamma if value < best - _STEP_GAIN else gamma0


def _error_bound(residual, rho):
    # ||d - d*|| <= ||F(d) - d|| / (1 - rho); a gamma outside the certified
    # interval (possible in a caller-built result) gives rho >= 1 and no bound
    return residual / (1.0 - rho) if rho < 1.0 else math.inf


def _certificate(oracle, q, d, gamma=None):
    # ||F(d) - d|| and its error bound, at touch's default step unless given
    if gamma is None:
        gamma = _default_step(q, -max_sym_eigenvalue(q))
    residual = _inclusion_residual(oracle, gamma, d, q @ d)
    return residual, _error_bound(residual, _step_norm(q, gamma))


def _pass_threshold(x):
    return 1e-6 * max(1.0, float(np.linalg.norm(x)))


def touch(oracle, q, lam, tol=1e-10, max_iter=100000, gamma="auto", start=None):
    """Find the touching point of the monotone oracle and the linear map ``q``.

    ``lam`` only gates: the quadratic-form gate <y, Qy> <= -lam ||y||^2 is
    checked spectrally.  The step and its contraction factor
    rho = ||I + gamma Q|| come from Q itself: ``gamma="auto"`` is the step
    that minimises rho, and a given ``gamma`` must lie in the certified
    interval {gamma > 0 : rho(gamma) < 1}, which contains
    (0, 2 lam / beta^2) for lam = -max_sym_eigenvalue(Q); ValueError names
    rho(gamma) otherwise.  Stops once the error bound of the new iterate,
    rho ||y_next - y|| / (1 - rho), is within tol * max(1, ||y_next||), and
    certifies the answer with ``error_bound``; hitting the cap, or a
    non-finite step, raises ConvergenceError with the last step norm.
    """
    q = as_operator(q, square=True)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )
    if int(max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    lam = certified_lambda(q, lam)
    gamma = _default_step(q, lam) if gamma == "auto" else float(gamma)
    rho = _step_norm(q, gamma)
    if not rho < 1.0:
        raise ValueError(
            f"gamma {gamma:.6e} is outside the certified interval "
            f"{{gamma > 0 : rho(gamma) = ||I + gamma Q|| < 1}}: rho(gamma) = {rho:.6e}"
        )

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
    unique touching point.  The factor rho = ||I + gamma Q|| is derived
    afresh from ``q``, not read from the result; a gamma outside the
    certified interval gives rho >= 1 and an infinite bound.  Passes iff both stay within 1e-6 * max(1, ||d||).
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
