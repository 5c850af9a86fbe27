"""Touching-point solver.

When a maximally monotone operator M and a linear map Q with
<y, Qy> <= -lam ||y||^2 share a graph point, that point (d, e) with
e = Q d and e in M d is unique; the forward-backward iteration

    y_next = F(y) = J_{gamma M}((I + gamma Q) y)

contracts to d.  The resolvent J is nonexpansive, so F has the Lipschitz
factor of its linear part, the step norm

    rho(gamma) = ||I + gamma Q||,
    rho(gamma)^2 = max_{||y|| = 1} 1 + 2 gamma <y, Qy> + gamma^2 ||Qy||^2,

the top eigenvalue of I + gamma (Q + Q^T) + gamma^2 Q^T Q, which
``hilbert.form_eigenvalues`` gives at (1, gamma, gamma^2).  With lam
minus the top eigenvalue of sym(Q) and beta = ||Q||, whose square is the
same form's top at (0, 0, 1), every term of the maximum is at most
1 - 2 gamma lam + gamma^2 beta^2, so rho(lam / beta^2) is at most
sqrt(1 - lam^2 / beta^2); taking y on top of sym(Q) gives
rho(gamma) >= |1 - gamma lam|, so no step contracts when lam <= 0.  The
step, like rho, comes from Q alone, by a cutting-plane search (Kelley
1960) with exact quadratic cuts: for every unit y,

    f_y(gamma) = 1 + 2 gamma <y, Qy> + gamma^2 ||Qy||^2 <= rho(gamma)^2,

with equality at gamma when y is a top eigenvector of the form there.  So
a probe, one eigen-solve for rho^2 and one shifted solve for its top
vector, adds a cut that touches rho^2 at the probe; the cuts' maximum lies
below rho^2, and its minimum over the bracket below, in closed form, is
the next probe and a certified lower bound on the best rho^2.  The search
starts at gamma0 = lam / beta^2 and stops once its best rho^2 is within
_STEP_GAP (1 - rho^2) of that bound or after _STEP_SEARCH_SOLVES probes.
Two lower bounds on rho bracket every step that beats gamma0:
rho(gamma) <= rho0 = rho(gamma0) needs

    rho0 >= |1 - gamma lam|  (y on top of sym(Q)), so gamma >= (1 - rho0) / lam,
    rho0 >= gamma beta - 1   (reverse triangle),   so gamma <= (1 + rho0) / beta,

a bracket about beta / lam times narrower than 1 / lam +- rho0 / lam.
gamma0 is already the minimiser where every eigenvalue of sym(Q) is -lam:
on Q = -lam I, where rho = 0 and one step is exact, and on the generalized
cycle's normal Q, where rho = cos(pi/N); there gamma0's own cut has its
vertex at gamma0, and the search stops after that one probe.  On a
non-normal Q the minimiser can lie well outside (0, 2 lam / beta^2) and
contract much faster.

The contraction certifies any candidate d: since F(d*) = d*,

    ||d - d*|| <= ||F(d) - d|| + ||F(d) - F(d*)|| <= ||F(d) - d|| + rho ||d - d*||,

so ||d - d*|| <= ||F(d) - d|| / (1 - rho).  Each step of ``touch``,
y -> F(y), is also that certificate of y, so ``touch`` stops at the first
iterate whose bound ||F(y) - y|| / (1 - rho) is within tol max(1, ||y||)
and returns that y with that bound: no further resolvent call.  The bound
holds for any d, but it measures F through the oracle: an oracle that
solves an inner problem (the restricted resolvent's Dykstra loop stops on a
relative change of 1e-11) adds an error that the bound does not see, and an
oracle that stalls (ConvergenceError) stops ``touch`` with the steps it
completed and its last residual.  ``verify_touch`` and ``cycles.verify_identities`` recompute the
bound from Q at the same step.

``fixed_point`` solves y in M(T y) for an invertible T as ``touch`` on
Q = T^{-1}: substituting y = T x turns <x, Tx> + lam ||Tx||^2 <= 0 into
the gate <y, Qy> <= -lam ||y||^2 that ``touch`` checks.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .hilbert import (
    as_operator,
    as_positive,
    as_vector,
    form_eigenvalues,
    invert,
    scaled_tol,
)
from .monotone import _lam_gate

# A certificate passes within PASS_TOL max(1, ||d||).
PASS_TOL = 1e-6
# Most probes of the step search, each one symmetric eigen-solve and one
# shifted solve, counting the one at gamma0 = lam / beta^2; the others lie in
# the bracket [(1 - rho0) / lam, (1 + rho0) / beta], outside which
# |1 - gamma lam| or gamma beta - 1 already exceeds rho0 = rho(gamma0).
_STEP_SEARCH_SOLVES = 8
# The search stops once its best rho^2 is within _STEP_GAP (1 - rho^2) of the
# cuts' lower bound: 1 - rho is then within about _STEP_GAP (1 + rho) / (2 rho)
# of the optimum's, 0.5% where rho is near 1.
_STEP_GAP = 0.005


@dataclass
class TouchResult:
    """Touching pair and solve diagnostics.

    ``d`` is the domain coordinate, ``e`` the common operator value
    (e = Q d, e in M d).  ``graph_residual`` is the M-inclusion residual
    ||F(d) - d|| = ||J_{gamma M}(d + gamma e) - d||, measured by the last
    step the solve evaluated, and ``error_bound`` = graph_residual / (1 - rho)
    bounds the distance from ``d`` to the exact touching point.  ``rho`` is
    the contraction factor ||I + gamma Q|| at ``gamma``; ``iterations``
    counts the steps that produced ``d``, one fewer than the resolvent calls.
    """

    d: np.ndarray
    e: np.ndarray
    graph_residual: float
    error_bound: float
    iterations: int
    gamma: float
    rho: float


@dataclass
class VerificationReport:
    """Named residuals with their pass thresholds and an overall verdict."""

    residuals: dict
    thresholds: dict
    passed: bool


def _lowest_cut(cuts, lo, hi):
    # (g, m) with m = min over [lo, hi] of the cuts' maximum
    # max_i 1 + a_i g + b_i g^2, for the pairs (a_i, b_i) in ``cuts``; it is
    # attained at an end, at a vertex -a_i / (2 b_i) or where two cuts cross,
    # at g = (a_j - a_i) / (b_i - b_j), since all take the value 1 at g = 0
    points = [lo, hi]
    for i, (a, b) in enumerate(cuts):
        points.append(-a / (2.0 * b))
        points.extend((c - a) / (b - d) for c, d in cuts[:i] if d != b)
    lowest = math.inf, math.inf
    for g in points:
        g = min(max(g, lo), hi)
        value = max(1.0 + g * (a + g * b) for a, b in cuts)
        if value < lowest[1]:
            lowest = g, value
    return lowest


def _step(form, lam):
    # (gamma, rho(gamma)) at the step that minimises rho, for Q's
    # form_eigenvalues, lam = minus the top eigenvalue of sym(Q) and
    # beta = ||Q||, whose square is the form's top at (0, 0, 1).  No step
    # contracts (rho = inf) with lam <= 0; none is certified with a beta^2
    # below the smallest normal float, which has lost its bits and whose steps,
    # up to 2 / beta, square past the largest float in the form.
    # A step that beats gamma0 = lam / beta^2 has rho <= rho0 = rho(gamma0),
    # and rho is at least
    #   |1 - gamma lam|  (y on top of sym(Q)), so gamma >= (1 - rho0) / lam = lo,
    #   gamma beta - 1   (reverse triangle),   so gamma <= (1 + rho0) / beta = hi.
    # Each probe adds its top vector's cut (module docstring); the next probe
    # minimises the cuts' maximum on [lo, hi], a lower bound on rho^2 there.
    beta2 = float(form(0.0, 0.0, 1.0).max())
    if not (lam > 0.0 and beta2 >= sys.float_info.min):
        return math.nan, math.inf
    gamma0 = lam / beta2
    best, cut = form.top(gamma0)
    rho0 = math.sqrt(max(0.0, best))
    lo, hi = (1.0 - rho0) / lam, (1.0 + rho0) / math.sqrt(beta2)
    cuts, gamma, value = [cut], gamma0, best
    for _ in range(_STEP_SEARCH_SOLVES - 1):
        probe, floor = _lowest_cut(cuts, lo, hi)
        if value - floor <= _STEP_GAP * (1.0 - value):
            break
        found, cut = form.top(probe)
        cuts.append(cut)
        if found < value:
            gamma, value = probe, found
    # clamped at 0 so that rounding keeps rho = 0 where I + gamma Q vanishes
    return gamma, math.sqrt(max(0.0, value))


def _certificate(oracle, q, d):
    # ||F(d) - d|| and the bound ||F(d) - d|| / (1 - rho) on ||d - d*||, at
    # touch's step; where no step contracts (rho >= 1) nothing is certified
    form = form_eigenvalues(q)
    gamma, rho = _step(form, -float(form(0.0, 0.5, 0.0).max()))
    if not rho < 1.0:
        return math.inf, math.inf
    # e = Q d is in M d  iff  J_{gamma M}(d + gamma e) == d
    back = oracle.resolvent(gamma, d + gamma * (q @ d))
    residual = float(np.linalg.norm(back - d))
    return residual, residual / (1.0 - rho)


def touch(oracle, q, lam, tol=1e-10, max_iter=100000, start=None):
    """Find the touching point of the monotone oracle and the linear map ``q``.

    ``lam`` only gates: the quadratic-form gate <y, Qy> <= -lam ||y||^2 is
    checked spectrally.  The step gamma and its contraction factor
    rho = ||I + gamma Q|| come from Q alone: gamma minimises rho, and
    ValueError names rho where even that rounds to 1 (lam tiny against
    ||Q||), or names the underflow where ||Q||^2 is below the smallest
    normal float; a ``tol`` that is not positive and finite is a ValueError.
    Iterates y -> F(y) and returns the first y whose certificate
    ||F(y) - y|| / (1 - rho) is within tol * max(1, ||y||), with that
    certificate as ``error_bound``; hitting the cap, a non-finite step or a
    ConvergenceError of the oracle raises ConvergenceError with the steps
    completed and the last residual ||F(y) - y|| (NaN before the first).
    """
    q = as_operator(q, square=True)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )
    if int(max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    lam = as_positive(lam, "lam")
    tol = as_positive(tol, "tol")
    form = form_eigenvalues(q)
    gamma, rho = _step(form, _lam_gate(form, lam))
    if not rho < 1.0:
        # the gate has made lam > 0, so _step's rho = inf means ||Q||^2 underflows
        raise ValueError("no step contracts: " + (
            "||Q||^2 underflows" if rho == math.inf
            else f"the smallest rho = ||I + gamma Q|| is {rho:.6e}"))

    y = np.zeros(oracle.dim) if start is None else as_vector(start, dim=oracle.dim)
    residual = math.nan
    for it in range(int(max_iter) + 1):
        try:
            y_next = oracle.resolvent(gamma, y + gamma * (q @ y))
        except ConvergenceError as err:
            raise ConvergenceError(
                f"touch stalled in the resolvent after {it} iterations "
                f"(gamma {gamma:.3e}): {err}",
                residual=residual, iterations=it,
            ) from err
        diff = y_next - y
        residual = math.sqrt(diff.dot(diff))
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"touch produced a non-finite iterate at iteration {it + 1} "
                f"(gamma {gamma:.3e})",
                residual=residual,
                iterations=it + 1,
            )
        bound = residual / (1.0 - rho)
        if bound <= scaled_tol(tol, math.sqrt(y.dot(y))):
            return TouchResult(
                d=y, e=q @ y, graph_residual=residual, error_bound=bound,
                iterations=it, gamma=gamma, rho=rho,
            )
        y = y_next
    raise ConvergenceError(
        f"touch did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e}, gamma {gamma:.3e}, rho {rho:.6f})",
        residual=residual,
        iterations=int(max_iter),
    )


def fixed_point(oracle, t, lam, tol=1e-10, max_iter=100000):
    """Unique fixed point of M o T for invertible T with
    <x, Tx> + lam ||Tx||^2 <= 0.

    This is ``touch`` on Q = T^{-1}, whose gate <y, Qy> <= -lam ||y||^2 is
    the same hypothesis written in y = T x.  T is factored once: one SVD
    gives both the condition gate (a singular T raises
    SingularOperatorError) and T^{-1} (``hilbert.invert``).  The returned
    TouchResult has e = the fixed point and d = T e.
    """
    return touch(oracle, invert(t), lam, tol=tol, max_iter=max_iter)


def verify_touch(oracle, q, result):
    """Certify a touching result with one resolvent call.

    With F(d) = J_{gamma M}(d + gamma Q d) at ``touch``'s step, reports
    ``graph_residual`` = ||e - Q d|| + ||F(d) - d|| and ``error_bound`` =
    ||F(d) - d|| / (1 - rho), which bounds the distance from d to the
    unique touching point.  gamma and rho = ||I + gamma Q|| are derived
    from ``q``; the result's own ``gamma`` and ``rho`` are never read.  A q
    that no step contracts (the top eigenvalue of sym(Q) is >= 0, or ||Q||^2
    underflows) makes both residuals infinite.  Passes iff both stay within
    1e-6 * max(1, ||d||).
    """
    q = as_operator(q, square=True)
    d = as_vector(result.d, dim=oracle.dim)
    e = as_vector(result.e, dim=oracle.dim)
    if q.shape[0] != oracle.dim:
        raise ValueError(
            f"operator dimension {q.shape[0]} does not match oracle dimension {oracle.dim}"
        )

    fixed_residual, bound = _certificate(oracle, q, d)
    residuals = {
        "graph_residual": float(np.linalg.norm(e - q @ d)) + fixed_residual,
        "error_bound": bound,
    }
    threshold = scaled_tol(PASS_TOL, math.sqrt(d.dot(d)))
    thresholds = {name: threshold for name in residuals}
    return VerificationReport(
        residuals=residuals,
        thresholds=thresholds,
        passed=all(value <= threshold for value in residuals.values()),
    )
