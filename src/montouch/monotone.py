"""Resolvent oracles for maximally monotone operators.

Three oracle kinds are provided: subdifferentials of proximable functions,
monotone linear maps, and subdifferentials of a proximable function
restricted to a subspace, in ambient coordinates (resolved by Dykstra's
scheme inside ``SubspaceRestrictedOracle.resolvent``).
The module also certifies strong anti-monotonicity of a linear map
(``is_mu_unmonotone``), checks the quadratic-form gate the touching solver
needs (``certified_lambda``) and converts that gate into the
anti-monotonicity modulus of the paper's hypothesis
(``modulus_from_lambda``).  Each gate reads one spectrum of
``hilbert.form_eigenvalues``: the certificate its top at (mu, 1/2, mu), the
lam gate and the linear oracle both ends of sym(Q) at (0, 1/2, 0), and
||Q||^2 is its top at (0, 0, 1).  Each validates Q once and builds one form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convex import ProxFunction
from .errors import ConvergenceError, PreconditionError
from .hilbert import (BlockCirculant, as_operator, as_positive, as_vector,
                      form_eigenvalues, scaled_tol)

# Each spectral gate forgives the larger of a floor (SPECTRAL_SLACK * max(1, lam),
# SPECTRAL_SLACK or UNMONOTONE_SLACK) and ROUNDING_SLACK times a bound on the norm
# of the matrix whose eigenvalue it reads, about 10x that eigenvalue's rounding.
SPECTRAL_SLACK = 1e-12
UNMONOTONE_SLACK = 1e-11
ROUNDING_SLACK = 1e-14

SUM_PROX_TOL = 1e-11
SUM_PROX_MAX_ITER = 200000


@dataclass(frozen=True)
class UnmonotoneCertificate:
    """Spectral witness for <y, Qy> + mu (||y||^2 + ||Qy||^2) <= 0.

    ``max_eig`` is the largest eigenvalue of sym(Q) + mu (I + Q^T Q); the
    certificate holds iff it is nonpositive, up to the larger of UNMONOTONE_SLACK
    and ROUNDING_SLACK (||Q|| + mu (1 + ||Q||^2)), a bound on that matrix's norm.
    """

    mu: float
    max_eig: float
    operator_norm: float

    @property
    def valid(self):
        size = self.operator_norm + self.mu * (1.0 + self.operator_norm ** 2)
        return self.max_eig <= max(UNMONOTONE_SLACK, ROUNDING_SLACK * size)


def is_mu_unmonotone(q, mu):
    """Check strong anti-monotonicity of the linear map ``q`` at modulus ``mu``.

    Returns (holds, certificate).  For a linear graph the defining
    inequality over all graph pairs reduces to the matrix inequality
    sym(Q) + mu (I + Q^T Q) <= 0, checked by its largest eigenvalue.
    """
    m = as_operator(q, square=True)
    mu = as_positive(mu, "mu")
    form = form_eigenvalues(m)
    cert = UnmonotoneCertificate(mu=mu, max_eig=float(form(mu, 0.5, mu).max()),
                                 operator_norm=math.sqrt(form(0.0, 0.0, 1.0).max()))
    return cert.valid, cert


def certified_lambda(q, lam):
    """Check the quadratic-form gate <y, Qy> <= -lam ||y||^2 and return the
    largest constant for which it holds, minus the top eigenvalue of sym(Q).

    ``lam`` only gates: the check is spectral (the top eigenvalue of sym(Q)
    is at most -lam, up to the larger of SPECTRAL_SLACK max(1, lam) and
    ROUNDING_SLACK times the largest |eigenvalue| of sym(Q), and below 0 in
    any case), and PreconditionError reports the offending eigenvalue.
    """
    m = as_operator(q, square=True)
    lam = as_positive(lam, "lam")
    return _lam_gate(form_eigenvalues(m), lam)


def _lam_gate(form, lam):
    # certified_lambda on Q's built form_eigenvalues and a checked lam, so
    # that touch shares one form between this gate and its step search
    eigs = form(0.0, 0.5, 0.0)
    low, top = float(eigs.min()), float(eigs.max())
    # the slack forgives rounding, never a top eigenvalue >= 0
    slack = max(scaled_tol(SPECTRAL_SLACK, lam), ROUNDING_SLACK * max(-low, top))
    if top > -lam + slack or top >= 0.0:
        raise PreconditionError(
            f"<y, Qy> <= -lam ||y||^2 fails: largest symmetric eigenvalue "
            f"{top:.6e} exceeds {-lam:.6e}"
        )
    return -top


def modulus_from_lambda(q, lam):
    """Anti-monotonicity modulus lam / (1 + ||Q||^2) for a map satisfying
    <y, Qy> <= -lam ||y||^2, which ``certified_lambda`` checks."""
    m = as_operator(q, square=True)
    lam = as_positive(lam, "lam")
    form = form_eigenvalues(m)
    _lam_gate(form, lam)
    return lam / (1.0 + float(form(0.0, 0.0, 1.0).max()))


class ResolventOracle:
    """Maximally monotone operator exposed through its resolvents.

    ``resolvent(lam, x)`` evaluates (I + lam M)^{-1} x for lam > 0; it is
    single valued and firmly nonexpansive.
    """

    dim = 0

    def resolvent(self, lam, x):
        raise NotImplementedError


class SubdifferentialOracle(ResolventOracle):
    """M = subdifferential of a proximable convex function."""

    def __init__(self, fn):
        if not isinstance(fn, ProxFunction):
            raise TypeError("expected a ProxFunction")
        self.fn = fn
        self.dim = fn.ambient_dim

    def resolvent(self, lam, x):
        return self.fn.prox(lam, x)


class LinearMonotoneOracle(ResolventOracle):
    """M x = A x for a dense matrix with positive semidefinite symmetric part
    (a ``BlockCirculant`` is refused: its resolvent would need a dense solve)."""

    def __init__(self, matrix):
        if isinstance(matrix, BlockCirculant):
            raise ValueError("LinearMonotoneOracle takes a dense matrix, not a BlockCirculant")
        a = as_operator(matrix, square=True)
        eigs = form_eigenvalues(a)(0.0, 0.5, 0.0)  # eigs[0] is the smallest
        if eigs[0] < -max(SPECTRAL_SLACK, ROUNDING_SLACK * max(-eigs[0], eigs[-1])):
            raise ValueError(
                f"matrix is not monotone: smallest symmetric eigenvalue {eigs[0]:.6e}"
            )
        self.matrix = a
        self.dim = a.shape[0]

    def resolvent(self, lam, x):
        lam = as_positive(lam, "step")
        v = as_vector(x, dim=self.dim)
        return np.linalg.solve(np.eye(self.dim) + lam * self.matrix, v)


class SubspaceRestrictedOracle(ResolventOracle):
    """M = subdifferential of (fn + indicator of a subspace), in the ambient
    coordinates of ``fn``; the subspace needs only ``ambient_dim`` and
    ``project``.  The pair is checked once, here."""

    def __init__(self, fn, subspace):
        if not isinstance(fn, ProxFunction):
            raise TypeError("expected a ProxFunction")
        if fn.ambient_dim != subspace.ambient_dim:
            raise ValueError("function and subspace dimensions differ")
        self.fn = fn
        self.subspace = subspace
        self.dim = subspace.ambient_dim

    def resolvent(self, lam, x):
        """argmin_{z in subspace} fn(z) + ||z - x||^2 / (2 lam), by Dykstra's
        scheme on kernels: ``lam`` and ``x`` are checked once, then each step
        runs ``fn._prox`` and the subspace's projection, which needs no
        correction term (for a linear V it stays in V^perp, where P_V
        vanishes).  Stops once the change of z and the gap between the
        half-steps are within SUM_PROX_TOL max(1, ||z||).  A non-finite step
        raises ValueError; SUM_PROX_MAX_ITER steps (dom fn may not meet the
        subspace) raise ConvergenceError with the last residual."""
        lam = as_positive(lam, "step")
        z = as_vector(x, dim=self.dim)
        p = np.zeros_like(z)
        residual = math.inf
        for _ in range(SUM_PROX_MAX_ITER):
            y = self.fn._prox(lam, z + p)
            p = z + p - y
            z_next = self.subspace.project(y)
            moved, gap = z_next - z, y - z_next
            moved, gap = math.sqrt(moved.dot(moved)), math.sqrt(gap.dot(gap))
            # finite norms are below 1.4e154, so the sum is finite iff both are
            if not math.isfinite(moved + gap):
                raise ValueError(
                    f"prox at step {lam:.3e} is not finite: an intermediate overflowed")
            residual = max(moved, gap)
            z = z_next
            if residual <= scaled_tol(SUM_PROX_TOL, math.sqrt(z.dot(z))):
                return z
        raise ConvergenceError(
            f"the restricted resolvent did not converge within {SUM_PROX_MAX_ITER} Dykstra steps "
            f"(residual {residual:.3e}); the function domain may not meet the subspace",
            residual=residual,
            iterations=SUM_PROX_MAX_ITER,
        )


def minty_point(oracle, mu):
    """The unique y with 0 in mu y + M y, namely (I + M/mu)^{-1} 0."""
    return oracle.resolvent(1.0 / as_positive(mu, "mu"), np.zeros(oracle.dim))
