"""Generalized cycles and gap vectors of a finite family of convex sets.

For N sets in R^m, work in the product space X = R^{Nm} with the block
cyclic shift R(x_1, ..., x_N) = (x_N, x_1, ..., x_{N-1}) and its
displacement S = R - I, block circulants applied by FFT.  Because R is an
isometry, <x, Sx> + 0.5 ||Sx||^2 = 0 for every x, so T = S - 2 (block mean),
which equals S on ran S = {x : x_1 + ... + x_N = 0} and is invertible,
satisfies exactly the quadratic gate the touching solver needs at lam = 1/2.
The generalized cycle e is the unique fixed point of (subdifferential of the
summed support functions restricted to ran S) composed with T, that is, the
unique e in ran S with e in dg(S e) for g = (summed support functions) +
(indicator of ran S); the generalized gap vector is d = S e.  When the sets
admit a classical projection cycle x, S x = S e ties the two notions
together.  With Q = T^{-1} the cycle is the touching point d = S e, e = Q d
of that subdifferential and Q (``touching_pair``), and ``generalized_cycle``
returns ``touch``'s ``TouchResult`` on that pair, certificate included.
``build_problem`` stores Q directly, as the reciprocal of T's spectrum.  Q is
a normal circulant with sym(Q) = -I/2 and ||Q|| = 1/(2 sin(pi/N)), so its
step norm is ||I + gamma Q||^2 = 1 - gamma + gamma^2 ||Q||^2, smallest at the
step 2 sin^2(pi/N), where rho = cos(pi/N).  ``verify_identities`` certifies
any e with the touching error bound alone, and ties a given classical cycle
to it by S x = S e.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSet, SeparableSum, Support
from .errors import DegenerateProblemError
from .hilbert import BlockCirculant, as_positive, as_vector, scaled_tol
from .monotone import SubspaceRestrictedOracle
from .touching import PASS_TOL, VerificationReport, _certificate, touch

# The gate constant of the cycle's Q = T^{-1}: sym(Q) = -I/2 exactly.
CYCLE_LAM = 0.5


class ZeroSumSubspace:
    """ran S = {(x_1, ..., x_N) : x_1 + ... + x_N = 0} in R^{Nm}."""

    def __init__(self, n_sets, block_dim):
        self.blocks = (n_sets, block_dim)
        self.ambient_dim = n_sets * block_dim
        self.rank = (n_sets - 1) * block_dim

    def project(self, x):
        """Orthogonal projection: subtract the block mean from every block."""
        blocks = np.reshape(x, self.blocks)
        return (blocks - blocks.mean(axis=0)).ravel()


@dataclass
class CycleProblem:
    """A family of convex sets with the product-space operators the solve
    reads.

    ``displacement`` is S = R - I on R^{Nm} and ``q`` is Q = T^{-1}, both
    ``BlockCirculant``; ``range_space`` is ran S as a ``ZeroSumSubspace``;
    ``support_sum`` is the blockwise support function of the family, whose
    ``conjugate()`` is the blockwise indicator.
    """

    sets: tuple
    base_dim: int
    displacement: BlockCirculant
    range_space: ZeroSumSubspace
    q: BlockCirculant
    support_sum: SeparableSum


def build_problem(sets):
    """Assemble the product-space problem for two or more sets of equal
    dimension.

    Raises DegenerateProblemError for fewer than two sets and ValueError
    for an entry that is not a ConvexSet or a dimension mismatch.
    """
    sets = tuple(sets)
    if len(sets) < 2:
        raise DegenerateProblemError("need at least two sets")
    for i, c in enumerate(sets):
        if not isinstance(c, ConvexSet):
            raise ValueError(f"sets[{i}] is not a ConvexSet")
    m = sets[0].ambient_dim
    for i, c in enumerate(sets):
        if c.ambient_dim != m:
            raise ValueError(
                f"sets[{i}] has dimension {c.ambient_dim}, expected {m}"
            )
    n = len(sets)

    shift = np.exp(-2j * np.pi * np.arange(n) / n)
    # S vanishes on the block-constant mode k = 0, where T acts as -2.
    on_range = np.concatenate(([-2.0], shift[1:] - 1.0))

    return CycleProblem(
        sets=sets,
        base_dim=m,
        displacement=BlockCirculant(shift - 1.0, m),
        range_space=ZeroSumSubspace(n, m),
        q=BlockCirculant(1.0 / on_range, m),
        support_sum=SeparableSum(tuple(Support(c) for c in sets)),
    )


def touching_pair(problem):
    """The cycle as a touching problem (oracle, Q): the subdifferential of
    the support sum restricted to ran S, and Q = T^{-1}.

    ``generalized_cycle`` solves this pair and ``verify_identities``
    certifies it, so both step and certify with the same Q.
    """
    return SubspaceRestrictedOracle(problem.support_sum, problem.range_space), problem.q


def generalized_cycle(problem, tol=1e-10, max_iter=100000):
    """Solve for the generalized cycle and gap vector of the family.

    e in (subdifferential of the support sum restricted to ran S)(T e) is the
    touching problem of ``touching_pair``, whose ``TouchResult`` is returned
    as is: ``d`` the gap vector (S e up to rounding), ``e`` = Q d the cycle,
    and ``error_bound`` >= ||d - d*|| at the step ``gamma``, factor ``rho``.
    """
    return touch(*touching_pair(problem), CYCLE_LAM, tol=tol, max_iter=max_iter)


def classical_cycle(problem, start=None, tol=1e-10, max_iter=100000):
    """Cyclic projection cycle, or None when the sweep does not settle.

    Iterates z -> P_N(... P_1(z) ...) from ``start`` (default 0) until
    ||z_next - z|| <= tol max(1, ||z_next||), then unrolls one sweep into
    x = (x_1, ..., x_N), so x_i = P_i(x_{i-1}) holds by construction for
    i > 1.  The wrap-around x_1 = P_1(x_N) is off by at most
    ||T z - z|| <= tol max(1, ||z||) for the nonexpansive sweep T;
    ``verify_identities`` checks x independently through S x = S e.
    A ``tol`` that is not positive and finite, or a ``max_iter`` below 1,
    is a ValueError.
    """
    if int(max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    m = problem.base_dim
    tol = as_positive(tol, "tol")
    z = np.zeros(m) if start is None else as_vector(start, dim=m)
    for _ in range(int(max_iter)):
        z_next = z
        for c in problem.sets:
            z_next = c._project(z_next)
        moved = z_next - z
        z = z_next
        if math.sqrt(moved.dot(moved)) <= scaled_tol(tol, math.sqrt(z.dot(z))):
            break
    else:
        return None

    xs = []
    for c in problem.sets:
        z = c._project(z)
        xs.append(z)
    return np.concatenate(xs)


def verify_identities(problem, e, classical=None):
    """Certify a generalized cycle ``e``, and a classical cycle when given.

    The generalized cycle is characterised by the inclusion e in dg(S e)
    for g = (summed support functions) + (indicator of ran S), the touching
    inclusion of the module docstring.  One resolvent call certifies it, with
    lam and beta derived from the problem.

    Residuals (``classical_shift_gap`` only when ``classical`` is given):

    - ``error_bound``: ||F(S e) - S e|| / (1 - rho) >= ||S e - d*||,
      threshold 1e-6 max(1, ||Se||)
    - ``range_membership``: ||e - P_{ran S} e||, threshold 1e-9 max(1, ||e||);
      the inclusion sees only Q S e = P_{ran S} e, and
      ||e - e*|| <= ||Q|| error_bound + range_membership
    - ``classical_shift_gap``: ||S x - S e||, threshold 1e-6 max(1, ||Se||);
      ``classical_cycle`` has already checked that x is a projection cycle
    """
    s = problem.displacement
    e = as_vector(e, dim=s.shape[0])
    se = s @ e
    threshold = scaled_tol(PASS_TOL, math.sqrt(se.dot(se)))

    _, bound = _certificate(*touching_pair(problem), se)
    residuals = {
        "error_bound": bound,
        "range_membership": float(np.linalg.norm(e - problem.range_space.project(e))),
    }
    thresholds = {
        "error_bound": threshold,
        "range_membership": scaled_tol(1e-9, math.sqrt(e.dot(e))),
    }

    if classical is not None:
        x = as_vector(classical, dim=s.shape[0])
        residuals["classical_shift_gap"] = float(np.linalg.norm(s @ x - se))
        thresholds["classical_shift_gap"] = threshold

    passed = all(residuals[k] <= thresholds[k] for k in residuals)
    return VerificationReport(residuals=residuals, thresholds=thresholds, passed=passed)
