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
of that subdifferential and Q (``touching_pair``).  Q is a normal circulant
with sym(Q) = -I/2 and ||Q|| = 1/(2 sin(pi/N)), so its step norm is
||I + gamma Q||^2 = 1 - gamma + gamma^2 ||Q||^2, smallest at the step
2 sin^2(pi/N), where rho = cos(pi/N).  ``verify_identities`` certifies any e
with the touching error bound, and the classical identities when a cycle is
given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSet, Indicator, SeparableSum, Support
from .errors import DegenerateProblemError
from .hilbert import BlockCirculant, as_vector, invert, project_onto
from .monotone import SubspaceRestrictedOracle
from .touching import VerificationReport, _certificate, _pass_threshold, touch


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
    """A family of convex sets with the product-space shift machinery.

    ``shift`` is R and ``displacement`` is S = R - I on R^{Nm}, both
    ``BlockCirculant``; ``range_space`` is ran S as a ``ZeroSumSubspace``;
    ``displacement_on_range`` is the invertible circulant T = S - 2 P_D,
    which equals S on ran S.  ``indicator_sum`` / ``support_sum`` are the
    blockwise indicator and support functions of the family.
    """

    sets: tuple
    base_dim: int
    n_sets: int
    shift: BlockCirculant
    displacement: BlockCirculant
    range_space: ZeroSumSubspace
    displacement_on_range: BlockCirculant
    indicator_sum: SeparableSum
    support_sum: SeparableSum


@dataclass
class CycleSolution:
    """Generalized cycle ``e``, gap vector ``d`` = S e (both in R^{Nm}),
    and an optional classical projection cycle.  ``error_bound`` is the
    solve's certified bound on ||d - d*|| (``TouchResult.error_bound``);
    ``verify_identities`` derives its own and never reads it."""

    e: np.ndarray
    d: np.ndarray
    classical_cycle: np.ndarray = None
    iterations: int = 0
    error_bound: float = None


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
        n_sets=n,
        shift=BlockCirculant(shift, m),
        displacement=BlockCirculant(shift - 1.0, m),
        range_space=ZeroSumSubspace(n, m),
        displacement_on_range=BlockCirculant(on_range, m),
        indicator_sum=SeparableSum(tuple(Indicator(c) for c in sets)),
        support_sum=SeparableSum(tuple(Support(c) for c in sets)),
    )


def touching_pair(problem):
    """The cycle as a touching problem (oracle, Q): the subdifferential of
    the support sum restricted to ran S, and Q = T^{-1}.

    ``generalized_cycle`` solves this pair, ``verify_identities`` certifies
    it and the CLI's ``touch`` and ``fixed-point`` run it, so all of them
    step and certify with the same Q.
    """
    oracle = SubspaceRestrictedOracle(problem.support_sum, problem.range_space)
    return oracle, invert(problem.displacement_on_range)


def generalized_cycle(problem, tol=1e-10, max_iter=100000):
    """Compute the generalized cycle and gap vector of the family.

    Solves the fixed-point problem e in (subdifferential of the support
    sum restricted to ran S)(T e) as the touching problem of
    ``touching_pair``, whose touching point is d = S e with e = Q d, and
    carries the solve's certified ``error_bound`` on d;
    ``verify_identities`` checks the result.
    """
    oracle, q = touching_pair(problem)
    result = touch(oracle, q, 0.5, tol=tol, max_iter=max_iter)
    e = result.e
    return CycleSolution(
        e=e, d=problem.displacement @ e, iterations=result.iterations,
        error_bound=result.error_bound,
    )


def classical_cycle(problem, start=None, tol=1e-10, max_iter=100000):
    """Cyclic projection cycle, or None when the sweep does not settle.

    Iterates z -> P_N(... P_1(z) ...) from ``start`` (default 0) until
    ||z_next - z|| <= tol, then unrolls one sweep into
    x = (x_1, ..., x_N) and checks the cycle property
    x_i = P_i(x_{i-1}) around the loop.
    """
    m = problem.base_dim
    z = np.zeros(m) if start is None else as_vector(start, dim=m)
    converged = False
    for _ in range(int(max_iter)):
        z_next = z
        for c in problem.sets:
            z_next = c.project(z_next)
        change = float(np.linalg.norm(z_next - z))
        z = z_next
        if change <= tol:
            converged = True
            break
    if not converged:
        return None

    xs = []
    w = z
    for c in problem.sets:
        w = c.project(w)
        xs.append(w)
    x = np.concatenate(xs)

    # cycle property around the loop; only the wrap-around is nontrivial
    worst = 0.0
    prev = xs[-1]
    for c, xi in zip(problem.sets, xs):
        worst = max(worst, float(np.linalg.norm(xi - c.project(prev))))
        prev = xi
    if worst > 10.0 * tol * max(1.0, float(np.linalg.norm(x))):
        return None
    return x


def verify_identities(problem, solution):
    """Check the identities tying the solution together.

    With f the summed indicator functions of the sets, f* the summed
    support functions and V = ran S, the generalized cycle is characterised
    by the inclusion e in dg(S e) for g = f* + indicator of V, the touching
    inclusion of the module docstring.  One resolvent call certifies it, with
    lam and beta derived from the problem; ``solution.error_bound`` is unread.

    Residuals (classical ones only when a classical cycle is attached):

    - ``error_bound``: ||F(S e) - S e|| / (1 - rho) >= ||S e - d*||,
      threshold 1e-6 max(1, ||Se||)
    - ``range_membership``: ||e - P_{ran S} e||, threshold 1e-9 max(1, ||e||);
      the inclusion sees only Q S e = P_{ran S} e, and
      ||e - e*|| <= ||Q|| error_bound + range_membership
    - ``classical_shift_gap``: ||S x - S e||, threshold 1e-6 max(1, ||Se||)
    - ``fenchel_energy``: |f*(S x) + 0.5 ||S x||^2 + f(x)|, threshold 1e-6

    ``details["conjugate_identity_value"]`` is <e, Se> - f*(Se), which
    equals g*(e) when the inclusion holds.
    """
    s = problem.displacement
    e = as_vector(solution.e, dim=s.shape[0])
    se = s @ e
    f_conj = problem.support_sum
    threshold = _pass_threshold(se)

    _, bound = _certificate(*touching_pair(problem), se)
    residuals = {
        "error_bound": bound,
        "range_membership": float(
            np.linalg.norm(e - project_onto(problem.range_space, e))
        ),
    }
    thresholds = {
        "error_bound": threshold,
        "range_membership": 1e-9 * max(1.0, float(np.linalg.norm(e))),
    }
    details = {"conjugate_identity_value": float(e @ se) - f_conj.value(se)}

    if solution.classical_cycle is not None:
        x = as_vector(solution.classical_cycle, dim=s.shape[0])
        sx = s @ x
        residuals["classical_shift_gap"] = float(np.linalg.norm(sx - se))
        thresholds["classical_shift_gap"] = threshold
        f_x = problem.indicator_sum.value(x)
        energy = f_conj.value(sx) + 0.5 * float(sx @ sx) + f_x
        residuals["fenchel_energy"] = abs(energy) if math.isfinite(energy) else math.inf
        thresholds["fenchel_energy"] = 1e-6
        details["classical_objective"] = f_x

    passed = all(residuals[k] <= thresholds[k] for k in residuals)
    return VerificationReport(
        residuals=residuals, thresholds=thresholds, passed=passed, details=details
    )
