"""Convex sets with exact nearest-point maps, and proximable convex
functions built from them.

Sets: ball, box (bounds may be infinite), halfspace, affine set, singleton.
Functions: indicator, support function, weighted squared norm, and separable
sums over consecutive coordinate blocks.  Extended values use ``math.inf``;
a support function of an unbounded set really returns +inf off its domain.

Validation contract: the public ``ConvexSet.project(x)``,
``ConvexSet.support(u)``, ``ProxFunction.prox(lam, x)`` and
``ProxFunction.value(x)`` validate once, in the base class, with
``as_vector(x, dim)`` and ``as_positive(lam, "step")``, and then call the class's
kernel, ``_project(v)``, ``_support(v)``, ``_prox(lam, v)`` or
``_value(v)``.  A kernel takes a validated float64 vector of the block's
length and a checked step, and checks neither again.  Composites run
kernels on what they validated: ``SeparableSum`` calls each part's
``_value`` on a view of its block, and its ``_prox`` on that view or, for
the indicators and support functions of plain boxes, once per kind on all
their coordinates, as one merged box; ``Indicator`` and ``Support`` call
their set's ``_project``, ``_support`` or ``_contains``.
A new set or function implements the kernel, not the public method.

Kernels on small blocks avoid numpy's Python-level wrappers: the ball's
projection takes its norm as ``math.sqrt(gap.dot(gap))`` and the box clamps
with ``np.minimum`` / ``np.maximum``.  On validated input both are bit for
bit ``np.linalg.norm`` (which is the square root of the same dot product
for a 1-d float64 vector) and ``np.clip``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import Subspace, as_positive, as_vector, scaled_tol

# Distance tolerance, scaled by max(1, ||x||), for indicator evaluation and
# membership checks.
MEMBERSHIP_TOL = 1e-9
# Tolerance, scaled by max(1, ||u||), deciding whether a direction u is
# support-admissible for an unbounded set (halfspace ray, affine
# orthogonal complement).
DIRECTION_TOL = 1e-9


class ConvexSet:
    """Nonempty closed convex subset of R^n with an exact projection."""

    ambient_dim = 0

    def project(self, x):
        """Nearest point of the set to ``x``."""
        return self._project(as_vector(x, dim=self.ambient_dim))

    def _project(self, v):
        """Kernel of ``project`` on a validated vector of length ambient_dim."""
        raise NotImplementedError

    def support(self, u):
        """Support value sup { <c, u> : c in the set }; may be +inf."""
        return self._support(as_vector(u, dim=self.ambient_dim))

    def _support(self, w):
        """Kernel of ``support`` on a validated vector of length ambient_dim."""
        raise NotImplementedError

    def contains(self, x, tol=MEMBERSHIP_TOL):
        """Membership up to Euclidean distance tol * max(1, ||x||): ``tol`` is
        relative, so the verdict does not depend on where the set sits."""
        return self._contains(as_vector(x, dim=self.ambient_dim), tol)

    def _contains(self, v, tol):
        """Kernel of ``contains`` on a validated vector of length ambient_dim."""
        gap = v - self._project(v)
        return math.sqrt(gap.dot(gap)) <= scaled_tol(tol, math.sqrt(v.dot(v)))


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Closed Euclidean ball; radius 0 degenerates to a point."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not (r >= 0.0 and math.isfinite(r)):
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "radius", r)

    @property
    def ambient_dim(self):
        return self.center.shape[0]

    def _project(self, v):
        gap = v - self.center
        dist = math.sqrt(gap.dot(gap))
        if dist <= self.radius:
            return v
        return self.center + (self.radius / dist) * gap

    def _support(self, w):
        return float(self.center @ w) + self.radius * float(np.linalg.norm(w))


@dataclass(frozen=True)
class Box(ConvexSet):
    """Axis-aligned box; a lower bound may be -inf and an upper bound +inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("a lower bound of +inf or an upper bound of -inf "
                             "leaves the box empty")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def ambient_dim(self):
        return self.lower.shape[0]

    def _project(self, v):
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def _support(self, w):
        # a zero weight contributes nothing even against an infinite bound
        active = w != 0.0
        terms = w[active] * np.where(w[active] > 0.0, self.upper[active], self.lower[active])
        return math.inf if np.any(terms == math.inf) else float(terms.sum())


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """{ x : <normal, x> <= offset } with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_vector(self.normal)
        if float(np.linalg.norm(n)) == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise ValueError("halfspace offset must be finite")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    @property
    def ambient_dim(self):
        return self.normal.shape[0]

    def _project(self, v):
        slack = float(self.normal @ v) - self.offset
        if slack <= 0.0:
            return v
        return v - (slack / float(self.normal @ self.normal)) * self.normal

    def _support(self, w):
        # Finite only along the outward normal ray u = t * normal, t >= 0.
        nn = float(self.normal @ self.normal)
        t = float(self.normal @ w) / nn
        resid = w - t * self.normal
        slack = scaled_tol(DIRECTION_TOL, math.sqrt(w.dot(w)))
        if float(np.linalg.norm(resid)) > slack or t < -slack:
            return math.inf
        return max(t, 0.0) * self.offset


@dataclass(frozen=True)
class AffineSet(ConvexSet):
    """basepoint + span(directions); rank 0 gives a single point."""

    basepoint: np.ndarray
    directions: Subspace

    def __post_init__(self):
        p = as_vector(self.basepoint)
        if self.directions.ambient_dim != p.shape[0]:
            raise ValueError("directions do not match the basepoint dimension")
        object.__setattr__(self, "basepoint", p)

    @property
    def ambient_dim(self):
        return self.basepoint.shape[0]

    def _project(self, v):
        return self.basepoint + self.directions.project(v - self.basepoint)

    def _support(self, w):
        # Finite only for u orthogonal to every direction.
        tangential = self.directions.basis.T @ w
        slack = scaled_tol(DIRECTION_TOL, math.sqrt(w.dot(w)))
        if tangential.size and float(np.linalg.norm(tangential)) > slack:
            return math.inf
        return float(self.basepoint @ w)


@dataclass(frozen=True)
class Singleton(ConvexSet):
    """A single point."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vector(self.point))

    @property
    def ambient_dim(self):
        return self.point.shape[0]

    def _project(self, v):
        return self.point.copy()

    def _support(self, w):
        return float(self.point @ w)


class ProxFunction:
    """Proper closed convex function with an exact prox and conjugate.

    ``value`` may return +inf.  ``prox(lam, x)`` is
    argmin_z f(z) + ||z - x||^2 / (2 lam).
    """

    ambient_dim = 0

    def value(self, x):
        return self._value(as_vector(x, dim=self.ambient_dim))

    def _value(self, v):
        """Kernel of ``value`` on a validated vector of length ambient_dim."""
        raise NotImplementedError

    def prox(self, lam, x):
        lam = as_positive(lam, "step")
        z = self._prox(lam, as_vector(x, dim=self.ambient_dim))
        # kernels do not check their intermediates: Support projects x / lam,
        # which overflows at a tiny step
        if not np.isfinite(z).all():
            raise ValueError(f"prox at step {lam:.3e} is not finite: an intermediate overflowed")
        return z

    def _prox(self, lam, v):
        """Kernel of ``prox``: a checked step and a validated vector of
        length ambient_dim."""
        raise NotImplementedError

    def conjugate(self):
        """The Fenchel conjugate, again as a ProxFunction."""
        raise NotImplementedError

    def conjugate_value(self, u):
        """f*(u) = sup_x <x, u> - f(x)."""
        return self.conjugate().value(u)


@dataclass(frozen=True)
class Indicator(ProxFunction):
    """0 on the set (within distance 1e-9 max(1, ||x||)), +inf elsewhere."""

    set: ConvexSet

    @property
    def ambient_dim(self):
        return self.set.ambient_dim

    def _value(self, v):
        return 0.0 if self.set._contains(v, MEMBERSHIP_TOL) else math.inf

    def _prox(self, lam, v):
        # projection, independent of the step
        return self.set._project(v)

    def conjugate(self):
        return Support(self.set)


@dataclass(frozen=True)
class Support(ProxFunction):
    """Support function of a set; prox by Moreau decomposition."""

    set: ConvexSet

    @property
    def ambient_dim(self):
        return self.set.ambient_dim

    def _value(self, v):
        return self.set._support(v)

    def _prox(self, lam, v):
        return v - lam * self.set._project(v / lam)

    def conjugate(self):
        return Indicator(self.set)


@dataclass(frozen=True)
class ScaledSquare(ProxFunction):
    """f(x) = (weight / 2) ||x||^2 with weight > 0."""

    weight: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "weight", as_positive(self.weight, "weight"))
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def ambient_dim(self):
        return self.dim

    def _value(self, v):
        return 0.5 * self.weight * float(v @ v)

    def _prox(self, lam, v):
        return v / (1.0 + lam * self.weight)

    def conjugate(self):
        return ScaledSquare(1.0 / self.weight, self.dim)


@dataclass(frozen=True)
class SeparableSum(ProxFunction):
    """f(x) = sum_i f_i(x_i) over consecutive coordinate blocks.

    The prox gathers the indicator and the support parts of plain boxes into
    one box each, since a product of boxes is a box, and clamps each group
    at once: the same elementwise operations as the parts' own kernels."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("separable sum needs at least one part")
        object.__setattr__(self, "parts", parts)
        blocks, prox_blocks, boxes, start = [], [], {Indicator: [], Support: []}, 0
        for i, part in enumerate(parts):
            if not isinstance(part, ProxFunction):
                raise TypeError(f"parts[{i}] is not a ProxFunction")
            end = start + int(part.ambient_dim)
            blocks.append((part, slice(start, end)))
            group = boxes.get(type(part))
            if group is not None and type(part.set) is Box:
                group.append(blocks[-1])
            else:
                prox_blocks.append(blocks[-1])
            start = end
        for kind, group in boxes.items():
            if group:
                box = Box(np.concatenate([part.set.lower for part, _ in group]),
                          np.concatenate([part.set.upper for part, _ in group]))
                index = np.concatenate([np.arange(b.start, b.stop) for _, b in group])
                prox_blocks.append((kind(box), index))
        object.__setattr__(self, "_blocks", tuple(blocks))
        object.__setattr__(self, "_prox_blocks", tuple(prox_blocks))

    # (part, slice of its coordinate block), built once
    _blocks: tuple = field(init=False, repr=False, compare=False, default=())
    # the same with the box parts of each kind merged into one part on an
    # index array; the prox writes every block of the output once
    _prox_blocks: tuple = field(init=False, repr=False, compare=False, default=())

    @property
    def ambient_dim(self):
        return self._blocks[-1][1].stop

    def _value(self, v):
        total = 0.0
        for part, block in self._blocks:
            total += part._value(v[block])
            if total == math.inf:
                return math.inf
        return total

    def _prox(self, lam, v):
        z = np.empty_like(v)
        for part, block in self._prox_blocks:
            z[block] = part._prox(lam, v[block])
        return z

    def conjugate(self):
        return SeparableSum(tuple(p.conjugate() for p in self.parts))
