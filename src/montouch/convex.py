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
``_value`` on a view of its block, and its ``_prox`` on that view, except
for groups: the indicators and the support functions of plain boxes and
plain balls, grouped by (kind, set class, block length), run once per group
of two or more on all its coordinates, as one merged box or one stack of
ball rows; a group of one keeps its part.  ``Indicator`` and ``Support``
call their set's ``_project``, ``_support`` or ``_contains``.
A new set or function implements the kernel, not the public method.

Kernels on small blocks avoid numpy's Python-level wrappers: the ball's
projection takes its norm as ``math.sqrt(gap.dot(gap))`` and the box clamps
with ``np.minimum`` / ``np.maximum``.  On validated input both are bit for
bit ``np.linalg.norm`` (which is the square root of the same dot product
for a 1-d float64 vector) and ``np.clip``.  Stacked ball rows take each
row's norm from one batched (1, m) @ (m, 1) matmul, bit for bit the same
dot product.
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


def _merged_box(boxes):
    """The product of checked boxes as one Box, built without re-checking
    its bounds."""
    box = object.__new__(Box)
    object.__setattr__(box, "lower", np.concatenate([b.lower for b in boxes]))
    object.__setattr__(box, "upper", np.concatenate([b.upper for b in boxes]))
    return box


class _BallRows(ConvexSet):
    """The product of k checked balls in R^m, one ball per row of a (k, m)
    stack, as a set in R^(k m); it checks nothing and defines only
    ``_project``, which is bit for bit each ball's own on its block."""

    def __init__(self, balls):
        self._centers = np.array([b.center for b in balls])[:, None, :]
        self.ambient_dim = self._centers.size
        self._radii = np.array([b.radius for b in balls])[:, None, None]

    def _project(self, v):
        rows = v.reshape(self._centers.shape)
        gap = rows - self._centers
        # one (1, m) @ (m, 1) product per row: bit for bit that row's
        # gap.dot(gap), where an einsum or a row sum may round differently
        dist = np.sqrt(gap @ gap.transpose(0, 2, 1))
        out = dist > self._radii
        # divide only on the rows outside, where dist > radius >= 0
        scale = np.divide(self._radii, dist, out=np.zeros(dist.shape), where=out)
        return np.where(out, self._centers + scale * gap, rows).ravel()


# set classes whose indicator and support parts SeparableSum stacks, with
# the builder of each class's product set
_STACKED = {Box: _merged_box, Ball: _BallRows}


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

    The prox groups the indicator and the support parts of plain boxes and
    of plain balls by (kind, set class, block length).  Each group of two or
    more runs as one part on the product of its sets: one clamp of a merged
    box (a product of boxes is a box), or one projection onto row-stacked
    balls.  Both run the same floating-point operations as the parts' own
    kernels, so the answer is bit for bit theirs.  A group of one keeps its
    part, since one stacked row is slower than ``Ball._project``."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("separable sum needs at least one part")
        object.__setattr__(self, "parts", parts)
        blocks, groups, start = [], {}, 0
        for i, part in enumerate(parts):
            if not isinstance(part, ProxFunction):
                raise TypeError(f"parts[{i}] is not a ProxFunction")
            end = start + int(part.ambient_dim)
            blocks.append((part, slice(start, end)))
            stacks = type(part) in (Indicator, Support) and type(part.set) in _STACKED
            key = (type(part), type(part.set), end - start) if stacks else i
            groups.setdefault(key, []).append(blocks[-1])
            start = end
        prox_blocks = []
        for key, group in groups.items():
            if len(group) == 1:
                prox_blocks.append(group[0])
                continue
            kind, cls, size = key
            spans = [b for _, b in group]
            if all(a.stop == b.start for a, b in zip(spans, spans[1:])):
                index = slice(spans[0].start, spans[-1].stop)
            else:
                index = (np.array([b.start for b in spans])[:, None] + np.arange(size)).ravel()
            prox_blocks.append((kind(_STACKED[cls]([part.set for part, _ in group])), index))
        object.__setattr__(self, "_blocks", tuple(blocks))
        object.__setattr__(self, "_prox_blocks", tuple(prox_blocks))

    # (part, slice of its coordinate block), built once
    _blocks: tuple = field(init=False, repr=False, compare=False, default=())
    # the same with each group of two or more stackable parts as one part on
    # a slice or an index array; the prox writes every block of the output
    # once
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
