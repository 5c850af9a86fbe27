"""Shared generators for randomized tests.  Everything is seeded."""

import numpy as np

from montouch import (
    AffineSet,
    Ball,
    Box,
    Halfspace,
    Indicator,
    LinearMonotoneOracle,
    ScaledSquare,
    SeparableSum,
    Singleton,
    SubdifferentialOracle,
    Support,
    orthonormal_range,
)


def random_ball(rng, dim, spread=3.0):
    center = spread * rng.normal(size=dim)
    radius = float(0.2 + 2.0 * rng.random())
    return Ball(center, radius)


def random_box(rng, dim, spread=3.0):
    a = spread * rng.normal(size=dim)
    b = a + 0.2 + 2.0 * rng.random(size=dim)
    return Box(a, b)


def random_singleton(rng, dim, spread=3.0):
    return Singleton(spread * rng.normal(size=dim))


def random_halfspace(rng, dim, spread=2.0):
    normal = rng.normal(size=dim)
    normal /= np.linalg.norm(normal)
    return Halfspace(normal, float(spread * rng.normal()))


def random_affine(rng, dim, spread=3.0):
    """A random point, line, plane, ... or the whole space, rank 0 to dim."""
    rank = int(rng.integers(0, dim + 1))
    return AffineSet(spread * rng.normal(size=dim),
                     orthonormal_range(rng.normal(size=(dim, rank))))


def random_compact_set(rng, dim):
    pick = rng.integers(0, 3)
    if pick == 0:
        return random_ball(rng, dim)
    if pick == 1:
        return random_box(rng, dim)
    return random_singleton(rng, dim)


def random_set(rng, dim):
    pick = rng.integers(0, 4)
    if pick == 3:
        return random_halfspace(rng, dim)
    return random_compact_set(rng, dim)


def random_prox_function(rng, dim):
    pick = rng.integers(0, 4)
    if pick == 0:
        return Indicator(random_compact_set(rng, dim))
    if pick == 1:
        return Support(random_compact_set(rng, dim))
    if pick == 2:
        return ScaledSquare(float(0.2 + 3.0 * rng.random()), dim)
    half = max(1, dim // 2)
    parts = (random_prox_function(rng, half), random_prox_function(rng, dim - half)) \
        if dim - half >= 1 else (random_prox_function(rng, dim),)
    return SeparableSum(parts)


def random_monotone_matrix(rng, dim, scale=1.0):
    """Random matrix with positive semidefinite symmetric part."""
    g = scale * rng.normal(size=(dim, dim))
    sym = 0.5 * (g + g.T)
    skew = 0.5 * (g - g.T)
    eigs, vecs = np.linalg.eigh(sym)
    psd = vecs @ np.diag(np.clip(eigs, 0.0, None)) @ vecs.T
    return psd + skew


def top_sym_eigenvalue(a):
    """Largest eigenvalue of the symmetric part (A + A^T) / 2, by numpy."""
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def random_gate_matrix(rng, dim, lam=0.5, scale=0.25):
    """Random Q whose symmetric part tops out at -lam, so the quadratic gate
    <y, Qy> <= -lam ||y||^2 holds with equality in the worst direction."""
    g = scale * rng.normal(size=(dim, dim))
    shift = top_sym_eigenvalue(g) + lam
    return g - shift * np.eye(dim)


def gate_matrix_with_norm(rng, dim, lam=0.5, norm=3.0):
    """Random Q whose symmetric part tops out at -lam, with ||Q|| = ``norm``.

    Q(s) = s H - lam I, with H a Gaussian matrix shifted so that its
    symmetric part tops out at 0.  ||Q(s)|| equals lam at s = 0, never
    drops below it and is convex in s, so bisection finds ||Q(s)|| = norm.
    """
    g = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    h = g - top_sym_eigenvalue(g) * np.eye(dim)
    lo, hi = 0.0, 1.0
    while np.linalg.norm(hi * h - lam * np.eye(dim), 2) < norm:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(mid * h - lam * np.eye(dim), 2) < norm:
            lo = mid
        else:
            hi = mid
    return hi * h - lam * np.eye(dim)


def mixed_block_sum(rng, n_parts, block_dim=4):
    """A separable sum of ``n_parts`` blocks that alternate between the
    support function of a ball and the indicator of a box, the blocks of
    the benchmark's generic touching problems."""
    parts = tuple(Support(random_ball(rng, block_dim)) if k % 2 == 0
                  else Indicator(random_box(rng, block_dim)) for k in range(n_parts))
    return SeparableSum(parts)


def ball_projection_reference(ball, v):
    """Nearest point of ``ball`` to ``v``, with the norm from ``np.linalg.norm``."""
    gap = v - ball.center
    if np.linalg.norm(gap) <= ball.radius:
        return v
    return ball.center + (ball.radius / np.linalg.norm(gap)) * gap


def box_projection_reference(box, v):
    """Nearest point of ``box`` to ``v``, by ``np.clip``."""
    return np.clip(v, box.lower, box.upper)


def random_touch_instance(rng):
    """A touching problem (oracle, Q) at lam = 1/2 in R^1 to R^10: a
    monotone linear map or the normal cone of a compact set, against a
    random gate matrix."""
    dim = int(rng.integers(1, 11))
    if rng.integers(3) == 2:
        g = rng.normal(size=(dim, dim))
        oracle = LinearMonotoneOracle(g @ g.T * 0.5)
    else:
        oracle = SubdifferentialOracle(Indicator(random_compact_set(rng, dim)))
    return oracle, random_gate_matrix(rng, dim, lam=0.5)


def forward_backward_step_norms(oracle, q, gamma, start, rho, tol=1e-10, max_iter=100000):
    """||y_next - y|| along y_next = J_{gamma M}(y + gamma Q y) from ``start``,
    until ||y_next - y|| / (1 - rho) <= tol max(1, ||y||), the stop ``touch``
    makes at its own step."""
    y = np.asarray(start, dtype=float)
    norms = []
    for _ in range(max_iter):
        y_next = oracle.resolvent(gamma, y + gamma * (q @ y))
        norms.append(float(np.linalg.norm(y_next - y)))
        if norms[-1] / (1.0 - rho) <= tol * max(1.0, float(np.linalg.norm(y))):
            break
        y = y_next
    return norms


def sample_in(set_, rng, spread=4.0):
    """A point of the set, obtained by projecting a random point."""
    return set_.project(spread * rng.normal(size=set_.ambient_dim))


def dense(op):
    """Matrix of a linear map, built by applying it to the identity columns."""
    n = op.shape[1]
    return np.column_stack([op @ col for col in np.eye(n)])


def cyclic_shift(n_sets, block_dim):
    """Dense reference matrix of the block cyclic shift (x_1, ..., x_N) -> (x_N, x_1, ...)."""
    perm = np.roll(np.eye(n_sets), 1, axis=0)
    return np.kron(perm, np.eye(block_dim))


def isometry_defect(a):
    """max |A^T A - I|, zero exactly for isometries."""
    m = np.asarray(a, dtype=float)
    return float(np.abs(m.T @ m - np.eye(m.shape[0])).max())
