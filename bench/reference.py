"""The benchmark's own answers, computed without montouch.

cli_touch_wide: every family is compact, so it has a classical cycle x
and the gap vector is d = S x = R x - x, with R the block cyclic shift
(x_1, ..., x_N) -> (x_N, x_1, ..., x_{N-1}).  x comes from a plain
cyclic-projection sweep with closed-form ball projections.

touch_generic: (d, e) is the touching pair iff e = Q d and e is a
subgradient of f at d, i.e. d = prox_f(d + e); both are checked block by
block with closed-form proxes.

An answer is wrong when it misses the reference by more than
REL_TOL * max(1, ||ref||).
"""

import math

import numpy as np

REL_TOL = 1e-6
SWEEP_TOL = 1e-14
MAX_SWEEPS = 1_000_000


def _project(entry, x):
    if entry["type"] == "ball":
        gap = x - entry["center"]
        dist = math.sqrt(float(gap @ gap))
        if dist <= entry["radius"]:
            return x
        return entry["center"] + (entry["radius"] / dist) * gap
    return np.minimum(np.maximum(x, entry["lower"]), entry["upper"])


def _dim(entry):
    return len(entry["center"] if entry["type"] == "ball" else entry["lower"])


def classical_cycle(sets):
    """Cycle (x_1, ..., x_N) with x_i = P_i(x_{i-1}) around the loop, as an
    (N, m) array, from cyclic projections started at the origin."""
    z = np.zeros(_dim(sets[0]))
    for _ in range(MAX_SWEEPS):
        w = z
        for entry in sets:
            w = _project(entry, w)
        change = float(np.linalg.norm(w - z))
        z = w
        if change <= SWEEP_TOL * max(1.0, float(np.linalg.norm(z))):
            break
    else:
        raise RuntimeError("reference cyclic projections did not settle")
    xs = []
    for entry in sets:
        z = _project(entry, z)
        xs.append(z)
    return np.array(xs)


def gap_vector(sets):
    x = classical_cycle(sets)
    return (np.roll(x, 1, axis=0) - x).ravel()


def _prox_block(entry, v):
    # Support of a ball: Moreau gives v - P_ball(v).  Indicator of a box: P_box(v).
    if entry["type"] == "ball":
        return v - _project(entry, v)
    return _project(entry, v)


def touch_residual(spec, d, e):
    """max(||e - Q d||, ||d - prox_f(d + e)||) for a touch_generic problem."""
    v = d + e
    parts, start = [], 0
    for entry in spec["blocks"]:
        end = start + _dim(entry)
        parts.append(_prox_block(entry, v[start:end]))
        start = end
    prox = np.concatenate(parts)
    return max(float(np.linalg.norm(e - spec["q"] @ d)), float(np.linalg.norm(d - prox)))


class Checker:
    """Caches one reference per problem and measures answers against it."""

    tol = REL_TOL

    def __init__(self, kind):
        self.kind = kind
        self._refs = {}

    def error(self, problem, outcome):
        """Relative miss of the answer, or None when there is no answer."""
        if outcome.d is None:
            return None
        d = np.asarray(outcome.d, dtype=float)
        if not np.all(np.isfinite(d)) or (outcome.e is not None and not np.all(np.isfinite(outcome.e))):
            return math.inf
        if self.kind == "touch":
            return touch_residual(problem.spec, d, np.asarray(outcome.e, dtype=float)) / max(
                1.0, float(np.linalg.norm(d)))
        ref = self._refs.get(problem.pid)
        if ref is None:
            ref = self._refs[problem.pid] = gap_vector(problem.spec["sets"])
        if d.shape != ref.shape:
            return math.inf
        return float(np.linalg.norm(d - ref)) / max(1.0, float(np.linalg.norm(ref)))
