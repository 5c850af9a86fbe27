"""Convex sets and proximable functions: frozen values and sampled laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import montouch.convex
import montouch.cycles
import montouch.hilbert
import montouch.monotone
from montouch import (
    AffineSet,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Indicator,
    ProxFunction,
    ScaledSquare,
    SeparableSum,
    Singleton,
    SubdifferentialOracle,
    SubspaceRestrictedOracle,
    Support,
    as_vector,
    build_problem,
    orthonormal_range,
)
from helpers import (
    ball_projection_reference,
    box_projection_reference,
    random_affine,
    random_ball,
    random_box,
    random_compact_set,
    random_halfspace,
    random_prox_function,
    random_set,
    random_singleton,
    sample_in,
)


def _set_function(draw, rng):
    make = draw(st.sampled_from([random_ball, random_box, random_halfspace,
                                 random_singleton, random_affine]))
    c = make(rng, int(rng.integers(1, 5)))
    return Support(c) if draw(st.booleans()) else Indicator(c)


@st.composite
def set_prox_functions(draw):
    """The indicator or the support function of a set of any of the five
    classes, in R^1 to R^4, or a separable sum of one to four of them, whose
    parts run unvalidated kernels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return _set_function(draw, rng)
    return SeparableSum(tuple(_set_function(draw, rng)
                              for _ in range(draw(st.integers(1, 4)))))


# One instance of each set and function class, all in R^3.
SETS = {
    "ball": Ball([1.0, -2.0, 0.5], 1.5),
    "box": Box([-1.0, 0.0, -math.inf], [1.0, 2.0, 3.0]),
    "halfspace": Halfspace([0.6, 0.8, 0.0], -1.0),
    "affine": AffineSet([1.0, 0.0, 2.0], orthonormal_range(np.array([[1.0], [1.0], [0.0]]))),
    "singleton": Singleton([2.0, -1.0, 0.0]),
}
FUNCTIONS = {
    "indicator": Indicator(SETS["halfspace"]),
    "support": Support(SETS["ball"]),
    "scaled_square": ScaledSquare(2.0, 3),
    "separable_sum": SeparableSum((Support(Ball([0.0], 1.0)),
                                   Indicator(Box([0.0, 0.0], [1.0, 1.0])))),
}
BAD_VECTORS = {
    "nan": [0.5, math.nan, 1.0],
    "inf": [0.5, math.inf, 1.0],
    "short": [0.5, 1.0],
    "long": [0.5, 1.0, 2.0, 3.0],
    "2d": [[0.5, 1.0, 2.0]],
}
BAD_STEPS = (math.nan, math.inf, 0.0, -1.0)


# ---------------------------------------------------------------- sets

def test_ball_projection_and_support():
    ball = Ball([5.0, 0.0], 1.0)
    assert np.allclose(ball.project([5.2, 0.0]), [5.2, 0.0])  # interior is fixed
    assert np.allclose(ball.project([0.0, 0.0]), [4.0, 0.0])
    assert ball.support([-3.0, 0.0]) == pytest.approx(-12.0, abs=1e-12)
    assert ball.contains([4.0, 0.0]) and not ball.contains([3.9, 0.0])


def test_degenerate_ball_is_a_point():
    ball = Ball([1.0, 2.0], 0.0)
    assert np.allclose(ball.project([9.0, 9.0]), [1.0, 2.0])


def test_box_projection_and_support():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(box.project([3.0, -0.5]), [1.0, -0.5])
    assert box.support([3.0, -2.0]) == pytest.approx(5.0, abs=1e-12)


def test_box_with_infinite_bounds():
    box = Box([0.0, -math.inf], [2.0, math.inf])
    assert np.allclose(box.project([3.0, 7.0]), [2.0, 7.0])
    assert box.support([1.0, 0.0]) == pytest.approx(2.0)
    assert box.support([0.0, 1.0]) == math.inf
    assert box.support([-1.0, 0.0]) == pytest.approx(0.0)
    assert box.support([0.0, -2.0]) == math.inf
    wide = Box([0.0, -math.inf, -1.0, -math.inf, 2.0], [1.0, 3.0, math.inf, math.inf, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # zero weights face the infinite bounds; the rest are finite
        assert wide.support([2.0, 1.0, -4.0, 0.0, -1.0]) == pytest.approx(7.0)
        assert wide.support([-1.0, 0.0, 0.0, 0.0, 3.0]) == pytest.approx(6.0)
        assert wide.support([0.0, -0.5, 0.0, 0.0, 0.0]) == math.inf
        assert wide.support([1.0, 0.0, 2.0, 0.0, 0.0]) == math.inf
        assert wide.support([0.0, 0.0, 0.0, 1e-300, 0.0]) == math.inf


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
def test_project_validates_at_the_boundary(name, bad):
    with pytest.raises(ValueError):
        SETS[name].project(BAD_VECTORS[bad])


@pytest.mark.parametrize("name", sorted(SETS))
def test_project_equals_its_kernel(name):
    c = SETS[name]
    rng = np.random.default_rng(59)
    for x in 3.0 * rng.normal(size=(20, 3)):
        # bit for bit, from a list as well as from an array
        want = c._project(as_vector(x, dim=3)).tobytes()
        assert c.project(x).tobytes() == want
        assert c.project(x.tolist()).tobytes() == want


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
def test_support_validates_at_the_boundary(name, bad):
    with pytest.raises(ValueError):
        SETS[name].support(BAD_VECTORS[bad])


@pytest.mark.parametrize("name", sorted(SETS))
def test_support_equals_its_kernel(name):
    c = SETS[name]
    for u in 3.0 * np.random.default_rng(67).normal(size=(20, 3)):
        want = c._support(as_vector(u, dim=3))
        assert c.support(u) == want and c.support(u.tolist()) == want


# Finite coordinates small enough that no difference or dot product of
# them overflows in R^1 to R^6.
COORD = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@st.composite
def balls_and_points(draw):
    """A ball in R^1 to R^6, radius 0 included, and a point anywhere, at
    its centre or on its sphere."""
    dim = draw(st.integers(1, 6))
    center = np.array(draw(st.lists(COORD, min_size=dim, max_size=dim)))
    radius = draw(st.just(0.0) | st.floats(0.0, 1e150))
    where = draw(st.sampled_from(["anywhere", "centre", "sphere"]))
    v = center.copy()
    if where == "anywhere":
        v = np.array(draw(st.lists(COORD, min_size=dim, max_size=dim)))
    elif where == "sphere":
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        if np.linalg.norm(u) > 0.0:
            v = center + radius * (u / np.linalg.norm(u))
    return Ball(center, radius), v


@st.composite
def boxes_and_points(draw):
    """A non-empty box in R^1 to R^6 with bounds of any sign, zero or
    infinite, and a point whose coordinates lie anywhere or on a finite
    bound."""
    dim = draw(st.integers(1, 6))
    bound = st.floats(allow_nan=False) | st.sampled_from([-math.inf, math.inf, -0.0, 0.0])
    lower, upper, v = [], [], []
    for _ in range(dim):
        lo, hi = sorted((draw(bound), draw(bound)))
        assume(lo < math.inf and hi > -math.inf)  # else the box is empty
        on = draw(st.sampled_from([lo, hi, None]))
        v.append(on if on is not None and math.isfinite(on)
                 else draw(st.floats(allow_nan=False, allow_infinity=False)))
        lower.append(lo)
        upper.append(hi)
    return Box(lower, upper), np.array(v)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(case=balls_and_points())
def test_ball_kernel_is_bitwise_the_norm_form(case):
    ball, v = case
    assert ball._project(v).tobytes() == ball_projection_reference(ball, v).tobytes()


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(case=boxes_and_points())
def test_box_kernel_is_bitwise_clip(case):
    box, v = case
    assert box._project(v).tobytes() == box_projection_reference(box, v).tobytes()


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([np.nan], [1.0])
    # a lower bound of +inf or an upper bound of -inf admits no point; the
    # solve would otherwise fail far from the cause, on an overflowed prox
    with pytest.raises(ValueError, match="empty"):
        Box([math.inf, 0.0], [math.inf, 1.0])
    with pytest.raises(ValueError, match="empty"):
        Box([0.0, -math.inf], [1.0, -math.inf])


def test_halfspace_projection_and_support():
    h = Halfspace([1.0, 0.0], 2.0)  # x1 <= 2
    assert np.allclose(h.project([5.0, 1.0]), [2.0, 1.0])
    assert np.allclose(h.project([1.0, 1.0]), [1.0, 1.0])
    assert h.support([2.0, 0.0]) == pytest.approx(4.0)  # u = 2 * normal
    assert h.support([-1.0, 0.0]) == math.inf
    assert h.support([1.0, 0.5]) == math.inf  # off the normal ray
    assert h.support([0.0, 0.0]) == 0.0


def test_halfspace_rejects_non_finite_offset():
    # a non-finite offset makes project and support(0) NaN
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            Halfspace([1.0, 0.0], offset)


def test_affine_projection_and_support():
    # line (1, 0) + t (1, 1)
    line = AffineSet([1.0, 0.0], orthonormal_range(np.array([[1.0], [1.0]])))
    assert np.allclose(line.project([0.0, 2.0]), [1.5, 0.5], atol=1e-12)
    assert np.allclose(line.project([2.0, 1.0]), [2.0, 1.0], atol=1e-12)
    u_perp = np.array([1.0, -1.0])
    assert line.support(u_perp) == pytest.approx(1.0)
    assert line.support([1.0, 0.0]) == math.inf


def test_singleton():
    s = Singleton([2.0, -1.0])
    assert np.allclose(s.project([0.0, 0.0]), [2.0, -1.0])
    assert s.support([3.0, 1.0]) == pytest.approx(5.0)


def test_projection_lands_in_set_and_obtuse_angle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        c = random_set(rng, dim)
        x = 5.0 * rng.normal(size=dim)
        px = c.project(x)
        assert c.contains(px, 1e-10)
        for _ in range(100):
            inner = sample_in(c, rng)
            assert float((x - px) @ (inner - px)) <= 1e-10


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        c = random_set(rng, dim)
        x = 4.0 * rng.normal(size=dim)
        y = 4.0 * rng.normal(size=dim)
        assert np.linalg.norm(c.project(x) - c.project(y)) \
            <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("kind", ["ball", "halfspace"])
def test_membership_is_scale_free(kind):
    # far from the origin a projection is exact only to rounding of its
    # size: with centres of size 1e8, an absolute 1e-9 refused the
    # projection of a point within 1e3 in 21 (ball) and 16 (halfspace) of
    # these 200 draws
    rng = np.random.default_rng(0)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        center = 1e8 * rng.normal(size=dim)
        if kind == "ball":
            c = Ball(center, float(1e3 * rng.random()))
        else:
            normal = rng.normal(size=dim)
            c = Halfspace(normal, float(normal @ center))
        px = c.project(center + 1e3 * rng.normal(size=dim))
        assert c.contains(px)
        assert Indicator(c).value(px) == 0.0


def test_support_is_sup_over_members():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        c = random_compact_set(rng, dim)
        u = rng.normal(size=dim)
        sup = c.support(u)
        best = max(float(sample_in(c, rng) @ u) for _ in range(200))
        assert best <= sup + 1e-9
        # the sup is attained in direction u for these kinds
        far = c.project(c.project(np.zeros(dim)) + 1e6 * u)
        assert float(far @ u) >= sup - 1e-2


# ----------------------------------------------------- prox functions

def test_indicator_evaluate_tolerance():
    ind = Indicator(Ball([0.0], 1.0))
    assert ind.value([1.0 + 1e-10]) == 0.0
    assert ind.value([1.0 + 1e-3]) == math.inf


def test_indicator_prox_is_projection():
    ind = Indicator(Box([2.0], [3.0]))
    for lam in (0.1, 1.0, 10.0):
        assert np.allclose(ind.prox(lam, [0.0]), [2.0])


def test_support_prox_soft_threshold():
    # support of [-1, 1] is |.|; prox is the soft threshold
    f = Support(Box([-1.0], [1.0]))
    assert np.allclose(f.prox(1.0, [3.0]), [2.0])
    assert np.allclose(f.prox(1.0, [-3.0]), [-2.0])
    assert np.allclose(f.prox(1.0, [0.5]), [0.0])


def test_scaled_square():
    f = ScaledSquare(1.0, 2)
    assert f.value([3.0, 4.0]) == pytest.approx(12.5)
    assert np.allclose(f.prox(1.0, [3.0, 4.0]), [1.5, 2.0])
    conj = f.conjugate()
    assert isinstance(conj, ScaledSquare) and conj.weight == pytest.approx(1.0)
    g = ScaledSquare(4.0, 1)
    assert g.conjugate().weight == pytest.approx(0.25)


def test_scaled_square_conjugate_matches_direct_sup():
    rng = np.random.default_rng(37)
    f = ScaledSquare(2.0, 3)
    for _ in range(20):
        u = rng.normal(size=3)
        # sup_x <x,u> - f(x) attained at x = u / 2
        direct = max(
            float(x @ u) - f.value(x)
            for x in [u / 2.0] + [rng.normal(size=3) for _ in range(100)]
        )
        assert f.conjugate().value(u) == pytest.approx(direct, abs=1e-9)


def test_separable_sum_blockwise():
    f = SeparableSum((Indicator(Box([0.0], [1.0])), ScaledSquare(1.0, 2)))
    assert f.ambient_dim == 3
    assert np.allclose(f.prox(1.0, [2.0, 4.0, 6.0]), [1.0, 2.0, 3.0])
    assert f.value([0.5, 1.0, 1.0]) == pytest.approx(1.0)
    assert f.value([2.0, 1.0, 1.0]) == math.inf
    conj = f.conjugate()
    assert isinstance(conj.parts[0], Support)


def _part(rng, kind, dim):
    if kind == "box":
        box = random_box(rng, dim)
        lower = np.where(rng.random(dim) < 0.3, -math.inf, box.lower)
        upper = np.where(rng.random(dim) < 0.3, math.inf, box.upper)
        return (Support if rng.integers(2) else Indicator)(Box(lower, upper))
    if kind == "square":
        return ScaledSquare(float(rng.uniform(0.1, 10.0)), dim)
    if kind == "ball":
        ball = random_ball(rng, dim)
        if rng.random() < 0.2:
            ball = Ball(ball.center, 0.0)
        return (Support if rng.integers(2) else Indicator)(ball)
    return (Support if rng.integers(2) else Indicator)(random_halfspace(rng, dim))


@st.composite
def stacking_sums(draw):
    """A separable sum of one to twelve parts on blocks of two lengths in 1
    to 5: indicators and support functions of boxes with some infinite
    bounds, of balls (a fifth of radius 0) and of halfspaces, and scaled
    squares.  The "none" family holds no box or ball part, "boxes" and
    "balls" nothing else.  Also where the point of each ball block lies:
    at its centre, inside, outside or anywhere; "mixed" draws per block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mixed", "none", "boxes", "balls"]))
    kinds = {"mixed": ["box", "ball", "halfspace", "square"], "none": ["halfspace", "square"],
             "boxes": ["box"], "balls": ["ball"]}[family]
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    parts = tuple(_part(rng, kinds[int(rng.integers(len(kinds)))], dims[int(rng.integers(2))])
                  for _ in range(draw(st.integers(1, 12))))
    where = draw(st.sampled_from(["centre", "inside", "outside", "anywhere", "mixed"]))
    places = ["centre", "inside", "outside", "anywhere"]
    return SeparableSum(parts), [where if where != "mixed" else places[int(rng.integers(4))]
                                 for _ in parts]


def _point_for(part, where, lam, rng):
    """A block of the prox argument: for a ball part, one whose projected
    point (x for an indicator, x / lam for a support function) lies
    ``where`` with respect to the ball."""
    x = 3.0 * rng.normal(size=part.ambient_dim)
    ball = getattr(part, "set", None)
    if not isinstance(ball, Ball) or where == "anywhere":
        return x
    u = x / np.linalg.norm(x)
    point = {"centre": ball.center,
             "inside": ball.center + 0.5 * ball.radius * u,
             "outside": ball.center + (ball.radius + 1.0 + rng.random()) * u}[where]
    return lam * point if isinstance(part, Support) else point.copy()


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(case=stacking_sums(),
       lam=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e) | st.integers(-9, 9).map(lambda k: 2.0 ** k),
       seed=st.integers(0, 2**32 - 1))
def test_merged_box_prox_is_bitwise_the_parts_kernels(case, lam, seed):
    # the sum clamps the box parts of a kind and block length at once and
    # projects its ball parts of a kind and block length onto row-stacked
    # balls; both run the same floating-point operations as each part's own
    # kernel, so bit for bit.  A power-of-two step puts x / lam exactly at
    # a centre.
    f, where = case
    rng = np.random.default_rng(seed)
    blocks = [_point_for(part, w, lam, rng) for part, w in zip(f.parts, where)]
    blockwise = np.concatenate([part.prox(lam, x) for part, x in zip(f.parts, blocks)])
    assert f.prox(lam, np.concatenate(blocks)).tobytes() == blockwise.tobytes()


@pytest.mark.parametrize("m", [1, 2, 4, 150, 300])
def test_batched_row_dots_are_bitwise_the_row_dot(m):
    # the stacked ball projection takes each row's squared distance from one
    # batched (1, m) @ (m, 1) matmul; it is bit for bit Ball._project's
    # gap.dot(gap) only while numpy computes both the same way
    rng = np.random.default_rng(m)
    for k in range(1, 16):
        gap = rng.normal(size=(k, 1, m)) * np.logspace(-100, 100, k)[:, None, None]
        rows = gap @ gap.transpose(0, 2, 1)
        assert rows.ravel().tobytes() == np.array([g.dot(g) for g in gap[:, 0]]).tobytes()


def test_separable_sum_clamps_once_per_kind_of_box_part(monkeypatch):
    # three indicator and three support parts of boxes among balls and a
    # square: one prox clamps twice, once per kind, over all their coordinates
    box = Box([-1.0, 0.0], [1.0, math.inf])
    f = SeparableSum((Indicator(box), Support(Ball([0.0], 1.0)), Support(box),
                      Indicator(box), ScaledSquare(2.0, 3), Support(box), Indicator(box),
                      Support(box), Indicator(Ball([1.0, 1.0], 0.5))))
    sizes = []
    project = Box._project
    monkeypatch.setattr(Box, "_project", lambda b, v: sizes.append(v.size) or project(b, v))
    f.prox(0.5, np.ones(f.ambient_dim))
    assert sizes == [6, 6]


def _counted_projections(monkeypatch):
    """(class name, block size) of every Ball and stacked-ball projection."""
    calls = []
    for cls in (Ball, montouch.convex._BallRows):
        def counted(s, v, name=cls.__name__, project=cls._project):
            calls.append((name, v.size))
            return project(s, v)
        monkeypatch.setattr(cls, "_project", counted)
    return calls


def test_separable_sum_projects_once_per_group_of_ball_parts(monkeypatch):
    # six support parts of balls in R^3 among boxes and a square: one prox
    # projects once onto the six stacked balls and never onto one ball
    box = Box([-1.0, 0.0], [1.0, math.inf])
    balls = [Ball([float(i), -1.0, 2.0], 0.5 * i) for i in range(6)]
    f = SeparableSum((Support(balls[0]), Indicator(box), Support(balls[1]), Support(balls[2]),
                      ScaledSquare(2.0, 3), Support(balls[3]), Support(balls[4]),
                      Indicator(box), Support(balls[5])))
    calls = _counted_projections(monkeypatch)
    f.prox(0.5, np.linspace(-3.0, 3.0, f.ambient_dim))
    assert calls == [("_BallRows", 18)]


def test_a_lone_ball_part_and_a_ball_subclass_keep_the_ball_kernel(monkeypatch):
    # a group of one (one part per kind and block length) is not stacked,
    # nor is a subclass of Ball, whose projection may differ
    class Shell(Ball):
        pass

    f = SeparableSum((Support(Ball([0.0, 1.0, 2.0], 1.0)), Indicator(Ball([1.0, 1.0, 1.0], 0.5)),
                      Support(Ball([3.0, 0.0], 2.0)), Support(Shell([1.0, 1.0], 1.0)),
                      Support(Shell([0.0, 1.0], 1.0))))
    calls = _counted_projections(monkeypatch)
    f.prox(0.5, np.linspace(-3.0, 3.0, f.ambient_dim))
    assert calls == [("Ball", 3), ("Ball", 3), ("Ball", 2), ("Ball", 2), ("Ball", 2)]


def test_a_contiguous_group_is_gathered_through_a_slice():
    # a cycle's support sum is one run of blocks: its prox reads and writes
    # views, where interleaved parts need index arrays
    balls = tuple(Support(Ball([float(i), 1.0], 1.0)) for i in range(3))
    (_, block), = SeparableSum(balls)._prox_blocks
    assert block == slice(0, 6)
    split = SeparableSum(balls[:2] + (Indicator(Box([0.0], [1.0])),) + balls[2:])
    (_, index), _ = split._prox_blocks
    assert isinstance(index, np.ndarray) and index.tolist() == [0, 1, 2, 3, 5, 6]


def test_separable_sum_refuses_a_part_that_is_not_a_prox_function():
    # a set where its indicator belongs, or a plain number, is refused at
    # construction, with its index, not at the first prox
    with pytest.raises(TypeError, match=r"^parts\[1\] is not a ProxFunction$"):
        SeparableSum((Indicator(Box([0.0], [1.0])), Ball([0.0], 1.0)))
    with pytest.raises(TypeError, match=r"^parts\[0\] is not a ProxFunction$"):
        SeparableSum((3.0,))


def test_conjugate_pairs_roundtrip():
    ind = Indicator(Ball([1.0], 2.0))
    assert isinstance(ind.conjugate(), Support)
    assert isinstance(ind.conjugate().conjugate(), Indicator)


def test_prox_rejects_bad_step():
    f = ScaledSquare(1.0, 1)
    with pytest.raises(ValueError):
        f.prox(0.0, [1.0])
    with pytest.raises(ValueError):
        f.prox(-1.0, [1.0])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_prox_validates_at_the_boundary(name):
    f = FUNCTIONS[name]
    for bad in BAD_VECTORS.values():
        with pytest.raises(ValueError):
            f.prox(1.0, bad)
    for lam in BAD_STEPS:
        with pytest.raises(ValueError, match="step must be positive and finite"):
            f.prox(lam, [0.5, 1.0, 2.0])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
def test_value_validates_at_the_boundary(name, bad):
    with pytest.raises(ValueError):
        FUNCTIONS[name].value(BAD_VECTORS[bad])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_prox_equals_its_kernel(name):
    f = FUNCTIONS[name]
    rng = np.random.default_rng(61)
    for x in 3.0 * rng.normal(size=(20, 3)):
        for lam in (0.05, 1.0, 20.0):
            want = f._prox(lam, as_vector(x, dim=3)).tobytes()
            assert f.prox(lam, x).tobytes() == want
            assert f.prox(lam, x.tolist()).tobytes() == want


def test_prox_rejects_an_overflowing_step():
    # x / lam overflows inside the kernel; the answer must not come back NaN
    for f in (Support(Ball([0.0], 1.0)),
              SeparableSum((ScaledSquare(1.0, 1), Support(Halfspace([1.0], 1.0))))):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="is not finite"):
                f.prox(1e-320, np.ones(f.ambient_dim))


@pytest.fixture
def validations(monkeypatch):
    """The ``dim`` of every ``as_vector`` call the library makes."""
    calls = []

    def counted(x, dim=None):
        calls.append(dim)
        return as_vector(x, dim)

    for module in (montouch.convex, montouch.cycles, montouch.monotone, montouch.hilbert):
        monkeypatch.setattr(module, "as_vector", counted)
    return calls


def test_composite_prox_validates_once(validations):
    # Support(Ball) / Indicator(Box) parts validate no block of their own:
    # one call, one as_vector, where validating every part took 2k + 1.
    calls = validations
    parts = (Support(Ball([1.0, -1.0], 0.5)), Indicator(Box([0.0] * 3, [1.0] * 3)),
             Support(Ball([2.0], 1.0)), Indicator(Box([-1.0, -1.0], [0.0, 1.0])))
    f = SeparableSum(parts)
    x = np.linspace(-2.0, 3.0, f.ambient_dim)
    blockwise = np.concatenate([parts[0].prox(0.7, x[:2]), parts[1].prox(0.7, x[2:5]),
                                parts[2].prox(0.7, x[5:6]), parts[3].prox(0.7, x[6:])])
    calls.clear()
    assert np.array_equal(f.prox(0.7, x), blockwise)
    assert calls == [8]
    calls.clear()
    assert np.array_equal(SubdifferentialOracle(f).resolvent(0.7, x), blockwise)
    assert calls == [8]


def test_restricted_resolvent_validates_once_and_runs_kernels(validations, monkeypatch):
    # Dykstra's steps run fn's prox kernel on what the resolvent validated:
    # one as_vector per resolvent call and no public prox
    calls = validations
    prox_calls = []
    public_prox = ProxFunction.prox
    monkeypatch.setattr(ProxFunction, "prox",
                        lambda *args: prox_calls.append(1) or public_prox(*args))
    p = build_problem([Ball([0.0, 0.0], 1.0), Ball([6.0, 0.0], 1.0), Ball([3.0, 5.0], 1.0)])
    oracle = SubspaceRestrictedOracle(p.support_sum, p.range_space)
    x = np.linspace(-4.0, 5.0, oracle.dim)
    steps = []
    kernel = SeparableSum._prox
    monkeypatch.setattr(SeparableSum, "_prox",
                        lambda *args: steps.append(1) or kernel(*args))
    calls.clear()
    z = oracle.resolvent(0.7, x)
    assert calls == [6] and prox_calls == [] and len(steps) > 1
    assert np.abs(z.reshape(3, 2).sum(axis=0)).max() <= 1e-12


def test_restricted_resolvent_stops_at_an_overflowing_step(validations, monkeypatch):
    # x / lam overflows inside the Support kernel: the resolvent validates
    # once and raises the public prox's ValueError at the first step
    calls = validations
    steps = []
    kernel = Support._prox
    monkeypatch.setattr(Support, "_prox", lambda *args: steps.append(1) or kernel(*args))
    oracle = SubspaceRestrictedOracle(Support(Ball([0.0], 1.0)), orthonormal_range(np.eye(1)))
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="is not finite"):
            oracle.resolvent(1e-320, np.ones(1))
    assert calls == [1] and steps == [1]


def test_classical_cycle_validates_only_its_start(validations, monkeypatch):
    # the sweep runs each set's projection kernel on the start it validated
    # (none without a start): no public project
    calls = validations
    monkeypatch.setattr(ConvexSet, "project", lambda *args: pytest.fail("public project"))
    p = build_problem([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    calls.clear()
    assert np.array_equal(montouch.cycles.classical_cycle(p), [1.0, 0.0, 4.0, 0.0])
    assert calls == []
    assert np.array_equal(montouch.cycles.classical_cycle(p, start=[2.0, 0.0]),
                          [1.0, 0.0, 4.0, 0.0])
    assert calls == [2]


def test_composite_value_validates_once(validations, monkeypatch):
    # A sum of three support functions and its conjugate, a sum of three
    # indicators, validate once per value, where validating every part
    # took 2k + 1 (7 for three support parts).
    calls = validations
    sets = (Ball([1.0, -1.0], 0.5), Box([0.0] * 3, [1.0] * 3), Ball([2.0], 1.0))
    f = SeparableSum(tuple(Support(c) for c in sets))
    x = np.array([1.2, -0.9, 0.5, 1.0, 0.0, 2.5])
    calls.clear()
    assert f.value(x) == sets[0]._support(x[:2]) + sets[1]._support(x[2:5]) \
        + sets[2]._support(x[5:])
    assert calls == [6]
    calls.clear()
    assert f.conjugate().value(x) == 0.0
    assert calls == [6]
    calls.clear()
    # the first block lies outside its ball, so the sum stops there
    monkeypatch.setattr(Box, "_contains", lambda *args: pytest.fail("no early exit"))
    assert f.conjugate().value(x + 1.0) == math.inf
    assert calls == [6]


def test_prox_optimality_sampled():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        f = random_prox_function(rng, dim)
        lam = float(10.0 ** rng.uniform(-1, 1))
        x = 3.0 * rng.normal(size=dim)
        z = f.prox(lam, x)
        fz = f.value(z)
        assert math.isfinite(fz)
        obj = fz + float((z - x) @ (z - x)) / (2.0 * lam)
        for _ in range(50):
            w = z + rng.normal(size=dim)
            fw = f.value(w)
            if math.isfinite(fw):
                assert obj <= fw + float((w - x) @ (w - x)) / (2.0 * lam) + 1e-9


def test_prox_firmly_nonexpansive_sampled():
    rng = np.random.default_rng(43)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        f = random_prox_function(rng, dim)
        lam = float(10.0 ** rng.uniform(-1, 1))
        for _ in range(25):
            x = 3.0 * rng.normal(size=dim)
            y = 3.0 * rng.normal(size=dim)
            px = f.prox(lam, x)
            py = f.prox(lam, y)
            lhs = float((px - py) @ (px - py))
            rhs = float((px - py) @ (x - y))
            assert lhs <= rhs + 1e-10


def test_moreau_identity_sampled():
    rng = np.random.default_rng(47)
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        f = random_prox_function(rng, dim)
        conj = f.conjugate()
        lam = float(10.0 ** rng.uniform(-1, 1))
        x = 3.0 * rng.normal(size=dim)
        lhs = f.prox(lam, x) + lam * conj.prox(1.0 / lam, x / lam)
        assert np.linalg.norm(lhs - x) <= 1e-10


@settings(deadline=None, derandomize=True, database=None)
@given(f=set_prox_functions(), lam=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_prox_firmly_nonexpansive_property(f, lam, seed):
    # <Jx - Jy, x - y> >= ||Jx - Jy||^2 for J = prox_{lam f}
    x, y = 3.0 * np.random.default_rng(seed).normal(size=(2, f.ambient_dim))
    gap = f.prox(lam, x) - f.prox(lam, y)
    assert float(gap @ gap) <= float(gap @ (x - y)) + 1e-10 * float((x - y) @ (x - y))


@settings(deadline=None, derandomize=True, database=None)
@given(f=set_prox_functions(), lam=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_moreau_identity_property(f, lam, seed):
    # prox_{lam f}(x) + lam prox_{f*/lam}(x / lam) = x
    x = 3.0 * np.random.default_rng(seed).normal(size=f.ambient_dim)
    lhs = f.prox(lam, x) + lam * f.conjugate().prox(1.0 / lam, x / lam)
    assert np.linalg.norm(lhs - x) <= 1e-10 * max(1.0, float(np.linalg.norm(x)))


def test_fenchel_young_sampled():
    rng = np.random.default_rng(53)
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        f = random_prox_function(rng, dim)
        x = 2.0 * rng.normal(size=dim)
        u = 2.0 * rng.normal(size=dim)
        fx = f.value(x)
        fu = f.conjugate().value(u)
        if math.isfinite(fx) and math.isfinite(fu):
            assert fx + fu >= float(x @ u) - 1e-9
