"""Product-space cycles: construction invariants, frozen instances, identities."""

import math

import numpy as np
import pytest

from montouch import (
    Ball,
    Box,
    CycleSolution,
    DegenerateProblemError,
    Halfspace,
    Singleton,
    SingularOperatorError,
    build_problem,
    classical_cycle,
    generalized_cycle,
    invert,
    orthonormal_range,
    touch,
    verify_identities,
)
from helpers import (cyclic_shift, dense, isometry_defect, random_compact_set,
                     top_sym_eigenvalue)
from montouch import monotone
from montouch.cycles import touching_pair
from montouch.hilbert import form_eigenvalues


def two_ball_problem():
    return build_problem([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])


def two_ball_oracle():
    """Nearest-pair geometry of the two balls, computed directly."""
    c1, r1 = np.array([0.0, 0.0]), 1.0
    c2, r2 = np.array([5.0, 0.0]), 1.0
    axis = (c2 - c1) / np.linalg.norm(c2 - c1)
    x1 = c1 + r1 * axis
    x2 = c2 - r2 * axis
    d = np.concatenate([x2 - x1, x1 - x2])
    e = np.concatenate([(x1 - x2) / 2.0, (x2 - x1) / 2.0])
    return x1, x2, d, e


# -------------------------------------------------------- construction

def test_cyclic_shift_two_blocks():
    r = cyclic_shift(2, 1)
    assert np.array_equal(r, [[0.0, 1.0], [1.0, 0.0]])
    s = r - np.eye(2)
    assert np.array_equal(s, [[-1.0, 1.0], [1.0, -1.0]])


def test_cyclic_shift_moves_blocks():
    r = cyclic_shift(3, 2)
    x = np.arange(6.0)
    assert np.array_equal(r @ x, [4.0, 5.0, 0.0, 1.0, 2.0, 3.0])


def test_build_problem_two_points_on_line():
    p = build_problem([Singleton([0.0]), Singleton([5.0])])
    assert np.allclose(dense(p.displacement), [[-1.0, 1.0], [1.0, -1.0]])
    assert p.range_space.rank == 1
    # S is -2 on its range span{(1, -1)}; T is -2 on the constants as well,
    # so Q = T^{-1} = -I/2
    assert p.q.shape == (2, 2)
    assert np.allclose(dense(p.q), -0.5 * np.eye(2), atol=1e-12)


def test_build_problem_rank_and_isometry():
    for n, m in [(2, 1), (2, 3), (3, 2), (5, 3)]:
        sets = [Ball(np.zeros(m), 1.0) for _ in range(n)]
        p = build_problem(sets)
        assert p.range_space.rank == (n - 1) * m
        shift = dense(p.displacement) + np.eye(n * m)
        assert np.abs(shift - cyclic_shift(n, m)).max() <= 1e-12
        assert isometry_defect(shift) <= 1e-12
        # constant block vectors span the kernel of the displacement
        c = np.tile(np.arange(1.0, m + 1.0), n)
        assert np.linalg.norm(p.range_space.project(c)) <= 1e-12
        assert np.linalg.norm(p.displacement @ c) <= 1e-12


@pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3)])
def test_product_space_operators_match_dense_references(n, m):
    p = build_problem([Ball(np.zeros(m), 1.0) for _ in range(n)])
    r = cyclic_shift(n, m)
    s = r - np.eye(n * m)
    block_mean = np.kron(np.full((n, n), 1.0 / n), np.eye(m))
    basis = orthonormal_range(s).basis
    # T = S - 2 (block mean) is S on ran S and -2 on the block-constant vectors
    t = s - 2.0 * block_mean
    pairs = [
        (p.displacement, s),
        (p.q, np.linalg.inv(t)),
        (p.q, np.linalg.pinv(s) - 0.5 * block_mean),
    ]
    for op, reference in pairs:
        assert np.abs(dense(op) - reference).max() <= 1e-12
        # ||op||^2 and the top of sym(op), read from op's spectrum by its form
        form = form_eigenvalues(op)
        assert math.sqrt(form(0.0, 0.0, 1.0).max()) == pytest.approx(
            np.linalg.norm(reference, 2), abs=1e-12)
        assert form(0.0, 0.5, 0.0).max() == pytest.approx(
            top_sym_eigenvalue(reference), abs=1e-12)
    # R = S + I is the block cyclic shift
    assert np.abs(dense(p.displacement) + np.eye(n * m) - r).max() <= 1e-12
    # fixed_point's hypothesis <x, Tx> + lam ||Tx||^2 <= 0 at lam = 1/2 holds
    # with equality
    form = 0.5 * (t + t.T) + 0.5 * (t.T @ t)
    assert np.abs(form).max() <= 1e-12
    with pytest.raises(SingularOperatorError):
        invert(s)
    # invert takes dense matrices only; a circulant is refused
    with pytest.raises(ValueError):
        invert(p.displacement)
    projection = np.column_stack(
        [p.range_space.project(col) for col in np.eye(n * m)])
    assert np.abs(projection - basis @ basis.T).max() <= 1e-12


def test_build_problem_quadratic_identity_sampled():
    p = build_problem([Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [1.0, 1.0])])
    rng = np.random.default_rng(3)
    s = p.displacement
    for _ in range(1000):
        x = rng.normal(size=4)
        sx = s @ x
        assert abs(float(x @ sx) + 0.5 * float(sx @ sx)) <= 1e-10 * float(x @ x)


def test_build_problem_rejects_degenerate_input():
    with pytest.raises(DegenerateProblemError):
        build_problem([Ball([0.0], 1.0)])
    with pytest.raises(ValueError):
        build_problem([Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)])
    with pytest.raises(ValueError):
        build_problem([Ball([0.0], 1.0), "not a set"])


def test_isometry_defect_values():
    assert isometry_defect(np.eye(3)) == 0.0
    assert isometry_defect(2.0 * np.eye(2)) == pytest.approx(3.0)
    assert isometry_defect(cyclic_shift(4, 2)) <= 1e-15


# ------------------------------------------------------------- solving

def test_two_ball_generalized_cycle_matches_geometry():
    p = two_ball_problem()
    _, _, d_expected, e_expected = two_ball_oracle()
    sol = generalized_cycle(p)
    assert np.linalg.norm(sol.d - d_expected) <= 1e-7
    assert np.linalg.norm(sol.e - e_expected) <= 1e-7
    assert verify_identities(p, sol).passed


def test_two_ball_cycle_is_one_exact_step():
    # N = 2 gives Q = -I/2, so the certified step gamma = lam / beta^2 = 2
    # makes I + gamma Q = 0 and rho = 0: the first resolvent is the answer
    p = two_ball_problem()
    _, _, d_expected, e_expected = two_ball_oracle()
    sol = generalized_cycle(p)
    assert sol.iterations == 1
    assert np.array_equal(sol.d, d_expected)
    assert np.array_equal(sol.e, e_expected)
    assert verify_identities(p, sol).residuals["error_bound"] == 0.0


def test_cycle_keeps_the_closed_form_step():
    # sym(Q) = -I/2 on every mode of the normal circulant Q = T^{-1}, so
    # ||I + gamma Q||^2 = 1 - gamma + gamma^2 ||Q||^2 and the step lam / beta^2
    # = 2 sin^2(pi/N) is its exact minimiser, with rho = cos(pi/N).  N equal
    # singletons have the gap vector 0, so the start 0 is already the answer.
    for n in range(2, 21):
        p = build_problem([Singleton([0.0, 0.0])] * n)
        oracle, q = touching_pair(p)
        res = touch(oracle, q, 0.5)
        assert res.iterations == 0
        assert res.gamma == pytest.approx(2.0 * math.sin(math.pi / n) ** 2, abs=1e-12)
        assert res.rho == pytest.approx(math.cos(math.pi / n), abs=1e-12)
        assert verify_identities(p, CycleSolution(e=res.e, d=res.d)).passed
    assert res.rho > 0.98  # N = 20
    p = build_problem([Singleton([0.0])] * 2)
    assert touch(*touching_pair(p), 0.5).rho == 0.0


def test_two_ball_classical_cycle():
    p = two_ball_problem()
    x1, x2, _, _ = two_ball_oracle()
    x = classical_cycle(p)
    assert x is not None
    assert np.linalg.norm(x - np.concatenate([x1, x2])) <= 1e-7


def test_cycle_solution_structural_invariants():
    p = two_ball_problem()
    sol = generalized_cycle(p)
    assert np.linalg.norm(sol.d - p.displacement @ sol.e) <= 1e-9
    assert np.linalg.norm(sol.e - p.range_space.project(sol.e)) <= 1e-9


def test_identical_sets_give_zero_cycle():
    ball = Ball([2.0, -1.0], 1.5)
    p = build_problem([ball, ball, ball])
    sol = generalized_cycle(p)
    assert np.linalg.norm(sol.d) <= 1e-8
    assert np.linalg.norm(sol.e) <= 1e-8


def test_two_singletons_on_line():
    p = build_problem([Singleton([0.0]), Singleton([5.0])])
    sol = generalized_cycle(p)
    assert np.allclose(sol.d, [5.0, -5.0], atol=1e-8)
    assert np.allclose(sol.e, [-2.5, 2.5], atol=1e-8)


def test_halfspace_classical_cycle():
    # x <= 0 and x >= 1 on the line; the sweep settles at (0, 1)
    p = build_problem([Halfspace([1.0], 0.0), Halfspace([-1.0], -1.0)])
    x = classical_cycle(p)
    assert x is not None
    assert np.allclose(x, [0.0, 1.0], atol=1e-10)


def test_classical_cycle_returns_none_at_cap():
    # overlapping balls near tangency make the sweep crawl
    p = build_problem([Ball([0.0, 0.0], 1.0), Ball([1.999, 0.0], 1.0)])
    assert classical_cycle(p, start=[0.0, 5.0], max_iter=3) is None


def test_shift_match_and_range_projection():
    # S x = S e and e = projection of x onto the range, on random instances
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        p = build_problem([random_compact_set(rng, m) for _ in range(n)])
        sol = generalized_cycle(p)
        x = classical_cycle(p, tol=1e-12)
        if x is None:
            continue
        se = p.displacement @ sol.e
        assert np.linalg.norm(p.displacement @ x - se) \
            <= 1e-6 * max(1.0, np.linalg.norm(se))
        assert np.linalg.norm(sol.e - p.range_space.project(x)) <= 1e-6


def test_relabelled_family_shifts_the_gap_vector():
    rng = np.random.default_rng(9)
    sets = [random_compact_set(rng, 2) for _ in range(3)]
    p = build_problem(sets)
    sol = generalized_cycle(p)
    rotated = build_problem(sets[1:] + sets[:1])
    sol_rot = generalized_cycle(rotated)
    # relabelling C_i -> C_{i+1} shifts blocks one step backwards
    back = (dense(p.displacement) + np.eye(sol.d.size)).T
    assert np.linalg.norm(sol_rot.d - back @ sol.d) <= 1e-6
    assert np.linalg.norm(sol_rot.e - back @ sol.e) <= 1e-6


# ---------------------------------------------------------- identities

def test_two_ball_identities_with_exact_arithmetic():
    p = two_ball_problem()
    x1, x2, d, _ = two_ball_oracle()
    x = np.concatenate([x1, x2])
    sx = p.displacement @ x
    assert np.allclose(sx, d, atol=1e-12)
    # support values at the gap vector, by the closed forms
    assert p.sets[0].support(sx[:2]) == pytest.approx(3.0, abs=1e-12)
    assert p.sets[1].support(sx[2:]) == pytest.approx(-12.0, abs=1e-12)
    conj = p.support_sum.value(sx)
    assert conj == pytest.approx(-9.0, abs=1e-12)
    energy = conj + 0.5 * float(sx @ sx) + p.support_sum.conjugate().value(x)
    assert abs(energy) <= 1e-9


def test_verify_identities_two_ball_report():
    p = two_ball_problem()
    sol = generalized_cycle(p)
    sol.classical_cycle = classical_cycle(p)
    report = verify_identities(p, sol)
    assert report.passed
    assert report.residuals["classical_shift_gap"] <= report.thresholds["classical_shift_gap"]
    assert set(report.residuals) == {"error_bound", "range_membership",
                                     "classical_shift_gap"}
    assert report.residuals["error_bound"] <= report.thresholds["error_bound"]
    # one exact step, rho = 0
    assert report.residuals["error_bound"] == 0.0
    assert report.thresholds["error_bound"] == 1e-6 * np.linalg.norm(sol.d)


def test_verify_identities_flags_perturbed_solution():
    p = two_ball_problem()
    sol = generalized_cycle(p)
    sol.classical_cycle = classical_cycle(p)
    e_good = sol.e
    # a shift off the range of S is caught by the membership residual
    sol.e = e_good + 1e-3
    report = verify_identities(p, sol)
    assert not report.passed
    assert report.residuals["range_membership"] > 1e-9
    # a shift inside the range is caught by the classical gap
    sol.e = e_good + 1e-3 * np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    report = verify_identities(p, sol)
    assert not report.passed
    # without a classical cycle, the derived error bound alone catches it
    sol.classical_cycle = None
    sol.e = e_good + 1e-5 * np.array([0.0, 1.0, 0.0, -1.0]) / np.sqrt(2.0)
    report = verify_identities(p, sol)
    assert not report.passed
    assert [k for k in report.residuals
            if report.residuals[k] > report.thresholds[k]] == ["error_bound"]


def test_energy_identity_separates_cycles_from_noncycles():
    # intersecting family: a common point is a cycle, other feasible points not
    p = build_problem([Ball([0.0, 0.0], 2.0), Ball([1.0, 0.0], 2.0)])
    sol = generalized_cycle(p)
    assert np.linalg.norm(sol.d) <= 1e-8

    common = np.array([0.5, 0.0])
    x_cycle = np.concatenate([common, common])
    indicator_sum = p.support_sum.conjugate()
    energy = p.support_sum.value(p.displacement @ x_cycle) \
        + 0.5 * float(np.linalg.norm(p.displacement @ x_cycle) ** 2) \
        + indicator_sum.value(x_cycle)
    assert abs(energy) <= 1e-8

    x_bad = np.concatenate([np.array([0.0, 1.0]), np.array([1.0, -1.0])])
    assert indicator_sum.value(x_bad) == 0.0  # feasible blocks
    sx = p.displacement @ x_bad
    assert np.linalg.norm(sx - p.displacement @ sol.e) > 1e-3
    energy_bad = p.support_sum.value(sx) + 0.5 * float(sx @ sx)
    assert energy_bad > 1e-6


def test_verify_identities_without_classical_cycle(monkeypatch):
    p = two_ball_problem()
    sol = generalized_cycle(p)
    calls, real = [], monotone.SubspaceRestrictedOracle.resolvent

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier samples nothing")

    monkeypatch.setattr(monotone.SubspaceRestrictedOracle, "resolvent", counted)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    report = verify_identities(p, sol)
    assert report.passed
    assert len(calls) == 1
    assert "classical_shift_gap" not in report.residuals


# ------------------------------------------------------- the certificate

def five_ball_problem():
    rng = np.random.default_rng(5)
    return build_problem([Ball(rng.normal(size=2) * 3, 1.0) for _ in range(5)])


def in_range_direction(p, seed):
    delta = p.range_space.project(np.random.default_rng(seed).normal(
        size=p.range_space.ambient_dim))
    return delta / np.linalg.norm(delta)


def test_verify_identities_has_no_false_pass():
    # a gamma = 1 inclusion residual ||prox_g(Se + e) - Se|| is no distance
    # bound: here it reads 0.9x the pass threshold while Se lies 1.56x the
    # threshold from the exact gap vector; the derived bound fails it
    p = five_ball_problem()
    sol = generalized_cycle(p, tol=1e-13)
    delta = in_range_direction(p, 0)

    def unit_residual(e):
        se = p.displacement @ e
        back = touching_pair(p)[0].resolvent(1.0, se + e)
        return float(np.linalg.norm(back - se)), 1e-6 * max(1.0, np.linalg.norm(se))

    probe, _ = unit_residual(sol.e + 1e-5 * delta)
    threshold = 1e-6 * max(1.0, np.linalg.norm(sol.d))
    e = sol.e + 0.9 * threshold * 1e-5 / probe * delta
    residual, threshold = unit_residual(e)
    assert 0.85 * threshold <= residual <= threshold

    report = verify_identities(p, CycleSolution(e=e, d=p.displacement @ e))
    distance = np.linalg.norm(p.displacement @ e - sol.d)
    assert distance > 1.5 * threshold
    assert not report.passed
    assert report.residuals["error_bound"] >= distance


def test_verify_identities_bound_covers_the_true_error():
    # the reference e = P_{ran S} x of a classical cycle x is cheap at any N
    # and certified by its own derived bound, so by the triangle inequality
    # ||Se' - Se|| <= bound(e') + bound(e) whatever the exact gap vector is
    rng = np.random.default_rng(11)
    for n in (3, 5, 6, 10, 20):
        p = build_problem([random_compact_set(rng, 2) for _ in range(n)])
        tight = p.range_space.project(classical_cycle(p, tol=1e-14))
        reference = verify_identities(
            p, CycleSolution(e=tight, d=p.displacement @ tight))
        assert reference.passed, n
        for seed in range(3):
            e = tight + 1e-4 * in_range_direction(p, seed)
            report = verify_identities(p, CycleSolution(e=e, d=p.displacement @ e))
            distance = np.linalg.norm(p.displacement @ (e - tight))
            assert distance <= (report.residuals["error_bound"]
                                + reference.residuals["error_bound"]), n


def test_verify_identities_certifies_caller_built_solutions():
    p = five_ball_problem()
    sol = generalized_cycle(p)
    built = verify_identities(p, CycleSolution(e=sol.e, d=sol.d))
    assert built.passed
    assert built.residuals["error_bound"] <= built.thresholds["error_bound"]
    assert built.residuals == verify_identities(p, sol).residuals
    e = sol.e + 1e-4 * in_range_direction(p, 1)
    assert not verify_identities(p, CycleSolution(e=e, d=p.displacement @ e)).passed
