"""Touching-point solver: small frozen problems and the solver contracts."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from montouch import (
    Ball,
    Box,
    ConvergenceError,
    Indicator,
    LinearMonotoneOracle,
    PreconditionError,
    ResolventOracle,
    SingularOperatorError,
    SubdifferentialOracle,
    build_problem,
    classical_cycle,
    fixed_point,
    generalized_cycle,
    invert,
    is_mu_unmonotone,
    modulus_from_lambda,
    touch,
    verify_touch,
)
from montouch import hilbert, monotone, touching
from montouch.cycles import touching_pair
from montouch.hilbert import form_eigenvalues
from montouch.monotone import certified_lambda
from helpers import (
    dense,
    forward_backward_step_norms,
    gate_matrix_with_norm,
    mixed_block_sum,
    random_gate_matrix,
    random_monotone_matrix,
    random_prox_function,
    random_touch_instance,
    top_sym_eigenvalue,
)


class ShiftedAbsOracle(ResolventOracle):
    """Subdifferential of |. - 2| on the line, via the shifted soft threshold."""

    dim = 1

    def resolvent(self, lam, x):
        v = float(np.asarray(x, dtype=float)[0]) - 2.0
        return np.array([math.copysign(max(abs(v) - lam, 0.0), v) + 2.0])


def shifted_abs_subgradient(y):
    """The set boundary values of the subdifferential of |. - 2| at y."""
    if y < 2.0:
        return (-1.0, -1.0)
    if y > 2.0:
        return (1.0, 1.0)
    return (-1.0, 1.0)


def test_grid_oracle_for_shifted_abs_touching_point():
    # independent check that -y in subdiff |y - 2| only at y = 1
    best = None
    for y in np.linspace(-5.0, 5.0, 100001):
        lo, hi = shifted_abs_subgradient(y)
        dist = max(lo - (-y), (-y) - hi, 0.0)
        if best is None or dist < best[1]:
            best = (y, dist)
    assert best[0] == pytest.approx(1.0, abs=1e-4)
    assert best[1] <= 1e-4


def test_touch_shifted_abs():
    res = touch(ShiftedAbsOracle(), [[-1.0]], 0.5)
    assert res.d == pytest.approx(1.0, abs=1e-9)
    assert res.e == pytest.approx(-1.0, abs=1e-9)
    # Q = -I: lam = beta = 1, so gamma = 1 and rho = 0 even though the gate
    # is only asked for lam = 1/2
    assert res.gamma == 1.0
    assert res.rho == 0.0
    assert res.graph_residual <= 1e-9


def test_touch_normal_cone_of_interval():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    res = touch(oracle, [[-1.0]], 0.5)
    assert res.d == pytest.approx(2.0, abs=1e-9)
    assert res.e == pytest.approx(-2.0, abs=1e-9)


def test_touch_graph_residual_invariant():
    rng = np.random.default_rng(83)
    for _ in range(10):
        dim = int(rng.integers(1, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
        res = touch(oracle, q, 0.5)
        assert np.linalg.norm(res.e - q @ res.d) <= 1e-9 * max(1.0, np.linalg.norm(res.d))
        assert res.graph_residual <= 1e-8 * max(1.0, np.linalg.norm(res.d))


def test_touch_independent_of_start():
    rng = np.random.default_rng(89)
    q = random_gate_matrix(rng, 4, lam=0.5)
    oracle = SubdifferentialOracle(Indicator(Box([-1.0] * 4, [1.0] * 4)))
    base = touch(oracle, q, 0.5)
    for _ in range(5):
        other = touch(oracle, q, 0.5, start=3.0 * rng.normal(size=4))
        assert np.linalg.norm(other.d - base.d) <= 1e-8


def test_touch_gate_failure():
    with pytest.raises(PreconditionError):
        touch(ShiftedAbsOracle(), [[-1.0]], 2.0)


def test_touch_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        touch(ShiftedAbsOracle(), -np.eye(2), 0.5)


def test_touch_iteration_cap():
    # the step solves every Q = -lam I in R^1 at once, so the cap is shown on
    # a rotation: Q = [[-1/2, 1], [-1, -1/2]] has rho = ||I + gamma Q|| > 0.89
    # at every step
    oracle = SubdifferentialOracle(Indicator(Box([2.0, 2.0], [3.0, 3.0])))
    q = [[-0.5, 1.0], [-1.0, -0.5]]
    assert touch(oracle, q, 0.5).iterations > 2
    with pytest.raises(ConvergenceError) as info:
        touch(oracle, q, 0.5, max_iter=2, tol=1e-14)
    assert info.value.iterations == 2
    assert math.isfinite(info.value.residual)
    with pytest.raises(ValueError, match="max_iter"):
        touch(ShiftedAbsOracle(), [[-1.0]], 0.5, max_iter=0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_every_solver_refuses_a_bad_tol(tol):
    # nan and -1 ran to the cap ("last residual 0.000e+00"), inf returned
    # the start point and classical_cycle returned None
    oracle = SubdifferentialOracle(Indicator(Ball([3.0, 0.0], 1.0)))
    problem = build_problem([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    calls = (
        lambda: touch(oracle, -np.eye(2), 0.5, tol=tol, max_iter=2000),
        lambda: fixed_point(oracle, -np.eye(2), 0.5, tol=tol, max_iter=2000),
        lambda: generalized_cycle(problem, tol=tol, max_iter=2000),
        lambda: classical_cycle(problem, tol=tol, max_iter=2000),
    )
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("max_iter", [0, -3])
def test_every_solver_refuses_a_cap_below_one(max_iter):
    # classical_cycle returned None here, as if its sweep had not settled
    oracle = SubdifferentialOracle(Indicator(Ball([3.0, 0.0], 1.0)))
    problem = build_problem([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    calls = (
        lambda: touch(oracle, -np.eye(2), 0.5, max_iter=max_iter),
        lambda: fixed_point(oracle, -np.eye(2), 0.5, max_iter=max_iter),
        lambda: generalized_cycle(problem, max_iter=max_iter),
        lambda: classical_cycle(problem, max_iter=max_iter),
    )
    for call in calls:
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            call()


def test_touch_refuses_a_q_no_step_contracts():
    # lam = 1e-9 against ||Q|| = 1: the smallest rho^2 = 1 - 1e-18 rounds to
    # 1, so no step certifies anything; Q = 0 is within the gate's slack of
    # lam = 1e-13, but its top symmetric eigenvalue 0 is not negative, so
    # the gate itself refuses it
    oracle = SubdifferentialOracle(Indicator(Box([0.0, 0.0], [1.0, 1.0])))
    with pytest.raises(ValueError, match=r"rho = \|\|I \+ gamma Q\|\| is 1\.0+e\+00") as info:
        touch(oracle, [[-1e-9, 1.0], [-1.0, -1e-9]], 1e-9)
    assert "interval" not in str(info.value)
    with pytest.raises(PreconditionError, match="eigenvalue 0.000000e\\+00"):
        touch(ShiftedAbsOracle(), [[0.0]], 1e-13)


def test_touch_takes_no_step_option():
    # the step and rho come from Q alone; the caller sets only the gate,
    # the stop and the start
    assert list(inspect.signature(touch).parameters) == [
        "oracle", "q", "lam", "tol", "max_iter", "start"]


def test_touch_raises_on_non_finite_iterate():
    class ConstantOracle(ResolventOracle):
        dim = 1

        def __init__(self, value):
            self.value = value

        def resolvent(self, lam, x):
            return np.array([self.value])

    for value in (math.inf, math.nan):
        with pytest.raises(ConvergenceError, match="non-finite") as info:
            touch(ConstantOracle(value), [[-1.0]], 0.5)
        assert info.value.iterations == 1


def test_touch_error_bound_covers_true_error():
    # the true error of a loose solve can far exceed its raw residual; the
    # certified bound ||F(d) - d|| / (1 - rho) must still cover it
    rng = np.random.default_rng(7)
    for _ in range(100):
        oracle, q = random_touch_instance(rng)
        loose = touch(oracle, q, 0.5, tol=1e-4)
        tight = touch(oracle, q, 0.5, tol=1e-13)
        gap = float(np.linalg.norm(loose.d - tight.d))
        assert gap <= loose.error_bound + tight.error_bound


def test_touch_stops_within_its_error_bound():
    # touch stops on the bound ||F(y) - y|| / (1 - rho) <= tol max(1, ||y||)
    # it returns: the certified bound at the stop must meet tol itself, also
    # where rho is close to 1
    rng = np.random.default_rng(7)
    instances = [random_touch_instance(rng) for _ in range(100)]
    rng = np.random.default_rng(31)
    for _ in range(12):
        dim = int(rng.integers(4, 25))
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
        instances.append((oracle, gate_matrix_with_norm(rng, dim, lam=0.5, norm=3.0)))
    for tol in (1e-6, 1e-10):
        for oracle, q in instances:
            res = touch(oracle, q, 0.5, tol=tol)
            assert res.error_bound <= tol * max(1.0, float(np.linalg.norm(res.d)))


@settings(deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_step_norm_gates_and_certifies(seed):
    # on a dense, generally non-normal Q the step minimises
    # rho = ||I + gamma Q||, so it does no worse than lam / beta^2, whose
    # rho the bound sqrt(1 - lam^2 / beta^2) covers; the solve converges
    # within its bound
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))  # in R^1 every gate matrix is -lam
    q = gate_matrix_with_norm(rng, dim, lam=0.5, norm=float(rng.uniform(0.6, 4.0)))
    if rng.integers(2):
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
    else:
        oracle = SubdifferentialOracle(random_prox_function(rng, dim))
    beta = float(np.linalg.norm(q, 2))
    gamma0 = 0.5 / beta**2
    rho0 = float(np.linalg.norm(np.eye(dim) + gamma0 * q, 2))
    assert rho0 <= math.sqrt(1.0 - 0.25 / beta**2) + 1e-12
    res = touch(oracle, q, 0.5, tol=1e-8)
    tight = touch(oracle, q, 0.5, tol=1e-12)
    assert res.rho == pytest.approx(
        float(np.linalg.norm(np.eye(dim) + res.gamma * q, 2)), abs=1e-12)
    assert res.rho <= rho0 + 1e-12
    assert res.error_bound <= 1e-8 * max(1.0, float(np.linalg.norm(res.d)))
    assert np.linalg.norm(res.d - tight.d) <= res.error_bound + tight.error_bound


def test_touch_contraction_bound_linear_instances():
    rng = np.random.default_rng(97)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        q = random_gate_matrix(rng, dim, lam=0.5)
        oracle = LinearMonotoneOracle(random_monotone_matrix(rng, dim))
        start = rng.normal(size=dim)
        beta = float(np.linalg.norm(q, 2))
        # random_gate_matrix puts the top symmetric eigenvalue of Q at -1/2
        gamma0 = 0.5 / beta**2
        bound0 = math.sqrt(1.0 - 2.0 * gamma0 * 0.5 + gamma0**2 * beta**2)
        # F iterated at touch's step against its factor ||I + gamma Q||, then
        # at the step lam / beta^2 against the bound, which its factor never
        # exceeds
        auto = touch(oracle, q, 0.5, start=start)
        rho0 = float(np.linalg.norm(np.eye(dim) + gamma0 * q, 2))
        assert auto.rho <= rho0 + 1e-12
        assert rho0 <= bound0 + 1e-12
        rho = float(np.linalg.norm(np.eye(dim) + auto.gamma * q, 2))
        assert auto.rho == pytest.approx(rho, abs=1e-12)
        touched = forward_backward_step_norms(oracle, q, auto.gamma, start, auto.rho)
        plain = forward_backward_step_norms(oracle, q, gamma0, start, rho0)
        for steps, bound in ((touched, auto.rho), (plain, bound0)):
            for a, b in zip(steps, steps[1:]):
                if a > 1e-12 and b > 1e-12:
                    assert b / a <= bound + 0.05


def _mixed_touch_problem(seed, n_parts):
    rng = np.random.default_rng(seed)
    f = mixed_block_sum(rng, n_parts)
    return SubdifferentialOracle(f), gate_matrix_with_norm(rng, f.ambient_dim, 0.5, 3.0)


def _bracket_problem(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 13))
    return gate_matrix_with_norm(rng, dim, lam=0.5, norm=float(rng.uniform(0.6, 6.0)))


@settings(deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=513)
def test_step_search_bracket_holds_the_minimiser(seed):
    # rho >= |1 - gamma lam| and rho >= gamma beta - 1 put every step that
    # beats gamma0 = lam / beta^2 in [(1 - rho0) / lam, (1 + rho0) / beta],
    # so a dense grid's minimiser of rho over (0, 2 / lam) lies there, and
    # the cutting-plane search within it comes near the grid's 1 - rho:
    # within 1%, where seed 800 (99.38%) is the worst of seeds 0-1999; seed
    # 513 has a kinked rho at its minimiser
    q = _bracket_problem(seed)
    dim = q.shape[0]
    lam, beta = -top_sym_eigenvalue(q), float(np.linalg.norm(q, 2))
    gamma0 = lam / beta ** 2
    # rho0 as the search computes it, so that res.rho <= rho0 holds exactly
    form = form_eigenvalues(q)
    rho0 = math.sqrt(max(0.0, float(form(1.0, gamma0, gamma0 * gamma0).max())))
    grid = np.sort(np.append(np.linspace(0.0, 2.0 / lam, 2001)[1:-1], gamma0))
    rhos = np.linalg.svd(np.eye(dim) + grid[:, None, None] * q, compute_uv=False)[:, 0]
    k = int(np.argmin(rhos))
    assert (1.0 - rho0) / lam - 1e-12 <= grid[k] <= (1.0 + rho0) / beta + 1e-12
    res = touch(SubdifferentialOracle(Indicator(Ball(np.zeros(dim), 1.0))), q, 0.5)
    assert 1.0 - res.rho >= 0.99 * (1.0 - rhos[k])
    assert res.rho <= rho0


@settings(deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=800)
def test_step_search_stops_within_its_certified_gap(seed):
    # every unit y gives 1 + 2 gamma <y, Qy> + gamma^2 ||Qy||^2 <= rho^2, so
    # the cuts' minimum over the bracket bounds rho^2 there from below; a
    # search that stops before the cap returns rho^2 within
    # _STEP_GAP (1 - rho^2) of that bound
    q = _bracket_problem(seed)
    floors, probes = [], {"eigvalsh": 0}
    lowest = touching._lowest_cut

    def recorded(cuts, lo, hi):
        probe, floor = lowest(cuts, lo, hi)
        floors.append(floor)
        return probe, floor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(touching, "_lowest_cut", recorded)
        mp.setattr(np.linalg, "eigvalsh", _counted(probes, "eigvalsh", np.linalg.eigvalsh))
        res = touch(SubdifferentialOracle(Indicator(Ball(np.zeros(q.shape[0]), 1.0))), q, 0.5)
    searched = probes["eigvalsh"] - 2  # the lam gate's and ||Q||'s are not probes
    assert 1 <= searched <= touching._STEP_SEARCH_SOLVES
    if searched < touching._STEP_SEARCH_SOLVES:
        assert len(floors) == searched
        assert res.rho ** 2 - floors[-1] <= touching._STEP_GAP * (1.0 - res.rho ** 2)


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_dense_touch_spends_no_svd_and_two_solves_per_probe(monkeypatch):
    # the lam gate's eigen-solve and ||Q||^2's, the top of Q^T Q, then one
    # eigen-solve and one shifted solve for each of the step search's 6
    # probes on this problem (gamma0 and 5 cuts' minimisers); no SVD
    counts = {"eigvalsh": 0, "solve": 0, "svd": 0}
    oracle, q = _mixed_touch_problem(5, 4)
    for name in counts:
        monkeypatch.setattr(np.linalg, name, _counted(counts, name, getattr(np.linalg, name)))
    touch(oracle, q, 0.5)
    assert counts == {"eigvalsh": 8, "solve": 6, "svd": 0}


def _entry_points(oracle, q, result):
    # every public call that reads Q's spectrum, on a dense gate matrix Q
    return {
        "touch": lambda: touch(oracle, q, 0.5),
        "verify_touch": lambda: verify_touch(oracle, q, result),
        "certified_lambda": lambda: certified_lambda(q, 0.5),
        "modulus_from_lambda": lambda: modulus_from_lambda(q, 0.5),
        "is_mu_unmonotone": lambda: is_mu_unmonotone(q, 0.01),
        "LinearMonotoneOracle": lambda: LinearMonotoneOracle(-q),
    }


@pytest.mark.parametrize("name", sorted(_entry_points(None, None, None)))
def test_each_entry_point_validates_q_once_and_builds_one_form(monkeypatch, name):
    # Q is checked once, at the boundary, and one form_eigenvalues of it
    # answers every spectral fact the call needs: touch's lam gate and step
    # search share it, and ||Q|| is read from it
    oracle, q = _mixed_touch_problem(5, 4)
    call = _entry_points(oracle, q, touch(oracle, q, 0.5))[name]
    calls = {"as_operator": 0, "form": 0}
    validate = _counted(calls, "as_operator", hilbert.as_operator)
    build = _counted(calls, "form", hilbert.form_eigenvalues)
    for module in (hilbert, monotone, touching):
        monkeypatch.setattr(module, "as_operator", validate)
        monkeypatch.setattr(module, "form_eigenvalues", build)
    call()
    assert calls == {"as_operator": 1, "form": 1}


@pytest.mark.parametrize(
    "name", sorted(_entry_points(None, None, None)) + ["fixed_point", "invert"])
def test_every_entry_point_refuses_an_empty_operator(name):
    # one rule, in as_operator: a 0 x 0 Q (or T) is a ValueError naming its shape
    empty = np.zeros((0, 0))
    oracle = ShiftedAbsOracle()
    calls = dict(_entry_points(oracle, empty, touch(oracle, [[-1.0]], 0.5)),
                 fixed_point=lambda: fixed_point(oracle, empty, 0.5),
                 invert=lambda: invert(empty))
    with pytest.raises(ValueError, match=r"non-empty operator, got shape \(0, 0\)"):
        calls[name]()


@pytest.mark.parametrize("seed", range(4))
def test_normal_q_keeps_gamma0_and_rho0_bit_for_bit(seed):
    # Q = U (-lam I + K) U^T with K skew is normal and sym(Q) = -lam I, so
    # gamma0 = lam / ||Q||^2 minimises rho = ||I + gamma Q||: the search
    # returns gamma0 and rho0 = rho(gamma0) exactly as it computed them,
    # with no rule that prefers gamma0 over a marginally lower probe
    rng = np.random.default_rng(seed)
    for n in range(2, 41):
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        k = rng.normal(size=(n, n)) * rng.uniform(0.1, 3.0) / math.sqrt(n)
        q = u @ (-0.5 * np.eye(n) + k - k.T) @ u.T
        form = form_eigenvalues(q)
        lam = -float(form(0.0, 0.5, 0.0).max())
        gamma0 = lam / float(form(0.0, 0.0, 1.0).max())
        rho0 = math.sqrt(max(0.0, float(form(1.0, gamma0, gamma0 * gamma0).max())))
        assert touching._step(form, lam) == (gamma0, rho0), n


def test_circulant_touch_keeps_the_closed_form_step(monkeypatch):
    # the three-ball cycle's Q is a normal circulant with sym(Q) = -I/2, so
    # gamma0 = lam / beta^2 = 2 sin^2(pi/3) minimises rho: gamma0's cut has
    # its vertex there, the search stops after that one probe, and gamma and
    # rho, which the CLI's cycle reports print, stay bit for bit
    problem = build_problem([Ball([0.0, 0.0], 1.0), Ball([6.0, 0.0], 1.0),
                             Ball([3.0, 5.0], 1.0)])
    calls = {"_lowest_cut": 0}
    monkeypatch.setattr(touching, "_lowest_cut",
                        _counted(calls, "_lowest_cut", touching._lowest_cut))
    res = touch(*touching_pair(problem), 0.5)
    assert calls == {"_lowest_cut": 1}
    assert res.gamma == 0.5 / np.abs(problem.q.spectrum).max() ** 2
    assert res.gamma.hex() == "0x1.7fffffffffffep+0"
    assert res.rho.hex() == "0x1.0000000000002p-1"
    # the same Q as a dense matrix: its top vector at gamma0 is a Fourier
    # mode, which the inverse iteration's start must not be orthogonal to
    q = dense(problem.q)
    dense_res = touch(SubdifferentialOracle(Indicator(Ball(np.zeros(6), 1.0))), q, 0.5)
    assert calls == {"_lowest_cut": 2}
    # ||Q||^2 as touch reads it: the top eigenvalue of the Gram matrix
    assert dense_res.gamma == -top_sym_eigenvalue(q) / np.linalg.eigvalsh(q.T @ q)[-1]


@pytest.mark.parametrize("seed", range(5))
def test_verify_touch_recomputes_the_bound_exactly(seed):
    # both derive the step from q by the same deterministic search and
    # measure ||F(d) - d|| at it, so the bounds agree bit for bit
    oracle, q = _mixed_touch_problem(seed, 5)
    res = touch(oracle, q, 0.5)
    assert verify_touch(oracle, q, res).residuals["error_bound"] == res.error_bound


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(mantissas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
       exponent=st.integers(-150, 150))
def test_dot_form_norm_is_bitwise_linalg_norm(mantissas, exponent):
    # touch and the ball kernel take norms as sqrt(v.dot(v)), which numpy's
    # norm of a 1-d float64 vector also is, and which the v @ v form matches;
    # zeros included
    for v in (np.array(mantissas) * 10.0 ** exponent, np.zeros(len(mantissas))):
        norm = float(np.linalg.norm(v)).hex()
        assert math.sqrt(v.dot(v)).hex() == norm
        assert math.sqrt(v @ v).hex() == norm


def test_touch_step_norms_are_bitwise_linalg_norms():
    # replaying touch's steps from 0 gives its answer bit for bit, and the
    # np.linalg.norm form of ||F(d) - d|| its graph_residual
    oracle, q = _mixed_touch_problem(5, 4)
    res = touch(oracle, q, 0.5)
    assert res.iterations > 1

    def step(y):
        return oracle.resolvent(res.gamma, y + res.gamma * (q @ y))

    y = np.zeros(oracle.dim)
    for _ in range(res.iterations):
        y = step(y)
    assert res.d.tobytes() == y.tobytes()
    assert res.graph_residual.hex() == float(np.linalg.norm(step(y) - y)).hex()


def test_touch_calls_no_norm_or_clip_per_block(monkeypatch):
    # Per-block kernels and touch's loop take norms and clamps without
    # numpy's wrappers: a whole solve calls neither np.linalg.norm nor
    # np.clip, whatever the number of parts and iterations.
    counts = {"norm": 0, "clip": 0}
    problems = [_mixed_touch_problem(11, 3), _mixed_touch_problem(12, 8)]
    monkeypatch.setattr(np.linalg, "norm", _counted(counts, "norm", np.linalg.norm))
    monkeypatch.setattr(np, "clip", _counted(counts, "clip", np.clip))
    iterations = set()
    for oracle, q in problems:
        counts.update(norm=0, clip=0)
        iterations.add(touch(oracle, q, 0.5).iterations)
        assert counts == {"norm": 0, "clip": 0}
    assert len(iterations) == 2


def test_fixed_point_shifted_abs():
    res = fixed_point(ShiftedAbsOracle(), [[-1.0]], 0.5)
    assert res.e == pytest.approx(-1.0, abs=1e-9)  # the fixed point of M o T
    assert res.d == pytest.approx(1.0, abs=1e-9)   # d = T e


def test_fixed_point_gate_failure():
    with pytest.raises(PreconditionError):
        fixed_point(ShiftedAbsOracle(), [[1.0]], 0.5)


def test_fixed_point_singular_map():
    # T = 0 passes the quadratic gate but is not invertible
    with pytest.raises(SingularOperatorError):
        fixed_point(ShiftedAbsOracle(), [[0.0]], 0.5)


def test_fixed_point_factors_t_once(monkeypatch):
    # one SVD T = U S V^T gives both the condition gate and
    # T^{-1} = V S^{-1} U^T: no second factorization by np.linalg.inv
    t = np.array([[-2.0, 1.0, 0.0], [-1.0, -2.0, 1.0], [0.0, -1.0, -2.0]])
    oracle = SubdifferentialOracle(Indicator(Box(np.full(3, 2.0), np.full(3, 3.0))))
    counts = {"svd": 0, "inv": 0}
    for name in counts:
        monkeypatch.setattr(np.linalg, name, _counted(counts, name, getattr(np.linalg, name)))
    res = fixed_point(oracle, t, 0.1)
    assert counts == {"svd": 1, "inv": 0}
    assert np.linalg.norm(t @ res.e - res.d) <= 1e-12
    assert verify_touch(oracle, invert(t), res).passed


@pytest.mark.parametrize("k", range(140, 171, 2))
def test_tiny_q_gets_its_rho_or_names_the_underflow(k):
    # Q = s [[-1, 1], [-1, -1]], s = 10^-k, lam = s / 10: ||Q||^2 = 2 s^2
    # leaves the normal floats near k = 154.  Past it the step's gamma^2 used
    # to overflow (a false rho = 0 from k = 156) and then ||Q||^2 to round to
    # 0 (ZeroDivisionError from k = 162).  Each call now returns the true
    # rho = ||I + gamma Q|| or refuses by name, as does fixed_point on
    # T = Q^{-1}; verify_touch certifies nothing where touch refuses
    s = 10.0 ** -k
    q = s * np.array([[-1.0, 1.0], [-1.0, -1.0]])
    t = (0.5 / s) * np.array([[-1.0, -1.0], [1.0, -1.0]])
    oracle = SubdifferentialOracle(Indicator(Ball(np.ones(2), 1.0)))
    for solve, op, linear in ((touch, q, q), (fixed_point, t, invert(t))):
        try:
            res = solve(oracle, op, s / 10.0)
        except ValueError as err:
            assert str(err) == "no step contracts: ||Q||^2 underflows"
            dummy = touch(oracle, -np.eye(2), 0.5)
            assert verify_touch(oracle, linear, dummy).residuals["error_bound"] == math.inf
        else:
            rho = np.linalg.norm(np.eye(2) + res.gamma * linear, 2)
            assert res.rho == pytest.approx(rho, rel=1e-12)


def test_verify_touch_passes_on_correct_result():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    q = np.array([[-1.0]])
    res = touch(oracle, q, 0.5)
    report = verify_touch(oracle, q, res)
    assert report.passed
    assert report.residuals["error_bound"] <= report.thresholds["error_bound"]
    assert report.residuals["error_bound"] == pytest.approx(res.error_bound)


def test_verify_touch_makes_one_resolvent_call():
    class CountingOracle(ResolventOracle):
        def __init__(self, inner):
            self.inner = inner
            self.dim = inner.dim
            self.calls = 0

        def resolvent(self, lam, x):
            self.calls += 1
            return self.inner.resolvent(lam, x)

    rng = np.random.default_rng(101)
    q = random_gate_matrix(rng, 4, lam=0.5)
    oracle = CountingOracle(LinearMonotoneOracle(random_monotone_matrix(rng, 4)))
    res = touch(oracle, q, 0.5)
    oracle.calls = 0
    assert verify_touch(oracle, q, res).passed
    assert oracle.calls == 1


def test_verify_touch_flags_perturbed_result():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    q = np.array([[-1.0]])
    res = touch(oracle, q, 0.5)
    res.e = res.e + 1e-3
    report = verify_touch(oracle, q, res)
    assert not report.passed
    assert report.residuals["graph_residual"] == pytest.approx(1e-3, rel=0.2)
    # the step and rho come from q: a result's own gamma and rho (here
    # gamma = 2, where rho = 1 certifies nothing, and a false rho = 0)
    # change no residual
    res = touch(oracle, q, 0.5)
    honest = verify_touch(oracle, q, res)
    res.gamma = 2.0
    res.rho = 0.0
    assert verify_touch(oracle, q, res) == honest
    assert honest.passed


def test_verify_touch_fails_where_no_step_contracts():
    # Q = 1 and Q = 0 fail the gate: lam = -top(sym(Q)) <= 0 leaves
    # rho >= 1 at every step, so the bound is infinite and the report fails
    res = touch(ShiftedAbsOracle(), [[-1.0]], 0.5)
    for q in ([[1.0]], [[0.0]]):
        report = verify_touch(ShiftedAbsOracle(), q, res)
        assert report.residuals["error_bound"] == math.inf
        assert report.passed is False


def test_verify_touch_rejects_mismatched_dimensions():
    oracle = SubdifferentialOracle(Indicator(Box([2.0], [3.0])))
    res = touch(oracle, np.array([[-1.0]]), 0.5)
    with pytest.raises(ValueError):
        verify_touch(oracle, -np.eye(2), res)


def test_touch_bound_meets_tol_with_an_inexact_resolvent():
    # an exact box projection plus 1e-8 (-1)^k e_1 on the k-th call, at
    # Q = -I where rho = 0: every iterate after the first measures a bound
    # of 2e-8, far above a tol of 1e-12, so touch must raise at the cap
    # rather than return a bound outside tol
    class NoisyBoxOracle(ResolventOracle):
        dim = 2

        def __init__(self):
            self.box = Box([2.0, 2.0], [3.0, 3.0])
            self.calls = 0

        def resolvent(self, lam, x):
            self.calls += 1
            noise = 1e-8 * (-1.0) ** self.calls
            return self.box.project(x) + np.array([noise, 0.0])

    tol = 1e-12
    try:
        res = touch(NoisyBoxOracle(), -np.eye(2), 0.5, tol=tol, max_iter=50)
    except ConvergenceError as err:
        assert err.iterations == 50
        assert math.isfinite(err.residual)
    else:
        assert res.error_bound <= tol * max(1.0, float(np.linalg.norm(res.d)))
