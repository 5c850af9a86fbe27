"""Acceptance suite: ten numbered criteria, one printed line each.

Every test emits a single ``[PASS]``/``[FAIL]`` line on the real stdout
(visible even under pytest capture) and then asserts, so a plain pytest
run shows exactly which criterion broke.  Criteria 2, 7 and 8 share one
session-scoped corpus of cycle problems so the solvers run once.
"""

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    cyclic_shift,
    dense,
    forward_backward_step_norms,
    isometry_defect,
    random_compact_set,
    random_gate_matrix,
    random_prox_function,
    random_touch_instance,
)
from montouch import (
    Ball,
    Box,
    Halfspace,
    Indicator,
    LinearMonotoneOracle,
    ScaledSquare,
    SeparableSum,
    Singleton,
    SubdifferentialOracle,
    SubspaceRestrictedOracle,
    Support,
    build_problem,
    classical_cycle,
    cli,
    generalized_cycle,
    is_mu_unmonotone,
    minty_point,
    modulus_from_lambda,
    orthonormal_range,
    touch,
    verify_identities,
    verify_touch,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def report(capsys):
    """Emit one [PASS]/[FAIL] line per criterion on the real stdout."""

    def _report(criterion, ok, detail):
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] criterion {criterion:2d}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ------------------------------------------------------------------ corpus

@dataclass
class CorpusEntry:
    name: str
    problem: object
    solution: object
    classical: object
    randomized: bool


def _random_compact(rng, dim):
    center = rng.normal(scale=2.0, size=dim)
    if rng.integers(2) == 0:
        return Ball(center, float(rng.uniform(0.3, 1.5)))
    half = rng.uniform(0.2, 1.2, size=dim)
    return Box(center - half, center + half)


@pytest.fixture(scope="session")
def corpus():
    entries = []

    def add(name, sets, randomized=False):
        problem = build_problem(sets)
        solution = generalized_cycle(problem)
        entries.append(CorpusEntry(
            name=name,
            problem=problem,
            solution=solution,
            classical=classical_cycle(problem),
            randomized=randomized,
        ))

    add("two_ball", [Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    add("two_singleton_line", [Singleton([0.0]), Singleton([5.0])])
    add("halfspace_pair",
        [Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
    add("four_singleton_square",
        [Singleton([0.0, 0.0]), Singleton([1.0, 0.0]),
         Singleton([1.0, 1.0]), Singleton([0.0, 1.0])])
    add("three_box_triangle",
        [Box([-3.0, -1.0], [-2.0, 1.0]), Box([2.0, -1.0], [3.0, 1.0]),
         Box([-1.0, 3.0], [1.0, 4.0])])

    rng = np.random.default_rng(11)
    randomized = 0
    attempts = 0
    while randomized < 20 and attempts < 40:
        attempts += 1
        n_sets = int(rng.integers(2, 4))
        dim = int(rng.integers(1, 4))
        sets = [_random_compact(rng, dim) for _ in range(n_sets)]
        entry_name = f"random_{attempts:02d}_n{n_sets}_m{dim}"
        add(entry_name, sets, randomized=True)
        if entries[-1].classical is None:
            entries.pop()
            continue
        randomized += 1

    # scale bound of the suite: five sets in R^10, ambient dimension 50
    rng_big = np.random.default_rng(23)
    add("five_ball_m10",
        [Ball(rng_big.normal(scale=3.0, size=10), 1.0) for _ in range(5)])

    assert randomized == 20
    return entries


def _energy_residual(problem, x):
    sx = problem.displacement @ x
    return abs(problem.support_sum.value(sx) + 0.5 * float(sx @ sx)
               + problem.support_sum.conjugate().value(x))


# ----------------------------------------------------------------- criteria

def test_criterion_01_two_ball_oracle(report):
    t0 = time.perf_counter()
    problem = build_problem([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    solution = generalized_cycle(problem)
    x = classical_cycle(problem)
    elapsed = time.perf_counter() - t0

    d_err = float(np.max(np.abs(solution.d - [3.0, 0.0, -3.0, 0.0])))
    e_err = float(np.max(np.abs(solution.e - [-1.5, 0.0, 1.5, 0.0])))
    x_err = float(np.max(np.abs(x - [1.0, 0.0, 4.0, 0.0])))
    ok = d_err <= 1e-7 and e_err <= 1e-7 and x_err <= 1e-7 and elapsed < 1.0
    report(1, ok,
           f"two-ball errors d={d_err:.1e} e={e_err:.1e} cycle={x_err:.1e} "
           f"in {elapsed * 1000.0:.0f} ms")


def test_criterion_02_energy_identity(corpus, report):
    randomized = [c for c in corpus if c.randomized]
    assert len(randomized) == 20
    worst = max(_energy_residual(c.problem, c.classical) for c in randomized)

    two_ball = next(c for c in corpus if c.name == "two_ball")
    sx = two_ball.problem.displacement @ two_ball.classical
    support = two_ball.problem.support_sum.value(sx)
    quad = 0.5 * float(sx @ sx)
    indicator = two_ball.problem.support_sum.conjugate().value(two_ball.classical)
    exact = abs(support + quad + indicator)
    pieces_ok = (abs(support - (-9.0)) <= 1e-9 and abs(quad - 9.0) <= 1e-9
                 and indicator == 0.0)

    ok = worst <= 1e-6 and exact <= 1e-9 and pieces_ok
    report(2, ok,
           f"energy residual <= {worst:.1e} on 20 random instances, "
           f"two-ball exact |(-9) + 9 + 0| = {exact:.1e}")


def test_criterion_03_touching_uniqueness(report):
    rng = np.random.default_rng(7)
    disagreements = 0
    worst = 0.0
    worst_bound = 0.0
    for trial in range(100):
        oracle, q = random_touch_instance(rng)
        res = touch(oracle, q, 0.5)
        check = verify_touch(oracle, q, res)
        scale = max(1.0, float(np.linalg.norm(res.d)))
        radius = max(1.0, float(np.linalg.norm(q, 2)))
        starts = np.random.default_rng(trial).normal(scale=radius, size=(5, oracle.dim))
        deviation = max(float(np.linalg.norm(touch(oracle, q, 0.5, start=s).d - res.d))
                        for s in starts)
        worst = max(worst, deviation)
        worst_bound = max(worst_bound, check.residuals["error_bound"] / scale)
        if not check.passed or deviation > 1e-6 * scale:
            disagreements += 1
    ok = disagreements == 0
    report(3, ok,
           f"100 instances x 5 restarts, {disagreements} disagreements, "
           f"max deviation {worst:.1e}, "
           f"max certified error bound {worst_bound:.1e} x max(1, |d|)")


def test_criterion_04_contraction_rate_bound(report):
    rng = np.random.default_rng(19)
    worst_excess = -np.inf
    for _ in range(50):
        dim = int(rng.integers(2, 11))
        g = rng.normal(size=(dim, dim))
        oracle = LinearMonotoneOracle(g @ g.T * 0.5)
        q = random_gate_matrix(rng, dim, lam=0.5)
        start = rng.normal(scale=5.0, size=dim)
        beta = float(np.linalg.norm(q, 2))
        # random_gate_matrix puts the top symmetric eigenvalue of Q at -1/2,
        # so the step lam / beta^2 has the bound sqrt(1 - gamma + gamma^2 beta^2)
        gamma0 = 0.5 / beta**2
        bound0 = np.sqrt(1.0 - gamma0 + gamma0**2 * beta**2)
        # plain F steps at touch's step against its factor ||I + gamma Q||,
        # and F iterated at lam / beta^2 against the bound, which its factor
        # never exceeds
        auto = touch(oracle, q, 0.5, start=start)
        rho0 = float(np.linalg.norm(np.eye(dim) + gamma0 * q, 2))
        assert auto.rho <= rho0 + 1e-12
        assert rho0 <= bound0 + 1e-12
        rho = float(np.linalg.norm(np.eye(dim) + auto.gamma * q, 2))
        assert auto.rho == pytest.approx(rho, abs=1e-12)
        touched = forward_backward_step_norms(oracle, q, auto.gamma, start, auto.rho)
        plain = forward_backward_step_norms(oracle, q, gamma0, start, rho0)
        for steps, bound in ((touched, auto.rho), (plain, bound0)):
            ratios = [steps[i + 1] / steps[i]
                      for i in range(len(steps) - 1) if steps[i] > 1e-12]
            assert ratios
            worst_excess = max(worst_excess, max(ratios) - bound)
    ok = worst_excess <= 0.05
    report(4, ok,
           f"50 linear instances at two steps, max contraction excess over "
           f"the certified factor {worst_excess:+.3f} (allowed +0.05)")


def test_criterion_05_moreau_and_firm_nonexpansiveness(report):
    rng = np.random.default_rng(3)
    ball = Ball(rng.normal(size=3), 1.5)
    box = Box([-1.0, 0.0], [2.0, 3.0])
    kinds = {
        "indicator_ball": Indicator(ball),
        "indicator_box": Indicator(box),
        "indicator_halfspace": Indicator(Halfspace([1.0, -2.0], 0.5)),
        "indicator_singleton": Indicator(Singleton([0.5, -1.0, 2.0])),
        "support_ball": Support(ball),
        "support_box": Support(box),
        "scaled_square": ScaledSquare(1.7, 3),
        "separable_sum": SeparableSum((Indicator(box), Support(ball))),
    }
    worst_moreau = 0.0
    for fn in kinds.values():
        conj = fn.conjugate()
        for _ in range(1000):
            lam = float(rng.uniform(0.05, 20.0))
            x = rng.normal(scale=3.0, size=fn.ambient_dim)
            lhs = fn.prox(lam, x) + lam * conj.prox(1.0 / lam, x / lam)
            worst_moreau = max(worst_moreau, float(np.max(np.abs(lhs - x))))

    shift = np.kron(np.roll(np.eye(2), -1, axis=0), np.eye(2)) - np.eye(4)
    oracles = {
        "subdifferential": [SubdifferentialOracle(random_prox_function(rng, 3))
                            for _ in range(10)],
        "linear": [],
        "subspace_restricted": [],
    }
    for _ in range(10):
        g = rng.normal(size=(3, 3))
        oracles["linear"].append(
            LinearMonotoneOracle(g @ g.T * 0.5 + (g - g.T)))
        fn = SeparableSum(tuple(Support(random_compact_set(rng, 2))
                                for _ in range(2)))
        oracles["subspace_restricted"].append(
            SubspaceRestrictedOracle(fn, orthonormal_range(shift)))
    worst_firm = -np.inf
    for batch in oracles.values():
        for oracle in batch:
            for _ in range(100):
                lam = float(rng.uniform(0.1, 10.0))
                x = rng.normal(size=oracle.dim)
                y = rng.normal(size=oracle.dim)
                tx = oracle.resolvent(lam, x)
                ty = oracle.resolvent(lam, y)
                violation = float(np.dot(tx - ty, tx - ty)
                                  - np.dot(x - y, tx - ty))
                worst_firm = max(worst_firm, violation)

    ok = worst_moreau <= 1e-10 and worst_firm <= 1e-10
    report(5, ok,
           f"Moreau residual <= {worst_moreau:.1e} (8 kinds x 1000), "
           f"firm nonexpansiveness violation <= {worst_firm:.1e} "
           f"(3 oracle kinds x 1000)")


def test_criterion_06_minty_reconstruction(report):
    rng = np.random.default_rng(13)
    shift = np.kron(np.roll(np.eye(2), -1, axis=0), np.eye(2)) - np.eye(4)
    subspace = orthonormal_range(shift)
    worst = 0.0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            oracle = SubdifferentialOracle(random_prox_function(rng, 3))
        elif kind == 1:
            g = rng.normal(size=(3, 3))
            oracle = LinearMonotoneOracle(g @ g.T * 0.5 + (g - g.T))
        else:
            fn = SeparableSum(tuple(Support(random_compact_set(rng, 2))
                                    for _ in range(2)))
            oracle = SubspaceRestrictedOracle(fn, subspace)
        for mu in (0.1, 1.0, 10.0):
            y = minty_point(oracle, mu)
            residual = float(np.linalg.norm(
                oracle.resolvent(1.0, (1.0 - mu) * y) - y))
            worst = max(worst, residual)
    ok = worst <= 1e-8
    report(6, ok,
           f"50 oracles x mu in (0.1, 1, 10), inclusion residual <= {worst:.1e}")


def test_criterion_07_structural_checks(corpus, report):
    rng = np.random.default_rng(29)
    worst_isometry = 0.0
    worst_shift = 0.0
    worst_quadratic = 0.0
    ranks_ok = True
    for entry in corpus:
        p = entry.problem
        n_sets = len(p.sets)
        reference = cyclic_shift(n_sets, p.base_dim)
        n = n_sets * p.base_dim
        displacement = dense(p.displacement)
        shift = displacement + np.eye(n)
        worst_isometry = max(worst_isometry, isometry_defect(shift))
        worst_shift = max(worst_shift, float(np.abs(shift - reference).max()))
        for _ in range(1000 // len(corpus) + 10):
            x = rng.normal(size=n)
            sx = p.displacement @ x
            value = abs(float(x @ sx) + 0.5 * float(sx @ sx))
            worst_quadratic = max(worst_quadratic, value / float(x @ x))
        rank = (n_sets - 1) * p.base_dim
        if p.range_space.rank != rank or np.linalg.matrix_rank(displacement) != rank:
            ranks_ok = False
    ok = (worst_isometry <= 1e-12 and worst_shift <= 1e-12
          and worst_quadratic <= 1e-10 and ranks_ok)
    report(7, ok,
           f"{len(corpus)} problems: shift and displacement match the dense "
           f"reference to {worst_shift:.1e}, isometry defect <= "
           f"{worst_isometry:.1e}, quadratic identity <= {worst_quadratic:.1e} "
           f"relative, ranks exact")


def test_criterion_08_classical_generalized_link(corpus, report):
    with_classical = [c for c in corpus if c.classical is not None]
    assert len(with_classical) >= 20
    worst_shift = 0.0
    worst_projection = 0.0
    for entry in with_classical:
        se = entry.problem.displacement @ entry.solution.e
        sx = entry.problem.displacement @ entry.classical
        scale = max(1.0, float(np.linalg.norm(se)))
        worst_shift = max(worst_shift, float(np.linalg.norm(sx - se)) / scale)
        projected = entry.problem.range_space.project(entry.classical)
        worst_projection = max(
            worst_projection,
            float(np.linalg.norm(entry.solution.e - projected)))
    failed = [
        entry.name for entry in corpus
        if not verify_identities(
            entry.problem, replace(entry.solution, classical_cycle=entry.classical)
        ).passed
    ]
    ok = worst_shift <= 1e-6 and worst_projection <= 1e-6 and not failed
    report(8, ok,
           f"{len(with_classical)} classical cycles: shift gap <= "
           f"{worst_shift:.1e} relative, projection gap <= {worst_projection:.1e}; "
           f"identity reports failed on {failed or 'none'} of {len(corpus)}")


def test_criterion_09_gate_sharpness(report):
    q = -np.eye(4)
    at_half, _ = is_mu_unmonotone(q, 0.5)
    at_edge, _ = is_mu_unmonotone(q, 0.5 + 1e-12)
    beyond, _ = is_mu_unmonotone(q, 0.5 + 1e-6)
    modulus = modulus_from_lambda(q, 1.0)
    ok = at_half and at_edge and not beyond and modulus == 0.5
    report(9, ok,
           f"-I certified at mu=0.5 and 0.5+1e-12, rejected at 0.5+1e-6, "
           f"modulus_from_lambda(-I, 1) = {modulus}")


def test_criterion_10_cli_contract(capsys, tmp_path, report):
    problem = str(DATA / "two_ball.json")

    code_a = cli.main(["cycle", "--problem", problem])
    out_a = capsys.readouterr().out
    code_b = cli.main(["cycle", "--problem", problem])
    out_b = capsys.readouterr().out

    def strip(text):
        doc = json.loads(text)
        doc.pop("wall_time_ms")
        return doc

    frozen = strip((GOLDEN / "two_ball_cycle.json").read_text())
    deterministic = strip(out_a) == strip(out_b) == frozen

    code_bad = cli.main(["cycle", "--problem", str(DATA / "malformed.json")])
    capsys.readouterr()
    # two_ball is solved exactly in one step (rho = 0); three balls take 29
    capped = json.loads((DATA / "three_ball.json").read_text())
    capped["solver"] = {"max_iterations": 2}
    capped_path = tmp_path / "three_ball_capped.json"
    capped_path.write_text(json.dumps(capped), encoding="utf-8")
    code_cap = cli.main(["cycle", "--problem", str(capped_path)])
    capsys.readouterr()
    code_fail = cli.main(["check-unmonotone",
                          "--matrix", str(DATA / "neg_identity.json"),
                          "--mu", "0.6"])
    capsys.readouterr()

    codes = (code_a, code_b, code_bad, code_cap, code_fail)
    ok = deterministic and codes == (0, 0, 1, 2, 3)
    report(10, ok,
           f"golden report reproduced, exit codes {codes} "
           f"for (pass, pass, parse error, iteration cap, failed check)")
