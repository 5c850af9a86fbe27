"""Linear algebra primitives: frozen small cases plus sampled invariants."""

import math
from pathlib import Path

import numpy as np
import pytest

import montouch
from montouch import (
    Ball,
    SingularOperatorError,
    Subspace,
    as_operator,
    as_vector,
    build_problem,
    invert,
    orthonormal_range,
)
from montouch import hilbert
from montouch.hilbert import BlockCirculant, as_positive, form_eigenvalues, scaled_tol

SRC = Path(__file__).parent.parent / "src" / "montouch"


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


def test_one_owner_for_tolerances_and_positivity():
    # "small enough" (tol * max(1, size)) and "positive and finite" are each
    # written once, in hilbert; every other module calls scaled_tol or
    # as_positive, so no site can drift back to an absolute constant
    modules = sorted(SRC.glob("*.py"))
    assert {"cli.py", "convex.py", "cycles.py", "monotone.py", "touching.py"} <= {
        path.name for path in modules}
    for path in modules:
        if path.name == "hilbert.py":
            continue
        text = path.read_text(encoding="utf-8")
        assert "max(1.0," not in text, path.name
        assert "must be positive and finite" not in text, path.name


def test_one_owner_for_spectral_facts():
    # every eigenvalue and singular value montouch reads, and every read of a
    # circulant's spectrum, is computed in hilbert, one route per fact:
    # form_eigenvalues for every eigenvalue and norm, and one SVD each in
    # orthonormal_range and invert; no module keeps its own dense /
    # BlockCirculant branch
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hilbert.py":
            continue
        text = path.read_text(encoding="utf-8")
        for word in ("eigvalsh", "svd(", ".spectrum"):
            assert word not in text, (path.name, word)
    hilbert_text = (SRC / "hilbert.py").read_text(encoding="utf-8")
    assert hilbert_text.count("svd(") == 2
    assert "inv(" not in hilbert_text


def test_scaled_tol_is_tol_times_max_one_size():
    assert scaled_tol(1e-6, 0.25) == 1e-6
    assert scaled_tol(1e-6, 4.0) == 4e-6
    assert scaled_tol(1e-9, 0.0) == 1e-9
    # callers size a vector by the dot form, bit for bit np.linalg.norm
    x = np.random.default_rng(2).normal(size=50) * 1e3
    assert scaled_tol(1.0, math.sqrt(x.dot(x))) == float(np.linalg.norm(x))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_as_positive_names_the_value(value):
    assert as_positive(2, "step") == 2.0
    with pytest.raises(ValueError, match="^weight must be positive and finite$"):
        as_positive(value, "weight")


def test_as_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_operator([1.0, 2.0])
    with pytest.raises(ValueError):
        as_operator([[1.0, np.inf]])
    with pytest.raises(ValueError):
        as_operator([[1.0, 2.0]], square=True)
    # a square operator must act on something: 0 x 0 is refused, by shape
    with pytest.raises(ValueError, match=r"non-empty operator, got shape \(0, 0\)$"):
        as_operator(np.zeros((0, 0)), square=True)
    assert as_operator(np.zeros((0, 0))).shape == (0, 0)


def _norm(a):
    # ||A||, the square root of the form's top at (0, 0, 1), the top of A^T A
    return math.sqrt(form_eigenvalues(as_operator(a, square=True))(0.0, 0.0, 1.0).max())


def _top_sym(a):
    # the top eigenvalue of sym(A), the form's top at (0, 1/2, 0)
    return float(form_eigenvalues(as_operator(a, square=True))(0.0, 0.5, 0.0).max())


def test_circulant_norm_from_its_gram_is_bitwise_operator_norm():
    # touch and the gates read ||Q|| as the square root of the form's top at
    # (0, 0, 1), fl(max |s_k|^2); in binary64 sqrt(fl(x^2)) == x, so that is
    # the closed-form operator norm max |s_k| bit for bit, and a cycle's step
    # and rho keep their closed form
    for n in range(2, 65):
        q = build_problem([Ball([3.0 * k, 0.0], 1.0) for k in range(n)]).q
        assert _norm(q) == np.abs(q.spectrum).max(), n
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 65))
        s = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-100, 100)
        # s_k = conj(s_{-k}): the spectrum of a real circulant
        s = 0.5 * (s + np.conj(np.roll(s[::-1], 1)))
        q = BlockCirculant(s, int(rng.integers(1, 4)))
        assert _norm(q) == np.abs(q.spectrum).max(), s


def test_subspace_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    y = Subspace(np.eye(3)[:, :2])
    assert y.ambient_dim == 3 and y.rank == 2


def test_orthonormal_range_rank_one():
    # range of [[-1,1],[1,-1]] is the line through (1,-1)
    y = orthonormal_range([[-1.0, 1.0], [1.0, -1.0]])
    assert y.rank == 1
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(float(direction @ y.basis[:, 0])) - 1.0) <= 1e-12


def test_orthonormal_range_full_and_trivial():
    assert orthonormal_range(np.eye(3)).rank == 3
    assert orthonormal_range(np.zeros((4, 4))).rank == 0


def test_project_onto_line():
    y = orthonormal_range([[-1.0, 1.0], [1.0, -1.0]])
    p = y.project(np.array([1.0, 0.0]))
    assert np.allclose(p, [0.5, -0.5], atol=1e-12)


def test_project_onto_is_idempotent_and_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n))
        y = orthonormal_range(a)
        x = rng.normal(size=n)
        p = y.project(x)
        assert np.allclose(y.project(p), p, atol=1e-11)
        # residual is orthogonal to the subspace
        assert np.linalg.norm(y.basis.T @ (x - p)) <= 1e-10


def test_project_onto_trivial_subspace_is_zero():
    y = orthonormal_range(np.zeros((3, 3)))
    assert np.allclose(y.project(np.array([1.0, 2.0, 3.0])), 0.0)


def test_operator_norm_values():
    assert _norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    # singular values of [[0,2],[0,0]] are {2, 0}
    assert _norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)
    assert _norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_dominates_action():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        assert np.linalg.norm(a @ x) <= _norm(a) * np.linalg.norm(x) + 1e-10
        assert _norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_max_sym_eigenvalue_values():
    assert _top_sym(-np.eye(3)) == pytest.approx(-1.0, abs=1e-12)
    # sym part of [[0,1],[0,0]] has eigenvalues +-1/2
    assert _top_sym([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.5, abs=1e-12)
    assert _top_sym(np.diag([2.0, 3.0])) == pytest.approx(3.0, abs=1e-12)


def test_max_sym_eigenvalue_bounds_rayleigh_quotient():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.normal(size=(5, 5))
        top = _top_sym(a)
        y = rng.normal(size=5)
        y /= np.linalg.norm(y)
        assert float(y @ a @ y) <= top + 1e-9


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert abs(float(x @ y)) <= np.linalg.norm(x) * np.linalg.norm(y) + 1e-12


def test_invert_refuses_a_circulant_by_name():
    # a circulant used to reach numpy and fail there with LinAlgError
    q = BlockCirculant([-0.5, -0.5 + 0.5j, -0.5 - 0.5j], 2)
    with pytest.raises(ValueError, match="not a BlockCirculant"):
        invert(q)


def test_form_eigenvalues_refuses_an_overflowing_gram():
    # 0 * inf would turn every entry of the form into NaN, and LAPACK returns
    # finite garbage for a NaN matrix
    with pytest.raises(ValueError, match="overflows"):
        form_eigenvalues(1e200 * np.eye(2))
    with pytest.raises(ValueError, match="overflows"):
        form_eigenvalues(BlockCirculant([1e200, -1e200], 1))


def test_invert_values():
    assert np.allclose(invert(np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-12)


def test_invert_rejects_singular():
    with pytest.raises(SingularOperatorError):
        invert([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(SingularOperatorError):
        invert(np.zeros((2, 2)))


def test_invert_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        left = a @ invert(a) - np.eye(n)
        assert np.abs(left).max() <= 1e-10


def test_public_surface_has_one_route_per_spectral_fact():
    # every exported name resolves, once; the second routes to ||A|| and the
    # top of sym(A), and the projection wrapper, are gone: form_eigenvalues
    # answers both facts and Subspace.project projects
    assert len(set(montouch.__all__)) == len(montouch.__all__)
    for name in montouch.__all__:
        assert getattr(montouch, name) is not None, name
    for name in ("operator_norm", "max_sym_eigenvalue", "project_onto"):
        assert name not in montouch.__all__
        assert not hasattr(montouch, name), name
        assert not hasattr(hilbert, name), name
