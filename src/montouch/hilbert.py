"""Real linear algebra: validated vectors and operators, orthonormal
subspaces, spectral quantities, and condition-gated inversion.

Everything is float64.  Vectors are plain 1-d arrays and operators plain 2-d
arrays or ``BlockCirculant`` maps; the validators below are the single entry
point for shape, finiteness and sign checks; ``scaled_tol`` owns tolerances.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError

# Relative singular-value cutoff when extracting a range basis.
RANK_TOL = 1e-10
# sigma_min / sigma_max at or below this is treated as singular.
COND_TOL = 1e-12
# Orthonormality defect allowed in a stored basis.
ORTHO_TOL = 1e-12
# Shift above the top eigenvalue of the inverse-iteration step in
# ``_Form.top``, relative to the form's norm: far above eigvalsh's rounding,
# so the shifted matrix stays nonsingular.
_TOP_SHIFT = 1e-10


def as_vector(x, dim=None):
    """Coerce to a finite 1-d float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_positive(value, name):
    """``value`` as a float; ValueError unless it is positive and finite."""
    if not 0.0 < float(value) < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def scaled_tol(tol, size):
    """tol * max(1, size) for a float ``size``; callers size a vector v by
    ``math.sqrt(v.dot(v))``, bit for bit ``np.linalg.norm``.  Every stop, pass
    threshold and the lam gate is one of these."""
    return tol * max(1.0, size)


class BlockCirculant:
    """Linear map on R^{Nm}, x = (x_1, ..., x_N) with x_i in R^m, that is a
    circulant in the block index.  ``spectrum[k]`` is its eigenvalue on the
    k-th DFT mode (numpy's ``fft`` convention) and must be conjugate-symmetric,
    so that the map is real.  The map is normal: its singular values are
    |spectrum| and its symmetric part has eigenvalues Re(spectrum)."""

    def __init__(self, spectrum, block_dim):
        self.spectrum = np.asarray(spectrum, dtype=complex)
        if self.spectrum.ndim != 1 or not np.all(np.isfinite(self.spectrum)):
            raise ValueError("spectrum must be a finite 1-d array")
        self.block_dim = int(block_dim)
        self.shape = (self.spectrum.size * self.block_dim,) * 2

    def __matmul__(self, x):
        blocks = np.fft.fft(np.reshape(x, (self.spectrum.size, self.block_dim)), axis=0)
        return np.fft.ifft(blocks * self.spectrum[:, None], axis=0).real.ravel()


def as_operator(a, square=False):
    """Coerce to a finite 2-d float array, optionally requiring a square,
    non-empty one."""
    if isinstance(a, BlockCirculant):
        return a
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d operator, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    if square and (m.shape[0] != m.shape[1] or m.size == 0):
        raise ValueError(f"expected a square, non-empty operator, got shape {m.shape}")
    return m


def form_eigenvalues(a):
    """Eigenvalues of alpha I + beta (A + A^T) + delta A^T A as a function of (alpha, beta,
    delta) for an A that ``as_operator(a, square=True)`` has checked: ascending for a dense
    A, one per DFT mode for a ``BlockCirculant``; ||A||^2 is the top at (0, 0, 1).
    ``top(gamma)`` reads (1, gamma, gamma^2) with <y, (A + A^T) y> and ||A y||^2 at a top y."""
    with np.errstate(over="ignore"):  # an overflowing A^T A is refused below
        if isinstance(a, BlockCirculant):
            eye, sym2, gram = 1.0, 2.0 * a.spectrum.real, np.abs(a.spectrum) ** 2
        else:
            eye, sym2, gram = np.eye(a.shape[0]), a + a.T, a.T @ a
    if not np.isfinite(gram).all():
        raise ValueError("operator too large: A^T A overflows")
    return _Form(eye, sym2, gram)


class _Form:
    """alpha I + beta (A + A^T) + delta A^T A with A + A^T and A^T A built once."""

    def __init__(self, eye, sym2, gram):
        self.eye, self.sym2, self.gram = eye, sym2, gram

    @functools.cached_property
    def _start(self):
        # a fixed random vector: a structured A (a dense circulant, say) can
        # leave a structured one, such as all ones, orthogonal to the top
        return np.random.default_rng(0).standard_normal(self.gram.shape[0])

    def __call__(self, alpha, beta, delta):
        matrix = alpha * self.eye + beta * self.sym2 + delta * self.gram
        return np.linalg.eigvalsh(matrix) if self.gram.ndim == 2 else matrix

    def top(self, gamma):
        """(||I + gamma A||^2, (<y, (A + A^T) y>, ||A y||^2)) for a unit y on top
        of the form at (1, gamma, gamma^2): a circulant's top mode, or for a dense
        A one step of inverse iteration from ``_start``, shifted just above the
        top.  Callers may use any unit y; a y nearer the top eigenvector is tighter."""
        matrix = self.eye + gamma * self.sym2 + gamma * gamma * self.gram
        if self.gram.ndim == 1:
            k = int(np.argmax(matrix))
            return float(matrix[k]), (float(self.sym2[k]), float(self.gram[k]))
        eigs = np.linalg.eigvalsh(matrix)
        shift = eigs[-1] + scaled_tol(_TOP_SHIFT, max(-eigs[0], eigs[-1]))
        y = np.linalg.solve(shift * self.eye - matrix, self._start)
        y /= math.sqrt(y.dot(y))
        return float(eigs[-1]), (float(y @ self.sym2 @ y), float(y @ self.gram @ y))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored as an orthonormal column basis.

    ``basis`` has shape (ambient_dim, rank); rank 0 (the trivial subspace)
    is allowed, in which case the basis has zero columns.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_operator(self.basis)
        object.__setattr__(self, "basis", b)
        gram = b.T @ b
        defect = np.abs(gram - np.eye(b.shape[1]))
        if defect.size and defect.max() > ORTHO_TOL:
            raise ValueError(
                f"basis columns are not orthonormal (defect {defect.max():.3e})"
            )

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]

    def project(self, x):
        """Orthogonal projection of the vector ``x`` onto the subspace."""
        return self.basis @ (self.basis.T @ x)


def orthonormal_range(a):
    """Orthonormal basis of the range of ``a`` via SVD.

    Singular directions with singular value <= RANK_TOL * sigma_max are
    discarded, so a zero operator yields the trivial subspace.
    """
    m = as_operator(a)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(np.zeros((m.shape[0], 0)))
    keep = s > RANK_TOL * s[0]
    return Subspace(u[:, keep])


def invert(a):
    """Inverse of a square matrix from one SVD A = U S V^T, guarded by a
    singular-value ratio gate: A^{-1} = V S^{-1} U^T.

    Raises SingularOperatorError when sigma_min / sigma_max <= COND_TOL,
    reporting the offending ratio.
    """
    if isinstance(a, BlockCirculant):
        raise ValueError("invert takes a dense matrix, not a BlockCirculant")
    m = as_operator(a, square=True)
    u, s, vt = np.linalg.svd(m)
    ratio = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
    if ratio <= COND_TOL:
        raise SingularOperatorError(
            f"operator is numerically singular: sigma_min/sigma_max = {ratio:.3e}"
            f" <= {COND_TOL:.1e}"
        )
    return (vt.T / s) @ u.T
