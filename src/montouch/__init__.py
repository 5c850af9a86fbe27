"""Touching points of monotone operator graphs, and generalized cycles
and gap vectors of convex set families."""

from .convex import (
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
    Support,
)
from .cycles import (
    CycleProblem,
    build_problem,
    classical_cycle,
    generalized_cycle,
    verify_identities,
)
from .errors import (
    ConvergenceError,
    DegenerateProblemError,
    ParseError,
    PreconditionError,
    SingularOperatorError,
)
from .hilbert import (
    Subspace,
    as_operator,
    as_vector,
    invert,
    orthonormal_range,
)
from .monotone import (
    LinearMonotoneOracle,
    ResolventOracle,
    SubdifferentialOracle,
    SubspaceRestrictedOracle,
    UnmonotoneCertificate,
    is_mu_unmonotone,
    minty_point,
    modulus_from_lambda,
)
from .touching import TouchResult, VerificationReport, fixed_point, touch, verify_touch

__all__ = [
    "AffineSet",
    "Ball",
    "Box",
    "ConvexSet",
    "ConvergenceError",
    "CycleProblem",
    "DegenerateProblemError",
    "Halfspace",
    "Indicator",
    "LinearMonotoneOracle",
    "ParseError",
    "PreconditionError",
    "ProxFunction",
    "ResolventOracle",
    "ScaledSquare",
    "SeparableSum",
    "Singleton",
    "SingularOperatorError",
    "Subspace",
    "SubdifferentialOracle",
    "SubspaceRestrictedOracle",
    "Support",
    "TouchResult",
    "UnmonotoneCertificate",
    "VerificationReport",
    "as_operator",
    "as_vector",
    "build_problem",
    "classical_cycle",
    "fixed_point",
    "generalized_cycle",
    "invert",
    "is_mu_unmonotone",
    "minty_point",
    "modulus_from_lambda",
    "orthonormal_range",
    "touch",
    "verify_identities",
    "verify_touch",
]

__version__ = "0.1.0"
