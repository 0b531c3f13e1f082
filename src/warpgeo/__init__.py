"""warpgeo: numerical warped-product geometry and submersion verification.

Builds warped product manifolds and (conformal) submersions from
coordinate-chart data, computes connection and O'Neill tensors by finite
differences, and machine-checks the identities relating them at sampled
points. The ``warpgeo`` CLI runs the built-in scenario catalog.
"""

from .errors import (
    ConfigurationError,
    ConformalityError,
    DegenerateMetricError,
    DomainError,
    GeometryError,
    RankError,
    StencilError,
    WarpPositivityError,
)
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    ScalarField,
    VectorField,
    evaluation_scope,
    gradient,
    metric_inner,
    partial_derivative,
)
from .connection import (
    SecondFundamentalFormAt,
    christoffel,
    coordinate_submanifold_form,
    covariant_derivative,
    lie_bracket,
)
from .warped import (
    WarpedProduct,
    build_warped_product,
    lift,
    second_fundamental_form,
)
from .submersion import (
    DilationEstimate,
    SmoothMap,
    Splitting,
    SubmersionContext,
    conformal_a_formula,
    identity_map,
    oneill_a,
    oneill_t,
    pushforward,
    vertical_gradient,
)
from .conformal_warped import (
    CompatibilityEntry,
    CompatibilityReport,
    ConformalWarpedSubmersion,
    build_product_submersion,
    compatibility,
    compatibility_report,
)
from .report import CheckRecord, RunConfig, VerificationReport
from .sampling import sample_points

__all__ = [
    "ChartManifold",
    "CheckRecord",
    "CompatibilityEntry",
    "CompatibilityReport",
    "ConfigurationError",
    "ConformalWarpedSubmersion",
    "ConformalityError",
    "DegenerateMetricError",
    "DiffEngine",
    "DilationEstimate",
    "DomainError",
    "GeometryError",
    "RankError",
    "RunConfig",
    "ScalarField",
    "SecondFundamentalFormAt",
    "SmoothMap",
    "Splitting",
    "StencilError",
    "SubmersionContext",
    "VectorField",
    "VerificationReport",
    "WarpPositivityError",
    "WarpedProduct",
    "build_product_submersion",
    "build_warped_product",
    "christoffel",
    "compatibility",
    "compatibility_report",
    "conformal_a_formula",
    "coordinate_submanifold_form",
    "covariant_derivative",
    "evaluation_scope",
    "gradient",
    "identity_map",
    "lie_bracket",
    "lift",
    "metric_inner",
    "oneill_a",
    "oneill_t",
    "partial_derivative",
    "pushforward",
    "sample_points",
    "second_fundamental_form",
    "vertical_gradient",
]

__version__ = "0.1.0"
