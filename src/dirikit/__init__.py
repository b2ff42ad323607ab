"""Finite-dimensional Dirichlet-space toolkit.

Builds weighted-graph Dirichlet forms and their Markovian semigroups,
searches for order isomorphisms intertwining two such semigroups, and
numerically certifies the rigidity identities exact intertwiners satisfy:
unitarity up to a constant, the measure pushforward identity, constant
scaling in the recurrent case, the jump-measure transformation law, the
resistance-metric isometry, and the bijection between intrinsic-metric
families.
"""

from .core import (
    GraphForm,
    MeasureSpace,
    build_form,
    generate,
    generator,
    sierpinski_corners,
)
from .errors import DirikitError
from .metrics import (
    PseudoMetric,
    canonical_intrinsic_metric,
    effective_resistance,
    is_intrinsic,
    resistance_matrix,
    verify_intrinsic_bijection,
    verify_resistance_isometry,
)
from .orderiso import (
    OrderIso,
    certify,
    doob_pair,
    intertwining_residual,
    verify_jump_transform,
)
from .report import Check, VerificationReport
from .search import (
    EquivalenceVerdict,
    SearchOptions,
    equivalence_verdict,
    find_intertwiners,
)
from .spectral import (
    find_nonconstant_excessive,
    is_excessive,
    is_irreducible,
    is_recurrent,
    semigroup,
    spectral_data,
)
from .tolerances import DEFAULT_TOL, Tolerance

__version__ = "0.1.0"

__all__ = [
    "Check",
    "DEFAULT_TOL",
    "DirikitError",
    "EquivalenceVerdict",
    "GraphForm",
    "MeasureSpace",
    "OrderIso",
    "PseudoMetric",
    "SearchOptions",
    "Tolerance",
    "VerificationReport",
    "build_form",
    "canonical_intrinsic_metric",
    "certify",
    "doob_pair",
    "effective_resistance",
    "equivalence_verdict",
    "find_intertwiners",
    "find_nonconstant_excessive",
    "generate",
    "generator",
    "intertwining_residual",
    "is_excessive",
    "is_intrinsic",
    "is_irreducible",
    "is_recurrent",
    "resistance_matrix",
    "semigroup",
    "sierpinski_corners",
    "spectral_data",
    "verify_intrinsic_bijection",
    "verify_jump_transform",
    "verify_resistance_isometry",
]
