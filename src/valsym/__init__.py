"""Finite-domain constraint solving with value-symmetry breaking.

The library models problems whose values (colors, slot labels, pigeonholes)
are partly or fully interchangeable and offers four ways to avoid returning
symmetric duplicates: static lex-leader constraints, value precedence,
first-occurrence channelling, and dynamic least-in-orbit branching.
"""

from .domains import Assignment, VarId
from .engine import PropagationOutcome, Propagator, propagate_to_fixpoint
from .errors import (
    BudgetExceeded,
    DimacsParseError,
    GroupTooLarge,
    ModelError,
    UnsupportedModeError,
)
from .model import Constraint, ConstraintKind, Model
from .problems import (
    build_all_interval,
    build_coloring,
    build_coloring_from_dimacs,
    build_pigeonhole,
    parse_dimacs,
    random_interchangeable_model,
)
from .search import (
    ModeResult,
    SearchConfig,
    SearchStats,
    applicable_modes,
    break_group,
    compare_methods,
    getree_allowed_values,
    solve,
    verify_symmetry_breaking,
)
from .symmetry import (
    ClassProduct,
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    canonical_form,
    close_group,
    exact_valsym_prune,
    full_symmetric_group,
    inversion_permutation,
    orbit_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BudgetExceeded",
    "ClassProduct",
    "Constraint",
    "ConstraintKind",
    "DimacsParseError",
    "GroupTooLarge",
    "ModeResult",
    "Model",
    "ModelError",
    "PropagationOutcome",
    "Propagator",
    "SearchConfig",
    "SearchStats",
    "SymmetrySpec",
    "UnsupportedModeError",
    "ValuePermutation",
    "VarId",
    "VarValueSymmetry",
    "applicable_modes",
    "break_group",
    "build_all_interval",
    "build_coloring",
    "build_coloring_from_dimacs",
    "build_pigeonhole",
    "canonical_form",
    "close_group",
    "compare_methods",
    "exact_valsym_prune",
    "full_symmetric_group",
    "getree_allowed_values",
    "inversion_permutation",
    "orbit_partition",
    "parse_dimacs",
    "propagate_to_fixpoint",
    "random_interchangeable_model",
    "solve",
    "verify_symmetry_breaking",
]
