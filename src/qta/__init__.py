"""Exact-arithmetic calculator for quasi-twilled associative algebras.

Split associative structures on A + A' (A' a subalgebra), right/left
deformation maps and their residuals, twisting, derived-bracket (curved)
L-infinity controlling algebras, Maurer-Cartan checks, and the cochain
complexes and cohomology of deformation maps.  All arithmetic is exact
over the rationals.
"""

from .algebras import (
    AssociativeAlgebra, AssociativeRepresentation, Cocycle2, MatchedPairData,
    RepresentationPair, ResidualReport, check_associative,
    check_associative_representation, check_matched_pair,
    check_representation, regular_representation,
)
from .catalog import catalog_names, emit_example, get_entry
from .cohomology import (
    coboundary_apply, coboundary_apply_expanded, coboundary_matrix,
    cochain_complex, cohomology_dims, hochschild_complex, l1_vs_d,
)
from .closed_formulas import explicit_formula, explicit_formula_check
from .deformation import (
    TwistResult, classify_operator, conjugation_twist, duality_check,
    graph_residual, induced_left_structures, induced_right_structures,
    left_residual, right_residual, twist_blocks, twist_left, twist_right,
)
from .errors import (
    ArityError, BlockError, DegreeError, DimensionError, IngredientError,
    InvalidQTA, NotDeformationMap, NotMaurerCartan, ParseError, QtaError,
    SchemaError, SingularMap, UnknownExample, UnknownKind,
)
from .linalg import ExactMatrix, invert
from .linfty import (
    CurvedLInftyStructure, VData, controlling_structure, derived_bracket,
    mc_residual,
)
from .multilinear import (
    A, APRIME, TOTAL, MultilinearMap, SpaceLabel, circle, circle_parts,
    gerstenhaber, insert, koszul_sign, lift, linear_map_from_matrix,
    matrix_from_linear_map, msum, project, random_map, seeded_rng, unshuffles,
)
from .quasitwilled import (
    BUILDER_KINDS, QuasiTwilledAlgebra, StructureResidual, build_standard,
    equation_rows, require_quasi_twilled, structure_residuals, total_product,
    validate,
)

__version__ = "0.1.0"

# The one coefficient kernel, qta.kernel, is pure Python; run records of the
# benchmark name it.
KERNEL_BACKEND = "python"
