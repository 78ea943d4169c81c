"""Exact-arithmetic calculator for quasi-twilled associative algebras.

Split associative structures on A + A' (A' a subalgebra), right/left
deformation maps and their residuals, twisting, derived-bracket (curved)
L-infinity controlling algebras, Maurer-Cartan checks, and the cochain
complexes and cohomology of deformation maps.  All arithmetic is exact
over the rationals.

`import qta` loads the structure layers only: errors, kernel, multilinear,
algebras, quasitwilled, linalg, deformation and closed_formulas.  The
cohomology, linfty and catalog modules, and the names exported from them,
load on first use (PEP 562); a command-line call thus reads only the
modules it runs.
"""

from types import ModuleType as _ModuleType

from .algebras import (
    AssociativeAlgebra, AssociativeRepresentation, Cocycle2, MatchedPairData,
    RepresentationPair, check_associative, regular_representation,
)
from .closed_formulas import explicit_formula, explicit_formula_check
from .deformation import (
    TwistResult, conjugation_twist, left_residual, operator_name,
    right_residual, twist_blocks, twist_left, twist_right,
)
from .errors import (
    ArityError, BlockError, DegreeError, DimensionError, IngredientError,
    InvalidQTA, NotDeformationMap, NotMaurerCartan, ParseError, QtaError,
    SchemaError, SingularMap, UnknownExample, UnknownKind,
)
from .linalg import ExactMatrix, invert
from .multilinear import (
    A, APRIME, TOTAL, MultilinearMap, SpaceLabel, circle, gerstenhaber,
    insert, koszul_sign, lift, linear_map_from_matrix, msum, project,
    random_map, seeded_rng, unshuffles,
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

# lazily exported name -> the qta module that defines it; a module's own
# name is the module
_LAZY = {name: module for module, names in (
    ("catalog", ("catalog", "catalog_names", "emit_example", "get_entry")),
    ("cohomology", (
        "cohomology", "coboundary_apply", "coboundary_matrix",
        "cochain_complex", "cohomology_dims", "hochschild_complex")),
    ("linfty", (
        "linfty", "CurvedLInftyStructure", "VData", "controlling_structure",
        "mc_residual")),
) for name in names}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += [name for name, module in _LAZY.items() if name != module]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # once imported, the submodule is bound here by the import system
    loaded = globals().get(module)
    if loaded is None:
        from importlib import import_module
        loaded = import_module(f"{__name__}.{module}")
    # returned, not bound here: a name stays the module's own attribute
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
