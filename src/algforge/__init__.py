"""Exact symbolic checker for anchored bundles with skew brackets.

The objects here are vector bundles over a polynomial coefficient ring with
an anchor into vector fields and a skew bracket table; the library verifies
the compatibility axioms, measures the failure of the Jacobi identity,
differentiates forms, builds connections with torsion and curvature, and
assembles trace characteristic forms together with the transgression
machinery that certifies their independence from the chosen connection.
All arithmetic is exact (integer and rational coefficients); nothing is
approximated numerically.
"""

__version__ = "0.1.0"

from .algebroid import (
    Algebroid,
    AlgebroidError,
    BaseSpace,
    BracketModifier,
    Endomorphism,
    Section,
    VectorField,
    courant_defect,
    courant_solution_space,
    lie_infeasibility_certificate,
    nijenhuis,
    subalgebroid_restrict,
    vf_bracket,
)
from .catalog import builtin, builtin_names, make_tangent, tangent_bundle, torsionfree_gamma
from .charclass import (
    FormMatrix,
    char_form,
    connection_forms,
    curvature_matrix,
    product_algebroid,
    pullback_consistency,
    transgression_check,
)
from .connection import EConnection, derive_bundle, flat_connection, induced_connection
from .forms import Form, Lambda2Ideal, d_squared, differential, pullback, strong_closed, weak_closed
from .poly import Poly
from .sampling import Sampler

__all__ = [
    "__version__",
    "Algebroid",
    "AlgebroidError",
    "BaseSpace",
    "BracketModifier",
    "EConnection",
    "Endomorphism",
    "Form",
    "FormMatrix",
    "Lambda2Ideal",
    "Poly",
    "Sampler",
    "Section",
    "VectorField",
    "builtin",
    "builtin_names",
    "char_form",
    "connection_forms",
    "courant_defect",
    "courant_solution_space",
    "curvature_matrix",
    "d_squared",
    "derive_bundle",
    "differential",
    "flat_connection",
    "induced_connection",
    "lie_infeasibility_certificate",
    "make_tangent",
    "nijenhuis",
    "product_algebroid",
    "pullback",
    "pullback_consistency",
    "strong_closed",
    "subalgebroid_restrict",
    "tangent_bundle",
    "torsionfree_gamma",
    "transgression_check",
    "vf_bracket",
    "weak_closed",
]
