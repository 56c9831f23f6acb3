"""Exact symbolic checker for anchored bundles with skew brackets.

The objects here are vector bundles over a polynomial coefficient ring with
an anchor into vector fields and a skew bracket table; the library verifies
the compatibility axioms, measures the failure of the Jacobi identity,
differentiates forms, builds connections with torsion and curvature, and
assembles trace characteristic forms together with the transgression
machinery that certifies their independence from the chosen connection.
All arithmetic is exact (integer and rational coefficients); nothing is
approximated numerically.

Importing the package loads none of its submodules.  A name in ``__all__``
imports its submodule on first access, so ``from algforge import builtin``
loads the catalog and what it needs, not the forms or characteristic-class
layers; ``from algforge import *`` loads them all.
"""

__version__ = "0.1.0"

from importlib import import_module

# submodule -> the public names it defines; a submodule is imported on the
# first access to one of its names
_EXPORTS = {
    "algebroid": (
        "Algebroid",
        "AlgebroidError",
        "BaseSpace",
        "BracketModifier",
        "Endomorphism",
        "Section",
        "VectorField",
        "courant_defect",
        "courant_solution_space",
        "lie_infeasibility_certificate",
        "nijenhuis",
        "subalgebroid_restrict",
        "vf_bracket",
    ),
    "catalog": ("builtin", "builtin_names", "make_tangent", "tangent_bundle", "torsionfree_gamma"),
    "charclass": (
        "FormMatrix",
        "char_form",
        "connection_forms",
        "curvature_matrix",
        "product_algebroid",
        "pullback_consistency",
        "transgression_check",
    ),
    "connection": ("EConnection", "derive_bundle", "flat_connection", "induced_connection"),
    "forms": ("Form", "Lambda2Ideal", "d_squared", "differential", "pullback", "strong_closed", "weak_closed"),
    "poly": ("Poly",),
    "sampling": ("Sampler",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
