"""Built-in example algebroids, sections, endomorphisms, and connections.

The star of the collection is ``E0``: a rank-4 bundle over the plane whose
anchor vanishes to second order on the coordinate axes.  It satisfies the
anchor-compatibility axiom but has a nonvanishing Jacobiator, and no
bounded-degree change of bracket by kernel-valued terms can repair that —
which is exactly the situation the certificate machinery exists to detect.

The remaining entries are supporting cast: quotient-shaped relatives of E0
(``E0prime`` and friends), a rank-2 bundle with the same anchor image
(``E0doubleprime``), its rank-4 extension by the kernel (``E00``), and
tangent bundles for sanity checks.

Every named bundle and E0's companions (kernel sections, the complex
structure J0, torsion-free connection) are read from the bundled documents in
``corpus/<name>.alg``, their only source: a built-in bundle is changed by
editing its document; J0 is read with ``dsl.document_endo``.  Only
``tangent<n>`` is built in code.
"""

from __future__ import annotations

import re
from importlib import resources

from .algebroid import Algebroid, AlgebroidError, BaseSpace, Section, _vector_field
from .dsl import Document, document_algebroid, parse

_BUNDLED = ("E0", "E00", "E0_itemized", "E0doubleprime", "E0prime", "E0prime_lie")

# the one spelling of a generated tangent bundle's name, dimension 1..99
TANGENT = re.compile(r"tangent([1-9][0-9]?)")


def corpus_file(name: str):
    """The bundled document ``<name>.alg`` as a package resource."""
    return resources.files("algforge") / "corpus" / f"{name}.alg"


def corpus_document(name: str) -> Document:
    """The bundled document ``<name>.alg``, parsed once per process; the caller owns its lists and dicts."""
    return parse(corpus_file(name).read_text(encoding="utf-8"))


def e0_kernel_sections() -> dict[str, Section]:
    """The two anchor-killed sections spanning ker(rho) off the axes."""
    doc = corpus_document("E0")
    return {name: doc.section(name).value for name in ("Xs1", "Xs2")}


def e0prime_to_e0_images() -> list[Section]:
    """Bundle map E0prime -> E0 as images: Y11 -> X11, Y22 -> X22, Ys1 -> Xs1, Ys2 -> Xs2."""
    doc = corpus_document("E0")
    e0 = document_algebroid(doc)
    return [e0.unit_section(0), e0.unit_section(3), doc.section("Xs1").value, doc.section("Xs2").value]


def tangent_bundle(base: BaseSpace) -> Algebroid:
    """The tangent bundle of `base`: generator T_j is d/dx_j, identity anchor, zero structure table."""
    n = base.dim
    anchor = [_vector_field(base, {(i, 0): 1}) for i in range(n)]
    return Algebroid(base, tuple(f"T{i + 1}" for i in range(n)), anchor, {}, f"tangent{n}")


def make_tangent(n: int) -> Algebroid:
    """The tangent bundle of R^n over x1..xn."""
    if n < 1:
        raise AlgebroidError("tangent bundle needs a positive dimension")
    return tangent_bundle(BaseSpace(tuple(f"x{i + 1}" for i in range(n))))


def builtin_names() -> list[str]:
    return sorted(_BUNDLED) + ["tangent<n>"]


def builtin(name: str) -> Algebroid:
    """Look up a built-in algebroid by name ('E0', 'tangent2', ...)."""
    if name in _BUNDLED:
        return document_algebroid(corpus_document(name))
    match = TANGENT.fullmatch(name)
    if match:
        return make_tangent(int(match.group(1)))
    raise AlgebroidError(
        f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
    )


def torsionfree_gamma(e0: Algebroid) -> dict[tuple[int, int], Section]:
    """Coefficient table of the canonical torsion-free connection on E0.

    Writing generators as X_j^i, the rule is: differentiating X_l^k along
    X_j^i gives 2 x^k X_l^i when j = k and zero otherwise.
    """
    if e0.gen_names != ("X11", "X21", "X12", "X22"):
        raise AlgebroidError("the torsion-free table is specific to E0's generators")
    return dict(corpus_document("E0").connection("torsionfree").gamma)
