"""The document language: parsing, elaboration, serialization, corpus sync."""

import random
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge.algebroid import Algebroid, Section, VectorField
from algforge.catalog import builtin, e0_kernel_sections, make_tangent
from algforge.connection import derive_bundle, flat_connection
from algforge.dsl import (
    DEGREE_CAP,
    DslError,
    EndoDecl,
    FormDecl,
    SectionDecl,
    _Parser,
    algebroid_to_document,
    document_algebroid,
    document_connection,
    document_endo,
    document_form,
    parse,
    serialize,
    tokenize,
)
from algforge.forms import Form
from algforge.poly import Poly
from algforge.sampling import Sampler
from test_rational_golden import HALVES

CORPUS = resources.files("algforge") / "corpus"

VALID = [
    "E0.alg",
    "E0_itemized.alg",
    "E0prime.alg",
    "E0prime_lie.alg",
    "E0doubleprime.alg",
    "E00.alg",
    "tangent2.alg",
    "derived_e0.alg",
    "plane_forms.alg",
]
INVALID = ["bad_syntax.alg", "bad_diagonal.alg", "bad_anchor_dim.alg"]


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


@pytest.mark.parametrize("name", VALID)
def test_round_trip_is_identity(name):
    doc = parse(corpus_text(name))
    again = parse(serialize(doc))
    assert again == doc
    # serialization is idempotent
    assert serialize(again) == serialize(doc)


@pytest.mark.parametrize("name", INVALID)
def test_invalid_documents_raise_positioned_errors(name):
    with pytest.raises(DslError) as exc:
        parse(corpus_text(name))
    assert exc.value.line > 0
    assert exc.value.col > 0
    assert "line" in str(exc.value)


def test_e0_anchors_brackets_and_kernel_are_pinned():
    e0 = builtin("E0")
    assert [vf.to_text() for vf in e0.anchor] == ["x1^2*d1", "x1^2*d2", "x2^2*d1", "x2^2*d2"]
    brackets = {
        (0, 1): "2*x1*X21",
        (0, 2): "-2*x1*X12",
        (0, 3): "0",
        (1, 2): "2*x2*X11 - 2*x1*X22",
        (1, 3): "2*x2*X21",
        (2, 3): "-2*x2*X12",
    }
    assert {key: e0.section_text(e0.bracket_gen(*key)) for key in brackets} == brackets
    kern = e0_kernel_sections()
    assert {name: e0.section_text(s) for name, s in kern.items()} == {
        "Xs1": "x2^2*X11 - x1^2*X12",
        "Xs2": "x2^2*X21 - x1^2*X22",
    }


# serializer output; plane_forms.alg is written by hand, with comments
CANONICAL = [name for name in VALID if name != "plane_forms.alg"]


@pytest.mark.parametrize("name", CANONICAL)
def test_bundled_documents_are_canonical(name):
    text = corpus_text(name)
    assert serialize(parse(text)) == text


def test_derived_e0_document_is_the_derived_bundle_of_e0():
    doc = parse(corpus_text("E0.alg"))
    e0 = document_algebroid(doc)
    d = derive_bundle(document_connection(doc, e0, "torsionfree"))
    want = serialize(algebroid_to_document(d.derived, connections={"lifted": d.lifted}))
    assert corpus_text("derived_e0.alg") == want


def test_tangent2_document_is_the_generated_tangent_bundle():
    # the same document the CLI generates for a `tangent<N>` name
    t2 = make_tangent(2)
    want = serialize(algebroid_to_document(t2, connections={"flat": flat_connection(t2)}))
    assert corpus_text("tangent2.alg") == want


def test_a_reversed_bracket_declaration_is_negated():
    head = "base 1 (x)\nbundle E rank 2 gens (a, b)\nanchor a -> d1\nanchor b -> -x*d1\n"
    reversed_doc = parse(head + "bracket [b, a] = a\n")
    forward_doc = parse(head + "bracket [a, b] = -a\n")
    reversed_alg, forward_alg = document_algebroid(reversed_doc), document_algebroid(forward_doc)
    assert reversed_alg.structure == forward_alg.structure
    assert reversed_alg.section_text(reversed_alg.bracket_gen(0, 1)) == "-a"
    assert reversed_alg.section_text(reversed_alg.bracket_gen(1, 0)) == "a"
    assert reversed_doc == forward_doc
    assert parse(serialize(reversed_doc)) == reversed_doc


# a base, a rank-2 bundle E and a second bundle F, so that statements on line 4
# can mix bundles
TWO_BUNDLES = "base 2 (x, y)\nbundle E rank 2 gens (A, B)\nbundle F rank 1 gens (C)\n"
KEYWORDS = "anchor, base, bracket, bundle, cometric, connection, endo, form, section"


T = TWO_BUNDLES
NO_FIELD = "term has no coordinate field d1..d2; only the literal 0 may stand alone"
NO_GEN = "term has no generator; only the literal 0 may stand alone"
# (text, (kind, line, col, message)) of the error each text raises
ERROR_CASES = [
    ("base 2 (x, y)\nbundle E rank 3 gens (A, B)\n",
     ("semantic", 2, 1, "bundle declares rank 3 but lists 2 generators")),
    ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nanchor A -> z*d1\n",
     ("semantic", 3, 13, "expected a coordinate field d1..d2 or polynomial, found 'z'")),
    ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nbracket [A, C] = 0\n",
     ("semantic", 3, 13, "undeclared generator 'C'")),
    ("base 2 (x, y)\nbundle E rank 2 gens (A, x)\n",
     ("semantic", 2, 26, "name 'x' already names a base variable")),
    ("base 2 (x, y)\nform junk = w(A)\n", ("semantic", 2, 15, "undeclared generator 'A'")),
    ("base 2 (x y)\n", ("syntax", 1, 11, "expected ')', found 'y'")),
    ("bundle E rank 2 gens (A, B)\n", ("semantic", 1, 1, "a base statement must come first")),
    ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nform f = w(A) + w(A)^w(B)\n",
     ("semantic", 3, 6, "form mixes components of different degrees")),
    ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nsection s = A^-1\n",
     ("syntax", 3, 14, f"expected a statement keyword ({KEYWORDS}), found '^'")),
    ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> (x+1)^99999*d1\n",
     ("semantic", 3, 19, "exponent 99999 would exceed the degree cap of 64")),
    ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> x^99999999*d1\n",
     ("semantic", 3, 15, "exponent 99999999 would exceed the degree cap of 64")),
    ("base 2 (x, y)\nbundle E rank 1 gens (e)\nanchor e -> x^40*y^40*d1\n",
     ("semantic", 3, 18, "product of degree 80 exceeds the degree cap of 64")),
    ("base 1 (x1)\nbundle E rank 1 gens (e)\nanchor e -> x1^²*d1\n",
     ("syntax", 3, 16, "unexpected character '²'")),
    ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> " + "9" * 5000 + "*x*d1\n",
     ("semantic", 3, 13, "integer literal of 5000 digits is too long")),
    # anchors
    (T + "anchor A -> x*B\n", ("semantic", 4, 15, "'B' is not a coordinate field of this 2-variable base")),
    (T + "anchor A -> d3\n", ("semantic", 4, 13, "'d3' is not a coordinate field of this 2-variable base")),
    (T + "anchor A -> d1*d2\n", ("semantic", 4, 16, "term names two basis elements")),
    (T + "anchor A -> x + d1\n", ("semantic", 4, 15, NO_FIELD)),
    (T + "anchor A -> d1\nanchor A -> d2\n", ("semantic", 5, 8, "anchor of 'A' declared twice")),
    (T + "anchor A -> (z + 1)*d1\n", ("semantic", 4, 14, "unknown variable 'z'")),
    (T + "anchor A -> 1/0*d1\n", ("semantic", 4, 13, "zero denominator")),
    (T + "anchor A -> (x +)*d1\n", ("syntax", 4, 17, "expected a polynomial, found ')'")),
    (T + "anchor A -> x^y*d1\n", ("syntax", 4, 15, "expected integer, found 'y'")),
    (T + "anchor A ->", ("syntax", 4, 12, "expected a coordinate field d1..d2 or polynomial, found ''")),
    (T + "anchor A -> d1*", ("syntax", 4, 16, "expected a coordinate field d1..d2 or polynomial, found ''")),
    (T + "anchor A -> d1 +", ("syntax", 4, 17, "expected a coordinate field d1..d2 or polynomial, found ''")),
    # brackets
    (T + "bracket [A, B] = C\n", ("semantic", 4, 18, "'C' is not a generator of bundle 'E'")),
    (T + "bracket [A, C] = 0\n", ("semantic", 4, 10, "bracket entries must come from one bundle")),
    (T + "bracket [A, A] = B\n", ("semantic", 4, 10, "diagonal bracket must be zero")),
    (T + "bracket [A, B] = A\nbracket [B, A] = B\n", ("semantic", 5, 10, "bracket [B, A] declared twice")),
    (T + "bracket [A, B] = x*A*B\n", ("semantic", 4, 22, "term names two basis elements")),
    (T + "bracket [A, B] = 2\n", ("semantic", 5, 1, NO_GEN)),
    (T + "bracket [A, B] =", ("syntax", 4, 17, "expected a generator or polynomial, found ''")),
    # sections
    (T + "section s = 0\n", ("semantic", 4, 9, "section expression names no generator")),
    (T + "section s = A + C\n", ("semantic", 4, 17, "section mixes generators of different bundles")),
    (T + "section s = Z\n", ("semantic", 4, 13, "expected a generator or polynomial, found 'Z'")),
    (T + "section s = d1\n", ("semantic", 4, 13, "undeclared generator 'd1'")),
    (T + "section s = A*B\n", ("semantic", 4, 15, "term names two basis elements")),
    (T + "section s = x - A\n", ("semantic", 4, 15, NO_GEN)),
    (T + "section s = x^40*y^40*A\n", ("semantic", 4, 18, "product of degree 80 exceeds the degree cap of 64")),
    (T + "section s =", ("syntax", 4, 12, "expected a generator or polynomial, found ''")),
    (T + "section s = A*", ("syntax", 4, 15, "expected a generator or polynomial, found ''")),
    (T + "section s = A*-x\n", ("syntax", 4, 15, "expected a generator or polynomial, found '-'")),
    (T + "section s =\nsection t = A\n", ("syntax", 5, 1, "expected a generator or polynomial, found 'section'")),
    # connections
    (T + "connection c on G { }\n", ("semantic", 4, 17, "undeclared bundle 'G'")),
    (T + "connection c on E { A B -> C }\n", ("semantic", 4, 28, "'C' is not a generator of bundle 'E'")),
    (T + "connection c on E { A C -> A }\n",
     ("semantic", 4, 21, "connection entries must use the bundle's generators")),
    (T + "connection c on E { default 1 }\n", ("semantic", 4, 29, "only 'default 0' is supported")),
    (T + "connection c on E { A B -> A  A B -> B }\n",
     ("semantic", 4, 31, "connection entry A B declared twice")),
    (T + "connection c on E { A B -> x }\n", ("semantic", 4, 30, NO_GEN)),
    # endomorphisms
    (T + "endo J { A -> B  C -> C }\n", ("semantic", 4, 18, "endomorphism entries must use one bundle")),
    (T + "endo J { }\n", ("semantic", 4, 10, "endomorphism needs at least one image")),
    (T + "endo J { A -> B  A -> A }\n", ("semantic", 4, 18, "image of 'A' declared twice")),
    (T + "endo J { A -> C }\n", ("semantic", 4, 15, "'C' is not a generator of bundle 'E'")),
    # forms
    (T + "form f = w(A)^x\n", ("syntax", 4, 15, "expected 'w', found 'x'")),
    (T + "form f = w(1)\n", ("syntax", 4, 12, "expected generator name, found '1'")),
    (T + "form f = w(A) + w(C)\n", ("semantic", 4, 19, "form mixes generators of different bundles")),
    (T + "form f = w(A B)\n", ("syntax", 4, 14, "expected ')', found 'B'")),
    (T + "form f = x*A\n", ("semantic", 4, 12, "expected a generator dual or polynomial, found 'A'")),
    (T + "form f =", ("syntax", 4, 9, "expected a generator dual or polynomial, found ''")),
    (T + "form f = -", ("syntax", 4, 11, "expected a generator dual or polynomial, found ''")),
    (T + "form f = 2*", ("syntax", 4, 12, "expected a generator dual or polynomial, found ''")),
    (T + "form f = w(A)*", ("syntax", 4, 15, "expected a generator dual or polynomial, found ''")),
    (T + "form f =\nform g = 1\n", ("syntax", 5, 1, "expected a generator dual or polynomial, found 'form'")),
    (T + "form f = x^40*y^40*w(A)\n", ("semantic", 4, 15, "product of degree 80 exceeds the degree cap of 64")),
    ("base 1 (x)\nform f = 1\n", ("semantic", 2, 6, "a scalar form needs a bundle to live on; declare one first")),
    (T + "form f on G = 1\n", ("semantic", 4, 11, "undeclared bundle 'G'")),
    (T + "form f on F = w(A)\n", ("semantic", 4, 17, "'A' is not a generator of bundle 'F'")),
    # cometrics
    (T + "cometric G = [[1, 0], [0]]\n", ("semantic", 4, 26, "cometric matrix must be square")),
]


def test_error_kinds_and_positions():
    for text, want in ERROR_CASES:
        with pytest.raises(DslError) as exc:
            parse(text)
        err = exc.value
        assert (err.kind, err.line, err.col, err.message) == want, text


def test_an_invalid_text_raises_its_positioned_error_on_every_parse():
    # errors are never kept: each parse of the text raises the row's error anew
    for text, want in ERROR_CASES:
        for _ in range(2):
            with pytest.raises(DslError) as exc:
                parse(text)
            err = exc.value
            assert (err.kind, err.line, err.col, err.message) == want, text


def test_each_parse_hands_out_its_own_document():
    text = corpus_text("E0.alg")
    reference = _Parser(text).parse_document()
    doc = parse(text)
    assert doc == reference
    # write to every list and every kind of declaration dict of the handed-out document
    doc.bundle().brackets[(0, 3)] = doc.section("Xs1").value
    doc.connection("torsionfree").gamma.clear()
    doc.form("omega21").comps[(1, 0)] = Poly.const(2, 1)
    doc.forms.append(FormDecl("f", "E0", 0, {(): Poly.variable(2, 0)}))
    doc.sections.clear()
    again = parse(text)
    assert again == reference
    assert again.bundle().brackets is not doc.bundle().brackets


def test_a_product_of_duals_is_their_wedge():
    doc = parse(TWO_BUNDLES + "form f = x*w(B)*w(A)\nform g = -x*w(A)^w(B)\nform h = 3/2\n")
    assert doc.form("f").comps == doc.form("g").comps
    assert (doc.form("h").degree, doc.form("h").bundle) == (0, "E")


# one zero object of each kind on the second of two bundles, and the text
# serialize writes for it: each names a generator of its bundle
ZERO_HEAD = "base 1 (x)\nbundle E rank 1 gens (A)\nbundle F rank 2 gens (B, C)\n"
ZERO_F = Section.zero(2, 1)
ZEROS = [
    (SectionDecl("s", "F", ZERO_F), "section s = 0*B"),
    (EndoDecl("J", "F", (ZERO_F, ZERO_F)), "endo J {\n  B -> 0\n}"),
    (FormDecl("f", "F", 1), "form f = 0*w(B)"),
    (FormDecl("g", "F", 2), "form g = 0*w(B)^w(C)"),
    (FormDecl("h", "F", 0), "form h on F = 0"),
]


@pytest.mark.parametrize("decl, text", ZEROS, ids=["section", "endo", "1-form", "2-form", "0-form"])
def test_zero_objects_round_trip_on_the_second_bundle(decl, text):
    doc = parse(ZERO_HEAD)
    {SectionDecl: doc.sections, EndoDecl: doc.endos, FormDecl: doc.forms}[type(decl)].append(decl)
    written = serialize(doc)
    assert written.endswith(f"\n{text}\n")
    assert parse(written) == doc


def test_a_0_form_on_the_second_bundle_round_trips():
    doc = parse(ZERO_HEAD)
    doc.forms.append(FormDecl("f", "F", 0, {(): Poly.variable(1, 0)}))
    written = serialize(doc)
    assert written.endswith("\nform f on F = x\n")
    assert parse(written) == doc
    # a 0-form on the first bundle is written as before
    assert serialize(parse(ZERO_HEAD + "form g on E = -x\n")).endswith("\nform g = (-x)\n")


def test_a_repeated_dual_keeps_its_degree_on_the_second_bundle():
    doc = parse(ZERO_HEAD + "form f = w(C)^w(C)\n")
    assert doc.form("f") == FormDecl("f", "F", 2)
    assert parse(serialize(doc)) == doc


def test_degree_cap_admits_its_bound():
    doc = parse("base 2 (x, y)\nbundle E rank 1 gens (e)\nanchor e -> x^32*(y^2)^16*d1\n")
    assert doc.bundle().anchors[0].coeffs[0].total_degree() == DEGREE_CAP
    assert parse(serialize(doc)) == doc


def test_duplicate_names_rejected():
    text = "base 2 (x, y)\nbundle E rank 2 gens (A, B)\nbundle E rank 2 gens (C, D)\n"
    with pytest.raises(DslError):
        parse(text)


def test_rational_coefficients_round_trip():
    text = (
        "base 1 (u)\n"
        "bundle L rank 2 gens (P, Q)\n"
        "anchor P -> u*d1\n"
        "anchor Q -> d1\n"
        "form half = 1/2*w(P) - 3/4*u*w(Q)\n"
    )
    doc = parse(text)
    f = doc.form("half")
    assert f.comps[(0,)].terms == {(0,): Fraction(1, 2)}
    assert parse(serialize(doc)) == doc


def test_document_lookups_enforce_bundles():
    doc = parse(corpus_text("E0.alg"))
    e0 = document_algebroid(doc)
    other = builtin("E00")
    assert document_connection(doc, e0, "torsionfree").is_torsion_free()
    assert document_endo(doc, e0, "J0").is_almost_complex()
    assert document_form(doc, e0, "omega21").degree == 1
    with pytest.raises(KeyError):
        document_connection(doc, other, "torsionfree")
    with pytest.raises(KeyError):
        doc.connection("nonexistent")


def test_comments_and_whitespace_are_ignored():
    text = (
        "# leading comment\n"
        "base 2 (x, y)  # trailing comment\n"
        "\n"
        "bundle E rank 1 gens (A)\n"
        "anchor A -> x*d1   # anchors too\n"
    )
    doc = parse(text)
    assert doc.bundle().gens == ("A",)


def test_algebroid_to_document_sanitizes_wedge_names():
    from algforge.connection import EConnection, derive_bundle
    from algforge.catalog import torsionfree_gamma

    e0 = builtin("E0")
    d = derive_bundle(EConnection(e0, torsionfree_gamma(e0)))
    doc = algebroid_to_document(d.derived)
    names = doc.bundle().gens
    assert "X11_X21" in names
    assert all("^" not in n for n in names)
    text = serialize(doc)
    assert parse(text) == doc


def test_default_zero_brackets_are_not_serialized():
    doc = parse(corpus_text("E0.alg"))
    assert "bracket [X11, X22]" not in serialize(doc)


# ---------------------------------------------------------------------------
# parsed sums are folded per slot, in slot order
# ---------------------------------------------------------------------------

# names generators and coordinate fields out of order, twice and cancelling
OUT_OF_ORDER = """
base 2 (x, y)
bundle H rank 3 gens (A, B, C)
anchor A -> x*d2 + d1 - x*d2
anchor B -> y*d2
bracket [B, A] = x*C - C - x*C
section s = y*C + 2*A - y*C + A
connection nabla on H { C B -> C + x*A - A  default 0 }
endo J { B -> C + y*A - y*A + x*B  A -> -2*B }
form f = y*w(B)^w(A) + w(A)^w(B) + x*w(C)*w(A)
"""


def parsed_sums(doc):
    """Every sum a document parses: anchors, brackets, sections, connection entries, endomorphism images."""
    for b in doc.bundles:
        yield from b.anchors
        yield from b.brackets.values()
    yield from (s.value for s in doc.sections)
    for c in doc.connections:
        yield from c.gamma.values()
    for e in doc.endos:
        yield from e.images


@pytest.mark.parametrize("name", [*VALID, "OUT_OF_ORDER"])
def test_parsed_sums_are_in_slot_order_and_equal_the_dense_construction(name):
    doc = parse(OUT_OF_ORDER if name == "OUT_OF_ORDER" else corpus_text(name))
    sums = list(parsed_sums(doc))
    assert sums
    for x in sums:
        dense = VectorField(x.base, x.coeffs) if isinstance(x, VectorField) else Section(x.coeffs)
        assert x == dense
        assert list(x.terms.items()) == list(dense.terms.items())
    for f in doc.forms:
        assert list(f.comps) == sorted(f.comps)


def test_an_out_of_order_sum_folds_each_slot_once():
    doc = parse(OUT_OF_ORDER)
    b = doc.bundle()
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.const(2, 1)
    assert [v.coeffs for v in b.anchors] == [(one, Poly.zero(2)), (Poly.zero(2), y), (Poly.zero(2),) * 2]
    assert b.brackets == {(0, 1): Section([Poly.zero(2), Poly.zero(2), one])}
    assert doc.section("s").value.terms == {(0, 0): 3}
    assert doc.connection("nabla").gamma == {(2, 1): Section([x - one, Poly.zero(2), one])}
    assert [list(image.terms.items()) for image in doc.endo("J").images] == [
        [((1, 0), -2)], list(Section([Poly.zero(2), x, one]).terms.items()), []
    ]
    assert doc.form("f").comps == {(0, 1): one - y, (0, 2): -x}


# ---------------------------------------------------------------------------
# every printed sum reads back as what was printed
# ---------------------------------------------------------------------------


def read_back(a, line: str):
    """The document of one printed line over the base and generators of ``a``."""
    return parse(
        f"base {a.nvars} ({', '.join(a.base.var_names)})\n"
        f"bundle {a.name} rank {a.rank} gens ({', '.join(a.gen_names)})\n{line}\n"
    )


@pytest.mark.parametrize("name", ["E0.alg", "derived_e0.alg", "HALVES"])
def test_every_printed_sum_reads_back_as_what_was_printed(name):
    a = document_algebroid(parse(HALVES if name == "HALVES" else corpus_text(name)))
    sampler = Sampler(0)

    def variants(value):
        """The draw, and the draw with Fraction coefficients and with its signs flipped."""
        return value, value.scale(Fraction(-2, 3)), -value

    for _ in range(8):
        for s in variants(sampler.section(a)):
            assert read_back(a, f"section s = {a.section_text(s)}").sections[0].value == s

    # anchors, sampled vector fields and the anchor-axiom defects of a sampled bracket
    drawn = [VectorField(a.base, [sampler.maybe_zero_poly(a.nvars) for _ in range(a.nvars)]) for _ in range(8)]
    table = {pair: sampler.section(a) for pair in list(combinations(range(a.rank), 2))[:6]}
    defects = [defect for *_, defect in Algebroid(a.base, a.gen_names, a.anchor, table).check_axioms().failures]
    assert defects
    for field in [*a.anchor, *drawn, *defects]:
        for v in variants(field):
            assert read_back(a, f"anchor {a.gen_names[0]} -> {v.to_text()}").bundles[0].anchors[0] == v

    forms = [sampler.form(a, degree) for degree in range(4) for _ in range(4)] + [Form.zero(a, 0)]
    for form in forms:
        for f in variants(form):
            assert document_form(read_back(a, f"form f = {f.to_text()}"), a, "f") == f
    # a report prints the zero form of every degree as 0, which reads back as the zero function
    assert document_form(read_back(a, f"form f = {Form.zero(a, 2).to_text()}"), a, "f") == Form.zero(a, 0)


# ---------------------------------------------------------------------------
# the tokenizer against a character-loop reference
# ---------------------------------------------------------------------------


def reference_tokenize(text: str):
    """The tokenizer as a plain loop over characters: `(kind, text, line, col)`
    tuples, or `("error", message, line, col)` for the first bad character.

    A comment does not advance the column, so after a trailing comment the
    end-of-input token sits at the column of its `#`.
    """
    symbols, digits = set("()[]{},^*+-=/"), set("0123456789")
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            i, col = i + 1, col + 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "-" and text[i + 1 : i + 2] == ">":
            tokens.append(("arrow", "->", line, col))
            i, col = i + 2, col + 2
        elif ch in symbols:
            tokens.append(("sym", ch, line, col))
            i, col = i + 1, col + 1
        elif ch in digits or ch.isalpha() or ch == "_":
            start = i
            if ch in digits:
                kind = "int"
                while i < n and text[i] in digits:
                    i += 1
            else:
                kind = "ident"
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
            tokens.append((kind, text[start:i], line, col))
            col += i - start
        else:
            return ("error", f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def engine_tokenize(text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except DslError as err:
        assert (err.kind, str(err)) == ("syntax", f"line {err.line}, col {err.col}: {err.message}")
        return ("error", err.message, err.line, err.col)


@pytest.mark.parametrize("name", VALID + INVALID)
def test_tokenizer_matches_the_reference_on_the_corpus(name):
    text = corpus_text(name)
    assert engine_tokenize(text) == reference_tokenize(text)
    assert engine_tokenize(text + "  # trailing") == reference_tokenize(text + "  # trailing")


# the document alphabet, a few characters that are digits or letters to
# str methods but not to the language, and whole words and comments
PIECES = st.one_of(
    st.sampled_from(list("abxyzdwXE_019 \n()[]{},^*+-=/#>") + ["\u00b2", "\u0663", "\u00e9", "\r", "\t", "!"]),
    st.sampled_from(["->", "x1", "d2", "w(A)", "12", "anchor", "  ", "# note\n", "# note"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PIECES, max_size=40).map("".join))
def test_tokenizer_matches_the_reference_on_random_text(text):
    assert engine_tokenize(text) == reference_tokenize(text)


def test_a_trailing_comment_leaves_the_end_at_its_hash():
    end = tokenize("base  # note")[-1]
    assert (end.kind, end.line, end.col) == ("eof", 1, 7)


# what a mutation writes over a span of a corpus document: symbols, words of
# the language, names and numbers the corpus uses, or nothing
EDITS = [*"()[]{},^*+-=/ \n0", "", "->", "x1", "d2", "w(", "X11", "anchor", "bracket", "section", "2/3", "^70"]


def mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(EDITS) + text[i + rng.choice([0, 0, 1, 2, 6]) :]
    return text


@pytest.mark.parametrize("name", VALID)
def test_a_parse_error_sits_at_a_token(name):
    rng = random.Random(name)
    errors = 0
    for _ in range(150):
        text = mutated(rng, corpus_text(name))
        try:
            tokens = tokenize(text)
        except DslError:
            continue
        try:
            parse(text)
        except DslError as err:
            errors += 1
            assert (err.line, err.col) in {(t.line, t.col) for t in tokens}, text
    assert errors
