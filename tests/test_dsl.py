"""The document language: parsing, elaboration, serialization, corpus sync."""

import importlib.util
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from algforge.catalog import builtin
from algforge.dsl import (
    DEGREE_CAP,
    DslError,
    algebroid_to_document,
    document_algebroid,
    document_connection,
    document_endo,
    document_form,
    parse,
    serialize,
)

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


def test_parsed_e0_matches_builtin():
    doc = parse(corpus_text("E0.alg"))
    a = document_algebroid(doc)
    e0 = builtin("E0")
    assert a.gen_names == e0.gen_names
    assert a.base.var_names == e0.base.var_names
    assert list(a.anchor) == list(e0.anchor)
    for key, value in e0.structure.items():
        assert a.structure.get(key, a.zero_section()) == value
    for key, value in a.structure.items():
        assert e0.structure.get(key, e0.zero_section()) == value


def test_bundled_documents_match_the_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_corpus",
        Path(__file__).resolve().parents[1] / "scripts" / "generate_corpus.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, text in module.build_documents().items():
        assert corpus_text(name) == text, f"{name} is stale; run scripts/generate_corpus.py"


def test_error_kinds_and_positions():
    cases = [
        ("base 2 (x, y)\nbundle E rank 3 gens (A, B)\n", "semantic", 2),
        ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nanchor A -> z*d1\n", "semantic", 3),
        ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nbracket [A, C] = 0\n", "semantic", 3),
        ("base 2 (x, y)\nbundle E rank 2 gens (A, x)\n", "semantic", 2),
        ("base 2 (x, y)\nform junk = w(A)\n", "semantic", 2),
        ("base 2 (x y)\n", "syntax", 1),
        ("bundle E rank 2 gens (A, B)\n", "semantic", 1),  # no base declared
        ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nform f = w(A) + w(A)^w(B)\n", "semantic", 3),
        ("base 2 (x, y)\nbundle E rank 2 gens (A, B)\nsection s = A^-1\n", "syntax", 3),
        ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> (x+1)^99999*d1\n", "semantic", 3),
        ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> x^99999999*d1\n", "semantic", 3),
        ("base 2 (x, y)\nbundle E rank 1 gens (e)\nanchor e -> x^40*y^40*d1\n", "semantic", 3),
        ("base 1 (x1)\nbundle E rank 1 gens (e)\nanchor e -> x1^²*d1\n", "syntax", 3),
        ("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> " + "9" * 5000 + "*x*d1\n", "semantic", 3),
    ]
    for text, kind, line in cases:
        with pytest.raises(DslError) as exc:
            parse(text)
        assert exc.value.kind == kind, text
        assert exc.value.line == line, text


def test_degree_cap_admits_its_bound():
    doc = parse("base 2 (x, y)\nbundle E rank 1 gens (e)\nanchor e -> x^32*(y^2)^16*d1\n")
    assert doc.bundle().anchors[0].comps[0].total_degree() == DEGREE_CAP
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
    assert f.comps[(0,)].constant_value() == Fraction(1, 2)
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
