"""Sections come out of every kernel in the one canonical coefficient form.

A stored coefficient is never zero, and it is an ``int`` where integral and
a ``Fraction`` only where its denominator is not 1 (never a bool, a float or
an integral Fraction), the form ``poly`` keeps and the reports rely on.  The
derived bundle's lifted connection is the interesting input: its ½-wedge
terms cancel back to integers in the bracket and the curvature.  Vector
fields are sections of the base's tangent bundle and keep the same form,
and every operation on them returns a vector field on the same base.
"""

from fractions import Fraction

import pytest

from algforge.algebroid import Endomorphism, Section, VectorField, vf_bracket
from algforge.catalog import builtin, corpus_document, e0_kernel_sections, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle
from algforge.dsl import document_endo
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
DERIVED = derive_bundle(TF)


def assert_canonical(s: Section) -> None:
    for coeff in s.coeffs:
        for c in coeff.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
            assert c != 0
    if isinstance(s, VectorField):
        assert VectorField(s.base, s.coeffs) == s
    else:
        assert Section(s.coeffs) == s


def assert_field_on(v, a) -> None:
    """A canonical vector field on the algebroid's base."""
    assert type(v) is VectorField and v.base == a.base
    assert_canonical(v)


def sections(a, seed):
    sampler = Sampler(seed)
    half = a.unit_section(0).scale(Fraction(1, 2))
    return [a.zero_section(), half, half + half] + [a.unit_section(i) for i in range(a.rank)] + [
        sampler.section(a) for _ in range(3)
    ]


@pytest.mark.parametrize("conn", [TF, DERIVED.lifted, DERIVED.plain_ext], ids=lambda c: c.name)
def test_kernel_outputs_are_canonical(conn):
    a = conn.algebroid
    secs = sections(a, seed=a.rank)
    for x in secs:
        assert_canonical(x)
        assert_canonical(-x)
        assert_canonical(x.scale(Fraction(2, 3)))
        for y in secs:
            for s in (a.bracket(x, y), conn.covariant_derivative(x, y), x + y, x - y, x - x):
                assert_canonical(s)
    units = [a.unit_section(i) for i in range(a.rank)]
    for i, j in ((0, 1), (1, 3), (0, a.rank - 1)):
        for b in range(a.rank):
            assert_canonical(conn.curvature(units[i], units[j], units[b]))
            assert_canonical(conn.curvature_gen(i, j, b))


def test_the_half_wedge_terms_cancel_back_to_integers():
    # lifted = plain + ½ e_α∧e_b on (E, E) pairs; the bracket antisymmetrises it
    a = DERIVED.derived
    for value in a.structure.values():
        assert_canonical(value)
        assert all(type(c) is int for coeff in value.coeffs for c in coeff.terms.values())
    assert any(type(c) is Fraction for value in DERIVED.lifted.gamma.values() for coeff in value.coeffs
               for c in coeff.terms.values())


def test_modifier_outputs_are_canonical():
    kern = list(e0_kernel_sections().values())
    modifier = Sampler(3).kernel_modifier(E0, kern, max_degree=2)
    secs = sections(E0, seed=9)
    for x in secs:
        for y in secs:
            assert_canonical(modifier.apply(x, y))


def test_the_poly_constructor_round_trip_drops_zeros_and_folds():
    x = Poly.variable(2, 0)
    s = Section([x * Fraction(4, 2), Poly.zero(2), Poly.const(2, Fraction(1, 3))])
    assert_canonical(s)
    assert s.rank == 3 and s.coeffs[1].is_zero()
    assert (s - s).is_zero() and (s - s) == Section.zero(3, 2)


@pytest.mark.parametrize("a", [E0, builtin("E0_itemized"), DERIVED.derived], ids=lambda a: a.name)
def test_anchor_outputs_are_canonical_vector_fields(a):
    fields = [a.anchor_of(x) for x in sections(a, seed=5)]
    for v in fields:
        assert_field_on(v, a)
        for w in fields:
            assert_field_on(vf_bracket(v, w), a)
            assert_field_on(v - w, a)


def test_endomorphism_images_are_canonical_sections():
    half = Poly.const(2, Fraction(1, 2))
    halving = Endomorphism([E0.unit_section(b).scale(half) for b in range(4)])
    for endo in (document_endo(corpus_document("E0"), E0, "J0"), halving):
        for x in sections(E0, seed=11):
            for s in (endo.apply(x), endo.apply(x + x)):
                assert type(s) is Section
                assert_canonical(s)
