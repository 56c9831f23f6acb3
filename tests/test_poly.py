"""Exact polynomial arithmetic: hand values plus algebraic property sweeps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge.poly import Poly

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


def test_construction_normalizes_zero_terms():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
    assert p == Y * 3
    assert Poly.monomial(2, (2, 1), 0).is_zero()


def test_binomial_square():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y


def test_pow_zero_is_one():
    assert (X * Y - 7) ** 0 == Poly.const(2, 1)


def test_scalar_mixing():
    assert X * Fraction(1, 2) + X * Fraction(1, 2) == X
    assert 3 - X == Poly.const(2, 3) - X


def test_degrees():
    p = X * X * Y + X
    assert p.total_degree() == 3
    assert p.min_degree() == 1
    assert Poly.zero(2).total_degree() == -1


def test_eval_at():
    p = X * X + Y * 3
    assert p.eval_at([2, 1]) == 7


def test_eval_of_the_zero_polynomial():
    value = Poly.zero(2).eval_at([Fraction(1, 2), 3])
    assert value == 0 and type(value) is Fraction
    with pytest.raises(ValueError):
        Poly.zero(2).eval_at([1])


def test_to_text_is_canonical():
    p = Y * Y - X * 2 + 1
    assert p.to_text(("x", "y")) == "y^2 - 2*x + 1"
    assert Poly.zero(2).to_text(("x", "y")) == "0"
    assert (X * Fraction(3, 4)).to_text(("x", "y")) == "3/4*x"


coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda d: Poly(2, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + Poly.zero(2) == p
    assert p * Poly.const(2, 1) == p


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-3, 3), st.integers(-3, 3))
def test_eval_is_a_ring_map(p, a, b):
    q = p * p - p * 2
    assert q.eval_at([a, b]) == p.eval_at([a, b]) ** 2 - 2 * p.eval_at([a, b])


# ---- oracle: sympy's polynomial arithmetic, sharing no code with Poly ----

NVARS = 3
ratios = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
exps3 = st.tuples(*[st.integers(0, 3)] * NVARS)
# dictionaries with zero values exercise the public constructor's normalisation
polys3 = st.dictionaries(exps3, ratios, max_size=5).map(lambda d: Poly(NVARS, d))
scalars = st.one_of(st.integers(-3, 3), ratios)


def assert_normal_form(p: Poly) -> None:
    """The invariant ring operations rely on: nonzero coefficients keyed by nvars-tuples of ints.

    A coefficient is an int, or a Fraction whose denominator is not 1; never
    a bool, a float or an integral Fraction.
    """
    assert type(p) is Poly and p.nvars == NVARS
    for exps, coeff in p.terms.items():
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)
        assert type(exps) is tuple and len(exps) == NVARS
        assert all(type(e) is int and e >= 0 for e in exps)


def sympy_poly(p: Poly):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"x0:{NVARS}")
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * NVARS: 0}, *gens, domain="QQ")


def agrees(p: Poly, expected) -> bool:
    """p is in normal form and has exactly the sympy polynomial's terms."""
    assert_normal_form(p)
    want = {e: Fraction(int(c.p), int(c.q)) for e, c in expected.as_dict().items() if c}
    return p.terms == want


@settings(max_examples=150, deadline=None)
@given(polys3, polys3, scalars)
def test_ring_operations_match_sympy(p, q, c):
    sp, sq = sympy_poly(p), sympy_poly(q)
    assert agrees(p, sp)
    assert agrees(p + q, sp + sq)
    assert agrees(p - q, sp - sq)
    assert agrees(p - p, sp - sp)
    assert agrees(p * q, sp * sq)
    assert agrees(-p, -sp)
    sc = sympy_poly(Poly.const(NVARS, c))
    assert agrees(p + c, sp + sc)
    assert agrees(c + p, sp + sc)
    assert agrees(p - c, sp - sc)
    assert agrees(c - p, sc - sp)
    assert agrees(p * c, sp * sc)
    assert agrees(c * p, sp * sc)


@settings(max_examples=60, deadline=None)
@given(polys3, st.integers(0, 4))
def test_powers_match_sympy(p, k):
    sp = sympy_poly(p)
    assert agrees(p**k, sp**k)


points = st.lists(scalars, min_size=NVARS, max_size=NVARS)


def sympy_value(c):
    sympy = pytest.importorskip("sympy")
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


@settings(max_examples=60, deadline=None)
@given(polys3, points)
def test_evaluation_matches_sympy(p, point):
    sympy = pytest.importorskip("sympy")
    sp = sympy_poly(p)
    value = p.eval_at(point)
    assert type(value) is Fraction
    want = sp.as_expr().subs(dict(zip(sp.gens, map(sympy_value, point))))
    assert value == Fraction(int(sympy.numer(want)), int(sympy.denom(want)))


def test_integral_fractions_become_ints():
    half_x = Poly.monomial(NVARS, (1, 0, 0), Fraction(1, 2))
    for p in (
        Poly.const(NVARS, Fraction(4, 2)),
        Poly.monomial(NVARS, (0, 1, 0), Fraction(4, 2)),
        Poly(NVARS, {(0, 0, 1): Fraction(-6, 3), (1, 1, 0): True}),
        half_x * 2,
        2 * half_x,
        half_x * Fraction(4, 2),
        half_x + half_x,
        half_x * Poly.const(NVARS, 4),
    ):
        assert_normal_form(p)
        assert p.terms and all(type(c) is int for c in p.terms.values())
    assert (half_x * 2).terms == {(1, 0, 0): 1}
    assert Poly.const(NVARS, Fraction(4, 2)).terms == {(0,) * NVARS: 2}


@pytest.mark.parametrize("p", [X, X + 1, 2 * X - Y * Fraction(1, 3)], ids=["x", "x+1", "2x-y/3"])
def test_power_is_the_repeated_product(p):
    product = Poly.const(2, 1)
    for k in range(65):
        if k <= 20 or k == 64:
            assert p**k == product, k
        product = product * p


def test_power_squares_only_up_to_its_top_bit(monkeypatch):
    products = []
    multiply = Poly.__mul__

    def counted(self, other):
        products.append(None)
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    base = X + 1
    for k in [*range(1, 21), 64, 127]:
        products.clear()
        base**k
        assert len(products) == k.bit_length() - 1 + k.bit_count() - 1, k
