"""Structural invariants checked over sampled inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from algforge.algebroid import Section, vf_bracket
from algforge.catalog import builtin, torsionfree_gamma
from algforge.connection import EConnection
from algforge.forms import Form, differential
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")

coeff = st.integers(min_value=-3, max_value=3).map(Fraction)
exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps, coeff, max_size=3).map(lambda d: Poly(2, d))
sections = st.lists(polys, min_size=4, max_size=4).map(Section)


@settings(max_examples=40, deadline=None)
@given(sections, sections)
def test_bracket_is_skew(x, y):
    assert E0.bracket(x, y) == -E0.bracket(y, x)
    assert E0.bracket(x, x).is_zero()


@settings(max_examples=40, deadline=None)
@given(sections, sections, polys)
def test_bracket_leibniz_in_second_slot(x, y, f):
    lhs = E0.bracket(x, y.scale(f))
    rhs = E0.bracket(x, y).scale(f) + y.scale(E0.anchor_of(x).apply(f))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(sections, sections)
def test_anchor_respects_the_bracket(x, y):
    # the compact table satisfies the axioms, so this holds for all sections
    lhs = E0.anchor_of(E0.bracket(x, y))
    rhs = vf_bracket(E0.anchor_of(x), E0.anchor_of(y))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(sections, sections, polys)
def test_covariant_derivative_is_tensorial_below(x, y, f):
    assert TF.covariant_derivative(x.scale(f), y) == TF.covariant_derivative(x, y).scale(f)


@settings(max_examples=30, deadline=None)
@given(polys, polys)
def test_differential_is_a_wedge_derivation(f, g):
    # degree-zero case of the graded Leibniz rule
    a = Form.function(E0, f)
    b = Form.function(E0, g)
    product = Form.function(E0, f * g)
    assert differential(product) == differential(a).scale(g) + differential(b).scale(f)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3))
def test_wedge_leibniz_for_sampled_forms(degree):
    sampler = Sampler(degree)
    alpha = sampler.form(E0, 1, max_degree=1)
    beta = sampler.form(E0, degree, max_degree=1)
    lhs = differential(alpha.wedge(beta))
    rhs = differential(alpha).wedge(beta) - alpha.wedge(differential(beta))
    assert lhs == rhs


def test_sampler_is_deterministic():
    a = Sampler(42)
    b = Sampler(42)
    for _ in range(5):
        assert a.poly(2, max_degree=2) == b.poly(2, max_degree=2)
    sa = Sampler(7).section(E0)
    sb = Sampler(7).section(E0)
    assert sa == sb
    ca = Sampler(9).connection(E0)
    cb = Sampler(9).connection(E0)
    assert ca.gamma.keys() == cb.gamma.keys()
    for key in ca.gamma:
        assert ca.gamma[key] == cb.gamma[key]


def test_sampler_seeds_differ():
    assert Sampler(1).poly(2, max_degree=2, terms=3) != Sampler(2).poly(2, max_degree=2, terms=3)


def repeated_add_poly(sampler, nvars, max_degree, terms):
    """The sum of the same draws by repeated ``Poly.__add__`` of one-term polynomials."""
    out = Poly.zero(nvars)
    for _ in range(sampler.rng.randint(1, terms)):
        exps = sampler.monomial_exponents(nvars, max_degree)
        out = out + Poly.monomial(nvars, exps, sampler.coefficient())
    return out


def test_sampler_poly_matches_repeated_add():
    # one variable of degree <= 1 and many terms make repeated and cancelling
    # monomials common, which is where the term order could drift
    shapes = [(2, 2, 2), (2, 3, 2), (3, 1, 1), (1, 1, 6), (2, 1, 5)]
    for seed in range(10):
        built, reference = Sampler(seed), Sampler(seed)
        for _ in range(20):
            for nvars, max_degree, terms in shapes:
                got = built.poly(nvars, max_degree, terms)
                want = repeated_add_poly(reference, nvars, max_degree, terms)
                assert (got.nvars, list(got.terms.items())) == (want.nvars, list(want.terms.items()))
        assert built.rng.getstate() == reference.rng.getstate()
