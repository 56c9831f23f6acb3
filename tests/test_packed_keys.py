"""Packed monomial keys: the term dicts of sections, forms and witness systems
key a monomial by one int, ``poly._pack`` of its exponent tuple.

The properties: packing round-trips, sorts as the tuples do, and the interval
variable of ``product_algebroid`` is the lowest field; a section or form read
back through its sparse split rebuilds the same term dict.  At the largest
exponent the field-width guard accepts, bracket, scale, derivative,
differential and wedge agree with the same arithmetic on ``Poly``; one past
it, every constructor refuses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge.algebroid import AlgebroidError, Section, VectorField
from algforge.catalog import builtin, corpus_document
from algforge.charclass import product_algebroid
from algforge.dsl import document_algebroid
from algforge.forms import Form, differential
from algforge.poly import _MASK, FIELD_BITS, MAX_EXPONENT, Poly, _pack, _unpack
from algforge.sampling import Sampler

E0 = builtin("E0")
PRODUCT = product_algebroid(E0).extended
DERIVED = document_algebroid(corpus_document("derived_e0"))

exponent = st.integers(0, MAX_EXPONENT)
exponents = st.integers(0, 4).flatmap(lambda n: st.tuples(*[exponent] * n))


@settings(max_examples=200, deadline=None)
@given(exponents)
def test_pack_round_trips(exps):
    assert _unpack(_pack(exps), len(exps)) == exps


# (nvars, keys): (slot, exponents) keys with a generator or an index tuple as the slot
slots = st.integers(0, 3) | st.tuples(st.integers(0, 5), st.integers(0, 5))
keyed = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(slots, st.tuples(*[exponent] * n))))
)


@settings(max_examples=100, deadline=None)
@given(keyed)
def test_packed_keys_sort_as_the_tuples(case):
    # sorted one kind of slot at a time
    n, keys = case
    for kind in (int, tuple):
        tuple_keys = [key for key in keys if type(key[0]) is kind]
        packed = sorted((slot, _pack(exps)) for slot, exps in tuple_keys)
        assert [(slot, _unpack(key, n)) for slot, key in packed] == sorted(tuple_keys)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[exponent] * n)))
def test_the_interval_variable_is_the_lowest_field(exps):
    key = _pack(exps)
    assert _pack(exps + (0,)) == key << FIELD_BITS
    assert key >> FIELD_BITS == _pack(exps[:-1])
    assert key & _MASK == exps[-1]


@pytest.mark.parametrize("algebroid", [E0, PRODUCT, DERIVED], ids=["E0", "E0 x interval", "derived_e0"])
@pytest.mark.parametrize("seed", range(10))
def test_split_then_constructor_gives_the_same_terms(algebroid, seed):
    sampler = Sampler(seed)
    section = sampler.section(algebroid, max_degree=3)
    rebuilt = Section(section.coeffs)
    assert rebuilt == section
    assert list(rebuilt.terms.items()) == list(section.terms.items())
    for degree in (0, 1, 2):
        form = sampler.form(algebroid, degree, max_degree=3)
        # the split is in index-tuple order, the sampler's components are not
        assert Form(algebroid, degree, form.comps) == form


# ---- the field-width guard, against Poly arithmetic ----

K = MAX_EXPONENT
N = E0.nvars


def partial(f: Poly, v: int) -> Poly:
    """d f / d x_v on Poly terms."""
    return Poly(
        f.nvars, {exps[:v] + (exps[v] - 1,) + exps[v + 1 :]: c * exps[v] for exps, c in f.terms.items() if exps[v]}
    )


def along(field: VectorField, f: Poly) -> Poly:
    """The vector field applied to f, from its components on Poly."""
    return sum((comp * partial(f, v) for v, comp in enumerate(field.coeffs)), Poly.zero(f.nvars))


def reference_bracket(x: list[Poly], y: list[Poly]) -> list[Poly]:
    """[X, Y] = sum X_i Y_j [e_i, e_j] + rho(X)(Y) - rho(Y)(X), coefficient by coefficient on Poly."""
    out = [Poly.zero(N) for _ in range(E0.rank)]
    for i in range(E0.rank):
        for j in range(E0.rank):
            for c, value in enumerate(E0.bracket_gen(i, j).coeffs):
                out[c] = out[c] + x[i] * y[j] * value
        for c in range(E0.rank):
            out[c] = out[c] + x[i] * along(E0.anchor[i], y[c]) - y[i] * along(E0.anchor[i], x[c])
    return out


def test_the_largest_accepted_exponent_computes_exactly():
    f, g = Poly.monomial(N, (K, 0)), Poly.monomial(N, (K, K))
    x = [f, Poly.zero(N), g, Poly.zero(N)]
    y = [Poly.zero(N), f, Poly.zero(N), g]
    sx, sy = Section(x), Section(y)
    assert list(E0.bracket(sx, sy).coeffs) == reference_bracket(x, y)
    assert list(E0.bracket(sx, sy).coeffs)[1].total_degree() > 2 * K
    assert list(sx.scale(g).coeffs) == [p * g for p in x]
    for rho in E0.anchor:
        assert rho.apply(g) == along(rho, g)
    # the differential of a 0-form and of a 1-form against the Cartan formula
    d0 = differential(Form.function(E0, g))
    assert d0.comps == {(b,): along(rho, g) for b, rho in enumerate(E0.anchor) if not along(rho, g).is_zero()}
    d1 = differential(Form(E0, 1, {(c,): p for c, p in enumerate(x) if not p.is_zero()}))
    for i in range(E0.rank):
        for j in range(i + 1, E0.rank):
            want = along(E0.anchor[i], x[j]) - along(E0.anchor[j], x[i])
            for c, value in enumerate(E0.bracket_gen(i, j).coeffs):
                want = want - x[c] * value
            assert d1.comps.get((i, j), Poly.zero(N)) == want
    wedge = Form(E0, 1, {(0,): f}).wedge(Form(E0, 1, {(1,): g}))
    assert wedge.comps == {(0, 1): f * g}


def test_one_past_the_limit_is_refused():
    big = Poly.monomial(N, (K + 1, 0))
    with pytest.raises(AlgebroidError, match="limit"):
        Section([big, Poly.zero(N), Poly.zero(N), Poly.zero(N)])
    with pytest.raises(AlgebroidError, match="limit"):
        Form(E0, 1, {(0,): big})
    with pytest.raises(AlgebroidError, match="limit"):
        E0.units[0].scale(big)
    with pytest.raises(AlgebroidError, match="limit"):
        E0.anchor[0].apply(big)
    with pytest.raises(AlgebroidError, match="limit"):
        VectorField(E0.base, [big, Poly.zero(N)])
