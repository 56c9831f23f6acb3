"""Differential forms, the obstruction ideal, and closedness certificates."""

from fractions import Fraction
from itertools import combinations

import pytest

from algforge.algebroid import Algebroid, AlgebroidError, BaseSpace
from algforge.catalog import builtin, corpus_document, make_tangent, tangent_bundle
from algforge.dsl import document_algebroid, document_form
from algforge.forms import (
    Form,
    Lambda2Ideal,
    d_squared,
    differential,
    pullback,
    strong_closed,
    weak_closed,
    weak_exact,
)
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)
UNITS = [E0.unit_section(i) for i in range(4)]
IDEAL = Lambda2Ideal(E0)


def w(*idx):
    out = Form.dual(E0, idx[0])
    for i in idx[1:]:
        out = out.wedge(Form.dual(E0, i))
    return out


def test_d_of_a_zero_form_is_the_zero_form_one_degree_up():
    for k in range(E0.rank + 1):
        assert differential(Form.zero(E0, k)) == Form.zero(E0, k + 1)


def test_wedge_is_graded_antisymmetric():
    a, b = Form.dual(E0, 0), Form.dual(E0, 1)
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()
    two = a.wedge(b)
    assert two.wedge(two).is_zero()  # even degree squares to zero only when repeated


def test_differential_of_a_function():
    f = Form.function(E0, X1 * X2)
    df = differential(f)
    # d f (e) = anchor(e) f
    for i in range(4):
        assert df.eval_sections(UNITS[i]) == E0.anchor_of(UNITS[i]).apply(X1 * X2)


def test_differential_of_dual_generator():
    # frozen hand value: d w(X21) = -2 x1 w(X11)^w(X21) - 2 x2 w(X21)^w(X22)
    d = differential(Form.dual(E0, 1))
    want = w(0, 1).scale(-2 * X1) + w(1, 3).scale(-2 * X2)
    assert d == want


def test_d_squared_ideal_generators():
    # frozen hand values for the generators of the obstruction ideal
    gens = {i: d_squared(Form.dual(E0, i)) for i in range(4)}
    assert gens[0] == w(1, 2, 3).scale(-2 * X2 * X2)
    assert gens[1] == w(0, 1, 2).scale(-2 * X2 * X2)
    assert gens[2] == w(1, 2, 3).scale(2 * X1 * X1)
    assert gens[3] == w(0, 1, 2).scale(2 * X1 * X1)


def test_d_squared_pairs_with_minus_jacobiator():
    omega = Form.dual(E0, 0).scale(X2) + Form.dual(E0, 3).scale(X1 * X1)
    dd = d_squared(omega)
    jac = E0.jacobiator(UNITS[0], UNITS[1], UNITS[2])
    assert dd.eval_sections(UNITS[0], UNITS[1], UNITS[2]) == omega.eval_sections(-jac)


def test_d_squared_vanishes_above_degree_two():
    omega = w(0, 1, 2).scale(X1)
    assert d_squared(omega).is_zero()


def test_ideal_membership_fast_path_with_cofactors():
    assert IDEAL.fast_path
    member = w(1, 2, 3).scale(4 * X2 * X2 * X1)
    decision = IDEAL.membership(member)
    assert decision.is_yes
    assert IDEAL.check_cofactors(member, decision)


def test_fast_path_cofactors_of_odd_coefficients_are_exact_halves():
    # every generator's scalar is ±2, so each coefficient ±1 divides to ±1/2
    target = w(1, 2, 3).scale(X2 * X2 - X1 * X1 * X2 + X1 * X1) + w(0, 1, 2).scale(-(X2 * X2 * X1))
    remainder, values = IDEAL._divide(target)
    assert not remainder
    assert sorted(values.values()) == [-Fraction(1, 2)] * 2 + [Fraction(1, 2)] * 2
    assert all(type(v) is Fraction for v in values.values())
    decision = IDEAL.membership(target)
    assert decision.is_yes
    cofactors = {g: eta.comps[()].terms for g, eta in decision.cofactors.items()}
    assert cofactors == {
        0: {(0, 0): Fraction(-1, 2)},
        1: {(1, 0): Fraction(1, 2)},
        2: {(0, 1): Fraction(-1, 2), (0, 0): Fraction(1, 2)},
    }
    assert all(type(c) is Fraction for terms in cofactors.values() for c in terms.values())
    assert IDEAL.check_cofactors(target, decision)


def test_ideal_membership_refuses_outsiders():
    outsider = w(1, 2, 3).scale(X1)  # coefficient not in <x1^2, x2^2>
    decision = IDEAL.membership(outsider)
    assert decision.status == "no"
    # degree-2 forms can only be members when zero
    assert IDEAL.membership(w(0, 1)).status == "no"
    assert IDEAL.membership(Form.zero(E0, 2)).is_yes


def test_normal_form_reduces_members_to_zero():
    member = w(0, 1, 2).scale(X1 * X1 * X2)
    assert IDEAL.normal_form(member).is_zero()
    mixed = member + w(0, 1, 3).scale(X1)
    assert IDEAL.normal_form(mixed) == w(0, 1, 3).scale(X1)


def test_strong_closed_with_checked_witness():
    # d(omega) = 0 makes any form strongly closed with the zero witness
    top = w(0, 1, 2, 3)
    decision = strong_closed(top)
    assert decision.is_yes
    assert d_squared(decision.theta) == differential(top)


def test_weak_closed_distinguishes():
    member_d = w(1, 2, 3).scale(-2 * X2 * X2)  # this IS d^2 w(X11) = d(d w(X11))
    # a 2-form whose differential is exactly an ideal generator
    omega = differential(Form.dual(E0, 0))
    assert differential(omega) == member_d
    assert weak_closed(omega, IDEAL).is_yes
    assert weak_closed(Form.dual(E0, 1), IDEAL).status == "no"


def test_weak_exact_finds_joint_split():
    theta = w(0, 1).scale(X1)  # 2-form, so the target and the ideal part are 3-forms
    target = differential(theta) + w(0, 1, 2).scale(X2 * X2 * 3)
    decision = weak_exact(target, IDEAL)
    assert decision.is_yes
    residual = target - differential(decision.theta)
    assert IDEAL.membership(residual).is_yes


def test_weak_exact_gives_up_honestly():
    # w(X21) itself is not exact at low degree bounds
    assert weak_exact(Form.dual(E0, 1), IDEAL, max_degree=1).status == "no-witness"


def test_pullback_of_base_forms():
    t2 = make_tangent(2)
    base_form = Form(t2, 1, {(0,): X1 * X2})  # (x1 x2) dx1 on the tangent plane
    lifted = pullback(E0, base_form)
    # pairing with a generator applies the anchor: <pullback, X11> = x1^2 * x1 x2
    assert lifted.eval_sections(UNITS[0]) == X1 * X1 * (X1 * X2)
    assert lifted.eval_sections(UNITS[1]).is_zero()
    assert lifted.eval_sections(UNITS[2]) == X2 * X2 * (X1 * X2)


def test_pullback_commutes_with_d_on_the_plane():
    t2 = make_tangent(2)
    f = Form.function(t2, X1 * X1 * X2)
    lhs = pullback(E0, differential(f))
    rhs = differential(Form.function(E0, X1 * X1 * X2))
    assert lhs == rhs


def test_form_text_and_component_access():
    omega = w(0, 2).scale(Fraction(1, 2))
    assert omega.comps.get((0, 2), Poly.zero(2)) == Fraction(1, 2) * Poly.const(2, 1)
    assert "w(X11)^w(X12)" in omega.to_text()


@pytest.mark.parametrize(
    "degree, key",
    [(-1, ()), (2, (0,)), (1, (4,)), (2, (1, 0)), (2, (1, 1))],
    ids=["negative-degree", "wrong-length", "out-of-range", "decreasing", "repeated"],
)
def test_public_constructor_rejects_bad_keys(degree, key):
    with pytest.raises(AlgebroidError):
        Form(E0, degree, {key: X1})


def test_document_forms_build_through_the_public_constructor(monkeypatch):
    # sampled forms are wrapped trusted; tests/test_sampling.py checks each
    # against this constructor
    checked = []
    init = Form.__init__

    def spy(self, algebroid, degree, comps):
        checked.append(degree)
        init(self, algebroid, degree, comps)

    monkeypatch.setattr(Form, "__init__", spy)
    doc = corpus_document("plane_forms")
    plane = document_algebroid(doc)
    assert document_form(doc, plane, "radial").degree == 1
    assert checked == [1]
    # a declaration's keys are checked on the way in
    doc.form("area").comps[(1, 0)] = Poly.const(2, 1)
    with pytest.raises(AlgebroidError):
        document_form(doc, plane, "area")


def test_eval_rejects_wrong_arity():
    with pytest.raises(Exception):
        w(0, 1).eval_sections(UNITS[0])


def test_eval_rejects_sections_of_another_rank():
    derived = document_algebroid(corpus_document("derived_e0"))
    for section in (make_tangent(2).unit_section(0), derived.unit_section(0)):
        with pytest.raises(AlgebroidError, match="rank of the form's algebroid"):
            Form.dual(E0, 3).eval_sections(section)


def test_sums_and_wedges_of_forms_on_different_bundles_are_refused():
    derived = document_algebroid(corpus_document("derived_e0"))
    # E0's generators over R^3 instead of the plane
    lifted = Algebroid(BaseSpace(("x1", "x2", "x3")), E0.gen_names, make_tangent(3).anchor[:1] * 4)
    with pytest.raises(AlgebroidError, match="different degrees"):
        w(0) + w(0, 1)
    with pytest.raises(AlgebroidError, match="different degrees"):
        Form.zero(E0, 2) - Form.zero(E0, 3)
    for other in (Form.dual(derived, 0), Form.dual(lifted, 0), UNITS[0]):
        with pytest.raises(AlgebroidError, match="different algebroids"):
            w(0) + other
        with pytest.raises(AlgebroidError, match="different algebroids"):
            w(0) - other
        with pytest.raises(AlgebroidError, match="different algebroids"):
            w(0).wedge(other)
    with pytest.raises(AlgebroidError, match="different rank or over different bases"):
        UNITS[0] + w(0)


def test_forms_on_different_bundles_are_not_equal():
    derived = document_algebroid(corpus_document("derived_e0"))
    # E0's generators over R^3 instead of the plane
    lifted = Algebroid(BaseSpace(("x1", "x2", "x3")), E0.gen_names, make_tangent(3).anchor[:1] * 4)
    for other in (derived, lifted):
        assert Form.dual(E0, 0) != Form.dual(other, 0)
        assert Form.zero(E0, 1) != Form.zero(other, 1)
    # the bundle is its generators and base, not the Python object
    assert Form.dual(E0, 0) == Form.dual(builtin("E0"), 0)
    assert Form.dual(E0, 0) != UNITS[0]


# ---- oracle: the shared section arithmetic against the wedge ----
#
# A form's sums, negation and scale are the section arithmetic of
# algebroid._Terms; scaling by f is checked against f ∧ omega, which is
# computed by _wedge_into and shares no loop with it.


@pytest.mark.parametrize("name", ["E0", "derived_e0"])
def test_shared_arithmetic_on_forms_agrees_with_the_wedge(name):
    a = document_algebroid(corpus_document(name))
    sampler = Sampler(21)
    for degree in range(5):
        for _ in range(3):
            omega, eta = sampler.form(a, degree), sampler.form(a, degree)
            for f in (3, Fraction(-2, 5), sampler.poly(a.nvars)):
                assert omega.scale(f) == Form.function(a, f).wedge(omega)
            for value in (omega.scale(2), omega + eta, omega - eta, -omega):
                assert (type(value), value.degree, value.algebroid) == (Form, degree, a)
            assert (omega + eta) - eta == omega
            assert (-omega + omega).is_zero()
            # a section of Λ^k E* has no integer generator slots to read
            assert not hasattr(omega, "coeffs") and not hasattr(omega, "rank")


# ---- oracle: evaluation and pullback as sympy determinants ----
#
# omega(s_1, ..., s_k) = sum_u c_u det[s_i^{u_j}], and the pullback's component
# on u is the base form evaluated on the anchor images rho(e_{u_1}), ...,
# rho(e_{u_k}).  Both are written out here with sympy's Berkowitz determinant;
# the package is read only for its inputs and its results.

ORACLE_BUNDLES = ["E0", "E0_itemized", "derived_e0", "plane_forms"]


def _expr(sympy, poly, xs):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
          for exps, c in poly.terms.items())
    )


def _terms(sympy, expr, xs):
    want = sympy.Poly(sympy.expand(expr), *xs, domain="QQ")
    return {e: Fraction(int(c.p), int(c.q)) for e, c in want.as_dict().items() if c}


def _alternating(sympy, comps, vectors):
    """sum_u c_u det[v_i[u_j]] for sympy components {u: c_u} and vectors of sympy entries."""
    # the empty matrix of a 0-form has determinant 1
    return sympy.Add(*(c * sympy.Matrix([[v[j] for j in key] for v in vectors]).det(method="berkowitz")
                       for key, c in comps.items()))


def _bundle(name):
    return document_algebroid(corpus_document(name))


@pytest.mark.parametrize("name", ORACLE_BUNDLES)
def test_eval_sections_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    a = _bundle(name)
    xs = sympy.symbols(f"x0:{a.nvars}")
    sampler = Sampler(11)
    for degree in range(min(a.rank, 4) + 1):
        for _ in range(3):
            omega = sampler.form(a, degree)
            sections = [sampler.section(a) for _ in range(degree)]
            comps = {key: _expr(sympy, c, xs) for key, c in omega.comps.items()}
            vectors = [[_expr(sympy, c, xs) for c in s.coeffs] for s in sections]
            assert omega.eval_sections(*sections).terms == _terms(sympy, _alternating(sympy, comps, vectors), xs)


@pytest.mark.parametrize("name", ORACLE_BUNDLES)
def test_pullback_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    a = _bundle(name)
    base = tangent_bundle(a.base)
    xs = sympy.symbols(f"x0:{a.nvars}")
    anchor = [[_expr(sympy, c, xs) for c in rho.coeffs] for rho in a.anchor]
    sampler = Sampler(12)
    for degree in range(base.rank + 1):
        for _ in range(3):
            f = sampler.form(base, degree)
            comps = {key: _expr(sympy, c, xs) for key, c in f.comps.items()}
            lifted = pullback(a, f)
            assert lifted.degree == degree
            for u in combinations(range(a.rank), degree):
                want = _terms(sympy, _alternating(sympy, comps, [anchor[g] for g in u]), xs)
                assert lifted.comps.get(u, Poly.zero(a.nvars)).terms == want
