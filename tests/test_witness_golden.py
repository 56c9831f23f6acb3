"""Golden values for the degree-bounded witness searches.

Each bounded search solves a rational linear system whose solution, basis or
normal form depends on the column order and on the free variables being set
to zero.  These strings pin today's choices, so a rewrite of how the systems
are built or solved must reproduce them exactly.

E0_itemized is the bundled bundle whose d²-ideal is not monomial, so its
membership, normal-form and weak-exact queries take the bounded path.
"""

import hashlib

import pytest
from courant_basis import basis_sections, unpacked_terms

from algforge.algebroid import courant_solution_space, subalgebroid_restrict
from algforge.catalog import builtin, corpus_document
from algforge.dsl import document_algebroid
from algforge.forms import Form, Lambda2Ideal, differential, strong_closed, weak_exact
from algforge.poly import Poly

ITEMIZED = builtin("E0_itemized")
IDEAL = Lambda2Ideal(ITEMIZED)
E0 = builtin("E0")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def w(*idx, on=ITEMIZED):
    out = Form.dual(on, idx[0])
    for i in idx[1:]:
        out = out.wedge(Form.dual(on, i))
    return out


def texts(cofactors):
    return {g: eta.to_text() for g, eta in sorted(cofactors.items())}


G = IDEAL.gens3
MEMBER3 = G[0].scale(X1 + X2 * X2) + G[1].scale(X1 * X2)
MEMBER4 = w(3).wedge(G[0]).scale(X1) + w(0).wedge(G[2]).scale(X2)
OUTSIDER3 = MEMBER3 + w(0, 1, 2).scale(X1 * X2 * X2 + X1) + w(1, 2, 3).scale(X2**3 + X1 * X1 * X2)


def test_itemized_ideal_takes_the_bounded_path():
    assert not IDEAL.fast_path
    assert not IDEAL.is_trivial


@pytest.mark.parametrize("bound", [2, 3])
def test_bounded_membership_cofactors_of_a_3_form(bound):
    decision = IDEAL.membership(MEMBER3, bound)
    assert decision.status == "yes"
    assert texts(decision.cofactors) == {0: "(x2^2 + x1)", 1: "x1*x2"}
    assert IDEAL.check_cofactors(MEMBER3, decision)


@pytest.mark.parametrize("bound", [1, 2])
def test_bounded_membership_cofactors_of_a_4_form(bound):
    decision = IDEAL.membership(MEMBER4, bound)
    assert decision.status == "yes"
    assert texts(decision.cofactors) == {0: "-x1*w(X11) + 3/2*x1*w(X22)"}
    assert IDEAL.check_cofactors(MEMBER4, decision)


def test_bounded_membership_below_the_witness_degree():
    decision = IDEAL.membership(MEMBER3, 1)
    assert decision.status == "no-witness"
    assert decision.note == "no witness with coefficient degree <= 1"


def test_bounded_normal_form_of_a_member_is_zero():
    assert IDEAL.normal_form(MEMBER3, 3).to_text() == "0"


@pytest.mark.parametrize("bound", [2, 3])
def test_bounded_normal_form_of_a_non_member(bound):
    assert IDEAL.membership(OUTSIDER3, bound).status == "no-witness"
    assert IDEAL.normal_form(OUTSIDER3, bound).to_text() == (
        "x1*w(X11)^w(X21)^w(X12) + (3/2*x1*x2^2 + x2^3)*w(X21)^w(X12)^w(X22)"
    )


def test_bounded_weak_exact_theta():
    target = differential(w(0, 1).scale(X1)) + MEMBER3
    assert weak_exact(target, IDEAL, 1).status == "no-witness"
    two = weak_exact(target, IDEAL, 2)
    assert two.status == "yes"
    assert two.theta.to_text() == (
        "x1*w(X11)^w(X21) - x2^2*w(X11)^w(X12) - 2*x1*x2*w(X21)^w(X12)"
    )
    assert texts(two.cofactors) == {0: "x2^2", 1: "x1*x2"}
    three = weak_exact(target, IDEAL, 3)
    assert three.status == "yes"
    assert three.theta.to_text() == (
        "(3/4*x1^3 - 23/8*x1^2*x2 - 1/2*x1*x2^2 + x1)*w(X11)^w(X21)"
        " - x2^2*w(X11)^w(X12)"
        " - 19/8*x2^3*w(X11)^w(X22)"
        " + (-3/4*x1*x2^2 - 9/4*x2^3 - 2*x1*x2)*w(X21)^w(X12)"
        " - 3/4*x1^2*x2*w(X21)^w(X22)"
    )
    assert three.cofactors == {}


def test_bounded_strong_closed_theta():
    decision = strong_closed(differential(w(1).scale(X2)), 2)
    assert decision.status == "yes"
    assert decision.theta.to_text() == "x2*w(X21)"


def test_fast_path_cofactors_and_normal_forms():
    # E0's d²-ideal is monomial, so these go through exact division instead
    ideal = Lambda2Ideal(E0)
    assert ideal.fast_path
    g = ideal.gens3

    def v(*idx):
        return w(*idx, on=E0)

    m4 = (
        v(0).wedge(g[0]).scale(X1 * X2 + 3)
        + v(3).wedge(g[1]).scale(X1**3)
        + v(0, 1, 2, 3).scale(X1 * X1 * X2 * X2)
    )
    assert texts(ideal.membership(m4).cofactors) == {0: "(-x1^3 - 1/2*x1^2 + x1*x2 + 3)*w(X11)"}
    m3 = v(1, 2, 3).scale(5 * X1**2 * X2 - 3 * X2**3) + v(0, 1, 2).scale(X1**2 + X2**2)
    assert texts(ideal.membership(m3).cofactors) == {0: "3/2*x2", 1: "(-1/2)", 2: "5/2*x2", 3: "1/2"}
    outsider = m3 + v(0, 1, 3).scale(X1) + v(1, 2, 3).scale(X1 * X2 + 7)
    decision = ideal.membership(outsider)
    assert decision.status == "no"
    assert decision.note == "component on w(X21)^w(X12)^w(X22) has terms outside the generator monomials"
    assert ideal.normal_form(outsider).to_text() == (
        "x1*w(X11)^w(X21)^w(X22) + (x1*x2 + 7)*w(X21)^w(X12)^w(X22)"
    )
    residue = ideal.normal_form(m4 + v(0, 1, 2, 3).scale(X1 * X2))
    assert residue.to_text() == "x1*x2*w(X11)^w(X21)^w(X12)^w(X22)"


def _basis_text(space):
    names = E0.base.var_names
    # row a of a basis cometric holds the e_a-coefficients of the images g[b]
    return [
        ";".join(",".join(g[b].coeffs[a].to_text(names) for b in range(len(g))) for a in range(len(g)))
        for g in basis_sections(space, E0.nvars)
    ]


def test_courant_full_basis_at_degree_two():
    assert _basis_text(courant_solution_space(E0, max_degree=2)) == [
        "-2*x2^2,0,x1^2,0;0,0,0,0;x1^2,0,0,0;0,0,0,0",
        "0,-x2^2,0,x1^2;-x2^2,0,0,0;0,0,0,0;x1^2,0,0,0",
        "0,0,0,-1;0,0,1,0;0,1,0,0;-1,0,0,0",
        "0,0,0,-x1;0,0,x1,0;0,x1,0,0;-x1,0,0,0",
        "0,0,0,-x2;0,0,x2,0;0,x2,0,0;-x2,0,0,0",
        "0,-x2^2,0,0;-x2^2,0,x1^2,0;0,x1^2,0,0;0,0,0,0",
        "0,0,0,-x1*x2;0,0,x1*x2,0;0,x1*x2,0,0;-x1*x2,0,0,0",
        "0,0,0,-x2^2;0,0,x2^2,0;0,x2^2,0,0;-x2^2,0,0,0",
        "0,0,0,0;0,-2*x2^2,0,x1^2;0,0,0,0;0,x1^2,0,0",
        "0,0,-1/2*x2^2,0;0,0,0,0;-1/2*x2^2,0,x1^2,0;0,0,0,0",
        "0,0,0,-x2^2;0,0,0,0;0,0,0,x1^2;-x2^2,0,x1^2,0",
        "0,0,0,0;0,0,0,-1/2*x2^2;0,0,0,0;0,-1/2*x2^2,0,x1^2",
    ]


def test_courant_paired_basis_at_degree_two():
    assert _basis_text(courant_solution_space(E0, max_degree=2, paired_blocks=2)) == [
        "-2*x2^2,0,x1^2,0;0,0,0,0;x1^2,0,0,0;0,0,0,0",
        "0,-2*x2^2,0,x1^2;-2*x2^2,0,x1^2,0;0,x1^2,0,0;x1^2,0,0,0",
        "0,0,0,0;0,-2*x2^2,0,x1^2;0,0,0,0;0,x1^2,0,0",
        "0,0,-1/2*x2^2,0;0,0,0,0;-1/2*x2^2,0,x1^2,0;0,0,0,0",
        "0,0,0,-1/2*x2^2;0,0,-1/2*x2^2,0;0,-1/2*x2^2,0,x1^2;-1/2*x2^2,0,x1^2,0",
        "0,0,0,0;0,0,0,-1/2*x2^2;0,0,0,0;0,-1/2*x2^2,0,x1^2",
    ]



def _basis_digest(space, nvars):
    """sha256 prefix of every basis element's images, each image's terms sorted."""
    text = "\n".join(
        "|".join(",".join(f"{a}:{exps}:{c}" for (a, exps), c in sorted(unpacked_terms(image).items())) for image in g)
        for g in basis_sections(space, nvars)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name,bound,blocks,dim,digest",
    [
        ("derived_e0", 0, 1, 46, "02be39865f952063"),
        ("derived_e0", 0, 2, 45, "83efd00d2a9ab05b"),
        ("derived_e0", 0, 5, 46, "640952ea56dd3941"),
        ("derived_e0", 0, 10, 46, "02be39865f952063"),
        ("derived_e0", 1, 1, 138, "479dde058b5ada66"),
        ("derived_e0", 1, 2, 135, "97fcfacf57c0aff1"),
        ("derived_e0", 1, 5, 138, "8e41de55d6afb806"),
        ("derived_e0", 1, 10, 138, "479dde058b5ada66"),
        ("E0prime", 2, 1, 42, "a9aa722c7dc9427a"),
        ("E0prime", 2, 2, 42, "64c063650f10c687"),
        ("E0prime", 2, 4, 42, "a9aa722c7dc9427a"),
        # the largest systems the CLI is run on: full and paired, D = 10 and 30
        ("E0", 10, 4, 336, "dd5a7568df523766"),
        ("E0", 10, 2, 270, "dae1881876b23a93"),
        ("E0", 30, 4, 3106, "ccd17492b63d8dc0"),
        ("E0", 30, 2, 2610, "b9f7e3f0587181df"),
    ],
)
def test_courant_basis_digests(name, bound, blocks, dim, digest):
    # one-by-one blocks pair every off-diagonal cell with its transpose, the
    # full symmetric space again, so they share the rank-sized digests
    a = document_algebroid(corpus_document(name))
    space = courant_solution_space(a, max_degree=bound, paired_blocks=blocks)
    assert space.dim == dim
    assert _basis_digest(space, a.nvars) == digest


UNITS = [E0.unit_section(i) for i in range(4)]


@pytest.mark.parametrize(
    "gens,table",
    [
        ([UNITS[0], UNITS[1], UNITS[3]], {(0, 1): "2*x1*G2", (1, 2): "2*x2*G2"}),
        ([UNITS[0], UNITS[2], UNITS[3]], {(0, 1): "-2*x1*G2", (1, 2): "-2*x2*G2"}),
        ([UNITS[0] + UNITS[2], UNITS[1] + UNITS[3]], {(0, 1): "-2*x2*G1 + 2*x1*G2"}),
        ([UNITS[0], UNITS[1].scale(X1)], {(0, 1): "3*x1*G2"}),
    ],
)
def test_restriction_structure_tables(gens, table):
    sub = subalgebroid_restrict(E0, gens, max_degree=4)
    got = {pair: sub.section_text(value) for pair, value in sorted(sub.structure.items())}
    assert got == table
