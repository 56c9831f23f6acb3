"""The section-level bracket, covariant derivative and modifier against an oracle.

The functions below are the Leibniz expansions as first written: the bracket
loops over every structure entry, the covariant derivative over every gamma
entry and the modifier over every pair of its table.  They are kept here
only as an oracle.  The package sums the same formulas over the nonzero
coefficients of its arguments instead; both must agree on zero, generator
and sampled sections, including on E0_itemized, which fails the anchor
axioms, and on the rank-10 derived bundle.
"""

import pytest

from algforge.algebroid import Algebroid, BracketModifier, Section
from algforge.catalog import builtin, e0_kernel_sections, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle
from algforge.poly import Poly
from algforge.sampling import Sampler


def oracle_bracket(a: Algebroid, x: Section, y: Section) -> Section:
    out = [Poly.zero(a.nvars) for _ in range(a.rank)]
    for (i, j), value in a.structure.items():
        weight = x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i]
        if weight.is_zero():
            continue
        for k, coeff in enumerate(value.coeffs):
            if not coeff.is_zero():
                out[k] = out[k] + weight * coeff
    rho_x = a.anchor_of(x)
    rho_y = a.anchor_of(y)
    for k in range(a.rank):
        out[k] = out[k] + rho_x.apply(y.coeffs[k]) - rho_y.apply(x.coeffs[k])
    return Section(out)


def oracle_covariant_derivative(conn: EConnection, x: Section, s: Section) -> Section:
    rho_x = conn.algebroid.anchor_of(x)
    out = [rho_x.apply(c) for c in s.coeffs]
    for (alpha, b), value in conn.gamma.items():
        weight = x.coeffs[alpha] * s.coeffs[b]
        if weight.is_zero():
            continue
        for k, coeff in enumerate(value.coeffs):
            if not coeff.is_zero():
                out[k] = out[k] + weight * coeff
    return Section(out)


def oracle_modifier(modifier: BracketModifier, a: Algebroid, x: Section, y: Section) -> Section:
    out = a.zero_section()
    for (i, j), value in modifier.values.items():
        weight = x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i]
        if not weight.is_zero():
            out = out + value.scale(weight)
    return out


def sections(a: Algebroid, seed: int, sampled: int) -> list[Section]:
    """The zero section, every generator, a scaled generator and seeded mixed sections."""
    sampler = Sampler(seed)
    out = [a.zero_section()] + [a.unit_section(i) for i in range(a.rank)]
    out.append(a.unit_section(a.rank - 1).scale(sampler.poly(a.nvars, 2)))
    out += [sampler.section(a) for _ in range(sampled)]
    return out


E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
DERIVED = derive_bundle(TF)

ALGEBROIDS = {
    "E0": E0,
    "E0_itemized": builtin("E0_itemized"),
    "tangent2": builtin("tangent2"),
    "derived_e0": DERIVED.derived,
}

CONNECTIONS = {
    "E0 torsionfree": TF,
    "E0 sampled": Sampler(11).connection(E0, density=0.5),
    "E0_itemized sampled": Sampler(12).connection(ALGEBROIDS["E0_itemized"], density=0.5),
    "tangent2 sampled": Sampler(13).connection(ALGEBROIDS["tangent2"], max_degree=2, density=0.8),
    "derived_e0 lifted": DERIVED.lifted,
    "derived_e0 plain-extension": DERIVED.plain_ext,
}


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_bracket_matches_the_structure_loop(name):
    a = ALGEBROIDS[name]
    secs = sections(a, seed=len(name), sampled=4)
    for x in secs:
        for y in secs:
            assert a.bracket(x, y) == oracle_bracket(a, x, y)


@pytest.mark.parametrize("name", sorted(CONNECTIONS))
def test_covariant_derivative_matches_the_gamma_loop(name):
    conn = CONNECTIONS[name]
    a = conn.algebroid
    secs = sections(a, seed=len(name), sampled=4)
    for x in secs:
        for s in secs:
            assert conn.covariant_derivative(x, s) == oracle_covariant_derivative(conn, x, s)


# kernel sections for sampled modifiers: E0's two off-axis sections, and on
# E0prime its generators Ys1 and Ys2, whose anchor is zero
E0PRIME = builtin("E0prime")
MODIFIED = [
    (E0, list(e0_kernel_sections().values())),
    (E0PRIME, [E0PRIME.unit_section(2), E0PRIME.unit_section(3)]),
]


def test_modifier_matches_the_pair_loop():
    for a, kern in MODIFIED:
        secs = sections(a, seed=5, sampled=4)
        for seed in range(4):
            modifier = Sampler(seed).kernel_modifier(a, kern, max_degree=2)
            modifier.validate(a)
            for x in secs:
                for y in secs:
                    assert modifier.apply(x, y) == oracle_modifier(modifier, a, x, y)
