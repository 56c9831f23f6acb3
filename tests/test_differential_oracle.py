"""The differential against the alternating Cartan sum.

The functions below are the differential as first written: on every
(k+1)-tuple of generators, the alternating sum of anchored derivatives and
bracket insertions, with ω evaluated on one bracket section followed by unit
generators.  They are kept here only as an oracle.  The package computes d as
the derivation fixed by df and dθ^c, summed over the components of ω; both
must agree on the zero form, every dual generator and sampled forms of every
degree, including on E0_itemized, which fails the anchor axioms, on the
rank-10 derived bundle and on the rank-5 interval product of E0.
"""

from itertools import combinations

import pytest

from algforge.algebroid import Algebroid, Section
from algforge.catalog import builtin, e0_kernel_sections, torsionfree_gamma
from algforge.charclass import product_algebroid
from algforge.connection import EConnection, derive_bundle
from algforge.forms import Form, differential
from algforge.poly import Poly
from algforge.sampling import Sampler


def oracle_eval_section_then_gens(omega: Form, s: Section, rest: tuple[int, ...]) -> Poly:
    """ω evaluated on one polynomial section followed by unit generators."""
    out = Poly.zero(omega.algebroid.nvars)
    for t, coeff in enumerate(s.coeffs):
        if coeff.is_zero() or t in rest:
            continue
        pos = sum(1 for r in rest if r < t)
        value = omega.comps.get(tuple(sorted(rest + (t,))))
        if value is None:
            continue
        out = out + coeff * (value if pos % 2 == 0 else -value)
    return out


def oracle_differential(omega: Form) -> Form:
    """d ω on every generator tuple u, as the alternating Cartan sum.

    d ω(e_{u_0},…,e_{u_k}) = Σ_i (−1)^i ρ(e_{u_i}) ω(…ê_{u_i}…)
                            + Σ_{i<j} (−1)^{i+j} ω([e_{u_i}, e_{u_j}], …ê_{u_i}…ê_{u_j}…)
    """
    a = omega.algebroid
    k = omega.degree
    comps = {}
    for u in combinations(range(a.rank), k + 1):
        total = Poly.zero(a.nvars)
        for i in range(k + 1):
            value = omega.comps.get(u[:i] + u[i + 1 :])
            if value is not None:
                term = a.anchor[u[i]].apply(value)
                total = total + term if i % 2 == 0 else total - term
        for i, j in combinations(range(k + 1), 2):
            rest = tuple(x for t, x in enumerate(u) if t != i and t != j)
            term = oracle_eval_section_then_gens(omega, a.bracket_gen(u[i], u[j]), rest)
            total = total + term if (i + j) % 2 == 0 else total - term
        comps[u] = total
    return Form(a, k + 1, comps)


def forms(a: Algebroid, seed: int, sampled: int) -> list[Form]:
    """Zero forms, every dual generator, seeded forms of degree 0..min(rank, 4) and above."""
    sampler = Sampler(seed)
    out = [Form.zero(a, 0), Form.zero(a, 2)] + [Form.dual(a, i) for i in range(a.rank)]
    for degree in range(min(a.rank, 4) + 1):
        out += [sampler.form(a, degree) for _ in range(sampled)]
    out += [sampler.form(a, a.rank), sampler.form(a, a.rank + 1)]
    return out


E0 = builtin("E0")

ALGEBROIDS = {
    "E0": E0,
    "E0_itemized": builtin("E0_itemized"),
    "E0prime": builtin("E0prime"),
    "tangent3": builtin("tangent3"),
    "derived_e0": derive_bundle(EConnection(E0, torsionfree_gamma(E0))).derived,
    "E0 x interval": product_algebroid(E0).extended,
}


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_differential_matches_the_cartan_sum(name):
    a = ALGEBROIDS[name]
    checked = forms(a, seed=len(name), sampled=3)
    assert any(not differential(omega).is_zero() for omega in checked)
    for omega in checked:
        assert differential(omega) == oracle_differential(omega)


def test_bundles_built_from_e0_keep_their_own_coframe_table():
    e0 = builtin("E0")
    for omega in forms(e0, seed=1, sampled=2):
        differential(omega)
    assert e0.coframe_d
    kernel = list(e0_kernel_sections().values())
    modified = e0.modify_bracket(Sampler(2).kernel_modifier(e0, kernel, max_degree=2))
    assert modified.structure != e0.structure
    derived = derive_bundle(EConnection(e0, torsionfree_gamma(e0))).derived
    for a in (modified, derived):
        checked = forms(a, seed=3, sampled=2)
        assert any(not differential(omega).is_zero() for omega in checked)
        for omega in checked:
            assert differential(omega) == oracle_differential(omega)
