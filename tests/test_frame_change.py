"""Metamorphic checks: a constant change of frame on E0.

A new frame f_a = Σ_b P[b][a] e_b with P a constant integer matrix of
determinant ±1 describes the same algebroid.  The Jacobiator is ℱ-trilinear,
so its table in the new frame is the old table pushed through P in each slot
and read back through P⁻¹; so is the curvature table of the torsion-free
connection; being Lie does not depend on the frame.  The number
of failing generator triples does under a shear, but not under a permutation,
which only relabels the triples; neither do the d²-ideal membership verdicts
of forms carried along by a permutation.  Under the shear a member stays a
member with cofactors that recombine, and a non-member never becomes one.  The differential is built from the
anchor and the structure table alone, so it commutes with either change of
frame, although the shear's d²-ideal is no longer monomial.
"""

from itertools import combinations, product

import pytest

from algforge.algebroid import Algebroid, Section
from algforge.catalog import builtin, torsionfree_gamma
from algforge.connection import EConnection
from algforge.forms import NO, NO_WITNESS, YES, Form, Lambda2Ideal, d_squared, differential
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")

PERMUTATION = [
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 0, 1, 0],
]
PERMUTATION_INVERSE = [list(row) for row in zip(*PERMUTATION)]
SHEAR = [
    [1, 2, 0, 0],
    [0, 1, 0, -1],
    [0, 0, 1, 0],
    [0, 0, 3, 1],
]
SHEAR_INVERSE = [
    [1, -2, 6, -2],
    [0, 1, -3, 1],
    [0, 0, 1, 0],
    [0, 0, -3, 1],
]


def matrix_times(p, s: Section) -> Section:
    n = s.coeffs[0].nvars
    out = []
    for row in p:
        total = Poly.zero(n)
        for entry, coeff in zip(row, s.coeffs):
            if entry:
                total = total + coeff * entry
        out.append(total)
    return Section(out)


def frame(algebroid: Algebroid, p) -> list[Section]:
    """The new generators f_a written in the old frame (columns of P)."""
    n = algebroid.nvars
    return [Section([Poly.const(n, row[a]) for row in p]) for a in range(algebroid.rank)]


def reframe(algebroid: Algebroid, p, p_inverse) -> Algebroid:
    f = frame(algebroid, p)
    structure = {
        (a, b): matrix_times(p_inverse, algebroid.bracket(f[a], f[b]))
        for a in range(algebroid.rank)
        for b in range(a + 1, algebroid.rank)
    }
    anchor = [algebroid.anchor_of(s) for s in f]
    names = [f"F{a + 1}" for a in range(algebroid.rank)]
    return Algebroid(algebroid.base, names, anchor, structure)


@pytest.mark.parametrize("p, p_inverse", [(PERMUTATION, PERMUTATION_INVERSE), (SHEAR, SHEAR_INVERSE)])
def test_frames_are_unimodular(p, p_inverse):
    m = len(p)
    for i, k in product(range(m), repeat=2):
        assert sum(p[i][j] * p_inverse[j][k] for j in range(m)) == (i == k)


@pytest.mark.parametrize("p, p_inverse", [(PERMUTATION, PERMUTATION_INVERSE), (SHEAR, SHEAR_INVERSE)])
def test_jacobiator_table_transforms_trilinearly(p, p_inverse):
    m = E0.rank
    units = [E0.unit_section(i) for i in range(m)]
    table = {t: E0.jacobiator(*(units[i] for i in t)) for t in product(range(m), repeat=3)}
    new = reframe(E0, p, p_inverse)
    new_units = [new.unit_section(a) for a in range(m)]
    for a, b, c in product(range(m), repeat=3):
        pushed = E0.zero_section()
        for (i, j, k), value in table.items():
            weight = p[i][a] * p[j][b] * p[k][c]
            if weight:
                pushed = pushed + value.scale(weight)
        want = matrix_times(p_inverse, pushed)
        assert new.jacobiator(new_units[a], new_units[b], new_units[c]) == want


@pytest.mark.parametrize("p, p_inverse", [(PERMUTATION, PERMUTATION_INVERSE), (SHEAR, SHEAR_INVERSE)])
def test_curvature_table_transforms_trilinearly(p, p_inverse):
    m = E0.rank
    tf = EConnection(E0, torsionfree_gamma(E0))
    f = frame(E0, p)
    gamma = {
        (a, c): matrix_times(p_inverse, tf.covariant_derivative(f[a], f[c]))
        for a, c in product(range(m), repeat=2)
    }
    new = EConnection(reframe(E0, p, p_inverse), gamma)
    assert new.is_torsion_free()
    for a, b, c in product(range(m), repeat=3):
        pushed = E0.zero_section()
        for i, j, k in product(range(m), repeat=3):
            weight = p[i][a] * p[j][b] * p[k][c]
            if weight:
                pushed = pushed + tf.curvature_gen(i, j, k).scale(weight)
        assert new.curvature_gen(a, b, c) == matrix_times(p_inverse, pushed)


@pytest.mark.parametrize("name", ["E0", "E0prime_lie"])
@pytest.mark.parametrize("p, p_inverse", [(PERMUTATION, PERMUTATION_INVERSE), (SHEAR, SHEAR_INVERSE)])
def test_being_lie_does_not_depend_on_the_frame(name, p, p_inverse):
    algebroid = builtin(name)
    new = reframe(algebroid, p, p_inverse)
    assert new.check_axioms().ok
    assert new.check_lie().is_lie == algebroid.check_lie().is_lie


def test_a_permutation_keeps_the_failure_count():
    before = E0.check_lie()
    after = reframe(E0, PERMUTATION, PERMUTATION_INVERSE).check_lie()
    assert len(before.failures) == 2
    assert len(after.failures) == len(before.failures)
    # a shear mixes a failing triple into a third one
    assert len(reframe(E0, SHEAR, SHEAR_INVERSE).check_lie().failures) == 3


def reframe_form(omega: Form, new: Algebroid, f: list[Section]) -> Form:
    """The same form written in the new frame: its values on the new generators."""
    comps = {
        key: omega.eval_sections(*(f[a] for a in key))
        for key in combinations(range(new.rank), omega.degree)
    }
    return Form(new, omega.degree, comps)


@pytest.mark.parametrize("p, p_inverse", [(PERMUTATION, PERMUTATION_INVERSE), (SHEAR, SHEAR_INVERSE)])
def test_the_differential_commutes_with_the_change_of_frame(p, p_inverse):
    new = reframe(E0, p, p_inverse)
    f = frame(E0, p)
    assert Lambda2Ideal(new).fast_path == (p is PERMUTATION)
    sampler = Sampler(8)
    for degree in range(4):
        for _ in range(4):
            omega = sampler.form(E0, degree)
            assert differential(reframe_form(omega, new, f)) == reframe_form(differential(omega), new, f)


def membership_forms(new: Algebroid, f: list[Section]) -> list[Form]:
    """Seeded degree-2 and degree-3 forms on E0, then four members of its d²-ideal."""
    sampler = Sampler(5)
    forms = [sampler.form(E0, 2) for _ in range(3)] + [sampler.form(E0, 3) for _ in range(4)]
    # d² of a 1-form lies in the ideal, and commutes with the change of frame
    ones = [sampler.form(E0, 1) for _ in range(3)]
    for w in ones:
        assert d_squared(reframe_form(w, new, f)) == reframe_form(d_squared(w), new, f)
    members = [d_squared(w) for w in ones]
    return forms + members + [members[0] + Lambda2Ideal(E0).gens3[0].scale(sampler.poly(E0.nvars))]


def test_a_permutation_keeps_the_ideal_membership_verdicts():
    new = reframe(E0, PERMUTATION, PERMUTATION_INVERSE)
    f = frame(E0, PERMUTATION)
    ideal, new_ideal = Lambda2Ideal(E0), Lambda2Ideal(new)
    verdicts = []
    for omega in membership_forms(new, f):
        before = ideal.membership(omega).status
        assert new_ideal.membership(reframe_form(omega, new, f)).status == before
        verdicts.append((omega.degree, before))
    assert {(3, YES), (3, NO), (2, NO)} <= set(verdicts)


def test_a_shear_keeps_the_members_and_makes_none():
    # the sheared ideal is not monomial, so its memberships are witness searches
    new = reframe(E0, SHEAR, SHEAR_INVERSE)
    f = frame(E0, SHEAR)
    ideal, new_ideal = Lambda2Ideal(E0), Lambda2Ideal(new)
    assert not new_ideal.fast_path
    verdicts = []
    for omega in membership_forms(new, f):
        before = ideal.membership(omega).status
        sheared = reframe_form(omega, new, f)
        after = new_ideal.membership(sheared)
        if before == YES:
            assert after.status == YES
            assert new_ideal.check_cofactors(sheared, after)
        else:
            assert before == NO and after.status != YES
        verdicts.append((omega.degree, before, after.status))
    # a bounded search cannot refute a degree-3 form, so those end without a witness
    assert verdicts.count((3, YES, YES)) == 4
    assert verdicts.count((2, NO, NO)) == 3
    assert verdicts.count((3, NO, NO_WITNESS)) == 4
