"""Curvature matrices, trace forms, transgression, and base pullback."""

from itertools import combinations

import pytest

from algforge.algebroid import AlgebroidError
from algforge.catalog import builtin, corpus_document, make_tangent, tangent_bundle, torsionfree_gamma
from algforge.charclass import (
    FormMatrix,
    char_form,
    char_forms,
    connection_forms,
    curvature_matrix,
    product_algebroid,
    pullback_consistency,
    structure_residuals,
    transgression_check,
)
from algforge.connection import EConnection, flat_connection
from algforge.dsl import document_algebroid, document_connection
from algforge.forms import Form, Lambda2Ideal, d_squared, differential, strong_closed, weak_closed
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
FLAT = flat_connection(E0)
IDEAL = Lambda2Ideal(E0)
T2 = make_tangent(2)


def wedge_power(m, k):
    """The k-th wedge power of a form matrix, the identity matrix at k = 0."""
    out = FormMatrix.identity(m.algebroid, m.size)
    for _ in range(k):
        out = out.wedge_mul(m)
    return out


def trace_commutator_residual(conn, k):
    """Tr(R^k∧theta - theta∧R^k); zero by trace cyclicity."""
    theta = connection_forms(conn)
    rk = wedge_power(curvature_matrix(conn), k)
    return rk.wedge_mul(theta).trace() - theta.wedge_mul(rk).trace()


def d_trace_power_residual(conn, k):
    """d Tr(R^k) - k Tr(d²theta ∧ R^{k-1}); zero for every k >= 1."""
    theta = connection_forms(conn)
    r = curvature_matrix(conn)
    lhs = differential(wedge_power(r, k).trace())
    rhs = theta.d().d().wedge_mul(wedge_power(r, k - 1)).trace()
    return lhs - rhs.scale(k)


def w(*idx):
    out = Form.dual(E0, idx[0])
    for i in idx[1:]:
        out = out.wedge(Form.dual(E0, i))
    return out


def reference_char_form(conn, k):
    """Tr R^k read off the whole k-th power: the reference for ``char_form``'s diagonal sum."""
    return wedge_power(curvature_matrix(conn), k).trace()


def mutated_char_form(conn, k):
    """Σ_{i,j} (R^{k−1})_ij ∧ R_ij: the diagonal sum with the last factor's indices left unswapped."""
    r = curvature_matrix(conn)
    power = wedge_power(r, k - 1)
    total = Form.zero(conn.algebroid, 2 * k)
    for i in range(r.size):
        for j in range(r.size):
            total = total + power.entry(i, j).wedge(r.entry(i, j))
    return total


def entries_of(m):
    """The matrix as rows of forms."""
    return [[m.entry(a, b) for b in range(m.size)] for a in range(m.size)]


def entrywise_product(left, right):
    """Σ_c left[a][c] ∧ right[c][b] on matrices given as rows of forms, one
    ``Form.wedge`` per pair: the reference for the sparse products."""
    out = []
    for row in left:
        out.append([])
        for b in range(len(right)):
            total = row[0].wedge(right[0][b])
            for f, right_row in zip(row[1:], right[1:]):
                total = total + f.wedge(right_row[b])
            out[-1].append(total)
    return out


def diagonal_sum(rows):
    return sum((rows[i][i] for i in range(1, len(rows))), rows[0][0])


def lifted_derived_e0():
    doc = corpus_document("derived_e0")
    return document_connection(doc, document_algebroid(doc), "lifted")


def test_form_matrix_algebra():
    ident = FormMatrix.identity(E0, 4)
    theta = connection_forms(TF)
    assert (theta - theta).is_zero()
    assert theta.wedge_mul(ident).degree == theta.degree + 0
    assert wedge_power(theta, 0).entry(0, 0) == Form.function(E0, 1)
    assert wedge_power(theta, 2).degree == 2


def test_form_matrix_sums_refuse_another_size_degree_or_algebroid():
    derived = document_algebroid(corpus_document("derived_e0"))
    for other in (
        FormMatrix.identity(E0, 3),
        FormMatrix.zero(E0, 2, 1),
        FormMatrix.identity(derived, 2),
        FormMatrix.identity(T2, 2),
    ):
        with pytest.raises(AlgebroidError, match="different sizes, degrees or algebroids"):
            FormMatrix.identity(E0, 2) + other
        with pytest.raises(AlgebroidError, match="different sizes, degrees or algebroids"):
            FormMatrix.identity(E0, 2) - other
    # with no entries only the shape can tell the degrees apart
    with pytest.raises(AlgebroidError):
        FormMatrix.zero(E0, 0, 1) + FormMatrix.zero(E0, 0, 2)
    # the same generators and base built twice still combine
    assert (FormMatrix.identity(E0, 2) - FormMatrix.identity(builtin("E0"), 2)).trace().is_zero()


def test_form_matrix_products_refuse_another_size_or_algebroid():
    for other in (
        FormMatrix.identity(E0, 3),
        FormMatrix.identity(product_algebroid(E0).extended, 2),
        FormMatrix.identity(T2, 2),
    ):
        with pytest.raises(AlgebroidError, match="different sizes or algebroids"):
            FormMatrix.identity(E0, 2).wedge_mul(other)
    # degrees add, and the same generators and base built twice still multiply
    assert FormMatrix.identity(E0, 2).wedge_mul(FormMatrix.zero(builtin("E0"), 2, 1)).degree == 1


def test_sparse_products_match_the_entrywise_product():
    sampler = Sampler(5)
    seeded = [sampler.connection(E0, max_degree=1) for _ in range(4)]
    for conn in [TF, FLAT, *seeded, lifted_derived_e0()]:
        theta, r = connection_forms(conn), curvature_matrix(conn)
        for left, right in ((theta, r), (r, theta), (theta, theta)):
            assert entries_of(left.wedge_mul(right)) == entrywise_product(entries_of(left), entries_of(right))
        for m in (theta, r):
            assert m.trace() == diagonal_sum(entries_of(m))
        power = [[Form.function(conn.algebroid, int(a == b)) for b in range(r.size)] for a in range(r.size)]
        for k in range(4):
            got = wedge_power(r, k)
            assert entries_of(got) == power
            assert got.trace() == diagonal_sum(power)
            power = entrywise_product(power, entries_of(r))


def test_form_matrices_store_no_zero_entry():
    assert FormMatrix.zero(E0, 136, 2).terms == {}
    assert len(FormMatrix.identity(E0, 4).terms) == 4
    # one term per nonzero curvature coefficient term: TF's are all on two
    # generator pairs, and the lifted connection on the rank-10 bundle is flat
    for conn, stored in ((TF, 8), (lifted_derived_e0(), 0)):
        assert sum(len(value.terms) for value in conn.curvature_table().values()) == stored
        assert len(curvature_matrix(conn).terms) == stored


def test_connection_form_entries():
    theta = connection_forms(TF)
    # theta[a][b] collects the gamma coefficients: nabla_{e_beta} e_b = sum_a theta[a][b](e_beta) e_a
    assert theta.entry(0, 0) == Form.dual(E0, 0).scale(2 * X1)
    assert theta.entry(0, 2) == Form.dual(E0, 1).scale(2 * X2)
    assert theta.entry(1, 0).is_zero()


def test_structure_equation_both_fixed_connections():
    for conn in (TF, FLAT):
        cartan, d_cartan = structure_residuals(conn)
        assert cartan.is_zero()
        assert d_cartan.is_zero()


def test_curvature_matrix_against_pointwise_curvature():
    r = curvature_matrix(TF)
    units = [E0.unit_section(i) for i in range(4)]
    for i, j in combinations(range(4), 2):
        for b in range(4):
            value = TF.curvature(units[i], units[j], units[b])
            for a in range(4):
                assert r.entry(a, b).comps.get((i, j), Poly.zero(2)) == value.coeffs[a]


def test_first_trace_form_frozen_value():
    tr = char_form(TF, 1)
    assert tr == w(0, 2).scale(-4 * X2 * X2) + w(1, 3).scale(4 * X1 * X1)


def test_second_trace_form_frozen_value():
    tr2 = char_form(TF, 2)
    assert tr2 == w(0, 1, 2, 3).scale(16 * X1 * X1 * X2 * X2)


def test_char_form_is_the_trace_of_the_whole_power():
    sampler = Sampler(5)
    seeded = [sampler.connection(E0, max_degree=1) for _ in range(4)]
    for conn in [TF, FLAT] + seeded:
        for k in (1, 2, 3):
            assert char_form(conn, k) == reference_char_form(conn, k)
    # the reference tells the index order of the last factor apart
    assert any(mutated_char_form(conn, 2) != reference_char_form(conn, 2) for conn in seeded)


def test_running_power_matches_the_whole_power_on_curved_connections():
    # seeded degree <= 1 connections on E0 and on the rank-10 derived bundle:
    # curvature and trace forms nonzero, so the products are not all empty
    derived = document_algebroid(corpus_document("derived_e0"))
    seeded = [Sampler(seed).connection(E0, max_degree=1) for seed in (0, 1, 5, 7)]
    seeded += [Sampler(seed).connection(derived, max_degree=1, density=0.1) for seed in (1, 2)]
    for conn in [TF, *seeded]:
        forms = dict(char_forms(conn, (1, 2, 3)))
        assert list(forms) == [1, 2, 3]
        for k in (1, 2, 3):
            assert forms[k] == reference_char_form(conn, k)
    assert all(curvature_matrix(conn).terms for conn in seeded)
    assert all(char_form(conn, 1).terms for conn in seeded)
    assert sum(1 for conn in seeded if char_form(conn, 2).terms) >= 4
    # an order past the last nonzero power, alone or after the others
    assert dict(char_forms(TF, (1, 2, 10**18)))[10**18] == Form.zero(E0, 2 * 10**18)
    # orders come in increasing and start at 1
    with pytest.raises(AlgebroidError, match="start at k = 1"):
        list(char_forms(TF, (0, 1)))
    with pytest.raises(AlgebroidError, match="orders must increase"):
        list(char_forms(TF, (2, 1)))


def test_transgression_of_several_orders_equals_one_call_per_order():
    sampler = Sampler(5)
    first = sampler.connection(E0, max_degree=1)
    second = sampler.connection(E0, max_degree=1)
    reports = transgression_check(first, second, (1, 2, 3), ideal=IDEAL)
    assert [rep.k for rep in reports] == [1, 2, 3]
    # orders 1 and 2 differ and have a witness; order 2 has an ideal part too
    assert not any(rep.difference.is_zero() or rep.primary_witness.is_zero() for rep in reports[:2])
    assert not reports[1].ideal_part.is_zero()
    for rep in reports:
        assert rep.ok
        assert [rep] == transgression_check(first, second, (rep.k,), ideal=IDEAL)


def test_trace_forms_of_flat_connection_vanish():
    for k in (1, 2, 3):
        assert char_form(FLAT, k).is_zero()


def test_trace_of_connection_forms_witnesses_closedness():
    tr = char_form(TF, 1)
    theta_trace = connection_forms(TF).trace()
    assert theta_trace == Form.dual(E0, 0).scale(4 * X1) + Form.dual(E0, 3).scale(4 * X2)
    assert d_squared(theta_trace) == differential(tr)
    decision = strong_closed(tr)
    assert decision.is_yes


def test_second_trace_form_weak_closed():
    assert weak_closed(char_form(TF, 2), IDEAL).is_yes


def test_derivative_of_trace_powers_identity():
    sampler = Sampler(3)
    conns = [TF, FLAT] + [sampler.connection(E0, max_degree=1) for _ in range(3)]
    for conn in conns:
        for k in (1, 2):
            assert d_trace_power_residual(conn, k).is_zero()
        assert trace_commutator_residual(conn, 1).is_zero()
        assert trace_commutator_residual(conn, 2).is_zero()


def test_transgression_flat_to_torsionfree():
    for k in (1, 2):
        (rep,) = transgression_check(FLAT, TF, (k,), ideal=IDEAL)
        assert rep.identity_ok
        assert rep.restriction_ok
        assert rep.ideal_membership.is_yes
        assert rep.ok
        assert rep.difference == char_form(TF, k) - char_form(FLAT, k)
    # order 1: the primary witness is exactly the trace of the connection forms
    (rep1,) = transgression_check(FLAT, TF, (1,), ideal=IDEAL)
    assert rep1.primary_witness == connection_forms(TF).trace()


def test_transgression_between_seeded_connections():
    sampler = Sampler(11)
    first = sampler.connection(E0, max_degree=1)
    second = sampler.connection(E0, max_degree=1)
    (rep,) = transgression_check(first, second, (1,), ideal=IDEAL)
    assert rep.ok


def test_pullback_consistency_flat_base():
    rep = pullback_consistency(E0, flat_connection(T2), 1, ideal=IDEAL)
    assert rep.ok
    assert rep.algebroid_side.is_zero()
    assert rep.base_side.is_zero()


def test_pullback_consistency_curved_base_frozen_value():
    curved = EConnection(T2, {(1, 0): T2.unit_section(0).scale(X1 * X1)})
    rep = pullback_consistency(E0, curved, 1, ideal=IDEAL)
    assert rep.ok
    want = (
        w(0, 1).scale(2 * X1**5)
        + w(0, 3).scale(2 * X1**3 * X2**2)
        - w(1, 2).scale(2 * X1**3 * X2**2)
        + w(2, 3).scale(2 * X1 * X2**4)
    )
    assert rep.base_side == want
    assert rep.algebroid_side == want
    assert rep.residual_normal_form.is_zero()


def test_pullback_consistency_over_a_named_base():
    # plane_forms lives over (x, y), so its base connections live on that
    # base's tangent bundle, not on make_tangent(2)'s x1, x2
    plane = document_algebroid(corpus_document("plane_forms"))
    tangent = tangent_bundle(plane.base)
    x = Poly.variable(2, 0)
    curved = EConnection(tangent, {(1, 0): tangent.unit_section(0).scale(x * x)})
    for base in (flat_connection(tangent), curved):
        rep = pullback_consistency(plane, base, 1)
        assert rep.ok
        assert rep.algebroid_side == rep.base_side
    # the anchor is the identity, so the pullback of Tr R = 2x dx^dy is 2x w(U)^w(V)
    assert rep.base_side == Form(plane, 2, {(0, 1): 2 * x})


def test_pullback_consistency_with_e_as_target():
    # V = E: a seeded connection along d/dx_1, d/dx_2 on E0's generators; the
    # order-2 form is a 4-form pulled back from a rank-2 bundle, so only order 1
    # has a nonzero side
    for seed in (1, 3, 4):
        sampler = Sampler(seed)
        gamma = {
            (j, b): sampler.section(E0, max_degree=1) for j in range(2) for b in range(4) if sampler.rng.random() < 0.4
        }
        base = EConnection(T2, gamma, target_gens=E0.gen_names)
        for k in (1, 2):
            rep = pullback_consistency(E0, base, k, ideal=IDEAL)
            assert rep.base_side.is_zero() == (k == 2)
            assert rep.algebroid_side == rep.base_side
            assert rep.residual_normal_form.is_zero()
