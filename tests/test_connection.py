"""Connections: torsion, curvature, the cyclic curvature identity."""

from itertools import combinations, product

import pytest

from algforge.algebroid import AlgebroidError
from algforge.catalog import e0_kernel_sections, make_e0, make_tangent, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle, flat_connection, induced_connection
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = make_e0()
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)
UNITS = [E0.unit_section(i) for i in range(4)]
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")


def test_torsionfree_gamma_shape():
    # the catalog connection differentiates only along matching lower indices
    gamma = torsionfree_gamma(E0)
    assert gamma[(0, 0)] == UNITS[0].scale(2 * X1)
    assert gamma[(1, 2)] == UNITS[0].scale(2 * X2)
    assert (0, 1) in gamma and gamma[(0, 1)] == UNITS[1].scale(2 * X1)
    assert (1, 0) not in gamma


def test_covariant_derivative_leibniz():
    f = X1 * X2
    lhs = TF.covariant_derivative(UNITS[0], UNITS[1].scale(f))
    rhs = TF.covariant_derivative(UNITS[0], UNITS[1]).scale(f) + UNITS[1].scale(
        E0.anchor_of(UNITS[0]).apply(f)
    )
    assert lhs == rhs


def test_torsion_free_on_all_pairs():
    assert TF.is_torsion_free()
    for i, j in combinations(range(4), 2):
        assert TF.torsion(UNITS[i], UNITS[j]).is_zero()


def test_flat_connection_has_torsion_here():
    fl = flat_connection(E0)
    assert not fl.is_torsion_free()
    # flat covariant derivative is bare anchor differentiation
    s = UNITS[1].scale(X1 * X1)
    assert fl.covariant_derivative(UNITS[0], s) == UNITS[1].scale(
        E0.anchor_of(UNITS[0]).apply(X1 * X1)
    )
    assert fl.curvature(UNITS[0], UNITS[2], UNITS[1]).is_zero()


def test_curvature_against_hand_values():
    kern = e0_kernel_sections()
    expect = {
        (0, 2, 0): kern["Xs1"].scale(-2),
        (0, 2, 1): kern["Xs2"].scale(-2),
        (1, 3, 2): kern["Xs1"].scale(-2),
        (1, 3, 3): kern["Xs2"].scale(-2),
    }
    seen = {}
    for i, j in combinations(range(4), 2):
        for b in range(4):
            value = TF.curvature(UNITS[i], UNITS[j], UNITS[b])
            if not value.is_zero():
                seen[(i, j, b)] = value
    assert seen == expect


def test_curvature_table_matches_pointwise_calls():
    for conn in (TF, Sampler(3).connection(E0, max_degree=1), derive_bundle(TF).lifted):
        a = conn.algebroid
        units = [a.unit_section(i) for i in range(a.rank)]
        table = conn.curvature_table()
        assert conn.curvature_table() is table
        for (i, j, b), value in table.items():
            assert i < j
            assert value == conn.curvature(units[i], units[j], units[b])
            assert not value.is_zero()
        for i, j, b in product(range(a.rank), repeat=3):
            assert conn.curvature_gen(i, j, b) == conn.curvature(units[i], units[j], units[b]), (conn.name, i, j, b)


def test_curvature_is_tensorial_in_the_directions():
    f = X1 + 2 * X2
    lhs = TF.curvature(UNITS[0].scale(f), UNITS[2], UNITS[1])
    assert lhs == TF.curvature(UNITS[0], UNITS[2], UNITS[1]).scale(f)


def test_bianchi_defect_vanishes_for_seeded_connections():
    sampler = Sampler(7)
    for _ in range(5):
        conn = sampler.connection(E0, max_degree=1)
        for i, j, k in combinations(range(4), 3):
            assert conn.bianchi_defect(UNITS[i], UNITS[j], UNITS[k]).is_zero()


def test_induced_connection_from_base_christoffels():
    t2 = make_tangent(2)
    z = Poly.zero(2)
    christoffels = [
        [[z, z], [z, z]],
        [[X1 * X1, z], [z, z]],
    ]
    conn = induced_connection(t2, christoffels)
    units = [t2.unit_section(i) for i in range(2)]
    # nabla_{T2} T1 = x1^2 T1 per the table above
    assert conn.covariant_derivative(units[1], units[0]) == units[0].scale(X1 * X1)
    assert conn.covariant_derivative(units[0], units[0]).is_zero()


def test_gamma_rejects_bad_indices():
    with pytest.raises(AlgebroidError):
        EConnection(E0, {(0, 9): UNITS[0]})
