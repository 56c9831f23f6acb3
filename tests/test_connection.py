"""Connections: torsion, curvature, the cyclic curvature identity."""

from functools import partial
from itertools import combinations, product

import pytest

from algforge.algebroid import AlgebroidError, Section, sweep
from algforge.catalog import builtin, e0_kernel_sections, make_tangent, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle, flat_connection, induced_connection
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
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
        assert reference_torsion(TF, UNITS[i], UNITS[j]).is_zero()


def test_flat_connection_has_torsion_here():
    fl = flat_connection(E0)
    assert not fl.is_torsion_free()
    # flat covariant derivative is bare anchor differentiation
    s = UNITS[1].scale(X1 * X1)
    assert fl.covariant_derivative(UNITS[0], s) == UNITS[1].scale(
        E0.anchor_of(UNITS[0]).apply(X1 * X1)
    )
    assert fl.curvature(UNITS[0], UNITS[2], UNITS[1]).is_zero()


def test_torsion_and_bianchi_tables_keep_the_nonzero_values():
    # a flat connection differentiates no unit section, so its torsion is minus the bracket
    table = flat_connection(E0).torsion_table()
    assert list(table) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert all(value == -E0.bracket_gen(i, j) for (i, j), value in table.items())
    assert TF.torsion_table() == {}
    assert TF.bianchi_table() == {}
    assert flat_connection(E0).bianchi_table() == {}
    other = EConnection(E0, {}, target_gens=("A",))
    for table_of in (other.torsion_table, other.bianchi_table):
        with pytest.raises(AlgebroidError):
            table_of()


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
    # the closed-form table against R expanded through the Leibniz rule on unit
    # sections: E0_itemized fails the anchor axioms, the induced connection has
    # a rank-3 target, and the derived connections have rank 10
    tangent = make_tangent(2)
    to_rank3 = EConnection(
        tangent,
        {(0, 1): Section([X1 * X2, Poly.zero(2), X2]), (1, 2): Section([Poly.zero(2), X1 * X1, Poly.const(2, 3)])},
        target_gens=("A", "B", "C"),
    )
    derived = derive_bundle(TF)
    connections = (
        TF,
        Sampler(3).connection(E0, max_degree=1),
        Sampler(4).connection(builtin("E0_itemized"), max_degree=2, density=0.5),
        Sampler(5).connection(builtin("E0prime"), max_degree=2, density=0.5),
        induced_connection(E0, to_rank3),
        derived.lifted,
        derived.plain_ext,
    )
    for conn in connections:
        a, r = conn.algebroid, conn.target_rank
        units = [a.unit_section(i) for i in range(a.rank)]
        targets = [Section([Poly.const(a.nvars, int(c == b)) for c in range(r)]) for b in range(r)]
        table = conn.curvature_table()
        assert conn.curvature_table() is table
        for (i, j, b), value in table.items():
            assert i < j
            assert value == conn.curvature(units[i], units[j], targets[b])
            assert not value.is_zero()
        for i, j, b in product(range(a.rank), range(a.rank), range(r)):
            assert conn.curvature_gen(i, j, b) == conn.curvature(units[i], units[j], targets[b]), (conn.name, i, j, b)


def test_curvature_is_tensorial_in_the_directions():
    f = X1 + 2 * X2
    lhs = TF.curvature(UNITS[0].scale(f), UNITS[2], UNITS[1])
    assert lhs == TF.curvature(UNITS[0], UNITS[2], UNITS[1]).scale(f)


def reference_torsion(conn: EConnection, x: Section, y: Section) -> Section:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y], expanded through the Leibniz rule."""
    return conn.covariant_derivative(x, y) - conn.covariant_derivative(y, x) - conn.algebroid.bracket(x, y)


def reference_bianchi_defect(conn: EConnection, x: Section, y: Section, z: Section) -> Section:
    """Cyclic curvature sum minus its torsion expansion, every term expanded
    through the Leibniz rule on the given sections; identically zero.

    LHS: sum_cyc R(X,Y)Z.  RHS: sum_cyc (nabla_X T)(Y,Z)
         + sum_cyc T(T(X,Y),Z) + Jacobiator(X,Y,Z), where
    (nabla_X T)(Y,Z) = nabla_X(T(Y,Z)) - T(nabla_X Y, Z) - T(Y, nabla_X Z).
    """
    torsion = partial(reference_torsion, conn)

    def nabla_t(a: Section, b: Section, c: Section) -> Section:
        return (
            conn.covariant_derivative(a, torsion(b, c))
            - torsion(conn.covariant_derivative(a, b), c)
            - torsion(b, conn.covariant_derivative(a, c))
        )

    lhs = conn.algebroid.zero_section()
    rhs = conn.algebroid.jacobiator(x, y, z)
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        lhs = lhs + conn.curvature(a, b, c)
        rhs = rhs + nabla_t(a, b, c) + torsion(torsion(a, b), c)
    return lhs - rhs


def test_bianchi_defect_vanishes_for_seeded_connections():
    sampler = Sampler(7)
    for _ in range(5):
        conn = sampler.connection(E0, max_degree=1)
        for i, j, k in combinations(range(4), 3):
            assert reference_bianchi_defect(conn, UNITS[i], UNITS[j], UNITS[k]).is_zero()
        assert conn.bianchi_table() == {}


@pytest.mark.parametrize("name", ["E0", "E0_itemized", "E0prime", "E0prime_lie"])
def test_closed_form_torsion_and_bianchi_tables_match_the_leibniz_expansion(name):
    # seeded degree-<=2 connections carry torsion, so every term of the
    # identity is exercised, T(T(X,Y),Z) included
    a = builtin(name)
    u = a.units
    sampler = Sampler(11)
    for _ in range(3):
        conn = sampler.connection(a, max_degree=2, density=0.5)
        assert conn.torsion_table() == sweep(a.rank, 2, lambda i, j: reference_torsion(conn, u[i], u[j]))
        assert conn.torsion_table()
        want = sweep(a.rank, 3, lambda i, j, k: reference_bianchi_defect(conn, u[i], u[j], u[k]))
        assert conn.bianchi_table() == want


def test_induced_connection_from_base_christoffels():
    t2 = make_tangent(2)
    units = [t2.unit_section(i) for i in range(2)]
    conn = induced_connection(t2, EConnection(t2, {(1, 0): units[0].scale(X1 * X1)}))
    # nabla_{T2} T1 = x1^2 T1 per the table above
    assert conn.covariant_derivative(units[1], units[0]) == units[0].scale(X1 * X1)
    assert conn.covariant_derivative(units[0], units[0]).is_zero()


def test_induced_connection_reads_christoffels_by_target_then_source():
    # entries[j, a, b] is the e_a-coefficient of the derivative of e_b along
    # d/dx_j: nonzero only for (a, b) = (2, 1) and (0, 3), so a transposed
    # read of (a, b) gives a different table
    z = Poly.zero(2)
    entries = {(0, 2, 1): X1, (1, 0, 3): X2 * X2}
    base = EConnection(
        make_tangent(2),
        {(j, b): UNITS[a].scale(f) for (j, a, b), f in entries.items()},
        target_gens=E0.gen_names,
    )
    conn = induced_connection(E0, base)
    # rho(X11), rho(X12) have a d1 part and rho(X21), rho(X22) a d2 part
    assert set(conn.gamma) == {(0, 1), (2, 1), (1, 3), (3, 3)}
    for beta, b in product(range(4), repeat=2):
        rho = E0.anchor[beta].coeffs
        want = [sum((rho[j] * entries.get((j, a, b), z) for j in range(2)), z) for a in range(4)]
        assert list(conn.gamma_entry(beta, b).coeffs) == want


def test_induced_connection_refuses_a_base_off_the_tangent_bundle():
    # E0's own connection is not along d/dx_j, and tangent3 lives over another base
    for base in (flat_connection(E0), flat_connection(make_tangent(3))):
        with pytest.raises(AlgebroidError):
            induced_connection(E0, base)


def test_gamma_rejects_bad_indices():
    with pytest.raises(AlgebroidError):
        EConnection(E0, {(0, 9): UNITS[0]})
