"""The anchored-bundle engine on the rank-4 example and its relatives."""

from itertools import combinations, permutations

import pytest
from courant_basis import basis_sections, unpacked_terms

from algforge import algebroid as algebroid_module
from algforge import catalog, linsolve
from algforge.algebroid import (
    Algebroid,
    AlgebroidError,
    BracketModifier,
    Endomorphism,
    Section,
    check_morphism,
    courant_defect,
    courant_solution_space,
    lie_infeasibility_certificate,
    nijenhuis,
    nijenhuis_table,
    subalgebroid_restrict,
    sweep,
)
from algforge.catalog import (
    builtin,
    builtin_names,
    corpus_document,
    e0_kernel_sections,
    e0prime_to_e0_images,
    make_tangent,
    torsionfree_gamma,
)
from algforge.connection import EConnection, derive_bundle
from algforge.dsl import document_algebroid, document_connection, document_endo
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)
UNITS = [E0.unit_section(i) for i in range(4)]
CORPUS = (
    "E0", "E00", "E0_itemized", "E0doubleprime", "E0prime", "E0prime_lie", "derived_e0", "plane_forms", "tangent2",
)


def anchor_rank_at(algebroid, point) -> int:
    """Rank of the anchor images evaluated at a base point."""
    return linsolve.rank([[comp.eval_at(point) for comp in row.coeffs] for row in algebroid.anchor])


def test_anchor_table():
    assert E0.anchor[0].to_text() == "x1^2*d1"
    assert E0.anchor[1].to_text() == "x1^2*d2"
    assert E0.anchor[2].to_text() == "x2^2*d1"
    assert E0.anchor[3].to_text() == "x2^2*d2"


def test_bracket_table_against_hand_values():
    expect = {
        (0, 1): UNITS[1].scale(2 * X1),
        (0, 2): UNITS[2].scale(-2 * X1),
        (0, 3): E0.zero_section(),
        (1, 2): UNITS[0].scale(2 * X2) - UNITS[3].scale(2 * X1),
        (1, 3): UNITS[1].scale(2 * X2),
        (2, 3): UNITS[2].scale(-2 * X2),
    }
    for (i, j), want in expect.items():
        assert E0.bracket_gen(i, j) == want
        # skew-symmetry through the public bracket
        assert E0.bracket(UNITS[j], UNITS[i]) == -want


def test_bracket_leibniz_rule():
    f = X1 * X2 + 3
    lhs = E0.bracket(UNITS[0], UNITS[1].scale(f))
    rhs = E0.bracket(UNITS[0], UNITS[1]).scale(f) + UNITS[1].scale(E0.anchor_of(UNITS[0]).apply(f))
    assert lhs == rhs


def test_axioms_pass_and_itemized_variant_fails():
    assert E0.check_axioms().ok
    bad = builtin("E0_itemized").check_axioms()
    assert not bad.ok
    i, j, defect = bad.failures[0]
    assert (i, j) == (0, 1)
    assert defect.to_text() == "(-2*x1^3 + 2*x1^2*x2)*d2"


def test_jacobiator_values():
    kern = e0_kernel_sections()
    assert E0.jacobiator(UNITS[0], UNITS[1], UNITS[2]) == kern["Xs2"].scale(2)
    assert E0.jacobiator(UNITS[1], UNITS[2], UNITS[3]) == kern["Xs1"].scale(2)
    assert E0.jacobiator(UNITS[0], UNITS[1], UNITS[3]).is_zero()
    assert E0.jacobiator(UNITS[0], UNITS[2], UNITS[3]).is_zero()


def test_check_lie_reports_the_two_bad_triples():
    rep = E0.check_lie()
    assert not rep.is_lie
    assert sorted(t for t, _ in rep.failures) == [(0, 1, 2), (1, 2, 3)]


def test_jacobiator_table_matches_the_nested_brackets():
    # the closed form against [X,[Y,Z]] + cyclic through the Leibniz bracket:
    # every corpus bundle (E0_itemized fails the anchor axioms), the rank-10
    # derived bundle and E0 with seeded kernel-valued bracket modifications
    bundles = [document_algebroid(corpus_document(name)) for name in CORPUS]
    bundles.append(derive_bundle(EConnection(E0, torsionfree_gamma(E0))).derived)
    sampler = Sampler(5)
    kernel = list(e0_kernel_sections().values())
    bundles += [E0.modify_bracket(sampler.kernel_modifier(E0, kernel, max_degree=2)) for _ in range(3)]
    for a in bundles:
        u = a.units
        table = a.jacobiator_table
        assert a.jacobiator_table is table
        assert table == sweep(a.rank, 3, lambda i, j, k: a.jacobiator(u[i], u[j], u[k])), a.name
        # the closed form: every order of every triple, and a repeated index
        for triple in combinations(range(a.rank), 3):
            for t in permutations(triple):
                assert a.jacobiator_gen(*t) == a.jacobiator(*(u[n] for n in t)), (a.name, t)
        assert a.jacobiator_gen(1, 0, 1) == a.jacobiator(u[1], u[0], u[1]) == a.zero_section()
    assert all(a.jacobiator_table for a in bundles[-3:])


@pytest.mark.parametrize("name", CORPUS + ("rederived",))
def test_jacobiator_table_skips_only_triples_without_a_pair_bracket(name):
    # the table visits only the triples with a nonzero pair bracket; the full
    # closed-form sweep must give the same values in the same order, on every
    # corpus bundle (E0_itemized among them) and on the rank-55 bundle that
    # `derive derived_e0 --connection lifted` writes
    if name == "rederived":
        doc = corpus_document("derived_e0")
        a = derive_bundle(document_connection(doc, document_algebroid(doc), "lifted")).derived
        assert a.rank == 55
    else:
        a = document_algebroid(corpus_document(name))
    full = sweep(a.rank, 3, a.jacobiator_gen)
    assert list(a.jacobiator_table.items()) == list(full.items())


def test_one_jacobiator_read_builds_no_table():
    a = document_algebroid(corpus_document("derived_e0"))
    u = a.units
    assert a.jacobiator_gen(2, 0, 5) == a.jacobiator(u[2], u[0], u[5])
    assert "jacobiator_table" not in a.__dict__


def test_sweep_keeps_the_nonzero_values_in_combinations_order():
    assert list(sweep(4, 2, E0.bracket_gen)) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert sweep(4, 3, lambda i, j, k: E0.jacobiator(*(E0.units[t] for t in (i, j, k)))) == dict(E0.check_lie().failures)
    assert E0.unit_section(2) is E0.units[2]
    assert [unpacked_terms(u) for u in E0.units] == [{(i, (0, 0)): 1} for i in range(4)]


def test_kernel_sections_are_anchor_killed_but_not_central():
    kern = e0_kernel_sections()
    for s in kern.values():
        assert E0.anchor_of(s).is_zero()
    # the two kernel sections do not commute with each other
    value = E0.bracket(kern["Xs1"], kern["Xs2"])
    want = kern["Xs1"].scale(2 * X1 * X1 * X2) + kern["Xs2"].scale(2 * X1 * X2 * X2)
    assert value == want


def test_restriction_produces_lie_subbundles():
    for idxs in ((0, 1, 3), (0, 2, 3)):
        sub = subalgebroid_restrict(E0, [UNITS[i] for i in idxs], [E0.gen_names[i] for i in idxs])
        assert hasattr(sub, "check_lie"), "restriction should close"
        assert sub.check_lie().is_lie


def test_restriction_failure_is_reported():
    # X21 alone does not span a subalgebra containing [X21, X21] = 0; use a
    # genuinely non-closing pair instead: X11 and X21 close, X21 and X12 do not
    sub = subalgebroid_restrict(E0, [UNITS[1], UNITS[2]], ["a", "b"], max_degree=4)
    assert not hasattr(sub, "check_lie")
    assert sub.pair == (0, 1)


def test_restriction_rejects_dependent_generators():
    with pytest.raises(AlgebroidError):
        subalgebroid_restrict(E0, [UNITS[0], UNITS[0].scale(2)], ["a", "b"])


def test_morphism_into_e0():
    rep = check_morphism(builtin("E0prime"), E0, e0prime_to_e0_images())
    assert rep.ok
    # the same bundle map is NOT a morphism for the primed (Lie) bracket
    rep2 = check_morphism(builtin("E0prime_lie"), E0, e0prime_to_e0_images())
    assert not rep2.ok


def test_modify_bracket_changes_jacobiator():
    kern = e0_kernel_sections()
    modifier = BracketModifier({(0, 1): kern["Xs1"]})
    modifier.validate(E0)
    modified = E0.modify_bracket(modifier, name="tweaked")
    assert modified.bracket_gen(0, 1) == E0.bracket_gen(0, 1) + kern["Xs1"]
    assert modified.bracket_gen(0, 2) == E0.bracket_gen(0, 2)
    assert not modified.check_lie().is_lie


def test_modifier_rejects_non_kernel_values():
    with pytest.raises(AlgebroidError):
        BracketModifier({(0, 1): UNITS[0]}).validate(E0)


def test_nijenhuis_of_the_catalog_complex_structure():
    j = document_endo(corpus_document("E0"), E0, "J0")
    assert j.is_almost_complex()
    for i in range(4):
        for k in range(i + 1, 4):
            assert nijenhuis(E0, j, UNITS[i], UNITS[k]).is_zero()


def test_matrices_whose_square_is_not_minus_one_are_refused():
    identity = Endomorphism(UNITS)
    # squares to -1 except for an x1 left in one off-diagonal entry
    almost = Endomorphism([-UNITS[1] + UNITS[2].scale(X1), UNITS[0], -UNITS[3], UNITS[2]])
    for j in (identity, almost):
        assert not j.is_almost_complex()
        with pytest.raises(AlgebroidError):
            nijenhuis(E0, j, UNITS[0], UNITS[1])


def test_nijenhuis_table_checks_the_structure_once(monkeypatch):
    calls = []
    check = Endomorphism.is_almost_complex
    monkeypatch.setattr(Endomorphism, "is_almost_complex", lambda self: calls.append(self) or check(self))
    j = document_endo(corpus_document("E0"), E0, "J0")
    assert nijenhuis_table(E0, j) == {}
    assert len(calls) == 1
    # the pairwise function checks on every call
    nijenhuis(E0, j, UNITS[0], UNITS[1])
    assert len(calls) == 2


def test_nijenhuis_table_refuses_a_matrix_whose_square_is_not_minus_one():
    with pytest.raises(AlgebroidError, match="not almost complex"):
        nijenhuis_table(E0, Endomorphism(UNITS))


def test_bundles_and_bundle_maps_without_generators_are_refused():
    # a bundle map is applied through the images of the generators, so it needs one
    with pytest.raises(AlgebroidError):
        Algebroid(E0.base, [], [])
    with pytest.raises(AlgebroidError):
        Endomorphism([])


def test_bundle_maps_of_the_wrong_shape_are_refused():
    morphism = e0prime_to_e0_images()
    for bad in (morphism[:3], [Section(image.coeffs[:3]) for image in morphism]):
        with pytest.raises(AlgebroidError):
            check_morphism(builtin("E0prime"), E0, bad)
    for bad in (UNITS[:3], [Section.zero(3, 2)] * 4):
        with pytest.raises(AlgebroidError):
            Endomorphism(bad)


def test_sums_of_sections_of_different_shapes_are_refused():
    # rank 4 against rank 2 over the plane, rank 3 over R^3, and rank 4 over R^3
    over_r3 = Section([Poly.const(3, 1)] * 4)
    for other in (make_tangent(2).units[0], make_tangent(3).units[0], over_r3):
        for value in (UNITS[3], E0.zero_section()):
            with pytest.raises(AlgebroidError, match="different rank or over different bases"):
                value + other
            with pytest.raises(AlgebroidError, match="different rank or over different bases"):
                value - other
    # vector fields on the plane and on R^3
    with pytest.raises(AlgebroidError, match="different rank or over different bases"):
        E0.anchor[0] + make_tangent(3).anchor[0]
    with pytest.raises(AlgebroidError, match="different rank or over different bases"):
        E0.anchor[0] - make_tangent(3).anchor[0]


def test_courant_defect_of_identity():
    defect = courant_defect(E0, UNITS)
    quartic = X1**4 + X2**4
    assert defect[0].coeffs[0] == quartic
    assert defect[1].coeffs[1] == quartic
    assert defect[0].coeffs[1].is_zero()
    assert defect[1].coeffs[0].is_zero()


def test_courant_paired_space_vanishes_at_origin():
    space = courant_solution_space(E0, max_degree=4, paired_blocks=2)
    assert space.dim == 36
    assert space.all_zero_at_point()
    assert courant_solution_space(E0, max_degree=0, paired_blocks=2).dim == 0


def test_courant_full_space_has_an_invertible_constant_solution():
    space = courant_solution_space(E0, max_degree=0)
    assert space.dim == 1
    assert space.invertible_at_point()
    # built-in anti-diagonal solution: check it really solves the equation
    g = basis_sections(space, E0.nvars)[0]
    defect = courant_defect(E0, g)
    assert all(row.is_zero() for row in defect)


def test_courant_readings_build_no_section(monkeypatch):
    # the space is kept as its nullspace vectors: the dimension and the
    # origin readings come from their tags, and no basis image is wrapped
    wrapped = []
    section = algebroid_module._section
    monkeypatch.setattr(algebroid_module, "_section", lambda *args: wrapped.append(args) or section(*args))
    space = courant_solution_space(E0, max_degree=10)
    assert (space.dim, space.all_zero_at_point(), space.invertible_at_point()) == (336, False, [90])
    assert wrapped == []


def test_courant_block_size_must_divide_rank():
    with pytest.raises(AlgebroidError, match="block size must divide the rank"):
        courant_solution_space(E0, paired_blocks=3)


@pytest.mark.parametrize("block", [0, -1, -2, -4])
def test_courant_block_size_must_be_at_least_one(block):
    # 0 used to divide by zero, and -1, -2 returned an empty space
    with pytest.raises(AlgebroidError, match="block size must be at least 1"):
        courant_solution_space(E0, paired_blocks=block)


def test_infeasibility_certificate():
    kern = list(e0_kernel_sections().values())
    for bound in (2, 3):
        cert = lie_infeasibility_certificate(E0, (0, 1, 2), kern, max_degree=bound)
        assert cert.status == "infeasible"
        assert cert.jacobiator_min_degree == 2
        assert cert.modifier_min_degree == 3
    # a triple with vanishing Jacobiator needs no modification at all
    cert0 = lie_infeasibility_certificate(E0, (0, 1, 3), kern, max_degree=2)
    assert cert0.status == "trivially-feasible"


def test_tangent_bundle_is_lie():
    t3 = make_tangent(3)
    assert t3.check_axioms().ok
    assert t3.check_lie().is_lie
    assert anchor_rank_at(t3, (1, 1, 1)) == 3


def test_anchor_rank_drops_at_origin():
    assert anchor_rank_at(E0, (0, 0)) == 0
    assert anchor_rank_at(E0, (1, 1)) == 2


def test_builtin_names_cover_the_catalog():
    names = builtin_names()
    for expected in ("E0", "E0_itemized", "E0prime", "E0prime_lie", "E0doubleprime", "E00"):
        assert expected in names
    with pytest.raises(AlgebroidError):
        builtin("definitely_not_registered")


def test_builtin_tangent_names_follow_the_cli_rule(monkeypatch):
    assert builtin("tangent3").gen_names == ("T1", "T2", "T3")

    def refuse(n):
        raise AssertionError(f"built tangent{n}")

    monkeypatch.setattr(catalog, "make_tangent", refuse)
    for name in ("tangent(3", "tangent(3)", "tangent100", "tangent0", "tangent03"):
        with pytest.raises(AlgebroidError, match="unknown builtin"):
            builtin(name)
