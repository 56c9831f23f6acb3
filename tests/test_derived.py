"""The wedge-square extension driven by a connection."""

from algforge.catalog import builtin, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle, verify_prhelp
from algforge.sampling import Sampler

E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
DERIVED = derive_bundle(TF)


def test_shape_and_names():
    d = DERIVED.derived
    assert d.rank == 10
    assert d.gen_names[:4] == E0.gen_names
    assert d.gen_names[4] == "X11^X21"
    assert DERIVED.wedge_pairs[0] == (0, 1)


def test_wedge_of_matches_the_pairwise_formula():
    # oracle: u∧v has u_i v_j - u_j v_i on e_i∧e_j and nothing on E
    m = E0.rank
    sampler = Sampler(3)
    for _ in range(4):
        u, v = sampler.section(E0), sampler.section(E0)
        w = DERIVED.wedge_of(u, v)
        assert w.rank == DERIVED.derived.rank
        assert DERIVED.e_part(w).is_zero()
        uc, vc = u.coeffs, v.coeffs
        for t, (i, j) in enumerate(DERIVED.wedge_pairs, start=m):
            assert w.coeffs[t] == uc[i] * vc[j] - uc[j] * vc[i]


def test_anchor_of_wedge_generators_vanishes():
    d = DERIVED.derived
    for idx in range(4, 10):
        assert d.anchor[idx].is_zero()


def test_derived_bundle_is_lie():
    d = DERIVED.derived
    assert d.check_axioms().ok
    assert d.check_lie().is_lie


def test_original_bracket_acquires_a_wedge_correction():
    d = DERIVED.derived
    # [X11, X21] keeps its rank-4 part and gains the wedge of the pair
    value = d.bracket_gen(0, 1)
    assert list(value.coeffs[:4]) == list(E0.bracket_gen(0, 1).coeffs)
    assert not value.coeffs[4].is_zero()


def test_half_correction_is_what_makes_jacobi_work():
    plain = derive_bundle(TF, include_half_correction=False).derived
    assert not plain.check_lie().is_lie


def test_lifted_connection_identities():
    rep = verify_prhelp(DERIVED)
    assert rep.ok
    assert len(rep.items) == 5
    for item in rep.items:
        assert item.checked > 0
        assert not item.failures
