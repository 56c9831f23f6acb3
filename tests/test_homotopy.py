"""The interval construction: product bundle, integration operator, prisms."""

from fractions import Fraction

from algforge.catalog import builtin, torsionfree_gamma
from algforge.charclass import (
    char_form,
    homotopy_identity_report,
    interpolate_connections,
    product_algebroid,
)
from algforge.connection import EConnection, flat_connection
from algforge.forms import Form, Lambda2Ideal, differential
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
P = product_algebroid(E0)
EXT = P.extended


def include_form(omega):
    """View a form on E0 as a t-independent form on the product bundle."""
    comps = {key: Poly(3, {exps + (0,): c for exps, c in p.terms.items()}) for key, p in omega.comps.items()}
    return Form(EXT, omega.degree, comps)


def test_product_shape():
    assert EXT.rank == 5
    assert EXT.nvars == 3
    assert EXT.gen_names[-1] == "et"
    assert EXT.base.var_names[-1] == "t"
    # the interval direction is bracket-inert and anchored to d/dt
    units = [EXT.unit_section(i) for i in range(5)]
    for i in range(4):
        assert EXT.bracket(units[4], units[i]).is_zero()
    assert EXT.anchor[4].comps[2] == Poly.const(3, 1)


def test_include_and_restrict_are_inverse():
    omega = Form.dual(E0, 1).scale(Poly.variable(2, 0))
    lifted = include_form(omega)
    assert P.restrict_form(lifted, 0) == omega
    assert P.restrict_form(lifted, 1) == omega


def test_homotopy_frozen_example():
    # H(t * w(X11)^w(et)) = -(integral of t) w(X11) = -1/2 w(X11)
    t = Poly.variable(3, 2)
    omega = Form(EXT, 2, {(0, 4): t})
    assert P.homotopy(omega) == Form.dual(E0, 0).scale(Fraction(-1, 2))


def test_homotopy_kills_forms_without_interval_content():
    omega = include_form(Form.dual(E0, 0).wedge(Form.dual(E0, 2)))
    assert P.homotopy(omega).is_zero()


def test_prism_identity_on_seeded_forms():
    sampler = Sampler(5)
    for degree in (1, 2, 3):
        for _ in range(5):
            omega = sampler.form(EXT, degree, max_degree=2)
            rep = homotopy_identity_report(P, omega)
            assert rep.prism_residual.is_zero()
            assert rep.ok


def test_square_exchange_on_seeded_one_forms():
    sampler = Sampler(6)
    for _ in range(10):
        omega = sampler.form(EXT, 1, max_degree=2)
        assert homotopy_identity_report(P, omega).square_residual.is_zero()


def test_homotopy_maps_extended_ideal_into_base_ideal():
    ideal = Lambda2Ideal(E0)
    for _, gen in Lambda2Ideal(EXT).nonzero_gens():
        assert ideal.membership(P.homotopy(gen)).is_yes


def test_interpolation_restricts_to_endpoints():
    tf = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
    fl = flat_connection(E0)
    conn_t = interpolate_connections(P, fl, tf)
    for k in (1, 2):
        tilde = char_form(conn_t, k)
        assert P.restrict_form(tilde, 0) == char_form(fl, k)
        assert P.restrict_form(tilde, 1) == char_form(tf, k)
