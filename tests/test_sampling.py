"""Sampled forms against the checking ``Form`` constructor.

``Sampler.form`` wraps its draws from packed terms without the constructor's
key checks.  ``reference_form`` draws the same way and builds through
``Form``; both must give the same form, term order included, and leave the
random stream in the same state.
"""

import hashlib
from itertools import combinations

import pytest

from algforge.catalog import builtin, corpus_file
from algforge.charclass import product_algebroid
from algforge.dsl import document_algebroid, parse
from algforge.forms import Form
from algforge.sampling import Sampler

E0 = builtin("E0")
BUNDLES = {"E0": E0, "product": product_algebroid(E0).extended}


def reference_form(sampler, algebroid, degree, max_degree=2):
    """A sampled form built by the checking constructor, from the same draws."""
    if degree == 0:
        return Form.function(algebroid, sampler.poly(algebroid.nvars, max_degree))
    keys = list(combinations(range(algebroid.rank), degree))
    picked = sampler.rng.sample(keys, k=min(len(keys), sampler.rng.randint(1, 2)))
    comps = {key: sampler.poly(algebroid.nvars, max_degree) for key in picked}
    return Form(algebroid, degree, comps)


@pytest.mark.parametrize("name", BUNDLES)
def test_sampled_forms_equal_the_checked_construction(name):
    a = BUNDLES[name]
    for seed in range(10):
        got, want = Sampler(seed), Sampler(seed)
        for degree in range(5):
            for max_degree in (0, 2):
                form = got.form(a, degree, max_degree)
                ref = reference_form(want, a, degree, max_degree)
                assert type(form) is Form
                assert form == ref
                assert list(form.terms.items()) == list(ref.terms.items())
                assert got.rng.getstate() == want.rng.getstate()


def draws(a, seed):
    """Every term of a run of seeded draws, in draw and term order: connections, forms, sections."""
    s = Sampler(seed)
    out = []
    for density in (0.3, 1.0):
        conn = s.connection(a, max_degree=1, density=density)
        out.append([(key, list(value.terms.items())) for key, value in conn.gamma.items()])
    for degree in range(4):
        out.append(list(s.form(a, degree).terms.items()))
    out.extend(list(s.section(a, max_degree).terms.items()) for max_degree in (0, 1, 2))
    return out


DRAW_BUNDLES = {"E0": E0, "derived_e0": document_algebroid(parse(corpus_file("derived_e0").read_text()))}
# sha256 of the repr of ``draws``, pinned before the samplers took the sparse route
DRAW_DIGESTS = {
    ("E0", 0): "31692b63042f062d7af1af7a3ae33a309ad249595fbd40e8f72e587d16ea1034",
    ("E0", 1): "a2885fe5d0db6a09b2f55252ab0a856f380cd7b5bc5757d21e6edbdeb3a678de",
    ("E0", 5): "f0a476e71d10f7484abf48f5cb1ab6464d59cf2caa1c3e271c47327c425cfbe3",
    ("E0", 7): "538ac3664d2661c4af5108d7351a0617e50380922bea3f95084fdaf4854e9dff",
    ("derived_e0", 0): "24711e4e4337bb2fba92e4d1669d1ff92170f4fbce3b142b1778fed1cbd6081d",
    ("derived_e0", 1): "1463009dd8c104cc0045537f68631be1b076353ebeafc03ff0031e80a358e93e",
    ("derived_e0", 5): "8485a1b0a0db9e7b2b62cfd42f05d219674f9be4740732284c500496d8765da3",
    ("derived_e0", 7): "bfe1e9ca3adfa3032f8173adf2aa05039460f8c5afbd20998ab709c7ad0c9c95",
}


@pytest.mark.parametrize("name", DRAW_BUNDLES)
@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_sampled_draws_do_not_move(name, seed):
    digest = hashlib.sha256(repr(draws(DRAW_BUNDLES[name], seed)).encode()).hexdigest()
    assert digest == DRAW_DIGESTS[name, seed]
