"""Sampled forms against the checking ``Form`` constructor.

``Sampler.form`` wraps its draws from packed terms without the constructor's
key checks.  ``reference_form`` draws the same way and builds through
``Form``; both must give the same form, term order included, and leave the
random stream in the same state.
"""

from itertools import combinations

import pytest

from algforge.catalog import builtin
from algforge.charclass import product_algebroid
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
