"""The origin readings of Courant solution spaces, checked against sympy.

``CourantSpace.invertible_at_point`` and ``all_zero_at_point`` read the
constant terms of every basis cometric.  Here each basis cometric is
evaluated at the origin with ``Poly.eval_at`` instead, and sympy takes the
rank of the value, so the check shares no arithmetic with ``linsolve``.
"""

import pytest
import sympy
from courant_basis import basis_sections

from algforge.algebroid import courant_solution_space
from algforge.catalog import corpus_document
from algforge.dsl import document_algebroid

BUNDLES = [
    "E0",
    "E00",
    "E0_itemized",
    "E0doubleprime",
    "E0prime",
    "E0prime_lie",
    "derived_e0",
    "plane_forms",
    "tangent2",
]


def _entries(g):
    """Row a, column b of a basis cometric as polynomials: the e_a-coefficient of the image g[b]."""
    return [list(row) for row in zip(*(image.coeffs for image in g))]


def _check_origin_readings(name, max_degree):
    a = document_algebroid(corpus_document(name))
    origin = (0,) * a.nvars
    for blocks in (None, 2) if a.rank % 2 == 0 else (None,):
        space = courant_solution_space(a, max_degree=max_degree, paired_blocks=blocks)
        values = [sympy.Matrix([[p.eval_at(origin) for p in row] for row in _entries(g)]) for g in basis_sections(space, a.nvars)]
        assert all(v.shape == (a.rank, a.rank) for v in values)
        assert space.invertible_at_point() == [i for i, v in enumerate(values) if v.rank() == a.rank]
        assert space.all_zero_at_point() == all(v.is_zero_matrix for v in values)


@pytest.mark.parametrize("max_degree", [0, 1, 2])
@pytest.mark.parametrize("name", BUNDLES)
def test_origin_readings_match_sympy(name, max_degree):
    _check_origin_readings(name, max_degree)


@pytest.mark.parametrize("max_degree", [4, 7])
def test_origin_readings_match_sympy_at_sweep_degrees(max_degree):
    # the courant degrees of the sweeps workload: all basis cometrics but at
    # most one have an image with no constant term
    _check_origin_readings("E0", max_degree)
