"""Exact linear algebra over rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge import linsolve


def test_solve_unique():
    x = linsolve.solve([[2, 1], [1, 3]], [5, 10])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_inconsistent_returns_none():
    assert linsolve.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_underdetermined_picks_a_solution():
    x = linsolve.solve([[1, 1, 0]], [2])
    assert x is not None
    assert sum(a * b for a, b in zip([1, 1, 0], x)) == 2


def test_rank_and_nullspace_dimensions():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert linsolve.rank(rows) == 2
    null = linsolve.nullspace(rows)
    assert len(null) == 1
    vec = null[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_of_empty_system_is_full():
    assert len(linsolve.nullspace([], ncols=3)) == 3


def test_det():
    assert linsolve.det([[1, 2], [3, 4]]) == -2
    assert linsolve.det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert linsolve.det([[1, 1], [1, 1]]) == 0


entries = st.integers(min_value=-5, max_value=5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies_or_refuses(rows, x_true):
    rhs = [sum(a * b for a, b in zip(row, x_true)) for row in rows]
    x = linsolve.solve(rows, rhs)
    # the system is consistent by construction, so a solution must come back
    assert x is not None
    for row, r in zip(rows, rhs):
        assert sum(a * b for a, b in zip(row, x)) == r


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    for vec in linsolve.nullspace(rows):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert linsolve.rank(rows) + len(linsolve.nullspace(rows)) == 4


# ---- oracle: sympy's exact rref, sharing no code with linsolve ----

ratios = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# mostly zero, as the bounded witness systems are (well under 1% nonzero)
sparse_entries = st.integers(0, 7).flatmap(lambda k: ratios if k == 0 else st.just(Fraction(0)))


@st.composite
def matrices(draw):
    """Small dense-or-sparse matrices, or wide ones like the Courant systems."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8)) if draw(st.booleans()) else draw(st.integers(9, 40))
    entry = draw(st.sampled_from([ratios, sparse_entries]))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))


def _sympy(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def _fractions(values):
    return [Fraction(int(v.p), int(v.q)) for v in values]


def _sympy_rref(rows):
    red, pivots = _sympy(rows).rref()
    return [_fractions(red.row(i)) for i in range(red.rows)], list(pivots)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    assert linsolve.rref(rows) == _sympy_rref(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(rows, data):
    rhs = data.draw(st.lists(sparse_entries, min_size=len(rows), max_size=len(rows)))
    ncols = len(rows[0])
    red, pivots = _sympy_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        want = None
    else:
        want = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            want[c] = red[r][ncols]
    assert linsolve.solve(rows, rhs) == want


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(rows):
    want = [_fractions(vec) for vec in _sympy(rows).nullspace()]
    assert linsolve.nullspace(rows) == want
    assert linsolve.rank(rows) == len(rows[0]) - len(want)
