"""Exact linear algebra over rationals.

``rref`` and ``rank`` are tested on ``linsolve``; solutions and nullspaces
are read back by ``witness``, here on integer tags: column j has tag j and
row r is coordinate r.  ``reference_rref`` is an online elimination that
keeps every pivot row fully reduced as it goes; ``linsolve.rref`` must give
the same pivots and values.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge import linsolve, witness
from algforge.algebroid import courant_solution_space
from algforge.catalog import builtin


def _sparse(rows):
    """Dense rows as the sparse rows linsolve takes."""
    return [{c: Fraction(v) for c, v in enumerate(row) if v} for row in rows]


def _columns(rows, ncols):
    """Dense rows as witness columns: column j has tag j, row r is coordinate r."""
    return witness.plain({j: {r: Fraction(row[j]) for r, row in enumerate(rows) if row[j]} for j in range(ncols)})


def _solve(rows, rhs, ncols):
    return witness.solve(_columns(rows, ncols), dict(enumerate(rhs)))


def _nullspace(rows, ncols):
    return witness.nullspace(_columns(rows, ncols))


def _dot(row, x):
    return sum(row[c] * v for c, v in x.items())


def test_solve_unique():
    x = _solve([[2, 1], [1, 3]], [5, 10], 2)
    assert x == {0: Fraction(1), 1: Fraction(3)}


def test_solve_inconsistent_returns_none():
    assert _solve([[1, 1], [1, 1]], [0, 1], 2) is None


def test_solve_underdetermined_picks_a_solution():
    x = _solve([[1, 1, 0]], [2], 3)
    assert x is not None
    assert _dot([1, 1, 0], x) == 2


def test_rank_and_nullspace_dimensions():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert linsolve.rank(rows) == 2
    null = _nullspace(rows, 3)
    assert len(null) == 1
    vec = null[0]
    for row in rows:
        assert _dot(row, vec) == 0


def test_nullspace_of_empty_system_is_full():
    assert _nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]


entries = st.integers(min_value=-5, max_value=5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies_or_refuses(rows, x_true):
    rhs = [sum(a * b for a, b in zip(row, x_true)) for row in rows]
    x = _solve(rows, rhs, 3)
    # the system is consistent by construction, so a solution must come back
    assert x is not None
    for row, r in zip(rows, rhs):
        assert _dot(row, x) == r


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    for vec in _nullspace(rows, 4):
        for row in rows:
            assert _dot(row, vec) == 0
    assert linsolve.rank(rows) + len(_nullspace(rows, 4)) == 4


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


def _fraction(v):
    return Fraction(int(v.p), int(v.q))


def _sparse_vector(values):
    """A sympy row or column as a sparse row of Fractions."""
    return {c: _fraction(v) for c, v in enumerate(values) if v}


def _sympy_rref(rows):
    """sympy's RREF as ``[(pivot, sparse reduced row)]`` in pivot order."""
    red, pivots = _sympy(rows).rref()
    return [(c, _sparse_vector(red.row(r))) for r, c in enumerate(pivots)]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    assert list(linsolve.rref(_sparse(rows)).items()) == _sympy_rref(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(rows, data):
    rhs = data.draw(st.lists(sparse_entries, min_size=len(rows), max_size=len(rows)))
    ncols = len(rows[0])
    red = dict(_sympy_rref([row + [b] for row, b in zip(rows, rhs)]))
    if ncols in red:
        want = None
    else:
        want = {c: row[ncols] for c, row in red.items() if ncols in row}
    assert _solve(rows, rhs, ncols) == want


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(rows):
    want = [_sparse_vector(vec) for vec in _sympy(rows).nullspace()]
    assert _nullspace(rows, len(rows[0])) == want
    assert linsolve.rank(rows) == len(rows[0]) - len(want)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_sympy(rows):
    assert linsolve.rank(rows) == _sympy(rows).rank()


# ---- oracle: online elimination, every kept row reduced at each new pivot ----


def _reference_subtract(row, f, other):
    """row -= f * other on sparse rows, in place, keeping only nonzeros."""
    for c, v in other.items():
        w = row.get(c, Fraction(0)) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def reference_rref(rows):
    """The RREF as ``{pivot column: reduced row}`` in pivot order, in Fractions."""
    basis = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        for p in [c for c in row if c in basis]:
            _reference_subtract(row, row[p], basis[p])
        if not row:
            continue
        pivot = min(row)
        inv = Fraction(1) / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for other in basis.values():
            if pivot in other:
                _reference_subtract(other, other[pivot], row)
        basis[pivot] = row
    return dict(sorted(basis.items()))


def _normal_form(red):
    """Every value an int where integral and a Fraction otherwise, as ``poly`` keeps them."""
    return all(type(v) is int or v.denominator != 1 for row in red.values() for v in row.values())


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_reference(rows):
    red = linsolve.rref(_sparse(rows))
    assert list(red.items()) == list(reference_rref(_sparse(rows)).items())
    assert _normal_form(red)


def test_integral_rows_with_unit_pivots_stay_ints():
    # L·U for a unit lower triangular L and an echelon U led by 1, -1 and 1,
    # then the sum of the first two rows, which reduces to zero
    rows = [
        {0: 1, 1: 2, 3: 3, 4: 1},
        {0: 2, 1: 3, 2: 4, 3: 6, 4: 4},
        {0: -3, 1: -7, 2: 4, 3: -8, 4: -4},
        {0: 3, 1: 5, 2: 4, 3: 9, 4: 5},
    ]
    red = linsolve.rref(rows)
    assert list(red) == [0, 1, 3]
    assert list(red.items()) == list(reference_rref(rows).items())
    assert all(type(v) is int for row in red.values() for v in row.values())


@pytest.mark.parametrize("blocks", [None, 2])
@pytest.mark.parametrize("max_degree", [4, 7, 10])
def test_rref_matches_reference_on_courant_systems(monkeypatch, max_degree, blocks):
    # the systems the courant sweep solves, captured where witness hands them over
    rref, systems = linsolve.rref, []

    def capture(rows):
        systems.append([dict(row) for row in rows])
        return rref(rows)

    monkeypatch.setattr(linsolve, "rref", capture)
    courant_solution_space(builtin("E0"), max_degree=max_degree, paired_blocks=blocks)
    assert len(systems) == 1
    red = rref(systems[0])
    assert list(red.items()) == list(reference_rref(systems[0]).items())
    assert _normal_form(red)


# ---- the integer pass: scaled rows, gcd-reduced multipliers, one division by the lead ----

F = Fraction
INTEGER_CASES = {
    # leads 2, 3 and -2, whose back substitution leaves Fractions
    "pivots-2-3-minus-2": [
        {0: 2, 1: 1, 3: 1},
        {1: 3, 2: 1, 3: 2},
        {2: -2, 3: 1, 4: 1},
        {0: 4, 1: 6, 2: 2, 4: 6},
    ],
    "mixed-denominators": [
        {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)},
        {0: F(2, 5), 1: 1, 3: F(3, 4)},
        {1: F(5, 6), 2: F(7, 10), 3: -2},
    ],
    "integral-fractions": [{0: F(4, 2), 1: F(6, 3)}, {0: F(2), 1: 3, 2: F(-8, 4)}, {0: F(4, 2), 2: F(3, 2)}],
    "all-zero-row": [{0: 0, 1: 0}, {}, {0: 2, 1: 4}, {1: F(0)}, {1: 3, 2: 0}],
    # the third row is 2·first + second and cancels once both pivots are
    # cleared; the fourth is −3·first
    "cancels-to-zero": [{0: 2, 1: 1}, {1: 3, 2: 1}, {0: 4, 1: 5, 2: 1}, {0: -6, 1: -3}],
}


def _typed(row):
    return sorted((c, type(v), v) for c, v in row.items())


def _normal(value):
    """A Fraction as the ``poly`` normal form: an int where integral."""
    return value.numerator if value.denominator == 1 else value


@pytest.mark.parametrize("rows", INTEGER_CASES.values(), ids=INTEGER_CASES)
def test_integer_pass_matches_reference_value_for_value_and_type_for_type(rows):
    given = [dict(row) for row in rows]
    red = linsolve.rref(rows)
    want = reference_rref(rows)
    assert list(red) == list(want)
    assert [_typed(row) for row in red.values()] == [
        _typed({c: _normal(v) for c, v in row.items()}) for row in want.values()
    ]
    assert rows == given  # the input rows are left alone


def test_integer_pass_cases_reach_rational_values_and_a_cancelled_row():
    red = linsolve.rref(INTEGER_CASES["pivots-2-3-minus-2"])
    assert any(type(v) is Fraction for row in red.values() for v in row.values())
    # the last two rows cancel, so two of the four make pivots
    assert len(linsolve.rref(INTEGER_CASES["cancels-to-zero"])) == 2


def test_cleared_rows_use_gcd_reduced_multipliers():
    # lead 6 against f = 4: g = 2, so the row becomes 3·row − 2·other
    row = {0: 4, 1: 1, 2: 5}
    assert linsolve._clear(row, 0, {0: 6, 1: 1, 3: 1}) == [3]
    assert row == {1: 1, 2: 15, 3: -2}


def test_kept_rows_are_primitive_with_a_positive_lead():
    assert linsolve._primitive({0: -4, 2: 6, 5: -10}, -4) == {0: 2, 2: -3, 5: 5}
    assert linsolve._primitive({0: -1, 1: 3}, -1) == {0: 1, 1: -3}
    assert linsolve._primitive({1: 6, 2: 9}, 6) == {1: 2, 2: 3}


@pytest.mark.parametrize("rows", INTEGER_CASES.values(), ids=INTEGER_CASES)
def test_every_row_cleared_against_is_primitive_with_a_positive_lead(monkeypatch, rows):
    seen, clear = [], linsolve._clear

    def check(row, p, other):
        seen.append(dict(other))
        return clear(row, p, other)

    monkeypatch.setattr(linsolve, "_clear", check)
    linsolve.rref(rows)
    assert seen
    assert all(gcd(*other.values()) == 1 and other[min(other)] > 0 for other in seen)
