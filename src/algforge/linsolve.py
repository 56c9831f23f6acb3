"""Exact elimination over the rationals on sparse rows.

A row is a ``dict[int, int | Fraction]`` from column index to value; zero
values are ignored on input and never returned, and returned values are in
the ``poly`` normal form: an int where integral, a Fraction otherwise.  The
witness systems of this package are wide and well under 1% nonzero, so
``rref`` eliminates on these rows, and in integers: each row is scaled by
the least common multiple of its denominators, a pivot is cleared by
integer multipliers, and a row is divided by its lead once, at the end.
Its result is the unique RREF for the given column order; ``witness`` lays
those systems out and reads solutions and nullspaces off it.  ``rank``
takes a small dense matrix; a square one is invertible exactly when its
rank is its size.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

Row = dict[int, int | Fraction]


def _subtract(row: Row, f: int | Fraction, other: Row) -> None:
    """row -= f * other on sparse rows, in place, keeping only nonzeros."""
    for c, v in other.items():
        w = row.get(c, 0) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def _clear(row: dict[int, int], p: int, other: dict[int, int]) -> list[int]:
    """Cancel column p of an integer row with ``other``, led at p, in place.

    With g = gcd(lead, f) for f = row[p], the row becomes (lead/g)·row −
    (f/g)·other, which stays integral.  Returns the columns the row gains.
    """
    lead, f = other[p], row[p]
    g = gcd(lead, f)
    scale, f = lead // g, f // g
    if scale != 1:
        for c in row:
            row[c] *= scale
    gained = []
    for c, v in other.items():
        w = row.get(c)
        if w is None:
            row[c] = -f * v
            gained.append(c)
        else:
            w -= f * v
            if w:
                row[c] = w
            else:
                del row[c]
    return gained


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """The row divided by the gcd of its values, signed so that ``lead`` turns positive."""
    if lead == 1:
        return row
    g = 1 if lead == -1 else gcd(*row.values())
    if lead < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def rref(rows: Sequence[Row]) -> dict[int, Row]:
    """Reduced row echelon form as ``{pivot column: reduced row}`` in pivot order."""
    # pivot column -> its row: integral, primitive, with a positive lead
    basis: dict[int, dict[int, int]] = {}
    for given in rows:
        row = dict(given)
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        if type(sum(row.values())) is not int:  # a Fraction among the values
            m = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (m // v.denominator) for c, v in row.items()}
        # clear the pivot columns the row holds, smallest first: a kept row has
        # entries only from its pivot on, so it adds none to the left
        if not basis.keys().isdisjoint(row):
            todo = [c for c in row if c in basis]
            heapify(todo)
            while todo:
                p = heappop(todo)
                if p not in row:  # cancelled on the way, or queued twice
                    continue
                for c in _clear(row, p, basis[p]):
                    if c in basis:
                        heappush(todo, c)
        if row:
            pivot = min(row)
            basis[pivot] = _primitive(row, row[pivot])
    # back substitution, last pivot first, so each row is cleared with rows
    # that are already reduced; then each row is divided by its lead
    done: dict[int, dict[int, int]] = {}
    out: dict[int, Row] = {}
    for pivot in sorted(basis, reverse=True):
        row = basis[pivot]
        if len(row) > 1:
            later = done.keys() & row.keys()
            for p in later:
                _clear(row, p, done[p])
            if later:
                row = _primitive(row, row[pivot])
        done[pivot] = row
        lead = row[pivot]
        out[pivot] = row if lead == 1 else {c: v // lead if v % lead == 0 else Fraction(v, lead) for c, v in row.items()}
    return dict(reversed(out.items()))


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of a dense matrix."""
    return len(rref([dict(enumerate(row)) for row in rows]))
