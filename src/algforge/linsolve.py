"""Exact elimination over the rationals on sparse rows.

A row is a ``dict[int, int | Fraction]`` from column index to value; zero
values are ignored on input and never returned, and returned values are in
the ``poly`` normal form: an int where integral, a Fraction otherwise.  The
witness systems of this package are wide and well under 1% nonzero, so
``rref`` eliminates on these rows and its result is the unique RREF for the
given column order; ``witness`` lays those systems out and reads solutions
and nullspaces off it.  ``rank`` takes a small dense matrix; a square one is
invertible exactly when its rank is its size.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Sequence

from .poly import _fold

Row = dict[int, int | Fraction]


def _subtract(row: Row, f: int | Fraction, other: Row) -> None:
    """row -= f * other on sparse rows, in place, keeping only nonzeros."""
    for c, v in other.items():
        w = row.get(c, 0) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def rref(rows: Sequence[Row]) -> dict[int, Row]:
    """Reduced row echelon form as ``{pivot column: reduced row}`` in pivot order."""
    # pivot column -> its row, led by a 1 at the pivot; a ±1 pivot keeps an
    # integral row in ints
    basis: dict[int, Row] = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        # clear the pivot columns the row holds, smallest first: a kept row has
        # entries only from its pivot on, so it adds none to the left
        todo = [c for c in row if c in basis]
        heapify(todo)
        while todo:
            p = heappop(todo)
            f = row.get(p)
            if f is None:  # cancelled on the way, or queued twice
                continue
            for c, v in basis[p].items():
                w = row.get(c)
                if w is None:
                    row[c] = -f * v
                    if c in basis:
                        heappush(todo, c)
                else:
                    w -= f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        if lead == -1:
            row = {c: -v for c, v in row.items()}
        elif lead != 1:
            inv = 1 / Fraction(lead)
            row = {c: inv * v for c, v in row.items()}
        basis[pivot] = row
    # back substitution, last pivot first, so each row is cleared with rows
    # that are already reduced
    out: dict[int, Row] = {}
    for pivot in sorted(basis, reverse=True):
        row = basis[pivot]
        for p in [c for c in row if c != pivot and c in out]:
            _subtract(row, row[p], out[p])
        out[pivot] = _fold(row)
    return dict(sorted(out.items()))


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of a dense matrix."""
    return len(rref([dict(enumerate(row)) for row in rows]))
