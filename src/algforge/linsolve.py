"""Exact elimination over the rationals on sparse rows.

A row is a ``dict[int, int | Fraction]`` from column index to value; zero
values are ignored on input and never returned, and returned values are
Fractions.  The witness systems of this package are wide and well under 1%
nonzero, so ``rref`` eliminates on these rows and its result is the unique
RREF for the given column order; ``witness`` lays those systems out and
reads solutions and nullspaces off it.  ``rank`` takes a small dense
matrix; a square one is invertible exactly when its rank is its size.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = dict[int, int | Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _subtract(row: Row, f: Fraction, other: Row) -> None:
    """row -= f * other on sparse rows, in place, keeping only nonzeros."""
    for c, v in other.items():
        w = row.get(c, _ZERO) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def rref(rows: Sequence[Row]) -> dict[int, Row]:
    """Reduced row echelon form as ``{pivot column: reduced row}`` in pivot order."""
    # pivot column -> its row, kept fully reduced: no other kept row has an
    # entry in a pivot column
    basis: dict[int, Row] = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        for p in [c for c in row if c in basis]:
            _subtract(row, row[p], basis[p])
        if not row:
            continue
        pivot = min(row)
        inv = _ONE / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for other in basis.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        basis[pivot] = row
    return dict(sorted(basis.items()))


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of a dense matrix."""
    return len(rref([dict(enumerate(row)) for row in rows]))
