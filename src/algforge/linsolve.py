"""Exact linear algebra over the rationals.

Matrices are lists of dense rows.  ``rref`` eliminates on sparse rows,
because the witness systems of this package are wide and well under 1%
nonzero; its result is the unique RREF for the given column order.
``solve``, ``nullspace`` and ``rank`` read off it, so a returned solution is
checkable by substitution and a nullspace basis spans exactly.  ``det`` does
its own dense elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row -= f * other on sparse rows, in place, keeping only nonzeros."""
    for c, v in other.items():
        w = row.get(c, _ZERO) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    # pivot column -> its row, kept fully reduced: no other kept row has an
    # entry in a pivot column
    basis: dict[int, dict[int, Fraction]] = {}
    for dense in rows:
        row = {c: Fraction(v) for c, v in enumerate(dense) if v}
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
    pivots = sorted(basis)
    m = [[_ZERO] * ncols for _ in range(nrows)]
    for r, p in enumerate(pivots):
        for c, v in basis[p].items():
            m[r][c] = v
    return m, pivots


def solve(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> Vector | None:
    """One exact solution of A·x = b with free variables set to 0, or None."""
    if not rows:
        return [] if not any(Fraction(v) for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:  # a pivot in the rhs column means 0 = 1 somewhere
        return None
    x = [_ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def nullspace(rows: Sequence[Sequence[int | Fraction]], ncols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace of A (one vector per free column)."""
    if not rows:
        return [] if not ncols else [
            [_ONE if i == j else _ZERO for i in range(ncols)] for j in range(ncols)
        ]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free_cols:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def det(rows: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Exact determinant by elimination with partial pivoting on nonzeros."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = _ONE
    result = _ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return _ZERO
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        result *= m[c][c]
        inv = _ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result
