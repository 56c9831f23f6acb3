"""Degree-bounded witness searches as tagged sparse linear systems.

A *column* maps coordinates to exact rationals (int or Fraction).  A system
is a dict keyed by *tag*, whose order is the column order, of columns each
with a *shift*: a packed monomial (``poly._pack``) that multiplies the
column, 0 for none.  That order fixes every answer, since free unknowns are
set to zero and the reduced row echelon form is unique for a given column
order.  Tags and coordinates are ``(slot, packed monomial)`` pairs (a
cofactor, form component or matrix cell, times a monomial), so a shift adds
the packed monomial to each coordinate: ``monomial_multiples`` gives every
column every monomial up to a degree bound as one (column, shift) pair, and
no shifted column is built.  This module owns each system from layout to
answer: ``_rows`` writes one sparse row per coordinate straight from the
shifted columns, keyed by column position (with a target's values in one
more column), ``linsolve.rref`` reduces them once, and solutions and
nullspace vectors are read off the pivot rows as nonzero values in tag
order, each an int where integral and a Fraction otherwise.  A failed
search means no witness up to the degree bound, never a refutation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable

from . import linsolve
from .poly import _pack

Column = dict[Hashable, int | Fraction]
# a column and the packed monomial it is shifted by (0 for none)
Shifted = tuple[Column, int]


def monomials_up_to(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= max_degree, stable order.

    By degree, and within one degree lexicographically descending (the order
    of ``combinations_with_replacement`` over the variables).  Each tuple
    is the previous one's successor: lower the last nonzero exponent before
    the final variable by one and give the next variable that one plus the
    final exponent, so a tuple costs O(nvars), not O(degree).
    """
    if nvars == 0:
        return [()] if max_degree >= 0 else []
    last = nvars - 1
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        exps = [d] + [0] * last
        while True:
            out.append(tuple(exps))
            i = last - 1
            while i >= 0 and not exps[i]:
                i -= 1
            if i < 0:
                break
            exps[i] -= 1
            tail, exps[last] = exps[last], 0
            exps[i + 1] = tail + 1
    return out


def monomial_multiples(columns: dict[Hashable, Column], nvars: int, max_degree: int) -> dict[Hashable, Shifted]:
    """Every column times every monomial mu of degree <= max_degree, tagged (tag, mu).

    The columns of a map that is linear over functions: each multiple is its
    column with the shift mu, in the order tag, then mu.
    """
    monos = [_pack(mu) for mu in monomials_up_to(nvars, max_degree)]
    return {(tag, mu): (col, mu) for tag, col in columns.items() for mu in monos}


def plain(columns: dict[Hashable, Column]) -> dict[Hashable, Shifted]:
    """The columns themselves, each with the zero shift."""
    return {tag: (col, 0) for tag, col in columns.items()}


def _rows(columns: dict[Hashable, Shifted], target: Column) -> list[linsolve.Row]:
    """One sparse row per coordinate, first seen first, its entries keyed by column position.

    The target's values sit in column ``len(columns)``, so its coordinates
    get a row, and come first, even if no column reaches them.
    """
    n = len(columns)
    rows: dict[Hashable, linsolve.Row] = {c: {n: v} for c, v in target.items()}
    for j, (col, mu) in enumerate(columns.values()):
        for coord, value in col.items():
            if mu:
                slot, exps = coord
                coord = slot, exps + mu
            row = rows.get(coord)
            if row is None:
                rows[coord] = {j: value}
            else:
                row[j] = value
    return list(rows.values())


def solve(columns: dict[Hashable, Shifted], target: Column) -> Column | None:
    """Nonzero values of a combination of the columns equal to target, or None."""
    n = len(columns)
    red = linsolve.rref(_rows(columns, target))
    if n in red:  # a pivot in the target column means 0 = 1 somewhere
        return None
    tags = list(columns)
    return {tags[p]: row[n] for p, row in red.items() if n in row}


def nullspace(columns: dict[Hashable, Shifted]) -> list[Column]:
    """Basis of the combinations of the columns that vanish, as nonzero values.

    One vector per free column, which is its last entry: a pivot row has
    entries only at its pivot and at free columns after it.
    """
    tags = list(columns)
    red = linsolve.rref(_rows(columns, {}))
    basis = {c: {} for c in range(len(tags)) if c not in red}
    for p, row in red.items():
        for c, v in row.items():
            if c != p:
                basis[c][tags[p]] = -v
    for c, vec in basis.items():
        vec[tags[c]] = 1
    return list(basis.values())


def reduce(columns: dict[Hashable, Shifted], target: Column, key: Callable) -> Column:
    """The target minus the span of the columns, canonical for the coordinate order.

    Coordinates are sorted by ``key``; the remainder has no entry at any
    pivot coordinate of the columns' reduced echelon form.
    """
    shifted = [{(slot, exps + mu): v for (slot, exps), v in col.items()} if mu else col for col, mu in columns.values()]
    coords = sorted(dict.fromkeys(c for col in (target, *shifted) for c in col), key=key)
    index = {c: i for i, c in enumerate(coords)}
    vec = {index[c]: v for c, v in target.items() if v}
    # one row per column, so the pivots are coordinates
    red = linsolve.rref([{index[c]: v for c, v in col.items()} for col in shifted])
    for piv, row in red.items():
        if piv in vec:
            linsolve._subtract(vec, vec[piv], row)
    return {coords[i]: vec[i] for i in sorted(vec)}

