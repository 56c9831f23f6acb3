"""Degree-bounded witness searches as tagged sparse linear systems.

A *column* maps coordinates to exact rationals (int or Fraction); columns
come in a dict keyed by *tag*, whose order is the column order.  That order
fixes every answer, since free unknowns are set to zero and the reduced row
echelon form is unique for a given column order.  Tags are
``(slot, exponent)`` pairs (a cofactor, form component or matrix cell, times
a monomial).  The columns become one sparse
``linsolve`` row per coordinate, keyed by column position; solutions and
nullspace vectors come back as nonzero values in column order.  A failed
search means no witness up to the degree bound, never a refutation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add
from typing import Callable, Hashable

from . import linsolve

Column = dict[Hashable, int | Fraction]


def monomials_up_to(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= max_degree, stable order."""
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return out


def monomial_multiples(columns: dict[Hashable, Column], nvars: int, max_degree: int) -> dict[Hashable, Column]:
    """Every column times every monomial mu of degree <= max_degree, tagged (tag, mu).

    Coordinates are (slot, exponents), so a multiple shifts each exponent
    tuple by mu: the columns of a map that is linear over functions.
    """
    monos = monomials_up_to(nvars, max_degree)
    return {
        (tag, mu): {(slot, tuple(map(add, exps, mu))): v for (slot, exps), v in col.items()}
        for tag, col in columns.items()
        for mu in monos
    }


def _rows(columns: dict[Hashable, Column], target: Column) -> dict[Hashable, linsolve.Row]:
    """One sparse row per coordinate, its entries keyed by column position.

    The target's coordinates get a row too, empty if no column reaches them.
    """
    rows: dict[Hashable, linsolve.Row] = {c: {} for c in target}
    for j, col in enumerate(columns.values()):
        for coord, value in col.items():
            rows.setdefault(coord, {})[j] = value
    return rows


def solve(columns: dict[Hashable, Column], target: Column) -> dict[Hashable, Fraction] | None:
    """Nonzero values of a combination of the columns equal to target, or None."""
    rows = _rows(columns, target)
    x = linsolve.solve(list(rows.values()), [target.get(c, 0) for c in rows], len(columns))
    if x is None:
        return None
    tags = list(columns)
    return {tags[j]: v for j, v in x.items()}


def nullspace(columns: dict[Hashable, Column]) -> list[dict[Hashable, Fraction]]:
    """Basis of the combinations of the columns that vanish, as nonzero values."""
    tags = list(columns)
    return [
        {tags[j]: vec[j] for j in sorted(vec)}
        for vec in linsolve.nullspace(list(_rows(columns, {}).values()), len(tags))
    ]


def reduce(columns: dict[Hashable, Column], target: Column, key: Callable) -> Column:
    """The target minus the span of the columns, canonical for the coordinate order.

    Coordinates are sorted by ``key``; the remainder has no entry at any
    pivot coordinate of the columns' reduced echelon form.
    """
    coords = sorted(dict.fromkeys(c for col in (target, *columns.values()) for c in col), key=key)
    index = {c: i for i, c in enumerate(coords)}
    vec = {index[c]: v for c, v in target.items() if v}
    # one row per column, so the pivots are coordinates
    red = linsolve.rref([{index[c]: v for c, v in col.items()} for col in columns.values()])
    for piv, row in red.items():
        if piv in vec:
            linsolve._subtract(vec, vec[piv], row)
    return {coords[i]: vec[i] for i in sorted(vec)}

