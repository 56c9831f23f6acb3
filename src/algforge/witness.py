"""Degree-bounded witness searches as tagged sparse linear systems.

A *column* maps coordinates to Fractions; columns come in a dict keyed by
*tag*, whose order is the column order.  That order fixes every answer, since
free unknowns are set to zero and the reduced row echelon form is unique for
a given column order.  Tags are ``(slot, exponent)`` pairs (a cofactor, form
component or matrix cell, times a monomial); ``polys`` reads values back as
one polynomial per slot.  A failed search means no witness up to the degree
bound, never a refutation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Hashable

from . import linsolve
from .poly import Poly

Column = dict[Hashable, Fraction]


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


def _dense(vector: Column, index: dict) -> list[Fraction]:
    out = [Fraction(0)] * len(index)
    for coord, value in vector.items():
        out[index[coord]] = value
    return out


def _coords(*vectors: Column) -> list:
    """Every coordinate of the vectors, in order of first appearance."""
    return list(dict.fromkeys(c for v in vectors for c in v))


def _rows(columns: dict[Hashable, Column], coords: list) -> list:
    """The dense matrix with one row per coordinate and one column per tag."""
    index = {c: i for i, c in enumerate(coords)}
    return list(zip(*(_dense(col, index) for col in columns.values())))


def solve(columns: dict[Hashable, Column], target: Column) -> dict[Hashable, Fraction] | None:
    """Nonzero values of a combination of the columns equal to target, or None."""
    coords = _coords(*columns.values(), target)
    x = linsolve.solve(_rows(columns, coords), [target.get(c, Fraction(0)) for c in coords])
    if x is None:
        return None
    return {tag: v for tag, v in zip(columns, x) if v}


def nullspace(columns: dict[Hashable, Column]) -> list[dict[Hashable, Fraction]]:
    """Basis of the combinations of the columns that vanish, as nonzero values."""
    rows = _rows(columns, _coords(*columns.values()))
    return [
        {tag: v for tag, v in zip(columns, vec) if v}
        for vec in linsolve.nullspace(rows, ncols=len(columns))
    ]


def reduce(columns: dict[Hashable, Column], target: Column, key: Callable) -> Column:
    """The target minus the span of the columns, canonical for the coordinate order.

    Coordinates are sorted by ``key``; the remainder has no entry at any
    pivot coordinate of the columns' reduced echelon form.
    """
    coords = sorted(_coords(target, *columns.values()), key=key)
    index = {c: i for i, c in enumerate(coords)}
    vec = _dense(target, index)
    # one row per column, so the pivots are coordinates
    reduced, pivots = linsolve.rref([_dense(col, index) for col in columns.values()])
    for row, piv in zip(reduced, pivots):
        factor = vec[piv]
        if factor:
            vec = [a - factor * b for a, b in zip(vec, row)]
    return {c: v for c, v in zip(coords, vec) if v}


def polys(values: dict[tuple[Hashable, tuple[int, ...]], Fraction], nvars: int) -> dict[Hashable, Poly]:
    """Group ``{(slot, exponent): value}`` into one polynomial per slot."""
    terms: dict[Hashable, dict[tuple[int, ...], Fraction]] = {}
    for (slot, exps), v in values.items():
        terms.setdefault(slot, {})[exps] = v
    return {slot: Poly(nvars, t) for slot, t in terms.items()}
