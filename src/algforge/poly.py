"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from monomial exponent tuples to rational
coefficients.  Everything is exact: no floats, no rounding, so equality of
polynomials is a reliable identity test.  This is the coefficient ring for
every object in the package (anchors, brackets, connections, forms).

  terms = {(2, 1): 1, (0, 0): Fraction(3, 2)}   # x1^2*x2 + 3/2

A coefficient is an ``int`` when it is integral and a ``Fraction`` only when
its denominator is not 1, so the integral documents that make up most of
the work multiply machine-word integers rather than Fractions; a result
that comes out as an integral Fraction is folded back to ``int``.
Zero-coefficient terms are never stored; the zero polynomial has no terms.
Instances are immutable: nothing writes ``terms`` after construction, so an
operation may return one of its operands unchanged.  The public constructor
normalises whatever it is given; ring operations build their results in
normal form and wrap them without a second pass (``_trusted``).

Sections, vector fields, forms and the witness systems key their terms by
(slot, packed int) instead: ``_pack`` lays the exponent tuple out in
FIELD_BITS-bit fields, the first variable in the most significant field, so
int order is tuple order, a monomial shift is one int addition, and a
derivative along x_j subtracts the packed unit of field j, which cannot
borrow because that exponent is at least 1.  ``_unpack`` and ``_degree``
read a key back; ``Poly`` keeps its exponent tuples.

The field-width guard.  A packed key is exact while every field stays below
2**FIELD_BITS = 2**32; past that a field would carry into its neighbour and
name a wrong monomial.  Every exponent tuple packed passes the guard in
``_pack``, which refuses an exponent above MAX_EXPONENT = 2**16 - 1 (the
constructors ``Section``, ``VectorField``, ``Form`` and ``scale`` by a Poly
raise it as an ``AlgebroidError``); a document's exponents are at most
``dsl.DEGREE_CAP`` = 64.  A computed exponent is the sum of the exponents
of the input terms multiplied into its term (a derivative only lowers one
by 1): three in a bracket, covariant derivative or Jacobiator term, a few
more in a curvature term, and one per factor of a wedge, whose form degree
stops at the rank, so Tr R^k multiplies k curvature terms with 2k <= rank;
a derived bundle, whose tables are computed curvature terms, nests these
counts once more.  A field reaches 2**32 only when 2**16 input terms at
the guard's limit meet in one product (2**26 at the document cap), far
past any of these counts.  A witness search shifts by monomials up to its
degree bound D, each packed through the same guard, so a D above
MAX_EXPONENT raises OverflowError before any shift; the command line
refuses such a ``--max-degree`` as a usage error.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

Exponent = tuple[int, ...]
Coeff = int | Fraction

_ZERO = Fraction(0)

FIELD_BITS = 32
_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << 16) - 1


def _pack(exps: Exponent) -> int:
    """An exponent tuple as one int, the first variable in the most significant
    field; OverflowError for an exponent above MAX_EXPONENT, the field-width
    guard."""
    key = 0
    for e in exps:
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} exceeds the packed-monomial limit of {MAX_EXPONENT}")
        key = key << FIELD_BITS | e
    return key


def _unpack(key: int, nvars: int) -> Exponent:
    """The exponent tuple of a packed key in ``nvars`` variables."""
    return tuple(key >> shift & _MASK for shift in range(FIELD_BITS * (nvars - 1), -1, -FIELD_BITS))


def _degree(key: int) -> int:
    """The total degree of a packed key: the sum of its fields."""
    total = 0
    while key:
        total += key & _MASK
        key >>= FIELD_BITS
    return total


def _coeff(value: Coeff) -> Coeff:
    """A rational value as a coefficient: an int if integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _fold(terms: dict[Exponent, Coeff]) -> dict[Exponent, Coeff]:
    """Turn the integral Fractions among nonzero values into ints, in place."""
    # a sum over ints stays an int; one Fraction among them makes it a Fraction
    if type(sum(terms.values())) is not int:
        for exps, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[exps] = c.numerator
    return terms


def _merge(a: dict, b: dict, negate: bool = False) -> dict:
    """a + b, or a - b when ``negate``, of two normal-form term dicts as a new one.

    Keys are whatever the dicts share (exponent tuples here, (slot, packed
    monomial) for sections); sums that cancel are dropped and integral
    Fractions folded to int.
    """
    out = a.copy()
    for key, coeff in b.items():
        total = out.get(key)
        if total is None:
            out[key] = -coeff if negate else coeff
        else:
            total = total - coeff if negate else total + coeff
            if not total:
                del out[key]
            elif type(total) is int or total.denominator != 1:
                out[key] = total
            else:
                out[key] = total.numerator
    return out


class Poly:
    """A sparse polynomial with rational coefficients in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Coeff] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # ---- constructors ----

    @staticmethod
    def zero(nvars: int) -> Poly:
        return _trusted(nvars, {})

    @staticmethod
    def const(nvars: int, value: Coeff) -> Poly:
        value = _coeff(value)
        if not value:
            return _trusted(nvars, {})
        return _trusted(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, idx: int) -> Poly:
        """The polynomial consisting of the single variable with index idx."""
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[idx] = 1
        return _trusted(nvars, {tuple(exps): 1})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: Coeff = 1) -> Poly:
        return Poly(nvars, {tuple(exps): coeff})

    # ---- predicates / measures ----

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        """Smallest total degree among the terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    # ---- ring operations ----

    def _operand(self, other: Poly | Coeff) -> Poly:
        """The other operand as a Poly in the same variables."""
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                return Poly.const(self.nvars, other)
            raise TypeError(f"cannot combine a Poly with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")
        return other

    def __add__(self, other: Poly | Coeff) -> Poly:
        other = self._operand(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _trusted(self.nvars, _merge(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other: Poly | Coeff) -> Poly:
        other = self._operand(other)
        if not other.terms:
            return self
        return _trusted(self.nvars, _merge(self.terms, other.terms, negate=True))

    def __rsub__(self, other: Coeff) -> Poly:
        return Poly.const(self.nvars, other) - self

    def __neg__(self) -> Poly:
        return _trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = _coeff(other)
            if not other:
                return _trusted(self.nvars, {})
            return _trusted(self.nvars, _fold({e: c * other for e, c in self.terms.items()}))
        a, b = self.terms, self._operand(other).terms
        if not a or not b:
            return _trusted(self.nvars, {})
        out: dict[Exponent, Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                total = out.get(key)
                out[key] = ca * cb if total is None else total + ca * cb
        if len(a) > 1 and len(b) > 1:
            # only sums of two or more products can cancel
            out = {e: c for e, c in out.items() if c}
        return _trusted(self.nvars, _fold(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        # the lowest set bit's power starts the product, and a square is taken only below the top bit
        result, base = None if exponent else Poly.const(self.nvars, 1), self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.nvars, other)
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # equality is by terms; Polys are not used as dict keys

    # ---- calculus ----

    def eval_at(self, point: Sequence[Coeff]) -> Fraction:
        """Exact evaluation at a rational point, as a Fraction."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        if not self.terms:
            return _ZERO
        vals = [_coeff(v) for v in point]
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, vals):
                if e:
                    term *= v**e
            total += term
        return Fraction(total)

    # ---- canonical text ----

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """Terms in graded-lex order: higher total degree first, lex ties."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def to_text(self, var_names: Sequence[str]) -> str:
        """Canonical, re-parseable rendering (graded-lex term order)."""
        if not self.terms:
            return "0"
        if len(var_names) != self.nvars:
            raise ValueError("wrong number of variable names")
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(var_names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        names = [f"x{i + 1}" for i in range(self.nvars)]
        return f"Poly({self.to_text(names)})"


def _trusted(nvars: int, terms: dict[Exponent, Coeff]) -> Poly:
    """Wrap terms already in normal form: nonzero coefficients keyed by nvars-tuples.

    A coefficient in normal form is an int, or a Fraction whose denominator
    is not 1.
    """
    p = object.__new__(Poly)
    p.nvars = nvars
    p.terms = terms
    return p

