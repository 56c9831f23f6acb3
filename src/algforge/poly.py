"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from monomial exponent tuples to Fraction
coefficients.  Everything is exact: no floats, no rounding, so equality of
polynomials is a reliable identity test.  This is the coefficient ring for
every object in the package (anchors, brackets, connections, forms).

  terms = {(2, 1): Fraction(1), (0, 0): Fraction(3)}   # x1^2*x2 + 3

Zero-coefficient terms are never stored; the zero polynomial has no terms.
Instances are treated as immutable: every operation returns a new Poly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Exponent = tuple[int, ...]

_ZERO = Fraction(0)


class Poly:
    """A sparse polynomial with Fraction coefficients in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # ---- constructors ----

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: int | Fraction) -> Poly:
        value = Fraction(value)
        if not value:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, idx: int) -> Poly:
        """The polynomial consisting of the single variable with index idx."""
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[idx] = 1
        return Poly(nvars, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: int | Fraction = 1) -> Poly:
        return Poly(nvars, {tuple(exps): Fraction(coeff)})

    # ---- predicates / measures ----

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * self.nvars, _ZERO)

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

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    # ---- ring operations ----

    def _check(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, _ZERO) + coeff
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, _ZERO) - coeff
        return Poly(self.nvars, out)

    def __rsub__(self, other: int | Fraction) -> Poly:
        return Poly.const(self.nvars, other) - self

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, _ZERO) + ca * cb
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.const(self.nvars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-ish container; not usable as a dict key

    # ---- calculus ----

    def partial(self, var: int) -> Poly:
        """Exact partial derivative with respect to variable ``var``."""
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = list(exps)
            e[var] = k - 1
            key = tuple(e)
            out[key] = out.get(key, _ZERO) + coeff * k
        return Poly(self.nvars, out)

    def eval_at(self, point: Sequence[int | Fraction]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        vals = [Fraction(v) for v in point]
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, vals):
                if e:
                    term *= v**e
            total += term
        return total

    def subs_scalar(self, var: int, value: int | Fraction) -> Poly:
        """Substitute a rational value for one variable (variable count kept)."""
        value = Fraction(value)
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            c = coeff * (value**k if k else 1)
            if not c:
                continue
            e = list(exps)
            e[var] = 0
            key = tuple(e)
            out[key] = out.get(key, _ZERO) + c
        return Poly(self.nvars, out)

    def integrate_unit(self, var: int) -> Poly:
        """Definite integral over [0, 1] in variable ``var`` (exact).

        Each term c*x^k*rest contributes c/(k+1)*rest; the result no longer
        depends on ``var``.
        """
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            e = list(exps)
            e[var] = 0
            key = tuple(e)
            out[key] = out.get(key, _ZERO) + coeff / (k + 1)
        return Poly(self.nvars, out)

    # ---- variable plumbing ----

    def extend(self, extra: int) -> Poly:
        """Append ``extra`` fresh variables (exponent 0 everywhere)."""
        if extra == 0:
            return self
        pad = (0,) * extra
        return Poly(self.nvars + extra, {e + pad: c for e, c in self.terms.items()})

    def drop_var(self, var: int) -> Poly:
        """Remove a variable the polynomial does not depend on."""
        if self.degree_in(var) > 0:
            raise ValueError("polynomial still depends on the dropped variable")
        out = {}
        for exps, coeff in self.terms.items():
            out[exps[:var] + exps[var + 1 :]] = coeff
        return Poly(self.nvars - 1, out)

    # ---- canonical text ----

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
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


def poly_sum(nvars: int, polys: Iterable[Poly]) -> Poly:
    total = Poly.zero(nvars)
    for p in polys:
        total = total + p
    return total
