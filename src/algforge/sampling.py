"""Seeded random generators for property-style checks.

Every draw consumes the stream of a single ``random.Random`` instance, so a
fixed seed reproduces the exact sampled objects anywhere (the Mersenne
Twister sequence is stable across Python versions and platforms).
Coefficients are small integers to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random
from itertools import combinations

from .algebroid import Algebroid, BracketModifier, Section, _section, _slot_terms
from .connection import EConnection
from .forms import Form, _form
from .poly import Poly, _trusted

_COEFFS = (-3, -2, -1, 1, 2, 3)


class Sampler:
    """Deterministic source of random polynomials, sections, forms, tables."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    # ---- scalars ----

    def coefficient(self) -> int:
        return self.rng.choice(_COEFFS)

    def monomial_exponents(self, nvars: int, max_degree: int) -> tuple[int, ...]:
        total = self.rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(total):
            exps[self.rng.randrange(nvars)] += 1
        return tuple(exps)

    def poly(self, nvars: int, max_degree: int = 2, terms: int = 2) -> Poly:
        """A sum of up to ``terms`` random monomials, added into one term dict in draw order."""
        out: dict = {}
        for _ in range(self.rng.randint(1, terms)):
            exps = self.monomial_exponents(nvars, max_degree)
            total = out.get(exps, 0) + self.coefficient()
            if total:
                out[exps] = total
            else:
                del out[exps]
        return _trusted(nvars, out)

    def maybe_zero_poly(self, nvars: int, max_degree: int = 2, zero_chance: float = 0.5) -> Poly:
        if self.rng.random() < zero_chance:
            return Poly.zero(nvars)
        return self.poly(nvars, max_degree)

    # ---- bundle objects ----

    def section(self, algebroid: Algebroid, max_degree: int = 2) -> Section:
        coeffs = [
            self.maybe_zero_poly(algebroid.nvars, max_degree, zero_chance=0.35)
            for _ in range(algebroid.rank)
        ]
        if all(c.is_zero() for c in coeffs):
            coeffs[self.rng.randrange(algebroid.rank)] = self.poly(algebroid.nvars, max_degree)
        return Section(coeffs)

    def form(self, algebroid: Algebroid, degree: int, max_degree: int = 2) -> Form:
        """A random polynomial on one or two index tuples, or on () for a function.

        The index tuples come from ``combinations`` and are valid, so the form
        is wrapped from its packed terms without the constructor's checks.
        """
        if degree == 0:
            picked = [()]
        else:
            keys = list(combinations(range(algebroid.rank), degree))
            picked = self.rng.sample(keys, k=min(len(keys), self.rng.randint(1, 2)))
        return _form(algebroid, degree, _slot_terms((key, self.poly(algebroid.nvars, max_degree)) for key in picked))

    def connection(self, algebroid: Algebroid, max_degree: int = 1, density: float = 0.3) -> EConnection:
        """A random connection of the algebroid on itself."""
        gamma: dict[tuple[int, int], Section] = {}
        m = algebroid.rank
        n = algebroid.nvars
        for alpha in range(m):
            for b in range(m):
                if self.rng.random() >= density:
                    continue
                # the polynomial is drawn before its slot
                p = self.poly(n, max_degree, terms=1)
                gamma[(alpha, b)] = _section(m, n, _slot_terms([(self.rng.randrange(m), p)]))
        return EConnection(algebroid, gamma, name="sampled")

    def kernel_modifier(
        self, algebroid: Algebroid, kernel_gens: list[Section], max_degree: int = 1
    ) -> BracketModifier:
        """A bracket modifier valued in the span of anchor-kernel sections."""
        values: dict[tuple[int, int], Section] = {}
        m = algebroid.rank
        n = algebroid.nvars
        for i, j in combinations(range(m), 2):
            total = algebroid.zero_section()
            for g in kernel_gens:
                if self.rng.random() < 0.5:
                    total = total + g.scale(self.poly(n, max_degree, terms=1))
            if not total.is_zero():
                values[(i, j)] = total
        if not values:
            pair = (0, 1)
            values[pair] = kernel_gens[self.rng.randrange(len(kernel_gens))].scale(
                self.poly(n, max_degree, terms=1)
            )
        return BracketModifier(values)
