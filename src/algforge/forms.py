"""Exterior forms on an algebroid's dual generator basis.

A k-form stores polynomial components on strictly increasing k-tuples of
generator indices.  The differential follows the alternating Cartan sum, so
when the bracket fails the Jacobi identity the square of d is not zero; its
failure on dual generators spans an exterior ideal, and the interesting
closedness questions are posed modulo that ideal.

Membership in the ideal is decided two ways.  When every ideal generator is a
single monomial on a single index tuple — as happens for the rank-4 flagship
example — membership decouples tuple by tuple into monomial-ideal division,
which is exact at every degree.  Otherwise a degree-bounded linear solve
provides witnesses, and a failed search is reported as such rather than as a
refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import witness
from .algebroid import Algebroid, AlgebroidError, Section
from .poly import Poly


def _merge_sign(s: tuple[int, ...], t: tuple[int, ...]):
    """Sign and result of sorting the concatenation of two sorted tuples.

    Returns (0, None) when the tuples share an index.
    """
    out = []
    i = j = 0
    sign = 1
    while i < len(s) and j < len(t):
        if s[i] == t[j]:
            return 0, None
        if s[i] < t[j]:
            out.append(s[i])
            i += 1
        else:
            out.append(t[j])
            j += 1
            if (len(s) - i) % 2:
                sign = -sign
    out.extend(s[i:])
    out.extend(t[j:])
    return sign, tuple(out)


def _poly_det(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    nvars = rows[0][0].nvars if n else 0
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    out = Poly.zero(nvars)
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero():
            continue
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = entry * _poly_det(minor)
        out = out + term if col % 2 == 0 else out - term
    return out


class Form:
    """Alternating polynomial form of fixed degree on the generator basis."""

    __slots__ = ("algebroid", "degree", "comps")

    def __init__(self, algebroid: Algebroid, degree: int, comps: dict[tuple[int, ...], Poly]):
        if degree < 0:
            raise AlgebroidError("form degree must be nonnegative")
        self.algebroid = algebroid
        self.degree = degree
        clean: dict[tuple[int, ...], Poly] = {}
        for key, value in comps.items():
            key = tuple(key)
            if len(key) != degree:
                raise AlgebroidError("component key has the wrong length")
            if any(not 0 <= i < algebroid.rank for i in key):
                raise AlgebroidError("component index out of range")
            if list(key) != sorted(set(key)):
                raise AlgebroidError("component keys must be strictly increasing")
            if not value.is_zero():
                clean[key] = value
        self.comps = clean

    # ---- constructors ----

    @staticmethod
    def zero(algebroid: Algebroid, degree: int) -> Form:
        return Form(algebroid, degree, {})

    @staticmethod
    def function(algebroid: Algebroid, f: Poly | int | Fraction) -> Form:
        if not isinstance(f, Poly):
            f = Poly.const(algebroid.nvars, f)
        return Form(algebroid, 0, {(): f})

    @staticmethod
    def dual(algebroid: Algebroid, index: int) -> Form:
        """The dual basis 1-form of a generator."""
        return Form(algebroid, 1, {(index,): Poly.const(algebroid.nvars, 1)})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, key: tuple[int, ...]) -> Poly:
        return self.comps.get(tuple(key), Poly.zero(self.algebroid.nvars))

    def sorted_comps(self):
        return sorted(self.comps.items())

    def __add__(self, other: Form) -> Form:
        self._check_compatible(other)
        comps = dict(self.comps)
        for key, value in other.comps.items():
            comps[key] = comps.get(key, Poly.zero(self.algebroid.nvars)) + value
        return Form(self.algebroid, self.degree, comps)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.algebroid, self.degree, {k: -v for k, v in self.comps.items()})

    def scale(self, f: Poly | int | Fraction) -> Form:
        return Form(self.algebroid, self.degree, {k: v * f for k, v in self.comps.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def _check_compatible(self, other: Form) -> None:
        if self.algebroid is not other.algebroid and self.algebroid.gen_names != other.algebroid.gen_names:
            raise AlgebroidError("forms live on different algebroids")
        if self.degree != other.degree:
            raise AlgebroidError("forms have different degrees")

    # ---- evaluation ----

    def eval_sections(self, *sections: Section) -> Poly:
        """Full alternating evaluation on polynomial sections."""
        if len(sections) != self.degree:
            raise AlgebroidError("wrong number of arguments for this degree")
        if self.degree == 0:
            return self.component(())
        out = Poly.zero(self.algebroid.nvars)
        for key, coeff in self.comps.items():
            rows = [[s.coeffs[i] for i in key] for s in sections]
            out = out + coeff * _poly_det(rows)
        return out

    def eval_section_then_gens(self, s: Section, rest: tuple[int, ...]) -> Poly:
        """Evaluate with one polynomial section followed by unit generators."""
        out = Poly.zero(self.algebroid.nvars)
        for t, coeff in enumerate(s.coeffs):
            if coeff.is_zero() or t in rest:
                continue
            pos = sum(1 for r in rest if r < t)
            merged = tuple(sorted(rest + (t,)))
            value = self.comps.get(merged)
            if value is None:
                continue
            signed = value if pos % 2 == 0 else -value
            out = out + coeff * signed
        return out

    # ---- wedge ----

    def wedge(self, other: Form) -> Form:
        if self.algebroid is not other.algebroid and self.algebroid.gen_names != other.algebroid.gen_names:
            raise AlgebroidError("forms live on different algebroids")
        comps: dict[tuple[int, ...], Poly] = {}
        zero = Poly.zero(self.algebroid.nvars)
        for s, a in self.comps.items():
            for t, b in other.comps.items():
                sign, merged = _merge_sign(s, t)
                if sign == 0:
                    continue
                term = a * b
                if sign < 0:
                    term = -term
                comps[merged] = comps.get(merged, zero) + term
        return Form(self.algebroid, self.degree + other.degree, comps)

    # ---- text ----

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        names = self.algebroid.gen_names
        vnames = self.algebroid.base.var_names
        pieces = []
        for key, coeff in self.sorted_comps():
            basis = "^".join(f"w({names[i]})" for i in key)
            text = coeff.to_text(vnames)
            if not key:
                pieces.append(text)
            elif text == "1":
                pieces.append(basis)
            elif text == "-1":
                pieces.append(f"-{basis}")
            else:
                body = f"({text})" if (" " in text or text.startswith("-")) else text
                pieces.append(f"{body} * {basis}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"Form({self.to_text()})"


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def differential(omega: Form) -> Form:
    """Alternating sum of anchored derivatives and bracket insertions.

    d ω(X_0,…,X_k) = Σ_i (−1)^i ρ(X_i) ω(…X̂_i…)
                     + Σ_{i<j} (−1)^{i+j} ω([X_i,X_j], …X̂_iX̂_j…)
    evaluated on generator tuples.
    """
    a = omega.algebroid
    k = omega.degree
    m = a.rank
    if k >= m:
        return Form.zero(a, k + 1)
    comps: dict[tuple[int, ...], Poly] = {}
    for u in combinations(range(m), k + 1):
        total = Poly.zero(a.nvars)
        for i in range(k + 1):
            reduced = u[:i] + u[i + 1 :]
            value = omega.comps.get(reduced)
            if value is not None:
                term = a.anchor[u[i]].apply(value)
                total = total + term if i % 2 == 0 else total - term
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                reduced = tuple(x for t, x in enumerate(u) if t != i and t != j)
                term = omega.eval_section_then_gens(a.bracket_gen(u[i], u[j]), reduced)
                if (i + j) % 2 == 0:
                    total = total + term
                else:
                    total = total - term
        if not total.is_zero():
            comps[u] = total
    return Form(a, k + 1, comps)


def d_squared(omega: Form) -> Form:
    return differential(differential(omega))


def pullback(algebroid: Algebroid, base_form: Form) -> Form:
    """Precompose a coordinate-frame form with the anchor.

    The input is a form over a rank-n algebroid whose generators stand for
    the n coordinate fields of the base (the tangent builtin fits); the
    output evaluates it on anchor images.
    """
    n = algebroid.nvars
    if base_form.algebroid.rank != n:
        raise AlgebroidError("base form rank must equal the number of base variables")
    k = base_form.degree
    if k == 0:
        return Form.function(algebroid, base_form.component(()))
    comps: dict[tuple[int, ...], Poly] = {}
    for u in combinations(range(algebroid.rank), k):
        total = Poly.zero(n)
        for key, coeff in base_form.comps.items():
            rows = [[algebroid.anchor[g].comps[j] for j in key] for g in u]
            total = total + coeff * _poly_det(rows)
        if not total.is_zero():
            comps[u] = total
    return Form(algebroid, k, comps)


# ---------------------------------------------------------------------------
# the exterior ideal measuring d²
# ---------------------------------------------------------------------------


MEMBER = "member"
NOT_MEMBER = "not-member"
NO_WITNESS = "no-witness"


@dataclass
class IdealDecision:
    status: str
    cofactors: dict[int, Form] = field(default_factory=dict)
    note: str = ""

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER


class Lambda2Ideal:
    """Exterior ideal generated by d² of the dual generator basis."""

    def __init__(self, algebroid: Algebroid):
        self.algebroid = algebroid
        self.gens3 = [d_squared(Form.dual(algebroid, i)) for i in range(algebroid.rank)]

    def nonzero_gens(self) -> list[tuple[int, Form]]:
        return [(a, g) for a, g in enumerate(self.gens3) if not g.is_zero()]

    @property
    def is_trivial(self) -> bool:
        return not self.nonzero_gens()

    @property
    def fast_path(self) -> bool:
        """True when every generator is one monomial on one index tuple."""
        for _, g in self.nonzero_gens():
            if len(g.comps) != 1:
                return False
            (coeff,) = g.comps.values()
            if len(coeff.terms) != 1:
                return False
        return True

    # ---- membership ----

    def membership(self, omega: Form, max_degree: int = 4) -> IdealDecision:
        if omega.is_zero():
            return IdealDecision(MEMBER, {})
        if omega.degree <= 2:
            return IdealDecision(
                NOT_MEMBER, note=f"nonzero {omega.degree}-form; the ideal starts in degree 3"
            )
        if self.is_trivial:
            return IdealDecision(NOT_MEMBER, note="ideal is zero")
        if self.fast_path:
            remainder, values = self._divide(omega)
            if remainder:
                ((u, _), _) = next(iter(remainder.items()))
                names = "^".join(f"w({self.algebroid.gen_names[i]})" for i in u)
                return IdealDecision(
                    NOT_MEMBER, note=f"component on {names} has terms outside the generator monomials"
                )
        else:
            values = witness.solve(self._columns(omega.degree, max_degree), _column(omega))
            if values is None:
                return IdealDecision(NO_WITNESS, note=f"no witness with coefficient degree <= {max_degree}")
        return IdealDecision(MEMBER, self._cofactors(omega.degree, values))

    def _divide(self, omega: Form) -> tuple[dict, dict]:
        """Fast-path division: (remainder column, cofactor values tagged as in ``_columns``).

        A term on u goes to the first generator on t within u whose monomial
        divides it, as a cofactor term on s = u - t; the rest, the canonical
        remainder, is what no generator divides.
        """
        remainder, values = {}, {}
        for u, coeff in omega.comps.items():
            divisors = []
            for g_idx, g in self.nonzero_gens():
                ((t, mono),) = g.comps.items()
                if set(t) <= set(u):
                    s = tuple(sorted(set(u) - set(t)))
                    ((g_exps, g_scalar),) = mono.terms.items()
                    divisors.append((g_idx, s, _merge_sign(s, t)[0], g_exps, g_scalar))
            for exps, c in coeff.terms.items():
                for g_idx, s, sign, g_exps, g_scalar in divisors:
                    if all(e >= ge for e, ge in zip(exps, g_exps)):
                        quotient = tuple(e - ge for e, ge in zip(exps, g_exps))
                        values[((g_idx, s), quotient)] = sign * c / g_scalar
                        break
                else:
                    remainder[(u, exps)] = c
        return remainder, values

    def _columns(self, degree: int, max_degree: int) -> dict:
        """Columns (mu * eta) ^ g spanning the ideal's forms of a degree.

        Tagged ((g, s), mu): generator g, basis (degree-3)-form eta on the
        index tuple s, monomial mu.  Empty below degree 3.
        """
        return {
            ((g_idx, s), mu): column
            for g_idx, g in self.nonzero_gens()
            for (s, mu), column in _basis_columns(
                self.algebroid, degree - 3, max_degree, lambda eta: eta.wedge(g)
            ).items()
        }

    def _cofactors(self, degree: int, values: dict) -> dict[int, Form]:
        """Cofactor forms from the values of a solve over ``_columns``."""
        comps: dict[int, dict[tuple[int, ...], Poly]] = {}
        for (g_idx, s), p in witness.polys(values, self.algebroid.nvars).items():
            comps.setdefault(g_idx, {})[s] = p
        return {g_idx: Form(self.algebroid, degree - 3, c) for g_idx, c in comps.items()}

    def check_cofactors(self, omega: Form, decision: IdealDecision) -> bool:
        """Recombine cofactors against the generators; must reproduce omega."""
        if not decision.is_member:
            return False
        total = Form.zero(self.algebroid, omega.degree)
        for g_idx, eta in decision.cofactors.items():
            total = total + eta.wedge(self.gens3[g_idx])
        return total == omega

    # ---- normal form ----

    def normal_form(self, omega: Form, max_degree: int = 4) -> Form:
        """Canonical representative of omega modulo the ideal."""
        if omega.degree <= 2 or self.is_trivial or omega.is_zero():
            return omega
        if self.fast_path:
            remainder, _ = self._divide(omega)
        else:
            columns = self._columns(omega.degree, max_degree)
            remainder = witness.reduce(columns, _column(omega), key=_coordinate_key)
        return _form(self.algebroid, omega.degree, remainder)


def _coordinate_key(coord):
    """Index tuple first, then the monomial in graded-lex order, highest first."""
    u, exps = coord
    return u, -sum(exps), tuple(-e for e in exps)


def _column(f: Form) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    return {(u, exps): v for u, coeff in f.comps.items() for exps, v in coeff.terms.items()}


def _form(a: Algebroid, degree: int, values: dict) -> Form:
    """The form whose column is ``values``: the inverse of ``_column``."""
    return Form(a, degree, witness.polys(values, a.nvars))


# ---------------------------------------------------------------------------
# closedness and exactness decisions
# ---------------------------------------------------------------------------


YES = "yes"


@dataclass
class ClosednessDecision:
    status: str  # "yes" | "not-member"/"no" | "no-witness"
    witness: Form | None = None
    ideal_cofactors: dict[int, Form] | None = None
    note: str = ""

    @property
    def is_yes(self) -> bool:
        return self.status == YES


def _basis_columns(a: Algebroid, degree: int, max_degree: int, operator) -> dict:
    """Nonzero images under ``operator`` of the monomial basis forms of a degree.

    Tagged (s, mu): basis form on the index tuple s times the monomial mu.
    """
    if degree < 0:
        return {}
    columns = {}
    monos = witness.monomials_up_to(a.nvars, max_degree)
    for s in combinations(range(a.rank), degree):
        base = Form(a, degree, {s: Poly.const(a.nvars, 1)})
        for mu in monos:
            image = operator(base.scale(Poly.monomial(a.nvars, mu)))
            if not image.is_zero():
                columns[(s, mu)] = _column(image)
    return columns


def strong_closed(omega: Form, max_degree: int = 4) -> ClosednessDecision:
    """Is d omega the d-square of some lower form?  Bounded witness search."""
    a = omega.algebroid
    d_omega = differential(omega)
    if d_omega.is_zero():
        return ClosednessDecision(YES, Form.zero(a, max(omega.degree - 1, 0)), note="d omega = 0")
    x = witness.solve(_basis_columns(a, omega.degree - 1, max_degree, d_squared), _column(d_omega))
    if x is None:
        return ClosednessDecision(
            NO_WITNESS, note=f"no theta with coefficient degree <= {max_degree}"
        )
    return ClosednessDecision(YES, _form(a, omega.degree - 1, x))


def weak_closed(omega: Form, ideal: Lambda2Ideal, max_degree: int = 4) -> ClosednessDecision:
    """Is d omega in the ideal?"""
    decision = ideal.membership(differential(omega), max_degree)
    if decision.is_member:
        return ClosednessDecision(YES, ideal_cofactors=decision.cofactors)
    return ClosednessDecision(decision.status, note=decision.note)


def weak_exact(omega: Form, ideal: Lambda2Ideal, max_degree: int = 4) -> ClosednessDecision:
    """Does omega split as d theta' plus an ideal element?  Joint solve."""
    a = omega.algebroid
    if omega.is_zero():
        return ClosednessDecision(YES, Form.zero(a, max(omega.degree - 1, 0)), {})
    d_columns = _basis_columns(a, omega.degree - 1, max_degree, differential)
    # theta slots are index tuples, ideal slots (generator, index tuple): the
    # tags cannot collide
    ideal_columns = ideal._columns(omega.degree, max_degree)
    x = witness.solve({**d_columns, **ideal_columns}, _column(omega))
    if x is None:
        return ClosednessDecision(
            NO_WITNESS, note=f"no split with coefficient degree <= {max_degree}"
        )
    theta = _form(a, omega.degree - 1, {t: v for t, v in x.items() if t in d_columns})
    cofactors = ideal._cofactors(omega.degree, {t: v for t, v in x.items() if t in ideal_columns})
    return ClosednessDecision(YES, theta, cofactors)
