"""Exterior forms on an algebroid's dual generator basis.

A k-form is a section of Λ^k E*: one flat dict {(index tuple, packed
monomial): coefficient} over strictly increasing k-tuples of generator
indices, with the section arithmetic; ``comps`` is its sparse split
(``_Terms.split``), one Poly per nonzero tuple in tuple order, which
``to_text`` renders through ``algebroid.form_text`` as a document's `form`
line writes it.  The dict is also the form's witness column: the
searches below hand it to ``witness`` as it is and read solutions back as
forms.  Only the public constructor,
which takes outside input, checks keys before it converts its Polys through
``algebroid._slot_terms``; wedge, the differential, cofactors and the
interval operators of ``charclass`` wrap their ``_clean`` dicts through
``_form``.

The differential is the derivation fixed by two rules:
df = Σ_b ρ(e_b)(f) θ^b on functions, read from the anchor images, and
dθ^c = −Σ_{i<j} c^c_ij θ^i∧θ^j on dual generators, read from the structure
table.  It reads both off a per-algebroid table kept on
``Algebroid.coframe_d``: for each index tuple u, built on first use, the
anchor moves onto θ^b∧θ^u and dθ^u as one term dict.  When the bracket fails
the Jacobi identity the square of d is not zero; its failure on dual
generators spans an exterior ideal, and the interesting closedness questions
are posed modulo that ideal.

Membership in the ideal is decided two ways.  When every ideal generator is a
single monomial on a single index tuple — as happens for the rank-4 flagship
example — membership decouples tuple by tuple into monomial-ideal division,
which is exact at every degree.  Otherwise a degree-bounded linear solve
provides witnesses, and a failed search is reported as such rather than as a
refutation.

Membership, strong and weak closedness and weak exactness all answer in one
record, ``Decision``: status ``yes``, ``no`` or ``no-witness``, and for a
``yes`` its certificate, the lower form ``theta`` and the ideal ``cofactors``
(generator index -> form) that the question calls for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from . import witness
from .algebroid import Algebroid, AlgebroidError, Section, _clean, _slot_terms, _Terms, apply_row, form_text
from .poly import Poly, _degree, _pack, _trusted, _unpack
from .reports import FAIL, INCONCLUSIVE, PASS


@cache
def _merge_sign(s: tuple[int, ...], t: tuple[int, ...]):
    """Sign and result of sorting the concatenation of two sorted tuples.

    Returns (0, None) when the tuples share an index.  Kept per pair of
    tuples: the wedge and the differential's table merge the same few pairs
    over and over.
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


class Form(_Terms):
    """Alternating polynomial form of fixed degree on the generator basis.

    A section of Λ^k E* with the ``_Terms`` arithmetic: ``terms`` is the only
    copy of the coefficients; the constructor takes one Poly per index tuple
    and checks every key.
    """

    __slots__ = ("algebroid", "degree")

    def __init__(self, algebroid: Algebroid, degree: int, comps: dict[tuple[int, ...], Poly]):
        if degree < 0:
            raise AlgebroidError("form degree must be nonnegative")
        keys = [tuple(key) for key in comps]
        for key in keys:
            if len(key) != degree:
                raise AlgebroidError("component key has the wrong length")
            if any(not 0 <= i < algebroid.rank for i in key):
                raise AlgebroidError("component index out of range")
            if list(key) != sorted(set(key)):
                raise AlgebroidError("component keys must be strictly increasing")
        self.algebroid, self.degree, self.terms = algebroid, degree, _slot_terms(zip(keys, comps.values()))

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

    comps = _Terms.split

    @property
    def nvars(self) -> int:
        return self.algebroid.nvars

    def _like(self, terms: dict) -> Form:
        return _form(self.algebroid, self.degree, terms)

    @property
    def _bundle(self) -> tuple[tuple[str, ...], int]:
        """The generators and base dimension: forms are comparable and combine only on the same pair."""
        return self.algebroid.gen_names, self.nvars

    def _check_bundle(self, other: Form) -> None:
        """Raise unless ``other`` is a form on the same generators and base: the test of sums and wedges."""
        if not isinstance(other, Form) or self._bundle != other._bundle:
            raise AlgebroidError("forms live on different algebroids")

    def _check_sum(self, other: Form) -> None:
        self._check_bundle(other)
        if self.degree != other.degree:
            raise AlgebroidError("forms have different degrees")

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self._bundle == other._bundle
            and self.degree == other.degree
            and self.terms == other.terms
        )

    # ---- evaluation ----

    def eval_sections(self, *sections: Section) -> Poly:
        """Full alternating evaluation on polynomial sections: the pullback
        through e_i -> sections[i], read on its one index tuple (0, …, k−1)."""
        if len(sections) != self.degree:
            raise AlgebroidError("wrong number of arguments for this degree")
        if any(s.rank != self.algebroid.rank for s in sections):
            raise AlgebroidError("sections must have the rank of the form's algebroid")
        terms, n = _clean(_pull(self.terms, sections)), self.nvars
        return _trusted(n, {_unpack(exps, n): c for (_, exps), c in terms.items()})

    # ---- wedge ----

    def wedge(self, other: Form) -> Form:
        self._check_bundle(other)
        return _form(self.algebroid, self.degree + other.degree, _clean(_wedge_into({}, self.terms, other.terms)))

    # ---- text ----

    def to_text(self) -> str:
        a = self.algebroid
        return form_text(self.comps, a.gen_names, a.base.var_names)

    def __repr__(self):
        return f"Form({self.to_text()})"


def _form(algebroid: Algebroid, degree: int, terms: dict) -> Form:
    """Wrap a term dict already in normal form: valid index tuples, ``poly`` normal-form coefficients."""
    f = object.__new__(Form)
    f.algebroid, f.degree, f.terms = algebroid, degree, terms
    return f


def _wedge_into(out: dict, alpha: dict, beta: dict) -> dict:
    """Add the wedge product of two forms' term dicts into ``out``, unfinished."""
    for (s, ea), a in alpha.items():
        for (t, eb), b in beta.items():
            sign, key = _merge_sign(s, t)
            if sign:
                key = (key, ea + eb)
                out[key] = out.get(key, 0) + (a * b if sign > 0 else -(a * b))
    return out


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def _coframe_d(a: Algebroid, u: tuple[int, ...]) -> tuple[list, list]:
    """The derivative of the coframe monomial θ^u, read from ``a.coframe_d``.

    Two parts, built on the first use of u and kept: the ``apply_row``
    moves of every anchor image ρ(e_b), each signed and landing on θ^key =
    ±θ^b ∧ θ^u, which carry f θ^u to df ∧ θ^u, and the terms ((key,
    monomial), coefficient) of
    dθ^u = Σ_t (−1)^t θ^{u_0} ∧ … ∧ dθ^{u_t} ∧ … ∧ θ^{u_{k−1}}.
    """
    found = a.coframe_d.get(u)
    if found is None:
        moves = []
        for b, rho in enumerate(a.anchor):
            sign, key = _merge_sign((b,), u)
            if sign:
                moves += [(at, delta, sign * c, key) for at, delta, c, _ in rho.moves]
        dtheta: dict = {}
        for t, c in enumerate(u):
            rest = u[:t] + u[t + 1 :]
            for pair, terms in a.structure_by_target.get(c, {}).items():
                sign, key = _merge_sign(pair, rest)
                if sign:
                    # dθ^c has even degree, so it moves to the front unsigned:
                    # the term is (−1)^(t+1) c^c_ij on θ^i ∧ θ^j ∧ θ^rest
                    weight = sign if t % 2 else -sign
                    for exps, v in terms.items():
                        dtheta[key, exps] = dtheta.get((key, exps), 0) + weight * v
        found = a.coframe_d[u] = moves, list(_clean(dtheta).items())
    return found


def differential(omega: Form) -> Form:
    """The derivation of degree one fixed by df and dθ^c.

    d(f θ^u) = df ∧ θ^u + f dθ^u with df = Σ_b ρ(e_b)(f) θ^b and
    dθ^c = −Σ_{i<j} c^c_ij θ^i ∧ θ^j, where [e_i, e_j] = Σ_c c^c_ij e_c,
    summed over the components of ω only; the two parts of each θ^u come
    from ``_coframe_d``.  For any anchored skew bracket with the Leibniz
    rule, Jacobi or not, it equals the alternating Cartan sum on generator
    tuples.  Components come out in index order, the order in which the
    d²-ideal's monomial division names the first component it cannot divide.
    """
    a = omega.algebroid
    if not omega.terms:
        return _form(a, omega.degree + 1, {})
    by_key: dict = {}
    for item in omega.terms.items():
        by_key.setdefault(item[0][0], []).append(item)
    out: dict = {}
    for u, f in by_key.items():
        moves, dtheta = _coframe_d(a, u)
        apply_row(out, moves, f)
        for (_, exps), fc in f:
            for (key, e), v in dtheta:
                k = (key, exps + e)
                out[k] = out.get(k, 0) + fc * v
    return _form(a, omega.degree + 1, _clean(dict(sorted(out.items()))))


def d_squared(omega: Form) -> Form:
    return differential(differential(omega))


def _pull(terms: dict, images: list[Section]) -> dict:
    """The term dict of a form pulled back through e_b -> images[b], unfinished.

    Pulling back is the wedge homomorphism taking θ^j to Σ_b images[b]_j θ^b,
    so each component is the product of those 1-forms, in its index order.
    """
    theta: dict = {}
    for b, image in enumerate(images):
        for (j, exps), c in image.terms.items():
            theta.setdefault(j, {})[((b,), exps)] = c
    by_key: dict = {}
    for (u, exps), c in terms.items():
        by_key.setdefault(u, {})[((), exps)] = c
    out: dict = {}
    for u, product in by_key.items():
        for j in u:
            product = _wedge_into({}, product, theta.get(j, {}))
        for key, c in product.items():
            out[key] = out.get(key, 0) + c
    return out


def pullback(algebroid: Algebroid, base_form: Form) -> Form:
    """Precompose a coordinate-frame form with the anchor.

    The input is a form over a rank-n algebroid whose generators stand for
    the n coordinate fields of the base (the tangent builtin fits); the
    output evaluates it on anchor images.
    """
    if base_form.algebroid.rank != algebroid.nvars:
        raise AlgebroidError("base form rank must equal the number of base variables")
    return _form(algebroid, base_form.degree, _clean(dict(sorted(_pull(base_form.terms, algebroid.anchor).items()))))


# ---------------------------------------------------------------------------
# the exterior ideal measuring d²
# ---------------------------------------------------------------------------


YES = "yes"
NO = "no"
NO_WITNESS = "no-witness"
# each outcome's status in a report: a bounded search that found no witness refutes nothing
REPORT_STATUS = {YES: PASS, NO: FAIL, NO_WITNESS: INCONCLUSIVE}


class Decision(NamedTuple):
    """The answer of a membership, closedness or exactness search.

    ``status`` is YES, NO (refuted exactly) or NO_WITNESS (the bounded search
    found nothing, which refutes nothing).  A YES carries its certificate:
    ``theta``, the lower form of a closedness or exactness split, and
    ``cofactors``, generator index -> form, the ideal part as Σ cofactor ∧ g.
    """

    status: str
    theta: Form | None = None
    cofactors: dict[int, Form] = MappingProxyType({})  # shared by every default, so read-only
    note: str = ""

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def report_status(self) -> str:
        """PASS, FAIL or INCONCLUSIVE, read from ``REPORT_STATUS``; any other outcome raises KeyError."""
        return REPORT_STATUS[self.status]


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
        return all(len(g.terms) == 1 for _, g in self.nonzero_gens())

    # ---- membership ----

    def membership(self, omega: Form, max_degree: int = 4) -> Decision:
        if omega.is_zero():
            return Decision(YES)
        if omega.degree <= 2:
            return Decision(NO, note=f"nonzero {omega.degree}-form; the ideal starts in degree 3")
        if self.is_trivial:
            return Decision(NO, note="ideal is zero")
        if self.fast_path:
            remainder, values = self._divide(omega)
            if remainder:
                # the first component of omega, in its own order, with terms left over
                left = {u for u, _ in remainder}
                u = next(u for u, _ in omega.terms if u in left)
                names = "^".join(f"w({self.algebroid.gen_names[i]})" for i in u)
                return Decision(NO, note=f"component on {names} has terms outside the generator monomials")
        else:
            values = witness.solve(self._columns(omega.degree, max_degree), omega.terms)
            if values is None:
                return Decision(NO_WITNESS, note=f"no witness with coefficient degree <= {max_degree}")
        return Decision(YES, cofactors=self._cofactors(omega.degree, values))

    def _divide(self, omega: Form) -> tuple[dict, dict]:
        """Fast-path division: (remainder column, cofactor values tagged as in ``_columns``).

        A term on u goes to the first generator on t within u whose monomial
        divides it, as a cofactor term on s = u - t; the rest, the canonical
        remainder, is what no generator divides.
        """
        remainder, values, divisors, n = {}, {}, {}, self.algebroid.nvars
        for (u, exps), c in omega.terms.items():
            if u not in divisors:
                divisors[u] = []
                for g_idx, g in self.nonzero_gens():
                    (((t, g_exps), g_scalar),) = g.terms.items()
                    if set(t) <= set(u):
                        s = tuple(sorted(set(u) - set(t)))
                        divisors[u].append((g_idx, s, _merge_sign(s, t)[0], g_exps, _unpack(g_exps, n), g_scalar))
            powers = _unpack(exps, n)
            for g_idx, s, sign, g_exps, g_powers, g_scalar in divisors[u]:
                if all(e >= ge for e, ge in zip(powers, g_powers)):
                    # every field of the quotient is nonnegative, so no borrow
                    values[((g_idx, s), exps - g_exps)] = Fraction(sign * c, g_scalar)
                    break
            else:
                remainder[(u, exps)] = c
        return remainder, values

    def _columns(self, degree: int, max_degree: int) -> dict:
        """Columns (mu * eta) ^ g spanning the ideal's forms of a degree.

        Tagged ((g, s), mu): generator g, basis (degree-3)-form eta on the
        index tuple s, monomial mu; eta ^ g is shifted by mu.  Empty below degree 3.
        """
        columns = {
            (g_idx, s): column
            for g_idx, g in self.nonzero_gens()
            for (s, _), column in _basis_columns(self.algebroid, degree - 3, 0, lambda eta: eta.wedge(g)).items()
        }
        return witness.monomial_multiples(columns, self.algebroid.nvars, max_degree)

    def _cofactors(self, degree: int, values: dict) -> dict[int, Form]:
        """Cofactor forms from the values of a solve over ``_columns``."""
        terms: dict[int, dict] = {}
        for ((g_idx, s), mu), v in values.items():
            terms.setdefault(g_idx, {})[(s, mu)] = v
        return {g_idx: _form(self.algebroid, degree - 3, _clean(t)) for g_idx, t in terms.items()}

    def check_cofactors(self, omega: Form, decision: Decision) -> bool:
        """Recombine cofactors against the generators; must reproduce omega."""
        if not decision.is_yes:
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
            remainder = witness.reduce(columns, omega.terms, key=_coordinate_key)
        return _form(self.algebroid, omega.degree, _clean(remainder))


def _coordinate_key(coord):
    """Index tuple first, then the monomial in graded-lex order, highest first:
    a larger packed monomial of the same degree is the larger tuple."""
    u, exps = coord
    return u, -_degree(exps), -exps


# ---------------------------------------------------------------------------
# closedness and exactness decisions
# ---------------------------------------------------------------------------


def _basis_columns(a: Algebroid, degree: int, max_degree: int, operator) -> dict:
    """Nonzero images under ``operator`` of the monomial basis forms of a degree.

    Tagged (s, mu): basis form on the index tuple s times the monomial mu.
    Each multiple goes through the operator, as d(mu θ) = dmu ∧ θ + mu dθ.
    """
    if degree < 0:
        return {}
    columns = {}
    monos = [_pack(mu) for mu in witness.monomials_up_to(a.nvars, max_degree)]
    for s in combinations(range(a.rank), degree):
        for mu in monos:
            image = operator(_form(a, degree, {(s, mu): 1}))
            if not image.is_zero():
                columns[(s, mu)] = image.terms
    return columns


def strong_closed(omega: Form, max_degree: int = 4) -> Decision:
    """Is d omega the d-square of some lower form?  Bounded witness search."""
    a = omega.algebroid
    d_omega = differential(omega)
    if d_omega.is_zero():
        return Decision(YES, Form.zero(a, max(omega.degree - 1, 0)), note="d omega = 0")
    x = witness.solve(witness.plain(_basis_columns(a, omega.degree - 1, max_degree, d_squared)), d_omega.terms)
    if x is None:
        return Decision(NO_WITNESS, note=f"no theta with coefficient degree <= {max_degree}")
    return Decision(YES, _form(a, omega.degree - 1, x))


def weak_closed(omega: Form, ideal: Lambda2Ideal, max_degree: int = 4) -> Decision:
    """Is d omega in the ideal?"""
    return ideal.membership(differential(omega), max_degree)


def weak_exact(omega: Form, ideal: Lambda2Ideal, max_degree: int = 4) -> Decision:
    """Does omega split as d theta' plus an ideal element?  Joint solve."""
    a = omega.algebroid
    if omega.is_zero():
        return Decision(YES, Form.zero(a, max(omega.degree - 1, 0)))
    d_columns = _basis_columns(a, omega.degree - 1, max_degree, differential)
    # theta slots are index tuples, ideal slots (generator, index tuple): the
    # tags cannot collide
    ideal_columns = ideal._columns(omega.degree, max_degree)
    x = witness.solve({**witness.plain(d_columns), **ideal_columns}, omega.terms)
    if x is None:
        return Decision(NO_WITNESS, note=f"no split with coefficient degree <= {max_degree}")
    theta = _form(a, omega.degree - 1, {t: v for t, v in x.items() if t in d_columns})
    cofactors = ideal._cofactors(omega.degree, {t: v for t, v in x.items() if t in ideal_columns})
    return Decision(YES, theta, cofactors)
