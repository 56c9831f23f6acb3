"""Curvature form matrices, trace characteristic forms, and transgression.

The pipeline: a connection's gamma table becomes a matrix of 1-forms, its
curvature a matrix of 2-forms satisfying the Cartan equation R = d(theta) +
theta∧theta exactly; traces of wedge powers of R are the characteristic
forms, all orders of one connection read off one running power of R.
Independence from the connection is verified per instance by an explicit
homotopy: the two connections are joined along an extra interval variable,
and an integration operator H peels the interval off, splitting the
difference of characteristic forms into an exact part and an ideal part.

Forms and matrices of forms (``FormMatrix``, which never stores a zero entry)
are built straight as term dicts from the gamma and curvature sections' term
dicts; matrix products, traces and the interval operators (restriction, H)
are loops over nonzero terms.  Results are wrapped, not re-checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebroid import Algebroid, AlgebroidError, BaseSpace, Section, _clean, _section, _Terms, _vector_field
from .connection import EConnection, induced_connection
from .forms import (
    Decision,
    Form,
    Lambda2Ideal,
    _form,
    _merge_sign,
    d_squared,
    differential,
    pullback,
)
from .poly import _MASK, FIELD_BITS, Poly


# ---------------------------------------------------------------------------
# matrices of forms
# ---------------------------------------------------------------------------


class FormMatrix(_Terms):
    """Square matrix of forms of one common degree with the ``_Terms`` arithmetic:
    one term dict {((a, b, u), packed monomial): coefficient} in normal form,
    entry [a][b] on the index tuple u, so a zero entry is never stored."""

    __slots__ = ("algebroid", "size", "degree")

    def __init__(self, algebroid: Algebroid, size: int, degree: int, terms: dict):
        self.algebroid, self.size, self.degree, self.terms = algebroid, size, degree, terms

    @staticmethod
    def zero(algebroid: Algebroid, size: int, degree: int) -> FormMatrix:
        return FormMatrix(algebroid, size, degree, {})

    @staticmethod
    def identity(algebroid: Algebroid, size: int) -> FormMatrix:
        return FormMatrix(algebroid, size, 0, {((i, i, ()), 0): 1 for i in range(size)})

    @property
    def nvars(self) -> int:
        return self.algebroid.nvars

    def _like(self, terms: dict) -> FormMatrix:
        return FormMatrix(self.algebroid, self.size, self.degree, terms)

    def _shape(self) -> tuple:
        return self.size, self.algebroid.gen_names, self.algebroid.nvars

    def _check_sum(self, other: FormMatrix) -> None:
        """Raise unless ``other`` has the same size and degree, on the same generators and base."""
        if not isinstance(other, FormMatrix) or (self._shape(), self.degree) != (other._shape(), other.degree):
            raise AlgebroidError("form matrices of different sizes, degrees or algebroids")

    def entry(self, a: int, b: int) -> Form:
        """Entry [a][b] as a form."""
        terms = {(u, exps): c for ((i, j, u), exps), c in self.terms.items() if (i, j) == (a, b)}
        return _form(self.algebroid, self.degree, terms)

    def wedge_mul(self, other: FormMatrix) -> FormMatrix:
        if not isinstance(other, FormMatrix) or self._shape() != other._shape():
            raise AlgebroidError("form matrices of different sizes or algebroids")
        out = _product(self.terms, other.terms, diagonal=False)
        return FormMatrix(self.algebroid, self.size, self.degree + other.degree, _clean(out))

    def trace(self) -> Form:
        out: dict = {}
        for ((a, b, u), exps), c in self.terms.items():
            if a == b:
                out[u, exps] = out.get((u, exps), 0) + c
        return _form(self.algebroid, self.degree, _clean(out))

    def d(self) -> FormMatrix:
        entries: dict = {}
        for ((a, b, u), exps), c in self.terms.items():
            entries.setdefault((a, b), {})[u, exps] = c
        out = {}
        for (a, b), terms in entries.items():
            for (u, exps), c in differential(_form(self.algebroid, self.degree, terms)).terms.items():
                out[(a, b, u), exps] = c
        return FormMatrix(self.algebroid, self.size, self.degree + 1, out)


def _product(left: dict, right: dict, diagonal: bool) -> dict:
    """The wedge product of two matrices' term dicts, unfinished: entry [a][b] is
    Σ_c left[a][c] ∧ right[c][b], keyed ((a, b, u), monomial); with ``diagonal``
    only the a == b entries, summed and keyed (u, monomial): the trace."""
    rows: dict = {}
    for ((c, b, t), eb), y in right.items():
        rows.setdefault(c, []).append((b, t, eb, y))
    out: dict = {}
    for ((a, c, s), ea), x in left.items():
        for b, t, eb, y in rows.get(c, ()):
            if diagonal and a != b:
                continue
            sign, u = _merge_sign(s, t)
            if sign:
                key = (u if diagonal else (a, b, u), ea + eb)
                out[key] = out.get(key, 0) + (x * y if sign > 0 else -(x * y))
    return out


# ---------------------------------------------------------------------------
# connection and curvature matrices
# ---------------------------------------------------------------------------


def _form_matrix(conn: EConnection, degree: int, table: dict) -> FormMatrix:
    """Entry [a][b] on the index tuple u from the a-coefficient of table[(*u, b)]."""
    terms = {
        ((a, b, tuple(u)), exps): c for (*u, b), value in table.items() for (a, exps), c in value.terms.items()
    }
    return FormMatrix(conn.algebroid, conn.target_rank, degree, terms)


def connection_forms(conn: EConnection) -> FormMatrix:
    """theta[a][b] = sum over directions of gamma[a, direction, b] omega^direction."""
    return _form_matrix(conn, 1, conn.gamma)


def curvature_matrix(conn: EConnection) -> FormMatrix:
    """2-form matrix of curvature values on generator pairs."""
    return _form_matrix(conn, 2, conn.curvature_table())


def structure_residuals(conn: EConnection) -> tuple[FormMatrix, FormMatrix]:
    """R - d(theta) - theta∧theta and d(R) - d²(theta) - R∧theta + theta∧R,
    both identically zero, sharing theta, R and d(theta)."""
    theta = connection_forms(conn)
    r = curvature_matrix(conn)
    d_theta = theta.d()
    cartan = r - d_theta - theta.wedge_mul(theta)
    return cartan, r.d() - d_theta.d() - r.wedge_mul(theta) + theta.wedge_mul(r)


def char_forms(conn: EConnection, orders: Iterable[int]) -> Iterator[tuple[int, Form]]:
    """(k, Tr R^k) for each k of the increasing ``orders``, in turn, from one
    running power of the curvature matrix.

    Only the diagonal of the last product is formed:
    Tr R^k = Σ_{i,j} (R^{k−1})_ij ∧ R_ji.  Once the power is zero every
    later trace form is zero, so no further product is formed.
    """
    r = curvature_matrix(conn)
    power, done = FormMatrix.identity(conn.algebroid, r.size), 0  # power = R^done
    last = 0
    for k in orders:
        if k <= last:
            raise AlgebroidError("characteristic forms start at k = 1" if k < 1 else "orders must increase")
        last = k
        while done < k - 1 and not power.is_zero():
            power, done = power.wedge_mul(r), done + 1
        yield k, _form(conn.algebroid, 2 * k, _clean(_product(power.terms, r.terms, diagonal=True)))


def char_form(conn: EConnection, k: int) -> Form:
    """Trace of the k-th wedge power of the curvature matrix."""
    ((_, form),) = char_forms(conn, (k,))
    return form


# ---------------------------------------------------------------------------
# the interval product and the homotopy operator
# ---------------------------------------------------------------------------


class ProductAlgebroid(NamedTuple):
    """An algebroid crossed with the tangent line of an interval variable."""

    base: Algebroid
    extended: Algebroid
    t_index: int  # index of the interval variable in the extended base, its last
    et_index: int  # index of the interval generator

    def restrict_form(self, omega: Form, u) -> Form:
        """Substitute t = u and delete interval components."""
        out: dict = {}
        for (key, exps), c in omega.terms.items():
            if self.et_index not in key:
                # t is the last variable: its power is the lowest field
                k, power = (key, exps >> FIELD_BITS), exps & _MASK
                out[k] = out.get(k, 0) + (c * u**power if power else c)
        return _form(self.base, omega.degree, _clean(out))

    def homotopy(self, omega: Form) -> Form:
        """Integrate the interval component away; degree drops by one.

        Splitting omega = alpha + omega^t ∧ beta with the interval factor in
        front, H(omega) integrates beta's coefficients over [0, 1].  In
        components: H(omega)_S = (−1)^{|S|} ∫₀¹ c_{S ∪ {t}}, the sign being
        the cost of commuting omega^t to the front past S.
        """
        if omega.degree == 0:
            return Form.zero(self.base, 0)
        out: dict = {}
        for (key, exps), c in omega.terms.items():
            if self.et_index in key:
                s = tuple(i for i in key if i != self.et_index)
                k, power = (s, exps >> FIELD_BITS), exps & _MASK
                value = Fraction(c, power + 1) if power else c
                out[k] = out.get(k, 0) + (-value if len(s) % 2 else value)
        return _form(self.base, omega.degree - 1, _clean(out))


def _t_free(terms: dict) -> dict:
    """A term dict {(slot, monomial): coefficient} re-keyed to the base extended
    by t, t-free: t is the last variable, so its field is appended below."""
    return {(slot, exps << FIELD_BITS): c for (slot, exps), c in terms.items()}


def product_algebroid(e: Algebroid) -> ProductAlgebroid:
    """Extend the base by an interval variable t and one generator for d/dt."""
    n = e.nvars
    ext_base = BaseSpace(tuple(e.base.var_names) + ("t",))
    anchor = [_vector_field(ext_base, _t_free(rho.terms)) for rho in e.anchor]
    anchor.append(_vector_field(ext_base, {(n, 0): 1}))
    structure = {pair: _section(e.rank + 1, n + 1, _t_free(value.terms)) for pair, value in e.structure.items()}
    gen_names = tuple(e.gen_names) + ("et",)
    extended = Algebroid(ext_base, gen_names, anchor, structure, name=(e.name or "E") + "_x_interval")
    return ProductAlgebroid(e, extended, n, e.rank)


def interpolate_connections(
    p: ProductAlgebroid, first: EConnection, second: EConnection
) -> EConnection:
    """The straight-line connection (1-t)·first + t·second, flat along d/dt."""
    if first.algebroid is not p.base and first.algebroid.gen_names != p.base.gen_names:
        raise AlgebroidError("first connection must live on the product's base algebroid")
    if first.target_gens != second.target_gens:
        raise AlgebroidError("connections must share a target bundle")
    n = p.base.nvars
    t = Poly.variable(n + 1, n)
    one_minus_t = Poly.const(n + 1, 1) - t
    r = first.target_rank
    gamma: dict[tuple[int, int], Section] = {}
    for beta in range(p.base.rank):
        for b in range(r):
            v1, v2 = (_section(r, n + 1, _t_free(c.gamma_entry(beta, b).terms)) for c in (first, second))
            value = v1.scale(one_minus_t) + v2.scale(t)
            if not value.is_zero():
                gamma[(beta, b)] = value
    return EConnection(p.extended, gamma, target_gens=first.target_gens, name="interpolated")


def prism_residual(p: ProductAlgebroid, omega: Form) -> Form:
    """H(d omega) + d(H omega) - (restrict_1 - restrict_0); identically zero."""
    lhs = p.homotopy(differential(omega)) + differential(p.homotopy(omega))
    return lhs - (p.restrict_form(omega, 1) - p.restrict_form(omega, 0))


def square_residual(p: ProductAlgebroid, omega: Form) -> Form:
    """H(d² omega) - d²(H omega); identically zero."""
    return p.homotopy(d_squared(omega)) - d_squared(p.homotopy(omega))


# ---------------------------------------------------------------------------
# transgression and pullback consistency
# ---------------------------------------------------------------------------


class TransgressionReport(NamedTuple):
    k: int
    difference: Form  # char_form(second, k) - char_form(first, k)
    primary_witness: Form  # H(Tr R~^k)
    ideal_part: Form  # H(d~ Tr R~^k)
    identity_ok: bool  # difference == d(primary) + ideal_part
    restriction_ok: bool  # interval endpoints reproduce the two curvatures
    ideal_membership: Decision

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.restriction_ok and self.ideal_membership.is_yes

    def describe(self) -> str:
        bits = [
            f"difference of order-{self.k} characteristic forms",
            "splits as d(witness) + ideal part" if self.identity_ok else "SPLIT FAILS",
            "endpoint restrictions match" if self.restriction_ok else "ENDPOINTS MISMATCH",
            f"ideal part membership: {self.ideal_membership.status}",
        ]
        return "; ".join(bits)


def transgression_check(
    first: EConnection,
    second: EConnection,
    orders: Sequence[int],
    ideal: Lambda2Ideal | None = None,
    max_degree: int = 4,
) -> list[TransgressionReport]:
    """Certify connection-independence of the characteristic form of each of the
    increasing ``orders``, one report per order; the product and the
    interpolated connection are built once for all of them."""
    e = first.algebroid
    if ideal is None:
        ideal = Lambda2Ideal(e)
    p = product_algebroid(e)
    tilde = interpolate_connections(p, first, second)
    reports = []
    forms = zip(*(char_forms(conn, orders) for conn in (tilde, first, second)))
    for (k, ch_tilde), (_, ch_first), (_, ch_second) in forms:
        diff = ch_second - ch_first
        primary = p.homotopy(ch_tilde)
        ideal_part = p.homotopy(differential(ch_tilde))
        identity_ok = (differential(primary) + ideal_part) == diff
        restriction_ok = p.restrict_form(ch_tilde, 0) == ch_first and p.restrict_form(ch_tilde, 1) == ch_second
        membership = ideal.membership(ideal_part, max_degree)
        reports.append(TransgressionReport(k, diff, primary, ideal_part, identity_ok, restriction_ok, membership))
    return reports


class PullbackReport(NamedTuple):
    k: int
    algebroid_side: Form
    base_side: Form
    residual_normal_form: Form

    @property
    def ok(self) -> bool:
        return self.residual_normal_form.is_zero()


def pullback_consistency(
    algebroid: Algebroid,
    base: EConnection,
    k: int,
    ideal: Lambda2Ideal | None = None,
    max_degree: int = 4,
) -> PullbackReport:
    """Induced-connection characteristic form vs anchored pullback of the base one.

    ``base`` is a connection along the tangent bundle of the algebroid's base
    on any target bundle (V = E when its target generators are the
    algebroid's).  The algebroid side is the order-k form of
    ``induced_connection(algebroid, base)``, the base side that of ``base``
    pulled back through the anchor; equality is asked modulo the ideal via
    normal forms.
    """
    if ideal is None:
        ideal = Lambda2Ideal(algebroid)
    lhs = char_form(induced_connection(algebroid, base), k)
    rhs = pullback(algebroid, char_form(base, k))
    residual = ideal.normal_form(lhs - rhs, max_degree)
    return PullbackReport(k, lhs, rhs, residual)
