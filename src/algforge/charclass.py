"""Curvature form matrices, trace characteristic forms, and transgression.

The pipeline: a connection's gamma table becomes a matrix of 1-forms, its
curvature a matrix of 2-forms satisfying the Cartan equation R = d(theta) +
theta∧theta exactly; traces of wedge powers of R are the characteristic
forms.  Independence from the connection is verified per instance by an
explicit homotopy: the two connections are joined along an extra interval
variable, and an integration operator H peels the interval off, splitting the
difference of characteristic forms into an exact part and an ideal part.

Forms are built straight as ``forms`` term dicts: the connection and
curvature matrices from the gamma and curvature sections' term dicts, matrix
products and the interval operators (restriction, H) as loops over terms.
Results are wrapped through ``forms._form``, not re-checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebroid import Algebroid, AlgebroidError, BaseSpace, Section, _clean, _section, _vector_field
from .connection import EConnection, induced_connection
from .forms import (
    Decision,
    Form,
    Lambda2Ideal,
    _form,
    _wedge_into,
    d_squared,
    differential,
    pullback,
)
from .poly import Poly


# ---------------------------------------------------------------------------
# matrices of forms
# ---------------------------------------------------------------------------


class FormMatrix:
    """Square matrix of forms of one common degree."""

    __slots__ = ("algebroid", "size", "degree", "entries")

    def __init__(self, algebroid: Algebroid, degree: int, entries: list[list[Form]]):
        self.algebroid = algebroid
        self.size = len(entries)
        self.degree = degree
        for row in entries:
            if len(row) != self.size:
                raise AlgebroidError("form matrix must be square")
            for f in row:
                if f.degree != degree:
                    raise AlgebroidError("form matrix entries must share one degree")
        self.entries = entries

    @staticmethod
    def zero(algebroid: Algebroid, size: int, degree: int) -> FormMatrix:
        return FormMatrix(
            algebroid, degree, [[Form.zero(algebroid, degree) for _ in range(size)] for _ in range(size)]
        )

    @staticmethod
    def identity(algebroid: Algebroid, size: int) -> FormMatrix:
        one = Form.function(algebroid, 1)
        zero = Form.zero(algebroid, 0)
        return FormMatrix(
            algebroid, 0, [[one if i == j else zero for j in range(size)] for i in range(size)]
        )

    def _shape(self) -> tuple:
        return self.size, self.algebroid.gen_names, self.algebroid.nvars

    def _check_sum(self, other: FormMatrix) -> None:
        """Raise unless ``other`` has the same size and degree, on the same generators and base."""
        if not isinstance(other, FormMatrix) or (self._shape(), self.degree) != (other._shape(), other.degree):
            raise AlgebroidError("form matrices of different sizes, degrees or algebroids")

    def __add__(self, other: FormMatrix) -> FormMatrix:
        self._check_sum(other)
        return FormMatrix(
            self.algebroid,
            self.degree,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: FormMatrix) -> FormMatrix:
        self._check_sum(other)
        return FormMatrix(
            self.algebroid,
            self.degree,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def wedge_mul(self, other: FormMatrix) -> FormMatrix:
        if not isinstance(other, FormMatrix) or self._shape() != other._shape():
            raise AlgebroidError("form matrices of different sizes or algebroids")
        degree = self.degree + other.degree
        out = []
        for row in self.entries:
            out.append([])
            for j in range(other.size):
                total: dict = {}
                for f, other_row in zip(row, other.entries):
                    _wedge_into(total, f.terms, other_row[j].terms)
                out[-1].append(_form(self.algebroid, degree, _clean(total)))
        return FormMatrix(self.algebroid, degree, out)

    def wedge_power(self, k: int) -> FormMatrix:
        if k < 0:
            raise AlgebroidError("matrix wedge power needs k >= 0")
        out = FormMatrix.identity(self.algebroid, self.size)
        for _ in range(k):
            if out.is_zero():
                # every further factor keeps it zero; only the degree grows
                return FormMatrix.zero(self.algebroid, self.size, self.degree * k)
            out = out.wedge_mul(self)
        return out

    def trace(self) -> Form:
        total = Form.zero(self.algebroid, self.degree)
        for i in range(self.size):
            total = total + self.entries[i][i]
        return total

    def map_entries(self, op) -> FormMatrix:
        mapped = [[op(f) for f in row] for row in self.entries]
        return FormMatrix(self.algebroid, mapped[0][0].degree if mapped else 0, mapped)

    def d(self) -> FormMatrix:
        return self.map_entries(differential)

    def d2(self) -> FormMatrix:
        return self.map_entries(d_squared)

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)


# ---------------------------------------------------------------------------
# connection and curvature matrices
# ---------------------------------------------------------------------------


def _form_matrix(conn: EConnection, degree: int, table: dict) -> FormMatrix:
    """Entry [a][b] on the index tuple u from the a-coefficient of table[(*u, b)]."""
    r = conn.target_rank
    terms: list[list[dict]] = [[{} for _ in range(r)] for _ in range(r)]
    for (*u, b), value in table.items():
        for (idx, exps), c in value.terms.items():
            terms[idx][b][(tuple(u), exps)] = c
    return FormMatrix(conn.algebroid, degree, [[_form(conn.algebroid, degree, t) for t in row] for row in terms])


def connection_forms(conn: EConnection) -> FormMatrix:
    """theta[a][b] = sum over directions of gamma[a, direction, b] omega^direction."""
    return _form_matrix(conn, 1, conn.gamma)


def curvature_matrix(conn: EConnection) -> FormMatrix:
    """2-form matrix of curvature values on generator pairs."""
    return _form_matrix(conn, 2, conn.curvature_table())


def cartan_residual(conn: EConnection) -> FormMatrix:
    """R - d(theta) - theta∧theta; identically zero."""
    theta = connection_forms(conn)
    return curvature_matrix(conn) - theta.d() - theta.wedge_mul(theta)


def char_form(conn: EConnection, k: int) -> Form:
    """Trace of the k-th wedge power of the curvature matrix.

    Only the diagonal of the last product is formed:
    Tr R^k = Σ_{i,j} (R^{k−1})_ij ∧ R_ji.
    """
    if k < 1:
        raise AlgebroidError("characteristic forms start at k = 1")
    r = curvature_matrix(conn)
    total: dict = {}
    for i, row in enumerate(r.wedge_power(k - 1).entries):
        for f, r_row in zip(row, r.entries):
            _wedge_into(total, f.terms, r_row[i].terms)
    return _form(conn.algebroid, 2 * k, _clean(total))


def dR_identity_residual(conn: EConnection) -> FormMatrix:
    """d(R) - d²(theta) - R∧theta + theta∧R; identically zero."""
    theta = connection_forms(conn)
    r = curvature_matrix(conn)
    return r.d() - theta.d2() - r.wedge_mul(theta) + theta.wedge_mul(r)


# ---------------------------------------------------------------------------
# the interval product and the homotopy operator
# ---------------------------------------------------------------------------


class ProductAlgebroid(NamedTuple):
    """An algebroid crossed with the tangent line of an interval variable."""

    base: Algebroid
    extended: Algebroid
    t_index: int  # index of the interval variable in the extended base
    et_index: int  # index of the interval generator

    def restrict_form(self, omega: Form, u) -> Form:
        """Substitute t = u and delete interval components."""
        t = self.t_index
        out: dict = {}
        for (key, exps), c in omega.terms.items():
            if self.et_index not in key:
                k = (key, exps[:t] + exps[t + 1 :])
                out[k] = out.get(k, 0) + (c * u ** exps[t] if exps[t] else c)
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
        t = self.t_index
        out: dict = {}
        for (key, exps), c in omega.terms.items():
            if self.et_index in key:
                s = tuple(i for i in key if i != self.et_index)
                k = (s, exps[:t] + exps[t + 1 :])
                value = Fraction(c, exps[t] + 1) if exps[t] else c
                out[k] = out.get(k, 0) + (-value if len(s) % 2 else value)
        return _form(self.base, omega.degree - 1, _clean(out))


def _t_free(terms: dict) -> dict:
    """A term dict {(slot, exponents): coefficient} re-keyed to the base extended by t, t-free."""
    return {(slot, exps + (0,)): c for (slot, exps), c in terms.items()}


def product_algebroid(e: Algebroid) -> ProductAlgebroid:
    """Extend the base by an interval variable t and one generator for d/dt."""
    n = e.nvars
    ext_base = BaseSpace(tuple(e.base.var_names) + ("t",))
    anchor = [_vector_field(ext_base, _t_free(rho.terms)) for rho in e.anchor]
    anchor.append(_vector_field(ext_base, {(n, (0,) * (n + 1)): 1}))
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


class HomotopyReport(NamedTuple):
    prism_residual: Form  # H(d omega) + d(H omega) - (restrict_1 - restrict_0)
    square_residual: Form  # H(d² omega) - d²(H omega)

    @property
    def ok(self) -> bool:
        return self.prism_residual.is_zero() and self.square_residual.is_zero()


def homotopy_identity_report(p: ProductAlgebroid, omega: Form) -> HomotopyReport:
    lhs = p.homotopy(differential(omega)) + differential(p.homotopy(omega))
    rhs = p.restrict_form(omega, 1) - p.restrict_form(omega, 0)
    prism = lhs - rhs
    square = p.homotopy(d_squared(omega)) - d_squared(p.homotopy(omega))
    return HomotopyReport(prism, square)


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
    k: int,
    ideal: Lambda2Ideal | None = None,
    max_degree: int = 4,
) -> TransgressionReport:
    """Certify connection-independence of the order-k characteristic form."""
    e = first.algebroid
    if ideal is None:
        ideal = Lambda2Ideal(e)
    p = product_algebroid(e)
    tilde = interpolate_connections(p, first, second)
    ch_tilde = char_form(tilde, k)
    ch_first, ch_second = char_form(first, k), char_form(second, k)
    diff = ch_second - ch_first
    primary = p.homotopy(ch_tilde)
    ideal_part = p.homotopy(differential(ch_tilde))
    identity_ok = (differential(primary) + ideal_part) == diff
    restriction_ok = p.restrict_form(ch_tilde, 0) == ch_first and p.restrict_form(ch_tilde, 1) == ch_second
    membership = ideal.membership(ideal_part, max_degree)
    return TransgressionReport(k, diff, primary, ideal_part, identity_ok, restriction_ok, membership)


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
