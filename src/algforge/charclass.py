"""Curvature form matrices, trace characteristic forms, and transgression.

The pipeline: a connection's gamma table becomes a matrix of 1-forms, its
curvature a matrix of 2-forms satisfying the Cartan equation R = d(theta) +
theta∧theta exactly; traces of wedge powers of R are the characteristic
forms.  Independence from the connection is verified per instance by an
explicit homotopy: the two connections are joined along an extra interval
variable, and an integration operator H peels the interval off, splitting the
difference of characteristic forms into an exact part and an ideal part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebroid import Algebroid, AlgebroidError, BaseSpace, Section, VectorField
from .connection import EConnection
from .forms import (
    ClosednessDecision,
    Form,
    IdealDecision,
    Lambda2Ideal,
    d_squared,
    differential,
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

    def __add__(self, other: FormMatrix) -> FormMatrix:
        return FormMatrix(
            self.algebroid,
            self.degree,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: FormMatrix) -> FormMatrix:
        return FormMatrix(
            self.algebroid,
            self.degree,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def wedge_mul(self, other: FormMatrix) -> FormMatrix:
        out = []
        for i in range(self.size):
            row = []
            for j in range(other.size):
                total = Form.zero(self.algebroid, self.degree + other.degree)
                for c in range(self.size):
                    total = total + self.entries[i][c].wedge(other.entries[c][j])
                row.append(total)
            out.append(row)
        return FormMatrix(self.algebroid, self.degree + other.degree, out)

    def wedge_power(self, k: int) -> FormMatrix:
        if k < 0:
            raise AlgebroidError("matrix wedge power needs k >= 0")
        out = FormMatrix.identity(self.algebroid, self.size)
        for _ in range(k):
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


def connection_forms(conn: EConnection) -> FormMatrix:
    """theta[a][b] = sum over directions of gamma[a, direction, b] omega^direction."""
    a_ = conn.algebroid
    r = conn.target_rank
    entries = [[Form.zero(a_, 1) for _ in range(r)] for _ in range(r)]
    for (beta, b), value in conn.gamma.items():
        for idx, coeff in enumerate(value.coeffs):
            if not coeff.is_zero():
                entries[idx][b] = entries[idx][b] + Form(a_, 1, {(beta,): coeff})
    return FormMatrix(a_, 1, entries)


def curvature_matrix(conn: EConnection) -> FormMatrix:
    """2-form matrix of curvature values on generator pairs."""
    a_ = conn.algebroid
    r = conn.target_rank
    comps: list[list[dict]] = [[{} for _ in range(r)] for _ in range(r)]
    for (alpha, beta, b), value in conn.curvature_table().items():
        for a_idx, coeff in enumerate(value.coeffs):
            if not coeff.is_zero():
                comps[a_idx][b][(alpha, beta)] = coeff
    entries = [[Form(a_, 2, comps[i][j]) for j in range(r)] for i in range(r)]
    return FormMatrix(a_, 2, entries)


def cartan_residual(conn: EConnection) -> FormMatrix:
    """R - d(theta) - theta∧theta; identically zero."""
    theta = connection_forms(conn)
    return curvature_matrix(conn) - theta.d() - theta.wedge_mul(theta)


def char_form(conn: EConnection, k: int) -> Form:
    """Trace of the k-th wedge power of the curvature matrix."""
    if k < 1:
        raise AlgebroidError("characteristic forms start at k = 1")
    return curvature_matrix(conn).wedge_power(k).trace()


def dR_identity_residual(conn: EConnection) -> FormMatrix:
    """d(R) - d²(theta) - R∧theta + theta∧R; identically zero."""
    theta = connection_forms(conn)
    r = curvature_matrix(conn)
    return r.d() - theta.d2() - r.wedge_mul(theta) + theta.wedge_mul(r)


def trace_commutator_residual(conn: EConnection, k: int) -> Form:
    """Tr(R^k∧theta - theta∧R^k); zero by trace cyclicity."""
    theta = connection_forms(conn)
    rk = curvature_matrix(conn).wedge_power(k)
    return rk.wedge_mul(theta).trace() - theta.wedge_mul(rk).trace()


def d_trace_power_residual(conn: EConnection, k: int) -> Form:
    """d Tr(R^k) - k Tr(d²theta ∧ R^{k-1}); zero for every k >= 1."""
    theta = connection_forms(conn)
    r = curvature_matrix(conn)
    lhs = differential(r.wedge_power(k).trace())
    rhs = theta.d2().wedge_mul(r.wedge_power(k - 1)).trace()
    return lhs - rhs.scale(k)


# ---------------------------------------------------------------------------
# the interval product and the homotopy operator
# ---------------------------------------------------------------------------


@dataclass
class ProductAlgebroid:
    """An algebroid crossed with the tangent line of an interval variable."""

    base: Algebroid
    extended: Algebroid
    t_index: int  # index of the interval variable in the extended base
    et_index: int  # index of the interval generator

    def include_form(self, omega: Form) -> Form:
        """View a form on the base algebroid as a t-independent extended form."""
        comps = {key: coeff.extend(1) for key, coeff in omega.comps.items()}
        return Form(self.extended, omega.degree, comps)

    def restrict_form(self, omega: Form, u) -> Form:
        """Substitute t = u and delete interval components."""
        comps = {}
        for key, coeff in omega.comps.items():
            if self.et_index in key:
                continue
            p = coeff.subs_scalar(self.t_index, Fraction(u)).drop_var(self.t_index)
            if not p.is_zero():
                comps[key] = p
        return Form(self.base, omega.degree, comps)

    def homotopy(self, omega: Form) -> Form:
        """Integrate the interval component away; degree drops by one.

        Splitting omega = alpha + omega^t ∧ beta with the interval factor in
        front, H(omega) integrates beta's coefficients over [0, 1].  In
        components: H(omega)_S = (−1)^{|S|} ∫₀¹ c_{S ∪ {t}}, the sign being
        the cost of commuting omega^t to the front past S.
        """
        if omega.degree == 0:
            return Form.zero(self.base, 0)
        comps = {}
        for key, coeff in omega.comps.items():
            if self.et_index not in key:
                continue
            s = tuple(i for i in key if i != self.et_index)
            integrated = coeff.integrate_unit(self.t_index).drop_var(self.t_index)
            if integrated.is_zero():
                continue
            if len(s) % 2:
                integrated = -integrated
            comps[s] = comps.get(s, Poly.zero(self.base.nvars)) + integrated
        return Form(self.base, omega.degree - 1, comps)


def product_algebroid(e: Algebroid) -> ProductAlgebroid:
    """Extend the base by an interval variable t and one generator for d/dt."""
    n = e.nvars
    base_names = tuple(e.base.var_names) + ("t",)
    ext_base = BaseSpace(base_names)
    anchor = []
    for row in e.anchor:
        comps = [c.extend(1) for c in row.comps] + [Poly.zero(n + 1)]
        anchor.append(VectorField(ext_base, comps))
    dt = [Poly.zero(n + 1)] * n + [Poly.const(n + 1, 1)]
    anchor.append(VectorField(ext_base, dt))
    structure = {}
    for (i, j), value in e.structure.items():
        structure[(i, j)] = Section([c.extend(1) for c in value.coeffs] + [Poly.zero(n + 1)])
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
            v1 = first.gamma_entry(beta, b)
            v2 = second.gamma_entry(beta, b)
            coeffs = [
                c1.extend(1) * one_minus_t + c2.extend(1) * t
                for c1, c2 in zip(v1.coeffs, v2.coeffs)
            ]
            value = Section(coeffs)
            if not value.is_zero():
                gamma[(beta, b)] = value
    return EConnection(p.extended, gamma, target_gens=first.target_gens, name="interpolated")


@dataclass
class HomotopyReport:
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


@dataclass
class TransgressionReport:
    k: int
    difference: Form  # char_form(second, k) - char_form(first, k)
    primary_witness: Form  # H(Tr R~^k)
    ideal_part: Form  # H(d~ Tr R~^k)
    identity_ok: bool  # difference == d(primary) + ideal_part
    restriction_ok: bool  # interval endpoints reproduce the two curvatures
    ideal_membership: IdealDecision

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.restriction_ok and self.ideal_membership.is_member

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


@dataclass
class PullbackReport:
    k: int
    algebroid_side: Form
    base_side: Form
    residual_normal_form: Form

    @property
    def ok(self) -> bool:
        return self.residual_normal_form.is_zero()


def pullback_consistency(
    algebroid: Algebroid,
    christoffels,
    k: int,
    ideal: Lambda2Ideal | None = None,
    max_degree: int = 4,
) -> PullbackReport:
    """Induced-connection characteristic form vs anchored pullback of the base one.

    The base-side form is produced by the same Cartan machinery on the
    tangent builtin of matching dimension, then pulled back through the
    anchor; equality is asked modulo the ideal via normal forms.
    """
    from .catalog import make_tangent
    from .connection import induced_connection
    from .forms import pullback

    if ideal is None:
        ideal = Lambda2Ideal(algebroid)
    tangent = make_tangent(algebroid.nvars)
    conn = induced_connection(algebroid, christoffels, target_gens=tangent.gen_names)
    lhs = char_form(conn, k)
    base_conn = induced_connection(tangent, christoffels)
    base_form = char_form(base_conn, k)
    rhs = pullback(algebroid, base_form)
    residual = ideal.normal_form(lhs - rhs, max_degree)
    return PullbackReport(k, lhs, rhs, residual)
