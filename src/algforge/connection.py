"""Linear connections along an algebroid, and the derived rank-m+C(m,2) bundle.

An EConnection differentiates sections of a target bundle A along sections of
an algebroid E.  It is determined by its values on generator pairs (the gamma
table) and extended by the usual two rules: F-linearity in the direction slot
and the Leibniz rule over coefficients in the section slot.

Curvature on generators is computed once per connection (``curvature_table``,
read for any ordered pair by ``curvature_gen``), and every generator sweep
reads it.  ``curvature`` on arbitrary sections is not expanded over the table:
curvature is a tensor only when the anchor axioms hold, and E0_itemized fails them.

The derived bundle construction glues E and E∧E into one algebroid whose
bracket is the antisymmetrization of a lifted connection; its generator-triple
Jacobiator sweep is the mechanical heart of the Lie-ness verification for the
rank-10 example built from E0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebroid import Algebroid, AlgebroidError, Section, VectorField, vf_bracket
from .poly import Poly


class EConnection:
    """A connection on a rank-r target bundle along the given algebroid.

    gamma maps (direction generator index, target generator index) to the
    derivative section; absent entries are zero.  When ``target_gens`` is
    omitted the connection differentiates the algebroid's own sections.
    """

    def __init__(self, algebroid: Algebroid, gamma, target_gens=None, name: str = ""):
        self.algebroid = algebroid
        self.target_gens = tuple(target_gens) if target_gens is not None else algebroid.gen_names
        self.target_rank = len(self.target_gens)
        self.name = name
        self.gamma: dict[tuple[int, int], Section] = {}
        for (alpha, b), value in (gamma or {}).items():
            if not 0 <= alpha < algebroid.rank or not 0 <= b < self.target_rank:
                raise AlgebroidError("gamma index out of range")
            if value.rank != self.target_rank:
                raise AlgebroidError("gamma value has the wrong rank")
            if not value.is_zero():
                self.gamma[(alpha, b)] = value
        self._curvature_table: dict[tuple[int, int, int], Section] | None = None

    # ---- structure ----

    @property
    def is_endomorphism_valued(self) -> bool:
        """True when the target bundle is the algebroid itself."""
        return self.target_gens == self.algebroid.gen_names

    def zero_target(self) -> Section:
        return Section.zero(self.target_rank, self.algebroid.nvars)

    def gamma_entry(self, alpha: int, b: int) -> Section:
        return self.gamma.get((alpha, b), self.zero_target())

    # ---- the two extension rules ----

    def covariant_derivative(self, x: Section, s: Section) -> Section:
        if x.rank != self.algebroid.rank:
            raise AlgebroidError("direction section has the wrong rank")
        if s.rank != self.target_rank:
            raise AlgebroidError("target section has the wrong rank")
        rho_x = self.algebroid.anchor_of(x)
        out = [rho_x.apply(c) for c in s.coeffs]
        for (alpha, b), value in self.gamma.items():
            weight = x.coeffs[alpha] * s.coeffs[b]
            if weight.is_zero():
                continue
            for a, coeff in enumerate(value.coeffs):
                if not coeff.is_zero():
                    out[a] = out[a] + weight * coeff
        return Section(out)

    # ---- torsion (target = algebroid only) ----

    def _require_endo(self) -> None:
        if not self.is_endomorphism_valued:
            raise AlgebroidError("this operation needs a connection on the algebroid itself")

    def torsion(self, x: Section, y: Section) -> Section:
        self._require_endo()
        return (
            self.covariant_derivative(x, y)
            - self.covariant_derivative(y, x)
            - self.algebroid.bracket(x, y)
        )

    def is_torsion_free(self) -> bool:
        self._require_endo()
        m = self.algebroid.rank
        units = [self.algebroid.unit_section(i) for i in range(m)]
        return all(
            self.torsion(units[i], units[j]).is_zero() for i, j in combinations(range(m), 2)
        )

    # ---- curvature ----

    def curvature(self, x: Section, y: Section, s: Section) -> Section:
        bracket_xy = self.algebroid.bracket(x, y)
        return (
            self.covariant_derivative(x, self.covariant_derivative(y, s))
            - self.covariant_derivative(y, self.covariant_derivative(x, s))
            - self.covariant_derivative(bracket_xy, s)
        )

    def curvature_table(self) -> dict[tuple[int, int, int], Section]:
        """All R(e_i, e_j)e_b on generator pairs i<j; zero values omitted.

        Computed on the first call and kept: a connection, its gamma and its
        algebroid are never changed after construction.
        """
        if self._curvature_table is None:
            a_ = self.algebroid
            units = [a_.unit_section(i) for i in range(a_.rank)]
            one, zero = Poly.const(a_.nvars, 1), Poly.zero(a_.nvars)
            targets = [
                Section([one if a == b else zero for a in range(self.target_rank)])
                for b in range(self.target_rank)
            ]
            self._curvature_table = {}
            for i, j in combinations(range(a_.rank), 2):
                for b in range(self.target_rank):
                    value = self.curvature(units[i], units[j], targets[b])
                    if not value.is_zero():
                        self._curvature_table[(i, j, b)] = value
        return self._curvature_table

    def curvature_gen(self, i: int, j: int, b: int) -> Section:
        """R(e_i, e_j)e_b for any generator pair, read off the curvature table."""
        if i == j:
            return self.zero_target()
        if i < j:
            return self.curvature_table().get((i, j, b), self.zero_target())
        return -self.curvature_table().get((j, i, b), self.zero_target())

    def bianchi_defect(self, x: Section, y: Section, z: Section) -> Section:
        """Cyclic curvature sum minus its torsion expansion; identically zero.

        LHS: sum_cyc R(X,Y)Z.  RHS: sum_cyc (nabla_X T)(Y,Z)
             + sum_cyc T(T(X,Y),Z) + Jacobiator(X,Y,Z), where
        (nabla_X T)(Y,Z) = nabla_X(T(Y,Z)) - T(nabla_X Y, Z) - T(Y, nabla_X Z).
        """
        self._require_endo()

        def nabla_t(a: Section, b: Section, c: Section) -> Section:
            return (
                self.covariant_derivative(a, self.torsion(b, c))
                - self.torsion(self.covariant_derivative(a, b), c)
                - self.torsion(b, self.covariant_derivative(a, c))
            )

        lhs = self.algebroid.zero_section()
        rhs = self.algebroid.jacobiator(x, y, z)
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            lhs = lhs + self.curvature(a, b, c)
            rhs = rhs + nabla_t(a, b, c) + self.torsion(self.torsion(a, b), c)
        return lhs - rhs


def flat_connection(algebroid: Algebroid, name: str = "flat") -> EConnection:
    """The connection with every gamma entry zero."""
    return EConnection(algebroid, {}, name=name)


def induced_connection(
    algebroid: Algebroid, christoffels, target_gens=None, name: str = "induced"
) -> EConnection:
    """Pull a base-coordinate linear connection back through the anchor.

    ``christoffels[j][a][b]`` is the e_a-coefficient of the derivative of the
    b-th target generator along the j-th coordinate field; the algebroid
    connection differentiates along the anchor image, so
    gamma[(beta, b)][a] = sum_j anchor(e_beta)_j * christoffels[j][a][b].
    """
    n = algebroid.nvars
    if len(christoffels) != n:
        raise AlgebroidError("need one Christoffel matrix per base variable")
    rank = len(christoffels[0])
    gens = tuple(target_gens) if target_gens is not None else algebroid.gen_names
    if len(gens) != rank:
        raise AlgebroidError("target generator names must match the Christoffel rank")
    gamma = {}
    for beta in range(algebroid.rank):
        rho = algebroid.anchor[beta]
        for b in range(rank):
            coeffs = [Poly.zero(n) for _ in range(rank)]
            for j in range(n):
                rj = rho.comps[j]
                if rj.is_zero():
                    continue
                for a in range(rank):
                    entry = christoffels[j][a][b]
                    if not entry.is_zero():
                        coeffs[a] = coeffs[a] + rj * entry
            value = Section(coeffs)
            if not value.is_zero():
                gamma[(beta, b)] = value
    return EConnection(algebroid, gamma, target_gens=gens, name=name)


# ---------------------------------------------------------------------------
# the derived bundle E (+) (E wedge E)
# ---------------------------------------------------------------------------


@dataclass
class DerivedBundle:
    """E extended by its own wedge square, bracketed by a lifted connection."""

    base_algebroid: Algebroid
    connection: EConnection
    derived: Algebroid
    lifted: EConnection
    plain_ext: EConnection
    wedge_pairs: list[tuple[int, int]]

    @property
    def m(self) -> int:
        return self.base_algebroid.rank

    def wedge_position(self, i: int, j: int) -> tuple[int, int]:
        """Derived index of e_i∧e_j together with the orientation sign."""
        if i == j:
            raise AlgebroidError("wedge of a generator with itself is zero")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        return self.m + self.wedge_pairs.index((i, j)), sign

    def e_part(self, s: Section) -> Section:
        return Section(s.coeffs[: self.m])

    def wedge_part_is_zero(self, s: Section) -> bool:
        return all(c.is_zero() for c in s.coeffs[self.m :])

    def wedge_of(self, u: Section, v: Section) -> Section:
        """Derived section u∧v of two E-sections."""
        nvars = self.base_algebroid.nvars
        coeffs = [Poly.zero(nvars)] * (self.m + len(self.wedge_pairs))
        for idx, (i, j) in enumerate(self.wedge_pairs):
            coeffs[self.m + idx] = u.coeffs[i] * v.coeffs[j] - u.coeffs[j] * v.coeffs[i]
        return Section(coeffs)


def derive_bundle(conn: EConnection, include_half_correction: bool = True) -> DerivedBundle:
    """Build the derived algebroid of a torsion-free connection on E.

    Generators: the m of E followed by the C(m,2) wedges e_i∧e_j (i<j).
    Anchor: unchanged on E; on wedges the anchor-compatibility defect of the
    pair (zero whenever E passes check_axioms).  The bracket is the
    antisymmetrized lifted connection, whose gamma is assembled from four
    blocks: plain derivatives plus half a wedge on (E, E) pairs, the Leibniz
    extension over wedges, curvature on (wedge, E) pairs, and the curvature
    Leibniz rule on (wedge, wedge) pairs.  ``include_half_correction=False``
    drops the half-wedge term, giving the plain extension operator that the
    derived-curvature identities are phrased in.
    """
    if not conn.is_endomorphism_valued:
        raise AlgebroidError("derive_bundle needs a connection on the algebroid itself")
    if not conn.is_torsion_free():
        raise AlgebroidError("derive_bundle needs a torsion-free connection")
    e = conn.algebroid
    m, nvars = e.rank, e.nvars
    pairs = list(combinations(range(m), 2))
    total = m + len(pairs)
    gen_names = list(e.gen_names) + [
        f"{e.gen_names[i]}^{e.gen_names[j]}" for i, j in pairs
    ]

    units = [e.unit_section(i) for i in range(m)]

    def wedge_coeffs(u: Section, v: Section) -> list[Poly]:
        return [
            u.coeffs[i] * v.coeffs[j] - u.coeffs[j] * v.coeffs[i] for i, j in pairs
        ]

    def lift(e_sec: Section, wedge: list[Poly] | None = None) -> Section:
        tail = wedge if wedge is not None else [Poly.zero(nvars)] * len(pairs)
        return Section(list(e_sec.coeffs) + tail)

    zero_e = e.zero_section()

    def on_wedge(image_k: Section, image_l: Section, k: int, l: int) -> Section:
        """An E-endomorphism taking e_k, e_l to image_k, image_l, applied to e_k∧e_l by the Leibniz rule."""
        wedge = [a + b for a, b in zip(wedge_coeffs(image_k, units[l]), wedge_coeffs(units[k], image_l))]
        return lift(zero_e, wedge)

    # anchor
    anchor = [VectorField(e.base, row.comps) for row in e.anchor]
    for i, j in pairs:
        defect = vf_bracket(e.anchor[i], e.anchor[j]) - e.anchor_of(e.bracket_gen(i, j))
        anchor.append(defect)

    def build_gamma(half: bool) -> dict[tuple[int, int], Section]:
        gamma: dict[tuple[int, int], Section] = {}
        # (E generator, E generator)
        half_w = Fraction(1, 2)
        for alpha in range(m):
            for b in range(m):
                base = conn.gamma_entry(alpha, b)
                wedge = None
                if half:
                    wedge = [c * half_w for c in wedge_coeffs(units[alpha], units[b])]
                value = lift(base, wedge)
                if not value.is_zero():
                    gamma[(alpha, b)] = value
        # (E generator, wedge): Leibniz over the wedge
        for alpha in range(m):
            for w, (k, l) in enumerate(pairs):
                value = on_wedge(conn.gamma_entry(alpha, k), conn.gamma_entry(alpha, l), k, l)
                if not value.is_zero():
                    gamma[(alpha, m + w)] = value
        # (wedge, E generator): curvature
        for (i, j, b), value in conn.curvature_table().items():
            gamma[(m + pairs.index((i, j)), b)] = lift(value)
        # (wedge, wedge): curvature acts as a derivation over the wedge
        for w, (i, j) in enumerate(pairs):
            for w2, (k, l) in enumerate(pairs):
                value = on_wedge(conn.curvature_gen(i, j, k), conn.curvature_gen(i, j, l), k, l)
                if not value.is_zero():
                    gamma[(m + w, m + w2)] = value
        return gamma

    lifted_gamma = build_gamma(half=include_half_correction)
    plain_gamma = build_gamma(half=False)

    # derived bracket = antisymmetrized lifted connection on generators
    def gamma_lookup(gamma, p, q):
        return gamma.get((p, q), Section.zero(total, nvars))

    structure = {}
    for p in range(total):
        for q in range(p + 1, total):
            value = gamma_lookup(lifted_gamma, p, q) - gamma_lookup(lifted_gamma, q, p)
            if not value.is_zero():
                structure[(p, q)] = value

    derived = Algebroid(
        e.base, gen_names, anchor, structure, name=(e.name or "E") + "_derived"
    )
    lifted = EConnection(derived, lifted_gamma, name="lifted")
    plain = EConnection(derived, plain_gamma, name="plain-extension")
    return DerivedBundle(e, conn, derived, lifted, plain, pairs)


# ---------------------------------------------------------------------------
# the five derived-curvature identities
# ---------------------------------------------------------------------------


@dataclass
class PrhelpItem:
    number: int
    label: str
    checked: int
    failures: list  # (tuple of generator labels, defect Section)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class PrhelpReport:
    items: list[PrhelpItem]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def describe(self) -> str:
        lines = []
        for item in self.items:
            status = "ok" if item.ok else f"{len(item.failures)} failures"
            lines.append(f"item {item.number} ({item.label}): {item.checked} tuples, {status}")
        return "\n".join(lines)


def verify_prhelp(d: DerivedBundle) -> PrhelpReport:
    """Check the five structural identities of the derived curvature.

    Writing R1 for the curvature of the lifted connection and D for the plain
    extension operator (curvature on wedge directions, Leibniz over wedge
    arguments, no half-wedge term):

      1. R1(X, Y) kills every derived generator, for X, Y in E.
      2. R1(X1∧X2, Y)Z expands as the D-commutator
         D_{X1∧X2} D_Y Z − D_Y D_{X1∧X2} Z − D_{D_{X1∧X2} Y} Z + D_{D_Y(X1∧X2)} Z.
      3. R1(X1∧X2, Y) is a derivation over wedges.
      4. Same D-commutator expansion with both directions wedges.
      5. R1 with two wedge directions is a derivation over wedges.
    """
    e = d.base_algebroid
    m, total = e.rank, d.derived.rank
    names = d.derived.gen_names
    units = [d.derived.unit_section(t) for t in range(total)]
    e_units = [e.unit_section(i) for i in range(m)]
    r1 = d.lifted.curvature_gen
    plain_d = d.plain_ext.covariant_derivative

    # item 1: curvature with two E directions vanishes on everything
    failures = [
        ((names[i], names[j], names[t]), value)
        for (i, j, t), value in d.lifted.curvature_table().items()
        if j < m
    ]
    items = [PrhelpItem(1, "E-direction curvature vanishes", m * (m - 1) // 2 * total, failures)]

    def commutator_form(number: int, label: str, second: range) -> PrhelpItem:
        """Items 2 and 4: wedge-direction curvature equals the plain commutator expression."""
        failures = []
        checked = 0
        for w in range(m, total):
            for y in second:
                for z in range(m):
                    checked += 1
                    wu, yu, zu = units[w], units[y], units[z]
                    rhs = (
                        plain_d(wu, plain_d(yu, zu))
                        - plain_d(yu, plain_d(wu, zu))
                        - plain_d(plain_d(wu, yu), zu)
                        + plain_d(plain_d(yu, wu), zu)
                    )
                    defect = r1(w, y, z) - rhs
                    if not defect.is_zero():
                        failures.append(((names[w], names[y], names[z]), defect))
        return PrhelpItem(number, label, checked, failures)

    def derivation_rule(number: int, label: str, second: range) -> PrhelpItem:
        """Items 3 and 5: wedge-direction curvature is a derivation over wedge arguments."""
        failures = []
        checked = 0
        for w in range(m, total):
            for y in second:
                for t, (k, l) in enumerate(d.wedge_pairs, start=m):
                    checked += 1
                    lhs = r1(w, y, t)
                    rz, rt = r1(w, y, k), r1(w, y, l)
                    if not (d.wedge_part_is_zero(rz) and d.wedge_part_is_zero(rt)):
                        failures.append(((names[w], names[y], names[t]), lhs))
                        continue
                    rhs = d.wedge_of(d.e_part(rz), e_units[l]) + d.wedge_of(e_units[k], d.e_part(rt))
                    defect = lhs - rhs
                    if not defect.is_zero():
                        failures.append(((names[w], names[y], names[t]), defect))
        return PrhelpItem(number, label, checked, failures)

    e_dirs, wedge_dirs = range(m), range(m, total)
    items += [
        commutator_form(2, "wedge/E curvature commutator form", e_dirs),
        derivation_rule(3, "wedge/E curvature derivation rule", e_dirs),
        commutator_form(4, "wedge/wedge curvature commutator form", wedge_dirs),
        derivation_rule(5, "wedge/wedge curvature derivation rule", wedge_dirs),
    ]
    return PrhelpReport(items)
