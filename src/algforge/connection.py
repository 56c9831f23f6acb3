"""Linear connections along an algebroid, and the derived rank-m+C(m,2) bundle.

An EConnection differentiates sections of a target bundle A along sections of
an algebroid E.  It is determined by its values on generator pairs (the gamma
table) and extended by the usual two rules: F-linearity in the direction slot
and the Leibniz rule over coefficients in the section slot.  Both come from
the one Leibniz kernel in ``algebroid``: nabla_X s is the anchored derivative
D_X s (``Algebroid.derivative``) plus ``pair_sum`` over the gamma table, both
adding into one term dict.

Every generator-level table is read off the gamma and structure tables in
closed form, each value one term dict finished once, with no section-level
call nested in another:

* curvature (``curvature_table``, computed once per connection and read for
  any ordered pair by ``curvature_gen``):
  R(e_i, e_j)e_b = nabla_{e_i} gamma(j, b) - nabla_{e_j} gamma(i, b) - sum_c c^c_ij gamma(c, b),
  where nabla_{e_i} of a polynomial section is the anchored derivative along
  rho(e_i) plus the gamma(i, .) rows shifted by each of its terms;
* torsion on generator pairs (``torsion_table``):
  T(e_i, e_j) = gamma(i, j) - gamma(j, i) - c_ij;
* the Bianchi defect on generator triples (``bianchi_table``): R from the
  curvature table, the Jacobiator from ``Algebroid.jacobiator_table``, and T
  of any section as a ``pair_sum`` over the torsion table.  T is F-linear in
  each slot whatever the anchor, because the bracket and nabla are both
  Leibniz extensions, so no axiom check is needed first.

``curvature`` on arbitrary sections stays the Leibniz expansion, not a read
of the table: curvature is a tensor only when the anchor axioms hold, and
E0_itemized fails them.  The tests check each closed form against the Leibniz
expansion on unit sections.

The derived bundle construction glues E and E∧E into one algebroid whose
bracket is the antisymmetrization of a lifted connection.  One rule builds
it: along each derived direction an E-endomorphism A_p (a gamma row, or the
curvature of a wedge direction) acts on E and on wedges by the Leibniz rule,
and lifted = plain + ½ wedge on (E, E) pairs.  Its generator-triple
Jacobiator sweep is the mechanical heart of the Lie-ness verification for the
rank-10 example built from E0; ``verify_prhelp`` checks its lifted curvature
against the plain extension's curvature table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .algebroid import (
    Algebroid,
    AlgebroidError,
    Section,
    _clean,
    _pair_add,
    _pair_table,
    _section,
    map_section,
    pair_sum,
    sweep,
    vf_bracket,
)


def _add_terms(out: dict, terms: dict, sign: int = 1) -> None:
    """Add sign * terms to the term dict ``out``."""
    for key, c in terms.items():
        out[key] = out.get(key, 0) + sign * c


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
        self._gamma_table = _pair_table(self.gamma, skew=False)
        self._curvature_table: dict[tuple[int, int, int], Section] | None = None

    # ---- structure ----

    @property
    def is_endomorphism_valued(self) -> bool:
        """True when the target bundle is the algebroid itself."""
        return self.target_gens == self.algebroid.gen_names

    def zero_target(self) -> Section:
        return Section.zero(self.target_rank, self.algebroid.nvars)

    def gamma_entry(self, alpha: int, b: int) -> Section:
        value = self.gamma.get((alpha, b))
        return self.zero_target() if value is None else value

    # ---- the two extension rules ----

    def _nabla(self, out: dict, x: Section, s: Section, sign: int = 1) -> dict:
        """Add sign * nabla_X s = sign * (D_X s + sum_{alpha, b} X_alpha s_b gamma(alpha, b)) to ``out``."""
        return _pair_add(self.algebroid.derivative(out, x, s, sign), x, s, self._gamma_table, sign)

    def covariant_derivative(self, x: Section, s: Section) -> Section:
        """nabla_X s = D_X s + sum_{alpha, b} X_alpha s_b gamma(alpha, b)."""
        if x.rank != self.algebroid.rank:
            raise AlgebroidError("direction section has the wrong rank")
        if s.rank != self.target_rank:
            raise AlgebroidError("target section has the wrong rank")
        return s._like(_clean(self._nabla({}, x, s)))

    # ---- torsion (target = algebroid only) ----

    def _require_endo(self) -> None:
        if not self.is_endomorphism_valued:
            raise AlgebroidError("this operation needs a connection on the algebroid itself")

    def torsion_table(self) -> dict[tuple[int, int], Section]:
        """T(e_i, e_j) = gamma(i, j) - gamma(j, i) - c_ij on generator pairs i < j; zero values omitted."""
        self._require_endo()
        a = self.algebroid

        def value(i: int, j: int) -> Section:
            out: dict = {}
            _add_terms(out, self.gamma_entry(i, j).terms)
            _add_terms(out, self.gamma_entry(j, i).terms, -1)
            _add_terms(out, a.bracket_gen(i, j).terms, -1)
            return _section(a.rank, a.nvars, _clean(out))

        return sweep(a.rank, 2, value)

    def is_torsion_free(self) -> bool:
        return not self.torsion_table()

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

        Read off the gamma and structure tables in closed form:
        R(e_i, e_j)e_b = nabla_{e_i} gamma(j, b) - nabla_{e_j} gamma(i, b) - sum_c c^c_ij gamma(c, b),
        one term dict per value.  Computed on the first call and kept: a
        connection, its gamma and its algebroid are never changed after
        construction.
        """
        if self._curvature_table is None:
            a_, g, units = self.algebroid, self.gamma, self.algebroid.units
            targets = [_section(self.target_rank, a_.nvars, {(b, 0): 1}) for b in range(self.target_rank)]
            self._curvature_table = {}
            for i, j in combinations(range(a_.rank), 2):
                bracket = a_.bracket_gen(i, j)
                for b in range(self.target_rank):
                    out: dict = {}
                    if (j, b) in g:
                        self._nabla(out, units[i], g[j, b])
                    if (i, b) in g:
                        self._nabla(out, units[j], g[i, b], -1)
                    terms = _clean(_pair_add(out, bracket, targets[b], self._gamma_table, -1))
                    if terms:
                        self._curvature_table[(i, j, b)] = _section(self.target_rank, a_.nvars, terms)
        return self._curvature_table

    def curvature_gen(self, i: int, j: int, b: int) -> Section:
        """R(e_i, e_j)e_b for any generator pair, read off the curvature table."""
        if i == j:
            return self.zero_target()
        value = self.curvature_table().get((i, j, b) if i < j else (j, i, b))
        if value is None:
            return self.zero_target()
        return value if i < j else -value

    def bianchi_table(self) -> dict[tuple[int, int, int], Section]:
        """The Bianchi defect on generator triples i < j < k; zero values omitted.

        The defect is sum_cyc R(X,Y)Z minus the sum of sum_cyc (nabla_X T)(Y,Z),
        sum_cyc T(T(X,Y),Z) and Jacobiator(X,Y,Z), where
        (nabla_X T)(Y,Z) = nabla_X(T(Y,Z)) - T(nabla_X Y, Z) - T(Y, nabla_X Z);
        it is identically zero.  T is F-linear in each slot, so on generators
        R is read off the curvature table, the Jacobiator off
        ``Algebroid.jacobiator_table``, and every T of a section is a pair sum
        over the torsion table.  Each triple's defect is one term dict.
        """
        self._require_endo()
        a = self.algebroid
        u, jacobiators = a.units, a.jacobiator_table
        torsion = _pair_table(self.torsion_table())

        def defect(i: int, j: int, k: int) -> Section:
            out: dict = {}
            for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                _add_terms(out, self.curvature_gen(p, q, r).terms)
                # - nabla_p T(q, r) + T(nabla_p e_q, e_r) + T(e_q, nabla_p e_r)
                found = torsion.get((q, r))
                if found is not None:
                    self._nabla(out, u[p], found[0], -found[1])
                _pair_add(out, self.gamma_entry(p, q), u[r], torsion)
                _pair_add(out, u[q], self.gamma_entry(p, r), torsion)
                # - T(T(e_p, e_q), e_r)
                found = torsion.get((p, q))
                if found is not None:
                    _pair_add(out, found[0], u[r], torsion, -found[1])
            _add_terms(out, jacobiators.get((i, j, k), a.zero_section()).terms, -1)
            return _section(a.rank, a.nvars, _clean(out))

        return sweep(a.rank, 3, defect)


def flat_connection(algebroid: Algebroid, name: str = "flat") -> EConnection:
    """The connection with every gamma entry zero."""
    return EConnection(algebroid, {}, name=name)


def induced_connection(algebroid: Algebroid, base: EConnection, name: str = "induced") -> EConnection:
    """Pull a connection on the base's tangent bundle back through the anchor.

    ``base`` is a connection along the tangent bundle of the algebroid's base
    (``tangent_bundle(algebroid.base)``: generator j is d/dx_j) on any target bundle.  The
    algebroid connection differentiates along the anchor image, so
    gamma(beta, b) is rho(e_beta) under the bundle map
    d/dx_j -> base.gamma(j, b), on the same target.
    """
    tangent, n = base.algebroid, algebroid.nvars
    identity = [{(j, 0): 1} for j in range(n)]
    if tangent.base != algebroid.base or [rho.terms for rho in tangent.anchor] != identity or tangent.structure:
        raise AlgebroidError("the base connection must be along the tangent bundle of the algebroid's base")
    maps = [[base.gamma_entry(j, b) for j in range(n)] for b in range(base.target_rank)]
    gamma = {
        (beta, b): map_section(images, rho) for beta, rho in enumerate(algebroid.anchor) for b, images in enumerate(maps)
    }
    return EConnection(algebroid, gamma, target_gens=base.target_gens, name=name)


# ---------------------------------------------------------------------------
# the derived bundle E (+) (E wedge E)
# ---------------------------------------------------------------------------


class DerivedBundle(NamedTuple):
    """E extended by its own wedge square, bracketed by a lifted connection."""

    base_algebroid: Algebroid
    derived: Algebroid
    lifted: EConnection
    plain_ext: EConnection
    wedge: dict[tuple[int, int], tuple[Section, int]]  # (i, j) either way -> (e_i∧e_j stored on i < j, sign)

    @property
    def m(self) -> int:
        return self.base_algebroid.rank

    @property
    def wedge_pairs(self) -> list[tuple[int, int]]:
        return list(combinations(range(self.m), 2))

    def e_part(self, s: Section) -> Section:
        return _section(self.m, s.nvars, {key: c for key, c in s.terms.items() if key[0] < self.m})

    def wedge_part_is_zero(self, s: Section) -> bool:
        return all(a < self.m for a, _ in s.terms)

    def wedge_of(self, u: Section, v: Section) -> Section:
        """Derived section u∧v of two E-sections."""
        return pair_sum({}, u, _section(self.derived.rank, v.nvars, v.terms), self.wedge)


def derive_bundle(conn: EConnection, include_half_correction: bool = True) -> DerivedBundle:
    """Build the derived algebroid of a torsion-free connection on E.

    Generators: the m of E followed by the C(m,2) wedges e_i∧e_j (i<j).
    Anchor: unchanged on E; on wedges the anchor-compatibility defect of the
    pair (zero whenever E passes check_axioms).

    Along each derived direction p one E-endomorphism A_p acts: the gamma row
    e_b -> Γ(p, b) of an E direction, or the curvature e_b -> R(e_i, e_j)e_b
    of a wedge direction e_i∧e_j.  The plain extension applies A_p to the E
    generators and to each wedge by the Leibniz rule,
    A_p(e_k∧e_l) = A_p e_k ∧ e_l + e_k ∧ A_p e_l.  The lifted connection is the
    plain one plus ½ e_α∧e_b on (E, E) pairs, and the bracket is its
    antisymmetrization.  Every wedge is a ``pair_sum`` over the skew table
    e_i, e_j -> e_i∧e_j.  ``include_half_correction=False`` drops the
    half-wedge term, so the lifted connection equals the plain extension.
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

    def lift(s: Section) -> Section:
        """An E-section as a derived section."""
        return _section(total, nvars, s.terms)

    units = [lift(u) for u in e.units]
    wedge = _pair_table({pair: _section(total, nvars, {(w, 0): 1}) for w, pair in enumerate(pairs, start=m)})

    anchor = list(e.anchor) + [
        vf_bracket(e.anchor[i], e.anchor[j]) - e.anchor_of(e.bracket_gen(i, j)) for i, j in pairs
    ]

    # A_p as the images of e_0 .. e_{m-1}, for every derived direction p
    actions = [[conn.gamma_entry(p, b) for b in range(m)] for p in range(m)]
    actions += [[conn.curvature_gen(i, j, b) for b in range(m)] for i, j in pairs]
    plain: dict[tuple[int, int], Section] = {}
    for p, action in enumerate(actions):
        image = [lift(s) for s in action]
        for b in range(m):
            plain[p, b] = image[b]
        for w, (k, l) in enumerate(pairs, start=m):
            plain[p, w] = pair_sum({}, image[k], units[l], wedge) + pair_sum({}, units[k], image[l], wedge)

    lifted = dict(plain)
    if include_half_correction:
        half = Fraction(1, 2)
        for a in range(m):
            for b in range(m):
                lifted[a, b] = plain[a, b] + pair_sum({}, units[a], units[b], wedge).scale(half)

    structure = {(p, q): lifted[p, q] - lifted[q, p] for p, q in combinations(range(total), 2)}
    derived = Algebroid(e.base, gen_names, anchor, structure, name=(e.name or "E") + "_derived")
    return DerivedBundle(
        e,
        derived,
        EConnection(derived, lifted, name="lifted"),
        EConnection(derived, plain, name="plain-extension"),
        wedge,
    )


# ---------------------------------------------------------------------------
# the five derived-curvature identities
# ---------------------------------------------------------------------------


class PrhelpItem(NamedTuple):
    number: int
    label: str
    checked: int
    failures: list  # (tuple of generator labels, defect Section)

    @property
    def ok(self) -> bool:
        return not self.failures


class PrhelpReport(NamedTuple):
    items: list[PrhelpItem]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def verify_prhelp(d: DerivedBundle) -> PrhelpReport:
    """Check the five structural identities of the derived curvature.

    Writing R1 for the curvature of the lifted connection and D for the plain
    extension operator (curvature on wedge directions, Leibniz over wedge
    arguments, no half-wedge term):

      1. R1(X, Y) kills every derived generator, for X, Y in E.
      2. R1 agrees with the plain extension's curvature on wedge directions:
         R1(X1∧X2, Y)Z is the D-commutator
         D_{X1∧X2} D_Y Z − D_Y D_{X1∧X2} Z − D_{D_{X1∧X2} Y} Z + D_{D_Y(X1∧X2)} Z.
      3. R1(X1∧X2, Y) is a derivation over wedges.
      4. Item 2 with both directions wedges.
      5. R1 with two wedge directions is a derivation over wedges.

    On unit sections the D-commutator is that curvature: D_{e_y} e_z is a plain
    gamma entry, and D_{e_w} e_y − D_{e_y} e_w is the derived structure c_wy,
    since the lifted and plain connections differ only on (E, E) pairs.
    """
    e = d.base_algebroid
    m, total = e.rank, d.derived.rank
    names = d.derived.gen_names
    e_units = e.units
    r1, plain_r = d.lifted.curvature_gen, d.plain_ext.curvature_gen

    # item 1: curvature with two E directions vanishes on everything
    failures = [
        ((names[i], names[j], names[t]), value)
        for (i, j, t), value in d.lifted.curvature_table().items()
        if j < m
    ]
    items = [PrhelpItem(1, "E-direction curvature vanishes", m * (m - 1) // 2 * total, failures)]

    def commutator_form(number: int, label: str, second: range) -> PrhelpItem:
        """Items 2 and 4: wedge-direction curvature equals the plain extension's."""
        failures = []
        checked = 0
        for w in range(m, total):
            for y in second:
                for z in range(m):
                    checked += 1
                    defect = r1(w, y, z) - plain_r(w, y, z)
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
