"""Anchored vector bundles with skew brackets over polynomial coefficient rings.

An algebroid here is a rank-m bundle over a polynomial base, given by

* an anchor: the image rho(e_a) of every generator, a base vector field, and
* a structure table: the bracket [e_i, e_j] for i < j, skew-extended.

A section is one flat dict {(generator, packed monomial): coefficient}
(``poly._pack``).  A vector field is a section of the base's tangent bundle
(slot j is d/dx_j), a k-form (``forms.Form``) one of Λ^k E*; all three share
one arithmetic, ``_Terms``, whose sparse ``split`` (one unpacked Poly per
nonzero slot) is what ``sum_text``, the one renderer of a sum over a basis,
reads: sections over their generators, vector fields over d1..dn and forms
(``form_text``) over their wedges, each printed as the document language
writes it.  ``_slot_terms`` is its inverse, the one conversion of (slot, Poly)
pairs into a term dict.  ``Section.coeffs``, one Poly per generator, is kept
for matrix rows.
``map_section`` applies any bundle map given by its images.  Brackets of
arbitrary polynomial sections are produced from the table by the Leibniz
expansion, written once for every generator-pair table (structure, bracket
modifier, connection gamma) as loops that add straight into one output
dict: the pair-table sum ``pair_sum`` and the anchored derivative
``Algebroid.derivative``.  ``apply_row`` is the one loop that applies a
vector field to polynomial terms.  The two axioms that make such a bundle
an almost Lie algebroid — the Leibniz rule (true by construction) and anchor
compatibility rho([X,Y]) = [rho X, rho Y] — reduce to polynomial identities
on generator pairs, which is what check_axioms sweeps.  Vanishing of the
Jacobiator (the Lie condition) is likewise tensorial once the axioms hold,
so check_lie sweeps generator triples only.  Every such check reads its
values off one ``sweep`` over the increasing generator tuples.  The
Jacobiator on a generator triple (``Algebroid.jacobiator_gen``) is read off
the structure table in closed form: along a unit direction
[e_p, c_qr] = rho(e_p)(c_qr) + sum_c c^c_qr [e_p, e_c], one anchored
derivative and one pair-table sum per rotation, all three added into one
term dict; ``Algebroid.jacobiator_table`` keeps its values on the
increasing triples, built once per algebroid.  ``jacobiator`` on arbitrary
sections stays the nested Leibniz bracket, and the tests check the closed
form against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from . import linsolve, witness
from .poly import FIELD_BITS, Poly, _MASK, _degree, _fold, _merge, _pack, _trusted, _unpack
from .reports import INCONCLUSIVE, PASS


class AlgebroidError(ValueError):
    """Raised for structural misuse (rank mismatches, violated invariants)."""


# ---------------------------------------------------------------------------
# base space, vector fields, sections
# ---------------------------------------------------------------------------


class BaseSpace:
    """A coordinate base R^n with named variables."""

    __slots__ = ("dim", "var_names")

    def __init__(self, var_names: tuple[str, ...] | list[str]):
        names = tuple(var_names)
        if len(set(names)) != len(names):
            raise AlgebroidError("base variable names must be unique")
        self.var_names = names
        self.dim = len(names)

    def __eq__(self, other):
        return isinstance(other, BaseSpace) and self.var_names == other.var_names

    def __repr__(self):
        return f"BaseSpace({', '.join(self.var_names)})"


class _Terms:
    """The arithmetic of sections of any bundle: E, TM (``VectorField``),
    Λ^k E* (``forms.Form``) or a matrix of forms (``charclass.FormMatrix``),
    as one term dict {(slot, packed monomial): coefficient}.
    A subclass gives ``nvars``, ``_like`` and ``_check_sum``, which refuses a
    summand that is not a section of its bundle.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def split(self) -> dict:
        """The nonzero coefficients as {slot: Poly}, in slot order (built on each read)."""
        split: dict = {}
        n = self.nvars
        for (slot, exps), c in self.terms.items():
            split.setdefault(slot, {})[_unpack(exps, n)] = c
        return {slot: _trusted(n, split[slot]) for slot in sorted(split)}

    def __add__(self, other):
        self._check_sum(other)
        return self._like(_merge(self.terms, other.terms))

    def __sub__(self, other):
        self._check_sum(other)
        return self._like(_merge(self.terms, other.terms, negate=True))

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, f: Poly | int | Fraction):
        if not isinstance(f, Poly):
            f = Poly.const(self.nvars, f)
        out, f_items = {}, _packed(f).items()
        for (slot, exps), c in self.terms.items():
            _add_shifted(out, slot, exps, c, f_items)
        return self._like(_clean(out))


class Section(_Terms):
    """A bundle section as one flat term dict {(generator, packed monomial): coefficient}.

    Coefficients are in the ``poly`` normal form: nonzero, an int where
    integral and a Fraction otherwise.  The dict is the only copy of the
    coefficients; ``split`` reads them back sparse, ``coeffs`` as one Poly
    per generator.
    Sums, negation and ``scale`` are the ``_Terms`` arithmetic, shared with
    vector fields (sections of TM) and forms (sections of Λ^k E*).
    """

    __slots__ = ("rank", "nvars")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        self.rank = len(coeffs)
        self.nvars = coeffs[0].nvars if coeffs else 0
        self.terms = _slot_terms(enumerate(coeffs))

    @staticmethod
    def zero(rank: int, nvars: int) -> Section:
        return _section(rank, nvars, {})

    def _like(self, terms: dict) -> Section:
        """A section of the same bundle with the given normal-form term dict."""
        return _section(self.rank, self.nvars, terms)

    def _check_sum(self, other: Section) -> None:
        if not isinstance(other, Section) or (self.rank, self.nvars) != (other.rank, other.nvars):
            raise AlgebroidError("sections of bundles of different rank or over different bases")

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The coefficient of every generator as a Poly, zeros included: the dense view of matrix rows."""
        split = self.split
        return tuple(split[a] if a in split else _trusted(self.nvars, {}) for a in range(self.rank))

    def __eq__(self, other):
        same_bundle = isinstance(other, Section) and (self.rank, self.nvars) == (other.rank, other.nvars)
        return same_bundle and self.terms == other.terms

    def min_degree(self) -> int:
        """Smallest total degree over all nonzero coefficient terms (-1 if zero)."""
        return min((_degree(exps) for _, exps in self.terms), default=-1)

    def __repr__(self):
        return f"Section({self.split!r})"


class VectorField(Section):
    """A polynomial vector field sum_j coeffs[j] * d/dx_j on the base.

    It is a section of the base's tangent bundle: rank and nvars are the
    base dimension, and slot j is d/dx_j.
    """

    __slots__ = ("base", "_moves")

    def __init__(self, base: BaseSpace, comps):
        comps = tuple(comps)
        if len(comps) != base.dim:
            raise AlgebroidError("vector field has the wrong number of components")
        super().__init__(comps)
        self.base, self._moves = base, None

    def _like(self, terms: dict) -> VectorField:
        return _vector_field(self.base, terms)

    @property
    def moves(self) -> list[tuple[int, int, int | Fraction, None]]:
        """The ``apply_row`` moves (field shift of x_j, packed x^e / x_j, c, None)
        of the terms c x^e d/dx_j; built on first use and kept."""
        if self._moves is None:
            at = [FIELD_BITS * (self.nvars - 1 - j) for j in range(self.nvars)]
            self._moves = [(at[j], e - (1 << at[j]), c, None) for (j, e), c in self.terms.items()]
        return self._moves

    def apply(self, f: Poly) -> Poly:
        """Directional derivative of a coefficient function."""
        out = apply_row({}, self.moves, _slot_terms([(None, f)]).items())
        return Poly(self.nvars, {_unpack(exps, self.nvars): c for (_, exps), c in out.items()})

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.base == other.base and self.terms == other.terms

    def to_text(self) -> str:
        return sum_text(self.split, [f"d{j + 1}" for j in range(self.nvars)], self.base.var_names)

    def __repr__(self):
        return f"VectorField({self.to_text()})"


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket of base vector fields: components v(w_k) - w(v_k)."""
    if v.base != w.base:
        raise AlgebroidError("vector fields live over different bases")
    # the terms of w on slot k are differentiated along v and stay on slot k
    out = apply_row(apply_row({}, v.moves, w.terms.items()), w.moves, v.terms.items(), -1)
    return _vector_field(v.base, _clean(out))


def _section(rank: int, nvars: int, terms: dict) -> Section:
    """Wrap a term dict already in normal form."""
    s = object.__new__(Section)
    s.rank, s.nvars, s.terms = rank, nvars, terms
    return s


def _vector_field(base: BaseSpace, terms: dict) -> VectorField:
    """Wrap a term dict already in normal form as a vector field on the base."""
    v = object.__new__(VectorField)
    v.rank = v.nvars = base.dim
    v.base, v.terms, v._moves = base, terms, None
    return v


def _clean(out: dict) -> dict:
    """An accumulated term dict (the caller's own) in normal form: zero sums dropped, integral Fractions made ints."""
    if 0 in out.values():
        out = {key: c for key, c in out.items() if c}
    return _fold(out)


def _packed(p: Poly) -> dict:
    """A Poly's terms keyed by packed monomials, behind the field-width guard of ``poly._pack``."""
    try:
        return {_pack(exps): c for exps, c in p.terms.items()}
    except OverflowError as err:
        raise AlgebroidError(str(err)) from None


def _slot_terms(pairs) -> dict:
    """The term dict of (slot, Poly) pairs, slots in the order given: the inverse of ``_Terms.split``."""
    return {(slot, exps): c for slot, p in pairs for exps, c in _packed(p).items()}


def _add_shifted(out: dict, slot, shift: int, weight, terms) -> None:
    """Add weight * x^shift * t to ``out`` at (slot, monomial) for every term t of ``terms``."""
    for exps, c in terms:
        key = (slot, shift + exps)
        out[key] = out.get(key, 0) + weight * c


def apply_row(out: dict, moves: list, items, weight=1, shift: int = 0) -> dict:
    """Add weight * x^shift * V(f) to ``out`` for a vector field V = sum_j V_j d/dx_j.

    ``moves`` are V's (``VectorField.moves``); ``items`` yields ((slot,
    monomial), coefficient) for the terms of f, and every result term lands
    on (slot, monomial), or on the slot a move names last (the differential's
    θ^b ∧ θ^u).  This is the one derivative loop of the package.
    """
    # a term c x^e d/dx_j of V takes x^f to f_j c x^(f + e + shift - 1_j); f_j >= 1, so no field borrows
    for (slot, exps), c in items:
        shifted, wc = exps + shift, weight * c
        for at, delta, vc, to in moves:
            k = exps >> at & _MASK
            if k:
                key = (slot if to is None else to, shifted + delta)
                out[key] = out.get(key, 0) + k * wc * vc
    return out


def sum_text(split, names, var_names) -> str:
    """Canonical `c1*B1 + c2*B2` text of a sum over named basis elements, from
    its sparse split {slot: Poly} in slot order; ``names[slot]`` names a slot."""
    pieces = []
    for slot, coeff in split.items():
        text = coeff.to_text(var_names)
        if text in ("1", "-1"):
            piece = text[:-1] + names[slot]
        else:
            piece = f"({text})*{names[slot]}" if " " in text else f"{text}*{names[slot]}"
        pieces.append(piece if not pieces else f"- {piece[1:]}" if piece[0] == "-" else f"+ {piece}")
    return " ".join(pieces) or "0"


def form_text(split, gen_names, var_names) -> str:
    """Canonical text of a form from its split {index tuple: Poly} in tuple
    order: a sum over the wedges `w(A)^w(B)`, or a 0-form's function,
    parenthesised when it holds a space or a leading sign."""
    if () in split:
        text = split[()].to_text(var_names)
        return f"({text})" if " " in text or text[0] == "-" else text
    return sum_text(split, {k: "^".join(f"w({gen_names[i]})" for i in k) for k in split}, var_names)


def sweep(rank: int, k: int, value) -> dict[tuple[int, ...], Section]:
    """{t: value(*t)} over the increasing k-tuples t of generator indices, in
    ``combinations`` order, with zero values left out."""
    return {t: v for t in combinations(range(rank), k) if not (v := value(*t)).is_zero()}


# ---------------------------------------------------------------------------
# generator-pair tables and their Leibniz extension
# ---------------------------------------------------------------------------


def _skew_table(values: dict[tuple[int, int], Section], what: str) -> dict[tuple[int, int], Section]:
    """A skew generator-pair table stored on i < j: (j, i) entries negated, zeros dropped."""
    table = {}
    for (i, j), value in values.items():
        if i == j and not value.is_zero():
            raise AlgebroidError(f"{what} diagonal must be zero")
        if i > j:
            i, j, value = j, i, -value
        if not value.is_zero():
            table[(i, j)] = value
    return table


def _pair_table(values: dict[tuple[int, int], Section], skew: bool = True) -> dict:
    """A pair table as {(i, j): (stored value, sign)}, the one dict ``_pair_add``
    reads: a skew table stored on i < j in both index orders, (j, i) with sign -1."""
    table = {pair: (value, 1) for pair, value in values.items()}
    if skew:
        table.update({(j, i): (value, -1) for (i, j), value in values.items()})
    return table


def _pair_add(out: dict, x: Section, y: Section, table: dict, sign: int = 1) -> dict:
    """Add sign * sum_{i, j} x_i y_j T(e_i, e_j) to the term dict ``out``.

    ``table`` is the pair table T as built by ``_pair_table``: the stored
    value and the sign it enters with, no entry where T(e_i, e_j) is zero.
    """
    ys = y.terms.items()
    for (i, x_exps), xc in x.terms.items():
        for (j, y_exps), yc in ys:
            found = table.get((i, j))
            if found is not None:
                value, entry_sign = found
                shift = x_exps + y_exps
                weight = xc * yc if entry_sign == sign else -(xc * yc)
                for (a, exps), c in value.terms.items():
                    key = (a, shift + exps)
                    out[key] = out.get(key, 0) + weight * c
    return out


def pair_sum(out: dict, x: Section, y: Section, table: dict) -> Section:
    """The term dict ``out`` plus sum_{i, j} x_i y_j T(e_i, e_j), as a section of y's bundle.

    ``table`` is the pair table T as ``_pair_add`` reads it.
    """
    return y._like(_clean(_pair_add(out, x, y, table)))


# ---------------------------------------------------------------------------
# the algebroid itself
# ---------------------------------------------------------------------------


class Algebroid:
    """Anchored bundle with a skew bracket table over a polynomial base."""

    def __init__(
        self,
        base: BaseSpace,
        gen_names,
        anchor: list[VectorField],
        structure: dict[tuple[int, int], Section] | None = None,
        name: str = "",
    ):
        self.base = base
        self.gen_names = tuple(gen_names)
        self.rank = len(self.gen_names)
        if not self.rank:
            raise AlgebroidError("an algebroid needs at least one generator")
        if len(set(self.gen_names)) != self.rank:
            raise AlgebroidError("generator names must be unique")
        if len(anchor) != self.rank:
            raise AlgebroidError("anchor needs one vector field per generator")
        self.anchor = list(anchor)
        if any(value.rank != self.rank for value in (structure or {}).values()):
            raise AlgebroidError("structure section has the wrong rank")
        self.structure = _skew_table(structure or {}, "bracket")
        self.pairs = _pair_table(self.structure)  # the structure table in both orders, for _pair_add
        self.name = name

    # ---- building blocks ----

    @property
    def nvars(self) -> int:
        return self.base.dim

    @cached_property
    def structure_by_target(self) -> dict[int, dict[tuple[int, int], dict]]:
        """The structure table by target generator: c -> {(i, j): terms of c^c_ij}, i < j.

        Built on first use and kept: an algebroid is not changed after construction.
        """
        table: dict = {}
        for pair, value in self.structure.items():
            for (c, exps), v in value.terms.items():
                table.setdefault(c, {}).setdefault(pair, {})[exps] = v
        return table

    @cached_property
    def coframe_d(self) -> dict[tuple[int, ...], tuple[list, list]]:
        """The derivative of each coframe monomial θ^u, by index tuple u.

        Filled by ``forms.differential``, one u on its first use, and kept:
        an algebroid is not changed after construction.
        """
        return {}

    @cached_property
    def units(self) -> tuple[Section, ...]:
        """The unit sections e_0 .. e_{m-1}, built on first use and shared: a section is never written."""
        return tuple(_section(self.rank, self.nvars, {(i, 0): 1}) for i in range(self.rank))

    def zero_section(self) -> Section:
        return Section.zero(self.rank, self.nvars)

    def unit_section(self, i: int) -> Section:
        return self.units[i]

    def section_text(self, s: Section) -> str:
        return sum_text(s.split, self.gen_names, self.base.var_names)

    # ---- anchor ----

    def anchor_of(self, s: Section) -> VectorField:
        if s.rank != self.rank:
            raise AlgebroidError("section has the wrong rank")
        return map_section(self.anchor, s)

    # ---- bracket ----

    def bracket_gen(self, i: int, j: int) -> Section:
        found = self.pairs.get((i, j))
        if found is None:
            return self.zero_section()
        value, sign = found
        return value if sign > 0 else -value

    def derivative(self, out: dict, x: Section, s: Section, sign: int = 1) -> dict:
        """Add sign * D_X s = sign * sum_a rho(X)(s_a) e_a to the term dict ``out``.

        rho(X) is never formed: each term of X weights the stored anchor image
        of its generator, so a generator direction reads its image as stored.
        ``s`` may be a section of any bundle over the base.
        """
        items = s.terms.items()
        for (i, exps), c in x.terms.items():
            rho = self.anchor[i]
            if rho.terms:
                apply_row(out, rho.moves, items, sign * c, exps)
        return out

    def bracket(self, x: Section, y: Section) -> Section:
        """Leibniz extension of the structure table to arbitrary sections.

        [X, Y] = sum_{i, j} X_i Y_j [e_i, e_j] + D_X Y - D_Y X
        """
        if x.rank != self.rank or y.rank != self.rank:
            raise AlgebroidError("bracket arguments have the wrong rank")
        out = self.derivative(self.derivative({}, x, y), y, x, -1)
        return pair_sum(out, x, y, self.pairs)

    def jacobiator(self, x: Section, y: Section, z: Section) -> Section:
        """Cyclic sum [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]]."""
        b = self.bracket
        return b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))

    # ---- axiom and Lie sweeps ----

    def check_axioms(self) -> AxiomReport:
        rho = self.anchor
        defects = sweep(self.rank, 2, lambda i, j: self.anchor_of(self.bracket_gen(i, j)) - vf_bracket(rho[i], rho[j]))
        return AxiomReport(self, [(i, j, defect) for (i, j), defect in defects.items()])

    def require_axioms(self) -> None:
        report = self.check_axioms()
        if not report.ok:
            raise AlgebroidError(report.describe())

    @cached_property
    def jacobiator_table(self) -> dict[tuple[int, int, int], Section]:
        """The Jacobiator on generator triples i < j < k; zero values omitted.

        The closed form is zero where none of the three pair brackets is, so
        only the other triples are computed.  Built on first use and kept.
        """
        live, zero = self.structure.keys(), self.zero_section()
        return sweep(self.rank, 3, lambda *t: zero if live.isdisjoint(combinations(t, 2)) else self.jacobiator_gen(*t))

    def jacobiator_gen(self, i: int, j: int, k: int) -> Section:
        """The Jacobiator on any generator triple, in closed form.

        Along a unit direction the Leibniz rule gives
        [e_p, c_qr] = rho(e_p)(c_qr) + sum_c c^c_qr [e_p, e_c], one anchored
        derivative and one pair-table sum, and the three rotations add into
        one term dict.
        """
        u, pairs = self.units, self.pairs
        out: dict = {}
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            found = pairs.get((q, r))
            if found is not None:
                bracket, sign = found
                _pair_add(self.derivative(out, u[p], bracket, sign), u[p], bracket, pairs, sign)
        return _section(self.rank, self.nvars, _clean(out))

    def check_lie(self) -> LieReport:
        """Decide vanishing of the Jacobiator on all generator triples."""
        self.require_axioms()
        return LieReport(self, list(self.jacobiator_table.items()))

    # ---- derived constructions ----

    def modify_bracket(self, modifier: BracketModifier, name: str = "") -> Algebroid:
        """Add a kernel-valued skew tensor to the structure table."""
        modifier.validate(self)
        structure = dict(self.structure)
        for pair, value in modifier.values.items():
            structure[pair] = structure[pair] + value if pair in structure else value
        return Algebroid(self.base, self.gen_names, self.anchor, structure, name or self.name)


class AxiomReport(NamedTuple):
    """Anchor-compatibility sweep over generator pairs."""

    algebroid: Algebroid
    failures: list  # (i, j, defect VectorField)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            pairs = self.algebroid.rank * (self.algebroid.rank - 1) // 2
            if pairs == 1:
                return "anchor compatibility holds on the single generator pair"
            return f"anchor compatibility holds on all {pairs} generator pairs"
        i, j, defect = self.failures[0]
        names = self.algebroid.gen_names
        return f"anchor compatibility fails on ({names[i]}, {names[j]}): defect {defect.to_text()}"


class LieReport(NamedTuple):
    """Jacobiator sweep over generator triples."""

    algebroid: Algebroid
    failures: list  # ((i, j, k), jacobiator Section)

    @property
    def is_lie(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        a = self.algebroid
        total = a.rank * (a.rank - 1) * (a.rank - 2) // 6
        if self.is_lie:
            if total == 0:
                return "no generator triples to check (rank below 3)"
            if total == 1:
                return "Jacobiator vanishes on the single generator triple"
            return f"Jacobiator vanishes on all {total} generator triples"
        (i, j, k), jac = self.failures[0]
        names = a.gen_names
        return (
            f"Jacobiator nonzero on {len(self.failures)}/{total} triples; first "
            f"({names[i]}, {names[j]}, {names[k]}) -> {a.section_text(jac)}"
        )


# ---------------------------------------------------------------------------
# bracket modifiers (kernel-valued skew tensors)
# ---------------------------------------------------------------------------


class BracketModifier:
    """A skew ℱ-bilinear modification B given by its values on generator pairs."""

    def __init__(self, values: dict[tuple[int, int], Section]):
        self.values = _skew_table(values, "modifier")
        self._table = _pair_table(self.values)

    def validate(self, algebroid: Algebroid) -> None:
        for (i, j), value in self.values.items():
            if value.rank != algebroid.rank:
                raise AlgebroidError("modifier value has the wrong rank")
            if not algebroid.anchor_of(value).is_zero():
                names = algebroid.gen_names
                raise AlgebroidError(
                    f"modifier value on ({names[i]}, {names[j]}) is not anchor-killed"
                )

    def apply(self, x: Section, y: Section) -> Section:
        """ℱ-bilinear extension of the pair table to arbitrary sections."""
        return pair_sum({}, x, y, self._table)


# ---------------------------------------------------------------------------
# morphisms (identity base map)
# ---------------------------------------------------------------------------


class MorphismReport(NamedTuple):
    ok: bool
    anchor_failures: list  # (gen index, defect VectorField)
    bracket_failures: list  # ((i, j), defect Section in the target)

    def describe(self, src: Algebroid, dst: Algebroid) -> str:
        if self.ok:
            return "bundle map is an algebroid morphism (anchors and brackets match)"
        parts = []
        if self.anchor_failures:
            i, defect = self.anchor_failures[0]
            parts.append(f"anchor mismatch on {src.gen_names[i]}: {defect.to_text()}")
        if self.bracket_failures:
            (i, j), defect = self.bracket_failures[0]
            parts.append(
                f"bracket mismatch on ({src.gen_names[i]}, {src.gen_names[j]}): "
                f"{dst.section_text(defect)}"
            )
        return "; ".join(parts)


def map_section(images: list[Section], s: Section) -> Section:
    """Apply the bundle map e_b -> images[b] (a nonempty list) to a section, as a section of the images' kind."""
    out: dict = {}
    for (b, exps), c in s.terms.items():
        for (a, image_exps), ic in images[b].terms.items():
            key = (a, exps + image_exps)
            out[key] = out.get(key, 0) + c * ic
    return images[0]._like(_clean(out))


def check_morphism(src: Algebroid, dst: Algebroid, images: list[Section]) -> MorphismReport:
    """Verify the bundle map e_b -> images[b] over the identity base map is an algebroid morphism."""
    if src.base != dst.base:
        raise AlgebroidError("morphisms here require the same base")
    if len(images) != src.rank or any(image.rank != dst.rank for image in images):
        raise AlgebroidError("bundle map needs one section of dst per generator of src")
    anchors = sweep(src.rank, 1, lambda i: dst.anchor_of(images[i]) - src.anchor[i])
    brackets = sweep(
        src.rank, 2, lambda i, j: map_section(images, src.bracket_gen(i, j)) - dst.bracket(images[i], images[j])
    )
    anchor_failures = [(i, defect) for (i,), defect in anchors.items()]
    return MorphismReport(not anchors and not brackets, anchor_failures, list(brackets.items()))


# ---------------------------------------------------------------------------
# subbundles spanned by sections
# ---------------------------------------------------------------------------


class ClosureFailure(NamedTuple):
    pair: tuple[int, int]
    bracket_value: Section
    max_degree: int

    def describe(self, names) -> str:
        i, j = self.pair
        return (
            f"bracket of generators {names[i]} and {names[j]} is not a combination "
            f"of the given sections with coefficient degree <= {self.max_degree}"
        )


_GENERIC_POINTS = [(1, 1), (1, 2), (2, 3), (1, 3), (3, 5)]


def subalgebroid_restrict(
    algebroid: Algebroid,
    gens: list[Section],
    names: list[str] | None = None,
    max_degree: int = 4,
) -> Algebroid | ClosureFailure:
    """Restrict to the subbundle spanned by the given sections.

    Pairwise brackets are re-expressed in the generating sections via a
    degree-bounded exact linear solve; failure reports the offending pair.
    """
    k = len(gens)
    if not k:
        raise AlgebroidError("need at least one generating section")
    names = list(names) if names else [f"G{i + 1}" for i in range(k)]
    if len(names) != k:
        raise AlgebroidError("one name per generating section")
    # Independence over the coefficient ring, checked at sample points: each
    # point's coordinates past the listed ones are index + 2
    nvars = algebroid.nvars
    points = [[*raw[:nvars], *range(len(raw) + 2, nvars + 2)] for raw in _GENERIC_POINTS]
    if all(linsolve.rank([[c.eval_at(p) for c in g.coeffs] for g in gens]) < k for p in points):
        raise AlgebroidError("generating sections are dependent at all sample points")

    # one column per (generator g, monomial mu): the terms of the section mu * g
    columns = witness.monomial_multiples({g: gen.terms for g, gen in enumerate(gens)}, nvars, max_degree)
    structure: dict[tuple[int, int], Section] = {}
    for i, j in combinations(range(k), 2):
        target = algebroid.bracket(gens[i], gens[j])
        x = witness.solve(columns, target.terms)
        if x is None:
            return ClosureFailure((i, j), target, max_degree)
        structure[(i, j)] = _section(k, nvars, x)

    anchor = [algebroid.anchor_of(g) for g in gens]
    return Algebroid(algebroid.base, names, anchor, structure, name="restriction")


# ---------------------------------------------------------------------------
# endomorphisms and the Nijenhuis tensor
# ---------------------------------------------------------------------------


class Endomorphism:
    """A bundle endomorphism, given by the images of the generators: e_b -> images[b]."""

    def __init__(self, images: list[Section]):
        self.images = list(images)
        self.rank = len(self.images)
        if not self.images or any(image.rank != self.rank for image in self.images):
            raise AlgebroidError("endomorphism needs one image of its own rank per generator")

    def apply(self, s: Section) -> Section:
        return map_section(self.images, s)

    def is_almost_complex(self) -> bool:
        """Check J(J e_b) = -e_b on every generator as a polynomial identity."""
        return all(self.apply(image).terms == {(b, 0): -1} for b, image in enumerate(self.images))


def _require_almost_complex(algebroid: Algebroid, j: Endomorphism) -> None:
    if j.rank != algebroid.rank:
        raise AlgebroidError("endomorphism rank mismatch")
    if not j.is_almost_complex():
        raise AlgebroidError("endomorphism is not almost complex (J² ≠ -id)")


def _nijenhuis(algebroid: Algebroid, j: Endomorphism, x: Section, y: Section) -> Section:
    jx, jy = j.apply(x), j.apply(y)
    return (
        algebroid.bracket(jx, jy)
        - j.apply(algebroid.bracket(x, jy))
        - j.apply(algebroid.bracket(jx, y))
        - algebroid.bracket(x, y)
    )


def nijenhuis(algebroid: Algebroid, j: Endomorphism, x: Section, y: Section) -> Section:
    """N(X,Y) = [JX,JY] - J[X,JY] - J[JX,Y] - [X,Y] for an almost complex J."""
    _require_almost_complex(algebroid, j)
    return _nijenhuis(algebroid, j, x, y)


def nijenhuis_table(algebroid: Algebroid, j: Endomorphism) -> dict[tuple[int, int], Section]:
    """N(e_i, e_k) on generator pairs i < k; zero values omitted.  J is checked once, not per pair."""
    _require_almost_complex(algebroid, j)
    u = algebroid.units
    return sweep(algebroid.rank, 2, lambda i, k: _nijenhuis(algebroid, j, u[i], u[k]))


# ---------------------------------------------------------------------------
# cometrics and the Courant condition
# ---------------------------------------------------------------------------


def courant_defect(algebroid: Algebroid, g: list[Section]) -> list[VectorField]:
    """The n rows of rho·G·rho^T for the cometric G e_b = g[b]; all zero iff the Courant condition holds."""
    m = algebroid.rank
    if len(g) != m or any(image.rank != m for image in g):
        raise AlgebroidError("cometric must be rank x rank")
    if any(g[a].terms.get((b, exps)) != c for b, image in enumerate(g) for (a, exps), c in image.terms.items()):
        raise AlgebroidError("cometric matrix must be symmetric")
    # row i of rho·G·rho^T = sum_b rho(G e_b)_i rho(e_b) is the anchor of
    # s_i = sum_b rho(G e_b)_i e_b
    split = [{} for _ in range(algebroid.nvars)]
    for b, image in enumerate(g):
        for (i, exps), c in algebroid.anchor_of(image).terms.items():
            split[i][(b, exps)] = c
    return [algebroid.anchor_of(_section(m, algebroid.nvars, terms)) for terms in split]


class CourantSpace(NamedTuple):
    """Solution space of rho·G·rho^T = 0 at a degree bound, kept as its nullspace vectors."""

    vectors: list[dict]
    cells: dict[tuple[int, int], list[tuple[int, int]]]
    rank: int

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def all_zero_at_point(self) -> bool:
        """True when every basis element vanishes at the origin."""
        return all(mu for vec in self.vectors for _, mu in vec)

    def invertible_at_point(self) -> list[int]:
        """Indices of basis elements whose value at the origin is an invertible matrix."""
        # G(0) is the μ = 0 values; a zero row b of G(0)ᵀ, the image G e_b, makes it singular
        found = []
        for idx, vec in enumerate(self.vectors):
            if constant := [(a, b, v) for (cell, mu), v in vec.items() if not mu for a, b in self.cells[cell]]:
                rows = [{a: v for a, b, v in constant if b == r} for r in range(self.rank)]
                if all(rows) and len(linsolve.rref(rows)) == self.rank:
                    found.append(idx)
        return found


def _cells(m: int, block: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The unknown cells of the paired-block parametrization and the positions each fills.

    The matrix is split into (m/block)² blocks; one unknown block is shared
    UNtransposed by the (I,J) and (J,I) positions, diagonal blocks are
    symmetric.  With block = m this is the upper triangle of one symmetric
    matrix, the full space; see courant_solution_space.
    """
    cells = {}
    for bi in range(0, m, block):
        for bj in range(bi, m, block):
            for r in range(block):
                # diagonal blocks: keep the upper triangle
                for c in range(r if bi == bj else 0, block):
                    a, b = bi + r, bj + c
                    # an off-diagonal entry (r,c) sits at the same in-block
                    # offset in both the (I,J) and (J,I) positions
                    mirror = (b, a) if bi == bj else (bj + r, bi + c)
                    cells[a, b] = [(a, b)] if mirror == (a, b) else [(a, b), mirror]
    return cells


def courant_solution_space(
    algebroid: Algebroid,
    max_degree: int = 4,
    paired_blocks: int | None = None,
) -> CourantSpace:
    """The cometrics G with rho·G·rho^T = 0, coefficients of degree <= D.

    The matrix is parametrized by shared s×s blocks (one unknown block serving
    both off-diagonal corners untransposed, diagonal blocks symmetric) with
    s = ``paired_blocks``; s = 2 is the system the recorded obstruction
    computation solves.  The default, all symmetric m×m polynomial matrices,
    is the one-block case s = m.  The two spaces genuinely differ — see the
    verify-paper courant check, which surfaces a full-space solution that the
    paired-block space lacks.  A basis element is kept as the nullspace vector
    {(cell, μ): value}, μ packed, the cometric with value·μ at each position
    (a, b) of the cell, the e_a-coefficient of G e_b; no basis cometric is built.
    """
    m, n = algebroid.rank, algebroid.nvars
    block = m if paired_blocks is None else paired_blocks
    if block < 1:
        raise AlgebroidError("block size must be at least 1")
    if m % block:
        raise AlgebroidError("block size must divide the rank")
    cells = _cells(m, block)
    # one column per (cell, monomial mu): the defect rho·G·rho^T of the G with
    # mu at the cell's positions, which is the defect at mu = 1 shifted by mu
    products = {}
    for cell, positions in cells.items():
        product = products[cell] = {}
        for a, b in positions:
            for (i, ea), va in algebroid.anchor[a].terms.items():
                for (j, eb), vb in algebroid.anchor[b].terms.items():
                    key = ((i, j), ea + eb)
                    product[key] = product.get(key, 0) + va * vb
    return CourantSpace(witness.nullspace(witness.monomial_multiples(products, n, max_degree)), cells, m)


# ---------------------------------------------------------------------------
# bounded-degree infeasibility certificates for Lie-izing modifications
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    """Outcome of the degree-bookkeeping obstruction for one triple."""

    status: str  # "infeasible" | "inconclusive" | "trivially-feasible"
    triple: tuple[int, int, int]
    max_degree: int
    jacobiator_min_degree: int | None = None
    modifier_min_degree: int | None = None

    @property
    def report_status(self) -> str:
        """Infeasible and trivially feasible both settle the triple; any other outcome raises KeyError."""
        return {"infeasible": PASS, "trivially-feasible": PASS, "inconclusive": INCONCLUSIVE}[self.status]

    def describe(self, names) -> str:
        i, j, k = self.triple
        label = f"({names[i]}, {names[j]}, {names[k]})"
        if self.status == "trivially-feasible":
            return f"Jacobiator vanishes on {label}; the zero modification works"
        if self.status == "infeasible":
            low = self.modifier_min_degree
            return (
                f"no kernel-valued modification with coefficient degree <= "
                f"{self.max_degree} can cancel the Jacobiator on {label}: its lowest "
                f"homogeneous part has degree {self.jacobiator_min_degree}, every "
                f"modification term {'is zero' if low is None else f'has degree >= {low}'}"
            )
        return (
            f"inconclusive at degree bound {self.max_degree} on {label}: modification "
            f"terms reach down to degree {self.modifier_min_degree}"
        )


def lie_infeasibility_certificate(
    algebroid: Algebroid,
    triple: tuple[int, int, int],
    kernel_gens: list[Section],
    max_degree: int = 3,
) -> Certificate:
    """Certify that no bounded-degree kernel-valued bracket change is Lie-izing.

    A candidate modification is B = Σ_p c_p·μ_p·G_p with free rational
    parameters c_p: G_p puts one kernel generator on one generator pair and
    is zero elsewhere, and μ_p runs over the monomials of degree <= D.  The
    modified Jacobiator on the triple is J + 𝓑 with

        𝓑(X,Y,Z) = Σ_cyc ( [B(X,Y),Z] + B([X,Y],Z) + B(B(X,Y),Z) ),

    which is linear plus quadratic in the parameters.  Coefficients of
    distinct parameter monomials cannot cancel one another, so the lowest
    base degree of 𝓑 is the least over its nonzero coefficients:

    * on c_p c_q: μ_p μ_q Σ_cyc ( G_q(G_p(X,Y), Z) + G_p(G_q(X,Y), Z) ), half
      of it when p = q.  Each G is ℱ-bilinear, so no derivative falls on
      μ_p μ_q: it factors out and raises every degree by its own, and the
      lowest degree is reached at μ_p = μ_q = 1 whatever D is.  On units,
      G_p(X,Y) needs {X, Y} to be p's pair and G_q(·, Z) needs Z in q's pair;
    * on c_p: Σ_cyc ( [μ_p G_p(X,Y), Z] + μ_p G_p([X,Y], Z) ).  For a unit
      section Z the Leibniz rule gives [μS, Z] = μ[S, Z] − ρ(Z)(μ)·S, so this
      is μ_p·C_p − Σ_cyc ρ(Z)(μ_p)·G_p(X,Y) with C_p its value at μ_p = 1.
      With r the least degree of an anchor term, it is zero or of degree
      >= |μ_p| + m_p, m_p = min(lowdeg C_p, r − 1 + lowdeg G_p(X,Y)).  The
      quadratic part is read first, then the monomials by increasing degree
      until |μ_p| + m_p reaches the least degree found: the work is bounded
      by the answer, not by D.

    If every coefficient has base degree strictly above the lowest nonzero
    homogeneous degree of J on the triple, that slice of J survives any
    choice of parameters.
    """
    for g in kernel_gens:
        if not algebroid.anchor_of(g).is_zero():
            raise AlgebroidError("kernel generators must be anchor-killed")
    a, e, (i, j, k) = algebroid, algebroid.units, triple
    jac = a.jacobiator_gen(i, j, k)
    if jac.is_zero():
        return Certificate("trivially-feasible", triple, max_degree)
    jac_min = jac.min_degree()

    zero, rotations = a.zero_section(), ((i, j, k), (j, k, i), (k, i, j))
    basis = [(pair, BracketModifier({pair: g})) for pair in combinations(range(a.rank), 2) for g in kernel_gens]
    # (G_p(u, v), w) on the rotation (u, v, w) whose {u, v} is p's pair, if any
    tops = [[(g.apply(e[u], e[v]), w) for u, v, w in rotations if {u, v} == set(pair)] for pair, g in basis]
    constants = [  # C_p = sum_cyc [G_p(u, v), w] + G_p([u, v], w)
        sum([a.bracket(guv, e[w]) for guv, w in top]
            + [g.apply(a.bracket_gen(u, v), e[w]) for u, v, w in rotations if w in pair], zero)
        for (pair, g), top in zip(basis, tops)
    ]
    # the coefficient of c_p c_q, for G_p = g, G_q = h and μ_p = μ_q = 1
    quadratic = [
        sum([h.apply(guv, e[w]) for guv, w in gtop if w in hpair]
            + [g.apply(huv, e[w]) for huv, w in htop if w in gpair], zero)
        for ((gpair, g), gtop), ((hpair, h), htop) in combinations_with_replacement(zip(basis, tops), 2)
    ]
    low = min((c.min_degree() for c in quadratic if not c.is_zero()), default=None)
    r = min((_degree(exps) for rho in a.anchor for _, exps in rho.terms), default=None)
    monos = [(sum(mu), _pack(mu)) for mu in witness.monomials_up_to(a.nvars, max_degree)]
    slope = cache(lambda w, mu: [(e, -v) for (_, e), v in apply_row({}, a.anchor[w].moves, [((None, mu), 1)]).items()])
    for c, top in zip(constants, tops):
        floors = [(c, 0)] + [(guv, r - 1) for guv, _ in top if r is not None]
        m = min((s.min_degree() + d for s, d in floors if not s.is_zero()), default=None)
        for degree, mu in monos if m is not None else ():  # with no m, every coefficient of c_p is zero
            if low is not None and degree + m >= low:
                break
            # the coefficient of c_p at mu, one term dict: mu * C_p - sum_cyc rho(w)(mu) * G_p(u, v)
            out: dict = {}
            for s, f in ((c, [(mu, 1)]), *((guv, slope(w, mu)) for guv, w in top)):
                for (slot, exps), v in s.terms.items():
                    _add_shifted(out, slot, exps, v, f)
            found = min((_degree(exps) for _, exps in _clean(out)), default=low)
            low = found if low is None else min(low, found)
    # with no nonzero coefficient the modification is zero, and J is nonzero
    status = "infeasible" if low is None or low > jac_min else "inconclusive"
    return Certificate(status, triple, max_degree, jac_min, low)
