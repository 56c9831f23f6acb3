"""Anchored vector bundles with skew brackets over polynomial coefficient rings.

An algebroid here is a rank-m bundle over a polynomial base, given by

* an anchor: one base vector field per generator (m×n polynomial matrix), and
* a structure table: the bracket [e_i, e_j] for i < j, skew-extended.

Brackets of arbitrary polynomial sections are produced from the table by the
Leibniz expansion, so the table determines everything.  The two axioms that
make such a bundle an almost Lie algebroid — the Leibniz rule (true by
construction) and anchor compatibility rho([X,Y]) = [rho X, rho Y] — reduce to
polynomial identities on generator pairs, which is what check_axioms sweeps.
Vanishing of the Jacobiator (the Lie condition) is likewise tensorial once the
axioms hold, so check_lie sweeps generator triples only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import linsolve, witness
from .poly import Poly


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


class VectorField:
    """A polynomial vector field sum_j comps[j] * d/dx_j on the base."""

    __slots__ = ("base", "comps")

    def __init__(self, base: BaseSpace, comps):
        comps = tuple(comps)
        if len(comps) != base.dim:
            raise AlgebroidError("vector field has the wrong number of components")
        self.base = base
        self.comps = comps

    @staticmethod
    def zero(base: BaseSpace) -> VectorField:
        return VectorField(base, [Poly.zero(base.dim)] * base.dim)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def apply(self, f: Poly) -> Poly:
        """Directional derivative of a coefficient function."""
        out = Poly.zero(self.base.dim)
        for j, comp in enumerate(self.comps):
            if not comp.is_zero():
                out = out + comp * f.partial(j)
        return out

    def __add__(self, other: VectorField) -> VectorField:
        return VectorField(self.base, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: VectorField) -> VectorField:
        return VectorField(self.base, [a - b for a, b in zip(self.comps, other.comps)])

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.base == other.base
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def to_text(self) -> str:
        names = self.base.var_names
        pieces = []
        for j, comp in enumerate(self.comps):
            if comp.is_zero():
                continue
            text = comp.to_text(names)
            if text == "1":
                pieces.append(f"d{j + 1}")
            else:
                body = f"({text})" if " " in text else text
                pieces.append(f"{body}*d{j + 1}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"VectorField({self.to_text()})"


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket of base vector fields: components v(w_k) - w(v_k)."""
    if v.base != w.base:
        raise AlgebroidError("vector fields live over different bases")
    return VectorField(v.base, [v.apply(wk) - w.apply(vk) for vk, wk in zip(v.comps, w.comps)])


class Section:
    """A bundle section as a coefficient vector over the generators."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(rank: int, nvars: int) -> Section:
        return Section([Poly.zero(nvars)] * rank)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: Section) -> Section:
        return Section([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: Section) -> Section:
        return Section([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> Section:
        return Section([-a for a in self.coeffs])

    def scale(self, f: Poly | int | Fraction) -> Section:
        return Section([c * f for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Section) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        ) and len(self.coeffs) == len(other.coeffs)

    def min_degree(self) -> int:
        """Smallest total degree over all nonzero coefficient terms (-1 if zero)."""
        degs = [c.min_degree() for c in self.coeffs if not c.is_zero()]
        return min(degs) if degs else -1

    def __repr__(self):
        return f"Section({list(self.coeffs)!r})"


def section_text(s: Section, gen_names, var_names) -> str:
    pieces = []
    for name, coeff in zip(gen_names, s.coeffs):
        if coeff.is_zero():
            continue
        text = coeff.to_text(var_names)
        if text == "1":
            pieces.append(name)
        elif text == "-1":
            pieces.append(f"-{name}")
        else:
            body = f"({text})" if " " in text else text
            pieces.append(f"{body}*{name}")
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


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
        if len(set(self.gen_names)) != self.rank:
            raise AlgebroidError("generator names must be unique")
        if len(anchor) != self.rank:
            raise AlgebroidError("anchor needs one vector field per generator")
        self.anchor = list(anchor)
        self.structure: dict[tuple[int, int], Section] = {}
        for (i, j), value in (structure or {}).items():
            if i == j:
                if not value.is_zero():
                    raise AlgebroidError("diagonal bracket entries must be zero")
                continue
            if i > j:
                i, j, value = j, i, -value
            if value.rank != self.rank:
                raise AlgebroidError("structure section has the wrong rank")
            if not value.is_zero():
                self.structure[(i, j)] = value
        self.name = name

    # ---- building blocks ----

    @property
    def nvars(self) -> int:
        return self.base.dim

    def zero_section(self) -> Section:
        return Section.zero(self.rank, self.nvars)

    def unit_section(self, i: int) -> Section:
        coeffs = [Poly.zero(self.nvars) for _ in range(self.rank)]
        coeffs[i] = Poly.const(self.nvars, 1)
        return Section(coeffs)

    def section(self, coeffs) -> Section:
        s = Section(coeffs)
        if s.rank != self.rank:
            raise AlgebroidError("section has the wrong rank")
        return s

    def gen_index(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise AlgebroidError(f"unknown generator {name!r}") from None

    def section_text(self, s: Section) -> str:
        return section_text(s, self.gen_names, self.base.var_names)

    # ---- anchor ----

    def anchor_of(self, s: Section) -> VectorField:
        if s.rank != self.rank:
            raise AlgebroidError("section has the wrong rank")
        out = [Poly.zero(self.nvars) for _ in range(self.nvars)]
        for coeff, row in zip(s.coeffs, self.anchor):
            if coeff.is_zero():
                continue
            for j, comp in enumerate(row.comps):
                out[j] = out[j] + coeff * comp
        return VectorField(self.base, out)

    def anchor_rank_at(self, point) -> int:
        rows = [[comp.eval_at(point) for comp in row.comps] for row in self.anchor]
        return linsolve.rank(rows)

    # ---- bracket ----

    def bracket_gen(self, i: int, j: int) -> Section:
        if i == j:
            return self.zero_section()
        if i < j:
            return self.structure.get((i, j), self.zero_section())
        return -self.structure.get((j, i), self.zero_section())

    def bracket(self, x: Section, y: Section) -> Section:
        """Leibniz expansion of the structure table to arbitrary sections.

        [X, Y] = sum_{i<j} (X_i Y_j - X_j Y_i) [e_i, e_j]
                 + sum_j rho(X)(Y_j) e_j - sum_i rho(Y)(X_i) e_i
        """
        if x.rank != self.rank or y.rank != self.rank:
            raise AlgebroidError("bracket arguments have the wrong rank")
        out = [Poly.zero(self.nvars) for _ in range(self.rank)]
        for (i, j), value in self.structure.items():
            weight = x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i]
            if weight.is_zero():
                continue
            for a, coeff in enumerate(value.coeffs):
                if not coeff.is_zero():
                    out[a] = out[a] + weight * coeff
        rho_x = self.anchor_of(x)
        rho_y = self.anchor_of(y)
        for a in range(self.rank):
            out[a] = out[a] + rho_x.apply(y.coeffs[a]) - rho_y.apply(x.coeffs[a])
        return Section(out)

    def jacobiator(self, x: Section, y: Section, z: Section) -> Section:
        """Cyclic sum [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]]."""
        return (
            self.bracket(x, self.bracket(y, z))
            + self.bracket(y, self.bracket(z, x))
            + self.bracket(z, self.bracket(x, y))
        )

    # ---- axiom and Lie sweeps ----

    def check_axioms(self) -> AxiomReport:
        failures = []
        for i, j in combinations(range(self.rank), 2):
            defect = self.anchor_of(self.bracket_gen(i, j)) - vf_bracket(
                self.anchor[i], self.anchor[j]
            )
            if not defect.is_zero():
                failures.append((i, j, defect))
        return AxiomReport(self, failures)

    def require_axioms(self) -> None:
        report = self.check_axioms()
        if not report.ok:
            i, j, defect = report.failures[0]
            raise AlgebroidError(
                "anchor compatibility fails on pair "
                f"({self.gen_names[i]}, {self.gen_names[j]}); defect {defect.to_text()}"
            )

    def check_lie(self) -> LieReport:
        """Decide vanishing of the Jacobiator on all generator triples."""
        self.require_axioms()
        failures = []
        for i, j, k in combinations(range(self.rank), 3):
            jac = self.jacobiator(self.unit_section(i), self.unit_section(j), self.unit_section(k))
            if not jac.is_zero():
                failures.append(((i, j, k), jac))
        return LieReport(self, failures)

    # ---- derived constructions ----

    def modify_bracket(self, modifier: BracketModifier, name: str = "") -> Algebroid:
        """Add a kernel-valued skew tensor to the structure table."""
        modifier.validate(self)
        structure = {}
        for i, j in combinations(range(self.rank), 2):
            value = self.bracket_gen(i, j) + modifier.value(i, j, self)
            if not value.is_zero():
                structure[(i, j)] = value
        return Algebroid(self.base, self.gen_names, self.anchor, structure, name or self.name)


@dataclass
class AxiomReport:
    """Anchor-compatibility sweep over generator pairs."""

    algebroid: Algebroid
    failures: list  # (i, j, defect VectorField)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            pairs = self.algebroid.rank * (self.algebroid.rank - 1) // 2
            return f"anchor compatibility holds on all {pairs} generator pairs"
        i, j, defect = self.failures[0]
        names = self.algebroid.gen_names
        return (
            f"anchor compatibility fails on ({names[i]}, {names[j]}): "
            f"defect {defect.to_text()}"
        )


@dataclass
class LieReport:
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
        self.values: dict[tuple[int, int], Section] = {}
        for (i, j), value in values.items():
            if i == j:
                if not value.is_zero():
                    raise AlgebroidError("modifier diagonal must be zero")
                continue
            if i > j:
                i, j, value = j, i, -value
            if not value.is_zero():
                self.values[(i, j)] = value

    def value(self, i: int, j: int, algebroid: Algebroid) -> Section:
        if i == j:
            return algebroid.zero_section()
        if i < j:
            return self.values.get((i, j), algebroid.zero_section())
        return -self.values.get((j, i), algebroid.zero_section())

    def validate(self, algebroid: Algebroid) -> None:
        for (i, j), value in self.values.items():
            if value.rank != algebroid.rank:
                raise AlgebroidError("modifier value has the wrong rank")
            if not algebroid.anchor_of(value).is_zero():
                names = algebroid.gen_names
                raise AlgebroidError(
                    f"modifier value on ({names[i]}, {names[j]}) is not anchor-killed"
                )

    def apply(self, algebroid: Algebroid, x: Section, y: Section) -> Section:
        """ℱ-bilinear extension of the pair table to arbitrary sections."""
        out = algebroid.zero_section()
        for (i, j), value in self.values.items():
            weight = x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i]
            if not weight.is_zero():
                out = out + value.scale(weight)
        return out


# ---------------------------------------------------------------------------
# morphisms (identity base map)
# ---------------------------------------------------------------------------


@dataclass
class MorphismReport:
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


def map_section(matrix: list[list[Poly]], s: Section, dst: Algebroid) -> Section:
    """Apply a bundle map (rank(dst) x rank(src) polynomial matrix) to a section."""
    out = [Poly.zero(dst.nvars) for _ in range(dst.rank)]
    for b, coeff in enumerate(s.coeffs):
        if coeff.is_zero():
            continue
        for a in range(dst.rank):
            entry = matrix[a][b]
            if not entry.is_zero():
                out[a] = out[a] + coeff * entry
    return Section(out)


def check_morphism(src: Algebroid, dst: Algebroid, matrix: list[list[Poly]]) -> MorphismReport:
    """Verify a bundle map over the identity base map is an algebroid morphism."""
    if src.base != dst.base:
        raise AlgebroidError("morphisms here require the same base")
    if len(matrix) != dst.rank or any(len(row) != src.rank for row in matrix):
        raise AlgebroidError("bundle map matrix must be rank(dst) x rank(src)")
    anchor_failures = []
    for i in range(src.rank):
        image = map_section(matrix, src.unit_section(i), dst)
        defect = dst.anchor_of(image) - src.anchor[i]
        if not defect.is_zero():
            anchor_failures.append((i, defect))
    bracket_failures = []
    images = [map_section(matrix, src.unit_section(i), dst) for i in range(src.rank)]
    for i, j in combinations(range(src.rank), 2):
        lhs = map_section(matrix, src.bracket_gen(i, j), dst)
        rhs = dst.bracket(images[i], images[j])
        defect = lhs - rhs
        if not defect.is_zero():
            bracket_failures.append(((i, j), defect))
    return MorphismReport(not anchor_failures and not bracket_failures, anchor_failures, bracket_failures)


# ---------------------------------------------------------------------------
# subbundles spanned by sections
# ---------------------------------------------------------------------------


def _section_column(s: Section) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    return {(a, exps): v for a, coeff in enumerate(s.coeffs) for exps, v in coeff.terms.items()}


@dataclass
class ClosureFailure:
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
    # Independence over the coefficient ring, checked at sample points.
    independent = False
    for raw in _GENERIC_POINTS:
        point = [Fraction(v) for v in raw[: algebroid.nvars]]
        while len(point) < algebroid.nvars:
            point.append(Fraction(len(point) + 2))
        rows = [[c.eval_at(point) for c in g.coeffs] for g in gens]
        if linsolve.rank(rows) == k:
            independent = True
            break
    if not independent:
        raise AlgebroidError("generating sections are dependent at all sample points")

    nvars = algebroid.nvars
    # one column per (generator g, monomial mu): the section mu * g
    columns = {
        (g, mu): _section_column(gen.scale(Poly.monomial(nvars, mu)))
        for g, gen in enumerate(gens)
        for mu in witness.monomials_up_to(nvars, max_degree)
    }
    structure: dict[tuple[int, int], Section] = {}
    for i, j in combinations(range(k), 2):
        target = algebroid.bracket(gens[i], gens[j])
        x = witness.solve(columns, _section_column(target))
        if x is None:
            return ClosureFailure((i, j), target, max_degree)
        coeffs = witness.polys(x, nvars)
        structure[(i, j)] = Section([coeffs.get(g, Poly.zero(nvars)) for g in range(k)])

    anchor = [algebroid.anchor_of(g) for g in gens]
    return Algebroid(algebroid.base, names, anchor, structure, name="restriction")


# ---------------------------------------------------------------------------
# endomorphisms and the Nijenhuis tensor
# ---------------------------------------------------------------------------


class Endomorphism:
    """A bundle endomorphism as an m×m polynomial matrix (column = image)."""

    def __init__(self, matrix: list[list[Poly]]):
        self.matrix = [list(row) for row in matrix]
        self.rank = len(matrix)
        if any(len(row) != self.rank for row in self.matrix):
            raise AlgebroidError("endomorphism matrix must be square")

    def apply(self, s: Section) -> Section:
        nvars = self.matrix[0][0].nvars
        out = [Poly.zero(nvars) for _ in range(self.rank)]
        for b, coeff in enumerate(s.coeffs):
            if coeff.is_zero():
                continue
            for a in range(self.rank):
                entry = self.matrix[a][b]
                if not entry.is_zero():
                    out[a] = out[a] + coeff * entry
        return Section(out)

    def is_almost_complex(self) -> bool:
        """Check matrix² = -identity as a polynomial identity."""
        nvars = self.matrix[0][0].nvars
        for a in range(self.rank):
            for b in range(self.rank):
                entry = Poly.zero(nvars)
                for c in range(self.rank):
                    entry = entry + self.matrix[a][c] * self.matrix[c][b]
                want = Poly.const(nvars, -1) if a == b else Poly.zero(nvars)
                if entry != want:
                    return False
        return True


def nijenhuis(algebroid: Algebroid, j: Endomorphism, x: Section, y: Section) -> Section:
    """N(X,Y) = [JX,JY] - J[X,JY] - J[JX,Y] - [X,Y] for an almost complex J."""
    if j.rank != algebroid.rank:
        raise AlgebroidError("endomorphism rank mismatch")
    if not j.is_almost_complex():
        raise AlgebroidError("endomorphism is not almost complex (J² ≠ -id)")
    jx, jy = j.apply(x), j.apply(y)
    return (
        algebroid.bracket(jx, jy)
        - j.apply(algebroid.bracket(x, jy))
        - j.apply(algebroid.bracket(jx, y))
        - algebroid.bracket(x, y)
    )


# ---------------------------------------------------------------------------
# cometrics and the Courant condition
# ---------------------------------------------------------------------------


def courant_defect(algebroid: Algebroid, g: list[list[Poly]]) -> list[list[Poly]]:
    """The n×n matrix rho·G·rho^T; zero iff the Courant condition holds for G."""
    m, n = algebroid.rank, algebroid.nvars
    if len(g) != m or any(len(row) != m for row in g):
        raise AlgebroidError("cometric must be rank x rank")
    for a in range(m):
        for b in range(a + 1, m):
            if g[a][b] != g[b][a]:
                raise AlgebroidError("cometric matrix must be symmetric")
    # anchor rows: row a = components of rho(e_a); the anchor matrix of the
    # bundle map E -> TM has these as columns.
    out = [[Poly.zero(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = Poly.zero(n)
            for a in range(m):
                pa = algebroid.anchor[a].comps[i]
                if pa.is_zero():
                    continue
                for b in range(m):
                    entry = g[a][b]
                    if entry.is_zero():
                        continue
                    pb = algebroid.anchor[b].comps[j]
                    if not pb.is_zero():
                        total = total + pa * entry * pb
            out[i][j] = total
    return out


@dataclass
class CourantSpace:
    """Solution space of rho·G·rho^T = 0 at a degree bound."""

    basis: list[list[list[Poly]]]
    point: tuple
    evaluations: list[list[list[Fraction]]]
    parametrization: str  # "full" or "paired-blocks"
    max_degree: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def all_zero_at_point(self) -> bool:
        return all(
            all(all(v == 0 for v in row) for row in mat) for mat in self.evaluations
        )

    def invertible_at_point(self) -> list[int]:
        """Indices of basis elements whose evaluation has nonzero determinant."""
        out = []
        for idx, mat in enumerate(self.evaluations):
            if linsolve.det(mat) != 0:
                out.append(idx)
        return out


def _symmetric_unknowns(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(m) for b in range(a, m)]


def _paired_block_unknowns(m: int, block: int) -> list[tuple[int, int]]:
    """Unknown positions for the paired-block parametrization.

    The matrix is split into (m/block)² blocks; one unknown block is shared
    UNtransposed by the (I,J) and (J,I) positions, diagonal blocks are
    symmetric.  This is the parametrization under which the recorded
    obstruction computation is carried out; see courant_solution_space.
    """
    cells = []
    nb = m // block
    for bi in range(nb):
        for bj in range(bi, nb):
            for r in range(block):
                for c in range(block):
                    a, b = bi * block + r, bj * block + c
                    if bi == bj and c < r:
                        continue  # diagonal blocks: keep upper triangle
                    cells.append((a, b))
    return cells


def _positions_for(cell: tuple[int, int], m: int, block: int | None) -> list[tuple[int, int]]:
    a, b = cell
    if block is None:
        return [(a, b)] if a == b else [(a, b), (b, a)]
    bi, r = divmod(a, block)
    bj, c = divmod(b, block)
    if bi == bj:
        return [(a, b)] if a == b else [(a, b), (b, a)]
    # shared block, untransposed: entry (r,c) of the block appears at the
    # same in-block offset in both the (I,J) and (J,I) positions
    mirror = (bj * block + r, bi * block + c)
    return [(a, b), mirror]


def courant_solution_space(
    algebroid: Algebroid,
    max_degree: int = 4,
    point=None,
    paired_blocks: int | None = None,
) -> CourantSpace:
    """Basis of cometrics G with rho·G·rho^T = 0, coefficients of degree <= D.

    Default parametrization: all symmetric m×m polynomial matrices.  With
    ``paired_blocks=s`` the matrix is parametrized by shared s×s blocks (one
    unknown block serving both off-diagonal corners untransposed), which is
    the system the recorded obstruction computation solves; the two
    parametrizations genuinely differ — see the verify-paper courant check,
    which surfaces a full-space solution that the paired-block space lacks.
    """
    m, n = algebroid.rank, algebroid.nvars
    if point is None:
        point = tuple(Fraction(0) for _ in range(n))
    if paired_blocks is not None and m % paired_blocks:
        raise AlgebroidError("block size must divide the rank")
    cells = (
        _symmetric_unknowns(m)
        if paired_blocks is None
        else _paired_block_unknowns(m, paired_blocks)
    )
    monos = witness.monomials_up_to(n, max_degree)
    # one column per (cell, monomial mu): the defect matrix rho·G·rho^T of
    # the G with mu at the cell's positions, entries keyed (i, j, exponent)
    columns = {}
    for cell in cells:
        for mu in monos:
            col: dict[tuple[int, int, tuple[int, ...]], Fraction] = {}
            for a, b in _positions_for(cell, m, paired_blocks):
                for i, pa in enumerate(algebroid.anchor[a].comps):
                    for j, pb in enumerate(algebroid.anchor[b].comps):
                        for exps, v in (pa * pb).terms.items():
                            key = (i, j, tuple(e + f for e, f in zip(exps, mu)))
                            col[key] = col.get(key, Fraction(0)) + v
            columns[(cell, mu)] = col
    basis = []
    evaluations = []
    for vec in witness.nullspace(columns):
        g = [[Poly.zero(n) for _ in range(m)] for _ in range(m)]
        for cell, p in witness.polys(vec, n).items():
            for a, b in _positions_for(cell, m, paired_blocks):
                g[a][b] = g[a][b] + p
        basis.append(g)
        evaluations.append([[entry.eval_at(point) for entry in row] for row in g])
    return CourantSpace(
        basis,
        tuple(point),
        evaluations,
        "full" if paired_blocks is None else "paired-blocks",
        max_degree,
    )


# ---------------------------------------------------------------------------
# bounded-degree infeasibility certificates for Lie-izing modifications
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Outcome of the degree-bookkeeping obstruction for one triple."""

    status: str  # "infeasible" | "inconclusive" | "trivially-feasible"
    triple: tuple[int, int, int]
    max_degree: int
    jacobiator_min_degree: int | None = None
    modifier_min_degree: int | None = None

    def describe(self, names) -> str:
        i, j, k = self.triple
        label = f"({names[i]}, {names[j]}, {names[k]})"
        if self.status == "trivially-feasible":
            return f"Jacobiator vanishes on {label}; the zero modification works"
        if self.status == "infeasible":
            return (
                f"no kernel-valued modification with coefficient degree <= "
                f"{self.max_degree} can cancel the Jacobiator on {label}: its lowest "
                f"homogeneous part has degree {self.jacobiator_min_degree}, every "
                f"modification term has degree >= {self.modifier_min_degree}"
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

    * on c_p: Σ_cyc ( [μ_p G_p(X,Y), Z] + μ_p G_p([X,Y], Z) ).  The bracket
      differentiates μ_p along ρ(Z), so every monomial is tried;
    * on c_p c_q: μ_p μ_q Σ_cyc ( G_q(G_p(X,Y), Z) + G_p(G_q(X,Y), Z) ), half
      of it when p = q.  Each G is ℱ-bilinear, so no derivative falls on
      μ_p μ_q: it factors out and raises every degree by its own, and the
      lowest degree is reached at μ_p = μ_q = 1 whatever D is.

    If every coefficient has base degree strictly above the lowest nonzero
    homogeneous degree of J on the triple, that slice of J survives any
    choice of parameters.
    """
    for g in kernel_gens:
        if not algebroid.anchor_of(g).is_zero():
            raise AlgebroidError("kernel generators must be anchor-killed")
    a = algebroid
    x, y, z = (a.unit_section(t) for t in triple)
    jac = a.jacobiator(x, y, z)
    if jac.is_zero():
        return Certificate("trivially-feasible", triple, max_degree)
    jac_min = jac.min_degree()

    zero = a.zero_section()
    cyclic = [(u, v, w, a.bracket(u, v)) for u, v, w in ((x, y, z), (y, z, x), (z, x, y))]
    basis = [
        BracketModifier({pair: g}) for pair in combinations(range(a.rank), 2) for g in kernel_gens
    ]
    monos = [Poly.monomial(a.nvars, mu) for mu in witness.monomials_up_to(a.nvars, max_degree)]
    # the coefficient of c_p, for G_p = g and μ_p = mu
    linear = [
        sum(
            (a.bracket(g.apply(a, u, v).scale(mu), w) + g.apply(a, uv, w).scale(mu) for u, v, w, uv in cyclic),
            zero,
        )
        for g in basis
        for mu in monos
    ]
    # the coefficient of c_p c_q, for G_p = g, G_q = h and μ_p = μ_q = 1
    quadratic = [
        sum((h.apply(a, g.apply(a, u, v), w) + g.apply(a, h.apply(a, u, v), w) for u, v, w, _ in cyclic), zero)
        for g, h in combinations_with_replacement(basis, 2)
    ]
    mod_min = min((c.min_degree() for c in linear + quadratic if not c.is_zero()), default=None)
    if mod_min is None:
        # The modification is identically zero; J alone decides and is nonzero.
        return Certificate("infeasible", triple, max_degree, jac_min, None)
    if mod_min > jac_min:
        return Certificate("infeasible", triple, max_degree, jac_min, mod_min)
    return Certificate("inconclusive", triple, max_degree, jac_min, mod_min)
