"""Text format for bundles, brackets, connections, endomorphisms, and forms.

A document is a sequence of keyword statements over a single base:

    base 2 (x1, x2)
    bundle E0 rank 4 gens (X11, X21, X12, X22)
    anchor X11 -> x1^2*d1
    bracket [X11, X21] = 2*x1*X21
    section Xs1 = x2^2*X11 - x1^2*X12
    connection nabla on E0 { X11 X21 -> 2*x1*X21  default 0 }
    endo J0 { X11 -> -X21 }
    cometric G = [[0, 1], [1, 0]]
    form omega = 2*x2^2 * w(X11)^w(X21)

Unspecified anchors, brackets, connection entries, and endomorphism images
default to zero; explicit diagonal brackets must be zero.  `#` starts a
comment.  Parsing elaborates straight into exact engine objects, so a parsed
document is canonical: serialize() prints it back and parse(serialize(doc))
is structurally equal to doc.  Each distinct text is parsed once per process,
from the token texts of one pass of the token pattern; where a token sits, by
line and column, is worked out, by `tokenize`, only for an error.

Every right-hand side is a sum of signed terms, and a term is a '*'-product
of polynomial factors and basis elements; one loop, `_Parser.parse_terms`,
reads them all, and one fold, `_Parser.fold`, adds each sum up per slot, in
slot order, for one term dict.  Anchor terms name exactly one coordinate field `d1..dn`,
section terms (brackets, connection entries, endomorphism images) exactly one
generator, and the literal 0 may stand alone.  Form terms name any number of
generator duals `w(...)`, none in a 0-form, and `w(A)*w(B)` is `w(A)^w(B)`.
A 0-form lives on the first bundle unless `form f on F = ...` names its bundle.
Every sign and every '*' must be followed by a factor or a basis element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .algebroid import Algebroid, BaseSpace, Endomorphism, Section, VectorField, form_text, sum_text
from .algebroid import _section, _slot_terms, _vector_field
from .poly import Poly

# connections and forms are imported where a document is elaborated into
# them, so that parsing loads neither layer
if TYPE_CHECKING:
    from .connection import EConnection
    from .forms import Form

# Largest exponent, and largest total degree of a product, that a document may
# write.  The bundled corpus never goes above 4; without a cap a short line
# such as `(x+1)^99999` stalls the parser in polynomial expansion.
DEGREE_CAP = 64


class DslError(ValueError):
    """Syntax or semantic error with a document position."""

    def __init__(self, message: str, line: int, col: int, kind: str = "syntax"):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.kind = kind


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "sym" | "arrow" | "eof"
    text: str
    line: int
    col: int


# Newlines, other whitespace and comments match outside the one group, so
# `findall` gives "" for them and a token's text otherwise.  Only ASCII digits start an integer
# ("²" is a digit to str.isdigit), and a word must start with a letter or "_",
# which `\w` alone does not ensure.
_TOKEN = re.compile(r"\n|[ \t\r]+|\#[^\n]*|(->|[()\[\]{},^*+\-=/]|[0-9]+|\w+|.)")
_PUNCTUATION = {**dict.fromkeys("()[]{},^*+-=/", "sym"), "->": "arrow", "": "eof"}


def _kind(word: str) -> str:
    """The kind of a token's text, "bad" for text the language refuses."""
    first = word[:1]
    if first.isalpha() or first == "_":
        return "ident"
    return "int" if "0" <= first <= "9" else _PUNCTUATION.get(word, "bad")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: where the current line begins
    for m in _TOKEN.finditer(text):
        word = m.group(1)
        if word is None:  # a newline, other whitespace or a comment
            if m.group() == "\n":
                line, start = line + 1, m.end()
            continue
        kind, col = _kind(word), m.start() - start + 1
        if kind == "bad":
            raise DslError(f"unexpected character {word[0]!r}", line, col)
        tokens.append(Token(kind, word, line, col))
    # a comment takes no columns, so input that ends in one ends at its "#"
    end = text.find("#", start)
    tokens.append(Token("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# the elaborated document model
# ---------------------------------------------------------------------------


class BundleDecl(NamedTuple):
    name: str
    gens: tuple[str, ...]
    anchors: tuple[VectorField, ...]
    brackets: dict[tuple[int, int], Section] = MappingProxyType({})  # shared by every default, so read-only


class SectionDecl(NamedTuple):
    name: str
    bundle: str
    value: Section


class ConnectionDecl(NamedTuple):
    name: str
    bundle: str
    gamma: dict[tuple[int, int], Section] = MappingProxyType({})


class EndoDecl(NamedTuple):
    name: str
    bundle: str
    images: tuple[Section, ...]  # [b] = the image of e_b


class CometricDecl(NamedTuple):
    name: str
    rows: tuple[Section, ...]


class FormDecl(NamedTuple):
    name: str
    bundle: str
    degree: int
    comps: dict[tuple[int, ...], Poly] = MappingProxyType({})


class Document(NamedTuple):
    """The base variables and each kind of declaration, in document order."""

    base_vars: tuple[str, ...]
    bundles: list[BundleDecl]
    sections: list[SectionDecl]
    connections: list[ConnectionDecl]
    endos: list[EndoDecl]
    cometrics: list[CometricDecl]
    forms: list[FormDecl]

    # ---- lookups ----

    def bundle(self, name: str | None = None) -> BundleDecl:
        if name is None:
            if not self.bundles:
                raise KeyError("document declares no bundle")
            return self.bundles[0]
        return self._find(self.bundles, "bundle", name)

    def _find(self, decls, kind: str, name: str):
        for d in decls:
            if d.name == name:
                return d
        raise KeyError(f"no {kind} named {name!r}")

    def connection(self, name: str) -> ConnectionDecl:
        return self._find(self.connections, "connection", name)

    def endo(self, name: str) -> EndoDecl:
        return self._find(self.endos, "endo", name)

    def form(self, name: str) -> FormDecl:
        return self._find(self.forms, "form", name)

    def section(self, name: str) -> SectionDecl:
        return self._find(self.sections, "section", name)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.words = [word for word in _TOKEN.findall(text) if word] + [""]  # a token is its index here; "" is eof
        self.kinds = {word: _kind(word) for word in set(self.words)}
        if "bad" in self.kinds.values():
            tokenize(text)  # raises at the first bad character
        self.pos = 0
        self.base_vars: tuple[str, ...] | None = None
        self.var_index: dict[str, int] = {}
        self.names: dict[str, str] = {}  # declared name -> kind
        self.bundle_of_gen: dict[str, tuple[BundleDecl, int]] = {}
        self.anchored: set[str] = set()
        self.doc = Document((), [], [], [], [], [], [])

    # ---- token plumbing ----

    def error(self, message: str, at: int, kind: str = "syntax"):
        tok = tokenize(self.text)[at]
        raise DslError(message, tok.line, tok.col, kind)

    def semantic(self, message: str, at: int):
        self.error(message, at, "semantic")

    # eof is the last word and advance stops at it, so self.pos is always in range
    def peek(self) -> str:
        return self.words[self.pos]

    def advance(self) -> int:
        """The index of the current token, which is then passed."""
        at = self.pos
        if self.words[at]:
            self.pos += 1
        return at

    def accept(self, text: str) -> bool:
        if self.words[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        if self.peek() != text:
            self.error(f"expected {text!r}, found {self.peek()!r}", self.pos)
        return self.advance()

    def expect_ident(self, what: str = "name") -> int:
        if self.kinds[self.peek()] != "ident":
            self.error(f"expected {what}, found {self.peek()!r}", self.pos)
        return self.advance()

    def expect_int(self) -> int:
        if self.kinds[self.peek()] != "int":
            self.error(f"expected integer, found {self.peek()!r}", self.pos)
        return self.int_value(self.advance())

    def int_value(self, at: int) -> int:
        """The value of an integer literal; Python refuses very long digit strings."""
        try:
            return int(self.words[at])
        except ValueError:
            self.semantic(f"integer literal of {len(self.words[at])} digits is too long", at)

    def name_list(self, what: str) -> list[int]:
        """A parenthesised, comma-separated list of at least one name."""
        self.expect("(")
        names = [self.expect_ident(what)]
        while self.accept(","):
            names.append(self.expect_ident(what))
        self.expect(")")
        return names

    # ---- name registry ----

    def declare(self, at: int, kind: str) -> str:
        name = self.words[at]
        if name in self.names:
            self.semantic(f"name {name!r} already declared as {self.names[name]}", at)
        if name in self.var_index:
            self.semantic(f"name {name!r} already names a base variable", at)
        self.names[name] = kind
        return name

    def lookup_bundle(self, at: int) -> BundleDecl:
        bundle = next((b for b in self.doc.bundles if b.name == self.words[at]), None)
        if bundle is None:
            self.semantic(f"undeclared bundle {self.words[at]!r}", at)
        return bundle

    def lookup_gen(self, at: int) -> tuple[BundleDecl, int]:
        hit = self.bundle_of_gen.get(self.words[at])
        if hit is None:
            self.semantic(f"undeclared generator {self.words[at]!r}", at)
        return hit

    # ---- document ----

    def parse_document(self) -> Document:
        while self.peek():
            kw = self.advance()
            word = self.words[kw]
            if word not in _KEYWORDS:
                self.error(f"expected a statement keyword ({', '.join(sorted(_KEYWORDS))}), found {word!r}", kw)
            if self.base_vars is None and word != "base":
                self.semantic("a base statement must come first", kw)
            getattr(self, "stmt_" + word)(kw)
        if self.base_vars is None:
            self.semantic("document has no base statement", self.pos)
        bundles = [b._replace(anchors=tuple(b.anchors)) for b in self.doc.bundles]
        return self.doc._replace(base_vars=self.base_vars, bundles=bundles)

    # ---- statements ----

    def stmt_base(self, kw: int):
        if self.base_vars is not None:
            self.semantic("only one base statement is allowed", kw)
        dim = self.expect_int()
        names = [self.words[at] for at in self.name_list("variable name")]
        if len(set(names)) != len(names):
            self.semantic("base variable names must be unique", kw)
        if dim != len(names):
            self.semantic(f"base declares dimension {dim} but lists {len(names)} variables", kw)
        self.base_vars = tuple(names)
        self.var_index = {name: i for i, name in enumerate(names)}

    def stmt_bundle(self, kw: int):
        name_at = self.expect_ident("bundle name")
        self.expect("rank")
        rank = self.expect_int()
        self.expect("gens")
        gen_ats = self.name_list("generator name")
        if rank != len(gen_ats):
            self.semantic(f"bundle declares rank {rank} but lists {len(gen_ats)} generators", kw)
        name = self.declare(name_at, "bundle")
        gens = tuple(self.declare(at, "generator") for at in gen_ats)
        base = BaseSpace(self.base_vars)
        # the anchors are a list while anchor statements fill it, a tuple once parsed
        decl = BundleDecl(name, gens, [_vector_field(base, {}) for _ in gens], {})
        self.doc.bundles.append(decl)
        for idx, g in enumerate(gens):
            self.bundle_of_gen[g] = (decl, idx)

    def stmt_anchor(self, kw: int):
        gen_at = self.expect_ident("generator name")
        decl, idx = self.lookup_gen(gen_at)
        self.expect("->")
        vf = self.parse_vf_expr()
        if self.words[gen_at] in self.anchored:
            self.semantic(f"anchor of {self.words[gen_at]!r} declared twice", gen_at)
        self.anchored.add(self.words[gen_at])
        decl.anchors[idx] = vf

    def stmt_bracket(self, kw: int):
        self.expect("[")
        a_at = self.expect_ident("generator name")
        self.expect(",")
        b_at = self.expect_ident("generator name")
        self.expect("]")
        self.expect("=")
        decl_a, i = self.lookup_gen(a_at)
        decl_b, j = self.lookup_gen(b_at)
        if decl_a is not decl_b:
            self.semantic("bracket entries must come from one bundle", a_at)
        value = self.parse_section_expr(decl_a)[1]
        if i == j:
            if not value.is_zero():
                self.semantic("diagonal bracket must be zero", a_at)
            return
        key = (i, j) if i < j else (j, i)
        if key in decl_a.brackets:
            self.semantic(f"bracket [{self.words[a_at]}, {self.words[b_at]}] declared twice", a_at)
        if i > j:
            value = -value
        if not value.is_zero():
            decl_a.brackets[key] = value

    def stmt_section(self, kw: int):
        name_at = self.expect_ident("section name")
        self.expect("=")
        bundle, value = self.parse_section_expr(None, name_at)
        name = self.declare(name_at, "section")
        self.doc.sections.append(SectionDecl(name, bundle.name, value))

    def stmt_connection(self, kw: int):
        name_at = self.expect_ident("connection name")
        self.expect("on")
        bundle = self.lookup_bundle(self.expect_ident("bundle name"))
        self.expect("{")
        gamma: dict[tuple[int, int], Section] = {}
        while self.peek() != "}":
            if self.accept("default"):
                zero_at = self.pos
                if self.expect_int() != 0:
                    self.semantic("only 'default 0' is supported", zero_at)
                continue
            d_at = self.expect_ident("generator name")
            t_at = self.expect_ident("generator name")
            decl_d, alpha = self.lookup_gen(d_at)
            decl_t, b_idx = self.lookup_gen(t_at)
            if decl_d is not bundle or decl_t is not bundle:
                self.semantic("connection entries must use the bundle's generators", d_at)
            self.expect("->")
            value = self.parse_section_expr(bundle)[1]
            if (alpha, b_idx) in gamma:
                self.semantic(f"connection entry {self.words[d_at]} {self.words[t_at]} declared twice", d_at)
            if not value.is_zero():
                gamma[(alpha, b_idx)] = value
        self.expect("}")
        name = self.declare(name_at, "connection")
        self.doc.connections.append(ConnectionDecl(name, bundle.name, gamma))

    def stmt_endo(self, kw: int):
        name_at = self.expect_ident("endomorphism name")
        self.expect("{")
        bundle = None
        images: dict[int, Section] = {}
        while self.peek() != "}":
            g_at = self.expect_ident("generator name")
            decl, idx = self.lookup_gen(g_at)
            if bundle is None:
                bundle = decl
            elif decl is not bundle:
                self.semantic("endomorphism entries must use one bundle", g_at)
            self.expect("->")
            value = self.parse_section_expr(bundle)[1]
            if idx in images:
                self.semantic(f"image of {self.words[g_at]!r} declared twice", g_at)
            images[idx] = value
        close = self.expect("}")
        if bundle is None:
            self.semantic("endomorphism needs at least one image", close)
        m = len(bundle.gens)
        zero = Section.zero(m, len(self.base_vars))
        name = self.declare(name_at, "endo")
        self.doc.endos.append(EndoDecl(name, bundle.name, tuple(images.get(b, zero) for b in range(m))))

    def stmt_cometric(self, kw: int):
        name_at = self.expect_ident("cometric name")
        self.expect("=")
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.parse_poly_expr()]
            while self.accept(","):
                row.append(self.parse_poly_expr())
            self.expect("]")
            rows.append(Section(row))
            if not self.accept(","):
                break
        close = self.expect("]")
        if any(r.rank != len(rows) for r in rows):
            self.semantic("cometric matrix must be square", close)
        name = self.declare(name_at, "cometric")
        self.doc.cometrics.append(CometricDecl(name, tuple(rows)))

    def stmt_form(self, kw: int):
        name_at = self.expect_ident("form name")
        bundle = self.lookup_bundle(self.expect_ident("bundle name")) if self.accept("on") else None
        self.expect("=")
        bundle, degree, comps = self.parse_form_expr(name_at, bundle)
        name = self.declare(name_at, "form")
        self.doc.forms.append(FormDecl(name, bundle.name, degree, comps))

    # ---- expressions ----

    def parse_poly_expr(self) -> Poly:
        value = self.parse_poly_term()
        while True:
            if self.accept("+"):
                value = value + self.parse_poly_term()
            elif self.accept("-"):
                value = value - self.parse_poly_term()
            else:
                return value

    def parse_poly_term(self) -> Poly:
        value = self.parse_poly_factor()
        while self.accept("*"):
            value = self.times_poly_factor(value)
        return value

    def times_poly_factor(self, value: Poly) -> Poly:
        """value times the next factor, refused past the degree cap."""
        at = self.pos
        value = value * self.parse_poly_factor()
        degree = value.total_degree()
        if degree > DEGREE_CAP:
            self.semantic(f"product of degree {degree} exceeds the degree cap of {DEGREE_CAP}", at)
        return value

    def parse_poly_factor(self) -> Poly:
        if self.accept("-"):
            return -self.parse_poly_factor()
        value = self.parse_poly_atom()
        if self.accept("^"):
            at = self.pos
            k = self.expect_int()
            if k > DEGREE_CAP or value.total_degree() * k > DEGREE_CAP:
                self.semantic(f"exponent {k} would exceed the degree cap of {DEGREE_CAP}", at)
            return value ** k
        return value

    def parse_poly_atom(self) -> Poly:
        n = len(self.base_vars)
        at, word = self.pos, self.peek()
        if self.kinds[word] == "int":
            num = self.int_value(self.advance())
            if self.accept("/"):
                den = self.expect_int()
                if den == 0:
                    self.semantic("zero denominator", at)
                return Poly.const(n, Fraction(num, den))
            return Poly.const(n, num)
        if self.kinds[word] == "ident":
            idx = self.var_index.get(word)
            if idx is None:
                self.semantic(f"unknown variable {word!r}", at)
            self.advance()
            return Poly.variable(n, idx)
        if self.accept("("):
            value = self.parse_poly_expr()
            self.expect(")")
            return value
        self.error(f"expected a polynomial, found {word!r}", at)

    def parse_terms(self, read_atom, hint: str):
        """Yield the (coefficient, atoms) terms of a signed sum, one at a time.

        A term is a '*'-product of polynomial factors and basis atoms.
        `read_atom()` consumes one basis atom and returns it, or returns None,
        consuming nothing, where no atom starts.  Every sign and every '*' must
        be followed by a factor or an atom.  A term is yielded as soon as it is
        read, so a caller's error about it points just past it.
        """
        n = len(self.base_vars)
        first = True
        while True:
            if self.accept("-"):
                sign = -1
            elif self.accept("+") or first:
                sign = 1
            else:
                return
            first = False
            coeff, atoms = Poly.const(n, sign), []
            while True:
                atom = read_atom()
                word = self.peek()
                if atom is not None:
                    atoms.append(atom)
                elif word in self.var_index or word == "(" or self.kinds[word] == "int":
                    coeff = self.times_poly_factor(coeff)
                else:
                    kind = "semantic" if self.kinds[word] == "ident" and word not in _KEYWORDS else "syntax"
                    self.error(f"expected a {hint} or polynomial, found {word!r}", self.pos, kind)
                if not self.accept("*"):
                    break
            yield coeff, atoms

    def read_name(self) -> int | None:
        """A generator or coordinate-field name (`d1..dn`) as a basis atom."""
        word = self.peek()
        if word not in self.var_index and (word in self.bundle_of_gen or word.startswith("d") and word[1:].isdigit()):
            return self.advance()
        return None

    def named_terms(self, hint: str):
        """(coefficient, name token index) per term of a sum naming one basis element a term."""
        for coeff, names in self.parse_terms(self.read_name, hint):
            if len(names) > 1:
                self.semantic("term names two basis elements", names[1])
            if names:
                yield coeff, names[0]
            elif not coeff.is_zero():
                self.semantic(f"term has no {hint}; only the literal 0 may stand alone", self.pos)

    def fold(self, pairs) -> list[tuple]:
        """The (slot, coefficient) pairs of a sum, added up per slot: the nonzero sums, in slot order."""
        zero, sums = Poly.zero(len(self.base_vars)), {}
        for slot, coeff in pairs:
            sums[slot] = sums.get(slot, zero) + coeff
        return [(slot, sums[slot]) for slot in sorted(sums) if not sums[slot].is_zero()]

    def parse_vf_expr(self) -> VectorField:
        n = len(self.base_vars)
        d_names = {f"d{k + 1}": k for k in range(n)}

        def slots():
            for coeff, at in self.named_terms(f"coordinate field d1..d{n}"):
                idx = d_names.get(self.words[at])
                if idx is None:
                    self.semantic(f"{self.words[at]!r} is not a coordinate field of this {n}-variable base", at)
                yield idx, coeff

        return _vector_field(BaseSpace(self.base_vars), _slot_terms(self.fold(slots())))

    def parse_section_expr(self, bundle: BundleDecl | None, where: int | None = None) -> tuple[BundleDecl, Section]:
        """A section of `bundle`; given None, of the bundle its first generator
        belongs to, with an error at `where` if it names none."""
        fixed = bundle is not None

        def slots():
            nonlocal bundle
            for coeff, at in self.named_terms("generator"):
                hit = self.bundle_of_gen.get(self.words[at])
                if fixed and (hit is None or hit[0] is not bundle):
                    self.semantic(f"{self.words[at]!r} is not a generator of bundle {bundle.name!r}", at)
                if hit is None:
                    self.semantic(f"undeclared generator {self.words[at]!r}", at)
                bundle = bundle or hit[0]
                if hit[0] is not bundle:
                    self.semantic("section mixes generators of different bundles", at)
                yield hit[1], coeff

        pairs = self.fold(slots())
        if bundle is None:
            self.semantic("section expression names no generator", where)
        return bundle, _section(len(bundle.gens), len(self.base_vars), _slot_terms(pairs))

    def parse_form_expr(
        self, where: int, bundle: BundleDecl | None
    ) -> tuple[BundleDecl, int, dict[tuple[int, ...], Poly]]:
        """A form on `bundle`; given None, on the bundle of its duals, or the first bundle if it names none."""
        fixed = bundle is not None

        def read_duals() -> list[int] | None:
            """w(g)(^w(g))* as generator indices."""
            nonlocal bundle
            if not (self.peek() == "w" and self.words[self.pos + 1] == "("):
                return None
            indices = []
            while True:
                self.expect("w")
                self.expect("(")
                g_at = self.expect_ident("generator name")
                hit = self.lookup_gen(g_at)
                if fixed and hit[0] is not bundle:
                    self.semantic(f"{self.words[g_at]!r} is not a generator of bundle {bundle.name!r}", g_at)
                bundle = bundle or hit[0]
                if hit[0] is not bundle:
                    self.semantic("form mixes generators of different bundles", g_at)
                self.expect(")")
                indices.append(hit[1])
                if not self.accept("^"):
                    return indices

        # a term's slot is its sorted indices (an odd number of inversions
        # negates it); a repeated index or a zero coefficient drops the term but
        # keeps its degree (0*w(A) is a zero 1-form); w(A)*w(B) is w(A)^w(B)
        degrees = set()

        def slots():
            for coeff, duals in self.parse_terms(read_duals, "generator dual"):
                indices = [i for chain in duals for i in chain]
                degrees.add(len(indices))
                if len(set(indices)) == len(indices) and not coeff.is_zero():
                    odd = sum(a > b for a, b in combinations(indices, 2)) % 2
                    yield tuple(sorted(indices)), -coeff if odd else coeff

        comps = dict(self.fold(slots()))
        live_degrees = {len(k) for k in comps} or (degrees or {0})
        if len(live_degrees) > 1:
            self.semantic("form mixes components of different degrees", where)
        if bundle is None:
            if not self.doc.bundles:
                self.semantic("a scalar form needs a bundle to live on; declare one first", where)
            bundle = self.doc.bundles[0]
        return bundle, next(iter(live_degrees)), comps


# one statement keyword per `stmt_` method
_KEYWORDS = frozenset(name.removeprefix("stmt_") for name in vars(_Parser) if name.startswith("stmt_"))


@lru_cache(maxsize=64)
def _parsed(text: str) -> Document:
    """The parse of a text, kept per process; an error is raised again on every call, never kept."""
    return _Parser(text).parse_document()


def _own(decl):
    """A declaration with private copies of its dicts; the Poly and Section leaves are shared, never written."""
    dicts = {field: dict(value) for field, value in zip(decl._fields, decl) if type(value) is dict}
    return decl._replace(**dicts) if dicts else decl


def parse(text: str) -> Document:
    """The document a text declares, parsed once per distinct text.

    Each call hands out its own lists and declaration dicts, so a caller
    may change what it got without touching the next caller's document.
    """
    doc = _parsed(text)
    return Document(doc.base_vars, *([_own(decl) for decl in decls] for decls in doc[1:]))


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------


def _or_zero_on(text: str, name: str) -> str:
    """A sum's text, with the bare zero written `0*name` so that it names its bundle."""
    return f"0*{name}" if text == "0" else text


def serialize(doc: Document) -> str:
    v = doc.base_vars
    lines: list[str] = [f"base {len(v)} ({', '.join(v)})"]
    for b in doc.bundles:
        lines.append("")
        lines.append(f"bundle {b.name} rank {len(b.gens)} gens ({', '.join(b.gens)})")
        for gen, vf in zip(b.gens, b.anchors):
            if not vf.is_zero():
                lines.append(f"anchor {gen} -> {vf.to_text()}")
        for (i, j), value in sorted(b.brackets.items()):
            lines.append(f"bracket [{b.gens[i]}, {b.gens[j]}] = {sum_text(value.split, b.gens, v)}")
    for s in doc.sections:
        gens = doc.bundle(s.bundle).gens
        lines.append("")
        lines.append(f"section {s.name} = {_or_zero_on(sum_text(s.value.split, gens, v), gens[0])}")
    for c in doc.connections:
        b = doc.bundle(c.bundle)
        lines.append("")
        lines.append(f"connection {c.name} on {b.name} {{")
        for (alpha, t_idx), value in sorted(c.gamma.items()):
            lines.append(f"  {b.gens[alpha]} {b.gens[t_idx]} -> {sum_text(value.split, b.gens, v)}")
        lines.append("  default 0")
        lines.append("}")
    for e in doc.endos:
        b = doc.bundle(e.bundle)
        lines.append("")
        lines.append(f"endo {e.name} {{")
        images = list(zip(b.gens, e.images))
        live = [(gen, image) for gen, image in images if not image.is_zero()]
        for gen, image in live or images[:1]:  # the zero endomorphism: `first -> 0`
            lines.append(f"  {gen} -> {sum_text(image.split, b.gens, v)}")
        lines.append("}")
    for cm in doc.cometrics:
        lines.append("")
        lines.append(f"cometric {cm.name} = [")
        for r, row in enumerate(cm.rows):
            tail = "," if r + 1 < len(cm.rows) else ""
            lines.append("  [" + ", ".join(p.to_text(v) for p in row.coeffs) + "]" + tail)
        lines.append("]")
    for f in doc.forms:
        gens = doc.bundle(f.bundle).gens
        text = form_text(dict(sorted(f.comps.items())), gens, v)
        if f.degree:
            text = _or_zero_on(text, "^".join(f"w({g})" for g in gens[: f.degree]))
        # a 0-form names no generator, so one off the first bundle names its bundle
        on = f" on {f.bundle}" if not f.degree and f.bundle != doc.bundles[0].name else ""
        lines.append("")
        lines.append(f"form {f.name}{on} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# documents <-> engine objects
# ---------------------------------------------------------------------------


def document_algebroid(doc: Document, bundle_name: str | None = None) -> Algebroid:
    b = doc.bundle(bundle_name)
    base = BaseSpace(doc.base_vars)
    return Algebroid(base, b.gens, list(b.anchors), dict(b.brackets), name=b.name)


def _on_bundle(doc: Document, algebroid: Algebroid, kind: str, decl):
    """`decl`, refused unless it lives on the bundle of `algebroid`."""
    if doc.bundle(decl.bundle).gens != algebroid.gen_names:
        raise KeyError(f"{kind} {decl.name!r} lives on bundle {decl.bundle!r}")
    return decl


def document_connection(doc: Document, algebroid: Algebroid, name: str) -> EConnection:
    from .connection import EConnection

    c = _on_bundle(doc, algebroid, "connection", doc.connection(name))
    return EConnection(algebroid, dict(c.gamma), name=name)


def document_endo(doc: Document, algebroid: Algebroid, name: str) -> Endomorphism:
    return Endomorphism(_on_bundle(doc, algebroid, "endomorphism", doc.endo(name)).images)


def document_form(doc: Document, algebroid: Algebroid, name: str) -> Form:
    from .forms import Form

    f = _on_bundle(doc, algebroid, "form", doc.form(name))
    return Form(algebroid, f.degree, dict(f.comps))


def _safe_ident(name: str, taken: set[str]) -> str:
    ident = re.sub(r"\W", "_", name)
    if not ident or not (ident[0].isalpha() or ident[0] == "_"):
        ident = "g_" + ident
    candidate = ident
    counter = 2
    while candidate in taken:
        candidate = f"{ident}_{counter}"
        counter += 1
    taken.add(candidate)
    return candidate


def algebroid_to_document(algebroid: Algebroid, *, connections: dict[str, EConnection] | None = None) -> Document:
    """Express an algebroid, and any connections on it, as a document.

    Generator names are sanitized to identifiers (wedge names like `A^B`
    become `A_B`), so round-tripping a derived bundle is possible; the
    sanitized document elaborates to an algebroid equal up to renaming.
    """
    taken: set[str] = set(algebroid.base.var_names)
    bundle_name = _safe_ident(algebroid.name or "E", taken)
    gens = tuple(_safe_ident(g, taken) for g in algebroid.gen_names)
    brackets = {k: s for k, s in algebroid.structure.items() if not s.is_zero()}
    decl = BundleDecl(bundle_name, gens, tuple(algebroid.anchor), brackets)
    conn_decls = []
    for name, conn in (connections or {}).items():
        gamma = {k: s for k, s in conn.gamma.items() if not s.is_zero()}
        conn_decls.append(ConnectionDecl(_safe_ident(name, taken), bundle_name, gamma))
    return Document(tuple(algebroid.base.var_names), [decl], [], conn_decls, [], [], [])
