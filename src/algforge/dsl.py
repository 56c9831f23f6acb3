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
is structurally equal to doc.  Within form expressions `w(...)` is reserved
for generator duals, and in anchor expressions `d1..dn` name the coordinate
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebroid import Algebroid, BaseSpace, Endomorphism, Section, VectorField
from .connection import EConnection
from .forms import Form
from .poly import Poly

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

_SYMBOLS = set("()[]{},^*+-=/")
_DIGITS = set("0123456789")  # str.isdigit() also admits superscripts such as "²"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sym" | "arrow" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# the elaborated document model
# ---------------------------------------------------------------------------


@dataclass
class BundleDecl:
    name: str
    gens: tuple[str, ...]
    anchors: tuple[VectorField, ...]
    brackets: dict[tuple[int, int], Section] = field(default_factory=dict)


@dataclass
class SectionDecl:
    name: str
    bundle: str
    value: Section


@dataclass
class ConnectionDecl:
    name: str
    bundle: str
    gamma: dict[tuple[int, int], Section] = field(default_factory=dict)


@dataclass
class EndoDecl:
    name: str
    bundle: str
    matrix: tuple[tuple[Poly, ...], ...]  # [a][b] = e_a-coefficient of the image of e_b


@dataclass
class CometricDecl:
    name: str
    rows: tuple[tuple[Poly, ...], ...]


@dataclass
class FormDecl:
    name: str
    bundle: str
    degree: int
    comps: dict[tuple[int, ...], Poly] = field(default_factory=dict)


@dataclass
class Document:
    base_vars: tuple[str, ...]
    bundles: list[BundleDecl] = field(default_factory=list)
    sections: list[SectionDecl] = field(default_factory=list)
    connections: list[ConnectionDecl] = field(default_factory=list)
    endos: list[EndoDecl] = field(default_factory=list)
    cometrics: list[CometricDecl] = field(default_factory=list)
    forms: list[FormDecl] = field(default_factory=list)

    # ---- lookups ----

    def bundle(self, name: str | None = None) -> BundleDecl:
        if name is None:
            if not self.bundles:
                raise KeyError("document declares no bundle")
            return self.bundles[0]
        for b in self.bundles:
            if b.name == name:
                return b
        raise KeyError(f"no bundle named {name!r}")

    def _find(self, decls, kind: str, name: str):
        for d in decls:
            if d.name == name:
                return d
        raise KeyError(f"no {kind} named {name!r}")

    def connection(self, name: str) -> ConnectionDecl:
        return self._find(self.connections, "connection", name)

    def endo(self, name: str) -> EndoDecl:
        return self._find(self.endos, "endo", name)

    def cometric(self, name: str) -> CometricDecl:
        return self._find(self.cometrics, "cometric", name)

    def form(self, name: str) -> FormDecl:
        return self._find(self.forms, "form", name)

    def section(self, name: str) -> SectionDecl:
        return self._find(self.sections, "section", name)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "base",
    "bundle",
    "anchor",
    "bracket",
    "section",
    "connection",
    "endo",
    "cometric",
    "form",
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.base_vars: tuple[str, ...] | None = None
        self.var_index: dict[str, int] = {}
        self.names: dict[str, str] = {}  # declared name -> kind
        self.bundles: list[BundleDecl] = []
        self.bundle_of_gen: dict[str, tuple[BundleDecl, int]] = {}
        self.anchored: set[str] = set()
        self.doc = None

    # ---- token plumbing ----

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("sym", "arrow", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise DslError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def expect_ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise DslError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise DslError(f"expected integer, found {tok.text!r}", tok.line, tok.col)
        self.advance()
        return self.int_value(tok)

    def int_value(self, tok: Token) -> int:
        """The value of an integer literal; Python refuses very long digit strings."""
        try:
            return int(tok.text)
        except ValueError:
            self.semantic(f"integer literal of {len(tok.text)} digits is too long", tok)

    def semantic(self, message: str, tok: Token):
        raise DslError(message, tok.line, tok.col, kind="semantic")

    # ---- name registry ----

    def declare(self, tok: Token, kind: str) -> str:
        if tok.text in self.names:
            self.semantic(f"name {tok.text!r} already declared as {self.names[tok.text]}", tok)
        if tok.text in self.var_index:
            self.semantic(f"name {tok.text!r} already names a base variable", tok)
        self.names[tok.text] = kind
        return tok.text

    def need_base(self, tok: Token):
        if self.base_vars is None:
            self.semantic("a base statement must come first", tok)

    def lookup_gen(self, tok: Token) -> tuple[BundleDecl, int]:
        hit = self.bundle_of_gen.get(tok.text)
        if hit is None:
            self.semantic(f"undeclared generator {tok.text!r}", tok)
        return hit

    # ---- document ----

    def parse_document(self) -> Document:
        doc = Document(base_vars=())
        self.doc = doc
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in _KEYWORDS:
                raise DslError(
                    f"expected a statement keyword ({', '.join(sorted(_KEYWORDS))}), found {tok.text!r}",
                    tok.line,
                    tok.col,
                )
            getattr(self, "stmt_" + tok.text)()
        if self.base_vars is None:
            last = self.peek()
            raise DslError("document has no base statement", last.line, last.col, kind="semantic")
        doc.base_vars = self.base_vars
        return doc

    # ---- statements ----

    def stmt_base(self):
        kw = self.advance()
        if self.base_vars is not None:
            self.semantic("only one base statement is allowed", kw)
        dim = self.expect_int()
        self.expect("(")
        names = [self.expect_ident("variable name").text]
        while self.accept(","):
            names.append(self.expect_ident("variable name").text)
        self.expect(")")
        if len(set(names)) != len(names):
            self.semantic("base variable names must be unique", kw)
        if dim != len(names):
            self.semantic(f"base declares dimension {dim} but lists {len(names)} variables", kw)
        self.base_vars = tuple(names)
        self.var_index = {name: i for i, name in enumerate(names)}

    def stmt_bundle(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("bundle name")
        self.expect("rank")
        rank = self.expect_int()
        self.expect("gens")
        self.expect("(")
        gen_toks = [self.expect_ident("generator name")]
        while self.accept(","):
            gen_toks.append(self.expect_ident("generator name"))
        self.expect(")")
        if rank != len(gen_toks):
            self.semantic(f"bundle declares rank {rank} but lists {len(gen_toks)} generators", kw)
        name = self.declare(name_tok, "bundle")
        gens = tuple(self.declare(tok, "generator") for tok in gen_toks)
        n = len(self.base_vars)
        decl = BundleDecl(name, gens, tuple(VectorField(BaseSpace(self.base_vars), [Poly.zero(n)] * n) for _ in gens))
        self.bundles.append(decl)
        self.doc.bundles.append(decl)
        for idx, g in enumerate(gens):
            self.bundle_of_gen[g] = (decl, idx)

    def stmt_anchor(self):
        kw = self.advance()
        self.need_base(kw)
        gen_tok = self.expect_ident("generator name")
        decl, idx = self.lookup_gen(gen_tok)
        self.expect("->")
        vf = self.parse_vf_expr()
        if gen_tok.text in self.anchored:
            self.semantic(f"anchor of {gen_tok.text!r} declared twice", gen_tok)
        self.anchored.add(gen_tok.text)
        anchors = list(decl.anchors)
        anchors[idx] = vf
        decl.anchors = tuple(anchors)

    def stmt_bracket(self):
        kw = self.advance()
        self.need_base(kw)
        self.expect("[")
        a_tok = self.expect_ident("generator name")
        self.expect(",")
        b_tok = self.expect_ident("generator name")
        self.expect("]")
        self.expect("=")
        decl_a, i = self.lookup_gen(a_tok)
        decl_b, j = self.lookup_gen(b_tok)
        if decl_a is not decl_b:
            self.semantic("bracket entries must come from one bundle", a_tok)
        value = self.parse_section_expr(decl_a)
        if i == j:
            if not value.is_zero():
                self.semantic("diagonal bracket must be zero", a_tok)
            return
        key = (i, j) if i < j else (j, i)
        if key in decl_a.brackets:
            self.semantic(f"bracket [{a_tok.text}, {b_tok.text}] declared twice", a_tok)
        if i > j:
            value = value.neg()
        if not value.is_zero():
            decl_a.brackets[key] = value

    def stmt_section(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("section name")
        self.expect("=")
        bundle, value = self.parse_section_expr_any_bundle(name_tok)
        name = self.declare(name_tok, "section")
        self.doc.sections.append(SectionDecl(name, bundle.name, value))

    def stmt_connection(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("connection name")
        self.expect("on")
        bundle_tok = self.expect_ident("bundle name")
        bundle = None
        for b in self.bundles:
            if b.name == bundle_tok.text:
                bundle = b
        if bundle is None:
            self.semantic(f"undeclared bundle {bundle_tok.text!r}", bundle_tok)
        self.expect("{")
        gamma: dict[tuple[int, int], Section] = {}
        while not self.at("}"):
            if self.accept("default"):
                zero_tok = self.peek()
                if self.expect_int() != 0:
                    self.semantic("only 'default 0' is supported", zero_tok)
                continue
            d_tok = self.expect_ident("generator name")
            t_tok = self.expect_ident("generator name")
            decl_d, alpha = self.lookup_gen(d_tok)
            decl_t, b_idx = self.lookup_gen(t_tok)
            if decl_d is not bundle or decl_t is not bundle:
                self.semantic("connection entries must use the bundle's generators", d_tok)
            self.expect("->")
            value = self.parse_section_expr(bundle)
            if (alpha, b_idx) in gamma:
                self.semantic(f"connection entry {d_tok.text} {t_tok.text} declared twice", d_tok)
            if not value.is_zero():
                gamma[(alpha, b_idx)] = value
        self.expect("}")
        name = self.declare(name_tok, "connection")
        self.doc.connections.append(ConnectionDecl(name, bundle.name, gamma))

    def stmt_endo(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("endomorphism name")
        self.expect("{")
        bundle = None
        images: dict[int, Section] = {}
        while not self.at("}"):
            g_tok = self.expect_ident("generator name")
            decl, idx = self.lookup_gen(g_tok)
            if bundle is None:
                bundle = decl
            elif decl is not bundle:
                self.semantic("endomorphism entries must use one bundle", g_tok)
            self.expect("->")
            value = self.parse_section_expr(bundle)
            if idx in images:
                self.semantic(f"image of {g_tok.text!r} declared twice", g_tok)
            images[idx] = value
        close = self.expect("}")
        if bundle is None:
            self.semantic("endomorphism needs at least one image", close)
        n = len(self.base_vars)
        m = len(bundle.gens)
        zero = Poly.zero(n)
        matrix = tuple(
            tuple(images[b].coeffs[a] if b in images else zero for b in range(m)) for a in range(m)
        )
        name = self.declare(name_tok, "endo")
        self.doc.endos.append(EndoDecl(name, bundle.name, matrix))

    def stmt_cometric(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("cometric name")
        self.expect("=")
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.parse_poly_expr()]
            while self.accept(","):
                row.append(self.parse_poly_expr())
            self.expect("]")
            rows.append(tuple(row))
            if not self.accept(","):
                break
        close = self.expect("]")
        if any(len(r) != len(rows) for r in rows):
            self.semantic("cometric matrix must be square", close)
        name = self.declare(name_tok, "cometric")
        self.doc.cometrics.append(CometricDecl(name, tuple(rows)))

    def stmt_form(self):
        kw = self.advance()
        self.need_base(kw)
        name_tok = self.expect_ident("form name")
        self.expect("=")
        bundle, degree, comps = self.parse_form_expr(name_tok)
        name = self.declare(name_tok, "form")
        self.doc.forms.append(FormDecl(name, bundle.name, degree, comps))

    # ---- expressions ----

    def parse_poly_expr(self) -> Poly:
        n = len(self.base_vars)
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
        tok = self.peek()
        value = value * self.parse_poly_factor()
        degree = value.total_degree()
        if degree > DEGREE_CAP:
            self.semantic(f"product of degree {degree} exceeds the degree cap of {DEGREE_CAP}", tok)
        return value

    def parse_poly_factor(self) -> Poly:
        if self.accept("-"):
            return -self.parse_poly_factor()
        value = self.parse_poly_atom()
        if self.accept("^"):
            tok = self.peek()
            k = self.expect_int()
            if k > DEGREE_CAP or value.total_degree() * k > DEGREE_CAP:
                self.semantic(f"exponent {k} would exceed the degree cap of {DEGREE_CAP}", tok)
            return value ** k
        return value

    def parse_poly_atom(self) -> Poly:
        n = len(self.base_vars)
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = self.int_value(tok)
            if self.accept("/"):
                den = self.expect_int()
                if den == 0:
                    self.semantic("zero denominator", tok)
                return Poly.const(n, Fraction(num, den))
            return Poly.const(n, num)
        if tok.kind == "ident":
            idx = self.var_index.get(tok.text)
            if idx is None:
                raise DslError(f"unknown variable {tok.text!r}", tok.line, tok.col, kind="semantic")
            self.advance()
            return Poly.variable(n, idx)
        if self.accept("("):
            value = self.parse_poly_expr()
            self.expect(")")
            return value
        raise DslError(f"expected a polynomial, found {tok.text!r}", tok.line, tok.col)

    def parse_vf_expr(self) -> VectorField:
        n = len(self.base_vars)
        d_names = {f"d{k + 1}": k for k in range(n)}
        comps = [Poly.zero(n) for _ in range(n)]

        def sink(name_tok: Token, coeff: Poly):
            idx = d_names.get(name_tok.text)
            if idx is None:
                self.semantic(
                    f"{name_tok.text!r} is not a coordinate field of this {n}-variable base", name_tok
                )
            comps[idx] = comps[idx] + coeff

        self.parse_weighted_sum(sink, basis_hint="coordinate field d1..d" + str(n))
        return VectorField(BaseSpace(self.base_vars), comps)

    def parse_section_expr(self, bundle: BundleDecl) -> Section:
        n = len(self.base_vars)
        coeffs = [Poly.zero(n) for _ in range(len(bundle.gens))]

        def sink(name_tok: Token, coeff: Poly):
            hit = self.bundle_of_gen.get(name_tok.text)
            if hit is None or hit[0] is not bundle:
                self.semantic(f"{name_tok.text!r} is not a generator of bundle {bundle.name!r}", name_tok)
            coeffs[hit[1]] = coeffs[hit[1]] + coeff

        self.parse_weighted_sum(sink, basis_hint="generator")
        return Section(coeffs)

    def parse_section_expr_any_bundle(self, where: Token) -> tuple[BundleDecl, Section]:
        n = len(self.base_vars)
        found: list[BundleDecl] = []
        entries: list[tuple[int, Poly]] = []

        def sink(name_tok: Token, coeff: Poly):
            hit = self.bundle_of_gen.get(name_tok.text)
            if hit is None:
                self.semantic(f"undeclared generator {name_tok.text!r}", name_tok)
            if found and hit[0] is not found[0]:
                self.semantic("section mixes generators of different bundles", name_tok)
            if not found:
                found.append(hit[0])
            entries.append((hit[1], coeff))

        self.parse_weighted_sum(sink, basis_hint="generator")
        if not found:
            self.semantic("section expression names no generator", where)
        bundle = found[0]
        coeffs = [Poly.zero(n) for _ in range(len(bundle.gens))]
        for idx, coeff in entries:
            coeffs[idx] = coeffs[idx] + coeff
        return bundle, Section(coeffs)

    def parse_weighted_sum(self, sink, basis_hint: str):
        """Sum of terms, each a '*'-product of poly factors and one basis name.

        A term with no basis name must be the literal zero.  `sink` receives
        (name token, accumulated coefficient) per term.
        """
        n = len(self.base_vars)
        first = True
        while True:
            sign = 1
            if self.accept("-"):
                sign = -1
            elif self.accept("+"):
                pass
            elif not first:
                return
            coeff = Poly.const(n, sign)
            name_tok: Token | None = None
            while True:
                tok = self.peek()
                if tok.kind == "ident" and tok.text in self.bundle_of_gen or (
                    tok.kind == "ident" and tok.text.startswith("d") and tok.text[1:].isdigit()
                    and tok.text not in self.var_index
                ):
                    if name_tok is not None:
                        self.semantic("term names two basis elements", tok)
                    name_tok = tok
                    self.advance()
                elif tok.kind == "ident" and tok.text in self.var_index or tok.kind == "int" or tok.text == "(":
                    coeff = self.times_poly_factor(coeff)
                elif tok.kind == "ident":
                    raise DslError(
                        f"expected a {basis_hint} or polynomial, found {tok.text!r}",
                        tok.line,
                        tok.col,
                        kind="semantic",
                    )
                else:
                    break
                if not self.accept("*"):
                    break
            if name_tok is None:
                if not coeff.is_zero():
                    tok = self.peek()
                    raise DslError(
                        f"term has no {basis_hint}; only the literal 0 may stand alone",
                        tok.line,
                        tok.col,
                        kind="semantic",
                    )
            else:
                sink(name_tok, coeff)
            first = False
            if not (self.at("+") or self.at("-")):
                return

    def parse_form_expr(self, where: Token) -> tuple[BundleDecl, int, dict[tuple[int, ...], Poly]]:
        n = len(self.base_vars)
        bundle_box: list[BundleDecl] = []
        terms: list[tuple[tuple[int, ...], Poly]] = []

        def parse_dual_atom() -> int:
            self.expect("w")
            self.expect("(")
            g_tok = self.expect_ident("generator name")
            hit = self.bundle_of_gen.get(g_tok.text)
            if hit is None:
                self.semantic(f"undeclared generator {g_tok.text!r}", g_tok)
            if bundle_box and hit[0] is not bundle_box[0]:
                self.semantic("form mixes generators of different bundles", g_tok)
            if not bundle_box:
                bundle_box.append(hit[0])
            self.expect(")")
            return hit[1]

        first = True
        while True:
            sign = 1
            if self.accept("-"):
                sign = -1
            elif self.accept("+"):
                pass
            elif not first:
                break
            coeff = Poly.const(n, sign)
            indices: list[int] = []
            while True:
                tok = self.peek()
                if tok.kind == "ident" and tok.text == "w" and self.peek(1).text == "(":
                    indices.append(parse_dual_atom())
                    while self.accept("^"):
                        indices.append(parse_dual_atom())
                elif tok.kind == "ident" and tok.text in self.var_index or tok.kind == "int" or tok.text == "(":
                    coeff = self.times_poly_factor(coeff)
                else:
                    break
                if not self.accept("*"):
                    break
            terms.append((tuple(indices), coeff))
            first = False
            if not (self.at("+") or self.at("-")):
                break

        # fold terms: sort indices with parity, drop repeats and zeros
        degrees = set()
        comps: dict[tuple[int, ...], Poly] = {}
        for indices, coeff in terms:
            if coeff.is_zero():
                continue
            if len(set(indices)) != len(indices):
                continue
            degrees.add(len(indices))
            key, parity = _sort_with_parity(indices)
            if parity < 0:
                coeff = -coeff
            comps[key] = comps.get(key, Poly.zero(n)) + coeff
        comps = {k: v for k, v in comps.items() if not v.is_zero()}
        live_degrees = {len(k) for k in comps} or (degrees or {0})
        if len(live_degrees) > 1:
            self.semantic("form mixes components of different degrees", where)
        degree = next(iter(live_degrees))
        if degree > 0 and not bundle_box:
            self.semantic("form expression names no generator dual", where)
        if not bundle_box:
            if not self.bundles:
                self.semantic("a scalar form needs a bundle to live on; declare one first", where)
            bundle_box.append(self.bundles[0])
        return bundle_box[0], degree, comps


def _sort_with_parity(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    order = list(indices)
    parity = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            parity = -parity
            j -= 1
    return tuple(order), parity


def parse(text: str) -> Document:
    return _Parser(text).parse_document()


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------


def _poly_text(p: Poly, var_names) -> str:
    return p.to_text(var_names)


def _coeff_prefix(p: Poly, var_names) -> tuple[str, str]:
    """Render a coefficient as (sign, body*) where body omits a bare 1."""
    text = p.to_text(var_names)
    sign = "+"
    if len(p.terms) == 1:
        if text.startswith("-"):
            sign = "-"
            text = text[1:]
    elif text.startswith("-") or " " in text:
        return "+", f"({text})*"
    if text == "1":
        return sign, ""
    return sign, f"{text}*"


def _weighted_sum_text(pairs: list[tuple[Poly, str]], var_names) -> str:
    """Canonical `c1*B1 + c2*B2` rendering for sections and vector fields."""
    pieces = []
    for coeff, basis in pairs:
        if coeff.is_zero():
            continue
        sign, body = _coeff_prefix(coeff, var_names)
        pieces.append((sign, f"{body}{basis}"))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def section_to_text(value: Section, bundle: BundleDecl, var_names) -> str:
    return _weighted_sum_text(list(zip(value.coeffs, bundle.gens)), var_names)


def serialize(doc: Document) -> str:
    v = doc.base_vars
    lines: list[str] = [f"base {len(v)} ({', '.join(v)})"]
    for b in doc.bundles:
        lines.append("")
        lines.append(f"bundle {b.name} rank {len(b.gens)} gens ({', '.join(b.gens)})")
        for gen, vf in zip(b.gens, b.anchors):
            if vf.is_zero():
                continue
            pairs = [(coeff, f"d{j + 1}") for j, coeff in enumerate(vf.comps)]
            lines.append(f"anchor {gen} -> {_weighted_sum_text(pairs, v)}")
        for (i, j), value in sorted(b.brackets.items()):
            lines.append(f"bracket [{b.gens[i]}, {b.gens[j]}] = {section_to_text(value, b, v)}")
    for s in doc.sections:
        b = doc.bundle(s.bundle)
        lines.append("")
        lines.append(f"section {s.name} = {section_to_text(s.value, b, v)}")
    for c in doc.connections:
        b = doc.bundle(c.bundle)
        lines.append("")
        lines.append(f"connection {c.name} on {b.name} {{")
        for (alpha, t_idx), value in sorted(c.gamma.items()):
            lines.append(f"  {b.gens[alpha]} {b.gens[t_idx]} -> {section_to_text(value, b, v)}")
        lines.append("  default 0")
        lines.append("}")
    for e in doc.endos:
        b = doc.bundle(e.bundle)
        lines.append("")
        lines.append(f"endo {e.name} {{")
        for col in range(len(b.gens)):
            column = Section([e.matrix[row][col] for row in range(len(b.gens))])
            if column.is_zero():
                continue
            lines.append(f"  {b.gens[col]} -> {section_to_text(column, b, v)}")
        lines.append("}")
    for cm in doc.cometrics:
        lines.append("")
        lines.append(f"cometric {cm.name} = [")
        for r, row in enumerate(cm.rows):
            tail = "," if r + 1 < len(cm.rows) else ""
            lines.append("  [" + ", ".join(_poly_text(p, v) for p in row) + "]" + tail)
        lines.append("]")
    for f in doc.forms:
        b = doc.bundle(f.bundle)
        lines.append("")
        if not f.comps:
            lines.append(f"form {f.name} = 0")
            continue
        pieces = []
        for key in sorted(f.comps):
            coeff = f.comps[key]
            basis = "^".join(f"w({b.gens[i]})" for i in key)
            sign, body = _coeff_prefix(coeff, v)
            if not basis:
                text = coeff.to_text(v)
                pieces.append(("+", f"({text})" if (" " in text or text.startswith("-")) else text))
            else:
                pieces.append((sign, f"{body}{basis}" if body else basis))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        lines.append(f"form {f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# documents <-> engine objects
# ---------------------------------------------------------------------------


def document_algebroid(doc: Document, bundle_name: str | None = None) -> Algebroid:
    b = doc.bundle(bundle_name)
    base = BaseSpace(doc.base_vars)
    return Algebroid(base, b.gens, list(b.anchors), dict(b.brackets), name=b.name)


def document_connection(doc: Document, algebroid: Algebroid, name: str) -> EConnection:
    c = doc.connection(name)
    if doc.bundle(c.bundle).gens != algebroid.gen_names:
        raise KeyError(f"connection {name!r} lives on bundle {c.bundle!r}")
    return EConnection(algebroid, dict(c.gamma), name=name)

def document_endo(doc: Document, algebroid: Algebroid, name: str) -> Endomorphism:
    e = doc.endo(name)
    if doc.bundle(e.bundle).gens != algebroid.gen_names:
        raise KeyError(f"endomorphism {name!r} lives on bundle {e.bundle!r}")
    return Endomorphism([list(row) for row in e.matrix])


def document_form(doc: Document, algebroid: Algebroid, name: str) -> Form:
    f = doc.form(name)
    if doc.bundle(f.bundle).gens != algebroid.gen_names:
        raise KeyError(f"form {name!r} lives on bundle {f.bundle!r}")
    return Form(algebroid, f.degree, dict(f.comps))


def _safe_ident(name: str, taken: set[str]) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    ident = "".join(out)
    if not ident or not (ident[0].isalpha() or ident[0] == "_"):
        ident = "g_" + ident
    candidate = ident
    counter = 2
    while candidate in taken:
        candidate = f"{ident}_{counter}"
        counter += 1
    taken.add(candidate)
    return candidate


def algebroid_to_document(
    algebroid: Algebroid,
    *,
    sections: dict[str, Section] | None = None,
    connections: dict[str, EConnection] | None = None,
    endos: dict[str, Endomorphism] | None = None,
    cometrics: dict[str, list[list[Poly]]] | None = None,
    forms: dict[str, Form] | None = None,
) -> Document:
    """Express an algebroid (plus companions) as a document.

    Generator names are sanitized to identifiers (wedge names like `A^B`
    become `A_B`), so round-tripping a derived bundle is possible; the
    sanitized document elaborates to an algebroid equal up to renaming.
    """
    taken: set[str] = set(algebroid.base.var_names)
    bundle_name = _safe_ident(algebroid.name or "E", taken)
    gens = tuple(_safe_ident(g, taken) for g in algebroid.gen_names)
    brackets = {k: s for k, s in algebroid.structure.items() if not s.is_zero()}
    decl = BundleDecl(bundle_name, gens, tuple(algebroid.anchor), brackets)
    doc = Document(base_vars=tuple(algebroid.base.var_names), bundles=[decl])
    for name, value in (sections or {}).items():
        doc.sections.append(SectionDecl(_safe_ident(name, taken), bundle_name, value))
    for name, conn in (connections or {}).items():
        gamma = {k: s for k, s in conn.gamma.items() if not s.is_zero()}
        doc.connections.append(ConnectionDecl(_safe_ident(name, taken), bundle_name, gamma))
    for name, endo in (endos or {}).items():
        doc.endos.append(
            EndoDecl(_safe_ident(name, taken), bundle_name, tuple(tuple(row) for row in endo.matrix))
        )
    for name, rows in (cometrics or {}).items():
        doc.cometrics.append(CometricDecl(_safe_ident(name, taken), tuple(tuple(r) for r in rows)))
    for name, form in (forms or {}).items():
        doc.forms.append(
            FormDecl(_safe_ident(name, taken), bundle_name, form.degree, dict(form.comps))
        )
    return doc
