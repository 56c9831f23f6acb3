"""Form operations against an independent sympy re-implementation.

A form becomes a dict {strictly increasing index tuple: sympy expression}
in the base coordinates.  The wedge product, the differential (the
Koszul/Cartan formula on generator tuples, with anchored derivatives taken by
``sympy.diff``), the pairing of d²θ^a with the Jacobiator, the interval
homotopy (``sympy.integrate`` over [0, 1]) and the endpoint restriction
(``subs``) are written out here.  Nothing of the package's arithmetic is
used; the package is read only for its input tables (anchor and structure),
for the components of the forms under test and for its results.  Inputs are
the zero forms, the dual generators and seeded forms of degree 0..3 over E0,
E0_itemized (which fails the anchor axioms), tangent3 and the rank-5 interval
product of E0.
"""

from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from algforge.catalog import builtin  # noqa: E402
from algforge.charclass import product_algebroid  # noqa: E402
from algforge.forms import Form, d_squared, differential  # noqa: E402
from algforge.sampling import Sampler  # noqa: E402


def to_expr(poly, xs):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
          for exps, c in poly.terms.items())
    )


def sort_sign(seq):
    """(sign of the permutation sorting seq, sorted tuple); sign 0 on a repeated index."""
    if len(set(seq)) != len(seq):
        return 0, None
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return (-1) ** inversions, tuple(sorted(seq))


class Oracle:
    """One algebroid's tables as sympy data, and the form formulas over them."""

    def __init__(self, a):
        self.rank, self.xs = a.rank, sympy.symbols(f"x1:{a.nvars + 1}")
        self.anchor = [[to_expr(c, self.xs) for c in row.coeffs] for row in a.anchor]
        self.structure = {}
        for (i, j), value in a.structure.items():
            column = [to_expr(c, self.xs) for c in value.coeffs]
            self.structure[(i, j)] = column
            self.structure[(j, i)] = [-c for c in column]

    def form(self, omega):
        return {key: to_expr(p, self.xs) for key, p in omega.comps.items()}

    def rho(self, i, f):
        """The anchor of generator i applied to a function."""
        return sympy.Add(*(v * sympy.diff(f, x) for v, x in zip(self.anchor[i], self.xs)))

    def bracket_gen(self, i, j):
        return self.structure.get((i, j), [0] * self.rank)

    def bracket_gen_section(self, i, s):
        """[e_i, s] for a polynomial section s, by the Leibniz rule."""
        out = [self.rho(i, c) for c in s]
        for c, sc in enumerate(s):
            for k, v in enumerate(self.bracket_gen(i, c)):
                out[k] += sc * v
        return out

    def jacobiator_gens(self, i, j, k):
        out = [0] * self.rank
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for c, v in enumerate(self.bracket_gen_section(p, self.bracket_gen(q, r))):
                out[c] += v
        return out

    @staticmethod
    def value(omega, args):
        """omega(e_{args[0]}, ..., e_{args[-1]}) for generator indices."""
        sign, key = sort_sign(args)
        return 0 if not sign else sign * omega.get(key, 0)

    def value_section_first(self, omega, s, rest):
        """omega(s, e_{rest[0]}, ...) for a polynomial section s."""
        return sympy.Add(*(sc * self.value(omega, (c,) + tuple(rest)) for c, sc in enumerate(s)))

    def wedge(self, alpha, beta):
        out = {}
        for s, a in alpha.items():
            for t, b in beta.items():
                sign, key = sort_sign(s + t)
                if sign:
                    out[key] = out.get(key, 0) + sign * a * b
        return out

    def differential(self, omega, k):
        """dω(e_{u_0},…,e_{u_k}) = Σ_i (−1)^i ρ(e_{u_i}) ω(…ê_{u_i}…)
        + Σ_{i<j} (−1)^{i+j} ω([e_{u_i}, e_{u_j}], …ê_{u_i}…ê_{u_j}…)."""
        out = {}
        for u in combinations(range(self.rank), k + 1):
            total = 0
            for i in range(k + 1):
                total += (-1) ** i * self.rho(u[i], self.value(omega, u[:i] + u[i + 1 :]))
            for i, j in combinations(range(k + 1), 2):
                rest = [x for t, x in enumerate(u) if t not in (i, j)]
                total += (-1) ** (i + j) * self.value_section_first(omega, self.bracket_gen(u[i], u[j]), rest)
            out[u] = total
        return out


def same(engine_form, want, xs):
    """The engine form has exactly the oracle's nonzero components."""
    got = {key: to_expr(p, xs) for key, p in engine_form.comps.items()}
    want = {key: sympy.expand(v) for key, v in want.items()}
    want = {key: v for key, v in want.items() if v != 0}
    return got.keys() == want.keys() and all(sympy.expand(got[k] - want[k]) == 0 for k in got)


def forms(a, seed):
    """Zero forms, the dual generators and seeded forms of degree 0..3."""
    sampler = Sampler(seed)
    out = [Form.zero(a, 0), Form.zero(a, 2)] + [Form.dual(a, i) for i in range(a.rank)]
    for degree in range(min(a.rank, 3) + 1):
        out += [sampler.form(a, degree) for _ in range(2)]
    return out


E0 = builtin("E0")
PRODUCT = product_algebroid(E0)

ALGEBROIDS = {
    "E0": E0,
    "E0_itemized": builtin("E0_itemized"),
    "tangent3": builtin("tangent3"),
    "E0 x interval": PRODUCT.extended,
}


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_wedge_matches_sympy(name):
    a = ALGEBROIDS[name]
    oracle = Oracle(a)
    checked = forms(a, seed=len(name))
    for alpha in checked:
        for beta in checked[::3]:
            want = oracle.wedge(oracle.form(alpha), oracle.form(beta))
            assert same(alpha.wedge(beta), want, oracle.xs)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_differential_matches_sympy(name):
    a = ALGEBROIDS[name]
    oracle = Oracle(a)
    checked = forms(a, seed=len(name) + 1)
    assert any(not differential(omega).is_zero() for omega in checked)
    for omega in checked:
        want = oracle.differential(oracle.form(omega), omega.degree)
        assert same(differential(omega), want, oracle.xs)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_d_squared_of_duals_pairs_with_minus_jacobiator(name):
    a = ALGEBROIDS[name]
    oracle = Oracle(a)
    triples = list(combinations(range(a.rank), 3))
    for c in range(a.rank):
        want = {(i, j, k): -oracle.jacobiator_gens(i, j, k)[c] for i, j, k in triples}
        assert same(d_squared(Form.dual(a, c)), want, oracle.xs)


def seeded_product_forms(seed):
    sampler = Sampler(seed)
    ext = PRODUCT.extended
    return [Form.zero(ext, 0), Form.dual(ext, PRODUCT.et_index)] + [
        sampler.form(ext, degree) for degree in (0, 1, 1, 2, 2, 3, 3)
    ]


def test_homotopy_matches_sympy():
    """H(ω)_S = ∫₀¹ β_S dt for ω = α + θ^t ∧ β, with β read off by moving θ^t to the front."""
    oracle = Oracle(PRODUCT.extended)
    t, base_xs = oracle.xs[PRODUCT.t_index], oracle.xs[: PRODUCT.t_index]
    et = PRODUCT.et_index
    for omega in seeded_product_forms(3):
        want = {}
        for key, c in oracle.form(omega).items():
            if et not in key:
                continue
            sign = (-1) ** key.index(et)
            rest = tuple(i for i in key if i != et)
            want[rest] = want.get(rest, 0) + sign * sympy.integrate(c, (t, 0, 1))
        got = PRODUCT.homotopy(omega)
        assert got.algebroid is PRODUCT.base and got.degree == max(omega.degree - 1, 0)
        assert same(got, want, base_xs)


@pytest.mark.parametrize("u", [0, 1, Fraction(1, 3)])
def test_restrict_form_matches_sympy(u):
    oracle = Oracle(PRODUCT.extended)
    t, base_xs = oracle.xs[PRODUCT.t_index], oracle.xs[: PRODUCT.t_index]
    at = sympy.Rational(u.numerator, u.denominator)
    for omega in seeded_product_forms(4):
        want = {key: c.subs(t, at) for key, c in oracle.form(omega).items() if PRODUCT.et_index not in key}
        got = PRODUCT.restrict_form(omega, u)
        assert got.algebroid is PRODUCT.base and got.degree == omega.degree
        assert same(got, want, base_xs)
