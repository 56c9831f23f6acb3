"""Section operations against an independent sympy re-implementation.

The oracle is sympy throughout: polynomials become sympy expressions in the
base coordinates, a section a list of them, and anchor application, the
Leibniz bracket, the covariant derivative, the bracket modifier and the
Jacobiator are written out from their textbook formulas with
``sympy.diff``.  Nothing of the package's arithmetic is used; the package is
read only for its input tables (anchor, structure, gamma and modifier
tables) and for the results under test.  Inputs are the
zero section, the generators and seeded sampled sections over E0,
E0_itemized (which fails the anchor axioms), tangent3 and the rank-10
derived bundle with its lifted and plain connections.
"""

import pytest

sympy = pytest.importorskip("sympy")

from algforge.catalog import builtin, e0_kernel_sections, torsionfree_gamma  # noqa: E402
from algforge.connection import EConnection, derive_bundle  # noqa: E402
from algforge.sampling import Sampler  # noqa: E402


def symbols(n):
    return sympy.symbols(f"x1:{n + 1}")


def to_expr(poly, xs):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
          for exps, c in poly.terms.items())
    )


def to_list(section, xs):
    return [to_expr(c, xs) for c in section.coeffs]


def skew_entry(table, i, j, rank, xs):
    """T(e_i, e_j) as a sympy list from a table stored on i < j."""
    if i == j:
        return [0] * rank
    if i < j:
        value = table.get((i, j))
        return [0] * rank if value is None else to_list(value, xs)
    value = table.get((j, i))
    return [0] * rank if value is None else [-c for c in to_list(value, xs)]


class Oracle:
    """One algebroid's tables as sympy data, and the formulas over them."""

    def __init__(self, a):
        self.rank, self.xs = a.rank, symbols(a.nvars)
        self.anchor = [[to_expr(c, self.xs) for c in row.coeffs] for row in a.anchor]
        self.structure = [
            [skew_entry(a.structure, i, j, a.rank, self.xs) for j in range(a.rank)] for i in range(a.rank)
        ]

    def rho(self, x):
        """rho(X) = sum_i X_i rho(e_i), as its coordinate components."""
        return [sympy.Add(*(x[i] * self.anchor[i][k] for i in range(self.rank))) for k in range(len(self.xs))]

    def apply(self, v, f):
        return sympy.Add(*(vk * sympy.diff(f, xk) for vk, xk in zip(v, self.xs)))

    def bracket(self, x, y):
        rx, ry = self.rho(x), self.rho(y)
        out = [self.apply(rx, y[k]) - self.apply(ry, x[k]) for k in range(self.rank)]
        for i in range(self.rank):
            for j in range(self.rank):
                for k, c in enumerate(self.structure[i][j]):
                    out[k] += x[i] * y[j] * c
        return out

    def jacobiator(self, x, y, z):
        terms = (self.bracket(x, self.bracket(y, z)), self.bracket(y, self.bracket(z, x)),
                 self.bracket(z, self.bracket(x, y)))
        return [sum(t[k] for t in terms) for k in range(self.rank)]

    def covariant_derivative(self, gamma, target_rank, x, s):
        rx = self.rho(x)
        out = [self.apply(rx, s[k]) for k in range(target_rank)]
        for (alpha, b), value in gamma.items():
            for k, c in enumerate(value):
                out[k] += x[alpha] * s[b] * c
        return out

    def modifier(self, values, x, y):
        out = [0] * self.rank
        for i in range(self.rank):
            for j in range(self.rank):
                for k, c in enumerate(skew_entry(values, i, j, self.rank, self.xs)):
                    out[k] += x[i] * y[j] * c
        return out


def same(engine, oracle, xs):
    got = to_list(engine, xs)
    return len(got) == len(oracle) and all(sympy.expand(g - w) == 0 for g, w in zip(got, oracle))


def sections(a, seed, sampled):
    """The zero section, every generator and seeded sampled sections."""
    sampler = Sampler(seed)
    return [a.zero_section()] + [a.unit_section(i) for i in range(a.rank)] + [
        sampler.section(a) for _ in range(sampled)
    ]


E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")
DERIVED = derive_bundle(TF)

ALGEBROIDS = {
    "E0": E0,
    "E0_itemized": builtin("E0_itemized"),
    "tangent3": builtin("tangent3"),
    "derived_e0": DERIVED.derived,
}

CONNECTIONS = {
    "E0 torsionfree": TF,
    "E0_itemized sampled": Sampler(21).connection(ALGEBROIDS["E0_itemized"], density=0.5),
    "tangent3 sampled": Sampler(22).connection(ALGEBROIDS["tangent3"], max_degree=2, density=0.6),
    "derived_e0 lifted": DERIVED.lifted,
    "derived_e0 plain-extension": DERIVED.plain_ext,
}


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_anchor_and_bracket_match_sympy(name):
    a = ALGEBROIDS[name]
    oracle = Oracle(a)
    secs = sections(a, seed=len(name), sampled=3)
    lists = [to_list(s, oracle.xs) for s in secs]
    for s, s_list in zip(secs, lists):
        got = [to_expr(c, oracle.xs) for c in a.anchor_of(s).coeffs]
        assert all(sympy.expand(g - w) == 0 for g, w in zip(got, oracle.rho(s_list)))
    for x, x_list in zip(secs, lists):
        for y, y_list in zip(secs, lists):
            assert same(a.bracket(x, y), oracle.bracket(x_list, y_list), oracle.xs)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_jacobiator_matches_sympy(name):
    a = ALGEBROIDS[name]
    oracle = Oracle(a)
    sampler = Sampler(7)
    units = [a.unit_section(i) for i in range(a.rank)]
    triples = [(units[i], units[(i + 1) % a.rank], units[(i + 2) % a.rank]) for i in range(a.rank)]
    triples += [tuple(sampler.section(a, max_degree=1) for _ in range(3)) for _ in range(2)]
    for x, y, z in triples:
        want = oracle.jacobiator(*(to_list(s, oracle.xs) for s in (x, y, z)))
        assert same(a.jacobiator(x, y, z), want, oracle.xs)


@pytest.mark.parametrize("name", sorted(CONNECTIONS))
def test_covariant_derivative_matches_sympy(name):
    conn = CONNECTIONS[name]
    a = conn.algebroid
    oracle = Oracle(a)
    gamma = {key: to_list(value, oracle.xs) for key, value in conn.gamma.items()}
    secs = sections(a, seed=len(name), sampled=3)
    lists = [to_list(s, oracle.xs) for s in secs]
    for x, x_list in zip(secs, lists):
        for s, s_list in zip(secs, lists):
            want = oracle.covariant_derivative(gamma, conn.target_rank, x_list, s_list)
            assert same(conn.covariant_derivative(x, s), want, oracle.xs)


def test_modifier_matches_sympy():
    e0prime = builtin("E0prime")
    for a, kern in ((E0, list(e0_kernel_sections().values())),
                    (e0prime, [e0prime.unit_section(2), e0prime.unit_section(3)])):
        oracle = Oracle(a)
        secs = sections(a, seed=5, sampled=3)
        lists = [to_list(s, oracle.xs) for s in secs]
        for seed in range(3):
            modifier = Sampler(seed).kernel_modifier(a, kern, max_degree=2)
            for x, x_list in zip(secs, lists):
                for y, y_list in zip(secs, lists):
                    want = oracle.modifier(modifier.values, x_list, y_list)
                    assert same(modifier.apply(x, y), want, oracle.xs)
