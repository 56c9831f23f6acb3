"""The obstruction certificate against the per-monomial expansion it replaces.

``reference_certificate`` brackets every monomial multiple mu * G_p(X, Y) from
scratch: the coefficient of c_p at mu is

    sum_cyc ( [mu G_p(X,Y), Z] + mu G_p([X,Y], Z) ),

and the coefficient of c_p c_q is read at mu_p = mu_q = 1.  The engine reads
the same coefficients off the Leibniz rule in closed form, so both must agree
in (status, jacobiator_min_degree, modifier_min_degree) on every case below:
E0, six E0s changed by a seeded kernel modifier and E0prime with its kernel
generators Ys1 and Ys2, on all four triples at D = 0..4, three E0primes
changed by a modifier valued in Ys1, where the anchor term of the closed
form sets the lowest degree, a bundle whose anchor has constant terms
(where the degree bound that prunes the engine's monomial walk is weakest),
and E0 past the shared bounds.  The engine stops its walk once no monomial
can lower the answer, so its work at D = 30 is its work at D = 3.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from algforge import algebroid as algebroid_module
from algforge import witness
from algforge.algebroid import BracketModifier, lie_infeasibility_certificate
from algforge.catalog import builtin, e0_kernel_sections
from algforge.dsl import document_algebroid, parse
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")
E0PRIME = builtin("E0prime")
KERN = list(e0_kernel_sections().values())
TRIPLES = list(combinations(range(4), 3))
BOUNDS = range(5)


def reference_certificate(a, triple, kernel_gens, max_degree):
    """(status, jacobiator_min_degree, modifier_min_degree), one bracket per monomial."""
    x, y, z = (a.unit_section(t) for t in triple)
    jac = a.jacobiator(x, y, z)
    if jac.is_zero():
        return ("trivially-feasible", None, None)
    jac_min = jac.min_degree()
    zero = a.zero_section()
    cyclic = [(u, v, w, a.bracket(u, v)) for u, v, w in ((x, y, z), (y, z, x), (z, x, y))]
    basis = [BracketModifier({pair: g}) for pair in combinations(range(a.rank), 2) for g in kernel_gens]
    monos = [Poly.monomial(a.nvars, mu) for mu in witness.monomials_up_to(a.nvars, max_degree)]
    linear = [
        sum(
            (a.bracket(g.apply(u, v).scale(mu), w) + g.apply(uv, w).scale(mu) for u, v, w, uv in cyclic),
            zero,
        )
        for g in basis
        for mu in monos
    ]
    quadratic = [
        sum((h.apply(g.apply(u, v), w) + g.apply(h.apply(u, v), w) for u, v, w, _ in cyclic), zero)
        for g, h in combinations_with_replacement(basis, 2)
    ]
    mod_min = min((c.min_degree() for c in linear + quadratic if not c.is_zero()), default=None)
    if mod_min is None or mod_min > jac_min:
        return ("infeasible", jac_min, mod_min)
    return ("inconclusive", jac_min, mod_min)


def key(cert):
    return (cert.status, cert.jacobiator_min_degree, cert.modifier_min_degree)


def _cases():
    yield "E0", E0, KERN
    for seed in range(6):
        yield f"E0-modified-{seed}", E0.modify_bracket(Sampler(seed).kernel_modifier(E0, KERN, max_degree=2)), KERN
    yield "E0prime", E0PRIME, [E0PRIME.unit_section(2), E0PRIME.unit_section(3)]


CASES = list(_cases())


@pytest.mark.parametrize("label, algebroid, kernel", CASES, ids=[label for label, _, _ in CASES])
def test_certificate_matches_the_per_monomial_expansion(label, algebroid, kernel):
    for bound in BOUNDS:
        for triple in TRIPLES:
            want = reference_certificate(algebroid, triple, kernel, bound)
            got = key(lie_infeasibility_certificate(algebroid, triple, kernel, max_degree=bound))
            assert got == want, (triple, bound)


def test_the_cases_cover_every_status():
    seen = Counter(
        reference_certificate(algebroid, triple, kernel, bound)[0]
        for _, algebroid, kernel in CASES
        for bound in BOUNDS
        for triple in TRIPLES
    )
    assert seen == {"inconclusive": 60, "infeasible": 70, "trivially-feasible": 30}


# E0prime with its bracket changed by a modifier valued in Ys1 alone: on
# (Y22, Ys1, Ys2) the lowest coefficient at D >= 1 is the anchor term
# -sum_cyc rho(Z)(mu) * G_p(X, Y), which vanishes at mu = 1
ANCHOR_TERM_CASES = [
    (seed, E0PRIME.modify_bracket(Sampler(seed).kernel_modifier(E0PRIME, [E0PRIME.unit_section(2)], max_degree=0)))
    for seed in range(3)
]


@pytest.mark.parametrize("seed, algebroid", ANCHOR_TERM_CASES, ids=[f"seed{seed}" for seed, _ in ANCHOR_TERM_CASES])
def test_the_anchor_term_lowers_the_modifier_degree(seed, algebroid):
    kernel = [E0PRIME.unit_section(2)]
    for bound in range(4):
        for triple in TRIPLES:
            want = reference_certificate(algebroid, triple, kernel, bound)
            got = key(lie_infeasibility_certificate(algebroid, triple, kernel, max_degree=bound))
            assert got == want, (triple, bound)
    lows = [lie_infeasibility_certificate(algebroid, (1, 2, 3), kernel, max_degree=d).modifier_min_degree for d in range(3)]
    assert lows == [3, 2, 2]


# an anchor with constant terms (r = 0): rho(w)(mu) can sit one degree below
# mu, so the walk over the monomials is pruned by the weakest bound
CONSTANT_ANCHOR = document_algebroid(
    parse("base 2 (x1, x2)\n\nbundle C rank 4 gens (A, B, K1, K2)\nanchor A -> d1\nanchor B -> d2\n")
)
CONSTANT_KERNEL = [CONSTANT_ANCHOR.unit_section(2), CONSTANT_ANCHOR.unit_section(3)]


def test_an_anchor_with_a_constant_term():
    seen = Counter()
    for seed in range(4):
        modifier = Sampler(seed).kernel_modifier(CONSTANT_ANCHOR, CONSTANT_KERNEL, max_degree=2)
        algebroid = CONSTANT_ANCHOR.modify_bracket(modifier)
        for bound in BOUNDS:
            for triple in TRIPLES:
                want = reference_certificate(algebroid, triple, CONSTANT_KERNEL, bound)
                got = key(lie_infeasibility_certificate(algebroid, triple, CONSTANT_KERNEL, max_degree=bound))
                assert got == want, (seed, triple, bound)
                seen[want[0]] += 1
    assert seen == {"inconclusive": 50, "trivially-feasible": 30}


@pytest.mark.parametrize("triple", [(0, 1, 2), (1, 2, 3)])
def test_e0_past_the_shared_bounds(triple):
    for bound in range(5, 8):
        want = reference_certificate(E0, triple, KERN, bound)
        assert key(lie_infeasibility_certificate(E0, triple, KERN, max_degree=bound)) == want, bound


def test_the_work_is_bounded_by_the_answer(monkeypatch):
    # every coefficient term dict goes through one _clean, so their count is
    # the work; on E0 the answer (3) is reached at mu = 1 whatever D is
    calls = Counter()
    clean = algebroid_module._clean

    def counted(out):
        calls[bound] += 1
        return clean(out)

    monkeypatch.setattr(algebroid_module, "_clean", counted)
    for bound in (3, 30):
        cert = lie_infeasibility_certificate(E0, (0, 1, 2), KERN, max_degree=bound)
        assert key(cert) == ("infeasible", 2, 3)
    assert calls[3] == calls[30] > 0
