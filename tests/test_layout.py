"""The direct row layout of ``witness`` against the layout it replaced.

``witness`` keeps a column times a monomial as the pair (column, packed
shift) and writes the shifted rows straight from it.  The oracle here is the
layout that came before: ``reference_monomial_multiples`` builds one shifted
column dict per (tag, mu), ``reference_rows`` transposes such columns into
one row per coordinate, first seen first, and ``reference_solve``,
``reference_nullspace`` and ``reference_reduce`` read answers off them with
the Fraction elimination of ``test_linsolve.reference_rref``.  The systems
the engine builds are captured where they reach ``witness``; each must give
``linsolve.rref`` the oracle's rows, and each answer must equal the
oracle's: the same tags in the same order, and the same value types.
"""

from fractions import Fraction

import pytest
from test_linsolve import reference_rref

from algforge import witness
from algforge.algebroid import courant_solution_space, subalgebroid_restrict
from algforge.catalog import builtin, corpus_document
from algforge.dsl import document_algebroid
from algforge.forms import Form, Lambda2Ideal, differential, strong_closed, weak_exact
from algforge.poly import Poly, _coeff, _pack

COURANT_BUNDLES = [
    "E0",
    "E00",
    "E0_itemized",
    "E0doubleprime",
    "E0prime",
    "E0prime_lie",
    "derived_e0",
    "plane_forms",
    "tangent2",
]
ITEMIZED = builtin("E0_itemized")
E0 = builtin("E0")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


# ---- oracle: shifted column dicts, transposed into rows ----


def reference_monomial_multiples(columns, nvars, max_degree):
    """Every column times every monomial mu of degree <= max_degree, as its own dict tagged (tag, mu)."""
    monos = [_pack(mu) for mu in witness.monomials_up_to(nvars, max_degree)]
    return {
        (tag, mu): {(slot, exps + mu): v for (slot, exps), v in col.items()}
        for tag, col in columns.items()
        for mu in monos
    }


def reference_rows(columns, target):
    """One row per coordinate, first seen first, the target's values in column ``len(columns)``."""
    n = len(columns)
    rows = {c: {n: v} for c, v in target.items()}
    for j, col in enumerate(columns.values()):
        for coord, value in col.items():
            rows.setdefault(coord, {})[j] = value
    return list(rows.values())


def _rref(rows):
    """``reference_rref`` with its values in the ``poly`` normal form."""
    return {p: {c: _coeff(v) for c, v in row.items()} for p, row in reference_rref(rows).items()}


def reference_solve(columns, target):
    n = len(columns)
    red = _rref(reference_rows(columns, target))
    if n in red:
        return None
    tags = list(columns)
    return {tags[p]: row[n] for p, row in red.items() if n in row}


def reference_nullspace(columns):
    tags = list(columns)
    red = _rref(reference_rows(columns, {}))
    basis = {c: {} for c in range(len(tags)) if c not in red}
    for p, row in red.items():
        for c, v in row.items():
            if c != p:
                basis[c][tags[p]] = -v
    for c, vec in basis.items():
        vec[tags[c]] = 1
    return list(basis.values())


def reference_reduce(columns, target, key):
    coords = sorted(dict.fromkeys(c for col in (target, *columns.values()) for c in col), key=key)
    index = {c: i for i, c in enumerate(coords)}
    vec = {index[c]: Fraction(v) for c, v in target.items() if v}
    red = reference_rref([{index[c]: Fraction(v) for c, v in col.items()} for col in columns.values()])
    for piv, row in red.items():
        if piv in vec:
            f = vec[piv]
            for c, v in row.items():
                w = vec.get(c, 0) - f * v
                if w:
                    vec[c] = w
                else:
                    del vec[c]
    return {coords[i]: _coeff(vec[i]) for i in sorted(vec)}


def materialized(columns):
    """Shifted columns as the plain column dicts they stand for, in tag order."""
    return {
        tag: {(slot, exps + mu): v for (slot, exps), v in col.items()} if mu else col
        for tag, (col, mu) in columns.items()
    }


def typed(values):
    """A dict's items with each value's type, so that 1 and Fraction(1) differ."""
    return [(k, type(v), v) for k, v in values.items()]


# ---- capture ----


@pytest.fixture
def captured(monkeypatch):
    """Every monomial_multiples call and every solve, nullspace and reduce the engine makes."""
    calls = []
    originals = {name: getattr(witness, name) for name in ("monomial_multiples", "solve", "nullspace", "reduce")}

    def record(name):
        def wrapper(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            calls.append((name, args, kwargs, out))
            return out

        return wrapper

    for name in originals:
        monkeypatch.setattr(witness, name, record(name))
    return calls


def check_against_oracle(calls):
    """Each captured call against the oracle; returns the names seen."""
    seen = set()
    for name, args, kwargs, out in calls:
        seen.add(name)
        if name == "monomial_multiples":
            want = reference_monomial_multiples(*args)
            assert list(out) == list(want)
            assert [typed(col) for col in materialized(out).values()] == [typed(col) for col in want.values()]
            continue
        columns, plain = args[0], materialized(args[0])
        target = args[1] if name != "nullspace" else {}
        assert [typed(row) for row in witness._rows(columns, target)] == [
            typed(row) for row in reference_rows(plain, target)
        ]
        if name == "solve":
            want = reference_solve(plain, target)
            assert (out is None) == (want is None)
            assert out is None or typed(out) == typed(want)
        elif name == "nullspace":
            assert [typed(vec) for vec in out] == [typed(vec) for vec in reference_nullspace(plain)]
        else:
            assert typed(out) == typed(reference_reduce(plain, target, kwargs["key"]))
    return seen


@pytest.mark.parametrize("name", COURANT_BUNDLES)
def test_courant_systems_match_the_oracle(name, captured):
    a = document_algebroid(corpus_document(name))
    for max_degree in range(8):
        for blocks in (None, 2) if a.rank % 2 == 0 else (None,):
            courant_solution_space(a, max_degree=max_degree, paired_blocks=blocks)
    assert check_against_oracle(captured) == {"monomial_multiples", "nullspace"}


def w(*idx):
    out = Form.dual(ITEMIZED, idx[0])
    for i in idx[1:]:
        out = out.wedge(Form.dual(ITEMIZED, i))
    return out


@pytest.mark.parametrize("bound", [2, 3])
def test_itemized_ideal_systems_match_the_oracle(bound, captured):
    ideal = Lambda2Ideal(ITEMIZED)
    assert not ideal.fast_path
    g = ideal.gens3
    member3 = g[0].scale(X1 + X2 * X2) + g[1].scale(X1 * X2)
    member4 = w(3).wedge(g[0]).scale(X1) + w(0).wedge(g[2]).scale(X2)
    outsider3 = member3 + w(0, 1, 2).scale(X1 * X2 * X2 + X1) + w(1, 2, 3).scale(X2**3 + X1 * X1 * X2)
    for omega in (member3, member4, outsider3):
        ideal.membership(omega, bound)
        ideal.normal_form(omega, bound)
    for omega in (differential(w(0, 1).scale(X1)) + member3, differential(w(1).scale(X2)), w(0, 1, 2)):
        weak_exact(omega, ideal, bound)
    strong_closed(differential(w(1).scale(X2)), bound)
    assert check_against_oracle(captured) == {"monomial_multiples", "solve", "reduce"}


@pytest.mark.parametrize("max_degree", [2, 3, 4])
def test_subalgebroid_systems_match_the_oracle(max_degree, captured):
    # the generators of criteria 04 (two unit triples) and 06 (the diagonal pair)
    u = E0.unit_section
    for gens in ([u(0), u(1), u(3)], [u(0), u(2), u(3)], [u(0) + u(2), u(1) + u(3)]):
        subalgebroid_restrict(E0, gens, max_degree=max_degree)
    assert check_against_oracle(captured) == {"monomial_multiples", "solve"}
