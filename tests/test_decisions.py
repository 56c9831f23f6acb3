"""Every ``yes`` of a form search carries a certificate that checks out.

Ideal membership, strong and weak closedness and weak exactness answer in one
``Decision`` record.  Here each ``yes`` is re-checked with plain form
arithmetic, apart from the search that found it: strong closedness by
d²θ = dω, weak exactness by dθ + Σ cofactor ∧ g = ω, and membership by
``check_cofactors``.  Weak closedness must be the membership of dω, field by
field.  The non-pass statuses of ``transgression``'s membership check, which
no bundled example reaches, are forced by patching the membership search.
"""

import json

import pytest

from algforge import cli
from algforge.catalog import builtin, corpus_document
from algforge.dsl import document_algebroid, document_form
from algforge.forms import (
    NO,
    NO_WITNESS,
    Decision,
    Form,
    Lambda2Ideal,
    d_squared,
    differential,
    strong_closed,
    weak_closed,
    weak_exact,
)
from algforge.poly import Poly
from algforge.sampling import Sampler

# the bounded searches run at both bounds: at 2 the weak-exact split of the
# itemized forms needs cofactors, at 3 it is all d(theta)
BOUNDS = (2, 3)
E0 = builtin("E0")
PLANE_DOC = corpus_document("plane_forms")
PLANE = document_algebroid(PLANE_DOC)
ITEMIZED = builtin("E0_itemized")
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def w(on, *idx):
    out = Form.dual(on, idx[0])
    for i in idx[1:]:
        out = out.wedge(Form.dual(on, i))
    return out


def _cases():
    cases = [("omega21", document_form(corpus_document("E0"), E0, "omega21"))]
    cases += [(name, document_form(PLANE_DOC, PLANE, name)) for name in ("area", "radial", "grad1")]
    sampler = Sampler(30)
    for degree in (1, 2, 3):
        cases += [(f"E0-degree-{degree}-{i}", sampler.form(E0, degree, max_degree=2)) for i in range(3)]
    # the non-monomial ideal of the witness goldens, on its bounded path
    g = Lambda2Ideal(ITEMIZED).gens3
    member3 = g[0].scale(X1 + X2 * X2) + g[1].scale(X1 * X2)
    cases += [
        ("itemized-member-3", member3),
        ("itemized-member-4", w(ITEMIZED, 3).wedge(g[0]).scale(X1) + w(ITEMIZED, 0).wedge(g[2]).scale(X2)),
        ("itemized-outsider-3", member3 + w(ITEMIZED, 0, 1, 2).scale(X1 * X2 * X2 + X1)),
        ("itemized-split", differential(w(ITEMIZED, 0, 1).scale(X1)) + member3),
        ("itemized-exact-2", differential(w(ITEMIZED, 1).scale(X2))),
    ]
    return cases


CASES = _cases()


def _decide(omega):
    """Each search on omega, and membership of omega, dω and d²ω, as (name, target, decision)."""
    ideal = Lambda2Ideal(omega.algebroid)
    found = []
    for bound in BOUNDS:
        found.append(("strong", omega, strong_closed(omega, bound)))
        found.append(("exact", omega, weak_exact(omega, ideal, bound)))
        for target in (omega, differential(omega), d_squared(omega)):
            found.append(("member", target, ideal.membership(target, bound)))
    return ideal, found


@pytest.mark.parametrize("omega", [omega for _, omega in CASES], ids=[label for label, _ in CASES])
def test_every_yes_carries_a_certificate_that_checks(omega):
    ideal, found = _decide(omega)
    for kind, target, decision in found:
        if not decision.is_yes:
            assert decision.status in (NO, NO_WITNESS)
            continue
        if kind == "strong":
            assert d_squared(decision.theta) == differential(target)
        elif kind == "exact":
            # dθ + Σ cofactor ∧ g = ω
            assert ideal.check_cofactors(target - differential(decision.theta), decision)
        else:
            assert ideal.check_cofactors(target, decision)
    for bound in BOUNDS:
        weak = weak_closed(omega, ideal, bound)
        assert weak._asdict() == ideal.membership(differential(omega), bound)._asdict()


def test_the_cases_reach_every_kind_of_certificate():
    # without these the oracle above could pass by finding no yes at all
    reached = set()
    for _, omega in CASES:
        ideal, found = _decide(omega)
        for kind, target, decision in found:
            if decision.is_yes:
                path = "fast" if ideal.fast_path else "bounded"
                if decision.theta is not None and not decision.theta.is_zero():
                    reached.add((kind, "theta", path))
                if any(not eta.is_zero() for eta in decision.cofactors.values()):
                    reached.add((kind, "cofactors", path))
    assert {
        ("strong", "theta", "fast"),
        ("strong", "theta", "bounded"),
        ("exact", "theta", "fast"),
        ("exact", "theta", "bounded"),
        ("exact", "cofactors", "bounded"),
        ("member", "cofactors", "fast"),
        ("member", "cofactors", "bounded"),
    } <= reached


@pytest.mark.parametrize("status,expected,code", [(NO, "fail", 1), (NO_WITNESS, "inconclusive", 0)])
def test_transgression_membership_statuses_reach_the_report(monkeypatch, capsys, status, expected, code):
    note = f"forced {status}"
    monkeypatch.setattr(Lambda2Ideal, "membership", lambda self, omega, max_degree=4: Decision(status, note=note))
    argv = ["transgression", "E0", "--c1", "flat", "--c2", "torsionfree", "--k", "2", "--json"]
    assert cli.main(argv) == code
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["difference-splits"]["status"] == "pass"
    assert checks["endpoint-restrictions"]["status"] == "pass"
    assert checks["ideal-part-membership"]["status"] == expected
    assert checks["ideal-part-membership"]["note"] == note
