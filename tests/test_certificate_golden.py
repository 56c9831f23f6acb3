"""Golden values for the Lie-infeasibility certificate.

The certificate reads the lowest base degree of the modification term 𝓑 off
a computation that could be organised in several ways.  These values pin
``(status, jacobiator_min_degree, modifier_min_degree)`` on every E0 triple
and on E0 bundles whose bracket was changed by a seeded kernel-valued
modifier, plus the exact ``obstruction --json`` bytes, so any rewrite of how
𝓑 is expanded must reproduce them.
"""

from itertools import combinations

import pytest

from algforge import cli
from algforge.algebroid import lie_infeasibility_certificate
from algforge.catalog import e0_kernel_sections, make_e0
from algforge.sampling import Sampler

E0 = make_e0()
KERN = list(e0_kernel_sections().values())
TRIPLES = list(combinations(range(4), 3))

INFEASIBLE = ("infeasible", 2, 3)
TRIVIAL = ("trivially-feasible", None, None)


def key(cert):
    return (cert.status, cert.jacobiator_min_degree, cert.modifier_min_degree)


PLAIN = {
    (0, 1, 2): INFEASIBLE,
    (0, 1, 3): TRIVIAL,
    (0, 2, 3): TRIVIAL,
    (1, 2, 3): INFEASIBLE,
}

# Sampler(seed).kernel_modifier(E0, KERN, max_degree=2): the expected result
# on triples (0,1,3) and (0,2,3); (0,1,2) and (1,2,3) stay INFEASIBLE.
MODIFIED = {
    0: (("inconclusive", 4, 3), ("inconclusive", 3, 3)),
    1: (("inconclusive", 4, 3), ("inconclusive", 4, 3)),
    2: (TRIVIAL, ("inconclusive", 4, 3)),
    3: (("inconclusive", 3, 3), ("inconclusive", 4, 3)),
    4: (("inconclusive", 4, 3), ("inconclusive", 4, 3)),
    5: (("inconclusive", 4, 3), TRIVIAL),
}


@pytest.mark.parametrize("bound", range(6))
def test_every_e0_triple(bound):
    got = {t: key(lie_infeasibility_certificate(E0, t, KERN, max_degree=bound)) for t in TRIPLES}
    assert got == PLAIN


@pytest.mark.parametrize("seed", sorted(MODIFIED))
def test_every_triple_of_a_modified_e0(seed):
    modified = E0.modify_bracket(Sampler(seed).kernel_modifier(E0, KERN, max_degree=2))
    on_013, on_023 = MODIFIED[seed]
    want = {(0, 1, 2): INFEASIBLE, (0, 1, 3): on_013, (0, 2, 3): on_023, (1, 2, 3): INFEASIBLE}
    for bound in range(4):
        got = {t: key(lie_infeasibility_certificate(modified, t, KERN, max_degree=bound)) for t in TRIPLES}
        assert got == want, bound


REPORT = """{
  "command": "obstruction E0.alg",
  "version": "0.1.0",
  "seed": 0,
  "input_digest": "e26bb47f7f9b6b17",
  "ok": true,
  "checks": [
    {
      "name": "kernel-sections",
      "status": "pass",
      "note": "using Xs1, Xs2"
    },
    {
      "name": "kernel-modification-certificate",
      "status": "pass",
      "note": "no kernel-valued modification with coefficient degree <= %d can cancel the Jacobiator on %s: its lowest homogeneous part has degree 2, every modification term has degree >= 3"
    }
  ]
}
"""


@pytest.mark.parametrize("bound", [3, 7])
@pytest.mark.parametrize("triple, label", [("1,2,3", "(X11, X21, X12)"), ("2,3,4", "(X21, X12, X22)")])
def test_obstruction_json_bytes(capsys, triple, label, bound):
    code = cli.main(["obstruction", "E0", "--triple", triple, "--max-degree", str(bound), "--json"])
    assert code == 0
    assert capsys.readouterr().out == REPORT % (bound, label)
