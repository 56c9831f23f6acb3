"""Pinned outputs of the commands built on the Leibniz expansion of pair tables.

The bracket, the covariant derivative and the bracket modifier all extend a
generator-pair table to arbitrary sections.  Besides the goldens in
``tests/golden``, these values pin what is computed from them: a failing
morphism check, a nonzero Nijenhuis tensor on every generator pair, the
`jacobiator --json` report of every bundled document and the structure tables
of seeded bracket modifications.  They were recorded from the Leibniz loops
as first written, so a rewrite of those loops must reproduce them exactly.
"""

import hashlib

import pytest

from algforge import cli
from algforge.algebroid import Endomorphism, Section, check_morphism, nijenhuis
from algforge.catalog import builtin, e0_kernel_sections, e0prime_to_e0_images
from algforge.poly import Poly
from algforge.sampling import Sampler

E0 = builtin("E0")


def test_morphism_failure_from_the_lie_variant():
    src = builtin("E0prime_lie")
    rep = check_morphism(src, E0, e0prime_to_e0_images())
    defect = "-2*x1^2*x2^3*X11 - 2*x1*x2^4*X21 + 2*x1^4*x2*X12 + 2*x1^3*x2^2*X22"
    assert not rep.ok
    assert rep.anchor_failures == []
    assert [(pair, E0.section_text(d)) for pair, d in rep.bracket_failures] == [((2, 3), defect)]
    assert rep.describe(src, E0) == f"bracket mismatch on (Ys1, Ys2): {defect}"


# An almost complex J on E0 that is not integrable: a polynomial block
# [[x1, 1], [-(1 + x1^2), -x1]] on (X11, X21) and the constant rotation on
# (X12, X22).
X1, ZERO, ONE = Poly.variable(2, 0), Poly.zero(2), Poly.const(2, 1)
J1_MATRIX = [
    [X1, ONE, ZERO, ZERO],
    [-(ONE + X1 * X1), -X1, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ONE],
    [ZERO, ZERO, -ONE, ZERO],
]
J1 = Endomorphism([Section(column) for column in zip(*J1_MATRIX)])

NIJENHUIS_J1 = {
    (0, 2): "(2*x1^3*x2 - x1*x2^2 + 2*x1*x2)*X11 + (-2*x1^4*x2 + x1^2*x2^2 - 2*x1^2*x2 - x2^2)*X21"
    " - 2*x1^3*X12 - 2*x1^2*X22",
    (0, 3): "-x2^2*X11 + (-2*x1^3*x2 + 2*x1*x2^2 - 2*x1*x2)*X21 - 2*x1^2*X12 + 2*x1^3*X22",
    (1, 2): "(2*x1^2*x2 - x2^2)*X11 + (-2*x1^3*x2 + x1*x2^2 - 2*x1*x2)*X21 - 2*x1^2*X12",
    (1, 3): "-2*x1*x2*X11 + x2^2*X21 + 2*x1^2*X22",
    (2, 0): "(-2*x1^3*x2 + x1*x2^2 - 2*x1*x2)*X11 + (2*x1^4*x2 - x1^2*x2^2 + 2*x1^2*x2 + x2^2)*X21"
    " + 2*x1^3*X12 + 2*x1^2*X22",
    (2, 1): "(-2*x1^2*x2 + x2^2)*X11 + (2*x1^3*x2 - x1*x2^2 + 2*x1*x2)*X21 + 2*x1^2*X12",
    (3, 0): "x2^2*X11 + (2*x1^3*x2 - 2*x1*x2^2 + 2*x1*x2)*X21 + 2*x1^2*X12 - 2*x1^3*X22",
    (3, 1): "2*x1*x2*X11 - x2^2*X21 - 2*x1^2*X22",
}


def test_nijenhuis_of_a_non_integrable_structure_on_every_pair():
    assert J1.is_almost_complex()
    units = [E0.unit_section(i) for i in range(E0.rank)]
    got = {}
    for i in range(E0.rank):
        for j in range(E0.rank):
            value = nijenhuis(E0, J1, units[i], units[j])
            if not value.is_zero():
                got[(i, j)] = E0.section_text(value)
    assert got == NIJENHUIS_J1


# sha256 of the `jacobiator <document> --json` bytes and the exit code; the
# three malformed documents print nothing and exit 2
JACOBIATOR_JSON = {
    "E0": ("523af14472c10f873dd149dc59f5da44e8f488bcb53ee4125363d9f01ab7a5ad", 1),
    "E00": ("8a92557a24a22e35ee31b97284a9f42a09b8bfa87abdbc0e0e15a6ae277cd8e4", 0),
    "E0_itemized": ("7d06ddf0da170f31b47057f38e425e625592ebe7051a0f7014de3e19da8b5eb4", 1),
    "E0doubleprime": ("dbbe0387463de3f3a91170452b2022a643bde0aca4e8303abb308c171e0576c3", 0),
    "E0prime": ("f68bf8e76dd199fb755714688285ad7de713b91867d958cb2c07035303199fd2", 1),
    "E0prime_lie": ("aab61586d8ba6cf15e70dbe202ac33e82f672e47e495f111e29999bcd73fa787", 0),
    "derived_e0": ("8eafd0434594f4969fb3506f397dbcf32e79304482ffa92eb7fba86fdc4cc331", 0),
    "plane_forms": ("a543becb299771a6190fb2e0ba95add7247ab8b58974f1c9ab18da7c934c1955", 0),
    "tangent2": ("2f15c3a78ae8cd0b9e6396b074984afdd628667d6c0474dd89bfadc7d3c87d51", 0),
    "bad_syntax": (hashlib.sha256(b"").hexdigest(), 2),
    "bad_diagonal": (hashlib.sha256(b"").hexdigest(), 2),
    "bad_anchor_dim": (hashlib.sha256(b"").hexdigest(), 2),
}


@pytest.mark.parametrize("document", sorted(JACOBIATOR_JSON))
def test_jacobiator_json_bytes(capsys, document):
    digest, code = JACOBIATOR_JSON[document]
    assert cli.main(["jacobiator", document, "--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


MODIFIED_E0 = [
    {
        (0, 1): "2*x1*X21",
        (0, 2): "-x2^4*X11 + (x1^2*x2^2 - 2*x1)*X12",
        (0, 3): "-2*x1*x2^3*X11 + 2*x1^3*x2*X12",
        (1, 2): "2*x2*X11 + 3*x1*x2^2*X21 + (-3*x1^3 - 2*x1)*X22",
        (1, 3): "-x1*x2^2*X11 + (2*x2^4 + 2*x2)*X21 + x1^3*X12 - 2*x1^2*x2^2*X22",
        (2, 3): "3*x2^2*X11 + (-3*x1^2 - 2*x2)*X12",
    },
    {
        (0, 1): "x1*x2^2*X11 + 2*x1*X21 - x1^3*X12",
        (0, 2): "-3*x2^2*X11 + 3*x1*x2^2*X21 + (3*x1^2 - 2*x1)*X12 - 3*x1^3*X22",
        (0, 3): "-3*x1*x2^3*X11 + x1*x2^2*X21 + 3*x1^3*x2*X12 - x1^3*X22",
        (1, 2): "2*x2*X11 - 2*x1*X22",
        (1, 3): "2*x2*X21",
        (2, 3): "-3*x2^3*X21 - 2*x2*X12 + 3*x1^2*x2*X22",
    },
    {
        (0, 1): "2*x1*X21",
        (0, 2): "3*x1*x2^2*X11 + (-3*x1^3 - 2*x1)*X12",
        (0, 3): "x1^2*x2^2*X21 - x1^4*X22",
        (1, 2): "2*x2*X11 - 2*x1*X22",
        (1, 3): "2*x2*X21",
        (2, 3): "-3*x1*x2^3*X11 + 2*x2^3*X21 + (3*x1^3*x2 - 2*x2)*X12 - 2*x1^2*x2*X22",
    },
]


@pytest.mark.parametrize("seed", range(len(MODIFIED_E0)))
def test_modify_bracket_tables_for_seeded_modifiers(seed):
    modifier = Sampler(seed).kernel_modifier(E0, list(e0_kernel_sections().values()), max_degree=2)
    modified = E0.modify_bracket(modifier, name="modified")
    assert modified.name == "modified"
    assert modified.anchor == E0.anchor
    got = {pair: E0.section_text(value) for pair, value in modified.structure.items()}
    assert got == MODIFIED_E0[seed]
