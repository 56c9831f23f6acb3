"""Golden outputs of every generator-pair curvature sweep.

Curvature on generator pairs feeds the connection report, the derived bundle's
bracket and the five derived-curvature identities.  These files and tuples pin
today's bytes and counts, so a rewrite of how the generator curvature is
computed or looked up must reproduce them exactly.  The files under
``tests/golden`` are the outputs of the commands named in their file names.
"""

from pathlib import Path

import pytest

from algforge import cli
from algforge.catalog import builtin, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle, verify_prhelp

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "document, connection",
    [("E0", "torsionfree"), ("E0", "flat"), ("derived_e0", "lifted"), ("tangent2", "flat")],
)
def test_connection_report_json_bytes(capsys, document, connection):
    code = cli.main(["connection-report", document, "--connection", connection, "--json"])
    assert code == 0
    assert capsys.readouterr().out == golden(f"connection_report_{document}_{connection}.json")


def test_derive_document_bytes(tmp_path, capsys):
    out = tmp_path / "derived.alg"
    code = cli.main(["derive", "E0", "--connection", "torsionfree", "--output", str(out), "--json"])
    assert code == 0
    assert capsys.readouterr().out == golden("derive_E0_torsionfree.json")
    assert out.read_text() == golden("derive_E0_torsionfree.alg")


E0 = builtin("E0")
TF = EConnection(E0, torsionfree_gamma(E0), name="torsionfree")

PRHELP = [
    (1, "E-direction curvature vanishes", 60, 0),
    (2, "wedge/E curvature commutator form", 96, 0),
    (3, "wedge/E curvature derivation rule", 144, 0),
    (4, "wedge/wedge curvature commutator form", 144, 0),
    (5, "wedge/wedge curvature derivation rule", 216, 0),
]

# Without the half-wedge term the lifted connection is the plain extension,
# and only item 1 fails: (generator labels, defect) in report order.
PRHELP_NO_HALF_FAILURES = [
    ("X11 X12 X11", "-2*x2^2*X11 + 2*x1^2*X12"),
    ("X11 X12 X21", "-2*x2^2*X21 + 2*x1^2*X22"),
    ("X11 X12 X11^X21", "-4*x2^2*X11^X21 + 2*x1^2*X11^X22 - 2*x1^2*X21^X12"),
    ("X11 X12 X11^X12", "-2*x2^2*X11^X12"),
    ("X11 X12 X11^X22", "-2*x2^2*X11^X22 + 2*x1^2*X12^X22"),
    ("X11 X12 X21^X12", "-2*x2^2*X21^X12 - 2*x1^2*X12^X22"),
    ("X11 X12 X21^X22", "-2*x2^2*X21^X22"),
    ("X21 X22 X12", "-2*x2^2*X11 + 2*x1^2*X12"),
    ("X21 X22 X22", "-2*x2^2*X21 + 2*x1^2*X22"),
    ("X21 X22 X11^X12", "2*x1^2*X11^X12"),
    ("X21 X22 X11^X22", "-2*x2^2*X11^X21 + 2*x1^2*X11^X22"),
    ("X21 X22 X21^X12", "2*x2^2*X11^X21 + 2*x1^2*X21^X12"),
    ("X21 X22 X21^X22", "2*x1^2*X21^X22"),
    ("X21 X22 X12^X22", "-2*x2^2*X11^X22 + 2*x2^2*X21^X12 + 4*x1^2*X12^X22"),
]


def test_prhelp_items_on_the_e0_derived_bundle():
    items = verify_prhelp(derive_bundle(TF)).items
    assert [(i.number, i.label, i.checked, len(i.failures)) for i in items] == PRHELP


def test_prhelp_failures_without_the_half_wedge_term():
    d = derive_bundle(TF, include_half_correction=False)
    items = verify_prhelp(d).items
    assert [(i.number, i.label, i.checked) for i in items] == [row[:3] for row in PRHELP]
    assert [len(i.failures) for i in items] == [14, 0, 0, 0, 0]
    got = [(" ".join(labels), d.derived.section_text(defect)) for labels, defect in items[0].failures]
    assert got == PRHELP_NO_HALF_FAILURES
