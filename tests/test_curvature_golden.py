"""Golden outputs of every generator-pair curvature sweep.

Curvature on generator pairs feeds the connection report, the derived bundle's
bracket and the five derived-curvature identities.  These files and tuples pin
today's bytes and counts, so a rewrite of how the generator curvature is
computed or looked up must reproduce them exactly.  The files under
``tests/golden`` are the outputs of the commands named in their file names.
"""

import hashlib
from pathlib import Path

import pytest

from algforge import cli
from algforge.catalog import builtin, torsionfree_gamma
from algforge.connection import EConnection, derive_bundle, verify_prhelp
from algforge.dsl import algebroid_to_document, serialize
from algforge.sampling import Sampler

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


def symmetrically_perturbed(conn: EConnection) -> EConnection:
    """conn plus a seeded symmetric tensor: S(a, b) = S(b, a) added to Γ(a, b) and Γ(b, a).

    Torsion on generators is Γ(a, b) − Γ(b, a) − [e_a, e_b], so the sum stays
    torsion-free when conn is, with gamma values other than E0's own.
    """
    e, sampler = conn.algebroid, Sampler(4)
    gamma = dict(conn.gamma)
    for a in range(e.rank):
        for b in range(a, e.rank):
            s = sampler.section(e, max_degree=1)
            for key in {(a, b), (b, a)}:
                gamma[key] = conn.gamma_entry(*key) + s
    return EConnection(e, gamma, name="perturbed")


PERTURBED = symmetrically_perturbed(TF)

# sha256 of the document holding the derived bundle and both of its connections
DERIVED_DOCUMENT_SHA256 = {
    ("torsionfree", True): "f1dbe1bdad018ce3ee02773d6a66e0ca93b3b7715286be75ce32b9b7295085e4",
    ("torsionfree", False): "b8f4e919065c62b780a271169bc2fef5618ab6fc4e93126cf1dbae05b871c8ed",
    ("perturbed", True): "2b4bf9ed344c81cc5a2ecdc730a59eb2570e561b6a67c5149a72cf8faf420575",
    ("perturbed", False): "269500b4e8e9734d9550cfa689bea0254670fb51836117956b8a7904009857c6",
}


@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("conn", [TF, PERTURBED], ids=["torsionfree", "perturbed"])
def test_derived_gamma_tables_are_pinned(conn, half):
    assert conn.is_torsion_free()
    d = derive_bundle(conn, include_half_correction=half)
    doc = algebroid_to_document(d.derived, connections={"lifted": d.lifted, "plain": d.plain_ext})
    digest = hashlib.sha256(serialize(doc).encode()).hexdigest()
    assert digest == DERIVED_DOCUMENT_SHA256[conn.name, half]


def reference_commutator(d, w: int, y: int, z: int):
    """The D-commutator D_W D_Y Z − D_Y D_W Z − D_{D_W Y} Z + D_{D_Y W} Z on
    unit sections, D the plain extension, every term a covariant derivative."""
    nabla, u = d.plain_ext.covariant_derivative, d.derived.units
    wu, yu, zu = u[w], u[y], u[z]
    return (
        nabla(wu, nabla(yu, zu))
        - nabla(yu, nabla(wu, zu))
        - nabla(nabla(wu, yu), zu)
        + nabla(nabla(yu, wu), zu)
    )


@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("conn", [TF, PERTURBED], ids=["torsionfree", "perturbed"])
def test_commutator_form_is_the_plain_extension_curvature(conn, half):
    # items 2 and 4 compare the lifted curvature with the plain extension's
    # table; on wedge directions that table is the D-commutator
    d = derive_bundle(conn, include_half_correction=half)
    m, total = d.m, d.derived.rank
    for w in range(m, total):
        for y in range(total):
            for z in range(m):
                assert d.plain_ext.curvature_gen(w, y, z) == reference_commutator(d, w, y, z), (w, y, z)


def test_commutator_form_fails_when_the_lifted_connection_changes():
    # one (wedge, E) gamma entry of the lifted connection moved off the plain one
    d = derive_bundle(TF)
    gamma = dict(d.lifted.gamma)
    gamma[d.m, 0] = d.lifted.gamma_entry(d.m, 0) + d.derived.units[1]
    items = verify_prhelp(d._replace(lifted=EConnection(d.derived, gamma, name="lifted"))).items
    assert (len(items[1].failures), len(items[3].failures)) == (6, 8)
