"""Golden `--json` reports of the commands that run on section-level brackets.

`verify-paper --seed 0` and `check`/`lie` on every valid bundled document
spend their time in `Algebroid.bracket`, `EConnection.covariant_derivative`
and `Poly` arithmetic.  These files pin their bytes and exit codes, so a
rewrite of how those are computed must reproduce the reports exactly.  The
files under ``tests/golden`` are the outputs of the commands named in their
file names.
"""

import hashlib
from pathlib import Path

import pytest

from algforge import cli
from algforge.reports import input_digest

GOLDEN = Path(__file__).parent / "golden"

# bundled documents that parse; exit codes of `check` and `lie` on each
DOCUMENTS = {
    "E0": (0, 1),
    "E00": (0, 0),
    "E0_itemized": (1, 2),
    "E0doubleprime": (0, 0),
    "E0prime": (0, 1),
    "E0prime_lie": (0, 0),
    "derived_e0": (0, 0),
    "plane_forms": (0, 0),
    "tangent2": (0, 0),
}


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_verify_paper_json_bytes(capsys):
    assert cli.main(["verify-paper", "--seed", "0", "--json"]) == 0
    assert capsys.readouterr().out == golden("verify_paper_seed0.json")


def test_verify_paper_json_bytes_twice_in_one_process(capsys):
    # the second run reads every per-process table and parse the first one kept
    for _ in range(2):
        assert cli.main(["verify-paper", "--seed", "0", "--json"]) == 0
        assert capsys.readouterr().out == golden("verify_paper_seed0.json")


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_check_json_bytes(capsys, document):
    assert cli.main(["check", document, "--json"]) == DOCUMENTS[document][0]
    assert capsys.readouterr().out == golden(f"check_{document}.json")


@pytest.mark.parametrize("document", sorted(d for d in DOCUMENTS if d != "E0_itemized"))
def test_lie_json_bytes(capsys, document):
    assert cli.main(["lie", document, "--json"]) == DOCUMENTS[document][1]
    assert capsys.readouterr().out == golden(f"lie_{document}.json")


def test_lie_refuses_a_bundle_that_fails_the_anchor_axioms(capsys):
    assert cli.main(["lie", "E0_itemized", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: anchor compatibility fails on (X11, X21): defect (-2*x1^3 + 2*x1^2*x2)*d2\n"
    )


@pytest.mark.parametrize(
    "data",
    ["", b"", "base 2 (x1, x2)\n", b"E0", "é ² ٣ ∂ 𝔤", "x" * 2**20, bytes(range(256)) * 2**12],
    ids=["empty str", "empty bytes", "str", "bytes", "non-ASCII", "1 MB str", "1 MB bytes"],
)
def test_input_digest_is_the_sha256_prefix(data):
    raw = data.encode("utf-8") if isinstance(data, str) else data
    assert input_digest(data) == hashlib.sha256(raw).hexdigest()[:16]
