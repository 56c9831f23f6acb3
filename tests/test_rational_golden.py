"""Pinned outputs on a document whose coefficients are not integers.

Every bundled document except the connection of `derived_e0` has integer
coefficients, so the goldens built on them never see a denominator.  This
document puts 1/2 and 1/3 in its anchor, bracket, connection and forms; the
sha256 digests of the `--json` bytes and the exit codes pin how reports
render and solve over such coefficients.
"""

import hashlib

import pytest

from algforge import cli

HALVES = """\
# rank 3 over the plane with 1/2 and 1/3 coefficients throughout
base 2 (x, y)

bundle H rank 3 gens (A, B, C)
anchor A -> 1/2*x*d1
anchor B -> 1/3*d2 + y*d1
anchor C -> 1/2*x*y*d1 - 2/3*d2
bracket [A, B] = 1/2*B - 1/3*x*C
bracket [A, C] = 1/3*y*A + 1/2*C
bracket [B, C] = -1/2*x*A + 2/3*B

connection half on H {
  A A -> 1/2*A
  A B -> 1/3*x*C
  B C -> -1/2*y*A + 1/3*B
  C A -> 2/3*C
  default 0
}

form eta = 1/2*x*w(A) ^ w(B) + 1/3*w(B) ^ w(C)
form zeta = 1/3*y*w(A) - 1/2*w(C)
"""

RATIONAL_JSON = {
    "check": ("5ccd80f6cfde91e268dadf8571ec11d15c636543816502801bbfd95ab1e2d457", 1),
    "cohomology --form eta": ("2fea98578fb2529a3bc24932f8a87758ace168385e601a9a7b524b168aedf85c", 0),
    "cohomology --form zeta": ("fa773e688cc2369cfaa999e351158ce0b35aac2b5c23afc23603f68ac5981bc1", 1),
    "charclass --connection half --max-k 3": (
        "67d61ba9f5d2cf5604615823fe1a258b54cc392c09d7e9c91e40b866f1063e66",
        0,
    ),
    "connection-report --connection half": (
        "7fbd49e657d41194aa9059cc2dd1dddb9f654828572c711472fd10417548d31d",
        0,
    ),
}


@pytest.mark.parametrize("command", sorted(RATIONAL_JSON))
def test_rational_document_json_bytes(tmp_path, capsys, command):
    doc = tmp_path / "halves.alg"
    doc.write_text(HALVES, encoding="utf-8")
    name, *options = command.split()
    digest, code = RATIONAL_JSON[command]
    assert cli.main([name, str(doc), *options, "--json"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
