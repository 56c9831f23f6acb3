"""Every check whose status is written as a literal, and what backs it.

A report line whose status is a literal ``True`` (or ``PASS``) prints a PASS
that no computation in the call decides.  Each such site is listed here with
the condition that holds wherever the line is reached, or with the words
"reports a computed quantity" for a line that states a number and makes no
claim.  A new literal status fails the test until it is listed.
"""

import ast
from collections import Counter
from pathlib import Path

import algforge

PACKAGE = Path(algforge.__file__).resolve().parent
FILES = ("cli.py", "verify.py")
STATUSES = {"PASS", "FAIL", "INCONCLUSIVE"}

# (file, check name as written, literal status): what backs it; one entry per site
ALLOWED = {
    ("cli.py", "'document-has-a-bundle'", False): [
        "a FAIL: the document declares no bundle",
    ],
    ("cli.py", "'jacobi-identity'", True): [
        "follows check_lie() finding the Jacobiator zero on every triple",
    ],
    ("cli.py", "f'jacobi-identity:{label}'", False): [
        "a FAIL: one per triple whose Jacobiator check_lie() found nonzero",
    ],
    ("cli.py", "'torsion'", True): [
        "reports a computed quantity: the nonzero torsion values",
    ],
    ("cli.py", "'curvature-table'", True): [
        "reports a computed quantity: the nonzero curvature values",
    ],
    ("cli.py", "'derived-rank'", True): [
        "reports a computed quantity: the rank of the derived bundle",
    ],
    ("cli.py", "f'trace-power-{k}'", True): [
        "reports a computed quantity: the trace form Tr R^k",
    ],
    ("cli.py", "f'trace-power-{k}-closed'", True): [
        "follows form.is_zero(): the zero form is closed",
    ],
    ("cli.py", "'full-symmetric-space'", True): [
        "reports a computed quantity: the dimension of the solution space",
    ],
    ("cli.py", "'paired-block-space'", True): [
        "reports a computed quantity: the dimension of the paired-block space",
    ],
    ("cli.py", "'paired-block-space'", "INCONCLUSIVE"): [
        "skipped: the rank is odd, so no paired blocks exist",
    ],
    ("cli.py", "f'defect:{decl.name}'", "INCONCLUSIVE"): [
        "skipped: the cometric's size is not the rank",
    ],
    ("cli.py", "'kernel-sections'", True): [
        "cannot fail; item 15",
    ],
}


def literal_status(node):
    """The status argument as a literal, or None when the call computes it."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name) and node.id in STATUSES:
        return node.id
    return None


def literal_sites(source: str, file: str) -> Counter:
    sites = Counter()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("add", "add_status")
            and len(node.args) >= 2
        ):
            status = literal_status(node.args[1])
            if status is not None:
                sites[(file, ast.unparse(node.args[0]), status)] += 1
    return sites


def test_every_literal_status_is_listed_with_what_backs_it():
    found = Counter()
    for file in FILES:
        found += literal_sites((PACKAGE / file).read_text(encoding="utf-8"), file)
    assert found == Counter({site: len(reasons) for site, reasons in ALLOWED.items()})


def test_an_unlisted_literal_pass_is_found():
    source = 'def cmd_x(args):\n    report.add("x", True)\n    report.add_status("y", PASS)\n    report.add("z", ok)\n'
    assert literal_sites(source, "cli.py") == Counter({("cli.py", "'x'", True): 1, ("cli.py", "'y'", "PASS"): 1})


def test_cli_reads_each_verdict_s_status_from_the_verdict():
    # Decision.report_status and Certificate.report_status are the only maps from an outcome to a status
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    outcomes = {"yes", "no", "no-witness", "infeasible", "trivially-feasible", "inconclusive"}
    assert not {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)} & outcomes
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "status"]
