"""The argument-parser surface, pinned byte for byte.

Each case runs `cli.main` on one argv and compares its exit code, stdout and
stderr with `cli_surface.json`: the help of the program and of every command,
the usage errors of a missing or unknown command, of every command given no
arguments, of misplaced arguments, and of a bad degree bound from an option
or from the environment.  The bytes were recorded with Python 3.11 and agree
on 3.10; argparse formats help differently on later versions, so the
comparison runs on those two only.

    PYTHONPATH=src python tests/test_cli_surface.py    # rewrite cli_surface.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from algforge import cli

PINNED = Path(__file__).with_name("cli_surface.json")

COMMANDS = [
    "check",
    "jacobiator",
    "lie",
    "connection-report",
    "derive",
    "cohomology",
    "charclass",
    "transgression",
    "courant",
    "nijenhuis",
    "obstruction",
    "verify-paper",
]

# id -> (argv, ALGFORGE_MAX_DEGREE or None for unset)
CASES = {
    "help": (["--help"], None),
    **{f"{name}-help": ([name, "--help"], None) for name in COMMANDS},
    "no-command": ([], None),
    "unknown-command": (["definitely-not-a-command"], None),
    **{f"{name}-bare": ([name], None) for name in COMMANDS},
    "extra-argument": (["check", "E0", "extra"], None),
    "option-before-command": (["--foo", "check", "E0"], None),
    "double-dash-before-command": (["--", "check", "E0"], None),
    "bad-max-degree-option": (["courant", "E0", "--max-degree", "x"], None),
    "bad-max-degree-environment": (["courant", "E0"], "abc"),
}


def run_case(argv, max_degree):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    saved = os.environ.pop("ALGFORGE_MAX_DEGREE", None)
    if max_degree is not None:
        os.environ["ALGFORGE_MAX_DEGREE"] = max_degree
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.environ.pop("ALGFORGE_MAX_DEGREE", None)
        if saved is not None:
            os.environ["ALGFORGE_MAX_DEGREE"] = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)), reason="bytes pinned for Python 3.10 and 3.11")
@pytest.mark.parametrize("case", CASES)
def test_usage_and_help_bytes_are_pinned(case):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[case]
    argv, max_degree = CASES[case]
    assert pinned["argv"] == argv and pinned["max_degree"] == max_degree
    code, out, err = run_case(argv, max_degree)
    assert (code, out, err) == (pinned["code"], pinned["stdout"], pinned["stderr"])


if __name__ == "__main__":
    record = {}
    for case, (argv, max_degree) in CASES.items():
        code, out, err = run_case(argv, max_degree)
        record[case] = {"argv": argv, "max_degree": max_degree, "code": code, "stdout": out, "stderr": err}
    PINNED.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
