"""The import boundary: what a process loads to run a command.

Every interpreter compiles what it imports when bytecode is not cached, so a
command should load only the layers it runs.  The boundary is checked in a
fresh interpreter, since this process has already imported every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algforge

SRC = str(Path(algforge.__file__).resolve().parent.parent)

# layers the obstruction and courant commands never run
UNUSED = [
    "algforge.charclass",
    "algforge.connection",
    "algforge.forms",
    "algforge.sampling",
    "algforge.verify",
    "dataclasses",
    # a well-formed command line builds no argparse parser, so neither argparse
    # nor gettext, which imports locale for argparse's first message, is loaded
    "argparse",
    "gettext",
    "locale",
    # hashlib maps OpenSSL's libcrypto; the input digest uses the built-in SHA-256
    "hashlib",
    "_hashlib",
]
# what every command needs: the package root and the modules cli imports on load
AT_IMPORT = ["algforge"] + [
    f"algforge.{m}" for m in ("algebroid", "catalog", "cli", "dsl", "linsolve", "poly", "reports", "witness")
]

PROBE = """
import sys
import algforge.cli

UNUSED = {unused!r}
loaded = [sorted(m for m in sys.modules if m.startswith("algforge"))]
loaded.append(sorted(m for m in UNUSED if m in sys.modules))
for argv in (
    ["obstruction", "E0", "--triple", "1,2,3", "--max-degree", "3", "--json"],
    ["courant", "E0", "--max-degree", "4", "--json"],
):
    algforge.cli.main(argv)
    loaded.append(sorted(m for m in UNUSED if m in sys.modules))
print(loaded)
"""


def test_cli_loads_only_the_layers_its_command_runs():
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", PROBE.format(unused=UNUSED)], env=env, capture_output=True, text=True, check=True
    )
    at_import, unused_at_import, after_obstruction, after_courant = ast.literal_eval(run.stdout.splitlines()[-1])
    assert at_import == AT_IMPORT
    assert unused_at_import == []
    assert after_obstruction == []
    assert after_courant == []


def test_star_import_binds_each_name_to_its_home_definition():
    namespace: dict = {}
    exec("from algforge import *", namespace)
    assert set(algforge.__all__) <= set(namespace)
    for name in algforge.__all__:
        if name == "__version__":
            assert namespace[name] == algforge.__version__
            continue
        obj = namespace[name]
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_dir_lists_the_public_names():
    assert set(algforge.__all__) <= set(dir(algforge))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        algforge.no_such_name


# criterion 19 runs an unknown command, which argparse refuses, so only the digest's modules are checked
VERIFY_PROBE = """
import contextlib
import io
import sys
import algforge.cli

with contextlib.redirect_stdout(io.StringIO()):
    algforge.cli.main(["verify-paper"])
print(sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
"""


def test_verify_paper_loads_no_openssl():
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", VERIFY_PROBE], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
