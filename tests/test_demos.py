"""The demo scripts run and print exactly the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_bracket_anatomy.py": "c6f810a4a11790cb83953d40b2a539697b0ff7205823bdafdeec826458b728c5",
    "02_connection_and_curvature.py": "5dae11c8e923da432fca904a8dd8a8e3023d772f470313ee7447f7a36cba7923",
    "03_characteristic_forms.py": "051712060c7c8bdf6ea62dd2dbc8f9059881e173ec2ad28de97e030cf50533aa",
    "04_document_language.py": "f03f68d1bb8102b82f332bf85547ee9037192b65f41deaf21ec6eb914aa6e835",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, check=True, timeout=120
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
