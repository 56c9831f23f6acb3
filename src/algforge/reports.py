"""Structured check results with byte-deterministic JSON rendering.

Every CLI command produces a Report: a list of named checks, each pass,
fail, or inconclusive, optionally carrying a witness (the certifying object,
printed) and a note.  Inconclusive is reserved for degree-bounded searches
that neither certified nor refuted; it does not fail the run.  The JSON form
is rendered with a fixed key order and no environment-dependent content, so
identical inputs and seeds give identical bytes.
The input digest is hashed by the interpreter's built-in SHA-256: importing
``hashlib`` maps OpenSSL's libcrypto, about 3.5 MB, into every process.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import __version__

try:  # the built-in module: _sha2 from Python 3.12 on, _sha256 before
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without it
        from hashlib import sha256

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def input_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return sha256(data).hexdigest()[:16]


class Check(NamedTuple):
    name: str
    status: str
    witness: str | None = None
    note: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


class Report(NamedTuple):
    command: str
    input_digest: str
    seed: int
    checks: list[Check]  # appended to by add and add_status

    def add(self, name: str, ok: bool, witness: str | None = None, note: str | None = None) -> Check:
        return self.add_status(name, PASS if ok else FAIL, witness, note)

    def add_status(self, name: str, status: str, witness: str | None = None, note: str | None = None) -> Check:
        check = Check(name, status, witness, note)
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"[{c.status.upper()}] {c.name}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
            if c.witness:
                for wline in c.witness.splitlines():
                    lines.append(f"         {wline}")
        if not self.ok:
            verdict = "SOME CHECKS FAILED"
        else:
            open_count = sum(1 for c in self.checks if c.status == INCONCLUSIVE)
            verdict = (
                f"no failures ({open_count} inconclusive)" if open_count else "all checks passed"
            )
        n = len(self.checks)
        lines.append(f"{self.command}: {verdict} ({n} check{'s' if n != 1 else ''})")
        return "\n".join(lines)
