"""Acceptance gate: one test per criterion of the built-in verification suite.

Each test prints a single pass/fail line (visible under ``pytest -v`` through
the test id, and under ``-rA``/``-s`` through the printed note) and asserts
the criterion's outcome.  The same criterion functions back the verify-paper
command, so the CLI and this gate can never drift apart.
"""

import pytest

from algforge import verify

_CTX = verify.Context(seed=0, max_degree=4)


@pytest.mark.parametrize(
    "name,fn", verify.CRITERIA, ids=[name for name, _ in verify.CRITERIA]
)
def test_criterion(name, fn):
    ok, note = fn(_CTX)
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"{name}: {note}"


def test_report_runs_clean():
    report = verify.build_report(seed=0, max_degree=4)
    assert report.ok
    assert report.exit_code == 0
    assert len(report.checks) == len(verify.CRITERIA)


def test_dsl_contract_finds_the_corpus_through_the_catalog(monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "corpus_file", lambda name: tmp_path / f"{name}.alg")
    assert verify.c19_dsl_contract(_CTX) == (False, "corpus file E0.alg is missing")
