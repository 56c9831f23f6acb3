"""Acceptance gate: one test per criterion of the built-in verification suite.

Each test prints a single pass/fail line (visible under ``pytest -v`` through
the test id, and under ``-rA``/``-s`` through the printed note) and asserts
the criterion's outcome.  The same criterion functions back the verify-paper
command, so the CLI and this gate can never drift apart.
"""

import pytest

from algforge import verify
from algforge.algebroid import Algebroid
from algforge.sampling import Sampler

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


def test_the_pairing_criterion_fails_when_the_jacobiator_is_off(monkeypatch):
    # d^2 of a 1-form is read off the structure table, so a Jacobiator off by e_0
    # on one triple breaks the pairing there
    jacobiator_gen = Algebroid.jacobiator_gen

    def off_by_e0(self, i, j, k):
        value = jacobiator_gen(self, i, j, k)
        return value + self.units[0] if (i, j, k) == (0, 1, 2) else value

    monkeypatch.setattr(Algebroid, "jacobiator_gen", off_by_e0)
    assert verify.c14_d_squared(verify.Context()) == (False, "pairing fails on 1-form 0, triple (0,1,2)")


def fresh_draws(seed, count):
    sampler = Sampler(seed)
    return [sampler.connection(verify._e0(), max_degree=1) for _ in range(count)]


def same_gammas(left, right):
    return [list(c.gamma.items()) for c in left] == [list(c.gamma.items()) for c in right]


@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_sampled_connections_are_a_fresh_samplers_draws(seed):
    drawn = verify._sampled_connections(seed)
    assert len(drawn) == 20
    assert same_gammas(drawn, fresh_draws(seed, 20))
    assert all(conn.algebroid is verify._e0() for conn in drawn)


@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_transgression_pairs_are_the_first_ten_draws_in_order(monkeypatch, seed):
    pairs = []
    check = verify.transgression_check

    def recording(first, second, *args, **kwargs):
        pairs.append((first, second))
        return check(first, second, *args, **kwargs)

    monkeypatch.setattr(verify, "transgression_check", recording)
    assert verify.c17_transgression(verify.Context(seed=seed))[0]
    assert len(pairs) == 6
    assert pairs[0][1] is verify._torsionfree()
    drawn = [conn for pair in pairs[1:] for conn in pair]
    assert all(a is b for a, b in zip(drawn, verify._sampled_connections(seed)))
    assert same_gammas(drawn, fresh_draws(seed, 10))
