"""The command-line contract: exit codes, report shape, determinism."""

import json

import pytest

from algforge import cli
from algforge.dsl import parse


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_builtin_passes(capsys):
    code, out, err = run(capsys, "check", "E0")
    assert code == 0
    assert "[PASS] anchor-axioms:E0" in out
    assert err == ""


def test_check_itemized_variant_fails(capsys):
    code, out, _ = run(capsys, "check", "E0_itemized")
    assert code == 1
    assert "[FAIL]" in out
    assert "defect" in out


def test_check_reads_a_path(tmp_path, capsys):
    doc = tmp_path / "tiny.alg"
    doc.write_text("base 1 (u)\nbundle L rank 1 gens (A)\nanchor A -> u*d1\n")
    code, out, _ = run(capsys, "check", str(doc))
    assert code == 0
    assert "tiny.alg" in out


def test_parse_errors_exit_2(capsys):
    for name in ("bad_syntax", "bad_diagonal", "bad_anchor_dim"):
        code, out, err = run(capsys, "check", name)
        assert code == 2
        assert out == ""
        assert "error: line" in err


def test_degree_cap_exits_2(tmp_path, capsys):
    doc = tmp_path / "huge.alg"
    doc.write_text("base 1 (x)\nbundle E rank 1 gens (e)\nanchor e -> (x+1)^99999*d1\n")
    code, out, err = run(capsys, "check", str(doc))
    assert code == 2
    assert out == ""
    assert "error: line 3, col 19: exponent 99999 would exceed the degree cap of 64" in err


@pytest.mark.parametrize(
    "anchor, message",
    [
        ("x1^²*d1", "line 3, col 16: unexpected character '²'"),
        ("9" * 5000 + "*x1*d1", "line 3, col 13: integer literal of 5000 digits is too long"),
    ],
)
def test_bad_integer_literals_exit_2(tmp_path, capsys, anchor, message):
    doc = tmp_path / "literal.alg"
    doc.write_text(f"base 1 (x1)\nbundle E rank 1 gens (e)\nanchor e -> {anchor}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(doc))
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


def test_unknown_document_exits_2(capsys):
    code, _, err = run(capsys, "check", "no_such_thing")
    assert code == 2
    assert "no_such_thing" in err


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "definitely-not-a-command")[0] == 2


def test_missing_required_option_exits_2(capsys):
    assert run(capsys, "connection-report", "E0")[0] == 2


def test_lie_reports_the_two_bad_triples(capsys):
    code, out, _ = run(capsys, "lie", "E0")
    assert code == 1
    assert "jacobi-identity:(X11,X21,X12)" in out
    assert "jacobi-identity:(X21,X12,X22)" in out
    assert out.count("[FAIL]") == 2


def test_lie_passes_on_the_lie_variant(capsys):
    assert run(capsys, "lie", "E0prime_lie")[0] == 0


def test_jacobiator_single_triple(capsys):
    code, out, _ = run(capsys, "jacobiator", "E0", "--triples", "1,2,3")
    assert code == 0
    assert "2*x2^2*X21 - 2*x1^2*X22" in out


def test_jacobiator_rejects_bad_triples(capsys):
    assert run(capsys, "jacobiator", "E0", "--triples", "1,2")[0] == 2
    assert run(capsys, "jacobiator", "E0", "--triples", "1,2,9")[0] == 2
    assert run(capsys, "jacobiator", "E0", "--triples", "1,1,2")[0] == 2


def test_connection_report(capsys):
    code, out, _ = run(capsys, "connection-report", "E0", "--connection", "torsionfree")
    assert code == 0
    assert "torsion-free" in out
    assert "anchor-killed" in out


def test_unknown_connection_exits_2(capsys):
    code, _, err = run(capsys, "connection-report", "E0", "--connection", "nope")
    assert code == 2
    assert "nope" in err


def test_derive_writes_a_reparseable_document(tmp_path, capsys):
    out_path = tmp_path / "derived.alg"
    code, out, _ = run(
        capsys, "derive", "E0", "--connection", "torsionfree", "-o", str(out_path)
    )
    assert code == 0
    doc = parse(out_path.read_text())
    assert len(doc.bundle().gens) == 10
    assert doc.connection("lifted")


def test_cohomology_exact_form(capsys):
    code, out, _ = run(capsys, "cohomology", "plane_forms", "--form", "grad1")
    assert code == 0
    assert "theta = x*y" in out


def test_cohomology_non_closed_form(capsys):
    code, out, _ = run(capsys, "cohomology", "plane_forms", "--form", "radial")
    assert code == 1
    assert "[INCONCLUSIVE]" in out
    assert "[FAIL] weak-closed" in out


def test_charclass_reports_trace_powers(capsys):
    code, out, _ = run(capsys, "charclass", "E0", "--connection", "torsionfree", "--max-k", "2")
    assert code == 0
    assert "trace-power-1" in out
    assert "16*x1^2*x2^2" in out
    assert "vanish-beyond-top-degree" in out


def test_transgression(capsys):
    code, out, _ = run(capsys, "transgression", "E0", "--c1", "flat", "--c2", "torsionfree", "--k", "1")
    assert code == 0
    assert "4*x1 * w(X11) + 4*x2 * w(X22)" in out


def test_courant_reports_spaces_and_defect(capsys):
    code, out, _ = run(capsys, "courant", "E0", "--max-degree", "2")
    assert code == 1  # the declared identity cometric has a nonzero defect
    assert "full-symmetric-space" in out
    assert "paired-block-space" in out
    assert "x1^4 + x2^4" in out


def test_nijenhuis(capsys):
    code, out, _ = run(capsys, "nijenhuis", "E0", "--endo", "J0")
    assert code == 0
    assert "square-is-minus-identity" in out


def test_obstruction_infeasible_triple(capsys):
    code, out, _ = run(capsys, "obstruction", "E0", "--triple", "1,2,3", "--max-degree", "3")
    assert code == 0
    assert "using Xs1, Xs2" in out
    assert "no kernel-valued modification" in out


def test_obstruction_trivial_triple(capsys):
    code, out, _ = run(capsys, "obstruction", "E0", "--triple", "1,2,4")
    assert code == 0
    assert "zero modification works" in out


def test_tangent_names_generate_documents(capsys):
    code, out, _ = run(capsys, "check", "tangent4")
    assert code == 0
    assert "generated" in out


def test_json_reports_are_deterministic(capsys):
    args = ("charclass", "E0", "--connection", "torsionfree", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert list(payload) == ["command", "version", "seed", "input_digest", "ok", "checks"]
    assert payload["ok"] is True
    assert all(c["status"] in {"pass", "fail", "inconclusive"} for c in payload["checks"])


def test_verify_paper_runs_green(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.count("[PASS]") == 19


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("E0", 0),
        ("E0prime", 0),
        ("E0prime_lie", 0),
        ("E0doubleprime", 0),
        ("E00", 0),
        ("tangent2", 0),
        ("derived_e0", 0),
        ("plane_forms", 0),
        ("E0_itemized", 1),
    ],
)
def test_corpus_check_exit_codes(capsys, name, expected):
    assert run(capsys, "check", name)[0] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("obstruction", "E0", "--triple", "1,2,3", "--max-degree", "-1"),
        ("courant", "E0", "--max-degree", "-1"),
        ("courant", "E0", "--max-degree", "two"),
        ("charclass", "E0", "--connection", "torsionfree", "--max-k", "-1"),
    ],
)
def test_bad_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "expected a non-negative integer" in err


@pytest.mark.parametrize("value", ["abc", "-1", ""])
def test_bad_degree_in_the_environment_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ALGFORGE_MAX_DEGREE", value)
    code, out, err = run(capsys, "check", "E0")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err


def test_degree_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ALGFORGE_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "courant", "E0")
    assert code == 1
    assert "dimension 12 at coefficient degree <= 2" in out


def test_weak_closed_note_on_a_1_form(capsys):
    code, out, _ = run(capsys, "cohomology", "E0", "--form", "omega21")
    assert code == 1
    assert "[FAIL] weak-closed  (nonzero 2-form; the ideal starts in degree 3)" in out
