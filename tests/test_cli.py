"""The command-line contract: exit codes, report shape, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import algforge
from algforge import cli
from algforge.dsl import parse

SRC = str(Path(algforge.__file__).resolve().parent.parent)


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


def test_check_accepts_a_reversed_bracket_declaration(tmp_path, capsys):
    doc = tmp_path / "reversed.alg"
    doc.write_text("base 1 (x)\nbundle E rank 2 gens (a, b)\nanchor a -> d1\nanchor b -> -x*d1\nbracket [b, a] = a\n")
    code, out, err = run(capsys, "check", str(doc))
    assert code == 0
    assert "[PASS] anchor-axioms:E" in out
    assert err == ""


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


def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    doc = tmp_path / "latin1.alg"
    doc.write_bytes(b"base 1 (x1)\nbundle E rank 1 gens (e)\nanchor e -> \xff*d1\n")
    code, out, err = run(capsys, "check", str(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {str(doc)!r} is not UTF-8 text: byte 0xff at line 3, col 13\n"


def test_a_document_that_cannot_be_read_exits_2(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "locked.alg"
    doc.write_text("base 1 (u)\nbundle L rank 1 gens (A)\nanchor A -> u*d1\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run(capsys, "check", str(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {str(doc)!r}: Permission denied\n"


def test_unknown_document_exits_2(capsys):
    code, _, err = run(capsys, "check", "no_such_thing")
    assert code == 2
    assert "no_such_thing" in err


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "definitely-not-a-command")[0] == 2


def test_missing_required_option_exits_2(capsys):
    assert run(capsys, "connection-report", "E0")[0] == 2



@pytest.mark.parametrize(
    "argv",
    [["courant", "E0", "--max-degree", "x"], ["--help"], ["courant", "--help"]],
    ids=["usage-error", "help", "courant-help"],
)
def test_usage_and_help_text_do_not_depend_on_the_terminal_width(capsys, monkeypatch, argv):
    outputs = []
    for columns in (None, "40", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1] == outputs[2]
    code, out, err = outputs[0]
    assert code == (2 if "x" in argv else 0)
    if code == 2:
        # wrapped at 78 columns, argparse's width when no terminal is attached
        assert err.splitlines()[:2] == [
            "usage: algforge courant [-h] [--seed SEED] [--max-degree MAX_DEGREE] [--json]",
            "                        FILE",
        ]


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
    assert code == 1
    assert "[FAIL] jacobiator:(X11,X21,X12)\n         2*x2^2*X21 - 2*x1^2*X22\n" in out
    assert "[PASS] anchor-kills-jacobiator" in out
    code, out, _ = run(capsys, "jacobiator", "E0", "--triples", "1,2,4")
    assert code == 0
    assert "[PASS] jacobiator:(X11,X21,X22)\n         0\n" in out


def test_jacobiator_rejects_bad_triples(capsys):
    assert run(capsys, "jacobiator", "E0", "--triples", "1,2")[0] == 2
    assert run(capsys, "jacobiator", "E0", "--triples", "1,2,9")[0] == 2
    assert run(capsys, "jacobiator", "E0", "--triples", "1,1,2")[0] == 2
    # indices follow the --max-degree rule, ASCII digits only: int() would
    # read the Arabic-Indic one and 1_0, and let a sign through
    for triple in ("\u0661,2,3", "1_0,2,3", "+1,2,3", "-1,2,3"):
        for command in (("jacobiator", "E0", "--triples=" + triple), ("obstruction", "E0", "--triple=" + triple)):
            error = f"error: triple indices must be positive integers, got {triple!r}\n"
            assert run(capsys, *command) == (2, "", error)


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


def test_transgression_at_a_huge_order_stops_once_the_power_is_zero(capsys):
    # above half the rank the curvature power is the zero matrix; its degree
    # still grows with k, but no further product is formed
    argv = ["transgression", "E0", "--c1", "flat", "--c2", "torsionfree", "--json", "--k"]
    start = time.perf_counter()
    code, huge, _ = run(capsys, *argv, str(10**18))
    assert (code, time.perf_counter() - start < 2) == (0, True)
    assert run(capsys, *argv, "3") == (0, huge.replace(f"order {10**18};", "order 3;"), "")


def test_courant_reports_spaces_and_defect(capsys):
    code, out, _ = run(capsys, "courant", "E0", "--max-degree", "2")
    assert code == 1  # the declared identity cometric has a nonzero defect
    assert "full-symmetric-space" in out
    assert "paired-block-space" in out
    assert "x1^4 + x2^4" in out


PLANE_COMETRIC = "cometric G_zero = [\n  [0, 0],\n  [0, 0]\n]\n"


def test_courant_refuses_a_cometric_that_is_not_symmetric(tmp_path, capsys):
    text = (resources.files("algforge") / "corpus" / "plane_forms.alg").read_text()
    assert text.endswith(PLANE_COMETRIC)
    doc = tmp_path / "skew_cometric.alg"
    doc.write_text(text.replace(PLANE_COMETRIC, "cometric G = [\n  [0, x],\n  [0, 0]\n]\n"))
    code, out, err = run(capsys, "courant", str(doc), "--max-degree", "0")
    assert (code, out) == (2, "")
    assert "cometric matrix must be symmetric" in err


def test_courant_skips_a_cometric_whose_size_is_not_the_rank(tmp_path, capsys):
    text = (resources.files("algforge") / "corpus" / "plane_forms.alg").read_text()
    doc = tmp_path / "small_cometric.alg"
    doc.write_text(text.replace(PLANE_COMETRIC, "cometric G = [\n  [x]\n]\n"))
    code, out, _ = run(capsys, "courant", str(doc), "--max-degree", "0", "--json")
    assert code == 0
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "defect:G")
    assert check["note"] == "skipped: size 1 != rank 2"


def test_nijenhuis(capsys):
    code, out, _ = run(capsys, "nijenhuis", "E0", "--endo", "J0")
    assert code == 0
    assert "square-is-minus-identity" in out


def test_nijenhuis_of_an_endomorphism_whose_square_is_not_minus_one(tmp_path, capsys):
    text = (resources.files("algforge") / "corpus" / "plane_forms.alg").read_text()
    assert "  V -> -U\n" in text
    doc = tmp_path / "plane_reflection.alg"
    doc.write_text(text.replace("  V -> -U\n", "  V -> U\n"))
    code, out, err = run(capsys, "nijenhuis", str(doc), "--endo", "R90")
    assert code == 1
    assert "[FAIL] square-is-minus-identity" in out
    assert "integrability-tensor-vanishes" not in out
    assert err == ""


# J1 of tests/test_leibniz_golden.py, whose Nijenhuis tensor is nonzero on four pairs
J1_ENDO = """
endo J1 {
  X11 -> x1*X11 + (-x1^2 - 1)*X21
  X21 -> X11 - x1*X21
  X12 -> -X22
  X22 -> X12
}
"""

NIJENHUIS_J1_TEXT = """[PASS] square-is-minus-identity
[FAIL] integrability-tensor-vanishes  (6 generator pairs)
         (X11, X12): (2*x1^3*x2 - x1*x2^2 + 2*x1*x2)*X11 + (-2*x1^4*x2 + x1^2*x2^2 - 2*x1^2*x2 - x2^2)*X21 - 2*x1^3*X12 - 2*x1^2*X22
         (X11, X22): -x2^2*X11 + (-2*x1^3*x2 + 2*x1*x2^2 - 2*x1*x2)*X21 - 2*x1^2*X12 + 2*x1^3*X22
         (X21, X12): (2*x1^2*x2 - x2^2)*X11 + (-2*x1^3*x2 + x1*x2^2 - 2*x1*x2)*X21 - 2*x1^2*X12
         (X21, X22): -2*x1*x2*X11 + x2^2*X21 + 2*x1^2*X22
nijenhuis E0_J1.alg: SOME CHECKS FAILED (2 checks)
"""


def test_nijenhuis_of_a_structure_that_is_not_integrable(tmp_path, capsys):
    doc = tmp_path / "E0_J1.alg"
    doc.write_text((resources.files("algforge") / "corpus" / "E0.alg").read_text() + J1_ENDO)
    code, out, err = run(capsys, "nijenhuis", str(doc), "--endo", "J1")
    assert code == 1
    assert out == NIJENHUIS_J1_TEXT
    assert err == ""


def test_obstruction_infeasible_triple(capsys):
    code, out, _ = run(capsys, "obstruction", "E0", "--triple", "1,2,3", "--max-degree", "3")
    assert code == 0
    assert "using Xs1, Xs2" in out
    assert "no kernel-valued modification" in out


def test_obstruction_with_no_kernel_section_says_the_modification_is_zero(capsys):
    # E0_itemized has no kernel section, so the only kernel-valued modification is zero
    code, out, _ = run(capsys, "obstruction", "E0_itemized", "--triple", "1,2,3", "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[:2] == [
        "[PASS] kernel-sections  (none declared or apparent)",
        "[PASS] kernel-modification-certificate  (no kernel-valued modification with coefficient degree <= 2 "
        "can cancel the Jacobiator on (X11, X21, X12): its lowest homogeneous part has degree 2, every "
        "modification term is zero)",
    ]


@pytest.mark.parametrize(
    "command, document, note",
    [
        ("check", "tangent2", "1 generator pair"),
        ("check", "tangent3", "3 generator pairs"),
        ("lie", "tangent2", "no generator triples to check (rank below 3)"),
        ("lie", "tangent3", "the single generator triple"),
        ("lie", "tangent4", "all 4 generator triples"),
    ],
)
def test_counts_in_notes_agree_in_number(capsys, command, document, note):
    code, out, _ = run(capsys, command, document, "--json")
    assert code == 0
    assert json.loads(out)["checks"][0]["note"] == note


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


def test_the_environment_degree_is_read_on_every_call(capsys, monkeypatch):
    # several calls in one process: none may keep the value an earlier one saw
    for value, dim in (("2", 12), ("3", 28)):
        monkeypatch.setenv("ALGFORGE_MAX_DEGREE", value)
        _, out, _ = run(capsys, "courant", "E0")
        assert f"dimension {dim} at coefficient degree <= {value}" in out
    _, out, _ = run(capsys, "courant", "E0", "--max-degree", "1")
    assert "dimension 3 at coefficient degree <= 1" in out


def test_calls_in_one_process_build_each_command_parser_once_and_read_the_bound_each_time(capsys, monkeypatch):
    # (argv, ALGFORGE_MAX_DEGREE); the unknown command is refused before any command parser runs
    calls = [
        (["check", "E0"], "2"),
        (["lie", "E0"], "3"),
        (["obstruction", "E0", "--triple", "1,2,3", "--json"], "5"),
        (["courant", "E0", "--json"], "2"),
        (["definitely-not-a-command"], "abc"),
        (["check", "E0", "--json"], "1"),
    ]
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[kwargs.get("prog")] += 1
        init(self, *args, **kwargs)

    bounds = []

    def recorded(command):
        def run_command(args):
            bounds.append(args.max_degree)
            return command(args)

        return run_command

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name in ("check", "lie", "obstruction", "courant"):
        monkeypatch.setattr(cli, f"cmd_{name}", recorded(getattr(cli, f"cmd_{name}")))
    cli._parser.cache_clear()
    try:
        for argv, bound in calls:
            monkeypatch.setenv("ALGFORGE_MAX_DEGREE", bound)
            fresh = subprocess.run(
                [sys.executable, "-m", "algforge.cli", *argv],
                env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True,
                text=True,
            )
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    finally:
        cli._parser.cache_clear()
    assert bounds == [2, 3, 5, 2, 1]
    # the program's parser once, and one parser per command run, whatever the number of calls
    assert built == Counter(["algforge"] + [f"algforge {name}" for name in ("check", "lie", "obstruction", "courant")])


class _LookedUp(Exception):
    pass


@given(st.text())
@example("²")
@example("٣")
@example("é")
@example("_")
@example("")
@example("E0")
@example("x1²")
@example("0")
@example("12")
@example("１")
@example("E0\n")
@example("é" * 200)  # too long to stat
@example("a" * 300)
def test_name_and_integer_tests_agree_with_ascii_patterns(text):
    assume(not os.path.isfile(text))
    # a FILE that is not a file is looked up as a bundled name only when it is an ASCII identifier
    with mock.patch.object(cli, "corpus_file", side_effect=_LookedUp):
        with pytest.raises((_LookedUp, cli.CliError)) as raised:
            cli._resolve_source(text)
    assert (raised.type is _LookedUp) == bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text))
    if re.fullmatch(r"[0-9]+", text):
        assert cli._non_negative(text) == int(text)
    else:
        with pytest.raises(argparse.ArgumentTypeError):
            cli._non_negative(text)


def test_weak_closed_note_on_a_1_form(capsys):
    code, out, _ = run(capsys, "cohomology", "E0", "--form", "omega21")
    assert code == 1
    assert "[FAIL] weak-closed  (nonzero 2-form; the ideal starts in degree 3)" in out


def _unwritable_report(stdout, preexec_fn=None):
    """Run ``check E0`` in a fresh interpreter whose stdout cannot be written."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "algforge.cli", "check", "E0"],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        preexec_fn=preexec_fn,
    )
    return run.returncode, run.stderr


def test_a_report_into_a_closed_pipe_exits_2():
    # Python ignores SIGPIPE, so the write fails with EPIPE every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _unwritable_report(write_end)
    finally:
        os.close(write_end)
    assert code == 2
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_report_onto_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        code, err = _unwritable_report(full)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_report_past_the_file_size_limit_exits_2(tmp_path):
    # a write error that is not EPIPE, on any POSIX host: Python ignores
    # SIGXFSZ, so a write past RLIMIT_FSIZE fails with EFBIG
    import resource

    def no_file_bytes():
        resource.setrlimit(resource.RLIMIT_FSIZE, (0, 0))

    with open(tmp_path / "report.txt", "w") as out:
        code, err = _unwritable_report(out, no_file_bytes)
    assert code == 2
    assert err.splitlines() == ["error: [Errno 27] File too large"]
    assert (tmp_path / "report.txt").read_text() == ""
