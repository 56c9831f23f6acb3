"""Command-line front end.

Usage pattern: ``algforge COMMAND FILE [options]``.  FILE is resolved as a
path first; failing that, as the name of a bundled document (``algforge
check E0``), and names matching ``tangent<N>`` generate the rank-N tangent
bundle on the spot.  Every command prints a report — one line per named
check — and exits 0 when no check failed, 1 when one did, and 2 on usage,
parse, or lookup errors and when the report cannot be written.  ``--json``
switches the report to a fixed-key-order JSON rendering; identical inputs,
seeds, and degree bounds give identical bytes.  Bounded searches that end
without a verdict are reported as ``inconclusive`` and do not fail the run,
as are checks that do not apply to the input and are skipped.
``algforge --help`` lists the commands, read from the ``_COMMANDS`` table.
A well-formed command line is read straight from that table; argparse is
imported, and builds its parser, every command's included, only for help,
usage errors and the forms the direct reader leaves to it, so most commands
never load it.  Its parser re-raises a validator's ``CliError`` as its own.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .algebroid import (
    Algebroid,
    AlgebroidError,
    courant_defect,
    courant_solution_space,
    lie_infeasibility_certificate,
    nijenhuis_table,
)
from .catalog import TANGENT, corpus_file, make_tangent
from .dsl import (
    Document,
    DslError,
    algebroid_to_document,
    document_algebroid,
    document_connection,
    document_endo,
    document_form,
    parse,
    serialize,
)
from .poly import MAX_EXPONENT
from .reports import INCONCLUSIVE, Report, input_digest

# each command imports the layers only it runs, so that a process compiles
# no module its command does not use
if TYPE_CHECKING:
    import argparse

    from .connection import EConnection


class CliError(Exception):
    """Usage-level problem: bad name, bad option value, missing object."""


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _resolve_source(file_arg: str) -> tuple[str, str]:
    """Return (document text, display label) for a FILE argument."""
    p = Path(file_arg)
    # unlike Path.is_file, a name the system cannot stat (too long, say) is no file
    if os.path.isfile(p):
        try:
            return p.read_text(encoding="utf-8"), p.name
        except UnicodeDecodeError as exc:
            data, start = exc.object, exc.start
            line = data.count(b"\n", 0, start) + 1
            col = start - data.rfind(b"\n", 0, start)
            raise CliError(
                f"{file_arg!r} is not UTF-8 text: byte 0x{data[start]:02x} at line {line}, col {col}"
            ) from None
        except OSError as exc:
            raise CliError(f"cannot read {file_arg!r}: {exc.strerror or exc}") from None
    if file_arg.isascii() and file_arg.isidentifier():
        res = corpus_file(file_arg)
        try:
            bundled = res.is_file()
        except OSError:  # a name too long to stat names no bundled document either
            bundled = False
        if bundled:
            return res.read_text(encoding="utf-8"), f"{file_arg}.alg"
        m = TANGENT.fullmatch(file_arg)
        if m:
            from .connection import flat_connection

            a = make_tangent(int(m.group(1)))
            doc = algebroid_to_document(a, connections={"flat": flat_connection(a)})
            return serialize(doc), f"{file_arg} (generated)"
    raise CliError(f"{file_arg!r} is neither a readable file nor a bundled document name")


def _load(args) -> tuple[Document, Report]:
    text, label = _resolve_source(args.file)
    doc = parse(text)
    report = Report(f"{args.command} {label}", input_digest(text), args.seed, [])
    return doc, report


def _parse_triple(text: str, rank: int) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"triple must be three comma-separated indices, got {text!r}")
    try:
        idx = tuple(_non_negative(p.strip()) - 1 for p in parts)
    except (CliError, ValueError):  # ValueError: too many digits for int
        raise CliError(f"triple indices must be positive integers, got {text!r}") from None
    if len(set(idx)) != 3 or not all(0 <= i < rank for i in idx):
        raise CliError(f"triple needs three distinct indices in 1..{rank}, got {text!r}")
    return idx  # type: ignore[return-value]


def _pairs(rank: int) -> str:
    pairs = rank * (rank - 1) // 2
    return f"{pairs} generator pair{'s' if pairs != 1 else ''}"


def _connection_of(doc: Document, name: str) -> tuple[Algebroid, EConnection]:
    decl = doc.connection(name)
    a = document_algebroid(doc, decl.bundle)
    return a, document_connection(doc, a, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> Report:
    doc, report = _load(args)
    if not doc.bundles:
        report.add("document-has-a-bundle", False, note="no bundle declared")
        return report
    for b in doc.bundles:
        a = document_algebroid(doc, b.name)
        axioms = a.check_axioms()
        lines = [f"({a.gen_names[i]}, {a.gen_names[j]}): defect {d.to_text()}" for i, j, d in axioms.failures]
        note = None if lines else _pairs(a.rank)
        report.add(f"anchor-axioms:{b.name}", axioms.ok, witness="\n".join(lines) or None, note=note)
    return report


def cmd_jacobiator(args) -> Report:
    doc, report = _load(args)
    a = document_algebroid(doc)
    if args.triples == "all":
        triples = list(combinations(range(a.rank), 3))
    else:
        triples = [_parse_triple(args.triples, a.rank)]
    anchored = True
    for i, j, k in triples:
        value = a.jacobiator_gen(i, j, k)
        label = f"({a.gen_names[i]},{a.gen_names[j]},{a.gen_names[k]})"
        witness = a.section_text(value)
        report.add(f"jacobiator:{label}", value.is_zero(), witness=witness)
        if not a.anchor_of(value).is_zero():
            anchored = False
    report.add(
        "anchor-kills-jacobiator",
        anchored,
        note=f"{len(triples)} triple{'s' if len(triples) != 1 else ''}"
        + ("" if anchored else "; the anchor axiom must be failing"),
    )
    return report


def cmd_lie(args) -> Report:
    doc, report = _load(args)
    a = document_algebroid(doc)
    lie = a.check_lie()
    if lie.is_lie:
        report.add("jacobi-identity", True, note=lie.describe().removeprefix("Jacobiator vanishes on "))
    else:
        for (i, j, k), value in lie.failures:
            label = f"({a.gen_names[i]},{a.gen_names[j]},{a.gen_names[k]})"
            report.add(f"jacobi-identity:{label}", False, witness=a.section_text(value))
    return report


def cmd_connection_report(args) -> Report:
    doc, report = _load(args)
    a, conn = _connection_of(doc, args.connection)
    names = a.gen_names

    torsion_lines = [f"T({names[i]}, {names[j]}) = {a.section_text(t)}" for (i, j), t in conn.torsion_table().items()]
    report.add(
        "torsion",
        True,
        witness="\n".join(torsion_lines) or None,
        note="torsion-free" if not torsion_lines else f"{len(torsion_lines)} nonzero pairs",
    )

    table = conn.curvature_table()
    curv_lines = [
        f"R({a.gen_names[i]}, {a.gen_names[j]}) {a.gen_names[b]} = {a.section_text(value)}"
        for (i, j, b), value in table.items()
    ]
    anchored = all(a.anchor_of(value).is_zero() for value in table.values())
    report.add(
        "curvature-table",
        True,
        witness="\n".join(curv_lines) or None,
        note=(
            ("flat on generators" if not curv_lines else f"{len(curv_lines)} nonzero values")
            + ("; every value is anchor-killed" if anchored and curv_lines else "")
        ),
    )

    bad = conn.bianchi_table().items()
    witness = next((f"triple ({names[i]},{names[j]},{names[k]}): {a.section_text(d)}" for (i, j, k), d in bad), None)
    note = "cyclic curvature sum matches the Jacobi defect on all triples" if witness is None else None
    report.add("curvature-identity", witness is None, witness=witness, note=note)
    return report


def cmd_derive(args) -> Report:
    from .connection import derive_bundle

    doc, report = _load(args)
    a, conn = _connection_of(doc, args.connection)
    d = derive_bundle(conn)
    out_doc = algebroid_to_document(d.derived, connections={"lifted": d.lifted})
    text = serialize(out_doc)
    Path(args.output).write_text(text)

    report.add(
        "derived-rank",
        True,
        note=f"rank {d.derived.rank} = {a.rank} + {a.rank * (a.rank - 1) // 2} wedge generators",
    )
    axioms = d.derived.check_axioms()
    report.add("derived-anchor-axioms", axioms.ok, note=None if axioms.ok else axioms.describe())
    reparsed = parse(text)
    report.add(
        "output-round-trips",
        reparsed == out_doc,
        note=f"wrote {Path(args.output).name}",
    )
    return report


def cmd_cohomology(args) -> Report:
    from .forms import Lambda2Ideal, d_squared, strong_closed, weak_closed, weak_exact

    doc, report = _load(args)
    decl = doc.form(args.form)
    a = document_algebroid(doc, decl.bundle)
    omega = document_form(doc, a, args.form)
    ideal = Lambda2Ideal(a)
    D = args.max_degree

    for name, decision in (
        ("d-squared-in-obstruction-ideal", ideal.membership(d_squared(omega), D)),
        ("strong-closed", strong_closed(omega, D)),
        ("weak-closed", weak_closed(omega, ideal, D)),
        ("weak-exact", weak_exact(omega, ideal, D)),
    ):
        report.add_status(
            name,
            decision.report_status,
            witness=None if decision.theta is None else f"theta = {decision.theta.to_text()}",
            note=decision.note or None,
        )
    return report


def cmd_charclass(args) -> Report:
    from .charclass import char_forms, structure_residuals
    from .forms import Lambda2Ideal, strong_closed, weak_closed

    doc, report = _load(args)
    a, conn = _connection_of(doc, args.connection)
    ideal = Lambda2Ideal(a)
    D = args.max_degree

    cartan, d_cartan = structure_residuals(conn)
    report.add("structure-equation", cartan.is_zero(), note="curvature = d(theta) + theta^theta")
    report.add(
        "differentiated-structure-equation",
        d_cartan.is_zero(),
        note="d(curvature) = d^2(theta) + [curvature, theta]",
    )

    beyond = a.rank // 2 + 1
    for k, form in char_forms(conn, range(1, max(args.max_k, beyond) + 1)):
        if k == beyond:
            top = form
        if k > args.max_k:
            continue
        report.add(f"trace-power-{k}", True, witness=form.to_text())
        if form.is_zero():
            report.add(f"trace-power-{k}-closed", True, note="identically zero")
            continue
        closed, note = strong_closed(form, D), "strong (witness found)"
        if not closed.is_yes:
            closed = weak_closed(form, ideal, D)
            note = "weak (differential lies in the obstruction ideal)" if closed.is_yes else (closed.note or None)
        report.add_status(f"trace-power-{k}-closed", closed.report_status, note=note)

    report.add(
        "trace-powers-vanish-beyond-top-degree",
        top.is_zero(),
        note=f"order {beyond} exceeds half the rank",
    )
    return report


def cmd_transgression(args) -> Report:
    from .charclass import transgression_check
    from .forms import Lambda2Ideal

    doc, report = _load(args)
    a1, first = _connection_of(doc, args.c1)
    a2, second = _connection_of(doc, args.c2)
    if a1.gen_names != a2.gen_names:
        raise CliError("the two connections live on different bundles")
    (rep,) = transgression_check(first, second, (args.k,), ideal=Lambda2Ideal(a1), max_degree=args.max_degree)
    report.add(
        "difference-splits",
        rep.identity_ok,
        witness=f"primary witness = {rep.primary_witness.to_text()}",
        note=f"order {args.k}; difference = d(witness) + ideal part",
    )
    report.add(
        "endpoint-restrictions",
        rep.restriction_ok,
        note="interval endpoints reproduce the two trace forms",
    )
    report.add_status(
        "ideal-part-membership",
        rep.ideal_membership.report_status,
        witness=None if rep.ideal_part.is_zero() else f"ideal part = {rep.ideal_part.to_text()}",
        note=rep.ideal_membership.note or None,
    )
    return report


def cmd_courant(args) -> Report:
    doc, report = _load(args)
    a = document_algebroid(doc)
    D = args.max_degree

    full = courant_solution_space(a, max_degree=D)
    note = f"dimension {full.dim} at coefficient degree <= {D}"
    inv = full.invertible_at_point()
    if inv:
        note += f"; {len(inv)} basis element{'s' if len(inv) != 1 else ''} invertible at the origin"
    elif full.dim:
        note += "; all solutions vanish at the origin" if full.all_zero_at_point() else ""
    report.add("full-symmetric-space", True, note=note)

    if a.rank % 2 == 0 and a.rank >= 2:
        paired = courant_solution_space(a, max_degree=D, paired_blocks=2)
        pnote = f"dimension {paired.dim} at coefficient degree <= {D}"
        if paired.dim:
            pnote += (
                "; all solutions vanish at the origin"
                if paired.all_zero_at_point()
                else "; some solution is nonzero at the origin"
            )
        report.add("paired-block-space", True, note=pnote)
    else:
        report.add_status("paired-block-space", INCONCLUSIVE, note="skipped: rank is odd")

    for decl in doc.cometrics:
        if len(decl.rows) != a.rank:
            skipped = f"skipped: size {len(decl.rows)} != rank {a.rank}"
            report.add_status(f"defect:{decl.name}", INCONCLUSIVE, note=skipped)
            continue
        defect = courant_defect(a, decl.rows)
        lines = ["[" + ", ".join(p.to_text(a.base.var_names) for p in row.coeffs) + "]" for row in defect]
        zero = all(row.is_zero() for row in defect)
        report.add(
            f"defect:{decl.name}",
            zero,
            witness="\n".join(lines),
            note="solves the pairing equation" if zero else "nonzero defect",
        )
    return report


def cmd_nijenhuis(args) -> Report:
    doc, report = _load(args)
    decl = doc.endo(args.endo)
    a = document_algebroid(doc, decl.bundle)
    j = document_endo(doc, a, args.endo)
    almost_complex = j.is_almost_complex()
    report.add("square-is-minus-identity", almost_complex)
    if not almost_complex:
        # the integrability tensor is defined only for an almost complex J
        return report
    names = a.gen_names
    bad = [f"({names[i]}, {names[k]}): {a.section_text(value)}" for (i, k), value in nijenhuis_table(a, j).items()]
    report.add("integrability-tensor-vanishes", not bad, witness="\n".join(bad) or None, note=_pairs(a.rank))
    return report


def cmd_obstruction(args) -> Report:
    doc, report = _load(args)
    a = document_algebroid(doc)
    triple = _parse_triple(args.triple, a.rank)
    bundle_name = doc.bundle().name

    kernel = []
    kernel_names = []
    for i in range(a.rank):
        if a.anchor[i].is_zero():
            kernel.append(a.unit_section(i))
            kernel_names.append(a.gen_names[i])
    for decl in doc.sections:
        if decl.bundle != bundle_name:
            continue
        if a.anchor_of(decl.value).is_zero() and not decl.value.is_zero():
            kernel.append(decl.value)
            kernel_names.append(decl.name)
    report.add(
        "kernel-sections",
        True,
        note=("using " + ", ".join(kernel_names)) if kernel_names else "none declared or apparent",
    )

    cert = lie_infeasibility_certificate(a, triple, kernel, max_degree=args.max_degree)
    report.add_status("kernel-modification-certificate", cert.report_status, note=cert.describe(a.gen_names))
    return report


def cmd_verify_paper(args) -> Report:
    from . import verify

    return verify.build_report(seed=args.seed, max_degree=args.max_degree)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _non_negative(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise CliError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _degree_bound(text: str) -> int:
    # a bounded search packs every monomial up to the bound, behind poly's field-width guard
    value = _non_negative(text)
    if value > MAX_EXPONENT:
        raise CliError(f"expected a degree bound of at most {MAX_EXPONENT}, got {text!r}")
    return value


# an argument is its flags, then its add_argument keywords; every command takes these first
_COMMON = [
    ("--seed", {"type": int, "default": 0, "help": "seed recorded in the report and used by any sampling"}),
    ("--max-degree", {"type": _degree_bound, "help": "coefficient degree bound for the bounded searches"
                      " (default 4, env ALGFORGE_MAX_DEGREE)"}),
    ("--json", {"action": "store_true", "help": "emit the report as JSON"}),
]
_FILE = ("file", {"metavar": "FILE", "help": "document path or bundled document name"})
_CONNECTION = ("--connection", {"required": True, "help": "name of a declared connection"})
# each command's help line and its own arguments
_COMMANDS = {
    "check": ("verify the anchor axioms of every declared bundle", [_FILE]),
    "jacobiator": ("print Jacobi defects per generator triple", [
        _FILE, ("--triples", {"default": "all", "help": "'all' or one 1-based triple like 1,2,3"})]),
    "lie": ("assert the bracket satisfies the Jacobi identity", [_FILE]),
    "connection-report": ("torsion and curvature of a declared connection", [_FILE, _CONNECTION]),
    "derive": ("extend the bundle by its wedge square and write the result", [
        _FILE, ("--connection", {"required": True, "help": "connection used to correct the extension"}),
        ("-o", "--output", {"required": True, "help": "path for the derived document"})]),
    "cohomology": ("closedness and exactness of a declared form", [
        _FILE, ("--form", {"required": True, "help": "name of a declared form"})]),
    "charclass": ("trace powers of the curvature of a connection", [
        _FILE, _CONNECTION,
        ("--max-k", {"type": _non_negative, "default": 2, "help": "highest trace power to compute (default 2)"})]),
    "transgression": ("compare trace forms of two declared connections", [
        _FILE, ("--c1", {"required": True, "help": "first connection name"}),
        ("--c2", {"required": True, "help": "second connection name"}),
        ("--k", {"type": int, "default": 1, "help": "trace power to compare (default 1)"})]),
    "courant": ("bounded cometric solution spaces and declared defects", [_FILE]),
    "nijenhuis": ("integrability of a declared endomorphism", [
        _FILE, ("--endo", {"required": True, "help": "name of a declared endomorphism"})]),
    "obstruction": ("degree certificate that one Jacobi defect cannot be cancelled", [
        _FILE, ("--triple", {"required": True, "help": "1-based generator triple like 1,2,3"})]),
    "verify-paper": ("run the built-in verification suite", []),
}


def _degree_default() -> str:
    # read on every call; a string default goes through the option's type,
    # so a bad environment value is a usage error too
    return os.environ.get("ALGFORGE_MAX_DEGREE", "4")


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse gives a well-formed command line, read from the same tables; None for any other line.

    Well formed: a command name, then only exact option strings of that command
    (a value as the next token or after ``--long=``, never starting with ``-``),
    its positionals and every required option.  Help, abbreviations, ``--``, a
    missing or extra argument and a value its type refuses are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options, positionals = {}, []
    for *flags, keywords in _COMMON + _COMMANDS[argv[0]][1]:
        if flags[0].startswith("-"):
            # argparse's dest: the first long flag, else the first flag
            long = next((f for f in flags if f.startswith("--")), flags[0])
            options.update(dict.fromkeys(flags, (long.lstrip("-").replace("-", "_"), keywords)))
        else:
            positionals.append(flags[0])  # FILE, which takes no type

    def typed(keywords, text):
        return keywords["type"](text) if "type" in keywords else text

    given, words = {}, []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
                continue
            flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
            if flag not in options:
                return None
            dest, keywords = options[flag]
            if keywords.get("action") == "store_true":
                if eq:
                    return None
                given[dest] = True
                continue
            if not eq:
                value = next(tokens, "-")  # a missing value reads as an option
            if value.startswith("-"):
                return None
            # every occurrence is converted, as argparse does; the last one is kept
            given[dest] = typed(keywords, value)
        if len(words) != len(positionals) or any(k.get("required") and d not in given for d, k in options.values()):
            return None
        given.update(zip(positionals, words))
        for dest, keywords in options.values():
            if dest in given:
                continue
            if dest == "max_degree":
                default = _degree_default()
            else:
                default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
            # argparse converts a string default through the type too
            given[dest] = typed(keywords, default) if isinstance(default, str) else default
    except (CliError, TypeError, ValueError):
        return None
    return SimpleNamespace(command=argv[0], **given)


def _split_dash_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--OPTION=--`` or ``-o--`` split in two, a missing value; argparse up to 3.12 reads []."""
    arguments = _COMMON + _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else []
    takes_value = {flag: "action" not in keywords for *flags, keywords in arguments for flag in flags if flag[0] == "-"}
    out = []
    for n, token in enumerate(argv):
        if token == "--":  # the rest is positional
            return out + argv[n:]
        head = token[:-3] if token.endswith("=--") else token[:2] if len(token) == 4 and token.endswith("--") else ""
        # the exact flag, else the one long flag it abbreviates
        named = [f for f in takes_value if f == head]
        named = named or [f for f in takes_value if head[:2] == "--" and f.startswith(head)]
        out += [head, "--"] if len(named) == 1 and takes_value[named[0]] else [token]
    return out


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on each use: only help, usage errors and the forms ``_read`` leaves reach it."""
    import argparse

    def refusing(convert):
        def typed(text: str):
            try:
                return convert(text)
            except CliError as exc:  # argparse prints this text, and the type's name for a ValueError
                raise argparse.ArgumentTypeError(str(exc)) from None

        typed.__name__ = convert.__name__
        return typed

    # argparse wraps at COLUMNS; 78 is its width with no terminal attached
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(prog="algforge", description=__doc__.splitlines()[0], formatter_class=formatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in _COMMANDS.items():
        command = commands.add_parser(name, help=text, formatter_class=formatter)
        for *flags, keywords in _COMMON + arguments:
            if "type" in keywords:
                keywords = {**keywords, "type": refusing(keywords["type"])}
            command.add_argument(*flags, **keywords)
        command.set_defaults(max_degree=_degree_default())
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = _parser().parse_args(_split_dash_values(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report = command(args)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (CliError, DslError, AlgebroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # flushed here, so a report that cannot be written is an error too
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except OSError as exc:
        # bytes left in the buffer are flushed again at exit: send them to
        # devnull, whatever the error (closed pipe, full device)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
