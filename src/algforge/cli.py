"""Command-line front end.

Usage pattern: ``algforge COMMAND FILE [options]``.  FILE is resolved as a
path first; failing that, as the name of a bundled document (``algforge
check E0``), and names matching ``tangent<N>`` generate the rank-N tangent
bundle on the spot.  Every command prints a report — one line per named
check — and exits 0 when no check failed, 1 when one did, and 2 on usage,
parse, or lookup errors.  ``--json`` switches the report to a fixed-key-order
JSON rendering; identical inputs, seeds, and degree bounds give identical
bytes.  Bounded searches that end without a verdict are reported as
``inconclusive`` and do not fail the run.

Commands:

  check               elaborate the document and verify the anchor axioms
  jacobiator          print Jacobi defects per generator triple
  lie                 assert the bracket satisfies Jacobi on all triples
  connection-report   torsion, curvature table, and the curvature identity
  derive              build the wedge-extended bundle and write it out
  cohomology          closedness/exactness report for a declared form
  charclass           trace powers of the curvature and their closedness
  transgression       compare trace forms of two connections
  courant             bounded cometric solution spaces and declared defects
  nijenhuis           integrability report for a declared endomorphism
  obstruction         degree-bookkeeping certificate for one Jacobi defect
  verify-paper        run the built-in verification suite
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import resources
from itertools import combinations
from pathlib import Path

from .algebroid import (
    Algebroid,
    AlgebroidError,
    courant_defect,
    courant_solution_space,
    lie_infeasibility_certificate,
    nijenhuis,
)
from .catalog import make_tangent
from .charclass import (
    cartan_residual,
    char_form,
    dR_identity_residual,
    transgression_check,
)
from .connection import EConnection, derive_bundle, flat_connection
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
from .forms import Lambda2Ideal, d_squared, strong_closed, weak_closed, weak_exact
from .poly import Poly
from .reports import FAIL, INCONCLUSIVE, PASS, Report, input_digest

_TANGENT = re.compile(r"^tangent([1-9][0-9]?)$")


class CliError(Exception):
    """Usage-level problem: bad name, bad option value, missing object."""


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _resolve_source(file_arg: str) -> tuple[str, str]:
    """Return (document text, display label) for a FILE argument."""
    p = Path(file_arg)
    if p.is_file():
        return p.read_text(), p.name
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", file_arg):
        res = resources.files("algforge") / "corpus" / f"{file_arg}.alg"
        if res.is_file():
            return res.read_text(), f"{file_arg}.alg"
        m = _TANGENT.match(file_arg)
        if m:
            a = make_tangent(int(m.group(1)))
            doc = algebroid_to_document(a, connections={"flat": flat_connection(a)})
            return serialize(doc), f"{file_arg} (generated)"
    raise CliError(f"{file_arg!r} is neither a readable file nor a bundled document name")


def _load(args) -> tuple[Document, Report]:
    text, label = _resolve_source(args.file)
    doc = parse(text)
    report = Report(f"{args.command} {label}", input_digest(text), args.seed)
    return doc, report


def _status_of(decision_status: str) -> str:
    if decision_status == "yes" or decision_status == "member":
        return PASS
    if decision_status == "no-witness":
        return INCONCLUSIVE
    return FAIL


def _parse_triple(text: str, rank: int) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"triple must be three comma-separated indices, got {text!r}")
    try:
        idx = tuple(int(p) - 1 for p in parts)
    except ValueError:
        raise CliError(f"triple indices must be integers, got {text!r}") from None
    if len(set(idx)) != 3 or not all(0 <= i < rank for i in idx):
        raise CliError(f"triple needs three distinct indices in 1..{rank}, got {text!r}")
    return idx  # type: ignore[return-value]


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
        if axioms.ok:
            report.add(f"anchor-axioms:{b.name}", True, note=f"{a.rank * (a.rank - 1) // 2} generator pairs")
        else:
            lines = []
            for i, j, defect in axioms.failures:
                lines.append(f"({a.gen_names[i]}, {a.gen_names[j]}): defect {defect.to_text()}")
            report.add(f"anchor-axioms:{b.name}", False, witness="\n".join(lines))
    return report


def cmd_jacobiator(args) -> Report:
    doc, report = _load(args)
    a = document_algebroid(doc)
    if args.triples == "all":
        triples = list(combinations(range(a.rank), 3))
    else:
        triples = [_parse_triple(args.triples, a.rank)]
    units = [a.unit_section(i) for i in range(a.rank)]
    anchored = True
    for i, j, k in triples:
        value = a.jacobiator(units[i], units[j], units[k])
        label = f"({a.gen_names[i]},{a.gen_names[j]},{a.gen_names[k]})"
        witness = a.section_text(value)
        report.add(f"jacobiator:{label}", True, witness=witness)
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
        total = len(list(combinations(range(a.rank), 3)))
        report.add("jacobi-identity", True, note=f"all {total} generator triples")
    else:
        for (i, j, k), value in lie.failures:
            label = f"({a.gen_names[i]},{a.gen_names[j]},{a.gen_names[k]})"
            report.add(f"jacobi-identity:{label}", False, witness=a.section_text(value))
    return report


def cmd_connection_report(args) -> Report:
    doc, report = _load(args)
    a, conn = _connection_of(doc, args.connection)
    units = [a.unit_section(i) for i in range(a.rank)]

    torsion_lines = []
    for i, j in combinations(range(a.rank), 2):
        t = conn.torsion(units[i], units[j])
        if not t.is_zero():
            torsion_lines.append(f"T({a.gen_names[i]}, {a.gen_names[j]}) = {a.section_text(t)}")
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

    bad = None
    for i, j, k in combinations(range(a.rank), 3):
        defect = conn.bianchi_defect(units[i], units[j], units[k])
        if not defect.is_zero():
            bad = (i, j, k, defect)
            break
    if bad is None:
        report.add("curvature-identity", True, note="cyclic curvature sum matches the Jacobi defect on all triples")
    else:
        i, j, k, defect = bad
        report.add(
            "curvature-identity",
            False,
            witness=f"triple ({a.gen_names[i]},{a.gen_names[j]},{a.gen_names[k]}): {a.section_text(defect)}",
        )
    return report


def cmd_derive(args) -> Report:
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
    doc, report = _load(args)
    decl = doc.form(args.form)
    a = document_algebroid(doc, decl.bundle)
    omega = document_form(doc, a, args.form)
    ideal = Lambda2Ideal(a)
    D = args.max_degree

    dd = d_squared(omega)
    member = ideal.membership(dd, D)
    report.add_status(
        "d-squared-in-obstruction-ideal",
        _status_of(member.status),
        note=member.note or None,
    )

    strong = strong_closed(omega, D)
    report.add_status(
        "strong-closed",
        _status_of(strong.status),
        witness=None if strong.witness is None else f"theta = {strong.witness.to_text()}",
        note=strong.note or None,
    )

    weak = weak_closed(omega, ideal, D)
    report.add_status("weak-closed", _status_of(weak.status), note=weak.note or None)

    exact = weak_exact(omega, ideal, D)
    report.add_status(
        "weak-exact",
        _status_of(exact.status),
        witness=None if exact.witness is None else f"theta = {exact.witness.to_text()}",
        note=exact.note or None,
    )
    return report


def cmd_charclass(args) -> Report:
    doc, report = _load(args)
    a, conn = _connection_of(doc, args.connection)
    ideal = Lambda2Ideal(a)
    D = args.max_degree

    report.add("structure-equation", cartan_residual(conn).is_zero(), note="curvature = d(theta) + theta^theta")
    report.add(
        "differentiated-structure-equation",
        dR_identity_residual(conn).is_zero(),
        note="d(curvature) = d^2(theta) + [curvature, theta]",
    )

    for k in range(1, args.max_k + 1):
        form = char_form(conn, k)
        report.add(f"trace-power-{k}", True, witness=form.to_text())
        if form.is_zero():
            report.add(f"trace-power-{k}-closed", True, note="identically zero")
            continue
        strong = strong_closed(form, D)
        if strong.is_yes:
            report.add(f"trace-power-{k}-closed", True, note="strong (witness found)")
            continue
        weak = weak_closed(form, ideal, D)
        report.add_status(
            f"trace-power-{k}-closed",
            _status_of(weak.status),
            note="weak (differential lies in the obstruction ideal)" if weak.is_yes else (weak.note or None),
        )

    beyond = a.rank // 2 + 1
    report.add(
        "trace-powers-vanish-beyond-top-degree",
        char_form(conn, beyond).is_zero(),
        note=f"order {beyond} exceeds half the rank",
    )
    return report


def cmd_transgression(args) -> Report:
    doc, report = _load(args)
    a1, first = _connection_of(doc, args.c1)
    a2, second = _connection_of(doc, args.c2)
    if a1.gen_names != a2.gen_names:
        raise CliError("the two connections live on different bundles")
    rep = transgression_check(first, second, args.k, ideal=Lambda2Ideal(a1), max_degree=args.max_degree)
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
        _status_of(rep.ideal_membership.status),
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
        report.add("paired-block-space", True, note="skipped: rank is odd")

    for decl in doc.cometrics:
        if len(decl.rows) != a.rank:
            report.add(f"defect:{decl.name}", True, note=f"skipped: size {len(decl.rows)} != rank {a.rank}")
            continue
        defect = courant_defect(a, [list(row) for row in decl.rows])
        lines = []
        for i, row in enumerate(defect):
            lines.append("[" + ", ".join(p.to_text(a.base.var_names) for p in row) + "]")
        zero = all(p.is_zero() for row in defect for p in row)
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
    report.add("square-is-minus-identity", j.is_almost_complex())
    units = [a.unit_section(i) for i in range(a.rank)]
    bad = []
    for i, k in combinations(range(a.rank), 2):
        value = nijenhuis(a, j, units[i], units[k])
        if not value.is_zero():
            bad.append(f"({a.gen_names[i]}, {a.gen_names[k]}): {a.section_text(value)}")
    report.add(
        "integrability-tensor-vanishes",
        not bad,
        witness="\n".join(bad) or None,
        note=f"{a.rank * (a.rank - 1) // 2} generator pair{'s' if a.rank != 2 else ''}",
    )
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
    status = {
        "infeasible": PASS,
        "trivially-feasible": PASS,
        "inconclusive": INCONCLUSIVE,
    }[cert.status]
    report.add_status("kernel-modification-certificate", status, note=cert.describe(a.gen_names))
    return report


def cmd_verify_paper(args) -> Report:
    from . import verify

    return verify.build_report(seed=args.seed, max_degree=args.max_degree)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _non_negative(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed recorded in the report and used by any sampling")
    common.add_argument(
        "--max-degree",
        type=_non_negative,
        # a string default goes through the type, so a bad environment value
        # is a usage error like a bad option
        default=os.environ.get("ALGFORGE_MAX_DEGREE", "4"),
        help="coefficient degree bound for the bounded searches (default 4, env ALGFORGE_MAX_DEGREE)",
    )
    common.add_argument("--json", action="store_true", help="emit the report as JSON")

    parser = argparse.ArgumentParser(prog="algforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, file: bool = True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if file:
            p.add_argument("file", metavar="FILE", help="document path or bundled document name")
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check, "verify the anchor axioms of every declared bundle")

    p = add("jacobiator", cmd_jacobiator, "print Jacobi defects per generator triple")
    p.add_argument("--triples", default="all", help="'all' or one 1-based triple like 1,2,3")

    add("lie", cmd_lie, "assert the bracket satisfies the Jacobi identity")

    p = add("connection-report", cmd_connection_report, "torsion and curvature of a declared connection")
    p.add_argument("--connection", required=True, help="name of a declared connection")

    p = add("derive", cmd_derive, "extend the bundle by its wedge square and write the result")
    p.add_argument("--connection", required=True, help="connection used to correct the extension")
    p.add_argument("-o", "--output", required=True, help="path for the derived document")

    p = add("cohomology", cmd_cohomology, "closedness and exactness of a declared form")
    p.add_argument("--form", required=True, help="name of a declared form")

    p = add("charclass", cmd_charclass, "trace powers of the curvature of a connection")
    p.add_argument("--connection", required=True, help="name of a declared connection")
    p.add_argument("--max-k", type=_non_negative, default=2, help="highest trace power to compute (default 2)")

    p = add("transgression", cmd_transgression, "compare trace forms of two declared connections")
    p.add_argument("--c1", required=True, help="first connection name")
    p.add_argument("--c2", required=True, help="second connection name")
    p.add_argument("--k", type=int, default=1, help="trace power to compare (default 1)")

    add("courant", cmd_courant, "bounded cometric solution spaces and declared defects")

    p = add("nijenhuis", cmd_nijenhuis, "integrability of a declared endomorphism")
    p.add_argument("--endo", required=True, help="name of a declared endomorphism")

    p = add("obstruction", cmd_obstruction, "degree certificate that one Jacobi defect cannot be cancelled")
    p.add_argument("--triple", required=True, help="1-based generator triple like 1,2,3")

    add("verify-paper", cmd_verify_paper, "run the built-in verification suite", file=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report = args.handler(args)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (AlgebroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
