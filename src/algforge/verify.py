"""The built-in verification suite: every claim the engine reproduces, as checks.

Each entry in CRITERIA is (name, function); the function receives a Context
and returns (ok, note).  The CLI's verify-paper command renders these into a
Report, and the acceptance test suite runs them one per test.  Checks are
exact polynomial identities unless the note says a bounded search was used.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebroid import (
    check_morphism,
    courant_defect,
    courant_solution_space,
    lie_infeasibility_certificate,
    nijenhuis,
    subalgebroid_restrict,
)
from .catalog import (
    builtin,
    e0_complex_structure,
    e0_kernel_sections,
    e0prime_to_e0_matrix,
    make_e0,
    torsionfree_gamma,
)
from .charclass import (
    cartan_residual,
    char_form,
    connection_forms,
    dR_identity_residual,
    homotopy_identity_report,
    product_algebroid,
    pullback_consistency,
    transgression_check,
)
from .connection import EConnection, derive_bundle, flat_connection, verify_prhelp
from .forms import Form, Lambda2Ideal, d_squared, differential, strong_closed, weak_closed
from .poly import Poly
from .sampling import Sampler


@dataclass
class Context:
    seed: int = 0
    max_degree: int = 4


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _e0():
    return make_e0()


@lru_cache(maxsize=None)
def _kernel():
    return e0_kernel_sections()


@lru_cache(maxsize=None)
def _torsionfree():
    e0 = _e0()
    return EConnection(e0, torsionfree_gamma(e0), name="torsionfree")


@lru_cache(maxsize=None)
def _derived():
    return derive_bundle(_torsionfree())


@lru_cache(maxsize=None)
def _ideal():
    return Lambda2Ideal(_e0())


def _x(i: int) -> Poly:
    return Poly.variable(2, i)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def c01_axioms(ctx: Context):
    e0 = _e0()
    rep = e0.check_axioms()
    if not rep.ok:
        return False, "compact bracket table fails anchor compatibility"
    itemized = builtin("E0_itemized")
    bad = itemized.check_axioms()
    if bad.ok:
        return False, "itemized bracket variant unexpectedly satisfies the axioms"
    (i, j, defect) = bad.failures[0]
    return True, (
        "compact table passes on all 6 pairs; itemized variant defect on "
        f"({itemized.gen_names[i]}, {itemized.gen_names[j]}): {defect.to_text()}"
    )


def c02_jacobiator_table(ctx: Context):
    e0 = _e0()
    kern = _kernel()
    units = [e0.unit_section(i) for i in range(4)]
    expected = {
        (0, 1, 3): e0.zero_section(),
        (0, 2, 3): e0.zero_section(),
        (0, 1, 2): kern["Xs2"].scale(2),
        (1, 2, 3): kern["Xs1"].scale(2),
    }
    for (i, j, k), want in expected.items():
        got = e0.jacobiator(units[i], units[j], units[k])
        if got != want:
            return False, f"triple ({i},{j},{k}): got {e0.section_text(got)}"
        if not e0.anchor_of(got).is_zero():
            return False, f"triple ({i},{j},{k}): value is not kernel-valued"
    return True, (
        "zero on (X11,X21,X22) and (X11,X12,X22); engine signs +2*Xs2 on "
        "(X11,X21,X12) and +2*Xs1 on (X21,X12,X22) where the source prints "
        "-2 (its cyclic sum starts with the bracket; discrepancy recorded); "
        "all values kernel-valued"
    )


def c03_kernel_brackets(ctx: Context):
    e0 = _e0()
    kern = _kernel()
    x1, x2 = _x(0), _x(1)
    xs1, xs2 = kern["Xs1"], kern["Xs2"]
    units = {name: e0.unit_section(i) for i, name in enumerate(e0.gen_names)}
    table = [
        ("[Xs1,X11]", xs1, units["X11"], e0.zero_section()),
        ("[Xs1,X12]", xs1, units["X12"], e0.zero_section()),
        ("[Xs2,X21]", xs2, units["X21"], e0.zero_section()),
        ("[Xs2,X22]", xs2, units["X22"], e0.zero_section()),
        ("[Xs1,X22]", xs1, units["X22"], xs1.scale(-2 * x2)),
        ("[Xs1,X21]", xs1, units["X21"], xs2.scale(2 * x1)),
        ("[Xs2,X11]", xs2, units["X11"], xs2.scale(-2 * x1)),
        ("[Xs2,X12]", xs2, units["X12"], xs1.scale(2 * x2)),
    ]
    for name, a, b, want in table:
        got = e0.bracket(a, b)
        if got != want:
            return False, f"{name} = {e0.section_text(got)}"
        if not e0.anchor_of(got).is_zero():
            return False, f"{name} is not kernel-valued"
    # ninth displayed bracket: the kernel pair of the restricted Lie bundle,
    # zero in its structure table (NOT the restriction of [Xs1,Xs2], which is
    # 2*x1^2*x2*Xs1 + 2*x1*x2^2*Xs2 here)
    e00 = builtin("E00")
    ninth = e00.bracket_gen(2, 3)
    if not ninth.is_zero():
        return False, f"restricted kernel pair bracket nonzero: {e00.section_text(ninth)}"
    return True, "eight table brackets exact and kernel-valued; ninth (restricted kernel pair) zero"


def c04_induced_subbundles(ctx: Context):
    e0 = _e0()
    for label, idxs in (("first", (0, 1, 3)), ("second", (0, 2, 3))):
        gens = [e0.unit_section(i) for i in idxs]
        names = tuple(e0.gen_names[i] for i in idxs)
        sub = subalgebroid_restrict(e0, gens, names, max_degree=ctx.max_degree)
        if not hasattr(sub, "check_lie"):
            return False, f"{label} triple subbundle does not close: {sub.describe(names)}"
        lie = sub.check_lie()
        if not lie.is_lie:
            return False, f"{label} triple subbundle is not Lie: {lie.describe()}"
    return True, "both 3-generator subbundles close and pass the full Jacobi sweep"


def c05_rank4_family_morphism(ctx: Context):
    unprimed = builtin("E0prime")
    if not unprimed.check_axioms().ok:
        return False, "unprimed variant fails the anchor axioms"
    primed = builtin("E0prime_lie")
    lie = primed.check_lie()
    if not lie.is_lie:
        return False, f"primed variant is not Lie: {lie.describe()}"
    rep = check_morphism(unprimed, _e0(), e0prime_to_e0_matrix())
    if not rep.ok:
        return False, "bundle map is not a morphism for the unprimed bracket"
    return True, "axioms, primed Jacobi sweep, and the bundle morphism all pass"


def c06_diagonal_subbundle(ctx: Context):
    e0 = _e0()
    a1 = e0.unit_section(0) + e0.unit_section(2)
    b1 = e0.unit_section(1) + e0.unit_section(3)
    got = e0.bracket(a1, b1)
    want = a1.scale(-2 * _x(1)) + b1.scale(2 * _x(0))
    if got != want:
        return False, f"[A1,B1] = {e0.section_text(got)}"
    sub = subalgebroid_restrict(e0, [a1, b1], ("A1", "B1"), max_degree=ctx.max_degree)
    if not hasattr(sub, "check_lie"):
        return False, f"diagonal subbundle does not close: {sub.describe(('A1', 'B1'))}"
    if not sub.check_lie().is_lie:
        return False, "diagonal subbundle is not Lie"
    e00 = builtin("E00")
    if not e00.check_lie().is_lie:
        return False, "restricted 4-generator bundle is not Lie"
    rest = e00.bracket_gen(0, 1)
    if tuple(rest.coeffs[:2]) != tuple(sub.bracket_gen(0, 1).coeffs) or any(
        not c.is_zero() for c in rest.coeffs[2:]
    ):
        return False, "restricted table disagrees with the diagonal subbundle bracket"
    return True, "[A1,B1] = -2*x2*A1 + 2*x1*B1 exactly; Lie; matches the restricted table"


def c07_torsionfree_connection(ctx: Context):
    tf = _torsionfree()
    e0 = _e0()
    if not tf.is_torsion_free():
        return False, "torsion does not vanish on generator pairs"
    table = tf.curvature_table()
    for (i, j, b), value in table.items():
        if not e0.anchor_of(value).is_zero():
            return False, f"curvature value on ({i},{j},{b}) is not kernel-valued"
    return True, f"torsion zero on all 6 pairs; curvature kernel-valued ({len(table)} nonzero values)"


def c08_bianchi(ctx: Context):
    e0 = _e0()
    tf = _torsionfree()
    units = [e0.unit_section(i) for i in range(4)]
    triples = list(combinations(range(4), 3))
    for conn_label, conn in [("torsion-free", tf)]:
        for i, j, k in triples:
            if not conn.bianchi_defect(units[i], units[j], units[k]).is_zero():
                return False, f"{conn_label} connection fails on triple ({i},{j},{k})"
    sampler = Sampler(ctx.seed)
    for trial in range(20):
        conn = sampler.connection(e0, max_degree=1)
        for i, j, k in triples:
            if not conn.bianchi_defect(units[i], units[j], units[k]).is_zero():
                return False, f"random connection {trial} fails on triple ({i},{j},{k})"
    return True, "defect identically zero: torsion-free and 20 seeded random connections, 4 triples each"


def c09_derived_is_lie(ctx: Context):
    d = _derived()
    if not d.derived.check_axioms().ok:
        return False, "derived bundle fails the anchor axioms"
    lie = d.derived.check_lie()
    if not lie.is_lie:
        return False, f"derived bundle Jacobi sweep fails: {lie.describe()}"
    return True, "rank-10 derived bundle passes axioms and all 120 generator triples"


def c10_derived_connection_identities(ctx: Context):
    rep = verify_prhelp(_derived())
    if not rep.ok:
        bad = [item.label for item in rep.items if not item.ok]
        return False, "failing identities: " + "; ".join(bad)
    counts = ", ".join(f"#{item.number}: {item.checked}" for item in rep.items)
    return True, f"all five curvature/derivation identities hold (tuples checked {counts})"


def c11_obstruction_certificate(ctx: Context):
    e0 = _e0()
    kern = list(_kernel().values())
    for bound in (2, 3):
        cert = lie_infeasibility_certificate(e0, (0, 1, 2), kern, max_degree=bound)
        if cert.status != "infeasible":
            return False, f"certificate at degree {bound}: {cert.status}"
    sampler = Sampler(ctx.seed)
    for trial in range(50):
        modifier = sampler.kernel_modifier(e0, kern, max_degree=3)
        modifier.validate(e0)
        modified = e0.modify_bracket(modifier, name=f"modified-{trial}")
        if modified.check_lie().is_lie:
            return False, f"random kernel modifier {trial} produced a Jacobi-flat bracket"
    return True, (
        "no kernel-valued change restores Jacobi at degree bounds 2 and 3 "
        "(defect degree 2 < modifier degree 3); 50 seeded modifiers all leave it nonzero"
    )


def c12_courant_instance(ctx: Context):
    e0 = _e0()
    space = courant_solution_space(e0, max_degree=4, paired_blocks=2)
    if space.dim == 0:
        return False, "degree-4 paired-block solution space is empty"
    if not space.all_zero_at_point():
        return False, "a paired-block solution is nonzero at the origin"
    constant = courant_solution_space(e0, max_degree=0, paired_blocks=2)
    if constant.dim != 0:
        return False, f"constant paired-block space has dimension {constant.dim}"
    n = 2
    identity = [[Poly.const(n, 1 if i == j else 0) for j in range(4)] for i in range(4)]
    defect = courant_defect(e0, identity)
    quartic = _x(0) ** 4 + _x(1) ** 4
    for i in range(n):
        for j in range(n):
            want = quartic if i == j else Poly.zero(n)
            if defect[i][j] != want:
                return False, "identity cometric defect mismatch"
    full_const = courant_solution_space(e0, max_degree=0)
    return True, (
        f"paired-block space at degree 4 has dimension {space.dim}, all solutions vanish at the "
        "origin; constant paired-block space is zero; identity defect is (x1^4 + x2^4) I2. "
        f"Unrestricted symmetric constant space has dimension {full_const.dim} (a genuinely "
        "different parametrization; the courant command reports both)"
    )


def c13_complex_structure(ctx: Context):
    e0 = _e0()
    j0 = e0_complex_structure()
    if not j0.is_almost_complex():
        return False, "matrix square is not minus the identity"
    units = [e0.unit_section(i) for i in range(4)]
    for i, j in combinations(range(4), 2):
        value = nijenhuis(e0, j0, units[i], units[j])
        if not value.is_zero():
            return False, f"tensor nonzero on pair ({i},{j}): {e0.section_text(value)}"
    return True, "J^2 = -id and the integrability tensor vanishes on all 6 pairs"


def c14_d_squared(ctx: Context):
    e0 = _e0()
    sampler = Sampler(ctx.seed)
    for _ in range(5):
        f = Form.function(e0, sampler.poly(2, max_degree=3))
        if not d_squared(f).is_zero():
            return False, "d^2 of a function is nonzero"
    units = [e0.unit_section(i) for i in range(4)]
    triples = list(combinations(range(4), 3))
    for trial in range(20):
        omega = sampler.form(e0, 1, max_degree=2)
        dd = d_squared(omega)
        for i, j, k in triples:
            # pairing convention: the cyclic sum starts with the bracket,
            # i.e., sum of [[a,b],c] over rotations = minus the Jacobiator
            jac = e0.jacobiator(units[i], units[j], units[k])
            want = omega.eval_sections(-jac)
            got = dd.eval_sections(units[i], units[j], units[k])
            if got != want:
                return False, f"pairing fails on 1-form {trial}, triple ({i},{j},{k})"
    for degree in (3, 4):
        for _ in range(5):
            omega = sampler.form(e0, degree, max_degree=2)
            if not d_squared(omega).is_zero():
                return False, f"d^2 of a degree-{degree} form is nonzero"
    monomial_ok = 0
    for trial in range(20):
        omega = sampler.form(e0, 1, max_degree=2)
        for _, coeff in d_squared(omega).sorted_comps():
            for exps in coeff.terms:
                if exps[0] < 2 and exps[1] < 2:
                    return False, "a d^2 coefficient escapes <x1^2, x2^2>"
                monomial_ok += 1
    return True, (
        "d^2 kills functions and all degrees > 2; on 20 random 1-forms d^2(w) equals w paired "
        "with the bracket-first cyclic sum (= minus the Jacobiator; convention recorded); "
        f"all {monomial_ok} d^2 coefficient monomials lie in <x1^2, x2^2>"
    )


def c15_cartan_suite(ctx: Context):
    e0 = _e0()
    tf = _torsionfree()
    fl = flat_connection(e0)
    sampler = Sampler(ctx.seed)
    conns = [("torsion-free", tf), ("flat", fl)]
    conns += [(f"random-{i}", sampler.connection(e0, max_degree=1)) for i in range(20)]
    for label, conn in conns:
        if not cartan_residual(conn).is_zero():
            return False, f"structure equation fails for {label}"
        if not dR_identity_residual(conn).is_zero():
            return False, f"differentiated structure equation fails for {label}"
    tr1 = char_form(tf, 1)
    decision = strong_closed(tr1, max_degree=ctx.max_degree)
    if not decision.is_yes or decision.witness is None:
        return False, "first trace form is not certified strong closed"
    if d_squared(decision.witness) != differential(tr1):
        return False, "strong-closedness witness does not check out"
    theta_trace = connection_forms(tf).trace()
    if d_squared(theta_trace) != differential(tr1):
        return False, "the connection-form trace is not a witness"
    tr2 = char_form(tf, 2)
    if not weak_closed(tr2, _ideal(), max_degree=ctx.max_degree).is_yes:
        return False, "second trace form is not weak closed"
    for k in (1, 2, 3):
        if not char_form(fl, k).is_zero():
            return False, f"flat connection has a nonzero order-{k} trace form"
    return True, (
        "both structure equations exact for the two fixed and 20 seeded random connections; "
        "Tr R strong closed with a checked witness (the connection-form trace works too); "
        "Tr R^2 weak closed; flat trace forms vanish for k = 1..3"
    )


def c16_homotopy_suite(ctx: Context):
    e0 = _e0()
    p = product_algebroid(e0)
    sampler = Sampler(ctx.seed)
    for degree in (1, 2, 3, 4):
        for trial in range(20):
            omega = sampler.form(p.extended, degree, max_degree=2)
            rep = homotopy_identity_report(p, omega)
            if not rep.prism_residual.is_zero():
                return False, f"prism identity fails on a degree-{degree} form (trial {trial})"
    for trial in range(20):
        omega = sampler.form(p.extended, 1, max_degree=2)
        if not homotopy_identity_report(p, omega).square_residual.is_zero():
            return False, f"H/d^2 exchange fails on 1-form {trial}"
    ideal = _ideal()
    ext_ideal = Lambda2Ideal(p.extended)
    checked = 0
    for _, gen in ext_ideal.nonzero_gens():
        if not ideal.membership(p.homotopy(gen), ctx.max_degree).is_member:
            return False, "H of an ideal generator escapes the ideal"
        checked += 1
        for _ in range(3):
            mu = sampler.form(p.extended, 1, max_degree=2)
            if not ideal.membership(p.homotopy(mu.wedge(gen)), ctx.max_degree).is_member:
                return False, "H of an ideal multiple escapes the ideal"
            checked += 1
    return True, (
        "interval-endpoints identity holds on 20 random forms in each degree 1..4; H commutes "
        f"with d^2 on 20 random 1-forms; {checked} ideal images all stay in the ideal"
    )


def c17_transgression(ctx: Context):
    e0 = _e0()
    tf = _torsionfree()
    fl = flat_connection(e0)
    sampler = Sampler(ctx.seed)
    pairs = [("flat/torsion-free", fl, tf)]
    for i in range(5):
        pairs.append(
            (f"random-{i}", sampler.connection(e0, max_degree=1), sampler.connection(e0, max_degree=1))
        )
    for label, first, second in pairs:
        for k in (1, 2):
            rep = transgression_check(first, second, k, ideal=_ideal(), max_degree=ctx.max_degree)
            if not rep.ok:
                return False, f"pair {label}, order {k}: {rep.describe()}"
    return True, (
        "trace-form differences split as d(witness) + ideal part with endpoint restrictions "
        "matching, for the fixed pair and 5 seeded random pairs, orders 1 and 2"
    )


def c18_pullback_consistency(ctx: Context):
    e0 = _e0()
    n = 2
    zero_mat = [[Poly.zero(n) for _ in range(n)] for _ in range(n)]
    flat_ch = [zero_mat, [[Poly.zero(n) for _ in range(n)] for _ in range(n)]]
    rep = pullback_consistency(e0, flat_ch, 1, ideal=_ideal(), max_degree=ctx.max_degree)
    if not (rep.ok and rep.algebroid_side.is_zero() and rep.base_side.is_zero()):
        return False, "flat base connection: sides are not both zero"
    x1 = _x(0)
    z = Poly.zero(n)
    curved = [[[z, z], [z, z]], [[x1 * x1, z], [z, z]]]
    rep2 = pullback_consistency(e0, curved, 1, ideal=_ideal(), max_degree=ctx.max_degree)
    if rep2.base_side.is_zero():
        return False, "curved base connection degenerated to zero trace"
    if not rep2.ok:
        return False, f"curved base: residual {rep2.residual_normal_form.to_text()}"
    return True, (
        "flat base gives zero on both sides; curved base trace form agrees with the anchored "
        "pullback modulo the ideal (here on the nose)"
    )


# corpus expectations: file -> (kind, exit code of `check FILE`)
CORPUS_EXPECT = {
    "E0.alg": ("valid", 0),
    "E0_itemized.alg": ("valid", 1),
    "E0prime.alg": ("valid", 0),
    "E0prime_lie.alg": ("valid", 0),
    "E0doubleprime.alg": ("valid", 0),
    "E00.alg": ("valid", 0),
    "tangent2.alg": ("valid", 0),
    "derived_e0.alg": ("valid", 0),
    "plane_forms.alg": ("valid", 0),
    "bad_syntax.alg": ("invalid", 2),
    "bad_diagonal.alg": ("invalid", 2),
    "bad_anchor_dim.alg": ("invalid", 2),
}


def _run_cli(args: list[str]) -> int:
    from . import cli

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(args)


def c19_dsl_contract(ctx: Context):
    from importlib import resources

    from . import dsl

    corpus = resources.files("algforge") / "corpus"
    seen = 0
    for name, (kind, want_exit) in sorted(CORPUS_EXPECT.items()):
        res = corpus / name
        if not res.is_file():
            return False, f"corpus file {name} is missing"
        text = res.read_text()
        if kind == "valid":
            doc = dsl.parse(text)
            if dsl.parse(dsl.serialize(doc)) != doc:
                return False, f"{name}: round-trip is not the identity"
        else:
            try:
                dsl.parse(text)
                return False, f"{name}: expected a parse error"
            except dsl.DslError:
                pass
        code = _run_cli(["check", str(res)])
        if code != want_exit:
            return False, f"check {name}: exit {code}, expected {want_exit}"
        seen += 1
    if _run_cli(["lie", "E0"]) != 1:
        return False, "lie on the builtin does not exit 1"
    if _run_cli(["definitely-not-a-command"]) != 2:
        return False, "unknown command does not exit 2"
    return True, (
        f"{seen} corpus documents: valid ones round-trip exactly and check with the expected "
        "exit codes; invalid ones raise positioned errors and exit 2; unknown commands exit 2"
    )


CRITERIA: list[tuple[str, object]] = [
    ("01-anchor-axioms-and-defect", c01_axioms),
    ("02-jacobiator-table", c02_jacobiator_table),
    ("03-kernel-bracket-table", c03_kernel_brackets),
    ("04-induced-subbundles-lie", c04_induced_subbundles),
    ("05-rank4-family-and-morphism", c05_rank4_family_morphism),
    ("06-diagonal-subbundle", c06_diagonal_subbundle),
    ("07-torsionfree-connection", c07_torsionfree_connection),
    ("08-bianchi-identity", c08_bianchi),
    ("09-derived-bundle-lie", c09_derived_is_lie),
    ("10-derived-connection-identities", c10_derived_connection_identities),
    ("11-obstruction-certificate", c11_obstruction_certificate),
    ("12-courant-solution-space", c12_courant_instance),
    ("13-complex-structure", c13_complex_structure),
    ("14-differential-squared", c14_d_squared),
    ("15-cartan-suite", c15_cartan_suite),
    ("16-homotopy-suite", c16_homotopy_suite),
    ("17-transgression-witnesses", c17_transgression),
    ("18-pullback-consistency", c18_pullback_consistency),
    ("19-dsl-and-exit-codes", c19_dsl_contract),
]


def run_all(ctx: Context | None = None):
    """Yield (name, ok, note) for every criterion."""
    ctx = ctx or Context()
    for name, fn in CRITERIA:
        ok, note = fn(ctx)
        yield name, ok, note


def build_report(seed: int = 0, max_degree: int = 4):
    """Run the whole suite into a Report (used by the verify-paper command)."""
    from .reports import Report, input_digest

    ctx = Context(seed=seed, max_degree=max_degree)
    digest = input_digest(",".join(name for name, _ in CRITERIA))
    report = Report("verify-paper", digest, seed)
    for name, ok, note in run_all(ctx):
        report.add(name, ok, note=note)
    return report
