"""Benchmark for algforge: whole CLI commands, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's command
lines; the program receives only those.  One caller runs them one after the
other (a closed loop with a single client), each command in its own
interpreter, as a user of the CLI would; a fresh process also keeps
in-process caches from carrying work from one command to the next.  One
iteration runs every command of the workload once; iterations repeat while
another one fits in S seconds.  Successive interpreters are pinned to the
usable CPUs in turn, so that every run spreads over all of them.  Every
report is compared with the pinned expectation in ``expected.json``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json (see ``end_to_end``).  With
``--trace 1`` traced iterations (see tracing.py) alternate with untraced
ones and the object carries the per-layer metrics.  A summary goes to
standard error and the full record, spans included, to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  See README.md for what
each metric means and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # every run must end well within 180 s
SETUP_SAMPLES = 8  # import-only interpreters per run, besides the commands' own

# The host's CPUs slow down independently of each other, in phases of minutes;
# left alone, the kernel starts every child on the same one.
CPUS = itertools.cycle(sorted(os.sched_getaffinity(0)))

TRIPLES = ("1,2,3", "2,3,4")  # the E0 triples with a nonzero Jacobiator
OBSTRUCTION_DEGREES = (3, 5, 7)
COURANT_DEGREES = (4, 7, 10)


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def workload_commands(name: str, seed: int) -> list[tuple[str, list[str]]]:
    """(expectation key, argv) for each command of one iteration."""
    rng = random.Random(f"{name}:{seed}")
    s = str(rng.randrange(1_000_000))
    if name == "paper-suite":
        return [("verify-paper", ["verify-paper", "--seed", s, "--json"])]
    if name == "sweeps":
        triple = rng.choice(TRIPLES)
        return [
            (f"obstruction {triple} {d}",
             ["obstruction", "E0", "--triple", triple, "--max-degree", str(d), "--seed", s, "--json"])
            for d in OBSTRUCTION_DEGREES
        ] + [
            (f"courant {d}", ["courant", "E0", "--max-degree", str(d), "--seed", s, "--json"])
            for d in COURANT_DEGREES
        ]
    raise HarnessError(f"unknown workload {name!r}")


WORKLOADS = ("paper-suite", "sweeps")

# per-layer metrics that must be nonzero on a workload, or the trace missed a layer
REQUIRED_HITS = {
    "paper-suite": (
        "poly.mul.calls", "poly.add.calls", "algebroid.bracket.calls", "algebroid.jacobiator.calls",
        "algebroid.anchor_of.calls", "connection.covariant_derivative.calls", "connection.curvature.calls",
        "forms.differential.calls", "forms.wedge.calls", "forms.membership.calls",
        "charclass.curvature_matrix.calls", "linsolve.calls", "dsl.parse.calls",
        *(f"verify.c{i:02d}_s" for i in range(1, 20)),
    ),
    "sweeps": (
        "poly.mul.calls", "poly.add.calls", "algebroid.bracket.calls", "linsolve.calls", "dsl.parse.calls",
        *(f"cli.obstruction_d{d}_s" for d in OBSTRUCTION_DEGREES), *(f"cli.courant_d{d}_s" for d in COURANT_DEGREES),
    ),
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def mismatch(expect: dict, result: dict, seed_arg: str) -> str | None:
    """None when the command's exit code and report match the pinned ones."""
    if result["exit"] != expect["exit"]:
        return f"exit {result['exit']}, expected {expect['exit']}"
    try:
        report = json.loads(result["report"])
    except ValueError:
        return "report is not JSON"
    for field in ("command", "input_digest", "ok"):
        if report.get(field) != expect[field]:
            return f"{field} {report.get(field)!r}, expected {expect[field]!r}"
    if str(report.get("seed")) != seed_arg:
        return f"seed {report.get('seed')!r}, expected {seed_arg}"
    got = report.get("checks", [])
    if len(got) != len(expect["checks"]):
        return f"{len(got)} checks, expected {len(expect['checks'])}"
    for have, want in zip(got, expect["checks"]):
        for field in ("name", "status", "witness"):
            if have.get(field) != want.get(field):
                return f"check {want['name']}: {field} {have.get(field)!r}, expected {want.get(field)!r}"
        if "note_re" in want:
            if not re.fullmatch(want["note_re"], have.get("note") or ""):
                return f"check {want['name']}: note {have.get('note')!r} does not match"
        elif have.get("note") != want.get("note"):
            return f"check {want['name']}: note {have.get('note')!r}, expected {want.get('note')!r}"
    return None


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALGFORGE_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(mode: str, argv: list[str], env: dict, deadline: float) -> dict:
    """Run child.py once, on the next CPU in turn; set-up time is measured from just before the spawn."""
    timeout = max(1.0, deadline - time.monotonic())
    cpu = next(CPUS)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: " + proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["package"]).resolve().parent.parent != SRC.resolve():
        raise HarnessError(f"imported algforge from {result['package']}, not from {SRC}")
    result["setup_s"] = result.pop("imported") - spawn
    result["cpu"] = cpu
    return result


def setup_sample(env: dict, deadline: float) -> float:
    result = run_child("setup", [], env, deadline)
    if "error" in result:
        raise HarnessError("cannot import algforge: " + result["error"])
    return result["setup_s"]


def run_iteration(commands, traced: bool, env, expected, deadline) -> dict:
    results = []
    for key, argv in commands:
        result = run_child("1" if traced else "0", argv, env, deadline)
        result["key"] = key
        if "error" not in result:
            result["mismatch"] = mismatch(expected[key], result, argv[argv.index("--seed") + 1])
        results.append(result)
        if "error" in result and time.monotonic() >= deadline:
            break
    ok = [r for r in results if "error" not in r]
    return {
        "traced": traced,
        "commands": results,
        "failed": sum(1 for r in results if "error" in r or r["mismatch"]),
        "wall_s": sum(r["wall_s"] for r in ok),
        "setup_s": sum(r["setup_s"] for r in ok),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
    }


def reference_loop() -> float:
    """A fixed pure-Python loop, timed as a diagnostic of host speed only."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(300_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    commands = workload_commands(workload, seed)
    expected = load_expected()
    env = child_env(seed)
    reference = [reference_loop()]
    clock = time.monotonic()
    setups = [setup_sample(env, deadline) for _ in range(SETUP_SAMPLES + 1)][1:]  # the first compiles bytecode
    iterations = []
    kinds = [False, True] if trace else [False]
    longest: dict[bool, float] = {}  # duration of the longest iteration of each kind so far

    def fits(traced: bool) -> bool:
        return traced not in longest or time.monotonic() - clock + longest[traced] <= seconds

    while time.monotonic() < deadline:
        due = [traced for traced in kinds if fits(traced)]
        if not due:
            break
        for traced in due:
            t = time.monotonic()
            iterations.append(run_iteration(commands, traced, env, expected, deadline))
            longest[traced] = max(longest.get(traced, 0.0), time.monotonic() - t)
    reference.append(reference_loop())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commands": [argv for _, argv in commands],
        "reference_loop_s": reference,
        "setup_samples_s": setups,
        "elapsed_s": time.monotonic() - started,
        "iterations": iterations,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def run_wall(iterations: list[dict]) -> float:
    """Wall time per iteration, averaged over the whole run.

    The host's speed drifts in phases of tens of seconds; the mean weighs every
    second of the run alike, where the median of a handful of iterations rests
    on one or two of them.
    """
    return statistics.fmean(it["wall_s"] for it in iterations)


def end_to_end(record: dict) -> dict:
    """Untraced iterations: mean wall time, median peak RSS; set-up is the median over every spawn, per command."""
    untraced = [it for it in record["iterations"] if not it["traced"]]
    setups = record["setup_samples_s"] + [
        r["setup_s"] for it in untraced for r in it["commands"] if "error" not in r
    ]
    return {
        "wall_s": run_wall(untraced),
        "setup_s": len(record["commands"]) * statistics.median(setups),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(it: dict) -> dict:
    """Per-layer metrics of one traced iteration, summed over its commands."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    stats: dict[str, int] = {}
    for r in it["commands"]:
        t = r["trace"]
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["layer_self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["stats"].items():
            stats[k] = max(stats.get(k, 0), v) if k.endswith("max_cols") else stats.get(k, 0) + v
    c = calls.get
    bracket = c("algebroid.Algebroid.bracket", 0)
    curvature = c("connection.EConnection.curvature", 0)
    values = {
        "poly.mul.calls": c("poly.Poly.__mul__", 0),
        "poly.add.calls": c("poly.Poly.__add__", 0) + c("poly.Poly.__sub__", 0) + c("poly.Poly.__rsub__", 0),
        "poly.mul.term_products": stats["mul_term_products"],
        "algebroid.bracket.calls": bracket,
        "algebroid.bracket.unit_share": _share(stats["bracket_unit"], bracket),
        "algebroid.jacobiator.calls": c("algebroid.Algebroid.jacobiator", 0),
        "algebroid.anchor_of.calls": c("algebroid.Algebroid.anchor_of", 0),
        "connection.covariant_derivative.calls": c("connection.EConnection.covariant_derivative", 0),
        "connection.curvature.calls": curvature,
        "connection.curvature.unit_share": _share(stats["curvature_unit"], curvature),
        "connection.curvature.repeat_share": _share(curvature - stats["curvature_distinct"], curvature),
        "forms.differential.calls": c("forms.differential", 0),
        "forms.wedge.calls": c("forms.Form.wedge", 0),
        "forms.membership.calls": c("forms.Lambda2Ideal.membership", 0),
        "charclass.curvature_matrix.calls": c("charclass.curvature_matrix", 0),
        "linsolve.calls": stats["linsolve_calls"],
        "linsolve.cells": stats["linsolve_cells"],
        "linsolve.nonzero_share": _share(stats["linsolve_nonzero"], stats["linsolve_cells"]),
        "linsolve.max_cols": stats["linsolve_max_cols"],
        "dsl.parse.calls": c("dsl.parse", 0),
    }
    for layer, v in self_s.items():
        values[f"{layer}.self_s"] = v
    return values


def per_layer(record: dict) -> dict:
    traced = [it for it in record["iterations"] if it["traced"] and not it["failed"]]
    untraced = [it for it in record["iterations"] if not it["traced"]]
    if not traced:
        raise HarnessError("no traced iteration completed")
    runs = [layer_values(it) for it in traced]
    values = {}
    for name in runs[0]:
        if name.endswith("_s"):
            values[name] = statistics.median(r[name] for r in runs)
        else:
            values[name] = runs[0][name]
            if any(r[name] != values[name] for r in runs):
                record.setdefault("warnings", []).append(f"{name} differs between traced iterations")
    # criteria and sweep points come from the untraced iterations, so they add up to wall_s
    ok = [r for it in untraced for r in it["commands"] if "error" not in r]
    for i in range(1, 20):
        times = [t for r in ok for name, t in r["criteria_s"].items() if name.startswith(f"{i:02d}-")]
        values[f"verify.c{i:02d}_s"] = statistics.median(times) if times else 0.0
    for command, degrees in (("obstruction", OBSTRUCTION_DEGREES), ("courant", COURANT_DEGREES)):
        for d in degrees:
            times = [r["wall_s"] for r in ok if r["key"].startswith(command) and r["key"].endswith(f" {d}")]
            values[f"cli.{command}_d{d}_s"] = statistics.median(times) if times else 0.0
    values["trace.overhead_s"] = (
        run_wall(traced) - run_wall(untraced)
    )
    missing = [m for m in REQUIRED_HITS[record["workload"]] if not values.get(m)]
    if missing:
        raise HarnessError("the trace saw no calls for " + ", ".join(missing))
    return values


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(record: dict) -> dict:
    its = record["iterations"]
    attempted = sum(len(it["commands"]) for it in its)
    failed = sum(it["failed"] for it in its)
    values = per_layer(record) if record["trace"] else end_to_end(record)
    declared = declared_metrics(record["trace"])
    names = {m["name"] for m in declared}
    if names != set(values):
        raise HarnessError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def summarize(record: dict, result: dict) -> str:
    untraced = [it for it in record["iterations"] if not it["traced"]]
    lines = [
        f"{record['workload']} seed {record['seed']}: {len(record['iterations'])} iterations "
        f"({len(untraced)} untraced), {result['attempted']} commands, {result['failed']} failed, "
        f"fail_ratio {result['failed'] / result['attempted']:.3f}",
        "reference loop (diagnostic only): " + ", ".join(f"{v:.4f} s" for v in record["reference_loop_s"]),
    ]
    samples = {
        "wall_s": [it["wall_s"] for it in untraced],
        "setup_s per spawn": record["setup_samples_s"] + [r["setup_s"] for it in untraced for r in it["commands"]],
        "peak_rss_mb": [it["peak_rss_mb"] for it in untraced],
    }
    for name, xs in samples.items():
        lines.append(
            f"  {name:17s} mean {statistics.fmean(xs):.4f}  median {statistics.median(xs):.4f}"
            f"  min {min(xs):.4f}  max {max(xs):.4f}  (n={len(xs)})"
        )
    for it in record["iterations"]:
        for r in it["commands"]:
            if "error" in r or r.get("mismatch"):
                lines.append(f"  FAILED {r['key']}: {r.get('error') or r['mismatch']}")
    if record["trace"]:
        m = result["metrics"]
        layers = [n for n in m if n.endswith(".self_s")]
        total = sum(m[n]["value"] for n in layers)
        lines.append("  self time: " + ", ".join(
            f"{n.split('.')[0]} {m[n]['value']:.3f} s ({_share(m[n]['value'], total):.0%})" for n in layers
        ))
        lines.append(f"  trace.overhead_s {m['trace.overhead_s']['value']:.3f}")
    lines.extend(f"  warning: {w}" for w in record.get("warnings", ()))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "algforge" / "cli.py").is_file():
        print(f"error: no algforge sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = result_line(record)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, result=result), indent=1)
    )
    print(summarize(record, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
