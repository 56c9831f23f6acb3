"""Run the benchmark over many seeds, round-robin across workloads, and report spreads.

    python3 perfbench/spread.py --seeds 0-9 [--trace 0|1]
    python3 perfbench/spread.py --compare BEFORE.json AFTER.json

Every workload of BENCHMARK.json runs at its ``run_seconds``.  Each seed runs
every workload once before the next seed starts, so that drift of the host
spreads over all workloads instead of landing on one.  For
every metric and workload the summary gives the median over seeds, the
quartiles as ``statistics.quantiles(values, n=4)`` computes them, and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  The per-seed values (``poly.mul.calls`` per seed, in a
traced set) and each run's reference-loop timings (a host-speed diagnostic,
never used to rescale) are kept in the output file,
``.perfbench_out/spread-seeds<SEEDS>-trace<T>.json``.

``--compare`` reads two such files and reports, per workload and metric, how
far the second median lies from the first, as a share of the first, and
whether it is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode} on {workload} seed {seed}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["reference_loop_s"] = record["reference_loop_s"]
    return result


def summarize(runs: dict[str, list[dict]], spec: dict, trace: int) -> dict:
    table: dict = {}
    for workload, results in runs.items():
        table[workload] = {}
        for metric in spec["end_to_end" if trace == 0 else "per_layer"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            table[workload][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric.get("bound"),
                "values": values,
            }
    return table


def compare(before: dict, after: dict) -> int:
    for workload, metrics in after["summary"].items():
        for name, row in metrics.items():
            base = before["summary"].get(workload, {}).get(name)
            if not base or not base["median"]:
                continue
            change = (row["median"] - base["median"]) / base["median"]
            worse = change if row["better"] == "lower" else -change
            bound = row["bound"]
            flag = "" if bound is None else ("  within bound" if worse <= bound else "  WORSE than bound")
            print(f"{workload:18s} {name:22s} {base['median']:.4f} -> {row['median']:.4f}  {change:+.1%}{flag}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(before, after)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, seconds, args.trace))
    summary = summarize(runs, spec, args.trace)
    for workload, metrics in summary.items():
        failed = sum(r["failed"] for r in runs[workload])
        print(f"{workload}: {len(seeds)} runs, {failed} failed commands")
        for name, row in metrics.items():
            if args.trace == 0 or name.endswith("_s") or name == "poly.mul.calls":
                bound = "" if row["bound"] is None else f"  bound {row['bound']}"
                print(f"  {name:34s} median {row['median']:.4f} {row['unit']}  q1 {row['q1']:.4f}"
                      f"  q3 {row['q3']:.4f}  spread {row['spread']:.3f}{bound}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"spread-seeds{args.seeds.replace(',', '_')}-trace{args.trace}.json"
    out.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "trace": args.trace, "runs": runs,
                               "summary": summary}, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
