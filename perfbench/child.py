"""Run one algforge command in this fresh interpreter and report on it.

    python3 perfbench/child.py MODE ARG...

MODE 0 runs ``algforge.cli.main(ARG...)``, MODE 1 runs it under the layer
tracer of tracing.py, and MODE ``setup`` only imports the package.  The last
line of standard output is one JSON object: when ``algforge.cli`` finished
importing (on the system-wide monotonic clock, so the caller can subtract
its spawn time), and, unless only set up, the wall time of ``main``, its exit
code, the report it printed, the peak resident set size of this process and
the tracer's summary.  An untraced ``verify-paper`` also reports the wall
time of each entry of ``verify.CRITERIA``, taken with a bare clock wrapper.
"""

import sys
import time


def time_criteria(times: dict) -> None:
    """Rebind each ``verify.CRITERIA`` entry to a wrapper that adds its wall time to ``times``."""
    import algforge.verify as verify

    def timed(name, fn):
        def run(ctx):
            start = time.perf_counter()
            try:
                return fn(ctx)
            finally:
                times[name] = times.get(name, 0.0) + time.perf_counter() - start

        return run

    verify.CRITERIA[:] = [(name, timed(name, fn)) for name, fn in verify.CRITERIA]


def main() -> int:
    mode = sys.argv[1]
    import algforge.cli as cli  # set-up ends here

    imported = time.monotonic()
    import contextlib
    import io
    import json
    import resource

    if mode == "setup":
        import algforge.verify  # noqa: F401  (compiles its bytecode too)

        print(json.dumps({"imported": imported, "package": cli.__file__}))
        return 0
    tracer = None
    if mode == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    criteria: dict[str, float] = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        if tracer is None and sys.argv[2] == "verify-paper":
            time_criteria(criteria)  # imports verify, as main would, inside the timed span
        code = cli.main(sys.argv[2:])
        wall = time.perf_counter() - start
    result = {
        "imported": imported,
        "wall_s": wall,
        "exit": code,
        "report": out.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "package": cli.__file__,
        "criteria_s": criteria,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
