"""Run one hexaflow operation in a fresh interpreter, as a user would.

    python3 perfbench/launch.py --src SRC --result FILE [--trace-op ID] -- ARGS...
    python3 perfbench/launch.py --src SRC --result FILE --setup CONFIG

With ARGS, runs the `hexaflow` command line (`hexaflow.cli.main(ARGS)`);
with --trace-op, first wraps each layer's entry points (see spans.py).  With
--setup, only does what every command does before its first step: import
hexaflow, parse the configuration and build the initial curve.  Either way
it writes a JSON result: the exit code, the peak resident memory and, for a
traced run, the span names; the spans themselves go to FILE.spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="directory holding the hexaflow package")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--trace-op", type=int, default=None, help="trace with this operation id")
    parser.add_argument("--setup", default=None, help="set-up only, for this YAML config")
    parser.add_argument("argv", nargs="*", help="hexaflow command line")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    trace = None
    if args.setup is not None:
        import hexaflow

        _, spec, _ = hexaflow.parse_config(Path(args.setup).read_text(encoding="utf-8"))
        hexaflow.generate_initial(spec)
        code = 0
    else:
        tracer = None
        if args.trace_op is not None:
            from spans import ROOT, Tracer

            tracer = Tracer(args.trace_op)
            start = time.perf_counter_ns()
        import hexaflow.cli

        run = hexaflow.cli.main
        if tracer is not None:
            tracer.record("startup.import", start, time.perf_counter_ns())
            tracer.install(sys.modules)
            run = tracer.wrap(run, ROOT)
        code = run(args.argv)
        if tracer is not None:
            trace = tracer.dump(args.result + ".spans")

    result = {
        "exit": code,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
