"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --root . --specs DIR --names a,b --out DIR \
        --result FILE --t0 MONOTONIC [--trace] [--setup-only]

Imports ``locdep`` from ``<root>/src``, parses every spec (the end of
set-up, timed from ``--t0``, the parent's clock reading just before it
started this process), then runs each spec through ``locdep run`` with
``--threads 1`` and writes a JSON result: set-up, wall and CPU time, exit code
and captured output per spec, peak resident memory, and with ``--trace``
the per-layer summary of the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--specs", required=True)
    ap.add_argument("--names", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import locdep
    from locdep import cli

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, locdep)

    names = args.names.split(",")
    paths = [os.path.join(args.specs, f"{name}.json") for name in names]
    for path in paths:
        with open(path) as fh:
            cli.parse_spec(json.load(fh))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    if not args.setup_only:
        runs = []
        cpu_start = time.process_time()
        t_start = time.perf_counter()
        for name, path in zip(names, paths):
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            rc, tb = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main([
                        "run", "--spec", path, "--threads", "1",
                        "--out", os.path.join(args.out, name),
                    ])
                except SystemExit as e:
                    rc = e.code
                except Exception:
                    tb = traceback.format_exc()
            runs.append({
                "name": name, "rc": rc, "traceback": tb,
                "wall_s": time.perf_counter() - t,
                "stdout": out.getvalue(), "stderr": err.getvalue(),
            })
        t_end = time.perf_counter()
        result["wall_s"] = t_end - t_start
        result["cpu_s"] = time.process_time() - cpu_start
        result["runs"] = runs
        if tracer is not None:
            result["trace"] = tracing.summarize(tracer, (t_start, t_end))
            tracer.save(os.path.join(args.out, "spans.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "locdep": locdep.__version__,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
