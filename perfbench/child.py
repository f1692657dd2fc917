"""One benchmark job in a fresh interpreter; the last stdout line is its JSON result.

    python3 perfbench/child.py setup --workload W --seed N
        import maxsurf, parse every config and build every scenario; report setup_s
    python3 perfbench/child.py job --workload W --seed N [--trace SPANS.json]
        run the workload's job and its output checks; with --trace, wrap the
        library in spans, write them to SPANS.json and report per-layer metrics

Run from the repository root with ``src`` on PYTHONPATH; run.py does that and
pins the child to one thread. An exception inside the job is printed and the
child exits with code 1, which run.py counts as a failed run.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _import_maxsurf():
    import maxsurf

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(maxsurf.__file__).startswith(src + os.sep):
        raise SystemExit(f"maxsurf imported from {maxsurf.__file__}, not from {src}")
    return maxsurf


def environment():
    """Library versions, and which stepping engine ran and why numba did not."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        reason = None
    except ImportError as exc:
        reason = f"numba not importable ({exc})"
    from maxsurf import _kernels

    engine = "numba" if _kernels.available else "numpy"
    if engine == "numba":
        reason = "numba used for curve1d/radial2d euler runs on built-in profiles"
    return {"engine": engine, "engine_reason": reason,
            "disk2d_engine": "numpy (no compiled disk2d path)",
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_setup(args):
    t0 = time.perf_counter()
    ms = _import_maxsurf()
    workloads.setup(ms, args.workload, args.seed)
    return {"setup_s": time.perf_counter() - t0}


def do_job(args):
    ms = _import_maxsurf()
    _configs, job, check = workloads.lookup(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = job(ms, args.seed)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()
    accuracy, checks, info = check(ms, args.seed, raw)
    result = {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "accuracy_err": accuracy,
        "checks": {k: {"ok": bool(ok), "detail": detail} for k, (ok, detail) in checks.items()},
        "info": info,
        **environment(),
    }
    if tracer is not None:
        values, absent = tracer.metrics(os.environ.get("MAXSURF_OUT", "."))
        tracer.write(args.trace)
        result.update(layers=values, absent=absent, self_s=tracer.self_times(),
                      spans=len(tracer.spans))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "job"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)
    try:
        result = do_setup(args) if args.mode == "setup" else do_job(args)
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
