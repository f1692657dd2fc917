"""maxsurf benchmark: time to solution, memory and accuracy, with a traced per-module split.

    python3 perfbench/run.py --workload translator_1d --seed 1 --seconds 20 --trace 0

Run from the repository root. Every job runs in a fresh child interpreter
(perfbench/child.py) pinned to one thread, one after another. With
``--trace 0`` the run reports the end-to-end metrics:

    wall_s        median time of the workload's job, first library call to last output file
    setup_s       median time of import maxsurf + parse_config + build_scenario
                  in fresh interpreters (one warm-up discarded)
    peak_rss_mb   median peak resident set of the job's child process
    accuracy_err  median distance of the job's result from its reference

Jobs repeat until the next one would overrun ``--seconds`` (at least one).
With ``--trace 1`` the run makes one untraced and one traced job and reports
the per-layer metrics of tracing.py plus the tracing overhead. failed_frac
(failed / attempted) is printed, and carried by the result's ``attempted``
and ``failed``: a job fails on an exception, a non-zero exit code or a failed
output check. The last stdout line is the JSON result; the full record of the
run (metadata, every sample, the spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_err": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (no program to set up)."""


class Session:
    """Spawns child jobs from one repository root into a scratch output tree."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "maxsurf", "__init__.py")):
            raise HarnessError(f"no src/maxsurf package under {root}; run from the repository root")
        self.out = os.path.join(root, OUT_DIR)
        os.makedirs(self.out, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="scratch-", dir=self.out)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def child(self, mode, workload, seed, trace_path=None):
        """Run one child; returns (result or None, failure reason or None, seconds)."""
        maxsurf_out = tempfile.mkdtemp(prefix="out-", dir=self.scratch)
        env = dict(os.environ, PYTHONPATH=self.src, MAXSURF_OUT=maxsurf_out, **THREAD_ENV)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               "--workload", workload, "--seed", str(seed)]
        if trace_path:
            cmd += ["--trace", trace_path]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s", time.perf_counter() - t0
        finally:
            shutil.rmtree(maxsurf_out, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if proc.returncode != 0:
            err = (result or {}).get("error") or (proc.stderr.strip().splitlines() or ["?"])[-1]
            return None, f"exit code {proc.returncode}: {err}", elapsed
        if not isinstance(result, dict):
            return None, "no JSON result on the last stdout line", elapsed
        failed = [f"{k}: {c['detail']}" for k, c in result.get("checks", {}).items() if not c["ok"]]
        return result, ("output check failed: " + "; ".join(failed)) if failed else None, elapsed


def _median(values):
    return statistics.median(values) if values else 0.0


def job(session, workload, seed, trace_path=None):
    result, failure, elapsed = session.child("job", workload, seed, trace_path)
    return {"result": result, "failure": failure, "elapsed_s": elapsed,
            "traced": trace_path is not None}


def run_jobs(session, workload, seed, seconds):
    """Jobs one after another until the next would overrun ``seconds``."""
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(job(session, workload, seed))
        if time.perf_counter() - start + jobs[-1]["elapsed_s"] > seconds:
            return jobs


def setup_samples(session, workload, seed):
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        result, reason, _ = session.child("setup", workload, seed)
        if reason is not None:
            raise HarnessError(f"set-up failed: {reason}")
        if k > 0:       # the first fills the file cache and the bytecode cache
            samples.append(result["setup_s"])
    return samples


def measure(session, workload, seed, seconds, trace):
    """One benchmark run; returns the full record, including the printed result."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace)}
    if trace:
        spans_path = os.path.join(session.out, f"{workload}-seed{seed}-spans.json")
        jobs = [job(session, workload, seed), job(session, workload, seed, spans_path)]
        record["spans_file"] = os.path.relpath(spans_path, session.root)
    else:
        record["setup_s_samples"] = setup_samples(session, workload, seed)
        jobs = run_jobs(session, workload, seed, seconds)
    record["jobs"] = jobs
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["failure"] is not None)
    done = [j["result"] for j in jobs if j["result"] is not None]
    if trace:
        untraced, traced = jobs[0]["result"], jobs[1]["result"]
        metrics = {}
        if traced is not None:
            metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                       for k, v in traced["layers"].items()}
            record["absent"] = traced["absent"]
            record["self_s"] = traced["self_s"]
        if traced is not None and untraced is not None:
            metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"],
                                           "unit": "s"}
    else:
        values = {
            "wall_s": _median([r["wall_s"] for r in done]),
            "setup_s": _median(record["setup_s_samples"]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
            "accuracy_err": _median([r["accuracy_err"] for r in done]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["failed_frac"] = failed / attempted
    record["result"] = {"correct": failed == 0 and len(done) == attempted,
                        "attempted": attempted, "failed": failed, "metrics": metrics}
    return record


def metadata(session, seed, jobs):
    env = next((j["result"] for j in jobs if j["result"] is not None), {})
    return {
        "engine": env.get("engine"), "engine_reason": env.get("engine_reason"),
        "disk2d_engine": env.get("disk2d_engine"),
        "python": sys.version.split()[0],
        "numpy": env.get("numpy"), "scipy": env.get("scipy"),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(session.root), "seed": seed,
        "threads": dict(THREAD_ENV, note="set in the child environment only"),
    }


def _git_sha(root):
    if shutil.which("git") is None:
        return "unknown (git not installed)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown (git timed out)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown (not a git checkout)"
    return lines[1]


def report(record):
    res = record["result"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for j in record["jobs"]:
        r = j["result"] or {}
        tag = "traced job" if j["traced"] else "job"
        status = "ok" if j["failure"] is None else "FAILED " + j["failure"]
        print(f"  {tag}: {status}; wall {r.get('wall_s', float('nan')):.3f} s, "
              f"info {json.dumps(r.get('info', {}))}")
        for name, c in r.get("checks", {}).items():
            print(f"    check {name}: {'pass' if c['ok'] else 'FAIL'} ({c['detail']})")
    for name, m in res["metrics"].items():
        note = f"  [absent: {record['absent'][name]}]" if name in record.get("absent", {}) else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} 1 "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    if "self_s" in record:
        print("  self time per layer (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(record["self_s"].items())))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        session = Session(os.getcwd())
        try:
            record = measure(session, args.workload, args.seed, args.seconds, args.trace)
        finally:
            session.close()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record["meta"] = metadata(session, args.seed, record["jobs"])
    path = os.path.join(session.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
