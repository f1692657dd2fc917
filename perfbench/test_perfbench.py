"""Tests of the benchmark harness itself (not part of the package's suite):

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# `maxsurf run` on this config raises FlowError from run_scenario, because
# t_end == t0 leaves no step to take.
RAISING_CONFIG = "configs/ac8_pseudosphere_leaves.cfg"


def test_exception_in_a_workload_is_a_failed_run():
    session = run.Session(ROOT)
    try:
        record = run.measure(session, f"config:{RAISING_CONFIG}", seed=0, seconds=0, trace=0)
    finally:
        session.close()
    assert not os.path.exists(session.scratch)
    [job] = record["jobs"]
    assert job["result"] is None
    assert "FlowError" in job["failure"]
    assert record["failed_frac"] == 1.0
    result = record["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity_probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
