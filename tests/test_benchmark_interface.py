"""The benchmark's workloads run on the package as it is: each one's set-up,
job and output checks, once, in this process, with every check passing, so
that a change to an API the harness calls fails here first."""

import math
import os
import types

import pytest

import maxsurf

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                            "perfbench", "workloads.py")


def load_workloads() -> types.ModuleType:
    """perfbench/workloads.py as a module, read only: no bytecode cache is
    written beside it."""
    module = types.ModuleType("perfbench_workloads")
    with open(WORKLOADS_PY) as f:
        exec(compile(f.read(), WORKLOADS_PY, "exec"), module.__dict__)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.setenv("MAXSURF_OUT", str(tmp_path))
    _, job, check = WORKLOADS.lookup(name)
    assert WORKLOADS.setup(maxsurf, name, 1)
    accuracy, checks, _ = check(maxsurf, 1, job(maxsurf, 1))
    failed = {key: detail for key, (ok, detail) in checks.items() if not ok}
    assert checks and not failed
    assert math.isfinite(accuracy)
