"""What the package imports is what it declares, scipy stays out, and `import maxsurf` stays light."""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "maxsurf")


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                    for req in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for name in os.listdir(PACKAGE):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "maxsurf"}
    assert third_party == declared == {"numpy"}


GUARD = """
import sys
import numpy as np
from maxsurf import flow
from maxsurf.disk import DiskGrid
from maxsurf.geometry import FlowState, GridSpec
from maxsurf.profiles import cylinder

grid = DiskGrid(33)
grid.fill_ghosts(np.where(grid.inside, 1.0 - grid.r ** 2, 0.0))
u = np.where(grid.inside, 0.1 * (1.0 - grid.r ** 2), 0.0)
state = FlowState(GridSpec("disk2d", 33), 0.0, u)
ctrl = flow.StepControl(max_steps=5)
flow.run(state, ctrl, cylinder(1.0), stride=1)
flow._run_python(state, ctrl, cylinder(1.0), stride=1)
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy"))) or "none")
"""


def test_a_disk_run_imports_no_scipy():
    # both engines: run takes the C step loop when it builds, _run_python numpy
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "none"


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # only runner.run_batch starts worker processes, and it imports the pool itself
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import sys, maxsurf; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
