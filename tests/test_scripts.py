"""Each measurement script under scripts/ answers --help in a fresh
interpreter, as the commands that CHANGES.md cites run it: a smoke test for
import rot (a script that imports a name the package no longer has exits
non-zero here)."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


def test_the_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_script_answers_help(path):
    proc = subprocess.run([sys.executable, path, "--help"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
