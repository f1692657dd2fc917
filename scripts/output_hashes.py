"""sha256 of every output file of the shipped configs, for byte-identity checks.

    python scripts/output_hashes.py OUT [--numpy] [--check FILE]

Runs `maxsurf run` on each configs/*.cfg and `maxsurf converge --levels 2` on
configs/ac1_converge.cfg with MAXSURF_OUT=OUT.  Without --check it prints a
platform fingerprint (machine, numpy and the SIMD targets its loops run on,
glibc, compiler, whether the C library loaded) as `#` lines, then one
`sha256 path` line per file under OUT: the format of
tests/data/output_hashes.txt, which a change that moves an output regenerates

    python scripts/output_hashes.py OUT > tests/data/output_hashes.txt

so that the file's diff names the outputs that moved.  --check FILE instead
compares the files under OUT with FILE's lines, prints each file that moved,
is missing or is new, and exits 1 if there is one.  A fingerprint that differs
from FILE's is reported, and the hashes are compared all the same.  --numpy
runs with the C library switched off, so the numpy reference engine and the %
CSV formatter write every file; on the platform of tests/data/output_hashes.txt
they write the library's bytes, so a --numpy run checks against the same list.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from maxsurf import _kernels, cli  # noqa: E402

HASHES = os.path.join(ROOT, "tests", "data", "output_hashes.txt")
# the configs that finish in about a second each: tests/test_output_hashes.py runs them
FAST_CONFIGS = ("ac3_stationary_disk", "ac4_disk_relaxation", "ac6_probe_cylinder",
                "ac6_probe_translator", "ac8_pseudosphere_leaves", "trumpet_condition")


def _compiler() -> str:
    try:
        cc = _kernels._compiler()
    except _kernels.BuildError as exc:
        return str(exc)
    proc = subprocess.run([*cc, "--version"], capture_output=True, text=True, timeout=60)
    return (proc.stdout.splitlines() or ["unknown"])[0]


def _simd() -> str:
    """numpy's baseline SIMD targets and the dispatched ones this CPU runs:
    numpy picks its float64 loops (tanh, sinh, log, ...) by them at run time."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return " ".join(umath.__cpu_baseline__ + dispatched)


def fingerprint() -> list:
    """The `# key: value` lines that name the platform the outputs were written on."""
    libc, version = platform.libc_ver()
    library = "loaded" if _kernels.available else "not loaded"
    return [f"# machine: {platform.machine()}", f"# numpy: {np.__version__}",
            f"# numpy simd: {_simd()}", f"# libc: {libc} {version}".rstrip(),
            f"# compiler: {_compiler()}", f"# library: {library}"]


def write_outputs(names) -> None:
    """`maxsurf run` on configs/NAME.cfg for each name, then the convergence
    study, into $MAXSURF_OUT, with their console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name in names:
            cli.main(["run", os.path.join(ROOT, "configs", f"{name}.cfg")])
        cli.main(["converge", os.path.join(ROOT, "configs", "ac1_converge.cfg"),
                  "--levels", "2"])


def hashes(out: str) -> dict:
    """{path relative to out: sha256} of every file under out."""
    found = {}
    for path in sorted(glob.glob(os.path.join(out, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as f:
                found[os.path.relpath(path, out)] = hashlib.sha256(f.read()).hexdigest()
    return found


def read(path: str) -> tuple:
    """(fingerprint lines, {path: sha256}) of a hash file."""
    with open(path) as f:
        lines = f.read().splitlines()
    head = [line for line in lines if line.startswith("# ") and ": " in line]
    pairs = (line.split(None, 1) for line in lines if line and line[0] != "#")
    return head, {path: digest for digest, path in pairs}


def compare(expected: dict, actual: dict, every: bool = True) -> list:
    """One line per file that moved or is new, and, when every file of
    expected should have been written, per file that is missing."""
    out = [f"{'moved' if path in expected else 'new'}: {path}"
           for path, digest in actual.items() if expected.get(path) != digest]
    if every:
        out += [f"missing: {path}" for path in expected if path not in actual]
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--numpy", action="store_true", help="switch the C library off")
    parser.add_argument("--check", metavar="FILE", help="compare with a hash file")
    args = parser.parse_args(argv)
    if args.numpy:
        _kernels._loaded = (None, "switched off by --numpy")
    os.environ["MAXSURF_OUT"] = args.out
    write_outputs([os.path.splitext(os.path.basename(p))[0]
                   for p in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))])
    actual = hashes(args.out)
    if args.check is None:
        print("\n".join(fingerprint()))
        for path, digest in actual.items():
            print(digest, path)
        return 0
    head, expected = read(args.check)
    if head != fingerprint():
        print(f"note: the platform differs from {args.check}'s:", *sorted(
            set(fingerprint()) ^ set(head)), sep="\n  ")
    diff = compare(expected, actual)
    print("\n".join(diff) if diff else f"ok: {len(actual)} files match {args.check}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
