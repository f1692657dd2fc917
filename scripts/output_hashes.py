"""sha256 of every output file of the shipped configs, for byte-identity checks.

    python scripts/output_hashes.py OUT [--numpy]

Runs `maxsurf run` on each configs/*.cfg and `maxsurf converge --levels 2` on
configs/ac1_converge.cfg with MAXSURF_OUT=OUT, then prints one `sha256 path`
line per file under OUT.  --numpy runs with the C library switched off, so the
numpy reference engine and the % CSV formatter write every file.  Compare the
lines of two checkouts with diff.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from maxsurf import _kernels, cli  # noqa: E402

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("out")
parser.add_argument("--numpy", action="store_true", help="switch the C library off")
args = parser.parse_args()
if args.numpy:
    _kernels._loaded = (None, "switched off by --numpy")
os.environ["MAXSURF_OUT"] = args.out
configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for path in configs:
        cli.main(["run", path])
    cli.main(["converge", os.path.join(ROOT, "configs", "ac1_converge.cfg"), "--levels", "2"])
for path in sorted(glob.glob(os.path.join(args.out, "**", "*"), recursive=True)):
    if os.path.isfile(path):
        with open(path, "rb") as f:
            print(hashlib.sha256(f.read()).hexdigest(), os.path.relpath(path, args.out))
