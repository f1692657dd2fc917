"""Peak resident memory of `maxsurf run` on each shipped config.

    python scripts/peak_rss_mb.py [--src DIR]

Runs each configs/*.cfg through runner.run_scenario (write=True, as `maxsurf
run` does) in a fresh child interpreter of its own, with its outputs in a
temporary directory, and prints for each the child's peak resident set
(ru_maxrss, in MB of 2^20 bytes), the MB its per-step records take
(records.nbytes) and its steps.  A config's compiled library is loaded from
the cache; the first child builds it if it is not cached yet, and a compile
in a child of its own (`cc`) does not count towards that child's peak.

--src runs the maxsurf package under DIR (another checkout's src) in place of
this checkout's, on this checkout's configs.  To compare two checkouts, run
the script alternately with each --src, a few times each, and compare the
pairs.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, resource, sys
from maxsurf.config import read_config
from maxsurf.runner import run_scenario

report, traj = run_scenario(read_config(sys.argv[1]), write=True)
print(json.dumps({
    "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "records_mb": 0.0 if traj is None else traj.records.nbytes / 2**20,
    "steps": 0 if traj is None else traj.records.shape[0] - 1,
    "exit": report.code,
}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the directory holding the maxsurf package to run")
    args = ap.parse_args(argv)
    print(f"{'config':<28} {'peak MB':>8} {'records MB':>11} {'steps':>8} exit")
    failed = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with tempfile.TemporaryDirectory(prefix="peak_rss_mb.") as out:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), MAXSURF_OUT=out)
            proc = subprocess.run([sys.executable, "-c", CHILD, path], env=env,
                                  capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{name:<28} failed: {last}")
            continue
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<28} {r['peak_mb']:8.2f} {r['records_mb']:11.2f} {r['steps']:8d} "
              f"{r['exit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
