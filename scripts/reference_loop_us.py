"""Microseconds per step of the numpy reference loop, flow._run_python.

    python scripts/reference_loop_us.py [--src DIR] [--kind KIND]

Times _run_python (Euler, stride 1000) on three fixed starts: a curve1d
grim reaper translator of N = 201, a radial2d sine tube plane bump of
N = 101 and a disk2d cylinder bump of N = 101, and prints for each kind the
least of 5 runs of 200 steps, in microseconds per step.  Each kind is timed
in a fresh interpreter: the numpy disk step takes about 450 or about 650 us
by the allocator's state, which whatever ran earlier in the same process
sets.  The numpy loop is the engine of comparison pairs and custom
profiles; no benchmark workload runs it, so this script is how its cost is
measured.

--src times the maxsurf package under DIR (another checkout's src) in place
of this checkout's.  To compare two checkouts, run the script alternately
with each --src, a few times each, and compare the pairs.  --kind times one
kind, in this process.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS, RUNS = 200, 5

STARTS = {
    "curve1d": "scenario = grim_reaper\nnodes = 201\nt0 = -1.0\n",
    "radial2d": "scenario = sine_tube\nnodes = 101\ninitial = plane_bump(widest, 0.05)\n",
    "disk2d": "scenario = cylinder_disk\nnodes = 101\ninitial = bump(0.1)\n",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the directory holding the maxsurf package to time")
    ap.add_argument("--kind", choices=sorted(STARTS),
                    help="time this kind alone, in this process")
    args = ap.parse_args(argv)
    if args.kind is None:
        for kind in STARTS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--src", args.src,
                            "--kind", kind], check=True)
        return 0
    sys.path.insert(0, os.path.abspath(args.src))
    import maxsurf
    from maxsurf import flow

    scenario = maxsurf.build_scenario(maxsurf.parse_config(STARTS[args.kind]))
    ctrl = maxsurf.StepControl(max_steps=STEPS)
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        flow._run_python(scenario.state0, ctrl, scenario.profile, 1000)
        best = min(best, time.perf_counter() - t0)
    print(f"{args.kind} {best / STEPS * 1e6:.1f} us/step", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
