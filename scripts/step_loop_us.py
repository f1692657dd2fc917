"""Microseconds per step of the compiled loop, and nanoseconds per value of
the compiled CSV formatter.

    python scripts/step_loop_us.py [--src DIR]

Times _kernels.run_fast (Euler, one snapshot a chunk) on five fixed starts:
curve1d grim reaper translators of N = 101, 201 and 401 and a radial2d sine
tube plane bump of N = 201, each for 20,000 steps, and a disk2d cylinder bump
of N = 101 for 1,000 steps; it prints for each the least of 5 runs, in
microseconds per step taken, and that time per node the step evaluates (a
line grid's N nodes, the disk's inside nodes), in nanoseconds.  Then it
formats the per-step records of the benchmark's translator_1d job (grim
reaper, N = 201, t0 = -1 to t_end = -0.75) with _kernels.format_rows and
prints the least of 5, in nanoseconds per value.
The compiled library must build; the numpy engine is timed by
reference_loop_us.py.

--src times the maxsurf package under DIR (another checkout's src, one whose
configs build their controls with ScenarioConfig.step_control) in place of
this checkout's.  To compare two checkouts, run the script alternately
with each --src, a few times each, and compare the pairs.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5

STARTS = {
    "curve1d_101": ("scenario = grim_reaper\nnodes = 101\nt0 = -1.0\n", 20000),
    "curve1d_201": ("scenario = grim_reaper\nnodes = 201\nt0 = -1.0\n", 20000),
    "curve1d_401": ("scenario = grim_reaper\nnodes = 401\nt0 = -1.0\n", 20000),
    "radial2d_201": ("scenario = sine_tube\nnodes = 201\ninitial = plane_bump(widest, 0.05)\n",
                     20000),
    "disk2d_101": ("scenario = cylinder_disk\nnodes = 101\ninitial = bump(0.1)\n", 1000),
}
TRANSLATOR = "scenario = grim_reaper\nnodes = 201\nt0 = -1.0\nt_end = -0.75\n"


def least(job) -> float:
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        job()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the directory holding the maxsurf package to time")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import maxsurf
    from maxsurf import _kernels
    from maxsurf.disk import disk_grid

    if not _kernels.available:
        print(_kernels.reason)
        return 1
    for name, (text, steps) in STARTS.items():
        scenario = maxsurf.build_scenario(maxsurf.parse_config(text))
        grid = scenario.state0.grid
        nodes = (int(disk_grid(grid.n, grid.radius).inside.sum()) if grid.kind == "disk2d"
                 else scenario.state0.u.size)
        ctrl = maxsurf.StepControl(max_steps=steps)
        taken = []

        def job():
            traj = _kernels.run_fast(scenario.state0, ctrl, scenario.profile, steps)
            taken.append(traj.records.shape[0] - 1)

        best = least(job)
        per_step = best / taken[-1]
        print(f"{name} {per_step * 1e6:.2f} us/step ({taken[-1]} steps; "
              f"{per_step / nodes * 1e9:.1f} ns/node)")

    cfg = maxsurf.parse_config(TRANSLATOR)
    scenario = maxsurf.build_scenario(cfg)
    rows = _kernels.run_fast(scenario.state0, cfg.step_control(), scenario.profile, 2000).records
    out = np.empty(rows.size * _kernels.CSV_VALUE_BYTES, dtype=np.uint8)
    best = least(lambda: _kernels.format_rows(rows, out))
    print(f"format_rows {best / rows.size * 1e9:.1f} ns/value ({rows.size} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
