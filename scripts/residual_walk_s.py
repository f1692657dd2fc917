"""Seconds per evolution-residual walk, monitors.evolution_residuals.

    python scripts/residual_walk_s.py [--src DIR]

Builds, untimed, the stride-1 trajectories of the five identity probes (the
benchmark's identity_probe job without its jitter: grim reaper translators of
N = 101 and 201 to t = -0.98, cylinder disk bumps of amplitude 0.1 and
N = 65 and 97 to t = 0.06, and a sine tube plane bump of amplitude 0.05 and
N = 101 to t = 0.05), then prints for each probe the least of 5 walks of
evolution_residuals over its trajectory, in seconds.  For each probe whose
grid kind has a compiled walk (monitors' kind table says which: the
translators and the disks), the script also prints which walk monitors
chose and the least of 5 walks of the numpy reference walk, so one run gives
both.

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

PROBES = {
    "translator_101": "scenario = grim_reaper\nnodes = 101\nt0 = -1.0\nt_end = -0.98\n",
    "translator_201": "scenario = grim_reaper\nnodes = 201\nt0 = -1.0\nt_end = -0.98\n",
    "cylinder_65": "scenario = cylinder_disk\nnodes = 65\ninitial = bump(0.1)\nt_end = 0.06\n",
    "cylinder_97": "scenario = cylinder_disk\nnodes = 97\ninitial = bump(0.1)\nt_end = 0.06\n",
    "sine_tube_101": ("scenario = sine_tube\nnodes = 101\n"
                      "initial = plane_bump(widest, 0.05)\nt_end = 0.05\n"),
}


def least_time(walk, traj, profile) -> float:
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        walk(traj, profile)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the directory holding the maxsurf package to time")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import maxsurf
    from maxsurf import monitors

    # a checkout older than monitors' walk choice prints the one time
    walk_for = getattr(monitors, "_walk", None)
    for name, text in PROBES.items():
        cfg = maxsurf.parse_config(text)
        scenario = maxsurf.build_scenario(cfg)
        traj = maxsurf.run(scenario.state0, cfg.step_control(), scenario.profile, stride=1)
        line = f"{name} {least_time(maxsurf.evolution_residuals, traj, scenario.profile):.4f} s"
        kind = scenario.state0.grid.kind
        if walk_for is not None and monitors._KINDS[kind].compiled_walk is not None:
            walk = walk_for(kind, scenario.profile)
            walked_by = "numpy" if walk is monitors._numpy_walk else "library"
            numpy_s = least_time(monitors._evolution_residuals_numpy, traj, scenario.profile)
            line += f" ({walked_by}); numpy walk {numpy_s:.4f} s"
        print(line)
        del traj
    return 0


if __name__ == "__main__":
    sys.exit(main())
