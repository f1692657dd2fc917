"""Command line interface.

    maxsurf run <config>                 execute a scenario
    maxsurf check-boundary <config>      curvature condition + foliation data
    maxsurf converge <config> --levels k refinement study against the exact solution
    maxsurf batch <dir>                  run every *.cfg in a directory

The environment variable MAXSURF_OUT overrides the output root directory.
"""

from __future__ import annotations

import argparse
import sys

from .config import read_config
from .runner import check_boundary, convergence_study, exit_code, run_batch, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maxsurf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_chk = sub.add_parser("check-boundary", help="curvature condition check")
    p_chk.add_argument("config")
    p_cnv = sub.add_parser("converge", help="refinement study")
    p_cnv.add_argument("config")
    p_cnv.add_argument("--levels", type=int, default=3)
    p_bat = sub.add_parser("batch", help="run every *.cfg in a directory")
    p_bat.add_argument("directory")
    p_bat.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    return exit_code(lambda: _command(args))


def _command(args) -> int:
    if args.command == "run":
        report, _ = run_scenario(read_config(args.config))
        print(f"event = {report.event.value if report.event else 'condition_check'}")
        print(f"outputs in {report.out_dir}")
        return report.code
    if args.command == "check-boundary":
        report = check_boundary(read_config(args.config))
        for key in sorted(report.summary):
            print(f"{key} = {report.summary[key]}")
        return report.code
    if args.command == "converge":
        rows = convergence_study(read_config(args.config), args.levels)
        print("nodes, max_error, order")
        for nodes_k, err, order in rows:
            otxt = "" if order is None else (
                order if isinstance(order, str) else f"{order:.3f}")
            print(f"{nodes_k}, {err:.6e}, {otxt}")
        return 0
    results = run_batch(args.directory, args.workers)     # the batch command
    worst = 0
    for path, code in sorted(results.items()):
        print(f"{path}: exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
