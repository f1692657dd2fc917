"""Scenario execution, convergence studies and output persistence.

Every run writes, under its output directory:

    timeseries.csv       one row per step with all recorded scalar series
    final_profile.csv    per-node columns (s, physical_coord, u, H, v, v_hat,
                         normA2, dV) of the final state
    monitor_summary.txt  key = value summary of events and monitor results

Exit codes: 0 completed as requested (converged, t_end, or the step budget
when no convergence threshold was set), 1 convergence requested but not
reached, 2 the flow left the scheme's domain (guard trip, incidence Newton
failure or time step underflow), 3 configuration error, 4 curvature condition
failed while require_conditions is set.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import radial_graph_mean_curvature
from .config import ConfigError, ScenarioConfig, format_value, read_config
from .flow import RECORD_COLUMNS, FlowError, FlowEvent, Trajectory, run
from .geometry import SpacelikeError, geometry
from .monitors import (
    boundary_identities,
    estimate_monitors,
    evolution_residuals,
    stability_certificate,
    volume_identity,
)
from .profiles import (
    check_condition_curvature,
    cmc_leaf_through,
    foliation_monotonicity,
    leaf_mean_curvature,
)
from .scenarios import Scenario, build_scenario

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_BREAKDOWN = 2
EXIT_CONFIG = 3
EXIT_CONDITION = 4


def output_root() -> str:
    return os.environ.get("MAXSURF_OUT", ".")


@dataclass
class ExitReport:
    code: int
    event: Optional[FlowEvent]
    out_dir: str
    summary: dict


def exit_code(command: Callable[[], int], label: str = "") -> int:
    """command()'s exit code, or that of the failure it raised: a ConfigError
    is exit 3 and a FlowError exit 2, each told on one stderr line after label."""
    try:
        return command()
    except ConfigError as exc:
        print(f"{label}config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FlowError as exc:
        print(f"{label}flow breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN


# rows formatted per block: 8,192-row blocks raised the benchmark translator
# job's peak RSS from 72.6 to 78.9 MB on the % path; 1,024 and 256 rows left
# it at 72.5-72.7.  The compiled path formats a block into one buffer of
# CSV_VALUE_BYTES per value, reused for every block: 435 kB for the 17
# record columns, so its peak RSS does not grow with the run's length.
CSV_BLOCK_ROWS = 1024


def _write_rows(f, rows: np.ndarray) -> None:
    """CSV lines of %.17g values, a block of rows at a time, to a binary file:
    by the compiled library when it loads, else by one % per block over a
    prebuilt row format.  Both give the bytes of format(v, ".17g")."""
    from . import _kernels

    blocks = range(0, rows.shape[0], CSV_BLOCK_ROWS)
    if not _kernels.available:
        row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for a in blocks:
            block = rows[a:a + CSV_BLOCK_ROWS]
            f.write(((row_fmt * block.shape[0]) % tuple(block.ravel().tolist())).encode())
        return
    buf = np.empty(min(rows.shape[0], CSV_BLOCK_ROWS) * rows.shape[1] * _kernels.CSV_VALUE_BYTES,
                   dtype=np.uint8)
    for a in blocks:
        f.write(buf[:_kernels.format_rows(rows[a:a + CSV_BLOCK_ROWS], buf)])


def write_timeseries(path: str, traj: Trajectory) -> None:
    with open(path, "wb") as f:
        f.write((",".join(RECORD_COLUMNS) + "\n").encode())
        _write_rows(f, traj.records)


def write_profile(path: str, scenario: Scenario, state) -> None:
    """The final state's nodes and geometry, from the evaluation the flow's
    step reads; the geometry columns are NaN where the state is not spacelike
    (the last state of a guard-tripped run whose least margin is not positive)."""
    try:
        g = geometry(state, scenario.profile)
        fields = (g.H, g.v, g.v_hat, g.normA2, g.dV)
    except SpacelikeError:
        fields = (np.full(np.shape(state.u), np.nan),) * 5
    at = state.grid.real_nodes()
    rows = np.column_stack([a[at] for a in (state.grid.reference(), state.coords(), state.u,
                                            *fields)])
    with open(path, "wb") as f:
        f.write(b"s,physical_coord,u,H,v,v_hat,normA2,dV\n")
        _write_rows(f, rows)


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w", newline="\n") as f:
        for key in sorted(summary):
            f.write(f"{key} = {format_value(summary[key])}\n")


def check_boundary(cfg: ScenarioConfig) -> ExitReport:
    """Curvature-condition check plus CMC-foliation data for the profile."""
    scenario = build_scenario(cfg)
    profile = scenario.profile
    lo, hi = profile.domain
    rep = check_condition_curvature(profile, lo, hi, cfg.condition_samples)
    summary = {
        "condition_ok": rep.ok,
        "condition_worst_z": rep.worst_z,
        "condition_worst_value": rep.worst_value,
        "domain_lo": lo,
        "domain_hi": hi,
    }
    if profile.boundary_type == "rotational":
        zs = np.linspace(lo, hi, 51)
        monotonicity = [foliation_monotonicity(profile, float(z)) for z in zs]
        summary["foliation_monotonicity_min"] = min(monotonicity)
        worst_leaf = 0.0
        for z in zs:
            leaf = cmc_leaf_through(profile, float(z))
            if leaf.kind != "hyperbolic_plane":
                continue
            rho = np.linspace(0.0, float(profile.f(z)) * 0.999, 25)
            H = leaf_mean_curvature(profile, rho, float(z))
            worst_leaf = max(worst_leaf, float(np.abs(np.abs(H) * leaf.R - 2.0).max()))
        summary["leaf_HR_minus_2_max"] = worst_leaf
    out_dir = os.path.join(output_root(), cfg.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    write_summary(os.path.join(out_dir, "check_boundary.txt"), summary)
    code = EXIT_OK if rep.ok else EXIT_CONDITION
    return ExitReport(code, None, out_dir, summary)


def run_scenario(cfg: ScenarioConfig, write: bool = True):
    """Execute a configured run with its monitors; returns (report, traj)."""
    scenario = build_scenario(cfg)
    out_dir = os.path.join(output_root(), cfg.out_dir)
    summary = {"scenario": cfg.scenario, "profile": cfg.profile, "nodes": cfg.nodes}
    if cfg.require_conditions:
        lo, hi = scenario.profile.domain
        rep = check_condition_curvature(scenario.profile, lo, hi, cfg.condition_samples)
        summary["condition_ok"] = rep.ok
        summary["condition_worst_value"] = rep.worst_value
        if not rep.ok:
            if write:
                os.makedirs(out_dir, exist_ok=True)
                write_summary(os.path.join(out_dir, "monitor_summary.txt"), summary)
            return ExitReport(EXIT_CONDITION, None, out_dir, summary), None
    traj = run(scenario.state0, cfg.step_control(), scenario.profile, stride=cfg.snapshot_stride)
    summary["event"] = traj.event.value
    summary["event_time"] = traj.event_time
    summary["steps"] = traj.records.shape[0] - 1
    summary["final_sup_H"] = traj.series("sup_H")[-1]
    summary["final_volume"] = traj.series("volume")[-1]
    summary["final_osc_u"] = traj.series("osc_u")[-1]
    for key, val in boundary_identities(traj, scenario.profile).items():
        summary[f"boundary_{key}"] = val
    if traj.records.shape[0] >= 2:     # one record determines no rate and no fit
        summary["volume_identity_residual"] = volume_identity(traj)
        est = estimate_monitors(traj)
        summary["h_sup_monotone"] = est["h_sup_monotone"]
        summary["boundary_Asig_min"] = est["boundary_Asig_min"]
        summary["grad_bound_C1"] = est["grad_bound_fit"]["C1"]
        summary["grad_bound_C2"] = est["grad_bound_fit"]["C2"]
        summary["h_vs_v_C1"] = est["h_vs_v_fit"]["C1"]
        summary["h_vs_v_C2"] = est["h_vs_v_fit"]["C2"]
        summary["h_vs_v_p"] = est["h_vs_v_fit"]["p"]
        summary["p_best_fit"] = est["p_best_fit"]
    if cfg.monitor_evolution:
        try:
            res = evolution_residuals(traj, scenario.profile)
            summary["res_H"] = res["res_H"]
            summary["res_v"] = res["res_v"]
        except ValueError as exc:
            summary["evolution_error"] = str(exc)
    if cfg.certificate:
        z_ref = cfg.certificate_z if cfg.certificate_z is not None else scenario.plane_z
        if z_ref is None:
            z_ref = float(np.mean(traj.states[-1].u))
        try:
            cert = stability_certificate(traj.states[-1], scenario.profile,
                                         center=(0.0, 0.0, z_ref))
            summary["certificate_ok"] = cert.ok
            summary["certificate_hypothesis_ok"] = cert.hypothesis_ok
            summary["certificate_interior_margin"] = cert.interior_margin
            summary["certificate_boundary_margin"] = cert.boundary_margin
            summary["certificate_R"] = cert.R
        except ValueError as exc:
            summary["certificate_ok"] = False
            summary["certificate_error"] = str(exc)
    if write:
        os.makedirs(out_dir, exist_ok=True)
        write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj)
        write_profile(os.path.join(out_dir, "final_profile.csv"), scenario,
                      traj.states[-1])
        write_summary(os.path.join(out_dir, "monitor_summary.txt"), summary)
    if traj.event is FlowEvent.GUARD_TRIPPED:
        code = EXIT_BREAKDOWN
    elif traj.event is FlowEvent.STEP_LIMIT and cfg.h_stop > 0:
        code = EXIT_NOT_CONVERGED
    else:
        code = EXIT_OK
    return ExitReport(code, traj.event, out_dir, summary), traj


def _study_error(scenario: Scenario, traj: Optional[Trajectory]) -> float:
    """Max space-time error of a run versus the exact solution; without a run
    (a static study), the mean curvature error of the start state."""
    exact = scenario.exact
    if traj is None:
        # static geometry check, no stepping: mean curvature versus closed form
        # (0 on a plane or a constant)
        g = geometry(scenario.state0, scenario.profile)
        rho = scenario.state0.coords()
        H_exact = radial_graph_mean_curvature(rho, exact.du(rho, 0.0), exact.d2u(rho, 0.0))
        return float(np.abs(np.abs(g.H) - np.abs(H_exact)).max())
    err = 0.0
    for s in traj.states:
        at = s.grid.real_nodes()
        err = max(err, float(np.abs(s.u[at] - exact.u(s.coords()[at], s.t)).max()))
    return err


def convergence_study(cfg: ScenarioConfig, levels: int, write: bool = True) -> list:
    """Run at node counts (N-1)*2^k + 1 and report max errors and orders.

    Returns rows of (nodes, error, order_or_None); errors below 1e-13 are at
    machine precision and the order is reported as "saturated".
    """
    from dataclasses import replace

    if levels < 1:
        raise ConfigError(f"a convergence study needs at least 1 level, not {levels}")
    rows = []
    errors = []
    for k in range(levels):
        nodes_k = (cfg.nodes - 1) * 2**k + 1
        cfg_k = replace(cfg, nodes=nodes_k, snapshot_stride=max(1, cfg.snapshot_stride))
        cfg_k.validated()
        scenario = build_scenario(cfg_k)
        if scenario.exact is None:
            raise ConfigError("convergence studies need a scenario with an exact solution")
        static = scenario.exact.static and (cfg.t_end is None or cfg.t_end == cfg.t0)
        traj = None
        if not static:
            traj = run(scenario.state0, cfg_k.step_control(), scenario.profile,
                       stride=cfg_k.snapshot_stride)
        errors.append(_study_error(scenario, traj))
        rows.append([nodes_k, errors[-1], None])
    for i in range(1, levels):
        if errors[i - 1] < 1e-13 or errors[i] < 1e-13:
            rows[i][2] = "saturated"
        else:
            rows[i][2] = math.log2(errors[i - 1] / errors[i])
    if write:
        out_dir = os.path.join(output_root(), cfg.out_dir)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "convergence.csv"), "w", newline="\n") as f:
            f.write("nodes,max_error,order\n")
            for nodes_k, err, order in rows:
                otxt = "" if order is None else (
                    order if isinstance(order, str) else format(order, ".17g"))
                f.write(f"{nodes_k},{format(err, '.17g')},{otxt}\n")
    return rows


def _batch_worker(path: str) -> tuple:
    """(path, exit code) of one run; a bad file does not stop the others."""
    return path, exit_code(lambda: run_scenario(read_config(path))[0].code, f"{path}: ")


def run_batch(directory: str, max_workers: Optional[int] = None) -> dict:
    """Run every *.cfg in a directory concurrently (one process per run, at
    most max_workers, >= 1, at once; by default one per CPU)."""
    # imported here, not with the module: only a batch needs it, and it slows `import maxsurf`
    from concurrent.futures import ProcessPoolExecutor

    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"the worker count must be >= 1, not {max_workers}")
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise ConfigError(f"cannot list batch directory {directory}: "
                          f"{exc.strerror or exc}") from exc
    paths = sorted(os.path.join(directory, p) for p in names if p.endswith(".cfg"))
    if not paths:
        raise ConfigError(f"no .cfg files in {directory}")
    results = {}
    # no more workers than files: a fork pool starts all its workers at once
    workers = min(max_workers or os.cpu_count() or 1, len(paths))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for path, code in pool.map(_batch_worker, paths):
            results[path] = code
    return results
