"""Scenario execution, convergence studies and output persistence.

Every run writes, under its output directory:

    timeseries.csv       one row per step with all recorded scalar series
    final_profile.csv    per-node columns (s, physical_coord, u, H, v, v_hat,
                         normA2, dV) of the final state
    monitor_summary.txt  key = value summary of events and monitor results

Exit codes: 0 completed as requested (converged, t_end, or the step budget
when no convergence threshold was set), 1 convergence requested but not
reached, 2 spacelike guard tripped, 3 configuration error, 4 curvature
condition failed while require_conditions is set.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config
from .disk import disk_grid
from .flow import RECORD_COLUMNS, FlowEvent, StepControl, Trajectory, run
from .geometry import geometry
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
EXIT_GUARD = 2
EXIT_CONFIG = 3
EXIT_CONDITION = 4


def _fmt(x) -> str:
    if x is None:
        return "none"
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def output_root() -> str:
    return os.environ.get("MAXSURF_OUT", ".")


@dataclass
class ExitReport:
    code: int
    event: Optional[FlowEvent]
    out_dir: str
    summary: dict


def _ctrl_from(cfg: ScenarioConfig) -> StepControl:
    return StepControl(cfl=cfg.cfl, eps_guard=cfg.eps_guard, max_steps=cfg.max_steps,
                       h_stop=cfg.h_stop, t_end=cfg.t_end, integrator=cfg.integrator)


def write_timeseries(path: str, traj: Trajectory) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(RECORD_COLUMNS) + "\n")
        for row in traj.records:
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_profile(path: str, scenario: Scenario, state) -> None:
    g = geometry(state, scenario.profile)
    with open(path, "w", newline="\n") as f:
        f.write("s,physical_coord,u,H,v,v_hat,normA2,dV\n")
        if state.grid.kind == "disk2d":
            grid = disk_grid(state.grid.n, state.grid.radius)
            ins = grid.inside
            r = grid.r[ins]
            ang = np.arctan2(grid.Y[ins], grid.X[ins])
            order = np.lexsort((ang, r))
            cols = [r / grid.radius, r, state.u[ins], g.H[ins], g.v[ins],
                    g.v_hat[ins], g.normA2[ins], g.dV[ins]]
            for k in order:
                f.write(",".join(format(c[k], ".17g") for c in cols) + "\n")
            return
        s_ref = state.grid.reference()
        x = state.coords()
        for k in range(state.u.size):
            row = (s_ref[k], x[k], state.u[k], g.H[k], g.v[k], g.v_hat[k],
                   g.normA2[k], g.dV[k])
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w", newline="\n") as f:
        for key in sorted(summary):
            f.write(f"{key} = {_fmt(summary[key])}\n")


def check_boundary(cfg: ScenarioConfig, write: bool = True) -> ExitReport:
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
    if write:
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
    ctrl = _ctrl_from(cfg)
    traj = run(scenario.state0, ctrl, scenario.profile, stride=cfg.snapshot_stride)
    summary["event"] = traj.event.value
    summary["event_time"] = traj.event_time
    summary["steps"] = traj.records.shape[0] - 1
    summary["final_sup_H"] = traj.series("sup_H")[-1]
    summary["final_volume"] = traj.series("volume")[-1]
    summary["final_osc_u"] = traj.series("osc_u")[-1]
    if cfg.monitor_volume and traj.records.shape[0] >= 2:
        summary["volume_identity_residual"] = volume_identity(traj)
    if cfg.monitor_boundary:
        for key, val in boundary_identities(traj, scenario.profile).items():
            summary[f"boundary_{key}"] = val
    if cfg.monitor_estimates:
        est = estimate_monitors(traj)
        summary["h_sup_monotone"] = est["h_sup_monotone"]
        summary["boundary_Asig_min"] = est["boundary_Asig_min"]
        summary["grad_bound_C1"] = est["grad_bound_fit"]["C1"]
        summary["grad_bound_C2"] = est["grad_bound_fit"]["C2"]
        summary["h_vs_v_C1"] = est["h_vs_v_fit"]["C1"]
        summary["h_vs_v_C2"] = est["h_vs_v_fit"]["C2"]
        summary["h_vs_v_p"] = est["h_vs_v_fit"]["p"]
        summary["p_best_fit"] = est["p_best_fit"]
    if cfg.monitor_evolution and cfg.snapshot_stride == 1:
        res = evolution_residuals(traj, scenario.profile)
        summary["res_H"] = res["res_H"]
        summary["res_v"] = res["res_v"]
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
        code = EXIT_GUARD
    elif traj.event is FlowEvent.STEP_LIMIT and cfg.h_stop > 0:
        code = EXIT_NOT_CONVERGED
    else:
        code = EXIT_OK
    return ExitReport(code, traj.event, out_dir, summary), traj


def _study_error(cfg: ScenarioConfig, scenario: Scenario, traj: Optional[Trajectory]) -> float:
    """Max space-time error of a run (or static geometry error) vs the exact solution."""
    exact = scenario.exact
    if exact is None:
        raise ConfigError("convergence studies need a scenario with an exact solution")
    if exact.static and (cfg.t_end is None or cfg.t_end == cfg.t0):
        # static geometry check, no stepping: mean curvature versus closed form
        g = geometry(scenario.state0, scenario.profile)
        if exact.name == "hyperbolic_plane":
            rho = scenario.state0.coords()
            H_exact = np.abs(exact.d2u(rho, 0.0) / (1 - exact.du(rho, 0.0) ** 2) ** 1.5
                             + np.where(rho > 0, exact.du(rho, 0.0) / np.maximum(rho, 1e-300), exact.d2u(rho, 0.0)) / np.sqrt(1 - exact.du(rho, 0.0) ** 2))
            return float(np.abs(np.abs(g.H) - H_exact).max())
        return float(np.abs(g.H).max())
    err = 0.0
    for s in traj.states:
        if s.grid.kind == "disk2d":
            grid = disk_grid(s.grid.n, s.grid.radius)
            vals = exact.u(grid.r[grid.inside], s.t)
            err = max(err, float(np.abs(s.u[grid.inside] - vals).max()))
        else:
            x = s.coords()
            err = max(err, float(np.abs(s.u - exact.u(x, s.t)).max()))
    return err


def convergence_study(cfg: ScenarioConfig, levels: int, write: bool = True) -> list:
    """Run at node counts (N-1)*2^k + 1 and report max errors and orders.

    Returns rows of (nodes, error, order_or_None); errors below 1e-13 are at
    machine precision and the order is reported as "saturated".
    """
    from dataclasses import replace

    rows = []
    errors = []
    for k in range(levels):
        nodes_k = (cfg.nodes - 1) * 2**k + 1
        cfg_k = replace(cfg, nodes=nodes_k, snapshot_stride=max(1, cfg.snapshot_stride))
        cfg_k._explicit = cfg._explicit
        cfg_k.validated()
        scenario = build_scenario(cfg_k)
        if scenario.exact is None:
            raise ConfigError("convergence studies need a scenario with an exact solution")
        static = scenario.exact.static and (cfg.t_end is None or cfg.t_end == cfg.t0)
        traj = None
        if not static:
            ctrl = _ctrl_from(cfg_k)
            traj = run(scenario.state0, ctrl, scenario.profile, stride=cfg_k.snapshot_stride)
        errors.append(_study_error(cfg_k, scenario, traj))
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
    cfg = parse_config(open(path).read())
    report, _ = run_scenario(cfg)
    return path, report.code


def run_batch(directory: str, max_workers: Optional[int] = None) -> dict:
    """Run every *.cfg in a directory concurrently (one process per run)."""
    paths = sorted(
        os.path.join(directory, p) for p in os.listdir(directory) if p.endswith(".cfg")
    )
    if not paths:
        raise ConfigError(f"no .cfg files in {directory}")
    results = {}
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for path, code in pool.map(_batch_worker, paths):
            results[path] = code
    return results
