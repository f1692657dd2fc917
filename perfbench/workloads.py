"""The benchmark's three workloads: inputs made from the seed, the timed job,
and the output checks.

Each workload is a user-visible job on the public API. The program receives
only config texts (and the states built from them); everything random lives
here and is drawn from ``random.Random(seed)``.

    translator_1d   grim_reaper, curve1d N=201, t0 -> -0.75 through
                    run_scenario(write=True); t0 jittered inside the exact family
    disk_relax_2d   the AC-4 cylinder_disk N=101 bump relaxing to h_stop = 1e-6;
                    bump amplitude jittered in [0.08, 0.12]
    identity_probe  the AC-6 probes (translator N=101/201, cylinder N=65/97) plus
                    a sine_tube plane_bump(widest) window, each run with stride 1
                    followed by evolution_residuals and boundary_identities

A job is ``job(ms, seed)``, timed from its first library call to its last
output file; ``check(ms, seed, raw)`` runs afterwards, untimed, and returns
the accuracy figure and the named output checks.
"""

from __future__ import annotations

import math
import os
import random

# AC-1's gate is 5e-3 at N=401 with second-order convergence, so the N=201
# level of its error ladder is four times that.
TRANSLATOR_N201_ERR = 5e-3 * 4.0
MONOTONE_TOL = 1e-8
VOLUME_RESIDUAL_TOL = 1e-3
FLAT_TOL = 1e-6


def _cfg_text(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _step_control(ms, cfg):
    return ms.StepControl(cfl=cfg.cfl, eps_guard=cfg.eps_guard, max_steps=cfg.max_steps,
                          h_stop=cfg.h_stop, t_end=cfg.t_end, integrator=cfg.integrator)


# -- translator_1d ------------------------------------------------------------


def translator_configs(seed: int) -> list:
    t0 = -1.0 + random.Random(seed).uniform(-0.002, 0.002)
    return [_cfg_text(scenario="grim_reaper", nodes=201, t0=repr(t0), t_end=-0.75,
                      snapshot_stride=2000, out_dir="runs/translator_1d")]


def translator_job(ms, seed: int):
    cfg = ms.parse_config(translator_configs(seed)[0])
    return ms.run_scenario(cfg, write=True)


def translator_check(ms, seed: int, raw):
    import numpy as np

    report, traj = raw
    err = 0.0
    for s in traj.states:
        x = s.coords()
        err = max(err, float(np.abs(s.u - (np.log(np.cosh(x)) + s.t)).max()))
    checks = {
        "exit_code_0": (report.code == 0, f"exit code {report.code}"),
        "error_within_N201_ladder": (
            err <= TRANSLATOR_N201_ERR,
            f"space-time error {err:.3e} (<= {TRANSLATOR_N201_ERR:.1e})"),
    }
    info = {"steps": int(traj.records.shape[0] - 1), "event": traj.event.value}
    return err, checks, info


# -- disk_relax_2d --------------------------------------------------------------


def disk_configs(seed: int) -> list:
    amp = random.Random(seed).uniform(0.08, 0.12)
    return [_cfg_text(scenario="cylinder_disk", nodes=101, initial=f"bump({amp!r})",
                      h_stop="1e-6", t_end=10, snapshot_stride=1000,
                      out_dir="runs/disk_relax_2d")]


def disk_job(ms, seed: int):
    cfg = ms.parse_config(disk_configs(seed)[0])
    return ms.run_scenario(cfg, write=True)


def disk_check(ms, seed: int, raw):
    import numpy as np

    report, traj = raw
    sup_h = traj.series("sup_H")
    mono = float(np.max(np.diff(sup_h))) if sup_h.size > 1 else 0.0
    vol = report.summary.get("volume_identity_residual")
    if vol is None:
        vol = ms.volume_identity(traj)
    osc = float(report.summary["final_osc_u"])
    checks = {
        "exit_code_0": (report.code == 0, f"exit code {report.code}"),
        "converged": (traj.event.value == "converged", f"event {traj.event.value}"),
        "sup_H_monotone": (mono <= MONOTONE_TOL, f"largest rise {mono:.2e} (<= 1e-8)"),
        "volume_residual": (vol <= VOLUME_RESIDUAL_TOL, f"{vol:.2e} (<= 1e-3)"),
        "flat": (osc <= FLAT_TOL, f"final osc u {osc:.2e} (<= 1e-6)"),
    }
    info = {"steps": int(traj.records.shape[0] - 1), "event": traj.event.value}
    return osc, checks, info


# -- identity_probe -------------------------------------------------------------

TRANSLATOR_PROBES = (101, 201)
CYLINDER_PROBES = (65, 97)


def identity_configs(seed: int) -> list:
    rng = random.Random(seed)
    cyl_amp = 0.1 * (1.0 + rng.uniform(-0.01, 0.01))
    tube_amp = 0.05 * (1.0 + rng.uniform(-0.01, 0.01))
    texts = []
    for n in TRANSLATOR_PROBES:
        texts.append(_cfg_text(scenario="grim_reaper", nodes=n, t0=-1.0, t_end=-0.98,
                               snapshot_stride=1, out_dir=f"runs/probe_translator_{n}"))
    for n in CYLINDER_PROBES:
        texts.append(_cfg_text(scenario="cylinder_disk", nodes=n,
                               initial=f"bump({cyl_amp!r})", t_end=0.06,
                               snapshot_stride=1, out_dir=f"runs/probe_cylinder_{n}"))
    texts.append(_cfg_text(scenario="sine_tube", nodes=101,
                           initial=f"plane_bump(widest, {tube_amp!r})", t_end=0.05,
                           snapshot_stride=1, out_dir="runs/probe_sine_tube_101"))
    return texts


PROBE_NAMES = tuple([f"translator_{n}" for n in TRANSLATOR_PROBES]
                    + [f"cylinder_{n}" for n in CYLINDER_PROBES] + ["sine_tube_101"])


def identity_job(ms, seed: int):
    results = {}
    for name, text in zip(PROBE_NAMES, identity_configs(seed)):
        cfg = ms.parse_config(text)
        scenario = ms.build_scenario(cfg)
        traj = ms.run(scenario.state0, _step_control(ms, cfg), scenario.profile, stride=1)
        results[name] = {**ms.evolution_residuals(traj, scenario.profile),
                         **ms.boundary_identities(traj, scenario.profile)}
        del traj  # one stride-1 trajectory alive at a time, as a user would run it
    summary = {f"{p}_{k}": v for p, res in results.items() for k, v in res.items()}
    out_dir = os.path.join(ms.runner.output_root(), "runs", "identity_probe")
    os.makedirs(out_dir, exist_ok=True)
    ms.runner.write_summary(os.path.join(out_dir, "monitor_summary.txt"), summary)
    return results


def _order(coarse, fine, key, ratio, floor=1e-9):
    """AC-6's refinement order: inf when both levels sit at the floor."""
    a, b = coarse[key], fine[key]
    if a <= floor and b <= floor:
        return math.inf
    return math.log(a / b) / math.log(ratio)


def identity_check(ms, seed: int, raw):
    tr_c, tr_f = (raw[f"translator_{n}"] for n in TRANSLATOR_PROBES)
    cy_c, cy_f = (raw[f"cylinder_{n}"] for n in CYLINDER_PROBES)
    cy_ratio = CYLINDER_PROBES[1] / CYLINDER_PROBES[0]
    orders = {}
    for key in ("res_H", "res_v", "res_Hmu", "res_vmu"):
        floor = 1e-11 if key == "res_vmu" else 1e-9
        orders[f"translator_{key}"] = _order(tr_c, tr_f, key, 2.0, floor)
        orders[f"cylinder_{key}"] = _order(cy_c, cy_f, key, cy_ratio)
    checks = {}
    for pair in ("translator", "cylinder"):
        sub = {k: v for k, v in orders.items() if k.startswith(pair)}
        worst = min(sub.values())
        checks[f"{pair}_orders_ge_1"] = (worst >= 1.0, "orders " + ", ".join(
            f"{k[len(pair) + 1:]}={v:.2f}" for k, v in sub.items()))
    finest = {p: {k: raw[p][k] for k in ("res_H", "res_Hmu")}
              for p in (f"translator_{TRANSLATOR_PROBES[1]}", f"cylinder_{CYLINDER_PROBES[1]}",
                        "sine_tube_101")}
    err = max(max(res.values()) for res in finest.values())
    info = {"triples": sum(int(r["triples"]) for r in raw.values()), "finest": finest}
    return err, checks, info


# -- registry -------------------------------------------------------------------------


def config_file_workload(path: str):
    """A shipped config run as ``maxsurf run`` does; only exit code 0 passes."""
    def configs(seed):
        with open(path) as f:
            return [f.read()]

    def job(ms, seed):
        return ms.run_scenario(ms.parse_config(configs(seed)[0]), write=True)

    def check(ms, seed, raw):
        report, _ = raw
        return 0.0, {"exit_code_0": (report.code == 0, f"exit code {report.code}")}, {}

    return configs, job, check


WORKLOADS = {
    "translator_1d": (translator_configs, translator_job, translator_check),
    "disk_relax_2d": (disk_configs, disk_job, disk_check),
    "identity_probe": (identity_configs, identity_job, identity_check),
}


def lookup(name: str):
    """A named workload, or ``config:<path>`` for a single config file."""
    if name.startswith("config:"):
        return config_file_workload(name[len("config:"):])
    return WORKLOADS[name]


def setup(ms, name: str, seed: int):
    """What set-up covers: parse every config and build every scenario."""
    configs = lookup(name)[0]
    return [ms.build_scenario(ms.parse_config(text)) for text in configs(seed)]
