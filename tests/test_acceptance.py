"""Acceptance suite: each criterion prints one PASS/FAIL line at its stated
tolerance (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import os
import time

import numpy as np
import pytest

from maxsurf.analytic import grim_reaper_boundary
from maxsurf.config import parse_config
from maxsurf.disk import disk_grid
from maxsurf.flow import FlowEvent, StepControl, comparison_pair_run, record_state, run, _COL
from maxsurf.geometry import FlowState, GridSpec
from maxsurf.monitors import (
    boundary_identities,
    estimate_monitors,
    evolution_residuals,
    refinement_orders,
    stability_certificate,
    volume_identity,
)
from maxsurf.profiles import (
    RotationalProfile,
    cmc_leaf_through,
    condition_expression,
    cylinder,
    foliation_monotonicity,
    leaf_mean_curvature,
    profile_curvature,
    pseudosphere,
    sine_tube,
    trumpet,
)
from maxsurf.runner import convergence_study, run_scenario, write_summary

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def grim_reaper_sup_vhat(t: float) -> float:
    """sup v_hat = cosh x_b(t) = 1/sqrt(1 - e^{2t})."""
    return 1.0 / math.sqrt(1.0 - math.exp(2.0 * t))


def load_cfg(name):
    with open(os.path.join(CONFIG_DIR, name)) as f:
        return parse_config(f.read())


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_out")
    os.environ["MAXSURF_OUT"] = str(root)
    yield root
    os.environ.pop("MAXSURF_OUT", None)


# -- AC-1: translator reproduction ------------------------------------------------


def test_ac1_translator_reproduction(out_root):
    from dataclasses import replace

    base = load_cfg("ac1_converge.cfg")
    errs, times = [], []
    for k in range(3):
        cfg_k = replace(base, nodes=(base.nodes - 1) * 2**k + 1)
        cfg_k._explicit = base._explicit
        t0 = time.perf_counter()
        rows = convergence_study(cfg_k.validated(), 1, write=False)
        times.append(time.perf_counter() - t0)
        errs.append(rows[0][1])
    orders = refinement_orders(errs)
    ok_err = errs[-1] <= 5e-3
    ok_orders = all(1.8 <= o <= 2.2 for o in orders)
    ok_time = max(times) <= 10.0
    report(
        "AC-1", ok_err and ok_orders and ok_time,
        f"N=401 space-time error {errs[-1]:.2e} (<= 5e-3), orders "
        f"{[f'{o:.2f}' for o in orders]} (2.0 +/- 0.2), level times "
        f"{[f'{t:.1f}s' for t in times]} (<= 10s per level)",
    )


# -- AC-2: counterexample blow-up ----------------------------------------------------


def test_ac2_blowup(out_root):
    cfg = load_cfg("ac2_blowup.cfg")
    rep, traj = run_scenario(cfg, write=True)
    ok_exit = rep.code == 2 and traj.event is FlowEvent.GUARD_TRIPPED
    ok_time = traj.event_time < 0.0
    relaxed = StepControl(eps_guard=1e-300)
    rel_errs = []
    for s in traj.states[-3:]:
        rec = record_state(s, relaxed, trumpet())
        exact = grim_reaper_sup_vhat(s.t)
        rel_errs.append(abs(rec[_COL["sup_v_hat"]] / exact - 1.0))
    ok_vhat = max(rel_errs) <= 0.02
    report(
        "AC-2", ok_exit and ok_time and ok_vhat,
        f"guard trip (exit {rep.code}) at t = {traj.event_time:.2e} < 0; "
        f"sup v_hat vs cosh(artanh(e^t)) rel err {max(rel_errs):.2%} (<= 2%)",
    )


# -- AC-3: stationary maximal disk ----------------------------------------------------


def test_ac3_stationary_disk(out_root):
    cfg = load_cfg("ac3_stationary_disk.cfg")
    rep, traj = run_scenario(cfg, write=True)
    dg = disk_grid(cfg.nodes, 1.0)
    final = traj.states[-1]
    max_u = float(np.abs(final.u[dg.inside]).max())
    sup_H = float(traj.series("sup_H").max())
    steps = traj.records.shape[0] - 1
    ok = rep.code == 0 and steps == 10000 and max_u <= 1e-12 and sup_H <= 1e-10
    report(
        "AC-3", ok,
        f"{steps} steps, max|u| = {max_u:.1e} (<= 1e-12), "
        f"sup|H| = {sup_H:.1e} (<= 1e-10)",
    )


# -- AC-4: relaxation to a maximal surface ---------------------------------------------


def test_ac4_disk_relaxation(out_root):
    cfg = load_cfg("ac4_disk_relaxation.cfg")
    t0 = time.perf_counter()
    rep, traj = run_scenario(cfg, write=True)
    elapsed = time.perf_counter() - t0
    sup_H = traj.series("sup_H")
    mono_viol = float(np.max(np.diff(sup_H))) if sup_H.size > 1 else 0.0
    vol_res = volume_identity(traj)
    final = traj.states[-1]
    dg = disk_grid(cfg.nodes, 1.0)
    uin = final.u[dg.inside]
    flat = float(uin.max() - uin.min())
    ok = (traj.event is FlowEvent.CONVERGED and sup_H[-1] < 1e-6
          and mono_viol <= 1e-8 and vol_res <= 1e-3 and flat <= 1e-6
          and elapsed <= 60.0)
    report(
        "AC-4", ok,
        f"converged to constant graph (osc {flat:.1e}), sup|H| {sup_H[-1]:.1e} "
        f"(< 1e-6), monotone within {mono_viol:.1e} (<= 1e-8), volume residual "
        f"{vol_res:.1e} (<= 1e-3), {elapsed:.1f}s at N=101^2 (<= 60s)",
    )


# -- AC-5: stability phenomenology ---------------------------------------------------


def test_ac5_stability_phenomenology(out_root):
    p = sine_tube(2.0, 0.5, 1.0)
    z_max, z_min = math.pi / 2, 3 * math.pi / 2

    cfg_w = load_cfg("ac5_widest_return.cfg")
    rep_w, traj_w = run_scenario(cfg_w, write=True)
    final_w = traj_w.states[-1]
    return_err = float(np.abs(final_w.u - z_max).max())
    ok_return = traj_w.event is FlowEvent.CONVERGED and return_err <= 1e-4

    cfg_t = load_cfg("ac5_thinnest_drift.cfg")
    rep_t, traj_t = run_scenario(cfg_t, write=True)
    drift = traj_t.series("u_min") - z_min
    crossed = bool(np.any(drift > 0.1))
    mono_viol = float(np.min(np.diff(drift))) if drift.size > 1 else 0.0
    ok_drift = crossed and mono_viol >= -1e-8

    cert_w = stability_certificate(
        FlowState(GridSpec("radial2d", 101), 0.0, np.full(101, z_max), float(p.f(z_max))),
        p, center=(0.0, 0.0, z_max))
    cert_t = stability_certificate(
        FlowState(GridSpec("radial2d", 101), 0.0, np.full(101, z_min), float(p.f(z_min))),
        p, center=(0.0, 0.0, z_min))
    ok_cert = cert_w.ok and not cert_t.hypothesis_ok

    report(
        "AC-5", ok_return and ok_drift and ok_cert,
        f"widest-plane return err {return_err:.1e} (<= 1e-4); thinnest drift "
        f"crosses 0.1 (monotone within {abs(mono_viol):.1e}); certificate ok at "
        f"widest={cert_w.ok}, hypothesis fails at thinnest={not cert_t.hypothesis_ok}",
    )


# -- AC-6: identity suite ---------------------------------------------------------------


def test_ac6_identity_suite(out_root):
    # translator probes, same physical window, two resolutions
    res_tr = {}
    for n in (101, 201):
        xb = grim_reaper_boundary(-1.0)
        grid = GridSpec("curve1d", n)
        x = grid.reference() * xb
        st = FlowState(grid, -1.0, np.log(np.cosh(x)) - 1.0, (-xb, xb))
        traj = run(st, StepControl(cfl=0.4, t_end=-0.98), trumpet(), stride=1)
        res_tr[n] = {**evolution_residuals(traj, trumpet()),
                     **boundary_identities(traj, trumpet())}
    # cylinder probes; the asymptotic order is read off the finest pair
    res_cy = {}
    for n in (33, 65, 97):
        dg = disk_grid(n, 1.0)
        u0 = np.where(dg.inside, 0.1 * (1 - (dg.X**2 + dg.Y**2)) ** 2, 0.0)
        st = FlowState(GridSpec("disk2d", n), 0.0, u0, None)
        traj = run(st, StepControl(cfl=0.4, t_end=0.06), cylinder(1.0), stride=1)
        res_cy[n] = {**evolution_residuals(traj, cylinder(1.0)),
                     **boundary_identities(traj, cylinder(1.0))}

    def order(coarse, fine, key, floor=1e-9, ratio=2.0):
        a, b = coarse[key], fine[key]
        if a <= floor and b <= floor:
            return math.inf  # converged to the floor on both levels
        return math.log(a / b) / math.log(ratio)

    orders = {
        "translator_res_H": order(res_tr[101], res_tr[201], "res_H"),
        "translator_res_v": order(res_tr[101], res_tr[201], "res_v"),
        "translator_res_Hmu": order(res_tr[101], res_tr[201], "res_Hmu"),
        "translator_res_vmu": order(res_tr[101], res_tr[201], "res_vmu", floor=1e-11),
        "cylinder_res_H": order(res_cy[65], res_cy[97], "res_H", ratio=97 / 65),
        "cylinder_res_v": order(res_cy[65], res_cy[97], "res_v", ratio=97 / 65),
        "cylinder_res_Hmu": order(res_cy[65], res_cy[97], "res_Hmu", ratio=97 / 65),
        "cylinder_res_vmu": order(res_cy[65], res_cy[97], "res_vmu", ratio=97 / 65),
    }
    ok_orders = all(o >= 1.0 for o in orders.values())

    # H = 0 trajectories: every residual at the exact-zero floor
    dg = disk_grid(33, 1.0)
    st0 = FlowState(GridSpec("disk2d", 33), 0.0, np.zeros_like(dg.X), None)
    traj0 = run(st0, StepControl(max_steps=30), cylinder(1.0), stride=1)
    e0 = evolution_residuals(traj0, cylinder(1.0))
    b0 = boundary_identities(traj0, cylinder(1.0))
    zero_res = max(volume_identity(traj0), e0["res_H"], e0["res_v"],
                   b0["res_Hmu"], b0["res_vmu"])
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    stp = FlowState(GridSpec("radial2d", 101), 0.0, np.full(101, z0), float(p.f(z0)))
    trajp = run(stp, StepControl(max_steps=30), p, stride=1)
    ep = evolution_residuals(trajp, p)
    bp = boundary_identities(trajp, p)
    zero_res = max(zero_res, volume_identity(trajp), ep["res_H"],
                   bp["res_Hmu"], bp["res_vmu"])
    ok_zero = zero_res <= 1e-10

    summary = {f"order_{k}": (v if math.isfinite(v) else 99.0) for k, v in orders.items()}
    for n, res in (("101", res_tr[101]), ("201", res_tr[201])):
        summary[f"translator_res_H_n{n}"] = res["res_H"]
        summary[f"translator_res_Hmu_n{n}"] = res["res_Hmu"]
    for n in (33, 65, 97):
        summary[f"cylinder_res_H_n{n}"] = res_cy[n]["res_H"]
        summary[f"cylinder_res_Hmu_n{n}"] = res_cy[n]["res_Hmu"]
    summary["stationary_max_residual"] = zero_res
    out_dir = os.path.join(str(out_root), "runs/ac6_identity_suite")
    os.makedirs(out_dir, exist_ok=True)
    write_summary(os.path.join(out_dir, "monitor_summary.txt"), summary)

    pretty = {k: ("floor" if not math.isfinite(v) else f"{v:.2f}") for k, v in orders.items()}
    report(
        "AC-6", ok_orders and ok_zero,
        f"residual refinement orders >= 1: {pretty}; stationary-state residuals "
        f"max {zero_res:.1e} (<= 1e-10); summary written",
    )


# -- AC-7: condition-checker oracle equivalence --------------------------------------------


def test_ac7_condition_oracle_equivalence():
    rng = np.random.default_rng(2024)
    agree = 0
    total = 0
    for _ in range(1000):
        a = rng.uniform(1.5, 3.0)
        w = rng.uniform(0.3, 1.5)
        b = rng.uniform(0.0, min(0.6, 0.9 / w))
        phi = rng.uniform(0.0, 2 * np.pi)
        p = RotationalProfile(
            f=lambda z, a=a, b=b, w=w, phi=phi: a + b * np.sin(w * np.asarray(z) + phi),
            df=lambda z, a=a, b=b, w=w, phi=phi: b * w * np.cos(w * np.asarray(z) + phi),
            d2f=lambda z, a=a, b=b, w=w, phi=phi: -b * w * w * np.sin(w * np.asarray(z) + phi),
            d3f=lambda z, a=a, b=b, w=w, phi=phi: -b * w**3 * np.cos(w * np.asarray(z) + phi),
            domain=(-5.0, 5.0),
        )
        z = float(rng.uniform(-4.0, 4.0))
        expr = condition_expression(p, z)
        bc = profile_curvature(p, z)
        other = -(bc.A_VV + min(bc.A_WW))
        total += 1
        if expr == 0.0 or other == 0.0 or np.sign(expr) == np.sign(other):
            agree += 1
    worst_ps = 0.0
    for A in (0.5, 1.0, 2.0):
        for B in (-1.0, 0.0, 1.0):
            p = pseudosphere(A, B)
            for z in np.linspace(-2.5, 2.5, 41):
                bc = profile_curvature(p, float(z))
                worst_ps = max(worst_ps, abs(bc.A_VV + bc.A_WW[0]))
    ok = agree == total and worst_ps <= 1e-12
    report(
        "AC-7", ok,
        f"sign agreement {agree}/{total} over random profiles; pseudo-sphere "
        f"|A_VV + A_WW| max {worst_ps:.1e} (<= 1e-12)",
    )


# -- AC-8: CMC foliation ------------------------------------------------------------------


def test_ac8_cmc_foliation():
    p = pseudosphere(1.0, 0.0)
    anchors = [z for z in np.linspace(-2.4, 2.6, 50) if abs(z) > 1e-3]
    worst_HR = 0.0
    worst_mono = math.inf
    for z in anchors:
        leaf = cmc_leaf_through(p, float(z))
        assert leaf.kind == "hyperbolic_plane"
        rho = np.linspace(0.0, float(p.f(z)) * 0.999, 25)
        H = leaf_mean_curvature(p, rho, float(z))
        worst_HR = max(worst_HR, float(np.abs(np.abs(H) * leaf.R - 2.0).max()))
        worst_mono = min(worst_mono, foliation_monotonicity(p, float(z)))
    g0 = foliation_monotonicity(p, 0.0)
    ok = worst_HR <= 1e-8 and worst_mono > 0.0 and abs(g0 - 0.5) <= 1e-12
    report(
        "AC-8", ok,
        f"{len(anchors)} leaves: | |H| R - 2 | max {worst_HR:.1e} (<= 1e-8), "
        f"monotonicity min {worst_mono:.3f} (> 0), g'(0) = {g0} (= 0.5 +/- 1e-12)",
    )


# -- AC-9: avoidance ---------------------------------------------------------------------


def test_ac9_avoidance():
    checks = []

    # scenario 3/4 grid: ordered bump pair on the disk
    dg = disk_grid(65, 1.0)
    grid = GridSpec("disk2d", 65)
    rho2 = dg.X**2 + dg.Y**2
    st_a = FlowState(grid, 0.0, np.zeros_like(dg.X), None)
    st_b = FlowState(grid, 0.0, np.where(dg.inside, 0.05 * (1 - rho2) ** 2, 0.0), None)
    out = comparison_pair_run(st_a, st_b, StepControl(cfl=0.4, t_end=0.03),
                              cylinder(1.0))
    gaps = out["min_gap"]
    checks.append(("disk bump pair", float(gaps.min()), bool(np.all(gaps[1:] > 0))))

    # constant shift pair
    st_c = FlowState(grid, 0.0, st_b.u + np.where(dg.inside, 0.05, 0.0), None)
    out2 = comparison_pair_run(st_b, st_c, StepControl(cfl=0.4, t_end=0.03),
                               cylinder(1.0))
    gaps2 = out2["min_gap"]
    checks.append(("disk shift pair", float(gaps2.min()), bool(np.all(gaps2[1:] > 0))))

    # scenario 5: perturbed plane above the stationary widest plane
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    rgrid = GridSpec("radial2d", 101)
    s_ref = rgrid.reference()
    rb = float(p.f(z0))
    st_p = FlowState(rgrid, 0.0, np.full(101, z0), rb)
    st_q = FlowState(rgrid, 0.0, z0 + 0.05 * (1 - s_ref**2) ** 2, rb)
    out3 = comparison_pair_run(st_p, st_q, StepControl(cfl=0.4, t_end=2.0), p)
    gaps3 = out3["min_gap"]
    checks.append(("sine plane pair", float(gaps3.min()), bool(np.all(gaps3[1:] > 0))))

    ok = all(gmin >= -1e-10 and strict for _, gmin, strict in checks)
    detail = "; ".join(f"{name}: min_gap {gmin:.1e}, strictly positive after step 1 = {strict}"
                       for name, gmin, strict in checks)
    report("AC-9", ok, detail)
