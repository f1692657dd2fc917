import math

import numpy as np
import pytest

from maxsurf.analytic import grim_reaper_boundary
from maxsurf.disk import disk_grid
from maxsurf.flow import StepControl, _run_python, run
from maxsurf.geometry import FlowState, GridSpec
from maxsurf.monitors import (
    boundary_identities,
    estimate_monitors,
    evolution_residuals,
    refinement_orders,
    stability_certificate,
    volume_identity,
)
from maxsurf.profiles import cylinder, sine_tube, trumpet


def translator_traj(n, t_end=-0.98, stride=1):
    xb = grim_reaper_boundary(-1.0)
    grid = GridSpec("curve1d", n)
    x = grid.reference() * xb
    st = FlowState(grid, -1.0, np.log(np.cosh(x)) - 1.0, (-xb, xb))
    return _run_python(st, StepControl(cfl=0.4, t_end=t_end), trumpet(), stride=stride)


def disk_traj(n, t_end=0.06, amp=0.1, stride=1, h_stop=0.0, max_steps=5_000_000):
    dg = disk_grid(n, 1.0)
    u0 = np.where(dg.inside, amp * (1 - (dg.X**2 + dg.Y**2)) ** 2, 0.0)
    st = FlowState(GridSpec("disk2d", n), 0.0, u0, None)
    ctrl = StepControl(cfl=0.4, t_end=t_end, h_stop=h_stop, max_steps=max_steps)
    return run(st, ctrl, cylinder(1.0), stride=stride)


def stationary_disk_traj(n=33, steps=30):
    dg = disk_grid(n, 1.0)
    st = FlowState(GridSpec("disk2d", n), 0.0, np.zeros_like(dg.X), None)
    return run(st, StepControl(max_steps=steps), cylinder(1.0), stride=1)


# -- volume identity ---------------------------------------------------------


def test_volume_identity_stationary():
    traj = stationary_disk_traj()
    assert volume_identity(traj) <= 1e-12


def test_volume_identity_translator():
    traj = translator_traj(201, t_end=-0.7, stride=100)
    res = volume_identity(traj)
    assert res <= 1e-3
    # volume strictly increases on the translator (H != 0 everywhere)
    vol = traj.series("volume")
    assert vol[-1] > vol[0]
    ih2 = traj.series("int_H2_dV")
    assert np.all(ih2 > 0)


def test_volume_identity_disk_relaxation():
    traj = disk_traj(65, t_end=0.2)
    assert volume_identity(traj) <= 1e-3


# -- evolution residuals -------------------------------------------------------


def test_evolution_residuals_zero_on_stationary():
    traj = stationary_disk_traj()
    res = evolution_residuals(traj, cylinder(1.0))
    assert res["res_H"] <= 1e-10
    assert res["res_v"] <= 1e-10


def test_evolution_residuals_translator_refine():
    vals = []
    for n in (101, 201):
        res = evolution_residuals(translator_traj(n), trumpet())
        vals.append(res["res_H"])
        # v = 1 identically on the translator: the v identity closes tightly
        assert res["res_v"] < 1e-7
    order = refinement_orders(vals)[0]
    assert order >= 1.0


def test_evolution_residuals_disk_refine():
    vals_H, vals_v = [], []
    for n in (33, 65):
        res = evolution_residuals(disk_traj(n), cylinder(1.0))
        vals_H.append(res["res_H"])
        vals_v.append(res["res_v"])
    assert refinement_orders(vals_H)[0] >= 1.0
    assert refinement_orders(vals_v)[0] >= 1.0


def test_evolution_residuals_need_stride_one():
    traj = translator_traj(101, stride=50)
    with pytest.raises(ValueError):
        evolution_residuals(traj, trumpet())


# -- boundary identities ----------------------------------------------------------


def test_boundary_identities_translator():
    vals = []
    for n in (101, 201):
        b = boundary_identities(translator_traj(n), trumpet())
        vals.append(b["res_Hmu"])
        assert b["res_vmu"] < 1e-9
    assert refinement_orders(vals)[0] >= 1.0


def test_boundary_identities_exact_states_second_order():
    # on closed-form translator states the rim identity data are O(h^2)
    from maxsurf.flow import StepControl, record_state, _COL

    vals = []
    for n in (101, 201, 401):
        xb = grim_reaper_boundary(-1.0)
        grid = GridSpec("curve1d", n)
        x = grid.reference() * xb
        st = FlowState(grid, -1.0, np.log(np.cosh(x)) - 1.0, (-xb, xb))
        vals.append(record_state(st, StepControl(), trumpet())[_COL["bdry_res_Hmu"]])
    orders = refinement_orders(vals)
    assert min(orders) >= 1.6


def test_boundary_sign_series_sine_tube():
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    grid = GridSpec("radial2d", 201)
    s_ref = np.linspace(0.0, 1.0, 201)
    st = FlowState(grid, 0.0, z0 + 0.05 * (1 - s_ref**2) ** 2, float(p.f(z0)))
    traj = run(st, StepControl(cfl=0.4, t_end=1.0), p, stride=200)
    # sign conclusion grad_mu v <= 0: exact for the 2-point rim difference
    assert traj.series("bdry_grad_v_max").max() <= 1e-8
    b = boundary_identities(traj, p)
    assert b["res_vmu"] < 1e-4
    # grad_mu H^2 <= -H^2 A(V,V): established by the flow (the raw initial
    # data need not satisfy the time-derivative identity), then held to 1e-8
    assert b["H2_ineq_max"] <= 1e-8


def test_volume_identity_refines_on_translator():
    vals = []
    for n in (101, 201):
        traj = translator_traj(n, t_end=-0.9, stride=100)
        vals.append(volume_identity(traj))
    assert refinement_orders(vals)[0] >= 1.0


# -- estimate monitors --------------------------------------------------------------


def test_estimate_monitors_stationary():
    traj = stationary_disk_traj()
    est = estimate_monitors(traj)
    assert est["h_sup_monotone"] is True
    assert est["grad_bound_fit"]["C1"] >= 1.0


def test_estimate_monitors_disk_relaxation_monotone():
    traj = disk_traj(65, t_end=0.3)
    est = estimate_monitors(traj)
    # cylinder boundary: A^Sig(nu,nu) >= 0, the maximum-principle regime
    assert est["boundary_Asig_min"] >= -1e-10
    assert est["h_sup_monotone"] is True
    fit = est["h_vs_v_fit"]
    mh = np.maximum.accumulate(traj.series("sup_H"))
    mv = np.maximum.accumulate(traj.series("sup_v"))
    assert np.all(mh <= fit["C1"] + fit["C2"] * mv ** fit["p"] + 1e-12)


def test_estimate_monitors_trumpet_blowup_recorded():
    xb = grim_reaper_boundary(-1.0)
    grid = GridSpec("curve1d", 201)
    x = grid.reference() * xb
    st = FlowState(grid, -1.0, np.log(np.cosh(x)) - 1.0, (-xb, xb))
    traj = run(st, StepControl(cfl=0.4, t_end=0.5, max_steps=2_000_000),
               trumpet(), stride=2000)
    est = estimate_monitors(traj)
    # trumpet fails the curvature condition: monotonicity is not asserted
    assert est["h_sup_monotone"] is None
    assert est["boundary_Asig_min"] < 0
    # witnesses recorded and growing toward the blow-up
    assert est["grad_bound_fit"]["C1"] >= 1.0
    v_hat = traj.series("sup_v_hat")
    assert v_hat[-1] > 10.0


# -- stability certificate --------------------------------------------------------------


def widest_plane_state(n=101):
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    grid = GridSpec("radial2d", n)
    return p, z0, FlowState(grid, 0.0, np.full(n, z0), float(p.f(z0)))


def test_certificate_widest_plane_ok():
    p, z0, st = widest_plane_state()
    cert = stability_certificate(st, p, center=(0.0, 0.0, z0))
    assert cert.hypothesis_ok
    assert cert.ok
    assert cert.interior_margin >= cert.epsilon
    assert cert.boundary_margin >= 0.0
    # interior identity Lap phi = -2n on a maximal surface
    assert cert.laplace_identity_max <= 1e-8


def test_certificate_thinnest_plane_hypothesis_fails():
    p = sine_tube(2.0, 0.5, 1.0)
    z1 = 3 * math.pi / 2
    grid = GridSpec("radial2d", 101)
    st = FlowState(grid, 0.0, np.full(101, z1), float(p.f(z1)))
    cert = stability_certificate(st, p, center=(0.0, 0.0, z1))
    assert not cert.hypothesis_ok
    assert not cert.ok
    assert "hypothesis" in cert.reason


def test_certificate_flat_disk_marginal():
    dg = disk_grid(65, 1.0)
    st = FlowState(GridSpec("disk2d", 65), 0.0, np.zeros_like(dg.X), None)
    cert = stability_certificate(st, cylinder(1.0), center=(0.0, 0.0, 0.0))
    # A^Sig(nu,nu) = 0 on the cylinder at a flat disk: not constructible
    assert not cert.hypothesis_ok
    assert not cert.ok


def test_certificate_requires_near_maximal_state():
    p, z0, st = widest_plane_state()
    st.u = st.u + 0.05 * (1 - st.grid.reference() ** 2) ** 2
    with pytest.raises(ValueError):
        stability_certificate(st, p, center=(0.0, 0.0, z0))


def test_certificate_laplace_identity_exact_on_planes():
    # the divergence-form Laplacian is exact on quadratics: planes give the
    # identity at machine precision for every resolution
    for n in (51, 201):
        p, z0, st = widest_plane_state(n)
        cert = stability_certificate(st, p, center=(0.0, 0.0, z0))
        assert cert.laplace_identity_max <= 1e-8


def test_ambient_laplacian_identity_refines_on_curved_state():
    # general identity Lap phi = -2n - 2H <x-a, nu> for phi = R - |x-a|^2;
    # the hyperboloid (H = 2/R) exercises the curved-metric terms
    from maxsurf.geometry import geometry, laplace_beltrami

    R = 1.5
    vals = []
    for n in (51, 101, 201):
        grid = GridSpec("radial2d", n)
        rho = grid.reference() * 1.2
        u = np.sqrt(R * R + rho**2)
        st = FlowState(grid, 0.0, u, 1.2)
        g = geometry(st, None)
        phi = 30.0 - (rho**2 - u**2)
        lap = laplace_beltrami(st, phi)
        pairing = rho * g.nu[:, 0] - u * g.nu[:, 1]
        target = -4.0 - 2.0 * g.H * pairing
        err = np.abs(lap - target)[1:-1].max()
        vals.append(float(err))
    orders = refinement_orders(vals)
    assert min(orders) >= 1.6


def test_certificate_disk_interior_identity():
    # constant graph on the disk: Lap(R - |x-a|^2) = -4 at interior nodes
    dg = disk_grid(65, 1.0)
    st = FlowState(GridSpec("disk2d", 65), 0.0, np.where(dg.inside, 0.3, 0.0), None)
    cert = stability_certificate(st, cylinder(1.0), center=(0.0, 0.0, 0.3))
    assert cert.laplace_identity_max <= 1e-8
