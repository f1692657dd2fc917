import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from maxsurf import _kernels, monitors
from maxsurf.analytic import grim_reaper_boundary
from maxsurf.disk import disk_grid
from maxsurf.flow import StepControl, _run_python, run
from maxsurf.geometry import FlowState, GridSpec, SpacelikeError
from maxsurf.monitors import (
    _evolution_residuals_numpy,
    boundary_identities,
    estimate_monitors,
    evolution_residuals,
    stability_certificate,
    volume_identity,
)
from maxsurf.profiles import cylinder, pseudosphere, sine_tube, trumpet


def refinement_orders(values: list) -> list:
    """log(e_k / e_{k+1}) / log 2 between successive levels, each halving h."""
    out = []
    for a, b in zip(values[:-1], values[1:]):
        if a <= 0 or b <= 0:
            out.append(math.inf if b == 0 else math.nan)
        else:
            out.append(math.log(a / b) / math.log(2.0))
    return out


def translator_traj(n, t_end=-0.98, stride=1, max_steps=5_000_000, engine=_run_python):
    """The translator of n nodes from t = -1, stepped by the numpy reference
    loop unless engine is another runner (run gives the same records and states)."""
    xb = grim_reaper_boundary(-1.0)
    grid = GridSpec("curve1d", n)
    x = grid.reference() * xb
    st = FlowState(grid, -1.0, np.log(np.cosh(x)) - 1.0, (-xb, xb))
    ctrl = StepControl(cfl=0.4, t_end=t_end, max_steps=max_steps)
    return engine(st, ctrl, trumpet(), stride=stride)


def disk_traj(n, t_end=0.06, amp=0.1, stride=1, h_stop=0.0, max_steps=5_000_000):
    dg = disk_grid(n, 1.0)
    u0 = np.where(dg.inside, amp * (1 - (dg.X**2 + dg.Y**2)) ** 2, 0.0)
    st = FlowState(GridSpec("disk2d", n), 0.0, u0, None)
    ctrl = StepControl(cfl=0.4, t_end=t_end, h_stop=h_stop, max_steps=max_steps)
    return run(st, ctrl, cylinder(1.0), stride=stride)


def sine_tube_bump_traj(n, t_end=0.02):
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    s_ref = np.linspace(0.0, 1.0, n)
    st = FlowState(GridSpec("radial2d", n), 0.0, z0 + 0.05 * (1 - s_ref**2) ** 2, float(p.f(z0)))
    return run(st, StepControl(cfl=0.4, t_end=t_end), p, stride=1)


def stationary_disk_traj(n=33, steps=30):
    dg = disk_grid(n, 1.0)
    st = FlowState(GridSpec("disk2d", n), 0.0, np.zeros_like(dg.X), None)
    return run(st, StepControl(max_steps=steps), cylinder(1.0), stride=1)


# -- volume identity ---------------------------------------------------------


def test_volume_identity_stationary():
    traj = stationary_disk_traj()
    assert volume_identity(traj) <= 1e-12


def test_volume_identity_translator():
    traj = translator_traj(201, t_end=-0.7, stride=100, engine=run)
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


# evolution_residuals on these inputs, recorded (as reprs) from the per-triple
# evaluation that the block walk over stacked states replaced; the disk pins
# re-recorded when the disk stencils took reciprocals (res_H moved by 2.7e-15
# and 1.4e-12); the line kinds' pins re-recorded when the observer took the
# flow's evaluation, whose interior H = v_hat (u_xx / m) is within 2 ulps of
# u_xx / (m w), and the v terms its v_hat^2 for 1 / (1 - u_x^2) (res_H moved
# by 6.2e-13, -1.0e-15 and 1.0e-12, res_v by 2.2e-16, 0 and 0), and again
# when the line stencils took reciprocals, rhs = u_xx v_hat^2 and the
# trumpet's V became (sinh, cosh) (the translator's states moved by at most
# 7.8e-16; res_H by 2.1e-10, -7.0e-15 and 5.1e-12, res_v by -1.0e-12,
# 1.1e-13 and 0); and again when the trumpet supplied its V's derivatives,
# d2V exact where a difference of the coth form had been (res_v of the
# translator and one_triple moved by -5.5e-4 and +3.5e-5 relative), and the
# disk's Laplace-Beltrami took the evaluation's v_hat (disk res_H by +2.6e-14);
# disk2d_bump_65 (each state a block of its own at the default budget) and
# curve1d_translator_gap (a window across a missing snapshot) were recorded
# before the walk read its neighbours' rate inputs in place
RESIDUAL_PINS = {
    "curve1d_translator": {"res_H": 0.0003803520606153743, "res_v": 7.000044495038876e-09,
                           "triples": 119},
    "radial2d_sine_tube_bump": {"res_H": 0.005294952279122056,
                                "res_v": 1.2497681515645336e-05, "triples": 13},
    "disk2d_bump": {"res_H": 0.1364667827746758, "res_v": 0.007896377571038615,
                    "triples": 41},
    "one_triple": {"res_H": 0.000353435769207211, "res_v": 4.737984307421874e-09,
                   "triples": 1},
    "disk2d_bump_65": {"res_H": 0.034943792208020207, "res_v": 0.0020633741955830565,
                       "triples": 160},
    "curve1d_translator_gap": {"res_H": 0.00038062854654419276,
                               "res_v": 7.065736976503318e-09, "triples": 118},
}


def without_snapshot(traj, k):
    """traj with its k-th stored state removed: a gap of two steps."""
    return dataclasses.replace(traj, states=traj.states[:k] + traj.states[k + 1:],
                               state_steps=traj.state_steps[:k] + traj.state_steps[k + 1:])


def test_probe_window_centres_are_the_stride_1_triples():
    # the centres i whose stored neighbours are the adjacent steps, found in
    # one pass over the steps, wherever the gaps fall
    for steps in ([], [0], [0, 1], [0, 1, 2], [0, 2, 3, 4], [0, 1, 2, 4, 5, 6, 7],
                  [0, 1000, 1001, 1002, 1003, 3000]):
        centres = monitors._consecutive_triples(SimpleNamespace(state_steps=steps))
        assert centres.tolist() == [i for i in range(1, len(steps) - 1)
                                    if steps[i] - steps[i - 1] == 1 == steps[i + 1] - steps[i]]


def replace_state(traj, k, **changes):
    """traj with its k-th stored state's fields changed."""
    return dataclasses.replace(traj, states=traj.states[:k] + [
        dataclasses.replace(traj.states[k], **changes)] + traj.states[k + 1:])


@pytest.fixture(scope="module")
def residual_inputs():
    return {
        "curve1d_translator": (translator_traj(51), trumpet()),
        "radial2d_sine_tube_bump": (sine_tube_bump_traj(41), sine_tube(2.0, 0.5, 1.0)),
        "disk2d_bump": (disk_traj(33), cylinder(1.0)),
        "one_triple": (translator_traj(51, max_steps=2), trumpet()),
        "disk2d_bump_65": (disk_traj(65), cylinder(1.0)),
        # the gap sits three quarters in, inside the probe window
        "curve1d_translator_gap": (without_snapshot(tr := translator_traj(51),
                                                    3 * len(tr.states) // 4), trumpet()),
    }


def assert_same_values(got, want):
    assert got.keys() == want.keys()
    for key, val in want.items():
        if isinstance(val, float) and math.isnan(val):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == val, key


@pytest.mark.parametrize("name", sorted(RESIDUAL_PINS))
def test_evolution_residuals_pinned(residual_inputs, name):
    traj, profile = residual_inputs[name]
    if name == "one_triple":
        assert len(traj.states) == 3
    assert_same_values(evolution_residuals(traj, profile), RESIDUAL_PINS[name])


@pytest.mark.parametrize("budget", [1, 200])
def test_evolution_residuals_ignore_block_edges(residual_inputs, monkeypatch, budget):
    # budget 1: one state per block; 200 nodes: a few 1d states per block (a
    # disk state of N = 33 or 65 is a block of its own at every budget here);
    # blocks are the numpy walk's, so it runs whatever walks the disk
    monkeypatch.setattr(monitors, "RESIDUAL_BLOCK_NODES", budget)
    for name, (traj, profile) in residual_inputs.items():
        assert_same_values(_evolution_residuals_numpy(traj, profile), RESIDUAL_PINS[name])


# -- the compiled disk walk against the numpy walk --------------------------------

needs_library = pytest.mark.skipif(
    not _kernels.available, reason=f"compiled library not built: {_kernels.reason}")


def bump_traj(n, amp, tilt, steps):
    """A stride-1 disk run of steps steps from a bump with a tilt x (1 - r^2),
    which tells the two axes apart."""
    dg = disk_grid(n, 1.0)
    r2 = dg.X**2 + dg.Y**2
    u0 = np.where(dg.inside, amp * (1 - r2) ** 2 + tilt * dg.X * (1 - r2), 0.0)
    st = FlowState(GridSpec("disk2d", n), 0.0, u0, None)
    return run(st, StepControl(cfl=0.4, max_steps=steps), cylinder(1.0), stride=1)


def compiled_walk_calls(monkeypatch, name: str) -> list:
    """Records each call of the compiled walk _kernels.<name>."""
    calls = []
    walk = getattr(_kernels, name)

    def counted(*args):
        calls.append(len(args[0]))
        return walk(*args)

    monkeypatch.setattr(_kernels, name, counted)
    return calls


@needs_library
@given(hs.integers(13, 65), hs.floats(-0.3, 0.3), hs.floats(-0.1, 0.1), hs.integers(2, 30))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_compiled_disk_walk_equals_the_numpy_walk(n, amp, tilt, steps):
    traj = bump_traj(n, amp, tilt, steps)
    assert evolution_residuals(traj, cylinder(1.0)) == _evolution_residuals_numpy(traj,
                                                                                 cylinder(1.0))


@needs_library
def test_compiled_disk_walk_across_a_snapshot_gap(monkeypatch):
    traj = bump_traj(33, 0.2, 0.05, 40)
    gap = without_snapshot(traj, 3 * len(traj.states) // 4)
    calls = compiled_walk_calls(monkeypatch, "disk_residuals")
    res = evolution_residuals(gap, cylinder(1.0))
    assert calls and res == _evolution_residuals_numpy(gap, cylinder(1.0))
    # the three centres that read the missing state are gone from the window
    assert res["triples"] < evolution_residuals(traj, cylinder(1.0))["triples"]


@needs_library
def test_compiled_disk_walk_skips_a_nan_triple_and_keeps_the_guard():
    traj = bump_traj(33, 0.2, 0.05, 40)
    k = len(traj.states) - 2             # read by the last two triples only
    late = replace_state(traj, k, t=math.nan)
    res = evolution_residuals(late, cylinder(1.0))
    assert res == _evolution_residuals_numpy(late, cylinder(1.0))
    assert math.isfinite(res["res_H"]) and math.isfinite(res["res_v"])
    # a NaN height, or a step at the rim that no residual reads, trips
    # geometry's guard in both walks
    mid = len(traj.states[k].u) // 2
    rim = np.flatnonzero(disk_grid(33, 1.0).inside[mid])[-1]
    for node, value in (((mid, mid), math.nan), ((mid, rim), 1.0)):
        u = traj.states[k].u.copy()
        u[node] = value
        bad = replace_state(traj, k, u=u)
        for walk in (evolution_residuals, _evolution_residuals_numpy):
            with pytest.raises(SpacelikeError):
                walk(bad, cylinder(1.0))


@needs_library
@pytest.mark.parametrize("name", ["disk2d_bump", "disk2d_bump_65"])
def test_disk_residual_pins_hold_on_both_walks(residual_inputs, monkeypatch, name):
    traj, profile = residual_inputs[name]
    calls = compiled_walk_calls(monkeypatch, "disk_residuals")
    assert_same_values(evolution_residuals(traj, profile), RESIDUAL_PINS[name])
    assert len(calls) == 1
    assert_same_values(_evolution_residuals_numpy(traj, profile), RESIDUAL_PINS[name])
    assert len(calls) == 1


def test_disk_residuals_fall_back_to_the_numpy_walk(residual_inputs, monkeypatch):
    traj, profile = residual_inputs["disk2d_bump"]
    monkeypatch.setattr(_kernels, "_loaded", (None, "forced off"))
    calls = compiled_walk_calls(monkeypatch, "disk_residuals")
    assert_same_values(evolution_residuals(traj, profile), RESIDUAL_PINS["disk2d_bump"])
    assert calls == []


# -- the compiled curve1d walk against the numpy walk ------------------------------


def line_traj(n, t0, steps, tilt=0.0):
    """A stride-1 run of steps steps from the translator at time t0, plus
    tilt r (1 - r^2)^2 with r = x / x_b, which leaves the ends and their
    slopes as they are but makes the curve odd as well as even."""
    xb = grim_reaper_boundary(t0)
    grid = GridSpec("curve1d", n)
    x = grid.reference() * xb
    u0 = np.log(np.cosh(x)) + t0 + tilt * (x / xb) * (1.0 - (x / xb) ** 2) ** 2
    return run(FlowState(grid, t0, u0, (-xb, xb)), StepControl(cfl=0.4, max_steps=steps),
               trumpet(), stride=1)


def triple(traj, k):
    """traj's three stored states about the k-th: one centre."""
    return dataclasses.replace(traj, states=traj.states[k - 1:k + 2],
                               state_steps=traj.state_steps[k - 1:k + 2])


@needs_library
@given(hs.integers(11, 201), hs.floats(-3.0, -0.2), hs.integers(2, 40))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_compiled_curve1d_walk_equals_the_numpy_walk(n, t0, steps):
    traj = line_traj(n, t0, steps)
    assert evolution_residuals(traj, trumpet()) == _evolution_residuals_numpy(traj, trumpet())


@needs_library
@pytest.mark.parametrize("t0", [-3.0, -1.0, -0.3])
def test_compiled_curve1d_walk_equals_the_numpy_walk_at_one_node(t0):
    # at N = 11 the core is node 5 alone, and a triple has one centre, so
    # each result is one node's residual at one centre, to the last bit;
    # the tilt moves node 5 off the curve's axis, where d1 would read 0
    traj = line_traj(11, t0, 12, tilt=0.02)
    for k in range(1, len(traj.states) - 1):
        one = triple(traj, k)
        res = evolution_residuals(one, trumpet())
        assert res["triples"] == 1 and res["res_H"] > 0.0 and res["res_v"] > 0.0
        assert res == _evolution_residuals_numpy(one, trumpet())


@needs_library
@pytest.mark.parametrize("name", ["curve1d_translator", "one_triple", "curve1d_translator_gap"])
def test_curve1d_residual_pins_hold_on_both_walks(residual_inputs, monkeypatch, name):
    traj, profile = residual_inputs[name]
    calls = compiled_walk_calls(monkeypatch, "curve1d_residuals")
    assert_same_values(evolution_residuals(traj, profile), RESIDUAL_PINS[name])
    assert len(calls) == 1
    assert_same_values(_evolution_residuals_numpy(traj, profile), RESIDUAL_PINS[name])
    assert len(calls) == 1


@needs_library
def test_compiled_curve1d_walk_skips_a_nan_triple_and_keeps_the_guard():
    traj = translator_traj(51, max_steps=40)
    k = len(traj.states) - 2             # read by the last two triples only
    late = replace_state(traj, k, t=math.nan)
    res = evolution_residuals(late, trumpet())
    assert res == _evolution_residuals_numpy(late, trumpet())
    assert math.isfinite(res["res_H"]) and math.isfinite(res["res_v"])
    # neighbours at one time: the centre's nodes divide by dt = 0, and those
    # where x does not move read 0/0, so the centre is skipped, not inf
    tie = replace_state(traj, k - 1, t=traj.states[k + 1].t)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = evolution_residuals(tie, trumpet())
        assert res == _evolution_residuals_numpy(tie, trumpet())
    assert math.isfinite(res["res_H"]) and math.isfinite(res["res_v"])
    # a NaN height, a step near an end that no residual reads, a NaN end, or
    # an end so far out that s' rounds to 1 (the end's margin alone is 0)
    # trips geometry's guard in both walks
    u, xr = traj.states[k].u, traj.states[k].boundary[1]
    bad = [replace_state(traj, k, u=np.where(np.arange(51) == node, value, u))
           for node, value in ((25, math.nan), (1, u[1] + 1.0))]
    bad += [replace_state(traj, k, boundary=(xl, xr)) for xl in (math.nan, -40.0)]
    for walk in (evolution_residuals, _evolution_residuals_numpy):
        for b in bad:
            with pytest.raises(SpacelikeError, match="not strictly spacelike"):
                walk(b, trumpet())


@pytest.mark.parametrize("walk", [evolution_residuals, _evolution_residuals_numpy])
def test_curve1d_walks_need_eleven_nodes(walk):
    traj = line_traj(10, -1.0, 5)
    with pytest.raises(ValueError, match="need a curve of N >= 11: at N = 10"):
        walk(traj, trumpet())


def test_a_custom_planar_profile_takes_the_numpy_walk(residual_inputs, monkeypatch):
    traj, _ = residual_inputs["curve1d_translator"]
    calls = compiled_walk_calls(monkeypatch, "curve1d_residuals")
    custom = dataclasses.replace(trumpet(), kind="custom")
    assert_same_values(evolution_residuals(traj, custom), RESIDUAL_PINS["curve1d_translator"])
    assert calls == []


@needs_library
def test_a_custom_rotational_profile_keeps_the_compiled_disk_walk(residual_inputs, monkeypatch):
    # the disk's walk reads no profile
    traj, profile = residual_inputs["disk2d_bump"]
    calls = compiled_walk_calls(monkeypatch, "disk_residuals")
    custom = dataclasses.replace(profile, kind="custom")
    assert_same_values(evolution_residuals(traj, custom), RESIDUAL_PINS["disk2d_bump"])
    assert len(calls) == 1


def test_curve1d_residuals_fall_back_to_the_numpy_walk(residual_inputs, monkeypatch):
    traj, profile = residual_inputs["curve1d_translator"]
    monkeypatch.setattr(_kernels, "_loaded", (None, "forced off"))
    calls = compiled_walk_calls(monkeypatch, "curve1d_residuals")
    assert_same_values(evolution_residuals(traj, profile), RESIDUAL_PINS["curve1d_translator"])
    assert calls == []


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
        traj = translator_traj(n, t_end=-0.9, stride=100, engine=run)
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
        # the pseudo-sphere the hyperboloid meets perpendicularly at rho = 1.2
        g = geometry(st, pseudosphere(1.2 * R / u[-1], -R * R / u[-1]))
        phi = 30.0 - (rho**2 - u**2)
        lap = laplace_beltrami(st, phi, g)
        pairing = rho * g.nu[:, 0] - u * g.nu[:, 1]
        target = -4.0 - 2.0 * g.H * pairing
        err = np.abs(lap - target)[1:-1].max()
        vals.append(float(err))
    orders = refinement_orders(vals)
    assert min(orders) >= 1.6


def test_certificate_on_a_disk_without_deep_nodes():
    # at N = 6 no node has its whole stencil inside the disk
    dg = disk_grid(6, 1.0)
    st = FlowState(GridSpec("disk2d", 6), 0.0, np.where(dg.inside, 0.3, 0.0), None)
    with pytest.raises(ValueError, match="no deep-interior node") as info:
        stability_certificate(st, cylinder(1.0), center=(0.0, 0.0, 0.3))
    assert "\n" not in str(info.value)


def test_certificate_disk_interior_identity():
    # constant graph on the disk: Lap(R - |x-a|^2) = -4 at interior nodes
    dg = disk_grid(65, 1.0)
    st = FlowState(GridSpec("disk2d", 65), 0.0, np.where(dg.inside, 0.3, 0.0), None)
    cert = stability_certificate(st, cylinder(1.0), center=(0.0, 0.0, 0.3))
    assert cert.laplace_identity_max <= 1e-8
