import math

import numpy as np
import pytest

from maxsurf import _kernels
from maxsurf.analytic import grim_reaper_boundary
from maxsurf.disk import disk_grid
from maxsurf.flow import (
    FlowError,
    FlowEvent,
    GuardTrip,
    StepControl,
    _run_python,
    comparison_pair_run,
    record_state,
    run,
    step,
)
from maxsurf.geometry import FlowState, GridSpec
from maxsurf.monitors import _consecutive_triples
from maxsurf.profiles import cylinder, pseudosphere, sine_tube, trumpet


def translator_state(t0: float, n: int) -> FlowState:
    xb = grim_reaper_boundary(t0)
    grid = GridSpec("curve1d", n)
    x = grid.reference() * xb
    return FlowState(grid, t0, np.log(np.cosh(x)) + t0, (-xb, xb))


def disk_state(u_fn, n, radius=1.0, t=0.0):
    grid = GridSpec("disk2d", n, radius)
    dg = disk_grid(n, radius)
    u = np.where(dg.inside, u_fn(dg.X, dg.Y), 0.0)
    return FlowState(grid, t, u, None)


def test_disk_fixed_point():
    st = disk_state(lambda x, y: 0.0 * x, 48)
    ctrl = StepControl()
    new = step(st, ctrl, cylinder(1.0))
    assert np.array_equal(new.u, st.u)
    assert new.t > st.t


def test_translator_one_step_error():
    st = translator_state(-1.0, 201)
    ctrl = StepControl(cfl=0.4)
    new = step(st, ctrl, trumpet())
    dt = new.t - st.t
    h = st.spacing()
    x = new.coords()
    exact = np.log(np.cosh(x)) + new.t
    err = np.abs(new.u - exact)
    # interior nodes and the boundary position meet the local truncation
    # bound; the rim values carry the stable ghost stencil's O(dt*h)
    assert err[2:-2].max() <= 20.0 * (dt * dt + dt * h * h)
    # rim values and position absorb the stable ghost stencil's O(dt*h)
    assert abs(new.boundary[1] - grim_reaper_boundary(new.t)) <= 2.0 * dt * h
    assert err.max() <= 2.0 * dt * h


def test_translator_boundary_speed():
    st = translator_state(-1.0, 401)
    ctrl = StepControl(cfl=0.4)
    new = step(st, ctrl, trumpet())
    dt = new.t - st.t
    xb_exact = grim_reaper_boundary(new.t)
    assert new.boundary[1] == pytest.approx(xb_exact, abs=5e-7)
    assert new.boundary[0] == pytest.approx(-xb_exact, abs=5e-7)
    # incidence is exact after projection
    assert new.u[-1] == pytest.approx(math.log(math.sinh(new.boundary[1])), abs=1e-12)


def test_guard_trip_definition():
    grid = GridSpec("curve1d", 51)
    x = grid.reference() * 1.0
    slope = math.sqrt(1.0 - 0.5 * 1e-3)   # margin = eps_guard/2
    st = FlowState(grid, 0.0, slope * x, (-1.0, 1.0))
    line = trumpet()
    with pytest.raises(GuardTrip):
        step(st, StepControl(eps_guard=1e-3), line)


def test_run_translator_window():
    st = translator_state(-1.0, 101)
    ctrl = StepControl(cfl=0.4, t_end=-0.8)
    traj = _run_python(st, ctrl, trumpet(), stride=50)
    assert traj.event is FlowEvent.TIME_EXHAUSTED
    assert traj.times[-1] == pytest.approx(-0.8, abs=1e-12)
    # space-time error against the exact translator
    errs = []
    for s in traj.states:
        x = s.coords()
        errs.append(np.abs(s.u - (np.log(np.cosh(x)) + s.t)).max())
    assert max(errs) < 2e-4
    # boundary tracks artanh(e^t)
    xb_err = abs(traj.states[-1].boundary[1] - grim_reaper_boundary(-0.8))
    assert xb_err < 2e-4


def test_convergence_order_translator():
    errs = []
    for n in (51, 101):
        st = translator_state(-1.0, n)
        ctrl = StepControl(cfl=0.4, t_end=-0.9)
        traj = _run_python(st, ctrl, trumpet(), stride=25)
        err = 0.0
        for s in traj.states:
            x = s.coords()
            err = max(err, np.abs(s.u - (np.log(np.cosh(x)) + s.t)).max())
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_stationary_maximal_states_are_fixed():
    # plane in the sine tube at the widest anchor
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    grid = GridSpec("radial2d", 101)
    rb = float(p.f(z0))
    st = FlowState(grid, 0.0, np.full(101, z0), rb)
    new = step(st, StepControl(), p)
    assert np.abs(new.u - z0).max() <= 1e-12
    assert new.boundary == pytest.approx(rb, abs=1e-12)


def test_run_guard_trip_on_steep_data():
    grid = GridSpec("curve1d", 101)
    line = trumpet()
    x = grid.reference() * 0.5
    st = FlowState(grid, math.log(math.tanh(0.5)), np.log(np.cosh(x)) + math.log(math.tanh(0.5)), (-0.5, 0.5))
    # translator started close to t = 0 blows up; give it room to evolve
    ctrl = StepControl(cfl=0.4, t_end=0.5, max_steps=2_000_000)
    traj = _run_python(st, ctrl, line, stride=1000)
    assert traj.event is FlowEvent.GUARD_TRIPPED
    assert traj.event_time < 0.0


@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d"])
def test_rk2_integrator(kind):
    # the two-stage scheme on the exact translator and on two maximal states
    if kind == "curve1d":
        st = translator_state(-1.0, 101)
        ctrl = StepControl(cfl=0.4, t_end=-0.8, integrator="rk2")
        traj = run(st, ctrl, trumpet(), stride=50)
        assert traj.event is FlowEvent.TIME_EXHAUSTED
        errs = [np.abs(s.u - (np.log(np.cosh(s.coords())) + s.t)).max() for s in traj.states]
        assert max(errs) < 2e-4
        assert abs(traj.states[-1].boundary[1] - grim_reaper_boundary(-0.8)) < 2e-4
        return
    if kind == "radial2d":
        p, z0 = sine_tube(2.0, 0.5, 1.0), math.pi / 2
        st = FlowState(GridSpec("radial2d", 101), 0.0, np.full(101, z0), float(p.f(z0)))
    else:
        p, z0 = cylinder(1.0), 0.0
        st = disk_state(lambda x, y: 0.0 * x, 48)
    traj = run(st, StepControl(max_steps=50, integrator="rk2"), p, stride=10)
    assert traj.event is FlowEvent.STEP_LIMIT
    for s in traj.states:
        assert np.abs(s.u - z0).max() <= 1e-12
        assert s.boundary == pytest.approx(st.boundary, abs=1e-12)


def test_comparison_identical_states():
    st = disk_state(lambda x, y: 0.02 * (1 - (x * x + y * y)) ** 2, 32)
    ctrl = StepControl(max_steps=40)
    out = comparison_pair_run(st, st.copy(), ctrl, cylinder(1.0))
    assert np.abs(out["min_gap"]).max() == 0.0


def test_comparison_constant_shift_gap_preserved():
    st_a = disk_state(lambda x, y: 0.02 * (1 - (x * x + y * y)) ** 2, 32)
    st_b = FlowState(st_a.grid, st_a.t, st_a.u + np.where(disk_grid(32, 1.0).inside, 0.05, 0.0), None)
    ctrl = StepControl(max_steps=60)
    out = comparison_pair_run(st_a, st_b, ctrl, cylinder(1.0))
    np.testing.assert_allclose(out["min_gap"], 0.05, atol=1e-12)


def test_comparison_everywhere_positive_bump():
    # cell-centered nodes never sit on the rim, so this bump is positive at
    # every node: strict gap from the very first record
    st_a = disk_state(lambda x, y: 0.0 * x, 32)
    st_b = disk_state(lambda x, y: 0.05 * (1 - (x * x + y * y)) ** 2, 32)
    ctrl = StepControl(max_steps=200)
    out = comparison_pair_run(st_a, st_b, ctrl, cylinder(1.0))
    gaps = out["min_gap"]
    assert np.all(gaps >= -1e-10)
    assert np.all(gaps[1:] > 0.0)


def test_comparison_compact_touching_lifts_off():
    # bump supported in rho < 0.5: genuine touching set, lift-off spreads
    st_a = disk_state(lambda x, y: 0.0 * x, 32)
    st_b = disk_state(
        lambda x, y: 0.05 * np.maximum(0.25 - (x * x + y * y), 0.0) ** 2 / 0.25**2, 32
    )
    ctrl = StepControl(max_steps=400)
    out = comparison_pair_run(st_a, st_b, ctrl, cylinder(1.0))
    gaps = out["min_gap"]
    assert gaps[0] == 0.0
    assert np.all(gaps >= -1e-10)
    assert gaps[-1] > 0.0  # strict once the influence cone reaches the rim


def test_comparison_below_stationary_plane():
    p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    grid = GridSpec("radial2d", 81)
    rb = float(p.f(z0))
    rho_s = np.linspace(0.0, 1.0, 81)
    u_a = z0 - 0.04 * (1 - rho_s**2) ** 2
    st_a = FlowState(grid, 0.0, u_a, rb)
    st_b = FlowState(grid, 0.0, np.full(81, z0), rb)
    ctrl = StepControl(max_steps=400)
    out = comparison_pair_run(st_a, st_b, ctrl, p,
                              motion_law_b=lambda s: (np.zeros_like(s.u), 0.0))
    assert np.all(out["min_gap"] >= -1e-10)


def test_comparison_pair_reports_a_guard_trip():
    # the translator pair blows up before t = 0; the trip ends the run as an
    # event, as it does for run()
    grid = GridSpec("curve1d", 101)
    t0 = math.log(math.tanh(0.5))
    x = grid.reference() * 0.5
    st = FlowState(grid, t0, np.log(np.cosh(x)) + t0, (-0.5, 0.5))
    ctrl = StepControl(cfl=0.4, t_end=0.5, max_steps=2_000_000)
    out = comparison_pair_run(st, st.copy(), ctrl, trumpet())
    assert out["traj_a"].event is FlowEvent.GUARD_TRIPPED
    assert out["traj_a"].event_time < 0.0
    assert np.abs(out["min_gap"]).max() == 0.0


def test_converged_run_labels_its_final_snapshot():
    # the converging step counts: the last snapshot is the state after it
    st = disk_state(lambda x, y: 0.01 * (1 - (x * x + y * y)) ** 2, 33)
    ctrl = StepControl(cfl=0.4, t_end=1.0, h_stop=1e-3)
    traj = _run_python(st, ctrl, cylinder(1.0), stride=1)
    assert traj.event is FlowEvent.CONVERGED
    steps = traj.state_steps
    assert all(b > a for a, b in zip(steps[:-1], steps[1:]))
    assert steps[-1] == traj.records.shape[0] - 1
    assert len(list(_consecutive_triples(traj))) == len(traj.states) - 2


def test_order_preservation_random_pairs():
    rng = np.random.default_rng(42)
    dg = disk_grid(32, 1.0)
    for _ in range(3):
        a1, a2 = rng.uniform(0.01, 0.05, 2)
        base = a1 * (1 - (dg.X**2 + dg.Y**2)) ** 2 * np.cos(2 * dg.X)
        extra = a2 * (1 - (dg.X**2 + dg.Y**2)) * (1.1 + np.sin(1.5 * dg.Y))
        st_a = FlowState(GridSpec("disk2d", 32), 0.0, np.where(dg.inside, base, 0.0), None)
        st_b = FlowState(GridSpec("disk2d", 32), 0.0, np.where(dg.inside, base + extra, 0.0), None)
        out = comparison_pair_run(st_a, st_b, StepControl(max_steps=120), cylinder(1.0))
        assert out["min_gap"].min() >= -1e-10


# These tests run both engines: the compiled step loop and the numpy reference.
needs_step_loop = pytest.mark.skipif(
    not _kernels.available, reason=f"compiled step loop not built: {_kernels.reason}")


@needs_step_loop
def test_fast_kernel_matches_reference_curve1d():
    st = translator_state(-1.0, 101)
    ctrl = StepControl(cfl=0.4, t_end=-0.95)
    ref = _run_python(st.copy(), ctrl, trumpet(), stride=100)
    fast = _kernels.run_fast(st.copy(), ctrl, trumpet(), stride=100)
    assert ref.event is fast.event
    assert ref.records.shape == fast.records.shape
    assert np.abs(ref.states[-1].u - fast.states[-1].u).max() < 1e-12
    assert abs(ref.states[-1].boundary[1] - fast.states[-1].boundary[1]) < 1e-12
    # boundary-residual monitors amplify trajectory ulps by 1/h^2
    d = np.abs(ref.records - fast.records)
    finite = np.isfinite(ref.records)
    assert np.nanmax(np.where(finite, d, 0.0)) < 1e-6
    core = [0, 1, 2, 4, 5, 6, 7, 8]
    assert np.abs(ref.records[:, core] - fast.records[:, core]).max() < 1e-12


@needs_step_loop
def test_fast_kernel_matches_reference_radial2d():
    # cylinder keeps the rim pinned (|f'| < 1e-13); the pseudosphere and the
    # sine tube take the incidence Newton
    grid = GridSpec("radial2d", 81)
    s_ref = np.linspace(0.0, 1.0, 81)
    for p, z0 in ((sine_tube(2.0, 0.5, 1.0), math.pi / 2), (cylinder(1.0), 0.0),
                  (pseudosphere(1.0, 0.0), 0.5)):
        st = FlowState(grid, 0.0, z0 + 0.05 * (1 - s_ref**2) ** 2, float(p.f(z0)))
        ctrl = StepControl(cfl=0.4, t_end=0.04)
        ref = _run_python(st.copy(), ctrl, p, stride=50)
        fast = _kernels.run_fast(st.copy(), ctrl, p, stride=50)
        assert ref.event is fast.event
        assert ref.records.shape == fast.records.shape
        assert np.abs(ref.states[-1].u - fast.states[-1].u).max() < 1e-12
        d = np.abs(ref.records - fast.records)
        finite = np.isfinite(ref.records)
        assert np.nanmax(np.where(finite, d, 0.0)) < 1e-8


@needs_step_loop
def test_fast_kernel_matches_reference_exits():
    # h_stop convergence, guard trip and the step limit end both engines alike
    st = translator_state(-1.0, 51)
    t_trip = math.log(math.tanh(0.5))
    steep = FlowState(st.grid, t_trip, np.log(np.cosh(st.grid.reference() * 0.5)) + t_trip,
                      (-0.5, 0.5))
    p = sine_tube(2.0, 0.5, 1.0)
    grid = GridSpec("radial2d", 41)
    bump = FlowState(grid, 0.0, math.pi / 2 + 0.02 * (1 - grid.reference() ** 2) ** 2,
                     float(p.f(math.pi / 2)))
    for state, ctrl, profile in (
        (bump, StepControl(h_stop=0.05, t_end=5.0), p),
        (steep, StepControl(t_end=0.5, max_steps=2_000_000), trumpet()),
        (st, StepControl(max_steps=7), trumpet()),
    ):
        ref = _run_python(state.copy(), ctrl, profile, stride=3)
        fast = _kernels.run_fast(state.copy(), ctrl, profile, stride=3)
        assert fast.event is ref.event
        assert fast.event_time == pytest.approx(ref.event_time, abs=1e-12)
        assert fast.state_steps == ref.state_steps
        assert all(b > a for a, b in zip(ref.state_steps[:-1], ref.state_steps[1:]))
        assert ref.state_steps[-1] == ref.records.shape[0] - 1
        assert [s.t for s in fast.states] == pytest.approx([s.t for s in ref.states], abs=1e-12)
        assert np.abs(ref.records[:, :11] - fast.records[:, :11]).max() < 1e-9


@needs_step_loop
def test_fast_kernel_failures_match_reference():
    # a time step underflow and an incidence Newton failure are told apart,
    # with the reference's own messages
    st = translator_state(-1.0, 51)
    cases = (
        (FlowState(st.grid, 1e20, st.u, st.boundary), StepControl(t_end=2e20), "underflow"),
        (FlowState(st.grid, -1.0, np.full(51, -50.0), st.boundary), StepControl(max_steps=5),
         "incidence Newton failed at x="),
    )
    for state, ctrl, words in cases:
        with pytest.raises(FlowError, match=words) as ref, np.errstate(all="ignore"):
            _run_python(state.copy(), ctrl, trumpet(), stride=10)
        with pytest.raises(FlowError) as fast:
            _kernels.run_fast(state.copy(), ctrl, trumpet(), stride=10)
        assert str(fast.value) == str(ref.value)


def test_run_falls_back_to_numpy_when_the_loop_cannot_load(monkeypatch, tmp_path):
    broken = tmp_path / "_step.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_kernels, "SOURCE", str(broken))
    monkeypatch.setattr(_kernels, "_loaded", None)
    st = translator_state(-1.0, 51)
    ctrl = StepControl(cfl=0.4, t_end=-0.98)
    traj = run(st.copy(), ctrl, trumpet(), stride=10)
    assert not _kernels.available
    assert _kernels.reason and "\n" not in _kernels.reason
    ref = _run_python(st.copy(), ctrl, trumpet(), stride=10)
    assert np.array_equal(traj.records, ref.records, equal_nan=True)
    assert all(np.array_equal(a.u, b.u) for a, b in zip(traj.states, ref.states))


def test_trajectory_invariants():
    st = translator_state(-1.0, 101)
    ctrl = StepControl(cfl=0.4, t_end=-0.95)
    traj = run(st, ctrl, trumpet(), stride=100)
    times = traj.times
    assert np.all(np.diff(times) > 0)
    snap_times = [s.t for s in traj.states]
    assert all(b > a for a, b in zip(snap_times[:-1], snap_times[1:]))


def test_guard_soundness_of_stored_states():
    # every stored state keeps the spacelike margin, except the terminal
    # snapshot of a guard-tripped run (the detected blow-up state itself)
    from maxsurf.geometry import spacelike_margin

    grid = GridSpec("curve1d", 101)
    t0 = math.log(math.tanh(0.5))
    x = grid.reference() * 0.5
    st = FlowState(grid, t0, np.log(np.cosh(x)) + t0, (-0.5, 0.5))
    ctrl = StepControl(cfl=0.4, t_end=0.5, max_steps=2_000_000, eps_guard=1e-3)
    traj = run(st, ctrl, trumpet(), stride=500)
    assert traj.event is FlowEvent.GUARD_TRIPPED
    margins = [spacelike_margin(s) for s in traj.states]
    assert all(m >= ctrl.eps_guard for m in margins[:-1])


def test_record_columns_finite():
    st = translator_state(-1.0, 101)
    rec = record_state(st, StepControl(), trumpet())
    from maxsurf.flow import RECORD_COLUMNS, _COL

    for name in RECORD_COLUMNS:
        if name == "min_gap":
            continue
        assert np.isfinite(rec[_COL[name]]), name
    # v = 1 identically on the translator
    assert rec[_COL["sup_v"]] == pytest.approx(1.0, abs=1e-10)
    # sup v_hat = cosh(x_b)
    assert rec[_COL["sup_v_hat"]] == pytest.approx(math.cosh(grim_reaper_boundary(-1.0)), rel=1e-4)
