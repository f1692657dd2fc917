import math
import os
import re
import shutil
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from maxsurf import _kernels
from maxsurf.analytic import grim_reaper_boundary
from maxsurf.disk import DiskGrid, disk_grid
from maxsurf.flow import (
    FlowError,
    FlowEvent,
    GuardTrip,
    RECORD_COLUMNS,
    StepControl,
    _end_block,
    _run_python,
    comparison_pair_run,
    record_state,
    run,
    step,
)
from maxsurf.geometry import FlowState, GridSpec, d1, evaluate, node_fields
from maxsurf.monitors import _consecutive_triples
from maxsurf.profiles import cylinder, pseudosphere, sine_tube, trumpet


def spacelike_margin(state: FlowState, profile) -> float:
    """The least 1 - |Du|^2 over the real nodes that the flow's guard compares."""
    with np.errstate(all="ignore"):
        return evaluate(state, profile).m_min


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
    assert traj.series("t")[-1] == pytest.approx(-0.8, abs=1e-12)
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
    # the flow keeps the widest plane stationary (f' = 0 there)
    out = comparison_pair_run(st_a, st_b, ctrl, p)
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


def test_comparison_pair_trips_before_the_first_step():
    # a spacelike pair whose margin is below the guard: no step, and each
    # trajectory holds the start's record and snapshot alone
    st = translator_state(-1.0, 21)
    out = comparison_pair_run(st, st.copy(), StepControl(eps_guard=0.99), trumpet())
    start = record_state(st, None, trumpet())
    for traj in (out["traj_a"], out["traj_b"]):
        assert traj.event is FlowEvent.GUARD_TRIPPED and traj.event_time == st.t
        assert traj.records.shape == (1, len(RECORD_COLUMNS))
        assert traj.records[0, :-1].tobytes() == start[:-1].tobytes()
        assert traj.state_steps == [0] and traj.states[0].u.tobytes() == st.u.tobytes()
    assert out["traj_a"].series("min_gap").tolist() == out["min_gap"].tolist() == [0.0]


@pytest.mark.parametrize("engine", ["library", "numpy"])
def test_run_and_pair_reject_a_start_that_is_not_spacelike(monkeypatch, engine):
    # start_error's reason, before any step, as a config's start gets it
    if engine == "numpy":
        monkeypatch.setattr(_kernels, "_loaded", (None, "forced off"))
    st = translator_state(-1.0, 21)
    bad = FlowState(st.grid, st.t, 1.2 * st.coords(), st.boundary)
    message = "the initial data are not spacelike: their least margin is -0.44"
    with pytest.raises(ValueError, match=message):
        run(bad, StepControl(), trumpet())
    with pytest.raises(ValueError, match=message):
        comparison_pair_run(st, bad, StepControl(), trumpet())
    # a spacelike start below the guard's margin still trips it
    assert run(st, StepControl(eps_guard=0.99), trumpet()).event is FlowEvent.GUARD_TRIPPED


def test_comparison_pair_reports_the_time_reached_at_the_step_limit():
    # a pair of equal states steps as one run: same event time, not the start time
    p = sine_tube(2.0, 0.5, 1.0)
    grid = GridSpec("radial2d", 21)
    z = math.pi / 2
    st = FlowState(grid, 0.0, z + 0.05 * (1 - grid.reference() ** 2) ** 2, float(p.f(z)))
    ctrl = StepControl(max_steps=50)
    traj = comparison_pair_run(st, st.copy(), ctrl, p)["traj_a"]
    ref = _run_python(st, ctrl, p, stride=100)
    assert traj.event is ref.event is FlowEvent.STEP_LIMIT
    assert traj.event_time == ref.event_time == traj.series("t")[-1] > traj.series("t")[-2] > 0.0
    assert traj.records.shape == ref.records.shape == (51, len(RECORD_COLUMNS))


def pair_ending(kind, ending):
    """(state, ctrl, profile) of a grid kind whose run ends at t_end (after
    more than one snapshot stride), at the step limit or by a guard trip; the
    line kinds trip after three steps, as their least margin falls, and the
    disk, whose margin grows, at its start."""
    if kind == "curve1d":
        t0 = math.log(math.tanh(0.5))
        grid = GridSpec("curve1d", 21)
        state = FlowState(grid, t0, np.log(np.cosh(grid.reference() * 0.5)) + t0, (-0.5, 0.5))
        profile, t_end, guard = trumpet(), t0 + 0.12, 0.7855     # margin 0.7864 at the start
    elif kind == "radial2d":
        profile, grid, z = sine_tube(2.0, 0.5, 1.0), GridSpec("radial2d", 21), 1.5 * math.pi + 0.2
        state = FlowState(grid, 0.0, np.full(21, z), float(profile.f(z)))
        t_end, guard = 0.17, 0.98955                               # margin 0.99013
    else:
        state, profile, t_end, guard = disk_bump(0.1, n=17), cylinder(1.0), 0.4, 0.99
    ctrl = {"t_end": StepControl(t_end=t_end), "step_limit": StepControl(max_steps=7),
            "guard": StepControl(eps_guard=guard, t_end=1.0)}[ending]
    return state, ctrl, profile


@pytest.mark.parametrize("ending", ["t_end", "step_limit", "guard"])
@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d"])
def test_a_pair_of_equal_states_steps_as_one_run(kind, ending):
    # the pair and _run_python are one loop: each trajectory of an equal pair
    # is the single run's, bit for bit, and traj_a's min_gap column is the
    # pair's gap at every record
    state, ctrl, profile = pair_ending(kind, ending)
    out = comparison_pair_run(state, state.copy(), ctrl, profile)
    ref = _run_python(state, ctrl, profile, 100)
    event = {"t_end": FlowEvent.TIME_EXHAUSTED, "step_limit": FlowEvent.STEP_LIMIT,
             "guard": FlowEvent.GUARD_TRIPPED}[ending]
    assert ref.event is event
    traj_a = out["traj_a"]
    assert traj_a.series("min_gap").tobytes() == out["min_gap"].tobytes()
    assert out["min_gap"].tolist() == [0.0] * ref.records.shape[0]
    traj_a.records[:, RECORD_COLUMNS.index("min_gap")] = np.nan
    assert_same_run(traj_a, ref)
    assert_same_run(out["traj_b"], ref)


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


@pytest.mark.parametrize("bad", [
    {"max_steps": 0}, {"max_steps": -3}, {"h_stop": -1.0}, {"h_stop": math.nan},
    {"h_stop": math.inf}, {"t_end": math.nan}, {"t_end": math.inf}, {"t_end": -math.inf}])
def test_step_control_rejects_what_the_config_rejects(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        StepControl(**bad)


@pytest.mark.parametrize("driver", [
    "run", "_run_python", pytest.param("run_fast", marks=needs_step_loop),
    "comparison_pair_run"])
def test_a_budget_of_one_step_takes_one_step(driver):
    st, ctrl, p = translator_state(-1.0, 51), StepControl(max_steps=1), trumpet()
    if driver == "comparison_pair_run":
        traj = comparison_pair_run(st, st.copy(), ctrl, p)["traj_a"]
    else:
        engine = {"run": run, "_run_python": _run_python, "run_fast": _kernels.run_fast}
        traj = engine[driver](st.copy(), ctrl, p, 1)
    assert traj.event is FlowEvent.STEP_LIMIT
    # the last record is the final state's
    assert traj.records.shape[0] - 1 == 1 and traj.event_time == traj.series("t")[-1] > st.t


@needs_step_loop
def test_fast_kernel_matches_reference_curve1d():
    st = translator_state(-1.0, 101)
    ctrl = StepControl(cfl=0.4, t_end=-0.95)
    ref = _run_python(st.copy(), ctrl, trumpet(), stride=100)
    fast = _kernels.run_fast(st.copy(), ctrl, trumpet(), stride=100)
    assert ref.event is fast.event
    # the engines take the trumpet's functions from libm and one V formula:
    # the snapshots, their ends and the records agree bit for bit
    assert ref.state_steps == fast.state_steps
    assert all(a.u.tobytes() == b.u.tobytes() and a.boundary == b.boundary
               for a, b in zip(ref.states, fast.states))
    assert np.array_equal(ref.records, fast.records, equal_nan=True)


@needs_step_loop
def test_fast_kernel_matches_reference_radial2d():
    # cylinder keeps the rim pinned (|f'| < 1e-13); the pseudosphere and the
    # sine tube take the incidence Newton.  Over these runs of 200 to 1,300
    # steps the states, the rim radii, the event time and all 17 record
    # columns agree bit for bit, so a reordering that shows only over a long
    # run fails here.  The sine tube from z0 = 0 (f' = 0.5) moves its rim
    # from 2.000 to 2.071 in 407 steps, which the node drift term must follow
    grid = GridSpec("radial2d", 81)
    s_ref = np.linspace(0.0, 1.0, 81)
    for p, z0 in ((sine_tube(2.0, 0.5, 1.0), math.pi / 2), (sine_tube(2.0, 0.5, 1.0), 0.0),
                  (cylinder(1.0), 0.0), (pseudosphere(1.0, 0.0), 0.5)):
        st = FlowState(grid, 0.0, z0 + 0.05 * (1 - s_ref**2) ** 2, float(p.f(z0)))
        ctrl = StepControl(cfl=0.4, t_end=0.04)
        ref = _run_python(st.copy(), ctrl, p, stride=50)
        fast = _kernels.run_fast(st.copy(), ctrl, p, stride=50)
        assert ref.event is fast.event
        assert fast.event_time == ref.event_time
        assert fast.state_steps == ref.state_steps
        assert all(a.u.tobytes() == b.u.tobytes() and a.t == b.t and
                   np.float64(a.boundary).tobytes() == np.float64(b.boundary).tobytes()
                   for a, b in zip(ref.states, fast.states))
        assert ref.records.shape == fast.records.shape
        assert ref.records.tobytes() == fast.records.tobytes()


def disk_bump(amp, n=33, radius=1.0, base=0.0):
    return disk_state(lambda x, y: base + amp * (1 - (x * x + y * y) / radius**2) ** 2, n,
                      radius)


@needs_step_loop
def test_fast_kernel_matches_reference_disk2d():
    # AC-3's fixed point to the step limit, a bump to h_stop at two strides, a
    # disk of radius 0.8, a steep bump (margin 0.040) under a guard at 0.05,
    # and 20 steps at N = 101 (99-node rows: the vector body and its tail);
    # both engines apply the same ghost operator and neither reads the
    # profile on the disk, so the states and all 17 record columns agree bit
    # for bit
    bump = disk_bump
    events = set()
    for state, ctrl, profile, stride in (
        (bump(0.0), StepControl(max_steps=40), cylinder(1.0), 7),
        (bump(0.1), StepControl(h_stop=1e-3, t_end=10.0), cylinder(1.0), 1),
        (bump(0.1), StepControl(h_stop=1e-3, t_end=10.0), cylinder(1.0), 7),
        (bump(0.05, radius=0.8), StepControl(t_end=0.01), cylinder(0.8), 5),
        (bump(0.64), StepControl(eps_guard=0.05, t_end=1.0), cylinder(1.0), 3),
        (bump(0.1, 101), StepControl(max_steps=20), cylinder(1.0), 5),
    ):
        ref = _run_python(state.copy(), ctrl, profile, stride=stride)
        fast = _kernels.run_fast(state.copy(), ctrl, profile, stride=stride)
        assert fast.event is ref.event
        assert fast.event_time == ref.event_time
        assert fast.state_steps == ref.state_steps
        assert fast.records.shape == ref.records.shape
        assert all(a.u.shape == b.u.shape and a.u.tobytes() == b.u.tobytes() and
                   a.t == b.t and b.boundary is None for a, b in zip(ref.states, fast.states))
        assert ref.records.tobytes() == fast.records.tobytes()
        events.add(ref.event)
    assert events == set(FlowEvent)


@needs_step_loop
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(n=hs.integers(9, 49), base=hs.floats(-1.0, 1.0), steps=hs.integers(3, 5),
       bumps=hs.lists(hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-0.5, 0.5),
                                hs.floats(-0.5, 0.5), hs.floats(0.2, 1.0)),
                      min_size=1, max_size=3))
def test_engines_agree_on_random_disk_states(n, base, steps, bumps):
    # sums of Gaussian bumps on the cylinder, scaled to a least margin of 0.3;
    # the disk's row runs (up to N = 9..49 inside nodes) leave every remainder
    # mod 4 after the row kernel's vector body; on the cylinder the rim
    # columns of the record agree bit for bit too
    dg = disk_grid(n)
    shape = sum(a * np.exp(-((dg.X - cx) ** 2 + (dg.Y - cy) ** 2) / s**2)
                for a, cx, cy, s in bumps)
    grid = GridSpec("disk2d", n)
    steepest = 1.0 - spacelike_margin(FlowState(grid, 0.0, shape, None), cylinder(1.0))
    scale = min(1.0, math.sqrt(0.7 / steepest)) if steepest > 0.0 else 1.0
    state = FlowState(grid, 0.0, np.where(dg.inside, base + scale * shape, 0.0), None)
    assert spacelike_margin(state, cylinder(1.0)) > 0.29
    ctrl = StepControl(max_steps=steps)
    ref = _run_python(state.copy(), ctrl, cylinder(1.0), stride=1)
    fast = _kernels.run_fast(state.copy(), ctrl, cylinder(1.0), stride=1)
    assert fast.event is ref.event is FlowEvent.STEP_LIMIT
    assert fast.state_steps == ref.state_steps == list(range(steps + 1))
    assert all(a.u.tobytes() == b.u.tobytes() and a.t == b.t
               for a, b in zip(ref.states, fast.states))
    assert ref.records.tobytes() == fast.records.tobytes()


@needs_step_loop
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
# a pseudosphere node where pow(z + B, 2) and (z + B)^2 differ in the last bit
@example(n=9, base=1 / 3, steps=3, profile=pseudosphere(0.5, 1 / 3),
         coeffs=[-0.6901071997242987, -0.6760692237033132])
@given(n=hs.integers(9, 121), base=hs.floats(-1.0, 1.0), steps=hs.integers(3, 5),
       profile=hs.one_of(hs.builds(cylinder, hs.floats(0.5, 2.0)),
                         hs.builds(sine_tube, hs.floats(1.0, 2.5), hs.floats(-0.9, 0.9),
                                   hs.floats(0.3, 1.0)),
                         hs.builds(pseudosphere, hs.floats(0.5, 2.0), hs.floats(-1.0, 1.0))),
       coeffs=hs.lists(hs.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_engines_agree_on_random_radial_states(n, base, steps, profile, coeffs):
    # even polynomials in s = rho/rho_b that vanish at the rim, scaled to a
    # least margin of 0.3 (the rim's is the tube's slope's), with the rim on
    # the tube: pinned on a cylinder, by the incidence Newton on a sine tube or
    # a pseudosphere; the states, the rim radii and all 17 record columns
    # agree bit for bit
    grid = GridSpec("radial2d", n)
    s = grid.reference()
    shape = sum(c * (s ** (2 * k + 2) - 1.0) for k, c in enumerate(coeffs))
    rb = float(profile.f(base))
    slope = d1(base + shape, rb / (n - 1))[1:]     # 0 on the axis
    steepest = float((slope * slope).max())
    scale = min(1.0, math.sqrt(0.7 / steepest)) if steepest > 0.0 else 1.0
    state = FlowState(grid, 0.0, base + scale * shape, rb)
    rim = 1.0 - float(profile.df(base)) ** 2
    assert spacelike_margin(state, profile) > min(0.29, rim - 1e-12)
    ctrl = StepControl(max_steps=steps)
    with np.errstate(invalid="ignore"):     # a guard trip's record: sqrt of a negative margin
        ref = _run_python(state.copy(), ctrl, profile, stride=1)
        fast = _kernels.run_fast(state.copy(), ctrl, profile, stride=1)
    assert fast.event is ref.event and fast.event_time == ref.event_time
    assert fast.state_steps == ref.state_steps
    assert all(a.u.tobytes() == b.u.tobytes() and a.t == b.t and
               np.float64(a.boundary).tobytes() == np.float64(b.boundary).tobytes()
               for a, b in zip(ref.states, fast.states))
    # a guard trip's record holds NaN, whose sign bit the engines need not share
    nan_as_one = [np.where(np.isnan(r), np.nan, r).tobytes() for r in (ref.records, fast.records)]
    assert nan_as_one[0] == nan_as_one[1]


@needs_step_loop
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(n=hs.integers(9, 121), t0=hs.floats(-1.2, -0.4), steps=hs.integers(3, 5),
       coeffs=hs.lists(hs.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_engines_agree_on_random_curve_states(n, t0, steps, coeffs):
    # translators on the trumpet plus (1 - s^2) times a polynomial in s =
    # x/x_b, which keeps the ends on the trumpet, scaled down where needed to
    # a least margin of 0.3 inside; both engines take the trumpet's s, s' and
    # s'' from libm and its V field from the same exp_parts, so the states, the
    # ends and all 17 record columns agree bit for bit
    st = translator_state(t0, n)
    s = st.grid.reference()
    shape = (1.0 - s * s) * sum(c * s**k for k, c in enumerate(coeffs))
    a, b = (d1(f, st.spacing())[1:-1] for f in (st.u, shape))
    # the largest scale c <= 1 with |a + c b| <= sqrt(0.7) at every inside node
    steep = np.abs(b) > 1e-12
    room = (math.sqrt(0.7) - np.sign(b) * a)[steep] / np.abs(b[steep])
    scale = min(1.0, float(room.min())) if room.size else 1.0
    state = FlowState(st.grid, t0, st.u + scale * shape, st.boundary)
    ends = 1.0 - math.tanh(st.boundary[1]) ** 2
    assert spacelike_margin(state, trumpet()) > min(0.29, ends - 1e-12)
    ctrl = StepControl(max_steps=steps)
    with np.errstate(invalid="ignore"):     # a guard trip's record: sqrt of a negative margin
        ref = _run_python(state.copy(), ctrl, trumpet(), stride=1)
        fast = _kernels.run_fast(state.copy(), ctrl, trumpet(), stride=1)
    assert fast.event is ref.event and fast.event_time == ref.event_time
    assert fast.state_steps == ref.state_steps
    assert all(a.u.tobytes() == b.u.tobytes() and a.t == b.t and
               np.float64(a.boundary).tobytes() == np.float64(b.boundary).tobytes()
               for a, b in zip(ref.states, fast.states))
    # a guard trip's record holds NaN, whose sign bit the engines need not share
    nan_as_one = [np.where(np.isnan(r), np.nan, r).tobytes() for r in (ref.records, fast.records)]
    assert nan_as_one[0] == nan_as_one[1]


@needs_step_loop
def test_fast_kernel_record_propagates_nan_disk2d():
    # a negative margin (amplitude 1.0) trips the guard at step 0; the sups and
    # the integrals of the trip record are NaN in both engines, the range of u
    # and the bounds finite
    state, ctrl = disk_bump(1.0), StepControl(eps_guard=0.05, t_end=1.0)
    with np.errstate(all="ignore"):
        ref = _run_python(state.copy(), ctrl, cylinder(1.0), stride=3)
        fast = _kernels.run_fast(state.copy(), ctrl, cylinder(1.0), stride=3)
    assert ref.event is fast.event is FlowEvent.GUARD_TRIPPED
    assert ref.state_steps == fast.state_steps == [0]
    assert ref.records.shape == fast.records.shape == (1, 17)
    nan_cols = [1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 16]
    assert np.isnan(fast.records[0, nan_cols]).all()
    assert np.isfinite(fast.records[0, [0, 6, 7, 8, 9, 10]]).all()
    assert np.array_equal(ref.records, fast.records, equal_nan=True)


def _take_max(acc, x):
    """_step.c's TAKE_MAX: the first NaN sticks, and a tie keeps acc."""
    return x if acc == acc and not acc >= x else acc


def _take_min(acc, x):
    return x if acc == acc and not acc <= x else acc


def _node_order_sups(state, profile):
    """(sup v, sup v_hat, sup |H|, min u, max u) of the reference's per-node
    fields over the real nodes, walked in node order."""
    from maxsurf.flow import _KINDS

    ev = evaluate(state, profile)
    fields = _KINDS[state.grid.kind].record(state, profile, ev, node_fields(state, profile, ev))
    u, v, v_hat, H = fields[:4]
    mask = fields[7] if len(fields) > 7 else slice(None)    # the disk's inside nodes
    u, v, v_hat, H = ([float(x) for x in a[mask]] for a in (u, v, v_hat, np.abs(H)))
    return (reduce(_take_max, v, -math.inf), reduce(_take_max, v_hat, -math.inf),
            reduce(_take_max, H, -math.inf), reduce(_take_min, u, math.inf),
            reduce(_take_max, u, -math.inf))


def _sups_case(kind, zero):
    """(state, profile, flat indices of its inside nodes): a bump, or a state
    whose inside nodes may all be zeroed, of each kind"""
    if kind == "disk2d":
        st = disk_bump(0.0) if zero else disk_bump(0.1, base=0.1)
        return st, cylinder(1.0), np.flatnonzero(disk_grid(st.grid.n, st.grid.radius).inside)
    if kind.startswith("radial2d"):
        # the rim on the tube: the sine tube's f(0) = 2 holds for the zero ties
        p = sine_tube(2.0, 0.5, 1.0) if kind == "radial2d_sine_tube" else cylinder(1.0)
        grid = GridSpec("radial2d", 41)
        u = 0.0 * grid.reference() if zero else 0.1 + 0.1 * (1 - grid.reference() ** 2) ** 2
        return FlowState(grid, 0.0, u, float(p.f(u[-1]))), p, np.arange(41)
    if not zero:
        return translator_state(-1.0, 41), trumpet(), np.arange(1, 40)
    # the ends on the trumpet where s(x) = log sinh x is 0 (to roundoff)
    xb, u = math.asinh(1.0), np.zeros(41)
    u[[0, -1]] = trumpet().s(xb)
    return FlowState(GridSpec("curve1d", 41), 0.0, u, (-xb, xb)), trumpet(), np.arange(1, 40)


@needs_step_loop
@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d", "radial2d_sine_tube"])
@pytest.mark.parametrize("special", ["nan", "inf", "zero_tie_minus_first", "zero_tie_plus_first",
                                     "zero_tie_minus_after_positive"])
def test_fast_kernel_sups_follow_node_order(kind, special):
    # a NaN, a +inf or a tie of +0.0 and -0.0 at inside nodes: the C record's
    # sups and range of u, simd reductions elsewhere, are the node-order
    # walk's, bit for bit (on the sine tube a NaN or an inf node goes
    # through libm's cos in radial2d's f' pass)
    st, profile, inside = _sups_case(kind, special.startswith("zero"))
    u = st.u.ravel()
    if special == "nan":
        u[inside[inside.size // 3]] = np.nan
    elif special == "inf":
        u[inside[inside.size // 2]] = np.inf
    elif special == "zero_tie_minus_after_positive":
        # a positive node, then -0.0, then +0.0: a vector lane that starts on
        # the positive node ends on a +0.0 where the node order takes the
        # -0.0 (on the disk the alternating ties above land as the node
        # order does, so only this pattern needs the zero-range fallback)
        u[inside] = 0.0
        u[inside[0]] = 1e-9
        u[inside[1]] = -0.0
    else:
        first, other = (-0.0, 0.0) if special == "zero_tie_minus_first" else (0.0, -0.0)
        u[inside[0::2]] = first
        u[inside[1::2]] = other
    with np.errstate(all="ignore"):
        fast = _kernels.run_fast(st.copy(), StepControl(max_steps=3), profile, stride=1)
        # the rows the C loop wrote: an inf (m = -inf) or a NaN (m = NaN) trips
        # the guard at once, the zero ties reach the step limit, whose row is
        # the reference's
        c_rows = len(fast.records) - (fast.event is not FlowEvent.GUARD_TRIPPED)
        assert c_rows == (3 if special.startswith("zero") else 1)
        for j, state in enumerate(fast.states[:c_rows]):
            want = _node_order_sups(state, profile)
            got = fast.records[j, [1, 2, 3, 7, 8]]
            assert [float(x).hex() for x in got] == [x.hex() for x in want], (j, got, want)
        if special.startswith("zero"):     # the start's range of u ends on a zero
            assert 0.0 in _node_order_sups(fast.states[0], profile)[3:]


@needs_step_loop
def test_fast_kernel_sup_v_hat_is_that_of_the_least_margin():
    # on random spacelike states of each kind the record's sup v_hat is
    # 1/sqrt(m_min) bit for bit, m_min the reference's least margin
    rng = np.random.default_rng(7)
    p = sine_tube(2.0, 0.5, 1.0)
    cases = []
    for _ in range(4):
        st = translator_state(-1.0 + 0.1 * rng.random(), 41)
        x = st.coords()
        u = st.u + rng.uniform(0.07, 0.09) * np.exp(-((x - rng.uniform(-0.1, 0.1)) / 0.1) ** 2)
        u[1:-1] += 1e-3 * rng.standard_normal(39)
        cases.append((FlowState(st.grid, st.t, u, st.boundary), trumpet()))
        grid = GridSpec("radial2d", 41)
        s = grid.reference()
        u = math.pi / 2 + rng.uniform(0.01, 0.1) * (1 - s**2) ** 2
        cases.append((FlowState(grid, 0.0, u + 1e-3 * rng.standard_normal(41) * (1 - s),
                                float(p.f(math.pi / 2))), p))
        st = disk_bump(rng.uniform(0.02, 0.2), n=21, base=0.1)
        noise = 1e-3 * rng.standard_normal(st.u.shape)
        st.u[:] = np.where(disk_grid(21).inside, st.u + noise, 0.0)
        cases.append((st, cylinder(1.0)))
    for state, profile in cases:
        fast = _kernels.run_fast(state.copy(), StepControl(max_steps=3), profile, stride=1)
        for j, s in enumerate(fast.states[:-1]):
            m_min = spacelike_margin(s, profile)
            assert 0.0 < m_min < 1.0
            if s.grid.kind != "disk2d":
                # these states' least margin is inside, where the stencil
                # multiplies by the reciprocal of 2h
                ux = (s.u[2:] - s.u[:-2]) * (1.0 / (2.0 * s.spacing()))
                assert m_min == (1.0 - ux * ux).min()
            assert float(fast.records[j, 2]).hex() == (1.0 / math.sqrt(m_min)).hex()


@needs_step_loop
def test_step_loop_exp_and_V_are_the_reference_formulas():
    # _step.c's exp_parts and trumpet_V give profiles._exp_parts' and the
    # trumpet's V bits over its domain and past it, and e^a is within 1 ulp
    # of math.exp (glibc's) on [1e-8, 12]
    from maxsurf.profiles import _exp_parts

    lib = _kernels.load()[0]
    a = np.concatenate([np.linspace(1e-8, 12.0, 200_001), np.geomspace(1e-8, 12.0, 100_001)])
    e, em1 = np.empty_like(a), np.empty_like(a)
    lib.maxsurf_exp_parts(a.size, a, e, em1)
    assert [x.tobytes() for x in (e, em1)] == [x.tobytes() for x in _exp_parts(a)]
    libm = np.array([math.exp(x) for x in a])
    assert (np.abs(e - libm) / np.spacing(libm)).max() <= 1.0
    x = np.concatenate([-a, a, [0.0, -0.0, 20.0, -20.0, np.nan]])
    Vx, Vt = np.empty_like(x), np.empty_like(x)
    lib.maxsurf_trumpet_V(x.size, x, 1e-8, 12.0, Vx, Vt)
    assert [v.tobytes() for v in (Vx, Vt)] == [v.tobytes() for v in trumpet().V(x)]


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12, 33, 101])
def test_disk_row_runs_cover_the_inside_nodes(n):
    grid = DiskGrid(n, 0.8)
    tables, _arrays = _kernels._disk_tables(grid)
    m = n + 2
    for x in range(m):
        run = np.arange(tables.row_lo[x], tables.row_hi[x])
        assert np.array_equal(run, x * m + np.flatnonzero(grid.inside[x]))
    assert sum(tables.row_hi[x] - tables.row_lo[x] for x in range(m)) == grid.inside.sum()


def test_disk_tables_reject_a_row_with_a_hole():
    grid = DiskGrid(9)
    x = grid.inside.shape[0] // 2
    cols = np.flatnonzero(grid.inside[x])
    grid.inside[x, cols[cols.size // 2]] = False
    with pytest.raises(ValueError, match="one run"):
        _kernels._disk_tables(grid)


@needs_step_loop
def test_fast_kernel_matches_reference_exits():
    # h_stop convergence, guard trip and the step limit end both engines alike
    st = translator_state(-1.0, 51)
    t_trip = math.log(math.tanh(0.5))
    steep = FlowState(st.grid, t_trip, np.log(np.cosh(st.grid.reference() * 0.5)) + t_trip,
                      (-0.5, 0.5))
    p = sine_tube(2.0, 0.5, 1.0)
    grid = GridSpec("radial2d", 41)
    rb = float(p.f(math.pi / 2))
    bump = FlowState(grid, 0.0, math.pi / 2 + 0.02 * (1 - grid.reference() ** 2) ** 2, rb)
    # margin 0.031 against a guard at 0.05
    steep_bump = FlowState(grid, 0.0, math.pi / 2 + 1.6 * (1 - grid.reference() ** 2) ** 2, rb)
    for state, ctrl, profile in (
        (bump, StepControl(h_stop=0.05, t_end=5.0), p),
        (steep, StepControl(t_end=0.5, max_steps=2_000_000), trumpet()),
        (st, StepControl(max_steps=7), trumpet()),
        (steep_bump, StepControl(eps_guard=0.05, t_end=5.0), p),
        (bump, StepControl(max_steps=7), p),
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
    # a time step underflow (on each grid kind) and an incidence Newton failure
    # are told apart, with the reference's own messages
    st = translator_state(-1.0, 51)
    grid = GridSpec("radial2d", 41)
    tube = sine_tube(2.0, 0.5, 1.0)
    bump = math.pi / 2 + 0.02 * (1 - grid.reference() ** 2) ** 2
    # a nearly lightlike tube (|f'| up to 0.99) with the rim off it, at rho = 0.5
    # against f(3) = 2.14: Newton ends with a residual of 2.4e-3
    near_null = sine_tube(2.0, 0.99, 1.0)
    cases = (
        (FlowState(st.grid, 1e20, st.u, st.boundary), StepControl(t_end=2e20), trumpet(),
         "underflow"),
        (FlowState(st.grid, -1.0, np.full(51, -50.0), st.boundary), StepControl(max_steps=5),
         trumpet(), "incidence Newton failed at x="),
        (FlowState(grid, 1e20, bump, float(tube.f(math.pi / 2))), StepControl(t_end=2e20), tube,
         "underflow"),
        (FlowState(grid, 0.0, np.full(41, 3.0), 0.5), StepControl(max_steps=5), near_null,
         "incidence Newton failed at rho="),
        (disk_state(lambda x, y: 0.05 * (1 - (x * x + y * y)) ** 2, 33, t=1e20),
         StepControl(t_end=2e20), cylinder(1.0), "underflow"),
    )
    for state, ctrl, profile, words in cases:
        with pytest.raises(FlowError, match=words) as ref, np.errstate(all="ignore"):
            _run_python(state.copy(), ctrl, profile, stride=10)
        with pytest.raises(FlowError) as fast:
            _kernels.run_fast(state.copy(), ctrl, profile, stride=10)
        assert str(fast.value) == str(ref.value)


def chunk_cases():
    """(state, ctrl, profile, stride) of runs of each grid kind taking
    hundreds of steps: a guard trip, convergence, t_end and the step limit."""
    st = translator_state(-1.0, 51)
    steep = FlowState(st.grid, math.log(math.tanh(0.5)),
                      np.log(np.cosh(st.grid.reference() * 0.5)) + math.log(math.tanh(0.5)),
                      (-0.5, 0.5))
    tube, grid = sine_tube(2.0, 0.5, 1.0), GridSpec("radial2d", 41)
    bump = FlowState(grid, 0.0, math.pi / 2 + 0.02 * (1 - grid.reference() ** 2) ** 2,
                     float(tube.f(math.pi / 2)))
    return (
        (st, StepControl(t_end=-0.95), trumpet(), 3),                              # 579 steps
        (steep, StepControl(t_end=0.5), trumpet(), 5),                             # trips at 4009
        (bump, StepControl(h_stop=0.01, t_end=5.0), tube, 3),                      # converges at 679
        (disk_bump(0.1), StepControl(h_stop=1e-3, t_end=10.0), cylinder(1.0), 7),  # at 639
        (disk_bump(0.0), StepControl(max_steps=150), cylinder(1.0), 7),
    )


def assert_same_run(a, b):
    assert a.records.shape == b.records.shape and a.records.tobytes() == b.records.tobytes()
    assert (a.event, a.event_time, a.state_steps) == (b.event, b.event_time, b.state_steps)
    assert all(x.t == y.t and x.u.tobytes() == y.u.tobytes() and x.boundary == y.boundary
               for x, y in zip(a.states, b.states, strict=True))


@needs_step_loop
@pytest.mark.parametrize("chunk", [7, 64])
def test_chunked_runs_equal_one_chunk_runs(monkeypatch, chunk):
    # every chunk's records land in one buffer that grows in place; any chunk
    # size gives the one-chunk run's records, states and exit, bit for bit
    from maxsurf import flow

    events = set()
    for state, ctrl, profile, stride in chunk_cases():
        whole = _kernels.run_fast(state.copy(), ctrl, profile, stride)
        assert whole.records.shape[0] > 2 * chunk
        with monkeypatch.context() as m:
            m.setattr(flow, "CHUNK_STEPS", chunk)
            parts = _kernels.run_fast(state.copy(), ctrl, profile, stride)
        assert_same_run(parts, whole)
        events.add(whole.event)
    assert events == set(FlowEvent)


@pytest.mark.parametrize("chunk", [7, 64])
def test_numpy_records_grow_by_chunks(monkeypatch, chunk):
    # the numpy engine collects its records in the same buffer, a chunk at a time
    from maxsurf import flow

    for state, ctrl, profile, stride in [chunk_cases()[i] for i in (0, 4)]:
        whole = _run_python(state.copy(), ctrl, profile, stride)
        with monkeypatch.context() as m:
            m.setattr(flow, "CHUNK_STEPS", chunk)
            parts = _run_python(state.copy(), ctrl, profile, stride)
        assert_same_run(parts, whole)


def nan_start(kind):
    """(a state with a NaN at one interior node, its profile) of a grid kind."""
    if kind == "curve1d":
        state, profile = translator_state(-1.0, 51), trumpet()
    elif kind == "radial2d":
        profile = sine_tube(2.0, 0.5, 1.0)
        grid = GridSpec("radial2d", 41)
        state = FlowState(grid, 0.0, math.pi / 2 + 0.02 * (1 - grid.reference() ** 2) ** 2,
                          float(profile.f(math.pi / 2)))
    else:
        state, profile = disk_bump(0.1, base=0.1), cylinder(1.0)
    u = state.u.reshape(-1)
    u[u.size // 2] = np.nan
    return state, profile


@pytest.mark.parametrize("engine", [
    "numpy", pytest.param("c", marks=needs_step_loop)])
@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d"])
def test_nan_margin_trips_the_guard(kind, engine):
    # a NaN margin is no margin: the run stops on its first record, as a
    # negative margin would, rather than stepping on with a NaN time
    state, profile = nan_start(kind)
    engine_run = _run_python if engine == "numpy" else _kernels.run_fast
    with np.errstate(all="ignore"):
        traj = engine_run(state.copy(), StepControl(t_end=1.0, max_steps=50), profile, 1)
    assert traj.event is FlowEvent.GUARD_TRIPPED
    assert traj.event_time == state.t
    assert traj.records.shape == (1, 17)
    assert traj.state_steps == [0]


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
    disk = disk_state(lambda x, y: 0.05 * (1 - (x * x + y * y)) ** 2, 33)
    ctrl = StepControl(max_steps=20)
    traj = run(disk.copy(), ctrl, cylinder(1.0), stride=10)
    ref = _run_python(disk.copy(), ctrl, cylinder(1.0), stride=10)
    assert np.array_equal(traj.records, ref.records, equal_nan=True)
    assert all(np.array_equal(a.u, b.u) for a, b in zip(traj.states, ref.states))


@needs_step_loop
def test_a_cached_library_is_loaded_only_under_its_own_key(monkeypatch, tmp_path):
    # the cache names a library by its key's CRC-32 and keeps the key beside
    # it; a stored key one source byte off is rebuilt over, not loaded
    monkeypatch.setattr(_kernels, "_cache_dir", lambda: str(tmp_path))
    compiles = []
    compile_ = _kernels._compile
    monkeypatch.setattr(_kernels, "_compile", lambda cc, out: (compiles.append(out),
                                                               compile_(cc, out)))
    path = _kernels._build()
    key = (tmp_path / os.path.basename(path)).with_suffix(".key")
    assert len(compiles) == 1 and key.is_file()
    assert _kernels._build() == path and len(compiles) == 1
    stored = key.read_bytes()
    with open(_kernels.SOURCE, "rb") as f:
        head = f.read(60)[40:]
    assert repr(head)[2:-1].encode() == head    # the key holds it as it stands
    key.write_bytes(stored.replace(head, head[:-1] + bytes([head[-1] ^ 1]), 1))
    assert _kernels._build() == path and len(compiles) == 2
    assert key.read_bytes() == stored
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [os.path.basename(path), key.name])


@needs_step_loop
def test_a_compile_that_times_out_is_a_one_line_reason(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "_cache_dir", lambda: str(tmp_path))
    monkeypatch.setattr(_kernels, "COMPILE_TIMEOUT_S", 1e-3)
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert not _kernels.available
    assert "timed out" in _kernels.reason and "\n" not in _kernels.reason
    assert list(tmp_path.iterdir()) == []


LOAD_GUARD = """
import sys
from maxsurf import _kernels, flow
from maxsurf.analytic import grim_reaper_boundary
from maxsurf.geometry import FlowState, GridSpec
from maxsurf.profiles import trumpet
import numpy as np

assert _kernels.available, _kernels.reason
grid = GridSpec("curve1d", 51)
xb = grim_reaper_boundary(-1.0)
state = FlowState(grid, -1.0, np.log(np.cosh(grid.reference() * xb)) - 1.0, (-xb, xb))
traj = flow.run(state, flow.StepControl(t_end=-0.99), trumpet())
assert traj.event is flow.FlowEvent.TIME_EXHAUSTED
print(" ".join(m for m in ("subprocess", "hashlib") if m in sys.modules) or "none")
"""


@needs_step_loop
def test_loading_the_cached_library_imports_no_build_modules():
    # the library is built (this test module loaded it): a fresh interpreter
    # loads it from the cache without subprocess or hashlib (OpenSSL)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(_kernels.SOURCE), os.pardir))
    proc = subprocess.run([sys.executable, "-c", LOAD_GUARD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "none"


def test_run_sends_euler_runs_to_the_step_loop(monkeypatch):
    # the library decides, not the grid kind: a disk2d run it serves takes the
    # compiled loop, one it does not serve the numpy engine, and so does a
    # start already at t_end, which takes no step
    from maxsurf import flow

    calls = []
    monkeypatch.setattr(_kernels, "run_fast", lambda *a: calls.append("run_fast"))
    monkeypatch.setattr(flow, "_run_python", lambda *a: calls.append("_run_python"))
    disk = disk_state(lambda x, y: 0.0 * x, 33)
    monkeypatch.setattr(_kernels, "_loaded", (object(), None))
    run(disk, StepControl(max_steps=3), cylinder(1.0))
    run(disk, StepControl(t_end=disk.t), cylinder(1.0))
    monkeypatch.setattr(_kernels, "_loaded", (None, "forced off"))
    run(disk, StepControl(max_steps=3), cylinder(1.0))
    assert calls == ["run_fast", "_run_python", "_run_python"]


@pytest.mark.parametrize("engine", ["numpy", pytest.param("c", marks=needs_step_loop)])
@pytest.mark.parametrize("profile", [pseudosphere(1.0, 0.0), sine_tube(1.0, 0.1, 3.0),
                                     cylinder(0.8)], ids=["pseudosphere", "sine_tube", "R0.8"])
def test_disk_takes_the_cylinder_of_its_radius_alone(monkeypatch, profile, engine):
    # du/drho = 0 on the fixed rim is the condition of the cylinder through it:
    # any other tube is refused before a step, whichever engine would run
    from maxsurf import flow

    if engine == "numpy":
        monkeypatch.setattr(_kernels, "_loaded", (None, "forced off"))
    stepped = []
    monkeypatch.setattr(flow, "_advance", lambda *a, **k: stepped.append(a))
    disk = disk_bump(0.05)
    ctrl = StepControl(max_steps=3)
    with pytest.raises(ValueError, match=r"disk2d state needs cylinder\(1\.0\)"):
        run(disk, ctrl, profile)
    with pytest.raises(ValueError, match="disk2d state needs"):
        step(disk, ctrl, profile)
    with pytest.raises(ValueError, match="disk2d state needs"):
        comparison_pair_run(disk, disk.copy(), ctrl, profile)
    assert stepped == []
    if engine == "c":
        with pytest.raises(ValueError, match="disk2d state needs"):
            _kernels.run_fast(disk, ctrl, profile, 1)


def test_end_block_reads_the_high_end_on_reversed_arrays():
    # the low end of the reversed arrays is the high end, bit for bit, but for
    # the sign of v's one-sided derivative: res_v sees it unless v = 1 at the rim
    rng = np.random.default_rng(11)
    for _ in range(20):
        H, v, v_hat = rng.standard_normal(9), rng.uniform(1.0, 3.0, 9), rng.uniform(1.0, 5.0, 9)
        a_vv, a_ww, h = rng.standard_normal(), rng.standard_normal(), rng.uniform(0.01, 1.0)
        for v_rim, same in ((v[-1], (0, 2, 3, 4)), (1.0, (0, 1, 2, 3, 4))):
            v[-1] = v_rim
            hi = _end_block(H, v, v_hat, h, True, a_vv, a_ww)
            lo = _end_block(H[::-1].copy(), v[::-1].copy(), v_hat[::-1].copy(), h, False, a_vv,
                            a_ww)
            assert [np.float64(hi[k]).tobytes() for k in same] == \
                [np.float64(lo[k]).tobytes() for k in same]
        assert hi[1] > 0.0          # res_v = |dv v_hat| at v = 1: equal, and not as 0 = 0


def test_line_kinds_take_their_boundary_type():
    with pytest.raises(ValueError, match="curve1d state needs a planar boundary, not cylinder"):
        run(translator_state(-1.0, 21), StepControl(max_steps=1), cylinder(1.0))
    radial = FlowState(GridSpec("radial2d", 21), 0.0, np.zeros(21), 1.0)
    with pytest.raises(ValueError, match="radial2d state needs a rotational tube, not trumpet"):
        run(radial, StepControl(max_steps=1), trumpet())


def test_step_loop_compiles_without_warnings(tmp_path):
    try:
        cc = _kernels._compiler()
    except _kernels.BuildError as exc:
        pytest.skip(str(exc))
    proc = subprocess.run([*cc, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "_step.so"), _kernels.SOURCE, *_kernels.LDLIBS],
                          capture_output=True, text=True, timeout=_kernels.COMPILE_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr


def test_step_loop_flags_keep_the_reference_arithmetic():
    # the flags may vectorise, but never contract, reassociate outside the
    # declared reductions, assume finite values or tune for the build machine
    assert "-ffp-contract=off" in _kernels.CFLAGS
    banned = {"-ffast-math", "-Ofast", "-ffinite-math-only", "-fassociative-math",
              "-funsafe-math-optimizations", "-fno-signed-zeros"}
    assert [f for f in _kernels.CFLAGS if f in banned or f.startswith("-march=")] == []


def test_step_loop_constants_match_their_python_mirrors():
    # _kernels mirrors these from _step.c by hand; ctypes cannot check them
    with open(_kernels.SOURCE) as f:
        source = f.read()
    defines = dict(re.findall(r"^#define (\w+) (\d+)$", source, re.M))
    assert int(defines["NREC"]) == len(RECORD_COLUMNS)
    assert int(defines["CSV_VALUE_BYTES"]) == _kernels.CSV_VALUE_BYTES
    enums = {}
    for body in re.findall(r"^enum \{(.*?)\};", source, re.M | re.S):
        value = -1
        for item in body.split(","):
            name, _, given = item.strip().partition(" = ")
            value = int(given) if given else value + 1
            enums[name] = value
    status = {name[3:]: v for name, v in enums.items() if name.startswith("ST_")}
    assert status == {name[8:]: getattr(_kernels, name)
                      for name in dir(_kernels) if name.startswith("_STATUS_")}
    assert {name[2:].lower(): v for name, v in enums.items() if name.startswith("K_")} == \
        {kind: k.code for kind, k in _kernels.KINDS.items()}
    profiles = {name[2:].lower(): v for name, v in enums.items() if name.startswith("P_")}
    assert profiles == {name: code for name, (code, _) in _kernels.PROFILES.items()
                        if name != "trumpet"}
    assert _kernels.PROFILES["trumpet"][0] not in profiles.values()
    # the residual walks' work arrays: the disk's two rings and its scratch,
    # curve1d's one ring
    assert (3 * enums["F_ARRAYS"] + 2 * enums["G_ARRAYS"] + enums["SCRATCH_ARRAYS"]
            == _kernels.DISK_WALK_BOXES)
    assert 3 * enums["L_ARRAYS"] == _kernels.LINE_WALK_ARRAYS
    # the step loop's work arrays
    assert enums["STEP_ARRAYS"] == _kernels.STEP_WORK_ARRAYS


def test_built_package_ships_the_step_loop_source(tmp_path):
    # without _step.c an installed package could never build the loop
    pytest.importorskip("setuptools")
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    shutil.copy(os.path.join(root, "pyproject.toml"), tmp_path)
    shutil.copytree(os.path.join(root, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()", "build_py",
                    "--build-lib", str(tmp_path / "build")],
                   cwd=tmp_path, check=True, capture_output=True, timeout=120)
    assert (tmp_path / "build" / "maxsurf" / "_step.c").is_file()


def test_trajectory_invariants():
    st = translator_state(-1.0, 101)
    ctrl = StepControl(cfl=0.4, t_end=-0.95)
    traj = run(st, ctrl, trumpet(), stride=100)
    times = traj.series("t")
    assert np.all(np.diff(times) > 0)
    snap_times = [s.t for s in traj.states]
    assert all(b > a for a, b in zip(snap_times[:-1], snap_times[1:]))


def test_guard_soundness_of_stored_states():
    # every stored state keeps the spacelike margin, except the terminal
    # snapshot of a guard-tripped run (the detected blow-up state itself)
    grid = GridSpec("curve1d", 101)
    t0 = math.log(math.tanh(0.5))
    x = grid.reference() * 0.5
    st = FlowState(grid, t0, np.log(np.cosh(x)) + t0, (-0.5, 0.5))
    ctrl = StepControl(cfl=0.4, t_end=0.5, max_steps=2_000_000, eps_guard=1e-3)
    traj = run(st, ctrl, trumpet(), stride=500)
    assert traj.event is FlowEvent.GUARD_TRIPPED
    margins = [spacelike_margin(s, trumpet()) for s in traj.states]
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
