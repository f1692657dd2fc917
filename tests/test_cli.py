import contextlib
import io
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from maxsurf import _kernels, runner
from maxsurf.cli import main
from maxsurf.config import parse_config
from maxsurf.disk import disk_grid
from maxsurf.flow import RECORD_COLUMNS, FlowError, FlowEvent, Trajectory, run
from maxsurf.geometry import FlowState, GridSpec, geometry
from maxsurf.profiles import cylinder, sine_tube, trumpet
from maxsurf.scenarios import Scenario, build_scenario


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("MAXSURF_OUT", str(root))
    return root


def test_run_exit_0_and_outputs(tmp_path, out_root):
    cfg = write(tmp_path, "ok.cfg",
                "scenario = cylinder_disk\nnodes = 33\ninitial = constant(0)\n"
                "max_steps = 200\nsnapshot_stride = 100\nout_dir = ok\n")
    assert main(["run", cfg]) == 0
    files = sorted(os.listdir(out_root / "ok"))
    assert files == ["final_profile.csv", "monitor_summary.txt", "timeseries.csv"]
    header = (out_root / "ok" / "final_profile.csv").read_text().splitlines()[0]
    assert header == "s,physical_coord,u,H,v,v_hat,normA2,dV"


def test_run_exit_2_guard_trip(tmp_path, out_root):
    cfg = write(tmp_path, "blow.cfg",
                "scenario = grim_reaper\nnodes = 101\nt0 = -0.05\nt_end = 0.5\n"
                "snapshot_stride = 500\nout_dir = blow\n")
    assert main(["run", cfg]) == 2
    summary = (out_root / "blow" / "monitor_summary.txt").read_text()
    assert "event = guard_tripped" in summary
    # trip time is negative: the boundary degenerates before t = 0
    line = [l for l in summary.splitlines() if l.startswith("event_time")][0]
    assert float(line.split("=")[1]) < 0.0


def test_run_exit_3_config_error(tmp_path, out_root, capsys):
    cfg = write(tmp_path, "bad.cfg", "scenario = grim_reaper\ncfl = 0.9\n")
    assert main(["run", cfg]) == 3
    assert "config error" in capsys.readouterr().err
    # on a disk of N = 5 the rim monitor circles would reach across the disk
    cfg = write(tmp_path, "coarse.cfg", "scenario = cylinder_disk\nnodes = 5\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "config error: a disk2d grid needs at least 6 nodes per axis\n"


@pytest.mark.parametrize("times", ["t0 = -1\nt_end = -2", "t_end = nan", "h_stop = nan"])
def test_run_exit_3_on_bad_times(tmp_path, out_root, capsys, times):
    cfg = write(tmp_path, "bad.cfg", f"scenario = grim_reaper\nnodes = 21\n{times}\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


@pytest.mark.parametrize("case", [
    "scenario = sine_tube\nprofile = foo",
    "scenario = sine_tube\nprofile = cylinder(1, 2)",
    "scenario = grim_reaper\nprofile = trumpet(3)",
    "scenario = cylinder_disk\nprofile = cylinder(-1)",
    "scenario = cylinder_disk\nprofile = cylinder(nan)",
    "scenario = cylinder_disk\nprofile = cylinder(inf)",
    "scenario = sine_tube\nprofile = sine_tube(2, 0.5, nan)",
    "scenario = sine_tube\nprofile = sine_tube(2, abc)",
    "scenario = cylinder_disk\ninitial = bump(abc)",
    "scenario = pseudosphere_leaf\ninitial = leaf(abc)",
    "scenario = sine_tube\ninitial = plane_bump(widest, abc)",
    "scenario = sine_tube\ninitial = plane(inf)",
    "scenario = cylinder_disk\ninitial = constant(nan)",
    "scenario = cylinder_disk\ninitial = bump(0.1, 0.2)",
    "scenario = cylinder_disk\ninitial = bump(1.0)",
    # an empty argument is an error, not a skipped one
    "scenario = sine_tube\nprofile = sine_tube(2, , 0.25)",
    "scenario = sine_tube\nprofile = sine_tube(,)",
    "scenario = sine_tube\ninitial = plane_bump(, 0.01)",
    "scenario = grim_reaper\nt0 = -1e-20\nt_end = 0",
    "scenario = grim_reaper\nt0 = -1000",
    # the disk's rim condition du/drho = 0 is the cylinder's alone
    "scenario = cylinder_disk\nprofile = trumpet",
    "scenario = cylinder_disk\nprofile = pseudosphere(1, 0)",
])
def test_run_exit_3_on_bad_profiles_and_initial_data(tmp_path, out_root, capsys, case):
    cfg = write(tmp_path, "bad.cfg", f"{case}\nnodes = 21\nmax_steps = 5\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("case, message", [
    ("scenario = cylinder_disk\ninitial = nodes(1, 2)",
     "cylinder_disk does not support initial = nodes (it takes constant, bump)"),
    ("scenario = pseudosphere_leaf\ninitial = plane(widest)",
     "pseudosphere_leaf does not support initial = plane (it takes leaf)"),
    ("scenario = grim_reaper\nprofile = cylinder(1)",
     "grim_reaper: a curve1d state needs a planar boundary, not cylinder(1.0)"),
    ("scenario = sine_tube\nprofile = trumpet",
     "sine_tube: a radial2d state needs a rotational tube, not trumpet()"),
    ("scenario = cylinder_disk\nprofile = pseudosphere(1, 0)",
     "cylinder_disk: a disk2d state needs cylinder(1.0), the tube of its rim condition "
     "du/drho = 0, not pseudosphere(1.0, 0.0)"),
])
def test_run_exit_3_on_a_selector_or_profile_of_another_scenario(tmp_path, out_root, capsys,
                                                                 case, message):
    cfg = write(tmp_path, "bad.cfg", f"{case}\nnodes = 21\n")
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("t_end", ["0.5", "0"])
def test_run_exit_3_on_a_translator_rim_outside_the_trumpet(tmp_path, out_root, capsys, t_end):
    # t0 = -1e-15 puts the rim at artanh(e^t0) = 17.6, past the trumpet's
    # domain (1e-8, 12), where its s' is 1 + 1e-15
    cfg = write(tmp_path, "far.cfg", f"scenario = grim_reaper\nt0 = -1e-15\nt_end = {t_end}\n")
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err == (
        "config error: the translator's half-width artanh(e^t0) = 17.6164 at t0 = -1e-15 "
        "lies outside the boundary's domain [1e-08, 12]\n")


def test_unreadable_inputs_exit_3_with_one_line(tmp_path, out_root, capsys):
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"scenario = sine_tube\n# \xff\n")
    ok = write(tmp_path, "ok.cfg", "scenario = sine_tube\nnodes = 21\nout_dir = ok\n")
    for argv in (["run", str(tmp_path)], ["run", str(latin)],
                 ["run", str(tmp_path / "missing.cfg")], ["batch", str(tmp_path / "missing")],
                 ["batch", str(latin)], ["batch", str(tmp_path), "--workers", "0"],
                 ["converge", ok, "--levels", "0"], ["converge", ok, "--levels", "-1"]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (argv, err)
    assert not (out_root / "ok").exists()


def test_batch_gives_an_unreadable_file_exit_3_and_runs_the_others(tmp_path, out_root, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "dir.cfg").mkdir()
    (batch / "latin.cfg").write_bytes(b"scenario = sine_tube\n# \xff\n")
    (batch / "ok.cfg").write_text("scenario = sine_tube\nnodes = 21\nt_end = 0.01\n"
                                  "out_dir = batch_ok\n")
    assert main(["batch", str(batch), "--workers", "1"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"{batch / name}: exit {code}" for name, code in
        (("dir.cfg", 3), ("latin.cfg", 3), ("ok.cfg", 0))]
    assert (out_root / "batch_ok" / "timeseries.csv").exists()
    for name in ("dir.cfg", "latin.cfg"):
        assert runner._batch_worker(str(batch / name)) == (str(batch / name), 3)
        err = capsys.readouterr().err
        assert err.startswith(f"{batch / name}: config error: ") and err.count("\n") == 1


def run_config(keys: dict, command=("run",)):
    """(exit code, stderr) of a maxsurf command (``run`` by default, its
    options after the config) on a config of these keys, None values left
    out, with its outputs in a temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "w") as f:
            f.write("".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
                    + f"out_dir = {os.path.join(out, 'o')}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    return code, err.getvalue()


def assert_documented_ending(keys, command=("run",)):
    # an exit code in 0-4 and at most one line on stderr; an exception out
    # of main fails the test with its traceback
    code, err = run_config(keys, command)
    assert 0 <= code <= 4, (command, keys)
    assert "Traceback" not in err and err.count("\n") <= 1, (command, keys, err)


# each scenario's own profile specs and initial selectors, and the other keys
# of the documented key space (config.py) with values that hold for every scenario
SCENARIO_PROFILES = {
    "grim_reaper": [None, "trumpet"],
    "cylinder_disk": [None, "cylinder", "cylinder(0.8)"],
    "sine_tube": [None, "sine_tube(1, 0.1, 3)", "sine_tube(2, 0.99, 1)", "pseudosphere(1, 0.5)",
                  "cylinder(0.8)"],
    "pseudosphere_leaf": [None, "pseudosphere(2, 1)", "sine_tube(2, 0.5, 1)", "cylinder"],
}
SCENARIO_INITIALS = {
    "grim_reaper": [None, "translator"],
    "cylinder_disk": [None, "constant(0.2)", "bump(0.05)", "bump(0.5)", "bump(0.7)"],
    "sine_tube": [None, "plane(widest)", "plane(thinnest)", "plane(0.5)",
                  "plane_bump(widest, 0.05)", "plane_bump(0.5, 0.5)",
                  "nodes(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)"],
    "pseudosphere_leaf": [None, "leaf(1.0)", "leaf(0)", "leaf(2.5)"],
}
KEY_SPACE = {
    "nodes": [6, 7, 9, 13, 21],
    "t0": [None, -1.0, -0.5],
    "t_end": [None, "none", 0.01, 0.5],
    "max_steps": [1, 7, 30],
    "h_stop": [None, 0, 1e-3, 0.1],
    "cfl": [None, 0.1, 0.5],
    "eps_guard": [None, 0.5, 0.9],
    "integrator": [None, "euler"],
    "snapshot_stride": [None, 1, 3],
    "require_conditions": [None, "true"],
    "condition_samples": [2, 11],
    "monitor_evolution": [None, "true"],
    "certificate": [None, "true"],
    "certificate_z": [None, 0.5],
}
BAD_PROFILES = ["foo", "cylinder(1, 2)", "trumpet(3)", "cylinder(-1)", "cylinder(nan)",
                "cylinder(inf)", "sine_tube(2, 0.5, nan)", "cylinder(abc)", "sine_tube(2, 0.5",
                "sine_tube(2, , 0.25)", "sine_tube(,)"]
PROFILES = sorted({p for ps in SCENARIO_PROFILES.values() for p in ps if p}) + BAD_PROFILES
# one flaw a config may hold: a bad value, or another scenario's profile or selector
FLAWS = ([("profile", p) for p in PROFILES]
         + [("initial", i) for i in sorted({i for c in SCENARIO_INITIALS.values() for i in c
                                             if i})]
         + [("initial", i) for i in ["translator(1)", "plane(north)", "nodes(widest)", "moebius",
                                     "bump(", "constant(nan)", "plane(inf)", "bump(abc)",
                                     "leaf(abc)", "plane_bump(widest, abc)", "bump(0.1, 0.2)",
                                     "bump(1.0)", "plane_bump(, 0.01)"]]
         + [("nodes", 5), ("t0", -1e-20), ("t0", -1000), ("t0", 0), ("t0", 0.5), ("t0", 1e20),
            ("t_end", 0), ("t_end", -0.9), ("integrator", "rk2")]
         # retired keys: unknown, so exit 3
         + [("monitor_volume", "true"), ("monitor_boundary", "false"),
            ("monitor_estimates", "true")])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("scenario", sorted(SCENARIO_PROFILES))
def test_every_scenario_and_profile_ends_in_a_documented_exit_code(scenario, profile):
    assert_documented_ending({"scenario": scenario, "profile": profile, "nodes": 13,
                              "max_steps": 7, "snapshot_stride": 1, "monitor_evolution": "true",
                              "certificate": "true", "condition_samples": 11})


@hs.composite
def configs(draw):
    """A config of one scenario's own values, with at most one flaw."""
    scenario = draw(hs.sampled_from(sorted(SCENARIO_PROFILES)))
    keys = {"scenario": scenario,
            "profile": draw(hs.sampled_from(SCENARIO_PROFILES[scenario])),
            "initial": draw(hs.sampled_from(SCENARIO_INITIALS[scenario])),
            **{k: draw(hs.sampled_from(v)) for k, v in KEY_SPACE.items()}}
    if keys["monitor_evolution"] == "true":
        keys["snapshot_stride"] = 1         # the monitor reads stride-1 runs alone
    flaw = draw(hs.none() | hs.sampled_from(FLAWS))
    if flaw is not None:
        keys[flaw[0]] = flaw[1]
    return keys


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(keys=configs())
def test_generated_configs_end_in_a_documented_exit_code(keys):
    for command in (("run",), ("converge", "--levels", "2"), ("check-boundary",)):
        assert_documented_ending(keys, command)


@pytest.mark.parametrize("keys", ["integrator = rk2",
                                  "monitor_evolution = true\nsnapshot_stride = 3"],
                         ids=["rk2", "monitor-at-stride-3"])
def test_run_exit_3_on_a_retired_integrator_or_an_unread_monitor(tmp_path, out_root, capsys,
                                                                  keys):
    cfg = write(tmp_path, "bad.cfg", f"scenario = grim_reaper\nnodes = 21\n{keys}\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_run_exit_3_when_the_first_step_underflows(tmp_path, out_root, capsys):
    # dt ~ 1e-4 is below 1e-16 |t0|: no step could advance the time
    cfg = write(tmp_path, "far.cfg", "scenario = sine_tube\nt0 = 1e20\nt_end = none\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_run_exit_2_on_flow_breakdown(tmp_path, out_root, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise FlowError("time step underflow (dt = 1e-20 at t = 1.0)")

    monkeypatch.setattr(runner, "run", breakdown)
    cfg = write(tmp_path, "sine.cfg", "scenario = sine_tube\nnodes = 21\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flow breakdown") and err.count("\n") == 1
    # batch gives the file its code instead of aborting the pool
    assert runner._batch_worker(cfg) == (cfg, 2)
    bad = write(tmp_path, "bad.cfg", "scenario = sine_tube\nfrobnicate = 1\n")
    assert runner._batch_worker(bad) == (bad, 3)


def test_run_static_leaf_takes_no_step(out_root):
    # the shipped pseudosphere config starts at its t_end (t0 = t_end = 0)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "ac8_pseudosphere_leaves.cfg")
    assert main(["run", cfg]) == 0
    out = out_root / "runs" / "ac8_pseudosphere"
    summary = (out / "monitor_summary.txt").read_text().splitlines()
    assert "steps = 0" in summary and "event = time_exhausted" in summary
    assert len((out / "timeseries.csv").read_text().splitlines()) == 2
    # one record determines no fit
    keys = {line.split(" = ")[0] for line in summary}
    assert not keys & {"p_best_fit", "grad_bound_C1", "grad_bound_C2", "h_vs_v_C1",
                       "h_vs_v_C2", "h_vs_v_p", "h_sup_monotone", "boundary_Asig_min"}


@pytest.mark.parametrize("case, cause", [
    # the residual band 6h inside the rim holds no node below N = 13
    ("nodes = 12\ninitial = bump(0.05)\nt_end = 0.01", "need a disk of N >= 13"),
    # converged at step 0: two stored states, no stride-1 triple
    ("nodes = 17\ninitial = constant(0)\nh_stop = 1e-6", "three consecutive stride-1 states"),
])
def test_run_reports_an_evolution_monitor_error(tmp_path, out_root, capsys, case, cause):
    cfg = write(tmp_path, "evo.cfg", f"scenario = cylinder_disk\n{case}\nsnapshot_stride = 1\n"
                "monitor_evolution = true\nout_dir = evo\n")
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""
    summary = (out_root / "evo" / "monitor_summary.txt").read_text().splitlines()
    errors = [line for line in summary if line.startswith("evolution_error = ")]
    assert len(errors) == 1 and cause in errors[0]
    assert not [line for line in summary if line.startswith(("res_H", "res_v"))]


@pytest.mark.parametrize("case, cause", [
    ("scenario = grim_reaper\nnodes = 9\nt0 = -1.0\nt_end = -0.99",
     "need a curve of N >= 11: at N = 9"),
    ("scenario = sine_tube\nnodes = 7\ninitial = plane_bump(widest, 0.05)\nmax_steps = 6",
     "need a radial grid of N >= 10: at N = 7"),
    # the H core holds nodes 2 and 3, the v band off the axis none
    ("scenario = sine_tube\nnodes = 9\ninitial = plane_bump(widest, 0.05)\nmax_steps = 6",
     "need a radial grid of N >= 10: at N = 9"),
], ids=["curve1d", "radial2d", "radial2d-axis-band"])
def test_run_reports_an_empty_evolution_core(tmp_path, out_root, capsys, case, cause):
    # a core of no node would read res_H = res_v = 0, checked nowhere
    cfg = write(tmp_path, "core.cfg", f"{case}\nsnapshot_stride = 1\nmonitor_evolution = true\n"
                "out_dir = core\n")
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""
    summary = (out_root / "core" / "monitor_summary.txt").read_text().splitlines()
    errors = [line for line in summary if line.startswith("evolution_error = ")]
    assert len(errors) == 1 and cause in errors[0]
    assert not [line for line in summary if line.startswith(("res_H", "res_v"))]


def test_run_writes_the_geometry_of_a_coarse_final_state(tmp_path, out_root, capsys):
    # a coarse translator near blow-up: one-sided end stencils found |u_x| >= 1
    # on the final state the flow's guard accepted; the observer reads the
    # boundary's slope at the ends, as the flow does, and sees that state
    cfg = write(tmp_path, "coarse.cfg",
                "scenario = grim_reaper\nnodes = 7\nt0 = -0.5\nt_end = none\nmax_steps = 30\n"
                "certificate = true\ncertificate_z = 0.5\nout_dir = coarse\n")
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""
    summary = (out_root / "coarse" / "monitor_summary.txt").read_text().splitlines()
    assert "event = step_limit" in summary
    assert "certificate_error = stability certificates are built for the 2d kinds" in summary
    rows = (out_root / "coarse" / "final_profile.csv").read_text().splitlines()[1:]
    values = np.array([[float(x) for x in r.split(",")] for r in rows])
    assert values.shape == (7, 8) and np.isfinite(values).all()
    assert (values[:, 5] >= 1.0).all()      # v_hat


def test_run_exit_4_condition_failure(tmp_path, out_root):
    cfg = write(tmp_path, "cond.cfg",
                "scenario = grim_reaper\nnodes = 51\nrequire_conditions = true\n"
                "out_dir = cond\n")
    assert main(["run", cfg]) == 4


def test_check_boundary_command(tmp_path, out_root, capsys):
    cfg = write(tmp_path, "sine.cfg", "scenario = sine_tube\nout_dir = sine\n")
    assert main(["check-boundary", cfg]) == 0
    out = capsys.readouterr().out
    assert "condition_ok = True" in out
    cfg2 = write(tmp_path, "trump.cfg", "scenario = grim_reaper\nout_dir = trump\n")
    assert main(["check-boundary", cfg2]) == 4


def test_converge_command(tmp_path, out_root, capsys):
    cfg = write(tmp_path, "leaf.cfg",
                "scenario = pseudosphere_leaf\nnodes = 51\ninitial = leaf(1.0)\n"
                "out_dir = leaf\n")
    assert main(["converge", cfg, "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "nodes, max_error, order" in out
    assert (out_root / "leaf" / "convergence.csv").exists()


def test_converge_saturated_on_plane(tmp_path, out_root, capsys):
    cfg = write(tmp_path, "plane.cfg",
                "scenario = sine_tube\nnodes = 51\ninitial = plane(widest)\n"
                "t_end = 0\nout_dir = plane\n")
    assert main(["converge", cfg, "--levels", "2"]) == 0
    assert "saturated" in capsys.readouterr().out


def test_converge_dynamic_disk(tmp_path, out_root, capsys):
    # a constant disk stays put: both levels' errors are roundoff
    cfg = write(tmp_path, "disk.cfg",
                "scenario = cylinder_disk\nnodes = 17\ninitial = constant(0.2)\n"
                "t_end = 0.01\nout_dir = disk\n")
    assert main(["converge", cfg, "--levels", "2"]) == 0
    assert "saturated" in capsys.readouterr().out
    assert (out_root / "disk" / "convergence.csv").read_text().splitlines() == [
        "nodes,max_error,order", "17,2.7755575615628914e-17,",
        "33,2.7755575615628914e-17,saturated"]


def test_batch_command(tmp_path, out_root, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.cfg").write_text(
        "scenario = cylinder_disk\nnodes = 33\ninitial = constant(0)\n"
        "max_steps = 50\nout_dir = batch_a\n")
    (batch / "b.cfg").write_text(
        "scenario = sine_tube\nnodes = 51\ninitial = plane(widest)\n"
        "t_end = 0.01\nout_dir = batch_b\n")
    assert main(["batch", str(batch)]) == 0
    assert (out_root / "batch_a" / "timeseries.csv").exists()
    assert (out_root / "batch_b" / "timeseries.csv").exists()


def test_deterministic_outputs(tmp_path, out_root):
    text = ("scenario = cylinder_disk\nnodes = 33\ninitial = bump(0.05)\n"
            "max_steps = 120\nsnapshot_stride = 60\nout_dir = det\n")
    cfg = write(tmp_path, "det.cfg", text)
    assert main(["run", cfg]) == 0
    first = (out_root / "det" / "timeseries.csv").read_bytes()
    first_prof = (out_root / "det" / "final_profile.csv").read_bytes()
    assert main(["run", cfg]) == 0
    assert (out_root / "det" / "timeseries.csv").read_bytes() == first
    assert (out_root / "det" / "final_profile.csv").read_bytes() == first_prof


def per_value_csv(rows):
    """The writers' byte format, one format() call per value."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in np.asarray(rows, dtype=float).tolist())


def format_sweep(ulps):
    """Doubles where %.17g is hardest to get right, in a fixed order: each power
    of ten and of two with ulps neighbours on either side, in both signs, NaN
    with its sign bit set, subnormals, and the values just under 1e-16, 1e17
    and 1e-4."""
    powers = np.concatenate([[float(f"1e{e}") for e in range(-323, 309)],
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    near, lo, hi = [powers], powers, powers
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        near += [lo, hi]
    subnormal = np.concatenate([np.arange(1, 1025) * 5e-324,
                                np.nextafter([2.2250738585072014e-308], 0.0),
                                np.random.default_rng(5).integers(1, 2**52, 256).view(np.float64)])
    values = np.concatenate([*near, subnormal, np.nextafter([1e-16, 1e17, 1e-4], 0.0)])
    return np.concatenate([values, -values, [np.copysign(np.nan, -1.0)]])


def test_timeseries_writer_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(3)
    n_rows = 2 * runner.CSV_BLOCK_ROWS + 37          # a partial last block
    rows = rng.standard_normal((n_rows, len(RECORD_COLUMNS)))
    rows *= 10.0 ** rng.integers(-300, 300, rows.shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308]
    for k, v in enumerate(special):
        rows[(k * 997) % n_rows, k % rows.shape[1]] = v
    rows[-1, :len(special)] = special
    sweep = format_sweep(64)
    sweep = np.concatenate([sweep, np.zeros(-sweep.size % rows.shape[1])])
    rows = np.concatenate([rows, sweep.reshape(-1, rows.shape[1])])
    traj = Trajectory(rows, [], [], FlowEvent.STEP_LIMIT, 0.0, GridSpec("curve1d", 5))
    path = tmp_path / "timeseries.csv"
    runner.write_timeseries(str(path), traj)
    expected = ",".join(RECORD_COLUMNS) + "\n" + per_value_csv(rows)
    assert path.read_bytes() == expected.encode()


needs_library = pytest.mark.skipif(
    not _kernels.available, reason=f"compiled library not built: {_kernels.reason}")


@needs_library
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(row=hs.lists(hs.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=17))
def test_library_formats_values_as_python_does(row):
    buf = np.empty(len(row) * _kernels.CSV_VALUE_BYTES, dtype=np.uint8)
    n = _kernels.format_rows(np.array([row]), buf)
    assert buf[:n].tobytes() == per_value_csv([row]).encode()


def formatter_families():
    """Fixed families of doubles for the formatter: exact 17-digit ties, the
    neighbours of each power of ten and of two (each binary exponent meets
    the decade estimate), integers near 10^16 and 10^17, both edges of the
    snprintf fallback (1e-16 and 2^128), subnormals, zeros, infinities and NaN."""
    rng = np.random.default_rng(20)
    odd = rng.integers(4 * 10**15, 2**53, size=4000) | 1          # c/4, c odd, in [1e15, 2^51)
    tens = np.array([float(f"1e{k}") for k in range(-20, 31)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    ints = np.array([float(b + i) for b in (10**16, 10**17) for i in range(-300, 301, 3)])
    edges = lo = hi = np.array([1e-16, 2.0**128])
    near = [edges]
    for _ in range(200):                                            # 200 ulps either side
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        near += [lo, hi]
    values = np.concatenate([
        odd / 4.0, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        twos, np.nextafter(twos, 0.0), ints, *near,
        np.arange(1, 200) * 5e-324, [2.2250738585072014e-308, 0.0, np.inf, np.nan]])
    return np.concatenate([values, -values])


@needs_library
def test_library_formats_fixed_families_as_python_does():
    values = formatter_families()
    rows = np.concatenate([values, np.zeros(-values.size % 17)]).reshape(-1, 17)
    buf = np.empty(rows.size * _kernels.CSV_VALUE_BYTES, dtype=np.uint8)
    n = _kernels.format_rows(rows, buf)
    assert buf[:n].tobytes().decode().split("\n")[:-1] == per_value_csv(rows).split("\n")[:-1]


@needs_library
@pytest.mark.parametrize("last", [-2.2250738585072014e-308, -1.7976931348623157e+308,
                                  -0.00012345678901234568, -1.2345678901234567e-05])
@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (1024, 17)])
def test_library_format_stays_inside_its_buffer(shape, last):
    # values of the longest form, 24 bytes and a separator, so that the last
    # value starts at its own CSV_VALUE_BYTES slot
    rows = np.resize([-2.2250738585072014e-308, -1.7976931348623157e+308], shape)
    rows[-1, -1] = last
    size = rows.size * _kernels.CSV_VALUE_BYTES
    buf = np.full(size + 64, 0xA5, dtype=np.uint8)
    n = _kernels.format_rows(rows, buf)
    assert buf[:n].tobytes() == per_value_csv(rows).encode()
    assert np.all(buf[size:] == 0xA5)


@needs_library
def test_library_format_rejects_a_short_buffer():
    with pytest.raises(ValueError, match="6 values need"):
        _kernels.format_rows(np.zeros((2, 3)), np.empty(6 * _kernels.CSV_VALUE_BYTES - 1, np.uint8))


def profile_writer_case(kind):
    """A state of the kind, its profile, and its final_profile columns and row order."""
    if kind == "sweep":     # format_sweep's values as the geometry's five fields
        values = format_sweep(16)
        n = -(-values.size // 5)
        grid = GridSpec("curve1d", n)
        st = FlowState(grid, -1.0, np.log(np.cosh(0.5 * grid.reference())) - 1.0, (-0.5, 0.5))
        fields = list(np.resize(values, (5, n)))
        return st, trumpet(), [grid.reference(), st.coords(), st.u, *fields], np.arange(n)
    if kind == "disk2d":
        dg = disk_grid(33, 1.0)
        u = np.where(dg.inside, 0.05 * (1 - dg.X**2 - dg.Y**2) ** 2, 0.0)
        st = FlowState(GridSpec("disk2d", 33), 0.0, u, None)
        g = geometry(st, cylinder(1.0))
        ins = dg.inside
        r = dg.r[ins]
        cols = [r / dg.radius, r, u[ins], g.H[ins], g.v[ins], g.v_hat[ins], g.normA2[ins],
                g.dV[ins]]
        return st, cylinder(1.0), cols, np.lexsort((np.arctan2(dg.Y[ins], dg.X[ins]), r))
    grid = GridSpec(kind, 251)
    if kind == "curve1d":
        profile, bnd = trumpet(), (-0.5, 0.5)
        u = np.log(np.cosh(0.5 * grid.reference())) - 1.0
    else:
        profile = sine_tube(2.0, 0.5, 1.0)
        u = np.pi / 2 + 0.05 * (1 - grid.reference() ** 2) ** 2
        bnd = float(profile.f(np.pi / 2))
    st = FlowState(grid, -1.0, u, bnd)
    g = geometry(st, profile)
    cols = [grid.reference(), st.coords(), u, g.H, g.v, g.v_hat, g.normA2, g.dV]
    return st, profile, cols, np.arange(251)


@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d", "sweep"])
def test_profile_writer_matches_per_value_format(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 100)   # several blocks, a partial last one
    st, profile, cols, order = profile_writer_case(kind)
    if kind == "sweep":
        fields = dict(zip(("H", "v", "v_hat", "normA2", "dV"), cols[3:]))
        monkeypatch.setattr(runner, "geometry", lambda state, profile: SimpleNamespace(**fields))
    path = tmp_path / "final_profile.csv"
    runner.write_profile(str(path), Scenario(st.grid.kind, profile, st, None), st)
    expected = "s,physical_coord,u,H,v,v_hat,normA2,dV\n" + per_value_csv(
        [[c[k] for c in cols] for k in order])
    assert len(order) % 100 != 0
    assert path.read_bytes() == expected.encode()


@needs_library
def test_writers_give_the_same_bytes_without_the_library(tmp_path, monkeypatch):
    # the % path, taken when the library cannot load, writes the bytes of the C path
    runs = []
    for text in ("scenario = grim_reaper\nnodes = 51\nt0 = -1.0\nt_end = -0.99",
                 "scenario = sine_tube\nnodes = 51\ninitial = plane_bump(widest, 0.05)\n"
                 "max_steps = 300",
                 "scenario = cylinder_disk\nnodes = 33\ninitial = bump(0.05)\nmax_steps = 300"):
        cfg = parse_config(text + "\n")
        scenario = build_scenario(cfg)
        runs.append((scenario, run(scenario.state0, cfg.step_control(), scenario.profile)))

    def written():
        out = []
        for scenario, traj in runs:
            runner.write_timeseries(str(tmp_path / "timeseries.csv"), traj)
            runner.write_profile(str(tmp_path / "final_profile.csv"), scenario, traj.states[-1])
            out += [(tmp_path / name).read_bytes() for name in ("timeseries.csv",
                                                                 "final_profile.csv")]
        return out

    first = written()
    broken = tmp_path / "_step.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_kernels, "SOURCE", str(broken))
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert not _kernels.available
    assert written() == first
