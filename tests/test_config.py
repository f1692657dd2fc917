import glob
import math
import os
import re

import pytest

from maxsurf import config, runner
from maxsurf.config import _ALL_KEYS, ConfigError, parse_config, serialize
from maxsurf.flow import INTEGRATORS, StepControl
from maxsurf.scenarios import _SCENARIOS, build_scenario

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_minimal_config_defaults():
    cfg = parse_config("scenario = grim_reaper\n")
    assert cfg.nodes == 101
    assert cfg.t0 == -1.0
    assert cfg.t_end == -0.3
    assert cfg.profile == "trumpet"
    assert cfg.initial == ("translator", ())
    assert cfg.cfl == 0.4
    assert cfg.out_dir == "runs/grim_reaper"


def test_round_trip_identity():
    texts = [
        "scenario = cylinder_disk\ninitial = bump(0.1)\nnodes = 65\n",
        "scenario = sine_tube\ninitial = plane_bump(thinnest, 0.05)\nt_end = 40\n",
        "scenario = grim_reaper\ncfl = 0.45\nh_stop = 1e-7\n",
        "scenario = pseudosphere_leaf\ninitial = leaf(1.5)\n",
        "scenario = cylinder_disk\nt_end = none\nmax_steps = 500\n",
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(serialize(cfg)) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("scenario = grim_reaper\nfrobnicate = 1\n")


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("nodes = 51\n")


def test_out_of_range_values():
    with pytest.raises(ConfigError, match="cfl"):
        parse_config("scenario = grim_reaper\ncfl = 0.9\n")
    with pytest.raises(ConfigError, match="nodes"):
        parse_config("scenario = grim_reaper\nnodes = 3\n")
    with pytest.raises(ConfigError, match="eps_guard"):
        parse_config("scenario = grim_reaper\neps_guard = 2\n")
    with pytest.raises(ConfigError, match="true/false|bad value"):
        parse_config("scenario = grim_reaper\ncertificate = maybe\n")


@pytest.mark.parametrize("key, value", [
    ("cfl", 0.9), ("eps_guard", 1.0), ("integrator", "rk2"), ("max_steps", 0),
    ("h_stop", -1.0), ("h_stop", math.nan), ("t_end", math.inf)])
def test_run_controls_are_checked_by_step_control_alone(key, value):
    # the config's error is StepControl's one line
    with pytest.raises(ValueError) as ctrl:
        StepControl(**{key: value})
    with pytest.raises(ConfigError) as cfg:
        parse_config(f"scenario = sine_tube\n{key} = {value}\n")
    assert str(cfg.value) == str(ctrl.value)


@pytest.mark.parametrize("key", ["cfl", "eps_guard", "h_stop"])
def test_none_is_a_bad_value_for_a_run_control(key):
    # only t0, t_end and certificate_z take none; these raised a TypeError
    with pytest.raises(ConfigError, match=f"line 2: bad value for {key}"):
        parse_config(f"scenario = grim_reaper\n{key} = none\n")


def test_retired_integrator_rejected():
    with pytest.raises(ConfigError, match="integrator must be euler$"):
        parse_config("scenario = grim_reaper\nintegrator = rk2\n")
    with pytest.raises(ValueError, match="integrator"):
        StepControl(integrator="rk2")


def test_evolution_monitor_needs_stride_1():
    # the residuals read stride-1 triples: at any other stride the monitor had nothing to read
    for stride in ("", "snapshot_stride = 3\n"):
        with pytest.raises(ConfigError, match="monitor_evolution needs snapshot_stride = 1"):
            parse_config(f"scenario = grim_reaper\nmonitor_evolution = true\n{stride}")
    cfg = parse_config("scenario = grim_reaper\nmonitor_evolution = true\nsnapshot_stride = 1\n")
    assert cfg.monitor_evolution and cfg.snapshot_stride == 1


def test_key_table_documents_the_parsed_keys():
    # the module docstring's key table names every key the parser takes, and
    # no other, and lists the integrators the config and the flow accept
    table = config.__doc__.split("Key table", 1)[1].split("Profile specs", 1)[0]
    rows = dict(re.findall(r"^    (\w+) {2,}(.*)$", table, re.M))
    assert set(rows) == _ALL_KEYS
    choices = re.sub(r"\s*\([^)]*\)$", "", rows["integrator"]).split("|")
    assert {c.strip() for c in choices} == set(INTEGRATORS)
    for name in INTEGRATORS:
        assert parse_config(f"scenario = grim_reaper\nintegrator = {name}\n").integrator == name
        assert StepControl(integrator=name).integrator == name


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("scenario = grim_reaper\nnodes = 51\nnodes = 101\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\nscenario = grim_reaper  # inline\n\n# end\n")
    assert cfg.scenario == "grim_reaper"


def test_figure1_experiment_config():
    cfg = parse_config("scenario = grim_reaper\nt0 = -1.0\nnodes = 401\n")
    assert cfg.nodes == 401
    assert cfg.t0 == -1.0


def test_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert len(paths) >= 10
    for path in paths:
        with open(path) as f:
            cfg = parse_config(f.read())
        assert parse_config(serialize(cfg)) == cfg
        build_scenario(cfg)


def test_every_scenario_is_one_table_entry_with_its_default_selector():
    for name, spec in _SCENARIOS.items():
        cfg = parse_config(f"scenario = {name}\nnodes = 21\n")
        assert cfg.initial == spec.defaults["initial"] and cfg.initial[0] in spec.initials
        assert build_scenario(cfg).state0.grid.kind == spec.kind


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_empty_values_and_t0_none_take_the_scenario_defaults(name):
    cfg = parse_config(f"scenario = {name}\nprofile =\nout_dir =\ninitial =\nt0 = none\n")
    assert cfg == parse_config(f"scenario = {name}\n")
    defaults = _SCENARIOS[name].defaults
    assert (cfg.profile, cfg.t0, cfg.initial) == (defaults["profile"], defaults["t0"],
                                                  defaults["initial"])
    assert cfg.out_dir == f"runs/{name}"


def test_explicit_times_keep_their_values():
    # a zero is a value, not an absent key; t_end = none disables t_end
    assert parse_config("scenario = grim_reaper\nt0 = 0\nt_end = 0\n").t0 == 0.0
    assert parse_config("scenario = sine_tube\nt_end = 0\n").t_end == 0.0
    cfg = parse_config("scenario = sine_tube\nt_end = none\n")
    assert cfg.t_end is None and parse_config(serialize(cfg)) == cfg


def test_t_end_none_stays_none_through_the_levels_of_a_convergence_study(monkeypatch):
    # each level is a replace() of the parsed config, validated again
    seen = []

    def build(cfg):
        seen.append((cfg.nodes, cfg.t_end))
        return build_scenario(cfg)

    monkeypatch.setattr(runner, "build_scenario", build)
    cfg = parse_config("scenario = pseudosphere_leaf\nnodes = 21\nt_end = none\n")
    assert len(runner.convergence_study(cfg, 2, write=False)) == 2
    assert seen == [(21, None), (41, None)]
