import glob
import os
import re

import pytest

from maxsurf import config
from maxsurf.config import (_ALL_KEYS, _SCENARIO_DEFAULTS, INTEGRATORS, SCENARIOS, ConfigError,
                            parse_config, serialize)
from maxsurf.flow import StepControl
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
    assert tuple(_SCENARIOS) == SCENARIOS
    for name in SCENARIOS:
        assert _SCENARIO_DEFAULTS[name]["initial"][0] in _SCENARIOS[name].initials
        scenario = build_scenario(parse_config(f"scenario = {name}\nnodes = 21\n"))
        assert scenario.state0.grid.kind == _SCENARIOS[name].kind
