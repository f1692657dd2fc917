"""Plain key-value scenario configuration: one `key = value` per line.

Lines starting with `#` (or blank) are ignored.  Unknown keys are errors so
configs stay diff-checkable; parse(serialize(cfg)) round-trips exactly.

Key table (defaults in parentheses; t0, t_end, h_stop and certificate_z must
be finite numbers, as must the numeric arguments of profile and initial):

    scenario            grim_reaper | cylinder_disk | sine_tube | pseudosphere_leaf
    profile             profile spec, e.g. sine_tube(2, 0.5, 1)   (scenario default)
    nodes               grid nodes per axis, >= the kind's minimum (101)
    t0                  start time; "none" takes the default      (scenario default)
    t_end               stop time, >= t0; "none" disables         (scenario default)
    max_steps           step budget                               (5000000)
    h_stop              sup|H| convergence threshold; 0 disables  (0)
    cfl                 step factor in (0, 0.5]                   (0.4)
    eps_guard           spacelike guard margin in (0, 1)          (0.001)
    integrator          euler                                     (euler)
    initial             initial-data selector                     (scenario default)
    snapshot_stride     state snapshot stride, >= 1               (1000)
    out_dir             output directory                          (runs/<scenario>)
    require_conditions  check the curvature criterion first       (false)
    condition_samples   sample count for that check, >= 2         (2001)
    monitor_evolution   write evolution residuals; needs stride 1 (false)
    certificate         build a stability certificate at the end  (false)
    certificate_z       certificate center height on the axis     (initial plane)

The scenario defaults live in the scenario's entry of ``scenarios._SCENARIOS``.
``parse_config`` fills them in once: profile and initial where the value is
empty, t0 where it is absent or none, t_end only where it is absent, and
out_dir, where empty, with runs/<scenario>.  The run controls cfl, eps_guard,
integrator, max_steps, h_stop and t_end are checked by ``flow.StepControl``
alone, which ``ScenarioConfig.step_control`` builds, and nodes by the
scenario's ``geometry.GridSpec``: at least 5 on curve1d and radial2d, 6 on
disk2d.

Profile specs and initial selectors have one grammar, ``profiles.parse_spec``:
a name, or name(a, b, ...) with each argument a finite number or a name; an
empty argument, as in sine_tube(2, , 1), is an error.  Trailing arguments may
be left out for their defaults, which for the profiles live in
``profiles._BUILTINS`` and for the selectors in ``scenarios._SCENARIOS``;
``profiles.spec_args`` applies both.  ``validated`` builds the profile once, so
a profile spec that is malformed or whose parameters the profile rejects fails
at parse.  Profile specs (defaults in parentheses):

    cylinder(R)             the vertical cylinder of radius R (1)
    pseudosphere(A, B)      f = sqrt(A^2 + (z+B)^2)            (1, 0)
    sine_tube(a, b, w)      f = a + b sin(w z)                 (2, 0.5, 1)
    trumpet                 the planar boundary y = log sinh |x|

grim_reaper takes the planar trumpet; sine_tube and pseudosphere_leaf take
any rotational profile; cylinder_disk takes cylinder(R) alone, R being the
disk's radius: its grid imposes du/drho = 0 on a fixed rim, which is the
perpendicularity condition of that cylinder and of no other tube.

Initial-data selectors, per scenario (defaults in parentheses):

    grim_reaper
      translator              the exact translating solution at t0; its rim
                              artanh(e^t0) must lie in the trumpet's domain
    cylinder_disk
      constant(c)             u = c                                   (0)
      bump(amp)               u = amp (1 - (rho/rho_b)^2)^2           (0.1)
    sine_tube
      plane(which)            the plane t = z at which = widest, thinnest
                              or a height z                           (widest)
      plane_bump(which, amp)  plane plus amp (1 - (rho/rho_b)^2)^2    (widest, 0.05)
      nodes(v0, v1, ...)      explicit node values, one per node
    pseudosphere_leaf
      leaf(z)                 the CMC leaf through anchor z           (1)

A selector takes at most the arguments shown, and the initial data must be
spacelike (|Du| < 1 at every node).

Every invalid config is a ConfigError, printed as one line `config error:
...` (exit 3).  A selector of another scenario reads `<scenario> does not
support initial = <name> (it takes <its selectors>)`; a profile its grid kind
does not take reads `<scenario>: a <kind> state needs <boundary>, not
<profile>`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .flow import StepControl
from .geometry import GridSpec
from .profiles import parse_spec, profile_from_spec


class ConfigError(ValueError):
    """Invalid scenario configuration (exit class 3)."""


def _spec(scenario: str):
    """The scenario's entry of ``scenarios._SCENARIOS``; ConfigError when there is none."""
    from .scenarios import _SCENARIOS      # scenarios imports this module

    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (one of {', '.join(_SCENARIOS)})")
    return _SCENARIOS[scenario]


@dataclass
class ScenarioConfig:
    scenario: str
    profile: str = ""
    nodes: int = 101
    t0: Optional[float] = None
    t_end: Optional[float] = None
    max_steps: int = 5_000_000
    h_stop: float = 0.0
    cfl: float = 0.4
    eps_guard: float = 1e-3
    integrator: str = "euler"
    initial: Tuple[str, tuple] = ("", ())
    snapshot_stride: int = 1000
    out_dir: str = ""
    require_conditions: bool = False
    condition_samples: int = 2001
    monitor_evolution: bool = False
    certificate: bool = False
    certificate_z: Optional[float] = None

    def step_control(self) -> StepControl:
        """The run's controls; StepControl is their one check (ValueError)."""
        return StepControl(cfl=self.cfl, eps_guard=self.eps_guard, max_steps=self.max_steps,
                           h_stop=self.h_stop, t_end=self.t_end, integrator=self.integrator)

    def validated(self) -> "ScenarioConfig":
        spec = _spec(self.scenario)
        if self.t0 is None or not self.initial[0] or not self.out_dir:
            raise ConfigError("t0, initial and out_dir must be set: parse_config fills in the "
                              "scenario's defaults")
        try:
            profile_from_spec(self.profile)
            GridSpec(spec.kind, self.nodes)       # at least the kind's nodes per axis
            self.step_control()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")
        if self.monitor_evolution and self.snapshot_stride != 1:
            raise ConfigError("monitor_evolution needs snapshot_stride = 1")
        for key in ("t0", "certificate_z"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number")
        if self.t_end is not None and self.t_end < self.t0:
            raise ConfigError("t_end must not be earlier than t0")
        if self.condition_samples < 2:
            raise ConfigError("condition_samples must be >= 2")
        return self


_BOOL_KEYS = {"require_conditions", "monitor_evolution", "certificate"}
_INT_KEYS = {"nodes", "max_steps", "snapshot_stride", "condition_samples"}
_FLOAT_KEYS = {"t0", "t_end", "h_stop", "cfl", "eps_guard", "certificate_z"}
_NONE_KEYS = {"t0", "t_end", "certificate_z"}         # the float keys that take "none"
_STR_KEYS = {"scenario", "profile", "integrator", "out_dir"}
_ALL_KEYS = _BOOL_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"initial"}


def format_value(value) -> str:
    """The text of a config or summary value: none, true or false, an integer,
    a float to 17 significant digits, a string as it is, or a selector (name,
    arguments) as name(a, b, ...), bare when it has none."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        name, args = value
        return f"{name}({', '.join(map(format_value, args))})" if args else name
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".17g")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario configuration."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _BOOL_KEYS:
                if val.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                values[key] = val.lower() == "true"
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = None if key in _NONE_KEYS and val.lower() == "none" else float(val)
            elif key == "initial":
                values[key] = parse_spec(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    if "scenario" not in values:
        raise ConfigError("missing required key 'scenario'")
    # the scenario's defaults, once: t_end = none is kept, as it disables t_end
    defaults = _spec(values["scenario"]).defaults
    if not values.get("profile"):
        values["profile"] = defaults["profile"]
    if values.get("t0") is None:
        values["t0"] = defaults["t0"]
    values.setdefault("t_end", defaults["t_end"])
    if not values.get("initial", ("",))[0]:
        values["initial"] = defaults["initial"]
    if not values.get("out_dir"):
        values["out_dir"] = f"runs/{values['scenario']}"
    return ScenarioConfig(**values).validated()


def read_config(path: str) -> ScenarioConfig:
    """Parse and validate the config file at path: ConfigError when it cannot
    be read (missing, a directory, unreadable) or is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from exc
    return parse_config(text)


def serialize(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    return "".join(f"{f.name} = {format_value(getattr(cfg, f.name))}\n" for f in fields(cfg))
