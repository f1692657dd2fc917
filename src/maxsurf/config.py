"""Plain key-value scenario configuration: one `key = value` per line.

Lines starting with `#` (or blank) are ignored.  Unknown keys are errors so
configs stay diff-checkable; parse(serialize(cfg)) round-trips exactly.

Key table (defaults in parentheses; "scenario default" varies per scenario;
t0, t_end, h_stop and certificate_z must be finite numbers, as must the
numeric arguments of profile and initial):

    scenario            grim_reaper | cylinder_disk | sine_tube | pseudosphere_leaf
    profile             profile spec, e.g. sine_tube(2, 0.5, 1)   (scenario default)
    nodes               grid resolution per axis, >= 5            (101)
    t0                  start time                                (scenario default)
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

Profile specs (trailing parameters may be left out for their defaults):

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
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

_SCENARIO_DEFAULTS = {
    "grim_reaper": {"profile": "trumpet", "t0": -1.0, "t_end": -0.3,
                    "initial": ("translator", ())},
    "cylinder_disk": {"profile": "cylinder(1)", "t0": 0.0, "t_end": None,
                      "initial": ("constant", (0.0,))},
    "sine_tube": {"profile": "sine_tube(2, 0.5, 1)", "t0": 0.0, "t_end": 40.0,
                  "initial": ("plane", ("widest",))},
    "pseudosphere_leaf": {"profile": "pseudosphere(1, 0)", "t0": 0.0, "t_end": 0.0,
                          "initial": ("leaf", (1.0,))},
}
SCENARIOS = tuple(_SCENARIO_DEFAULTS)
INTEGRATORS = ("euler",)


class ConfigError(ValueError):
    """Invalid scenario configuration (exit class 3)."""


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

    def validated(self) -> "ScenarioConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r} (one of {', '.join(SCENARIOS)})"
            )
        d = _SCENARIO_DEFAULTS[self.scenario]
        if not self.profile:
            self.profile = d["profile"]
        if self.t0 is None:
            self.t0 = d["t0"]
        if self.t_end is None and "t_end" not in self._explicit:
            self.t_end = d["t_end"]
        if self.initial[0] == "":
            self.initial = d["initial"]
        if not self.out_dir:
            self.out_dir = f"runs/{self.scenario}"
        if self.nodes < 5:
            raise ConfigError("nodes must be >= 5")
        if not 0.0 < self.cfl <= 0.5:
            raise ConfigError("cfl must lie in (0, 0.5]")
        if not 0.0 < self.eps_guard < 1.0:
            raise ConfigError("eps_guard must lie in (0, 1)")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"integrator must be {' or '.join(INTEGRATORS)}")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")
        if self.monitor_evolution and self.snapshot_stride != 1:
            raise ConfigError("monitor_evolution needs snapshot_stride = 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        for key in ("t0", "t_end", "h_stop", "certificate_z"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number")
        if self.t_end is not None and self.t_end < self.t0:
            raise ConfigError("t_end must not be earlier than t0")
        if self.h_stop < 0:
            raise ConfigError("h_stop must be >= 0")
        if self.condition_samples < 2:
            raise ConfigError("condition_samples must be >= 2")
        return self

    _explicit: set = field(default_factory=set, repr=False, compare=False)


_BOOL_KEYS = {"require_conditions", "monitor_evolution", "certificate"}
_INT_KEYS = {"nodes", "max_steps", "snapshot_stride", "condition_samples"}
_FLOAT_KEYS = {"t0", "t_end", "h_stop", "cfl", "eps_guard", "certificate_z"}
_STR_KEYS = {"scenario", "profile", "integrator", "out_dir"}
_ALL_KEYS = _BOOL_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"initial"}


def _parse_selector(text: str) -> tuple:
    text = text.strip()
    if "(" not in text:
        return (text, ())
    name, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ConfigError(f"malformed selector {text!r}")
    args = []
    body = rest[:-1].strip()
    if body:
        for tok in body.split(","):
            tok = tok.strip()
            try:
                value = float(tok)
            except ValueError:
                args.append(tok)        # a name, such as plane(widest)
                continue
            if not math.isfinite(value):
                raise ConfigError(f"selector argument {tok!r} in {text!r} is not a finite number")
            args.append(value)
    return (name.strip(), tuple(args))


def _format_selector(sel: tuple) -> str:
    name, args = sel
    if not args:
        return name
    parts = []
    for a in args:
        parts.append(format(a, ".17g") if isinstance(a, float) else str(a))
    return f"{name}({', '.join(parts)})"


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario configuration."""
    values = {}
    explicit = set()
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
        explicit.add(key)
        try:
            if key in _BOOL_KEYS:
                if val.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                values[key] = val.lower() == "true"
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = None if val.lower() == "none" else float(val)
            elif key == "initial":
                values[key] = _parse_selector(val)
            else:
                values[key] = val
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    if "scenario" not in values:
        raise ConfigError("missing required key 'scenario'")
    cfg = ScenarioConfig(**values)
    cfg._explicit = explicit
    return cfg.validated()


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
    lines = []
    for f in fields(cfg):
        if f.name == "_explicit":
            continue
        val = getattr(cfg, f.name)
        if f.name == "initial":
            out = _format_selector(val)
        elif val is None:
            out = "none"
        elif isinstance(val, bool):
            out = "true" if val else "false"
        elif isinstance(val, float):
            out = format(val, ".17g")
        else:
            out = str(val)
        lines.append(f"{f.name} = {out}")
    return "\n".join(lines) + "\n"
