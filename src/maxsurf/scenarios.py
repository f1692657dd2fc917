"""Scenario library: profile + grid + initial data (+ exact solution where known).

grim_reaper        translating solution inside the trumpet (curve1d); the
                   gradient blow-up benchmark when run toward t = 0.
cylinder_disk      graphs over a fixed disk meeting a vertical cylinder
                   (disk2d); relaxation to flat maximal disks.
sine_tube          rotational tube f = a + b sin(w z) (radial2d); stable and
                   unstable tangent planes at the radius extrema.
pseudosphere_leaf  a CMC leaf inside the pseudo-sphere tube (radial2d);
                   static geometry checks against |H| = 2/R.

Each scenario is one entry of ``_SCENARIOS``: its grid kind, its selectors and
the defaults ``config.parse_config`` fills in (profile, t0, t_end, initial).
``build_scenario`` builds its grid, asks the kind whether it takes the profile
(``flow.check_profile``) and calls the selector's builder.  Nothing branches on
a scenario or selector name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analytic import (
    AnalyticSolution,
    cylinder_disk_constant,
    grim_reaper,
    grim_reaper_boundary,
    hyperbolic_plane,
    plane,
)
from .config import ConfigError, ScenarioConfig
from .disk import disk_grid
from .flow import check_profile, start_error
from .geometry import FlowState, GridSpec
from .profiles import cmc_leaf_through, leaf_time, profile_from_spec


@dataclass
class Scenario:
    name: str
    profile: object
    state0: FlowState
    exact: Optional[AnalyticSolution]
    plane_z: Optional[float] = None      # reference plane height, if any


# named plane heights in quarter periods pi / (2 w) of the sine tube a + b sin(w z)
_PLANE_ANCHORS = {"sine_tube": {"widest": 1.0, "thinnest": 3.0}}


def _resolve_plane_z(profile, which) -> float:
    """Map widest/thinnest to anchor heights of a sine tube, or pass floats."""
    if isinstance(which, float):
        return which
    anchors = _PLANE_ANCHORS.get(profile.kind)
    if anchors is None:
        raise ConfigError("named plane anchors need the sine_tube profile")
    if which not in anchors:
        raise ConfigError(f"unknown plane anchor {which!r}")
    return anchors[which] * math.pi / (2.0 * profile.params[2])


def _translator(cfg, profile, grid):
    """The exact translating solution at t0; its rim must lie in the domain."""
    try:
        xb = grim_reaper_boundary(cfg.t0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = profile.domain
    if not lo <= xb <= hi:
        raise ConfigError(f"the translator's half-width artanh(e^t0) = {xb:.6g} at t0 = "
                          f"{cfg.t0} lies outside the boundary's domain [{lo:g}, {hi:g}]")
    x = grid.reference() * xb
    return np.log(np.cosh(x)) + cfg.t0, (-xb, xb), grim_reaper(), None


def _constant(cfg, profile, grid, c):
    dg = disk_grid(grid.n, grid.radius)
    return np.where(dg.inside, c, 0.0), None, cylinder_disk_constant(c), None


def _bump(cfg, profile, grid, amp):
    dg = disk_grid(grid.n, grid.radius)
    rho2 = (dg.X**2 + dg.Y**2) / grid.radius**2
    return np.where(dg.inside, amp * (1.0 - rho2) ** 2, 0.0), None, None, None


def _plane(cfg, profile, grid, which):
    z = _resolve_plane_z(profile, which)
    return np.full(grid.n, z), float(profile.f(z)), plane(z), z


def _plane_bump(cfg, profile, grid, which, amp):
    z = _resolve_plane_z(profile, which)
    u0 = z + amp * (1.0 - grid.reference()**2) ** 2
    return u0, float(profile.f(z)), None, z          # the bump vanishes at the rim


def _nodes(cfg, profile, grid, *values):
    u0 = np.asarray(values, dtype=float)
    if u0.size != grid.n:
        raise ConfigError(f"nodes list has {u0.size} entries, grid needs {grid.n}")
    return u0, float(profile.f(u0[-1])), None, None


def _leaf(cfg, profile, grid, z0):
    leaf = cmc_leaf_through(profile, z0)
    rb = float(profile.f(z0))
    u0 = np.asarray(leaf_time(profile, grid.reference() * rb, z0), dtype=float)
    if leaf.kind == "hyperbolic_plane":
        return u0, rb, hyperbolic_plane(leaf.R, leaf.J, leaf.sign), None
    return u0, rb, plane(z0), z0


class _Spec(NamedTuple):
    kind: str            # the grid kind
    # selector -> (builder, default arguments; None: any count of numbers); a
    # builder maps (cfg, profile, grid, *arguments) to (u0, boundary, exact
    # solution or None, plane height or None)
    initials: dict
    # the config's scenario defaults: profile, t0, t_end and initial (a
    # selector with its arguments, as parse_config gives it)
    defaults: dict
    radius: Callable = lambda profile: 1.0     # the grid's radius


_SCENARIOS = {
    "grim_reaper": _Spec("curve1d", {"translator": (_translator, ())},
                         {"profile": "trumpet", "t0": -1.0, "t_end": -0.3,
                          "initial": ("translator", ())}),
    # the disk's radius is the cylinder's; the kind refuses any other profile
    "cylinder_disk": _Spec("disk2d", {"constant": (_constant, (0.0,)), "bump": (_bump, (0.1,))},
                           {"profile": "cylinder(1)", "t0": 0.0, "t_end": None,
                            "initial": ("constant", (0.0,))},
                           lambda p: p.params[0] if p.kind == "cylinder" else 1.0),
    "sine_tube": _Spec("radial2d", {"plane": (_plane, ("widest",)),
                                    "plane_bump": (_plane_bump, ("widest", 0.05)),
                                    "nodes": (_nodes, None)},
                       {"profile": "sine_tube(2, 0.5, 1)", "t0": 0.0, "t_end": 40.0,
                        "initial": ("plane", ("widest",))}),
    "pseudosphere_leaf": _Spec("radial2d", {"leaf": (_leaf, (1.0,))},
                               {"profile": "pseudosphere(1, 0)", "t0": 0.0, "t_end": 0.0,
                                "initial": ("leaf", (1.0,))}),
}


def _args(name: str, args: tuple, defaults: Optional[tuple]) -> list:
    """The selector's arguments, the missing trailing ones taken from defaults
    (None: any count of numbers); where a default is a number, so must the
    argument be."""
    if defaults is None:
        defaults = (0.0,) * len(args)
    if len(args) > len(defaults):
        raise ConfigError(f"too many arguments in initial = {name}: it takes at most "
                          f"{len(defaults)}")
    out = list(args) + list(defaults[len(args):])
    for value, default in zip(out, defaults):
        if isinstance(default, float) and not isinstance(value, float):
            raise ConfigError(f"initial = {name}: argument {value!r} is not a number")
    return out


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """The scenario of a config; ConfigError when its profile is not the
    boundary its grid kind imposes, its selector is not one of its own, its
    initial data are not spacelike or their first time step underflows."""
    spec = _SCENARIOS[cfg.scenario]
    try:
        profile = profile_from_spec(cfg.profile)
        grid = GridSpec(spec.kind, cfg.nodes, spec.radius(profile))
    except ValueError as exc:       # a bad profile spec, or too few nodes for the kind
        raise ConfigError(str(exc)) from exc
    try:
        check_profile(grid, profile)
    except ValueError as exc:
        raise ConfigError(f"{cfg.scenario}: {exc}") from exc
    name, args = cfg.initial
    if name not in spec.initials:
        raise ConfigError(f"{cfg.scenario} does not support initial = {name} "
                          f"(it takes {', '.join(spec.initials)})")
    build, defaults = spec.initials[name]
    u0, boundary, exact, plane_z = build(cfg, profile, grid, *_args(name, args, defaults))
    scenario = Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, boundary), exact,
                        plane_z)
    error = start_error(scenario.state0, profile, cfg.cfl)
    if error:
        raise ConfigError(error)
    return scenario
