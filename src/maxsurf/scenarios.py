"""Scenario library: profile + grid + initial data (+ exact solution where known).

grim_reaper        translating solution inside the trumpet (curve1d); the
                   gradient blow-up benchmark when run toward t = 0.
cylinder_disk      graphs over a fixed disk meeting a vertical cylinder
                   (disk2d); relaxation to flat maximal disks.
sine_tube          rotational tube f = a + b sin(w z) (radial2d); stable and
                   unstable tangent planes at the radius extrema.
pseudosphere_leaf  a CMC leaf inside the pseudo-sphere tube (radial2d);
                   static geometry checks against |H| = 2/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
from .flow import start_error
from .geometry import FlowState, GridSpec
from .profiles import ProfileError, cmc_leaf_through, leaf_time, profile_from_spec


@dataclass
class Scenario:
    name: str
    profile: object
    state0: FlowState
    exact: Optional[AnalyticSolution]
    plane_z: Optional[float] = None      # reference plane height, if any


def _resolve_plane_z(profile, which) -> float:
    """Map widest/thinnest to anchor heights of a sine tube, or pass floats."""
    if isinstance(which, float):
        return which
    if profile.kind != "sine_tube":
        raise ConfigError("named plane anchors need the sine_tube profile")
    a, b, omega = profile.params
    if which == "widest":
        return math.pi / (2.0 * omega)
    if which == "thinnest":
        return 3.0 * math.pi / (2.0 * omega)
    raise ConfigError(f"unknown plane anchor {which!r}")


def _args(cfg: ScenarioConfig, *defaults) -> list:
    """The initial selector's arguments, the missing trailing ones taken from
    defaults; where a default is a number, so must the argument be."""
    name, args = cfg.initial
    if len(args) > len(defaults):
        raise ConfigError(f"too many arguments in initial = {name}: it takes at most "
                          f"{len(defaults)}")
    out = list(args) + list(defaults[len(args):])
    for value, default in zip(out, defaults):
        if isinstance(default, float) and not isinstance(value, float):
            raise ConfigError(f"initial = {name}: argument {value!r} is not a number")
    return out


def _grid(kind: str, n: int, radius: float = 1.0) -> GridSpec:
    try:
        return GridSpec(kind, n, radius)
    except ValueError as exc:       # too few nodes for the kind
        raise ConfigError(str(exc)) from exc


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """The scenario of a config; ConfigError when its initial data are not
    spacelike or its first time step underflows."""
    scenario = _build(cfg)
    error = start_error(scenario.state0, scenario.profile, cfg.cfl)
    if error:
        raise ConfigError(error)
    return scenario


def _build(cfg: ScenarioConfig) -> Scenario:
    try:
        profile = profile_from_spec(cfg.profile)
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc
    name, args = cfg.initial
    n = cfg.nodes
    if cfg.scenario == "grim_reaper":
        if profile.boundary_type != "planar":
            raise ConfigError("grim_reaper needs a planar boundary profile")
        if name != "translator":
            raise ConfigError("grim_reaper supports initial = translator")
        _args(cfg)                  # the translator takes no argument
        try:
            xb = grim_reaper_boundary(cfg.t0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        grid = _grid("curve1d", n)
        x = grid.reference() * xb
        u0 = np.log(np.cosh(x)) + cfg.t0
        state = FlowState(grid, cfg.t0, u0, (-xb, xb))
        return Scenario(cfg.scenario, profile, state, grim_reaper())

    if cfg.scenario == "cylinder_disk":
        # the disk's du/drho = 0 on a fixed rim is the cylinder's condition alone
        if profile.kind != "cylinder":
            raise ConfigError(f"cylinder_disk takes the cylinder(R) profile alone, "
                              f"not {cfg.profile}")
        radius = profile.params[0]
        grid = _grid("disk2d", n, radius)
        dg = disk_grid(n, radius)
        rho2 = (dg.X**2 + dg.Y**2) / radius**2
        if name == "constant":
            (c,) = _args(cfg, 0.0)
            u0 = np.where(dg.inside, c, 0.0)
            exact = cylinder_disk_constant(c)
        elif name == "bump":
            (amp,) = _args(cfg, 0.1)
            u0 = np.where(dg.inside, amp * (1.0 - rho2) ** 2, 0.0)
            exact = None
        elif name == "nodes":
            raise ConfigError("node lists are supported for sine_tube (radial) grids")
        else:
            raise ConfigError(f"cylinder_disk does not support initial = {name}")
        state = FlowState(grid, cfg.t0, u0, None)
        return Scenario(cfg.scenario, profile, state, exact, plane_z=None)

    if cfg.scenario == "sine_tube":
        if profile.boundary_type != "rotational":
            raise ConfigError("sine_tube needs a rotational profile")
        grid = _grid("radial2d", n)
        s_ref = grid.reference()
        if name == "plane":
            (which,) = _args(cfg, "widest")
            z = _resolve_plane_z(profile, which)
            u0 = np.full(n, z)
            rb = float(profile.f(z))
            return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb),
                            plane(z), plane_z=z)
        if name == "plane_bump":
            which, amp = _args(cfg, "widest", 0.05)
            z = _resolve_plane_z(profile, which)
            u0 = z + amp * (1.0 - s_ref**2) ** 2
            rb = float(profile.f(z))       # bump vanishes at the rim
            return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb),
                            None, plane_z=z)
        if name == "nodes":
            u0 = np.asarray(_args(cfg, *[0.0] * len(args)), dtype=float)   # numbers, any count
            if u0.size != n:
                raise ConfigError(f"nodes list has {u0.size} entries, grid needs {n}")
            rb = float(profile.f(u0[-1]))
            return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb),
                            None)
        raise ConfigError(f"sine_tube does not support initial = {name}")

    # pseudosphere_leaf
    if profile.boundary_type != "rotational":
        raise ConfigError("pseudosphere_leaf needs a rotational profile")
    if name != "leaf":
        raise ConfigError("pseudosphere_leaf supports initial = leaf(z)")
    (z0,) = _args(cfg, 1.0)
    leaf = cmc_leaf_through(profile, z0)
    grid = _grid("radial2d", n)
    rb = float(profile.f(z0))
    rho = grid.reference() * rb
    u0 = np.asarray(leaf_time(profile, rho, z0), dtype=float)
    if leaf.kind == "hyperbolic_plane":
        exact = hyperbolic_plane(leaf.R, leaf.J, leaf.sign)
    else:
        exact = plane(z0)
    return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb), exact,
                    plane_z=z0 if leaf.kind == "plane" else None)
