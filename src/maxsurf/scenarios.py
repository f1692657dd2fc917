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
from .flow import first_step_underflows
from .geometry import FlowState, GridSpec
from .profiles import cmc_leaf_through, leaf_time, profile_from_spec


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


def _grid(kind: str, n: int, radius: float = 1.0) -> GridSpec:
    try:
        return GridSpec(kind, n, radius)
    except ValueError as exc:       # too few nodes for the kind
        raise ConfigError(str(exc)) from exc


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """The scenario of a config; ConfigError when its first time step underflows."""
    scenario = _build(cfg)
    if first_step_underflows(scenario.state0, scenario.profile, cfg.cfl):
        raise ConfigError(f"|t0| = {abs(cfg.t0)} is too large: the first time step underflows")
    return scenario


def _build(cfg: ScenarioConfig) -> Scenario:
    profile = profile_from_spec(cfg.profile)
    name, args = cfg.initial
    n = cfg.nodes
    if cfg.scenario == "grim_reaper":
        if profile.boundary_type != "planar":
            raise ConfigError("grim_reaper needs a planar boundary profile")
        if name != "translator":
            raise ConfigError("grim_reaper supports initial = translator")
        if cfg.t0 >= 0:
            raise ConfigError("the translating solution needs t0 < 0")
        xb = grim_reaper_boundary(cfg.t0)
        grid = _grid("curve1d", n)
        x = grid.reference() * xb
        u0 = np.log(np.cosh(x)) + cfg.t0
        state = FlowState(grid, cfg.t0, u0, (-xb, xb))
        return Scenario(cfg.scenario, profile, state, grim_reaper())

    if cfg.scenario == "cylinder_disk":
        radius = profile.params[0]
        grid = _grid("disk2d", n, radius)
        dg = disk_grid(n, radius)
        rho2 = (dg.X**2 + dg.Y**2) / radius**2
        if name == "constant":
            c = args[0] if args else 0.0
            u0 = np.where(dg.inside, float(c), 0.0)
            exact = cylinder_disk_constant(float(c))
        elif name == "bump":
            amp = args[0] if args else 0.1
            u0 = np.where(dg.inside, float(amp) * (1.0 - rho2) ** 2, 0.0)
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
            z = _resolve_plane_z(profile, args[0] if args else "widest")
            u0 = np.full(n, z)
            rb = float(profile.f(z))
            return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb),
                            plane(z), plane_z=z)
        if name == "plane_bump":
            z = _resolve_plane_z(profile, args[0] if args else "widest")
            amp = float(args[1]) if len(args) > 1 else 0.05
            u0 = z + amp * (1.0 - s_ref**2) ** 2
            rb = float(profile.f(z))       # bump vanishes at the rim
            return Scenario(cfg.scenario, profile, FlowState(grid, cfg.t0, u0, rb),
                            None, plane_z=z)
        if name == "nodes":
            u0 = np.asarray(args, dtype=float)
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
    z0 = float(args[0]) if args else 1.0
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
