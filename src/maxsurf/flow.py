"""Time integration of graphical mean curvature flow with the free boundary.

The scalar equations (flat ambient chart, b = 0):

    curve1d   u_t = u_xx / (1 - u_x^2)                   on [x_l(t), x_r(t)]
    radial2d  u_t = u_rr / (1 - u_r^2) + u_r / rho       on [0, rho_b(t)]
    disk2d    u_t = (delta^ij + vhat^2 D^i u D^j u) D^2_ij u   on a fixed disk

with the perpendicularity condition imposed through ghost nodes
(u_x = 1/s' against a planar boundary, u_r = f'(u) against a rotational
tube, u_r = 0 on the cylinder) and the boundary point advected along the
tube: rho_b' = f'(u_b) u_t / (1 - f'^2).  Moving domains use a fixed
reference grid rescaled each step, which adds the advection term
(node velocity) * u_x to the right-hand side.

Explicit Euler (default) or two-stage Runge-Kutta, with the parabolic step
bound dt = cfl * h^2 * min(1 - |Du|^2) (halved for the 2d kinds).  A tripped
spacelike guard is a successful detection of gradient blow-up, reported as a
trajectory event rather than an exception from `run`.

Each grid kind supplies only what differs (an evaluation, a rate, a
projection back onto the boundary and its record fields, see ``_KINDS``);
one step skeleton and one record packer serve all three.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .disk import disk_grid
from .geometry import (
    FlowState, GridSpec, disk_derivatives, planar_V, rotational_V_factors, trapezoid_weights,
)
from .profiles import (
    RotationalProfile, normal_curvature, planar_boundary_data, profile_curvature, rim_curvature,
)

CHUNK_STEPS = 65536

RECORD_COLUMNS = (
    "t", "sup_v", "sup_v_hat", "sup_H", "volume", "int_H2_dV", "osc_u",
    "u_min", "u_max", "boundary_lo", "boundary_hi",
    "bdry_res_Hmu", "bdry_res_vmu", "bdry_grad_v_max", "bdry_H2_ineq_max",
    "bdry_Asig_nn_min", "min_gap",
)
_COL = {name: k for k, name in enumerate(RECORD_COLUMNS)}


class FlowEvent(enum.Enum):
    CONVERGED = "converged"
    GUARD_TRIPPED = "guard_tripped"
    TIME_EXHAUSTED = "time_exhausted"
    STEP_LIMIT = "step_limit"


class FlowError(RuntimeError):
    """Newton failure on the incidence equation or time step underflow."""


class GuardTrip(RuntimeError):
    """Spacelike margin fell below eps_guard (gradient blow-up detected)."""

    def __init__(self, t: float, margin: float):
        super().__init__(f"spacelike guard tripped at t={t} (margin {margin:.3e})")
        self.t = t
        self.margin = margin


@dataclass(frozen=True)
class StepControl:
    cfl: float = 0.4
    eps_guard: float = 1e-3
    max_steps: int = 5_000_000
    h_stop: float = 0.0          # 0 disables the sup|H| convergence test
    t_end: Optional[float] = None
    integrator: str = "euler"    # "euler" | "rk2"

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if not 0.0 < self.eps_guard < 1.0:
            raise ValueError("eps_guard must lie in (0, 1)")
        if self.integrator not in ("euler", "rk2"):
            raise ValueError("integrator must be 'euler' or 'rk2'")


@dataclass
class Trajectory:
    """Per-step scalar series plus state snapshots at a stride."""

    records: np.ndarray                  # (n_records, len(RECORD_COLUMNS))
    states: list                         # FlowState snapshots
    state_steps: list                    # global step index of each snapshot
    event: FlowEvent
    event_time: float
    grid: GridSpec

    def series(self, name: str) -> np.ndarray:
        return self.records[:, _COL[name]]

    @property
    def times(self) -> np.ndarray:
        return self.series("t")


class _Eval(NamedTuple):
    """PDE data of one state: spacing, spacelike margin, kind-specific fields."""

    h: float
    m_min: float
    data: tuple


# -- curve1d: both ends on a planar boundary ------------------------------------


def _curve1d_eval(state: FlowState, profile) -> _Eval:
    """PDE data on the current grid: derivatives, margins, boundary rates."""
    u, (xl, xr) = state.u, state.boundary
    n = u.size
    h = (xr - xl) / (n - 1)
    dsR = float(profile.ds(xr))
    dsL = float(profile.ds(abs(xl)))
    slope_r = 1.0 / dsR
    slope_l = -1.0 / dsL
    ux = np.empty_like(u)
    ux[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    ux[0] = slope_l
    ux[-1] = slope_r
    uxx = np.empty_like(u)
    uxx[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    # ghost (mirror-slope) form for the update: keeps the explicit stability
    # bound of the interior stencil
    uxx[0] = (2.0 * u[1] - 2.0 * u[0] - 2.0 * h * slope_l) / (h * h)
    uxx[-1] = (2.0 * u[-2] - 2.0 * u[-1] + 2.0 * h * slope_r) / (h * h)
    m = 1.0 - ux * ux
    rhs = uxx / m
    # boundary speeds from the second-order one-sided second derivative
    # (the rim values themselves are projected back onto the boundary curve)
    uxx_l2 = (-3.5 * u[0] + 4.0 * u[1] - 0.5 * u[2] - 3.0 * h * slope_l) / (h * h)
    uxx_r2 = (-3.5 * u[-1] + 4.0 * u[-2] - 0.5 * u[-3] + 3.0 * h * slope_r) / (h * h)
    rhs2 = (uxx_l2 / m[0], uxx_r2 / m[-1])
    xdot_r = rhs2[1] * dsR / (dsR * dsR - 1.0)
    xdot_l = -rhs2[0] * dsL / (dsL * dsL - 1.0)
    return _Eval(h, float(m.min()), (ux, m, rhs, np.array([xdot_l, xdot_r]), rhs2))


def _curve1d_rate(state: FlowState, data):
    ux, _, rhs, xdot, _ = data
    xdot_l, xdot_r = xdot
    w = 0.5 * (xdot_l + xdot_r) + state.grid.reference() * 0.5 * (xdot_r - xdot_l)
    return rhs + w * ux, xdot


def _curve1d_project(state: FlowState, u, boundary, profile):
    """Exact incidence at both ends, then transport the interior along."""
    xl, xr = boundary
    slope_r = 1.0 / float(profile.ds(xr))
    slope_l = -1.0 / float(profile.ds(abs(xl)))
    xr_p = _incidence_planar(profile, xr, u[-1], slope_r)
    xl_p = _incidence_planar(profile, xl, u[0], slope_l)
    dshift = (0.5 * (xl_p - xl + xr_p - xr)
              + state.grid.reference() * 0.5 * ((xr_p - xr) - (xl_p - xl)))
    ux = np.empty_like(u)
    ux[1:-1] = (u[2:] - u[:-2]) / (xr - xl) * (u.size - 1) / 2.0
    ux[0] = slope_l
    ux[-1] = slope_r
    u = u + dshift * ux
    u[0] = float(profile.s(abs(xl_p)))
    u[-1] = float(profile.s(abs(xr_p)))
    return u, (xl_p, xr_p)


def _curve1d_record(state: FlowState, profile, h, data):
    ux, m, rhs, _, rhs2 = data
    u, (xl, xr) = state.u, state.boundary
    w = np.sqrt(m)
    v_hat = 1.0 / w
    H = v_hat * rhs
    # end values from the second-order one-sided stencil (records only)
    H[0] = v_hat[0] * rhs2[0]
    H[-1] = v_hat[-1] * rhs2[1]
    Vx, Vt = planar_V(profile, state.coords())
    v = (Vt - Vx * ux) / w
    dV = w * trapezoid_weights(u.size, h)
    ends = [_end_block(H, v, w, h, side, planar_boundary_data(profile, xb).A_VV, 0.0)
            for side, xb in (("lo", xl), ("hi", xr))]
    return u, v, v_hat, H, dV, (xl, xr), tuple(zip(*ends))


# -- radial2d: rim on a rotational tube -----------------------------------------


def _radial2d_eval(state: FlowState, profile) -> _Eval:
    u, rho_b = state.u, state.boundary
    n = u.size
    h = rho_b / (n - 1)
    rho = np.linspace(0.0, rho_b, n)
    dfb = float(profile.df(u[-1]))
    slope_b = dfb
    ux = np.empty_like(u)
    ux[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    ux[0] = 0.0
    ux[-1] = slope_b
    uxx = np.empty_like(u)
    uxx[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    uxx[0] = 2.0 * (u[1] - u[0]) / (h * h)     # even extension across the axis
    uxx[-1] = (2.0 * u[-2] - 2.0 * u[-1] + 2.0 * h * slope_b) / (h * h)
    m = 1.0 - ux * ux
    rhs = np.empty_like(u)
    rhs[1:] = uxx[1:] / m[1:] + ux[1:] / rho[1:]
    rhs[0] = uxx[0] * (1.0 / m[0] + 1.0)
    uxx_b2 = (-3.5 * u[-1] + 4.0 * u[-2] - 0.5 * u[-3] + 3.0 * h * slope_b) / (h * h)
    rhs_b2 = uxx_b2 / m[-1] + ux[-1] / rho[-1]
    rdot = dfb * rhs_b2 / (1.0 - dfb * dfb)
    return _Eval(h, float(m.min()), (rho, ux, m, rhs, rdot, rhs_b2))


def _radial2d_rate(state: FlowState, data):
    _, ux, _, rhs, rdot, _ = data
    return rhs + state.grid.reference() * rdot * ux, rdot


def _radial2d_project(state: FlowState, u, rb, profile):
    """Rim radius back onto the tube, then transport the interior along."""
    ub = u[-1]
    dfb = float(profile.df(ub))
    if abs(dfb) < 1e-13:
        # cylinder-like tangency: rim radius is pinned by f itself
        rb_p = float(profile.f(ub))
        du_b = 0.0
    else:
        # solve r = f(u_b + f'(u_b) (r - rb)) for the rim radius
        rb_p = _newton(lambda r: r - float(profile.f(ub + dfb * (r - rb))),
                       lambda r: 1.0 - float(profile.df(ub + dfb * (r - rb))) * dfb, rb, "rho")
        du_b = dfb * (rb_p - rb)
    dshift = state.grid.reference() * (rb_p - rb)
    ux = np.empty_like(u)
    ux[1:-1] = (u[2:] - u[:-2]) / (2.0 * rb / (u.size - 1))
    ux[0] = 0.0
    ux[-1] = dfb
    u = u + dshift * ux
    u[-1] += du_b - dshift[-1] * ux[-1]
    return u, rb_p


def _radial2d_record(state: FlowState, profile, h, data):
    rho, ux, m, rhs, _, rhs_b2 = data
    u = state.u
    w = np.sqrt(m)
    v_hat = 1.0 / w
    H = v_hat * rhs
    H[-1] = v_hat[-1] * rhs_b2
    dfz, invw = rotational_V_factors(profile, u)
    v = (1.0 - dfz * ux) * invw / w
    dV = 2.0 * np.pi * rho * w * trapezoid_weights(u.size, h)
    bc = profile_curvature(profile, float(u[-1]))
    block = _end_block(H, v, w, h, "hi", bc.A_VV, bc.A_WW[0])
    return u, v, v_hat, H, dV, (0.0, state.boundary), tuple(zip(block))


# -- disk2d: fixed disk inside a vertical cylinder --------------------------------


def _disk2d_eval(state: FlowState, profile) -> _Eval:
    grid = disk_grid(state.grid.n, state.grid.radius)
    h = grid.h
    ux, uy, uxx, uyy, uxy = disk_derivatives(grid.fill_ghosts(state.u), h)
    m = 1.0 - (ux * ux + uy * uy)
    vh2 = 1.0 / m
    rhs = (uxx + uyy) + vh2 * (ux * ux * uxx + 2 * ux * uy * uxy + uy * uy * uyy)
    return _Eval(h, float(m[grid.inside[1:-1, 1:-1]].min()), (grid, ux, uy, m, rhs))


def _disk2d_rate(state: FlowState, data):
    """du/dt at the nodes inside the disk, zero elsewhere; the rim does not move."""
    grid, _, _, _, rhs = data
    udot = np.zeros_like(state.u)
    udot[1:-1, 1:-1] = np.where(grid.inside[1:-1, 1:-1], rhs, 0.0)
    return udot, None


def _disk2d_project(state: FlowState, u, boundary, profile):
    return u, boundary


def _disk2d_record(state: FlowState, profile, h, data):
    grid, ux, uy, m, rhs = data
    u = state.u
    ins_core = grid.inside[1:-1, 1:-1]
    w = np.sqrt(np.where(ins_core, m, 1.0))
    v_hat = 1.0 / w
    H = np.where(ins_core, v_hat * rhs, 0.0)
    if isinstance(profile, RotationalProfile):
        dfz, invw = rotational_V_factors(profile, u[1:-1, 1:-1])
        rsafe = np.maximum(grid.r[1:-1, 1:-1], 1e-300)
        du_rad = (grid.X[1:-1, 1:-1] * ux + grid.Y[1:-1, 1:-1] * uy) / rsafe
        v = np.where(ins_core, v_hat * (1.0 - dfz * du_rad) * invw, 1.0)
    else:
        v = v_hat
    dV = np.where(ins_core, grid.area_weights[1:-1, 1:-1] / v_hat, 0.0)
    # boundary identities sampled on the offset monitor ring (clean zone,
    # no ghost values in any sampling cell), with the rim curvature there
    Hf = np.zeros_like(u)
    Hf[1:-1, 1:-1] = H
    vf = np.ones_like(u)
    vf[1:-1, 1:-1] = v
    inv_w, a_vv, a_ww = rim_curvature(profile, grid.rim_values(u))
    block = _boundary_block(
        grid.rim_values(Hf), grid.rim_values(vf), grid.radial_derivative_at_rim(Hf),
        grid.radial_derivative_at_rim(vf), grid.radial_derivative_at_rim(Hf * Hf),
        inv_w, a_vv, a_ww,
    )
    return u[1:-1, 1:-1], v, v_hat, H, dV, (grid.radius, grid.radius), block, ins_core


class _Kind(NamedTuple):
    evaluate: Callable   # (state, profile) -> _Eval
    rate: Callable       # (state, data) -> (du/dt, boundary velocity)
    project: Callable    # (state, u, boundary, profile) -> (u, boundary), rim back on the tube
    record: Callable     # (state, profile, h, data) -> the fields of _pack_record
    dim_factor: float    # the dt bound is cfl h^2 m_min / dim_factor


_KINDS = {
    "curve1d": _Kind(_curve1d_eval, _curve1d_rate, _curve1d_project, _curve1d_record, 1.0),
    "radial2d": _Kind(_radial2d_eval, _radial2d_rate, _radial2d_project, _radial2d_record, 2.0),
    "disk2d": _Kind(_disk2d_eval, _disk2d_rate, _disk2d_project, _disk2d_record, 2.0),
}


# -- the step skeleton -------------------------------------------------------------


def step(state: FlowState, ctrl: StepControl, profile,
         dt: Optional[float] = None) -> FlowState:
    """Advance one explicit step; raises GuardTrip / FlowError on failure."""
    return _advance(state, ctrl, profile, _evaluate(state, ctrl, profile), dt)[0]


def _evaluate(state: FlowState, ctrl: StepControl, profile) -> _Eval:
    """PDE data of a state; raises GuardTrip when its margin is below the guard."""
    ev = _KINDS[state.grid.kind].evaluate(state, profile)
    if ev.m_min < ctrl.eps_guard:
        raise GuardTrip(state.t, ev.m_min)
    return ev


def _dt_bound(state: FlowState, ev: _Eval, cfl: float) -> float:
    return cfl * ev.h * ev.h * ev.m_min / _KINDS[state.grid.kind].dim_factor


def _advance(state: FlowState, ctrl: StepControl, profile, ev: _Eval,
             dt: Optional[float] = None):
    """(next state, record of this state) from an evaluated state."""
    kind = _KINDS[state.grid.kind]
    rec = _pack_record(state.t, *kind.record(state, profile, ev.h, ev.data))
    dt = _clip_dt(_dt_bound(state, ev, ctrl.cfl) if dt is None else dt, state.t, ctrl.t_end)
    udot, bdot = kind.rate(state, ev.data)
    u, boundary = state.u + dt * udot, _advance_boundary(state.boundary, bdot, dt)
    if ctrl.integrator == "rk2":
        ev1 = _evaluate(FlowState(state.grid, state.t, u, boundary), ctrl, profile)
        udot1, bdot1 = kind.rate(state, ev1.data)
        half = 0.5 * dt
        u = state.u + half * (udot + udot1)
        boundary = _advance_boundary(state.boundary, None if bdot is None else bdot + bdot1, half)
    u, boundary = kind.project(state, u, boundary, profile)
    return FlowState(state.grid, state.t + dt, u, boundary), rec


def _advance_boundary(boundary, bdot, dt):
    if boundary is None or bdot is None:
        return boundary
    if isinstance(boundary, tuple):
        return (boundary[0] + dt * bdot[0], boundary[1] + dt * bdot[1])
    return boundary + dt * bdot


def _clip_dt(dt, t, t_end):
    if t_end is not None and t + dt > t_end:
        dt = t_end - t
    if dt < 1e-16 * max(1.0, abs(t)):
        raise _step_underflow(dt, t)
    return dt


def _newton(phi: Callable, dphi: Callable, x0: float, rim: str) -> float:
    """Root of the incidence residual phi near the predicted rim point x0."""
    xi = x0
    for _ in range(12):
        xi_new = xi - phi(xi) / dphi(xi)
        done = abs(xi_new - xi) < 1e-14 * max(1.0, abs(xi))
        xi = xi_new
        if done:
            break
    res = phi(xi)
    if not abs(res) < 1e-9:
        raise _newton_failure(rim, x0, res)
    return xi


def _incidence_planar(profile, xb, ub, slope):
    """Slide the rim point along the surface tangent onto y = s(|x|)."""
    sgn = 1.0 if xb > 0 else -1.0    # the branch of the start point
    return _newton(lambda x: ub + slope * (x - xb) - float(profile.s(abs(x))),
                   lambda x: slope - sgn * float(profile.ds(abs(x))), xb, "x")


def _newton_failure(rim: str, start: float, res: float) -> FlowError:
    return FlowError(f"incidence Newton failed at {rim}={float(start)} (residual {res:.2e})")


def _step_underflow(dt: float, t: float) -> FlowError:
    return FlowError(f"time step underflow (dt = {dt:.3e} at t = {float(t)})")


# -- per-step scalar records ----------------------------------------------------


def _pack_record(t, u, v, v_hat, H, dV, bounds, block, mask=None) -> np.ndarray:
    """One record row from a state's nodal fields.

    The sups and the range of u run over the masked nodes (all nodes without
    a mask), the integrals over every entry of dV; bounds = (boundary_lo,
    boundary_hi); block is _boundary_block's result, each entry an array or
    a tuple over the boundary points.
    """
    sel = slice(None) if mask is None else mask
    u_in = u[sel]
    res_H, res_v, grad_v, h2_ineq, a_nn = block
    return np.array([
        t, float(v[sel].max()), float(v_hat[sel].max()), float(np.abs(H[sel]).max()),
        float(dV.sum()), float((H * H * dV).sum()),
        float(u_in.max() - u_in.min()), float(u_in.min()), float(u_in.max()), *bounds,
        np.maximum.reduce(res_H), np.maximum.reduce(res_v), np.maximum.reduce(grad_v),
        np.maximum.reduce(h2_ineq), np.minimum.reduce(a_nn), np.nan,
    ])


def _boundary_block(H_b, v_b, dH, dv, dH2, inv_w, a_vv, a_ww, grad_v_2pt=None):
    """Boundary identity data at boundary points (scalars or arrays).

    A^Sig(nu,nu) = v^2 A_VV + (v^2-1) A_WW from the frame decomposition of nu
    (a_ww = 0 for planar boundaries).  The recorded grad_mu v uses the
    2-point difference when provided: v attains its discrete minimum at the
    perpendicular boundary, so that sign check is exact.
    """
    a_nn = normal_curvature(v_b, a_vv, a_ww)
    grad_H = dH * inv_w
    grad_v = dv * inv_w
    grad_H2 = dH2 * inv_w
    res_H = abs(grad_H + H_b * a_nn)
    res_v = abs(grad_v + v_b * (a_nn - a_vv))
    h2_ineq = grad_H2 + H_b * H_b * a_vv
    gv = grad_v if grad_v_2pt is None else grad_v_2pt * inv_w
    return res_H, res_v, gv, h2_ineq, a_nn


def _end_block(H, v, w, h, side, a_vv, a_ww):
    """_boundary_block at one end of a 1d grid."""
    idx = 0 if side == "lo" else -1
    H_b, dH = _rim_extrapolated(H, h, side)
    _, dH2 = _rim_extrapolated(H * H, h, side)
    dv = _one_sided_end(v, h, side)
    # sign-exact first-order difference: v attains its minimum 1 at the rim
    dv2pt = (v[0] - v[1]) / h if side == "lo" else (v[-1] - v[-2]) / h
    return _boundary_block(float(H_b), float(v[idx]), dH, dv, dH2, 1.0 / float(w[idx]),
                           a_vv, a_ww, grad_v_2pt=float(dv2pt))


def _one_sided_end(arr, h, side):
    if side == "hi":
        return (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * h)
    return -(3.0 * arr[0] - 4.0 * arr[1] + arr[2]) / (2.0 * h)


def _rim_extrapolated(arr, h, side):
    """(value, outward derivative) at the rim from the three nodes inside it.

    Quadratic fit through the first fully-centered nodes; the rim node itself
    is skipped because second-derivative quantities carry the moving-boundary
    error layer there.
    """
    if side == "hi":
        f1, f2, f3 = arr[-2], arr[-3], arr[-4]
    else:
        f1, f2, f3 = arr[1], arr[2], arr[3]
    val = 3.0 * f1 - 3.0 * f2 + f3
    # outward = against the inward-distance variable, on either side
    dval = (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / h
    return val, dval


def record_state(state: FlowState, ctrl: StepControl, profile) -> np.ndarray:
    """Scalar record of a state without stepping (terminal records).

    No guard applies and ``ctrl`` is not read; it stays so that ``step`` and
    ``record_state`` take the same three positional arguments, which is how
    the benchmark's trace replay (perfbench/tracing.py) calls both.
    """
    kind = _KINDS[state.grid.kind]
    ev = kind.evaluate(state, profile)
    return _pack_record(state.t, *kind.record(state, profile, ev.h, ev.data))


# -- trajectory drivers ---------------------------------------------------------


def run(state0: FlowState, ctrl: StepControl, profile, stride: int = 100) -> Trajectory:
    """Iterate the flow until convergence, guard trip, t_end or step limit.

    Euler runs of the 1d kinds on built-in profiles take the compiled step
    loop of ``_kernels`` when that library can be built; everything else,
    and every run when it cannot, takes the numpy reference engine.
    """
    if stride < 1:
        raise ValueError("stride must be a positive number of steps")
    if ctrl.integrator == "euler" and state0.grid.kind in ("curve1d", "radial2d"):
        from . import _kernels

        if _kernels.available and profile.kind in _kernels.PROFILES:
            return _kernels.run_fast(state0, ctrl, profile, stride)
    return _run_python(state0, ctrl, profile, stride)


def _t_end_reached(t: float, t_end: Optional[float]) -> bool:
    return t_end is not None and t >= t_end - 1e-14 * max(1.0, abs(t_end))


def _run_python(state0: FlowState, ctrl: StepControl, profile, stride: int) -> Trajectory:
    state = state0.copy()
    records, states, state_steps = [], [], []
    event, event_time = FlowEvent.STEP_LIMIT, state.t
    k = 0
    while True:
        if k % stride == 0:
            states.append(state.copy())
            state_steps.append(k)
        try:
            new_state, rec = _advance(state, ctrl, profile, _evaluate(state, ctrl, profile))
        except GuardTrip as trip:
            event, event_time = FlowEvent.GUARD_TRIPPED, trip.t
            records.append(record_state(state, ctrl, profile))
            break
        records.append(rec)
        state = new_state
        k += 1
        if ctrl.h_stop > 0.0 and rec[_COL["sup_H"]] < ctrl.h_stop:
            event, event_time = FlowEvent.CONVERGED, rec[_COL["t"]]
            break
        if _t_end_reached(state.t, ctrl.t_end):
            event, event_time = FlowEvent.TIME_EXHAUSTED, state.t
            break
        if k >= ctrl.max_steps:
            event, event_time = FlowEvent.STEP_LIMIT, state.t
            break
    if event is not FlowEvent.GUARD_TRIPPED:
        records.append(record_state(state, ctrl, profile))
    if not states or state_steps[-1] != k or states[-1].t != state.t:
        states.append(state.copy())
        state_steps.append(k)
    return Trajectory(np.asarray(records), states, state_steps, event, event_time, state0.grid)


def comparison_pair_run(state_a: FlowState, state_b: FlowState, ctrl: StepControl,
                        profile, motion_law_b: Optional[Callable] = None,
                        stride: int = 100):
    """Co-evolve an ordered pair with a common time step; track min(u_B - u_A).

    B may follow a user-supplied motion law (a comparison solution with
    inequalities) instead of the flow itself.
    """
    if state_a.grid != state_b.grid:
        raise ValueError("comparison pair needs a common grid")
    if np.any(state_b.u < state_a.u - 1e-12):
        raise ValueError("initial data must be ordered: u_A <= u_B nodewise")
    a, b = state_a.copy(), state_b.copy()
    nodes = (slice(None) if a.grid.kind != "disk2d"
             else disk_grid(a.grid.n, a.grid.radius).inside)
    rec_a, rec_b, gaps = [], [], []
    states_a, states_b, state_steps = [], [], []
    event, event_time = FlowEvent.STEP_LIMIT, a.t
    k = 0
    while True:
        gaps.append(float((b.u - a.u)[nodes].min()))
        if k % stride == 0:
            states_a.append(a.copy())
            states_b.append(b.copy())
            state_steps.append(k)
        try:
            ev_a = _evaluate(a, ctrl, profile)
            dt = _dt_bound(a, ev_a, ctrl.cfl)
            if motion_law_b is None:
                ev_b = _evaluate(b, ctrl, profile)
                dt = min(dt, _dt_bound(b, ev_b, ctrl.cfl))
            a2, ra = _advance(a, ctrl, profile, ev_a, dt)
            if motion_law_b is None:
                b2, rb = _advance(b, ctrl, profile, ev_b, dt)
            else:
                udot, bdot = motion_law_b(b)
                b2 = FlowState(b.grid, b.t + dt, b.u + dt * udot,
                               _advance_boundary(b.boundary, bdot, dt))
                rb = record_state(b, ctrl, profile)
        except GuardTrip as trip:
            event, event_time = FlowEvent.GUARD_TRIPPED, trip.t
            break
        rec_a.append(ra)
        rec_b.append(rb)
        a, b = a2, b2
        k += 1
        if _t_end_reached(a.t, ctrl.t_end):
            event, event_time = FlowEvent.TIME_EXHAUSTED, a.t
            break
        if k >= ctrl.max_steps:
            break
    traj_a = Trajectory(np.asarray(rec_a), states_a, state_steps, event, event_time, a.grid)
    traj_b = Trajectory(np.asarray(rec_b), states_b, state_steps, event, event_time, b.grid)
    traj_a.records[:, _COL["min_gap"]] = np.asarray(gaps[: len(rec_a)])
    return {"traj_a": traj_a, "traj_b": traj_b, "min_gap": np.asarray(gaps)}
