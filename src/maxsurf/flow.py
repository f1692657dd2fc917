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

Explicit Euler, with the parabolic step bound
dt = cfl * h^2 * min(1 - |Du|^2) (halved for the 2d kinds).  A tripped
spacelike guard is a successful detection of gradient blow-up, reported as a
trajectory event rather than an exception from `run`.

A state's slope, margin and H / v_hat come from its kind's evaluation in
``geometry`` (``evaluate``), and the record's H, v and dV from its node
fields (``node_fields``), the ones the observer ``geometry.geometry`` reads
too.  Each grid kind here supplies only what the step adds (a rate with the
boundary's speeds, a projection back onto the boundary and the record's
boundary blocks, see ``_KINDS``); one step skeleton and one record packer
serve all three.  The line kinds share one record body and end block, as in
``_step.c``.  One numpy loop steps a run and a comparison pair (with their
least dt bound), and one finish ends every trajectory, the C loop's too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .disk import disk_grid
from .geometry import Evaluation, FlowState, GridSpec, NodeFields, evaluate, line_slope, node_fields
from .profiles import normal_curvature, planar_boundary_data, profile_curvature

CHUNK_STEPS = 65536
INTEGRATORS = ("euler",)    # StepControl.integrator: explicit Euler, the one method
PAIR_STRIDE = 100       # a comparison pair keeps a snapshot every PAIR_STRIDE steps

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
    integrator: str = "euler"    # one of INTEGRATORS

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if not 0.0 < self.eps_guard < 1.0:
            raise ValueError("eps_guard must lie in (0, 1)")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be {' or '.join(INTEGRATORS)}")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 <= self.h_stop < math.inf:
            raise ValueError("h_stop must be a finite number >= 0")
        if self.t_end is not None and not -math.inf < self.t_end < math.inf:
            raise ValueError("t_end must be None or a finite number")


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


# -- the line kinds: one record body -----------------------------------------------


def _line_record(state: FlowState, ev: Evaluation, f: NodeFields, bounds, ends):
    """_pack_record's fields of a line grid, with _end_block at each
    (hi, A_VV, A_WW) of ends."""
    blocks = [_end_block(f.H, f.v, ev.v_hat, ev.h, hi, a_vv, a_ww) for hi, a_vv, a_ww in ends]
    return state.u, f.v, ev.v_hat, f.H, f.dV, bounds, tuple(zip(*blocks))


# -- curve1d: both ends on a planar boundary ------------------------------------


def _curve1d_rate(state: FlowState, ev: Evaluation):
    """u_t with the node drift, and the ends' speeds from the one-sided end
    u_xx (the rim values themselves are projected back onto the boundary curve)."""
    (rhs_l2, rhs_r2), (dsL, dsR) = ev.ends, ev.profile_slope
    xdot_r = rhs_r2 * dsR / (dsR * dsR - 1.0)
    xdot_l = -rhs_l2 * dsL / (dsL * dsL - 1.0)
    w = 0.5 * (xdot_l + xdot_r) + state.grid.reference() * 0.5 * (xdot_r - xdot_l)
    return ev.rhs + w * ev.du, np.array([xdot_l, xdot_r])


def _curve1d_project(state: FlowState, u, boundary, profile):
    """Exact incidence at both ends, then transport the interior along u_x
    on the new grid."""
    xl, xr = boundary
    slope_r = 1.0 / float(profile.ds(xr))
    slope_l = -1.0 / float(profile.ds(abs(xl)))
    xr_p = _incidence_planar(profile, xr, u[-1], slope_r)
    xl_p = _incidence_planar(profile, xl, u[0], slope_l)
    dshift = (0.5 * (xl_p - xl + xr_p - xr)
              + state.grid.reference() * 0.5 * ((xr_p - xr) - (xl_p - xl)))
    u = u + dshift * line_slope(u, (xr - xl) / (u.size - 1), slope_l, slope_r)
    u[0] = float(profile.s(abs(xl_p)))
    u[-1] = float(profile.s(abs(xr_p)))
    return u, (xl_p, xr_p)


def _curve1d_record(state: FlowState, profile, ev: Evaluation, f: NodeFields):
    xl, xr = state.boundary
    return _line_record(state, ev, f, (xl, xr),
                        [(hi, planar_boundary_data(profile, xb).A_VV, 0.0)
                         for hi, xb in ((False, xl), (True, xr))])


# -- radial2d: rim on a rotational tube -----------------------------------------


def _radial2d_rate(state: FlowState, ev: Evaluation):
    """u_t with the node drift, and the rim's speed from the one-sided rim u_rr."""
    dfb, rhs_b2 = ev.profile_slope[1], ev.ends[1]
    rdot = dfb * rhs_b2 / (1.0 - dfb * dfb)
    return ev.rhs + state.grid.reference() * rdot * ev.du, rdot


def _radial2d_project(state: FlowState, u, rb, profile):
    """Rim radius back onto the tube, then transport the interior along u_r
    on the new grid."""
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
    u = u + dshift * line_slope(u, rb / (u.size - 1), 0.0, dfb)
    u[-1] += du_b - dshift[-1] * dfb
    return u, rb_p


def _radial2d_record(state: FlowState, profile, ev: Evaluation, f: NodeFields):
    bc = profile_curvature(profile, float(state.u[-1]))
    return _line_record(state, ev, f, (0.0, state.boundary), [(True, bc.A_VV, bc.A_WW[0])])


# -- disk2d: fixed disk inside a vertical cylinder --------------------------------


def _disk2d_rate(state: FlowState, ev: Evaluation):
    """du/dt at the nodes inside the disk, zero elsewhere; the rim does not move."""
    return np.where(disk_grid(state.grid.n, state.grid.radius).inside, ev.rhs, 0.0), None


def _disk2d_project(state: FlowState, u, boundary, profile):
    return u, boundary


def _disk2d_record(state: FlowState, profile, ev: Evaluation, f: NodeFields):
    grid = disk_grid(state.grid.n, state.grid.radius)
    # boundary identities sampled on the offset monitor ring (clean zone,
    # no ghost values in any sampling cell); on the cylinder V = e_t, so v is
    # v_hat, and A(V,V) = -0.0, A(W,W) = 1/R and 1/sqrt(1 - f'^2) = 1
    block = _boundary_block(
        grid.rim_values(f.H), grid.rim_values(ev.v_hat), grid.radial_derivative_at_rim(f.H),
        grid.radial_derivative_at_rim(ev.v_hat), grid.radial_derivative_at_rim(f.H * f.H),
        1.0, -0.0, 1.0 / grid.radius,
    )
    # the integrals sum the N x N core pairwise, as _step.c does
    core = (..., slice(1, -1), slice(1, -1))
    return (state.u[core], f.v[core], ev.v_hat[core], f.H[core], np.ascontiguousarray(f.dV[core]),
            (grid.radius, grid.radius), block, grid.inside[core])


class _Kind(NamedTuple):
    rate: Callable       # (state, Evaluation) -> (du/dt, boundary velocity)
    project: Callable    # (state, u, boundary, profile) -> (u, boundary), rim back on the tube
    record: Callable     # (state, profile, Evaluation, NodeFields) -> the fields of _pack_record
    dim_factor: float    # the dt bound is cfl h^2 m_min / dim_factor
    takes: Callable      # (grid, profile) -> whether the profile is the boundary the kind imposes
    boundary: str        # that boundary, for check_profile's error ({radius}: the grid's)


_KINDS = {
    "curve1d": _Kind(_curve1d_rate, _curve1d_project, _curve1d_record, 1.0,
                     lambda grid, p: p.boundary_type == "planar", "a planar boundary"),
    "radial2d": _Kind(_radial2d_rate, _radial2d_project, _radial2d_record, 2.0,
                      lambda grid, p: p.boundary_type == "rotational", "a rotational tube"),
    # du/drho = 0 on the fixed rim is the perpendicularity condition of the
    # vertical cylinder through it and of no other tube
    "disk2d": _Kind(_disk2d_rate, _disk2d_project, _disk2d_record, 2.0,
                    lambda grid, p: p.kind == "cylinder" and p.params == (grid.radius,),
                    "cylinder({radius}), the tube of its rim condition du/drho = 0"),
}


def check_profile(grid: GridSpec, profile) -> None:
    """ValueError unless the profile is the boundary the grid's kind imposes."""
    kind = _KINDS[grid.kind]
    if not kind.takes(grid, profile):
        spec = f"{profile.kind}({', '.join(map(repr, profile.params))})"
        raise ValueError(f"a {grid.kind} state needs "
                         f"{kind.boundary.format(radius=grid.radius)}, not {spec}")


# -- the step skeleton -------------------------------------------------------------


def step(state: FlowState, ctrl: StepControl, profile) -> FlowState:
    """Advance one explicit step; raises GuardTrip / FlowError on failure."""
    check_profile(state.grid, profile)
    ev = _evaluate(state, ctrl, profile)
    return _advance(state, ctrl, profile, ev, _dt_bound(state, ev, ctrl.cfl))


def _evaluate(state: FlowState, ctrl: StepControl, profile) -> Evaluation:
    """PDE data of a state; raises GuardTrip when its margin is below the guard."""
    ev = evaluate(state, profile)
    if not (ev.m_min >= ctrl.eps_guard):    # a NaN margin trips it too
        raise GuardTrip(state.t, ev.m_min)
    return ev


def _dt_bound(state: FlowState, ev: Evaluation, cfl: float) -> float:
    return cfl * ev.h * ev.h * ev.m_min / _KINDS[state.grid.kind].dim_factor


def _advance(state: FlowState, ctrl: StepControl, profile, ev: Evaluation, dt: float) -> FlowState:
    """The next state from an evaluated state, dt later (or at t_end)."""
    kind = _KINDS[state.grid.kind]
    dt = _clip_dt(dt, state.t, ctrl.t_end)
    udot, bdot = kind.rate(state, ev)
    u, boundary = state.u + dt * udot, _advance_boundary(state.boundary, bdot, dt)
    u, boundary = kind.project(state, u, boundary, profile)
    return FlowState(state.grid, state.t + dt, u, boundary)


def _advance_boundary(boundary, bdot, dt):
    if boundary is None or bdot is None:
        return boundary
    if isinstance(boundary, tuple):
        return (boundary[0] + dt * bdot[0], boundary[1] + dt * bdot[1])
    return boundary + dt * bdot


def _clip_dt(dt, t, t_end):
    if t_end is not None and t + dt > t_end:
        dt = t_end - t
    if _underflows(dt, t):
        raise _step_underflow(dt, t)
    return dt


def _underflows(dt: float, t: float) -> bool:
    return dt < 1e-16 * max(1.0, abs(t))


def start_error(state: FlowState, profile, cfl: float) -> Optional[str]:
    """Why a start state could take no step, or None: its least margin is not
    positive (or NaN), or its dt bound underflows against its time."""
    with np.errstate(all="ignore"):
        ev = evaluate(state, profile)
    if not ev.m_min > 0.0:
        return f"the initial data are not spacelike: their least margin is {ev.m_min:.3g}"
    if _underflows(_dt_bound(state, ev, cfl), state.t):
        return f"|t0| = {abs(state.t)} is too large: the first time step underflows"
    return None


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


def _end_block(H, v, v_hat, h, hi, a_vv, a_ww):
    """_boundary_block at the low end of a 1d grid, or at the high end (hi)
    read as the low end of the reversed arrays.  H and H^2 at the rim and their
    outward derivatives come from the quadratic through the three nodes inside
    it: the rim node carries the moving-boundary error layer of second
    derivatives.  v's one-sided derivative is taken along +x at the low end, as
    in _step.c; the recorded grad v is the sign-exact 2-point difference.
    """
    if hi:
        H, v, v_hat = H[::-1], v[::-1], v_hat[::-1]
    f1, f2, f3 = H[1], H[2], H[3]
    dv = (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * h)
    return _boundary_block(float(3.0 * f1 - 3.0 * f2 + f3), float(v[0]),
                           (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / h, dv if hi else -dv,
                           (2.5 * (f1 * f1) - 4.0 * (f2 * f2) + 1.5 * (f3 * f3)) / h,
                           float(v_hat[0]), a_vv, a_ww, grad_v_2pt=float((v[0] - v[1]) / h))


def _record(state: FlowState, profile, ev: Evaluation) -> np.ndarray:
    """The record row of an evaluated state."""
    return _pack_record(state.t, *_KINDS[state.grid.kind].record(
        state, profile, ev, node_fields(state, profile, ev)))


def record_state(state: FlowState, ctrl: StepControl, profile) -> np.ndarray:
    """Scalar record of a state without stepping (terminal records).

    No guard applies and ``ctrl`` is not read; it stays so that ``step`` and
    ``record_state`` take the same three positional arguments, which is how
    the benchmark's trace replay (perfbench/tracing.py) calls both.
    """
    return _record(state, profile, evaluate(state, profile))


# -- trajectory drivers ---------------------------------------------------------


class RecordBuffer:
    """A run's per-step records, held once: rows are written in place into
    one array, which grows by ``ndarray.resize``, a realloc that glibc takes
    by remapping blocks this large, so that no record is copied.  Rows of a
    new array take no memory until written; resize zero-fills the rows it
    adds.  Both engines collect their records here."""

    def __init__(self):
        self._rows = np.empty((0, len(RECORD_COLUMNS)))
        self.count = 0

    def room(self, n: int) -> np.ndarray:
        """The rows from the next one on, at least n of them: a view to write
        into, valid until the buffer next grows."""
        size = (self.count + n, len(RECORD_COLUMNS))
        if self._rows.shape[0] == 0:
            self._rows = np.empty(size)
        elif size[0] > self._rows.shape[0]:
            self._rows.resize(size, refcheck=False)
        return self._rows[self.count:]

    def append(self, row) -> None:
        if self.count == self._rows.shape[0]:
            self.room(CHUNK_STEPS)
        self._rows[self.count] = row
        self.count += 1

    def take(self) -> np.ndarray:
        """The records written, trimmed in place; the buffer starts over."""
        rows, self._rows = self._rows, np.empty((0, len(RECORD_COLUMNS)))
        rows.resize((self.count, len(RECORD_COLUMNS)), refcheck=False)
        self.count = 0
        return rows


def run(state0: FlowState, ctrl: StepControl, profile, stride: int = 100) -> Trajectory:
    """Iterate the flow until convergence, guard trip, t_end or step limit.

    Runs on built-in profiles, of every grid kind, take the compiled step
    loop of ``_kernels`` when that library can be built; custom profiles,
    and every run when it cannot, take the numpy reference engine, as does
    a state already at t_end, which takes no step: its trajectory is itself.
    A profile that is not the boundary the grid kind imposes (see
    ``check_profile``), and a start no step could be taken from (see
    ``start_error``), are a ValueError, before any step.
    """
    if stride < 1:
        raise ValueError("stride must be a positive number of steps")
    _check_start(state0, ctrl, profile)
    from . import _kernels

    if not _t_end_reached(state0.t, ctrl.t_end) and _kernels.serves(profile):
        return _kernels.run_fast(state0, ctrl, profile, stride)
    return _run_python(state0, ctrl, profile, stride)


def _check_start(state: FlowState, ctrl: StepControl, profile) -> None:
    """ValueError, with its one-line reason, unless the profile is the kind's
    boundary and a step could be taken from the state."""
    check_profile(state.grid, profile)
    error = start_error(state, profile, ctrl.cfl)
    if error:
        raise ValueError(error)


def _t_end_reached(t: float, t_end: Optional[float]) -> bool:
    return t_end is not None and t >= t_end - 1e-14 * max(1.0, abs(t_end))


def _run_python(state0: FlowState, ctrl: StepControl, profile, stride: int) -> Trajectory:
    """``run`` on the numpy reference engine."""
    return _run_states((state0,), ctrl, profile, stride)[0]


def _run_states(starts: tuple, ctrl: StepControl, profile, stride: int) -> list:
    """The numpy reference loop: co-evolve the states with one dt, the least
    of their dt bounds, until every state's sup |H| is below h_stop, t_end,
    the step limit or a guard trip in any of them.  One state steps by its
    own bound, as ``run`` does, and one already at t_end takes no step.
    Returns a trajectory per state; for a pair, the first one's min_gap
    column holds min(u_B - u_A) over the real nodes."""
    states = [s.copy() for s in starts]
    records, snaps, steps = [RecordBuffer() for _ in states], [[] for _ in states], []
    nodes = states[0].grid.real_nodes()
    gaps, recs = [], ()
    k = 0
    while True:
        if k % stride == 0:
            for snap, s in zip(snaps, states):
                snap.append(s.copy())
            steps.append(k)
        if len(states) == 2:
            gaps.append(float((states[1].u - states[0].u)[nodes].min()))
        if ctrl.h_stop > 0.0 and recs and all(rec[_COL["sup_H"]] < ctrl.h_stop for rec in recs):
            event, event_time = FlowEvent.CONVERGED, recs[0][_COL["t"]]
            break
        if _t_end_reached(states[0].t, ctrl.t_end):
            event, event_time = FlowEvent.TIME_EXHAUSTED, states[0].t
            break
        if k >= ctrl.max_steps:
            event, event_time = FlowEvent.STEP_LIMIT, states[0].t
            break
        try:
            evs = [_evaluate(s, ctrl, profile) for s in states]
            dt = min(_dt_bound(s, ev, ctrl.cfl) for s, ev in zip(states, evs))
            recs = [_record(s, profile, ev) for s, ev in zip(states, evs)]
            new_states = [_advance(s, ctrl, profile, ev, dt) for s, ev in zip(states, evs)]
        except GuardTrip as trip:
            event, event_time = FlowEvent.GUARD_TRIPPED, trip.t
            break
        # free this step's fields before the next snapshot copy: kept alive,
        # they fragment the heap and raise the peak memory of stride-1 runs
        del evs
        for buf, rec in zip(records, recs):
            buf.append(rec)
        states = new_states
        k += 1
    trajs = [_finish(buf, snap, list(steps), s, k, event, event_time, profile)
             for buf, snap, s in zip(records, snaps, states)]
    if gaps:
        trajs[0].records[:, _COL["min_gap"]] = gaps
    return trajs


def _finish(records: RecordBuffer, states: list, state_steps: list, state: FlowState, k: int,
            event: FlowEvent, event_time: float, profile, recorded: bool = False) -> Trajectory:
    """The trajectory ending at state, step k: the driver's records and
    snapshots (step 0's first) with the state's record unless the driver wrote
    it, and its snapshot unless the last one is the state."""
    if not recorded:
        records.append(record_state(state, None, profile))
    if state_steps[-1] != k or states[-1].t != state.t:
        states.append(state)
        state_steps.append(k)
    return Trajectory(records.take(), states, state_steps, event, event_time, state.grid)


def comparison_pair_run(state_a: FlowState, state_b: FlowState, ctrl: StepControl, profile):
    """Co-evolve an ordered pair with a common time step; track min(u_B - u_A).

    The starts are checked as ``run`` checks its one.  The pair steps in the
    numpy loop, a snapshot every PAIR_STRIDE steps; min_gap is traj_a's
    min_gap column, the gap at every record.
    """
    if state_a.grid != state_b.grid:
        raise ValueError("comparison pair needs a common grid")
    _check_start(state_a, ctrl, profile)
    _check_start(state_b, ctrl, profile)
    if np.any(state_b.u < state_a.u - 1e-12):
        raise ValueError("initial data must be ordered: u_A <= u_B nodewise")
    traj_a, traj_b = _run_states((state_a, state_b), ctrl, profile, PAIR_STRIDE)
    return {"traj_a": traj_a, "traj_b": traj_b, "min_gap": traj_a.series("min_gap").copy()}
