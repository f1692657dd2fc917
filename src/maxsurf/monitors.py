"""Numerical verification of the evolution equations, boundary identities and
a-priori estimate quantities along discrete trajectories.

The monitored identities (heat-operator form, intrinsic Laplacian):

    (d/dt - Lap) H = -H |A|^2
    (d/dt - Lap) v = -v |A|^2 + 2 g^{ij} A((DV_i)^T, j) + g^{ij} <D^2_ij V, nu>
    grad_mu H = -H A^Sig(nu,nu)
    grad_mu v = -v [A^Sig(nu,nu) - A^Sig(V,V)]
    d/dt Vol  = int H^2 dV

plus the estimate witnesses sup|H| <= C1 + C2 sup(v)^p and
v <= C1 exp(C2 osc u), and a stability certificate built from the test
function phi = R - |x-a|^2 (Minkowski square), whose interior identity on a
maximal surface is Lap phi = -2n.

Time derivatives are material: centered differences at fixed reference
nodes plus the tangential-drift correction (graph parametrizations move
material points with coordinate velocity H v_hat Du).

The evolution residuals are evaluated over blocks of consecutive states
stacked along a leading axis, with one geometry per state: rates, drifts,
Laplacians and right-hand sides are array operations over a block, and a
centre's rate reads its neighbours' (t, x, H, v) where their blocks hold
them.  From N = 63 up a disk state fills a block of its own, so the walk is
a rolling window of three states; its terms are operations on contiguous
boxes (geometry takes the disk stencils as flat shifts of the box), the
Laplacian of (H, v) reads the gradient the drift term reads, and the
observer's normal and volume element, which no disk term reads, are never
formed.

That numpy walk is the reference.  A disk trajectory, and a curve1d one on
the trumpet, is walked instead by the compiled library when it loads
(``_kernels.disk_residuals`` and ``curve1d_residuals``, the kind's
``compiled_walk``, chosen by ``_walk``); curve1d's walk reads the profile,
so it also needs a built-in profile (``_kernels.serves``, flow.run's test
too), while the disk's reads none.  The numpy walk's cost is its count of
array operations (about 120 whole-box passes a disk state), and the
library makes one fused pass a state and one a centre, operation for
operation, so the two return the same bits (the tests compare them through
``_evolution_residuals_numpy``).  radial2d, whose profile terms take numpy's
array sin and cos, curve1d on a custom profile, and every kind where the
library does not load take the numpy walk.

What differs per grid kind -- the residual terms, the compiled walk and the
certificate's boundary data and Minkowski square -- sits in this module's one table,
``_KINDS``.  It cannot join geometry's table: modules import in the order
geometry -> flow -> monitors -> runner, and these terms need geometry's
evaluators and flow's trajectories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _kernels
from .disk import disk_grid
from .flow import Trajectory
from .geometry import (
    FlowState, d1, disk_divergence, disk_gradient, geometry, laplace_beltrami,
)
from .profiles import PlanarBoundary, RotationalProfile, normal_curvature, profile_curvature

AXIS_EXCLUSION_CELLS = 3
EDGE_FRACTION = 0.05   # interior = compactly inside: drop a 5% margin per side
SKIP_FRACTION = 0.5    # the residuals skip the first half of the probe window
BOUNDARY_SKIP = 300    # boundary residuals skip this many records, or a third of fewer
MONOTONE_SLACK = 1e-8  # the rise of sup|H| a step that h_sup_monotone allows
H_VS_V_P = 0.5         # the exponent p of the reported sup|H| <= C1 + C2 sup(v)^p fit
CERT_EPSILON = 1e-2    # the margins a stability certificate needs
CERT_RADIUS_MARGIN = 0.1   # R's margin over what the certificate requires of it
MAXIMAL_TOL = 1e-4     # a certificate's state is maximal up to sup|H| <= MAXIMAL_TOL


def volume_identity(traj: Trajectory) -> float:
    """|Vol(T) - Vol(0) - int_0^T int H^2 dV dt| / max(1, |Vol(T) - Vol(0)|)."""
    if traj.records.shape[0] < 2:
        raise ValueError("volume identity needs at least two records")
    t = traj.series("t")
    vol = traj.series("volume")
    ih2 = traj.series("int_H2_dV")
    integral = float(np.trapezoid(ih2, t))
    dvol = float(vol[-1] - vol[0])
    return abs(dvol - integral) / max(1.0, abs(dvol))


# -- ambient derivatives of the reference V field: a planar boundary supplies
#    its own (profile.V_derivs, from the V the observer took), the tube's
#    radial extension has them formed here


def _rotational_V_data(profile: RotationalProfile, z: np.ndarray, df: np.ndarray):
    """Closed-form pieces of the rotational extension at heights z, from the
    profile's f' there (df), f'' and f'''.

    Returns (c, dzV_mu_coef, d2zV_mu_coef, d2zV_V_coef) where
    c = f'/sqrt(1-f'^2) (the theta-direction strength),
    dz V = dzV_mu_coef * mu_ext, and
    d2z V = d2zV_mu_coef * mu_ext + d2zV_V_coef * V.
    """
    d2f = np.asarray(profile.d2f(z), dtype=float)
    d3f = np.asarray(profile.d3f(z), dtype=float)
    m = 1.0 - df * df
    c = df / np.sqrt(m)
    dz_mu = d2f / m
    d2z_mu = d3f / m + 2.0 * df * d2f**2 / m**2
    d2z_V = (d2f / m) ** 2
    return c, dz_mu, d2z_mu, d2z_V


# -- evolution residuals ---------------------------------------------------------

# grid nodes per block of states in the numpy walk (each temporary <= 64 KB);
# the benchmark's identity_probe job takes it on its sine tube probe alone
RESIDUAL_BLOCK_NODES = 8192


def _consecutive_triples(traj: Trajectory) -> np.ndarray:
    """Indices i of the stored states whose neighbours i - 1 and i + 1 are the
    adjacent steps: the centres of the stride-1 triples."""
    adjacent = np.diff(np.asarray(traj.state_steps)) == 1
    return np.flatnonzero(adjacent[:-1] & adjacent[1:]) + 1


def _material_rate(f_minus, f_mid, f_plus, t_minus, t_mid, t_plus):
    """Centered derivative on a nonuniform time stencil."""
    dm = t_mid - t_minus
    dp = t_plus - t_mid
    rate = dm * dm * f_plus
    rate += (dp * dp - dm * dm) * f_mid
    rate -= dp * dp * f_minus
    rate /= dp * dm * (dp + dm)
    return rate


def _stack(states: list) -> FlowState:
    """One FlowState holding a block of states along a leading axis; t, rho_b
    and each of (x_left, x_right) become columns that broadcast over the nodes."""
    s0 = states[0]
    t = np.array([s.t for s in states]).reshape((-1,) + (1,) * s0.u.ndim)
    boundary = np.array([s.boundary for s in states], dtype=float).T[..., None]
    return FlowState(s0.grid, t, np.stack([s.u for s in states]), boundary)


def evolution_residuals(traj: Trajectory, profile) -> dict:
    """Max interior residual of the H and v evolution identities.

    Requires stride-1 snapshots (consecutive steps); the first and last
    snapshots are excluded, as is an initial fraction SKIP_FRACTION of the
    probe window (startup noise from the boundary treatment diffuses inward
    and decays but refines nowhere).  res_v uses the profile's V extension;
    nodes in an axis band are excluded where that extension is singular.
    Comparable refinement studies must probe the same physical time window.
    A triple whose residual is NaN is skipped.

    A disk trajectory, and a curve1d one on a built-in profile, is walked by
    the compiled library (its kind's ``compiled_walk``) when the library
    loads: fused passes, bit for bit with the numpy walk, which is the
    reference and walks radial2d, curve1d on a custom profile and any
    trajectory when the library does not load.
    """
    return _residuals(traj, profile, _walk(traj.states[0].grid.kind, profile))


def _walk(kind: str, profile) -> Callable:
    """The walk evolution_residuals takes on a grid kind: the kind's compiled
    walk where the library loads (and, for a walk that reads the profile,
    holds the profile's formulas: ``_kernels.serves``), else the numpy walk."""
    spec = _KINDS[kind]
    if spec.compiled_walk is not None and (
            _kernels.serves(profile) if spec.walk_reads_profile else _kernels.available):
        return spec.compiled_walk
    return _numpy_walk


def _evolution_residuals_numpy(traj: Trajectory, profile) -> dict:
    """evolution_residuals by the numpy walk, whether or not the library loads."""
    return _residuals(traj, profile, _numpy_walk)


def _residuals(traj: Trajectory, profile, walk: Callable) -> dict:
    """The probe window's centres, and the residual maxima over them from walk."""
    centers = _consecutive_triples(traj)
    if not centers.size:
        raise ValueError("evolution residuals need three consecutive stride-1 states, and the "
                         f"trajectory's {len(traj.states)} stored states hold none")
    centers = centers[int(SKIP_FRACTION * centers.size):]   # SKIP_FRACTION < 1 keeps one
    read = np.zeros(len(traj.states), dtype=bool)           # the stored states a triple reads
    read[centers - 1] = read[centers] = read[centers + 1] = True
    centre = np.zeros_like(read)
    centre[centers] = True
    ids = np.flatnonzero(read)
    res_H, res_v = walk([traj.states[j] for j in ids], profile, centre[ids])
    return {"res_H": res_H, "res_v": res_v, "triples": int(centers.size)}


def _numpy_walk(states: list, profile, centre: np.ndarray) -> tuple:
    """(max res_H, max res_v) over the centres of the walk's stored states:
    each s with centre[s], whose triple is (s - 1, s, s + 1).  The states go
    in blocks stacked along a leading axis, with one geometry per state and
    one gradient of (H, v), which the drift and the Laplacian share.  A
    centre's rate reads the rate inputs of its neighbours where their blocks
    hold them, joined only where a run of states crosses a block edge, and a
    block's terms are freed once no centre reads them."""
    per_block = max(1, RESIDUAL_BLOCK_NODES // states[0].u.size)
    kax = -1 - states[0].u.ndim               # the state axis, ahead of the nodes
    nodes = (slice(None),) * (-kax - 1)       # a[(..., k) + nodes]: states k of a
    held = {}                                 # block number -> its terms, while read

    def run(part: int, lo: int, hi: int) -> list:
        """The rate inputs (part 0) or centre terms (part 1) at the walk's
        states lo .. hi - 1: views of one block's, joined across a block edge."""
        pieces = []
        for b in range(lo // per_block, (hi - 1) // per_block + 1):
            if b not in held:
                held[b] = _block_terms(states[b * per_block:(b + 1) * per_block], profile)
            k = slice(max(lo - b * per_block, 0), hi - b * per_block)
            pieces.append([a if a is None else a[(..., k) + nodes] for a in held[b][part]])
        return [p[0] if len(p) == 1 or p[0] is None else np.concatenate(p, axis=kax)
                for p in zip(*pieces)]

    res = np.zeros(2)
    for b in range(1 // per_block, (len(states) - 2) // per_block + 1):
        # the block's states with both neighbours in the walk (1 .. len(states) - 2)
        lo, hi = max(b * per_block, 1), min((b + 1) * per_block, len(states) - 1)
        window = [run(0, lo + d, hi + d) for d in (-1, 0, 1)]
        _fold_residuals(res, window, run(1, lo, hi), centre[lo:hi], kax)
        held[b][1] = ()                       # read at this block's centres only
        held.pop(b - 1, None)
    return float(res[0]), float(res[1])


def _disk2d_compiled_walk(states: list, profile, centre: np.ndarray) -> tuple:
    """_numpy_walk on the disk by the compiled library, which reads no profile."""
    return _kernels.disk_residuals(states, centre, _deep_nodes(states[0].grid))


def _curve1d_compiled_walk(states: list, profile, centre: np.ndarray) -> tuple:
    """_numpy_walk on curve1d by the compiled library, on the trumpet."""
    edge = int(_line_core(states[0].grid.n).argmax())    # its first node
    return _kernels.curve1d_residuals(states, centre, profile, edge)


def _block_terms(states: list, profile) -> list:
    """The pieces of the H and v identities over a block of states: the rate
    inputs (t, node positions x or None, F = (H, v)) and the terms read at a
    centre only (the drift H v_hat Du, the gradient and the Laplacian of F,
    and per identity its right-hand side and the nodes it is checked on)."""
    st = _stack(states)
    g = geometry(st, profile)
    F = np.stack([g.H, g.v])
    x, du, grad, lap, rhs_v, *masks = _KINDS[st.grid.kind].terms(st, g, F, profile)
    return [(st.t, x, F), (g.H * g.v_hat * du, grad, lap, -(g.H * g.normA2), rhs_v,
                           *(np.broadcast_to(m, g.H.shape) for m in masks))]


def _line_core(n: int) -> np.ndarray:
    """_core of a curve of n nodes, which must hold a node."""
    core = _core(n)
    if not core.any():
        raise ValueError(f"evolution residuals need a curve of N >= 11: at N = {n} "
                         "no node lies 5 nodes inside both ends")
    return core


def _curve1d_terms(st: FlowState, g, F: np.ndarray, profile):
    core = _line_core(st.grid.n)
    return (st.coords(), g.du[None], d1(F, st.spacing())[None], laplace_beltrami(st, F, g),
            _v_rhs_curve(st, g, profile), core, core)


def _radial2d_terms(st: FlowState, g, F: np.ndarray, profile):
    h = st.spacing()
    x = st.coords()
    core = _core(st.grid.n, 2)   # the axis side is regular for H
    keep = core & (x > AXIS_EXCLUSION_CELLS * h)
    if not keep.any():
        raise ValueError(f"evolution residuals need a radial grid of N >= 10: at N = {st.grid.n} "
                         f"no node lies {AXIS_EXCLUSION_CELLS}h off the axis and 5 nodes "
                         "inside the rim")
    rhs_v = _v_rhs_radial(st, g, profile)
    keep = keep & np.isfinite(rhs_v)
    return x, g.du[None], d1(F, h)[None], laplace_beltrami(st, F, g), rhs_v, core, keep


def _core(n: int, lo: Optional[int] = None) -> np.ndarray:
    """The nodes an edge fraction inside each end, or from node lo on."""
    ex = max(5, int(EDGE_FRACTION * n))
    core = np.zeros(n, dtype=bool)
    core[ex if lo is None else lo:-ex] = True
    return core


@functools.lru_cache(maxsize=16)
def _deep_inside(n: int, radius: float) -> np.ndarray:
    """The disk's deep nodes 6h inside the rim, read-only: the rim band, where
    mirror-ghost second derivatives are noisy, is dropped."""
    grid = disk_grid(n, radius)
    deep = grid.deep & (grid.r < grid.radius - 6.0 * grid.h)
    deep.flags.writeable = False
    return deep


def _deep_nodes(grid) -> np.ndarray:
    """_deep_inside of a disk GridSpec, which must hold one."""
    deep = _deep_inside(grid.n, grid.radius)
    if not deep.any():
        raise ValueError(f"evolution residuals need a disk of N >= 13: at N = {grid.n} "
                         "no deep-interior node lies 6h inside the rim")
    return deep


def _disk2d_terms(st: FlowState, g, F: np.ndarray, profile):
    deep = _deep_nodes(st.grid)
    # read on deep nodes only, whose central stencil reaches no ghost; the
    # Laplacian takes the same gradient
    grad = disk_gradient(F, st.spacing())
    # V = e_t on the cylinder: the ambient-derivative terms of the v identity vanish
    return None, g.du, grad, disk_divergence(st, grad, g), -(g.v * g.normA2), deep, deep


def _fold_residuals(res: np.ndarray, window, center, keep: np.ndarray, kax: int) -> None:
    """Fold the residuals at a run of states into the running maxima res:
    window holds the rate inputs (t, x, F) of the states before, at and
    after them, center their centre terms, and keep marks the centres."""
    (t_m, x_m, F_m), (t_o, _, F_o), (t_p, x_p, F_p) = window
    drift, grad, lap = center[:3]
    if x_m is not None:                       # moving nodes: less their velocity
        drift = drift - (x_p - x_m) / (t_p - t_m)
    lhs = _material_rate(F_m, F_o, F_p, t_m, t_o, t_p)
    for d_c, g_c in zip(drift, grad):
        lhs += d_c * g_c
    lhs -= lap
    for k in range(2):                        # the H and the v identity
        r = np.abs(np.subtract(lhs[k], center[3 + k], out=lhs[k]), out=lhs[k])
        r = r.max(axis=tuple(range(kax + 1, 0)), where=center[5 + k], initial=-np.inf)
        res[k] = np.fmax(res[k], np.fmax.reduce(r[keep], initial=0.0))


def _ip(a_0, a_t, b_0, b_t):
    """Minkowski pairing of (space, t)-component pairs."""
    return a_0 * b_0 - a_t * b_t


def _v_rhs_curve(s0: FlowState, g0, profile: PlanarBoundary):
    """-v|A|^2 + 2 g^xx A((DV)^T, x) + g^xx <D^2 V, nu> with the boundary's V field."""
    (dVx, dVt), (d2Vx, d2Vt) = profile.V_derivs(s0.coords(), g0.V)
    g_xx = g0.v_hat * g0.v_hat            # g^xx = v_hat^2
    hess_term = g_xx * _ip(d2Vx, d2Vt, g0.nu[..., 0], g0.nu[..., 1])
    # 2 g^xx A(DV^T, x) = 2 g^xx g^xx h_xx <DV, (1, u_x)>, with h_xx = H / g^xx
    a_term = 2.0 * g_xx * g0.H * _ip(dVx, dVt, 1.0, g0.du)
    return -g0.v * g0.normA2 + a_term + hess_term


def _v_rhs_radial(s0: FlowState, g0, profile: RotationalProfile):
    """The rotational-extension terms in the (rhat, e3) frame, axisymmetric."""
    rho = s0.coords()
    u = s0.u
    ux = g0.du
    g_rr = g0.v_hat * g0.v_hat            # g^rr = v_hat^2
    kappa1, kappa2 = g0.kappa
    df, invw = g0.V
    c, dz_mu, d2z_mu, d2z_V = _rotational_V_data(profile, u, df)
    # frame components (radial, e3)
    mu_r, mu_3 = invw, df * invw
    V_r, V_3 = df * invw, invw
    nu_r, nu_3 = g0.nu[..., 0], g0.nu[..., 1]
    # Hessian contraction: g^rr u_r^2 d2z V + g^theta-theta (theta,theta) part
    hess_rr = (ux * ux * g_rr) * (d2z_mu * _ip(mu_r, mu_3, nu_r, nu_3)
                                  + d2z_V * _ip(V_r, V_3, nu_r, nu_3))
    # A-terms: radial leg DV_rho = u_r dz_mu mu_ext, angular leg c/rho * T_theta
    a_rad = 2.0 * (ux * dz_mu * _ip(mu_r, mu_3, 1.0, ux) * g_rr) * kappa1
    with np.errstate(divide="ignore", invalid="ignore"):    # the axis
        hess_tt = -c * nu_r / rho**2
        a_ang = 2.0 * c * kappa2 / rho
    return -g0.v * g0.normA2 + a_rad + a_ang + (hess_rr + hess_tt)


# -- boundary identities ----------------------------------------------------------


def boundary_identities(traj: Trajectory, profile) -> dict:
    """Max over recorded times of the boundary identity residuals.

    The per-step series are recorded during the run (second-order normal
    derivatives against the curvature data of the profile, extrapolated from
    the first fully-centered nodes).  The boundary projection leaves a
    startup transient of a few hundred steps that refines nowhere, so the
    residual maxima skip the first BOUNDARY_SKIP records (a third of fewer);
    the sign series grad_v_max covers all recorded times.  ``profile`` is
    not read: the benchmark's trace replay passes it.
    """
    skip = min(BOUNDARY_SKIP, traj.records.shape[0] // 3)
    sl = slice(skip, None)
    return {
        "res_Hmu": float(np.nanmax(traj.series("bdry_res_Hmu")[sl])),
        "res_vmu": float(np.nanmax(traj.series("bdry_res_vmu")[sl])),
        "grad_v_max": float(np.nanmax(traj.series("bdry_grad_v_max"))),
        "H2_ineq_max": float(np.nanmax(traj.series("bdry_H2_ineq_max")[sl])),
        "skipped_records": int(skip),
    }


# -- estimate monitors -------------------------------------------------------------


def estimate_monitors(traj: Trajectory) -> dict:
    """Witness constants for the gradient and mean-curvature estimates.

    h_sup_monotone is asserted only in the maximum-principle regime
    (A^Sig(nu,nu) >= 0 along the recorded boundary); the fits return the
    smallest constants making the stated inequalities hold over the
    trajectory -- witnesses, not pass/fail tests.
    """
    sup_H = traj.series("sup_H")
    sup_v = traj.series("sup_v")
    osc = traj.series("osc_u")
    asig_min = float(np.nanmin(traj.series("bdry_Asig_nn_min")))
    monotone: Optional[bool]
    if asig_min >= -1e-10:
        monotone = bool(np.all(np.diff(sup_H) <= MONOTONE_SLACK))
    else:
        monotone = None
    # v <= C1 exp(C2 osc u)
    if float(osc.max() - osc.min()) > 1e-12:
        slope = np.polyfit(osc, np.log(np.maximum(sup_v, 1e-300)), 1)[0]
        C2 = max(0.0, float(slope))
    else:
        C2 = 0.0
    C1 = float(np.max(sup_v / np.exp(C2 * osc)))
    # sup|H| <= C1 + C2 sup(v)^p over running sups
    mh = np.maximum.accumulate(sup_H)
    mv = np.maximum.accumulate(sup_v)
    def c2_for(p):
        return float(np.max(np.maximum(mh - mh[0], 0.0) / np.maximum(mv**p, 1e-300)))
    p_grid = np.linspace(0.05, 0.95, 19)
    c2s = [c2_for(p) for p in p_grid]
    p_best = float(p_grid[int(np.argmin(c2s))])
    return {
        "h_sup_monotone": monotone,
        "boundary_Asig_min": asig_min,
        "grad_bound_fit": {"C1": C1, "C2": C2},
        "h_vs_v_fit": {"C1": float(mh[0]), "C2": c2_for(H_VS_V_P), "p": H_VS_V_P},
        "p_best_fit": p_best,
    }


# -- stability certificate -----------------------------------------------------------


@dataclass
class StabilityCertificate:
    phi: np.ndarray
    epsilon: float
    R: float
    center: np.ndarray
    interior_margin: float
    boundary_margin: float
    laplace_identity_max: float
    hypothesis_ok: bool
    ok: bool
    reason: str = ""


def _no_certificate(state: FlowState, g, profile, center):
    raise ValueError("stability certificates are built for the 2d kinds")


def _radial2d_certificate(state: FlowState, g, profile, center):
    if math.hypot(center[0], center[1]) > 1e-12:
        raise ValueError("radial states need the center on the rotation axis")
    zb = float(state.u[-1])
    bc = profile_curvature(profile, zb)
    ur = float(g.du[-1])            # the tube's slope f'(zb), the flow's imposed one
    a_nn = np.array([normal_curvature(float(g.v[-1]), bc.A_VV, bc.A_WW[0])])
    rho_b = float(state.boundary)
    pairing = np.array([(rho_b - (zb - center[2]) * ur) * float(g.v_hat[-1])])
    sq_bdry = np.array([rho_b**2 - (zb - center[2]) ** 2])
    return a_nn, pairing, sq_bdry, state.coords() ** 2 - (state.u - center[2]) ** 2


def _disk2d_certificate(state: FlowState, g, profile, center):
    grid = disk_grid(state.grid.n, state.grid.radius)
    if not grid.deep.any():
        raise ValueError(f"a disk of N = {state.grid.n} has no deep-interior node to check "
                         "the certificate on (it needs N >= 7)")
    # from N = 6 up the monitor rings sample inside nodes only: no ghost values
    u_rim = grid.rim_values(state.u)
    du_rim = grid.radial_derivative_at_rim(state.u)
    v_rim = grid.rim_values(g.v)
    a_nn = normal_curvature(v_rim, -0.0, 1.0 / grid.radius)   # the cylinder's A(V,V), A(W,W)
    ca, sa = np.cos(grid.ring_angles), np.sin(grid.ring_angles)
    R0 = grid.radius
    wsl = np.sqrt(np.maximum(1.0 - du_rim**2, 1e-14))
    pairing = ((R0 * ca - center[0]) * ca + (R0 * sa - center[1]) * sa
               - (u_rim - center[2]) * du_rim) / wsl
    sq_bdry = ((R0 * ca - center[0]) ** 2 + (R0 * sa - center[1]) ** 2
               - (u_rim - center[2]) ** 2)
    sq = ((grid.X - center[0]) ** 2 + (grid.Y - center[1]) ** 2
          - (state.u - center[2]) ** 2)
    return a_nn, pairing, sq_bdry, sq


def stability_certificate(state: FlowState, profile, center) -> StabilityCertificate:
    """Build and check phi = R - |x-a|^2 on an (approximately) maximal state.

    The hypothesis A^Sig(nu,nu) > 0 on the boundary is reported, not raised:
    certificates are simply not constructible where it fails.  The radius is
    R = max(sup|x-a|^2, boundary requirement) + CERT_RADIUS_MARGIN.  On a maximal
    surface the interior identity Lap phi = -2n is cross-checked.
    """
    center = np.asarray(center, dtype=float)
    g = geometry(state, profile)
    a_nn, pairing, sq_bdry, sq = _KINDS[state.grid.kind].certificate(state, g, profile, center)
    ins = state.grid.real_nodes()
    sup_H = float(np.abs(g.H[ins]).max())
    if sup_H > MAXIMAL_TOL:
        raise ValueError(f"state is not approximately maximal (sup|H| = {sup_H:.2e})")
    n_dim = 2    # both kinds with a certificate are surfaces
    hypothesis_ok = bool(np.min(a_nn) > 1e-10)
    sq_in = sq[ins]
    radius = float(sq_in.max())
    if hypothesis_ok:    # the boundary's requirement
        radius = max(radius, float(np.max(sq_bdry + 2.0 * pairing / a_nn)))
    radius += CERT_RADIUS_MARGIN
    phi = radius - sq
    lap_phi = laplace_beltrami(state, phi, g)
    interior = np.isfinite(lap_phi)
    lap_identity = float(np.abs(lap_phi[interior] + 2.0 * n_dim).max())
    interior_margin = float(np.min(-(lap_phi[interior] - phi[interior] * g.normA2[interior])))
    boundary_margin = float(np.min(-2.0 * pairing + (radius - sq_bdry) * a_nn))
    min_phi = float(phi[ins].min())
    ok = bool(hypothesis_ok and interior_margin >= CERT_EPSILON
              and boundary_margin >= 0.0 and min_phi >= CERT_EPSILON)
    reason = "" if hypothesis_ok else "A^Sigma(nu,nu) <= 0 on the boundary (hypothesis fails)"
    return StabilityCertificate(
        phi=phi, epsilon=CERT_EPSILON, R=float(radius), center=center,
        interior_margin=interior_margin, boundary_margin=boundary_margin,
        laplace_identity_max=lap_identity, hypothesis_ok=hypothesis_ok,
        ok=ok, reason=reason,
    )


class _Kind(NamedTuple):
    # (st, g, F, profile) -> node positions (None where they stand still), the
    # slope components of u and the gradient components of F = (H, v) along a
    # leading axis, the Laplacian of F, the v right-hand side, and the nodes
    # each identity is checked on
    terms: Callable
    # (state, g, profile, center) -> A^Sig(nu,nu), <x-a, mu> and |x-a|^2 at the
    # boundary points, and |x-a|^2 per node
    certificate: Callable
    # _numpy_walk's signature and results by the compiled library, taken when
    # it loads; None where the numpy walk alone runs
    compiled_walk: Optional[Callable] = None
    # whether the compiled walk reads the profile, and so runs on the
    # profiles whose formulas the library holds alone
    walk_reads_profile: bool = False


_KINDS = {
    "curve1d": _Kind(_curve1d_terms, _no_certificate, _curve1d_compiled_walk, True),
    "radial2d": _Kind(_radial2d_terms, _radial2d_certificate),
    "disk2d": _Kind(_disk2d_terms, _disk2d_certificate, _disk2d_compiled_walk),
}
