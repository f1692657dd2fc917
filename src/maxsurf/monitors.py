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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disk import disk_grid
from .flow import Trajectory
from .geometry import (
    FlowState, d1, disk_gradient, geometry, laplace_beltrami, planar_V, rotational_V_factors,
)
from .profiles import (
    PlanarBoundary, RotationalProfile, normal_curvature, profile_curvature, rim_curvature,
)

AXIS_EXCLUSION_CELLS = 3
EDGE_FRACTION = 0.05   # interior = compactly inside: drop a 5% margin per side


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


# -- ambient derivatives of the reference V field -------------------------------


def _planar_V_derivs(profile: PlanarBoundary, x: np.ndarray, delta: float = 1e-6):
    """(V, dV/dx, d2V/dx2) of the planar extension, components (x, t).

    dV/dx is closed form; the second derivative differentiates it numerically
    (the boundary data carry two derivatives of s only).
    """
    def first(xv):
        xv = np.asarray(xv, dtype=float)
        ax = np.maximum(np.abs(xv), profile.domain[0])
        sgn = np.sign(xv)
        ds = np.asarray(profile.ds(ax), dtype=float)
        d2s = np.asarray(profile.d2s(ax), dtype=float)
        W3 = (ds * ds - 1.0) ** 1.5
        return np.stack([-ds * d2s / W3, -sgn * d2s / W3], axis=-1)

    Vx, Vt = planar_V(profile, x)
    V = np.stack([Vx, Vt], axis=-1)
    dV = first(x)
    d2V = (first(x + delta) - first(x - delta)) / (2.0 * delta)
    return V, dV, d2V


def _rotational_V_data(profile: RotationalProfile, z: np.ndarray, delta: float = 1e-6):
    """Closed-form pieces of the rotational extension at heights z.

    Returns (c, dzV_mu_coef, d2zV_mu_coef, d2zV_V_coef) where
    c = f'/sqrt(1-f'^2) (the theta-direction strength),
    dz V = dzV_mu_coef * mu_ext, and
    d2z V = d2zV_mu_coef * mu_ext + d2zV_V_coef * V;  f''' is differenced.
    """
    df = np.asarray(profile.df(z), dtype=float)
    d2f = np.asarray(profile.d2f(z), dtype=float)
    d3f = (np.asarray(profile.d2f(z + delta), dtype=float)
           - np.asarray(profile.d2f(z - delta), dtype=float)) / (2.0 * delta)
    m = 1.0 - df * df
    c = df / np.sqrt(m)
    dz_mu = d2f / m
    d2z_mu = d3f / m + 2.0 * df * d2f**2 / m**2
    d2z_V = (d2f / m) ** 2
    return c, dz_mu, d2z_mu, d2z_V


# -- evolution residuals ---------------------------------------------------------


def _consecutive_triples(traj: Trajectory):
    steps = traj.state_steps
    for i in range(1, len(traj.states) - 1):
        if steps[i] - steps[i - 1] == 1 and steps[i + 1] - steps[i] == 1:
            yield traj.states[i - 1], traj.states[i], traj.states[i + 1]


def _material_rate(f_minus, f_mid, f_plus, t_minus, t_mid, t_plus):
    """Centered derivative on a nonuniform time stencil."""
    dm = t_mid - t_minus
    dp = t_plus - t_mid
    return (dm * dm * f_plus + (dp * dp - dm * dm) * f_mid - dp * dp * f_minus) / (
        dp * dm * (dp + dm)
    )


def evolution_residuals(traj: Trajectory, profile, skip_fraction: float = 0.5) -> dict:
    """Max interior residual of the H and v evolution identities.

    Requires stride-1 snapshots (consecutive steps); the first and last
    snapshots are excluded, as is an initial fraction of the probe window
    (startup noise from the boundary treatment diffuses inward and decays
    but refines nowhere).  res_v uses the profile's V extension; nodes in an
    axis band are excluded where that extension is singular.  Comparable
    refinement studies must probe the same physical time window.
    """
    triples = list(_consecutive_triples(traj))
    if not triples:
        raise ValueError("evolution residuals need stride-1 stored states")
    start = int(skip_fraction * len(triples))
    triples = triples[start:] or triples[-1:]
    res_H = 0.0
    res_v = 0.0
    for sm, s0, sp in triples:
        rH, rv = _triple_residuals(sm, s0, sp, profile)
        res_H = max(res_H, rH)
        res_v = max(res_v, rv)
    return {"res_H": res_H, "res_v": res_v, "triples": len(triples)}


def _triple_residuals(sm: FlowState, s0: FlowState, sp: FlowState, profile):
    kind = s0.grid.kind
    gm = geometry(sm, profile)
    g0 = geometry(s0, profile)
    gp = geometry(sp, profile)
    if kind == "disk2d":
        grid = disk_grid(s0.grid.n, s0.grid.radius)
        h = grid.h
        dHdt = _material_rate(gm.H, g0.H, gp.H, sm.t, s0.t, sp.t)
        dvdt = _material_rate(gm.v, g0.v, gp.v, sm.t, s0.t, sp.t)
        Hf = grid.fill_ghosts(g0.H)
        vf = grid.fill_ghosts(g0.v)
        Hx, Hy = disk_gradient(Hf, h, padded=True)
        vx, vy = disk_gradient(vf, h, padded=True)
        ux, uy = g0.du[..., 0], g0.du[..., 1]
        drift_x = g0.H * g0.v_hat * ux
        drift_y = g0.H * g0.v_hat * uy
        lapH = laplace_beltrami(s0, g0.H)
        lapv = laplace_beltrami(s0, g0.v)
        # drop the rim band where mirror-ghost second derivatives are noisy
        deep = grid.deep & (grid.r < grid.radius - 6.0 * h)
        rH = np.abs(dHdt + drift_x * Hx + drift_y * Hy - lapH + g0.H * g0.normA2)
        res_H = float(np.nanmax(np.where(deep, rH, np.nan)))
        if isinstance(profile, RotationalProfile) and float(np.abs(profile.df(s0.u[deep])).max()) < 1e-14:
            # constant V (cylinder): all ambient-derivative terms vanish
            rv = np.abs(dvdt + drift_x * vx + drift_y * vy - lapv + g0.v * g0.normA2)
            res_v = float(np.nanmax(np.where(deep, rv, np.nan)))
        else:
            res_v = math.nan
        return res_H, res_v
    # one-dimensional kinds share the material-rate scaffolding
    h = s0.spacing()
    node_vel = (sp.coords() - sm.coords()) / (sp.t - sm.t)
    dHdt = _material_rate(gm.H, g0.H, gp.H, sm.t, s0.t, sp.t)
    dvdt = _material_rate(gm.v, g0.v, gp.v, sm.t, s0.t, sp.t)
    ux = g0.du
    drift = g0.H * g0.v_hat * ux - node_vel
    Hx = d1(g0.H, h)
    vx = d1(g0.v, h)
    lapH = laplace_beltrami(s0, g0.H)
    lapv = laplace_beltrami(s0, g0.v)
    rH = dHdt + drift * Hx - lapH + g0.H * g0.normA2
    rv_lhs = dvdt + drift * vx - lapv
    n = s0.grid.n
    ex = max(5, int(EDGE_FRACTION * n))
    if kind == "curve1d":
        rv_rhs = _v_rhs_curve(s0, g0, profile)
        core = slice(ex, -ex)
        res_H = float(np.abs(rH[core]).max())
        res_v = float(np.abs(rv_lhs - rv_rhs)[core].max())
        return res_H, res_v
    rv_rhs = _v_rhs_radial(s0, g0, profile)
    core = slice(2, -ex)   # the axis side is regular for H
    res_H = float(np.abs(rH[core]).max())
    rho = s0.coords()
    keep = (rho > AXIS_EXCLUSION_CELLS * h) & np.isfinite(rv_rhs)
    keep[:2] = False
    keep[-ex:] = False
    diff = np.abs(rv_lhs - rv_rhs)[keep]
    res_v = float(diff.max()) if diff.size else math.nan
    return res_H, res_v


def _v_rhs_curve(s0: FlowState, g0, profile: PlanarBoundary):
    """-v|A|^2 + 2 g^xx A((DV)^T, x) + g^xx <D^2 V, nu> for the planar extension."""
    x = s0.coords()
    ux = g0.du
    m = 1.0 - ux * ux
    V, dV, d2V = _planar_V_derivs(profile, x)
    # Minkowski pairing of (x, t)-component pairs
    def ip(a_x, a_t, b_x, b_t):
        return a_x * b_x - a_t * b_t

    nu_x, nu_t = g0.nu[:, 0], g0.nu[:, 1]
    hess_term = (1.0 / m) * ip(d2V[:, 0], d2V[:, 1], nu_x, nu_t)
    # tangential projection coefficient of DV along the tangent (1, u_x)
    c = (1.0 / m) * ip(dV[:, 0], dV[:, 1], np.ones_like(ux), ux)
    h_xx = g0.H * m  # h_xx = H g_xx in one dimension
    a_term = 2.0 * (1.0 / m) * c * h_xx
    return -g0.v * g0.normA2 + a_term + hess_term


def _v_rhs_radial(s0: FlowState, g0, profile: RotationalProfile):
    """The rotational-extension terms in the (rhat, e3) frame, axisymmetric."""
    rho = s0.coords()
    u = s0.u
    ux = g0.du
    m = 1.0 - ux * ux
    kappa1, kappa2 = g0.kappa
    c, dz_mu, d2z_mu, d2z_V = _rotational_V_data(profile, u)
    df, invw = rotational_V_factors(profile, u)
    # frame components (radial, e3)
    mu_r, mu_3 = invw, df * invw
    V_r, V_3 = df * invw, invw
    nu_r, nu_3 = g0.nu[:, 0], g0.nu[:, 1]

    def ip(a_r, a_3, b_r, b_3):
        return a_r * b_r - a_3 * b_3

    # Hessian contraction: g^rr u_r^2 d2z V + g^theta-theta (theta,theta) part
    hess_rr = (ux * ux / m) * (d2z_mu * ip(mu_r, mu_3, nu_r, nu_3)
                               + d2z_V * ip(V_r, V_3, nu_r, nu_3))
    with np.errstate(divide="ignore", invalid="ignore"):
        hess_tt = -c * ip(np.ones_like(u), 0.0 * u, nu_r, nu_3) / rho**2
    hess = hess_rr + hess_tt
    # A-terms: radial leg DV_rho = u_r dz_mu mu_ext, angular leg c/rho * T_theta
    X_r = ux * dz_mu * mu_r
    X_3 = ux * dz_mu * mu_3
    c_rho = ip(X_r, X_3, np.ones_like(u), ux) / m
    a_rad = 2.0 * c_rho * kappa1
    with np.errstate(divide="ignore", invalid="ignore"):
        a_ang = 2.0 * c * kappa2 / rho
    return -g0.v * g0.normA2 + a_rad + a_ang + hess


# -- boundary identities ----------------------------------------------------------


def boundary_identities(traj: Trajectory, profile, skip: Optional[int] = None) -> dict:
    """Max over recorded times of the boundary identity residuals.

    The per-step series are recorded during the run (second-order normal
    derivatives against the curvature data of the profile, extrapolated from
    the first fully-centered nodes).  The boundary projection leaves a
    startup transient of a few hundred steps that refines nowhere, so the
    residual maxima exclude an initial window; the sign series grad_v_max
    covers all recorded times.
    """
    n_rec = traj.records.shape[0]
    if skip is None:
        skip = min(300, n_rec // 3)
    sl = slice(skip, None)
    return {
        "res_Hmu": float(np.nanmax(traj.series("bdry_res_Hmu")[sl])),
        "res_vmu": float(np.nanmax(traj.series("bdry_res_vmu")[sl])),
        "grad_v_max": float(np.nanmax(traj.series("bdry_grad_v_max"))),
        "H2_ineq_max": float(np.nanmax(traj.series("bdry_H2_ineq_max")[sl])),
        "skipped_records": int(skip),
    }


# -- estimate monitors -------------------------------------------------------------


def estimate_monitors(traj: Trajectory, p_default: float = 0.5, slack: float = 1e-8) -> dict:
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
        monotone = bool(np.all(np.diff(sup_H) <= slack))
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
        "h_vs_v_fit": {"C1": float(mh[0]), "C2": c2_for(p_default), "p": p_default},
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


def _minkowski_square_from_center(state: FlowState, center: np.ndarray):
    """|x - a|^2 per node for the graph points of the state."""
    if state.grid.kind == "radial2d":
        rho = state.coords()
        ax = math.hypot(center[0], center[1])
        if ax > 1e-12:
            raise ValueError("radial states need the center on the rotation axis")
        return rho**2 - (state.u - center[2]) ** 2
    if state.grid.kind == "disk2d":
        grid = disk_grid(state.grid.n, state.grid.radius)
        return ((grid.X - center[0]) ** 2 + (grid.Y - center[1]) ** 2
                - (state.u - center[2]) ** 2)
    x = state.coords()
    return (x - center[0]) ** 2 - (state.u - center[1]) ** 2


def stability_certificate(state: FlowState, profile, center, radius: Optional[float] = None,
                          epsilon: float = 1e-2, maximal_tol: float = 1e-4) -> StabilityCertificate:
    """Build and check phi = R - |x-a|^2 on an (approximately) maximal state.

    The hypothesis A^Sig(nu,nu) > 0 on the boundary is reported, not raised:
    certificates are simply not constructible where it fails.  With radius
    None the recipe R = max(sup|x-a|^2, boundary requirement) + epsilon-margin
    is used.  On a maximal surface the interior identity Lap phi = -2n is
    cross-checked.
    """
    center = np.asarray(center, dtype=float)
    g = geometry(state, profile)
    ins = g.mask if g.mask is not None else slice(None)
    sup_H = float(np.abs(g.H[ins]).max()) if g.mask is not None else float(np.abs(g.H).max())
    if sup_H > maximal_tol:
        raise ValueError(f"state is not approximately maximal (sup|H| = {sup_H:.2e})")
    n_dim = 1 if state.grid.kind == "curve1d" else 2

    # boundary data: A^Sig(nu,nu), mu pairing <x-a, mu>
    if state.grid.kind == "radial2d":
        zb = float(state.u[-1])
        bc = profile_curvature(profile, zb)
        ur = float(g.du[-1])
        w = math.sqrt(1.0 - ur * ur)
        vb = float(g.v[-1])
        a_nn = np.array([normal_curvature(vb, bc.A_VV, bc.A_WW[0])])
        rho_b = float(state.boundary)
        pairing = np.array([(rho_b - (zb - center[2]) * ur) / w])
        sq_bdry = np.array([rho_b**2 - (zb - center[2]) ** 2])
    elif state.grid.kind == "disk2d":
        grid = disk_grid(state.grid.n, state.grid.radius)
        uf = grid.fill_ghosts(state.u)
        u_rim = grid.rim_values(uf)
        du_rim = grid.radial_derivative_at_rim(uf)
        v_rim = grid.rim_values(grid.fill_ghosts(np.where(grid.inside, g.v, 1.0)))
        _, a_vv, a_ww = rim_curvature(profile, u_rim)
        a_nn = normal_curvature(v_rim, a_vv, a_ww)
        ca, sa = np.cos(grid.ring_angles), np.sin(grid.ring_angles)
        R0 = grid.radius
        wsl = np.sqrt(np.maximum(1.0 - du_rim**2, 1e-14))
        pairing = ((R0 * ca - center[0]) * ca + (R0 * sa - center[1]) * sa
                   - (u_rim - center[2]) * du_rim) / wsl
        sq_bdry = ((R0 * ca - center[0]) ** 2 + (R0 * sa - center[1]) ** 2
                   - (u_rim - center[2]) ** 2)
    else:
        raise ValueError("stability certificates are built for the 2d kinds")

    hypothesis_ok = bool(np.min(a_nn) > 1e-10)
    sq = _minkowski_square_from_center(state, center)
    sq_in = sq[ins]
    if radius is None:
        if hypothesis_ok:
            need_bdry = float(np.max(sq_bdry + 2.0 * pairing / a_nn))
            radius = max(float(sq_in.max()), need_bdry) + max(epsilon, 0.1)
        else:
            radius = float(sq_in.max()) + max(epsilon, 0.1)
    phi = radius - sq
    lap_phi = laplace_beltrami(state, phi)
    interior = np.isfinite(lap_phi)
    lap_identity = float(np.abs(lap_phi[interior] + 2.0 * n_dim).max())
    interior_margin = float(np.min(-(lap_phi[interior] - phi[interior] * g.normA2[interior])))
    boundary_margin = float(np.min(-2.0 * pairing + (radius - sq_bdry) * a_nn))
    min_phi = float(phi[ins].min())
    ok = bool(hypothesis_ok and interior_margin >= epsilon
              and boundary_margin >= 0.0 and min_phi >= epsilon)
    reason = "" if hypothesis_ok else "A^Sigma(nu,nu) <= 0 on the boundary (hypothesis fails)"
    return StabilityCertificate(
        phi=phi, epsilon=epsilon, R=float(radius), center=center,
        interior_margin=interior_margin, boundary_margin=boundary_margin,
        laplace_identity_max=lap_identity, hypothesis_ok=hypothesis_ok,
        ok=ok, reason=reason,
    )


def refinement_orders(values: list, factor: float = 2.0) -> list:
    """log_factor(e_k / e_{k+1}) between successive refinement levels."""
    out = []
    for a, b in zip(values[:-1], values[1:]):
        if a <= 0 or b <= 0:
            out.append(math.inf if b == 0 else math.nan)
        else:
            out.append(math.log(a / b) / math.log(factor))
    return out
