"""Discrete spacelike graphs and their geometry.

A state is a graph height u over a (possibly moving) grid.  Three grid kinds:

* curve1d  - a curve t = u(x) in R^2_1 over [x_left, x_right], both ends on a
             planar boundary; reference coordinate s in [-1, 1].
* radial2d - a rotationally symmetric graph t = u(rho) in R^3_1 over
             [0, rho_b], rim on a rotational tube; reference s in [0, 1].
* disk2d   - a general graph t = u(x, y) over a fixed disk (vertical
             cylinder tube), cell-centered Cartesian nodes.

The geometry evaluator is an observer: second-order central stencils inside,
one-sided second-order at boundaries, no boundary condition assumed.  With
the future-pointing unit normal nu and h_ij = -<d2F, nu>, the mean curvature
of an upward-convex graph is positive; the translating benchmark
u = log cosh x + t has H = v_hat = cosh x and interior update g^xx u_xx = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disk import disk_grid
from .profiles import PlanarBoundary, RotationalProfile

EPS_GUARD_DEFAULT = 1e-3


class SpacelikeError(RuntimeError):
    """Raised when a state violates the strict spacelike guard."""


@dataclass(frozen=True)
class GridSpec:
    kind: str                  # "curve1d" | "radial2d" | "disk2d"
    n: int                     # nodes per axis
    radius: float = 1.0        # disk2d only

    def __post_init__(self):
        if self.kind not in ("curve1d", "radial2d", "disk2d"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < 5:
            raise ValueError("resolution must be >= 5 nodes per axis")

    def reference(self) -> np.ndarray:
        if self.kind == "curve1d":
            return np.linspace(-1.0, 1.0, self.n)
        if self.kind == "radial2d":
            return np.linspace(0.0, 1.0, self.n)
        raise ValueError("disk2d has no 1d reference coordinate")


@dataclass
class FlowState:
    grid: GridSpec
    t: float
    u: np.ndarray
    # curve1d: (x_left, x_right); radial2d: rho_b; disk2d: None (fixed radius)
    boundary: object = None

    def coords(self) -> np.ndarray:
        """Physical node coordinates (1d kinds)."""
        if self.grid.kind == "curve1d":
            xl, xr = self.boundary
            return 0.5 * (xl + xr) + self.grid.reference() * 0.5 * (xr - xl)
        if self.grid.kind == "radial2d":
            return self.grid.reference() * self.boundary
        raise ValueError("disk2d nodes are 2d; use disk_grid coordinates")

    def spacing(self) -> float:
        if self.grid.kind == "curve1d":
            xl, xr = self.boundary
            return (xr - xl) / (self.grid.n - 1)
        if self.grid.kind == "radial2d":
            return self.boundary / (self.grid.n - 1)
        return disk_grid(self.grid.n, self.grid.radius).h

    def copy(self) -> "FlowState":
        return FlowState(self.grid, self.t, self.u.copy(), self.boundary)


@dataclass
class GeometryFields:
    """Per-node geometric data plus global volume and oscillation."""

    v_hat: np.ndarray
    v: np.ndarray
    nu: np.ndarray
    H: np.ndarray
    normA2: np.ndarray
    dV: np.ndarray
    det_g: np.ndarray
    det_ghat: np.ndarray
    du: np.ndarray
    volume: float
    osc_u: float
    mask: Optional[np.ndarray] = None   # disk2d inside mask
    kappa: Optional[tuple] = None       # radial2d principal curvatures


# -- one-dimensional stencils -------------------------------------------------


def d1(u: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return out


def _slope_1d(state: FlowState) -> np.ndarray:
    """d1 of u over a 1d kind's grid, zero on the axis for radial2d (symmetry)."""
    du = d1(state.u, state.spacing())
    if state.grid.kind == "radial2d":
        du[0] = 0.0
    return du


def d2(u: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    out[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
    out[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
    return out


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


# -- reference V fields -------------------------------------------------------


def planar_V(profile: PlanarBoundary, x):
    """Branch-consistent timelike field (V_x, V_t) off a planar boundary.

    V = (sign(x), s'(|x|)) / sqrt(s'^2 - 1); smooth across x = 0 whenever
    s' diverges at the throat (trumpet), otherwise V(0) := e_t by convention.
    """
    x = np.asarray(x, dtype=float)
    ax = np.maximum(np.abs(x), profile.domain[0])
    ds = np.asarray(profile.ds(ax), dtype=float)
    w = np.sqrt(ds * ds - 1.0)
    at_axis = np.abs(x) < 1e-12
    Vx = np.where(at_axis, 0.0, np.sign(x) / w)
    Vt = np.where(at_axis, 1.0, ds / w)
    return Vx, Vt


def rotational_V_factors(profile: RotationalProfile, z):
    """(f'(z), 1/sqrt(1-f'^2)) for the radial extension V = (f' rhat + e3)/sqrt(1-f'^2)."""
    dfz = np.asarray(profile.df(z), dtype=float)
    return dfz, 1.0 / np.sqrt(1.0 - dfz * dfz)


# -- geometry evaluators ------------------------------------------------------


def geometry(state: FlowState, profile) -> GeometryFields:
    """Metric, gradient functions, normal, curvature and volume of a state.

    In the flat ambient chart (psi = 1, ghat = delta, V_hat = e_t); the V
    field comes from the profile's extension.
    """
    kind = state.grid.kind
    if kind == "curve1d":
        return _geometry_curve1d(state, profile)
    if kind == "radial2d":
        return _geometry_radial2d(state, profile)
    return _geometry_disk2d(state, profile)


def _geometry_curve1d(state: FlowState, profile) -> GeometryFields:
    u = state.u
    h = state.spacing()
    x = state.coords()
    ux = d1(u, h)
    uxx = d2(u, h)
    m = 1.0 - ux * ux
    if np.any(m <= 0) or not np.all(np.isfinite(uxx)):
        raise SpacelikeError("graph is not strictly spacelike")
    w = np.sqrt(m)
    v_hat = 1.0 / w
    nu = np.stack([ux / w, 1.0 / w], axis=-1)
    H = uxx / (m * w)
    normA2 = H * H
    if profile is not None and isinstance(profile, PlanarBoundary):
        Vx, Vt = planar_V(profile, x)
        v = (Vt - Vx * ux) / w
    else:
        v = v_hat.copy()
    dV = w * trapezoid_weights(u.size, h)
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        det_g=m.copy(), det_ghat=np.ones_like(u), du=ux,
        volume=float(dV.sum()), osc_u=float(u.max() - u.min()),
    )


def _geometry_radial2d(state: FlowState, profile) -> GeometryFields:
    u = state.u
    h = state.spacing()
    rho = state.coords()
    ur = _slope_1d(state)
    urr = d2(u, h)
    urr[0] = 2.0 * (u[1] - u[0]) / (h * h)
    m = 1.0 - ur * ur
    if np.any(m <= 0) or not np.all(np.isfinite(urr)):
        raise SpacelikeError("graph is not strictly spacelike")
    w = np.sqrt(m)
    v_hat = 1.0 / w
    nu = np.stack([ur / w, 1.0 / w], axis=-1)   # (nu_radial, nu_t)
    kappa1 = urr / (m * w)
    kappa2 = np.empty_like(u)
    kappa2[1:] = ur[1:] / (rho[1:] * w[1:])
    kappa2[0] = urr[0] / w[0]         # L'Hopital at the axis
    H = kappa1 + kappa2
    normA2 = kappa1**2 + kappa2**2
    if profile is not None and isinstance(profile, RotationalProfile):
        dfz, invw = rotational_V_factors(profile, u)
        v = (1.0 - dfz * ur) * invw / w
    else:
        v = v_hat.copy()
    dV = 2.0 * np.pi * rho * w * trapezoid_weights(u.size, h)
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        det_g=m * rho**2, det_ghat=rho**2, du=ur,
        volume=float(dV.sum()), osc_u=float(u.max() - u.min()),
        kappa=(kappa1, kappa2),
    )


def _geometry_disk2d(state: FlowState, profile) -> GeometryFields:
    grid = disk_grid(state.grid.n, state.grid.radius)
    h = grid.h
    uf = grid.fill_ghosts(state.u)
    ux, uy, uxx, uyy, uxy = disk_derivatives(uf, h, padded=True)
    ins = grid.inside
    du2 = ux * ux + uy * uy
    m = 1.0 - du2
    if np.any(m[ins] <= 0):
        raise SpacelikeError("graph is not strictly spacelike")
    m_safe = np.where(ins, m, 1.0)
    w = np.sqrt(m_safe)
    v_hat = np.where(ins, 1.0 / w, 1.0)
    vh2 = v_hat * v_hat
    lap = uxx + uyy
    quad = ux * ux * uxx + 2.0 * ux * uy * uxy + uy * uy * uyy
    H = np.where(ins, v_hat * (lap + vh2 * quad), 0.0)
    # |A|^2 = tr((g^{-1} h)^2), g^{-1} = delta + vh^2 Du Du, h_ij = v_hat u_ij
    a11 = 1.0 + vh2 * ux * ux
    a12 = vh2 * ux * uy
    a22 = 1.0 + vh2 * uy * uy
    m11 = a11 * uxx + a12 * uxy
    m12 = a11 * uxy + a12 * uyy
    m21 = a12 * uxx + a22 * uxy
    m22 = a12 * uxy + a22 * uyy
    normA2 = np.where(ins, vh2 * (m11 * m11 + 2.0 * m12 * m21 + m22 * m22), 0.0)
    nu = np.stack([ux * v_hat, uy * v_hat, v_hat], axis=-1)
    if profile is not None and isinstance(profile, RotationalProfile):
        dfz, invw = rotational_V_factors(profile, state.u)
        rsafe = np.maximum(grid.r, 1e-300)
        du_rad = (grid.X * ux + grid.Y * uy) / rsafe
        v = np.where(ins, v_hat * (1.0 - dfz * du_rad) * invw, 1.0)
    else:
        v = v_hat.copy()
    dV = np.where(ins, grid.area_weights / v_hat, 0.0)
    uin = state.u[ins]
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        det_g=np.where(ins, (1 - ux * ux) * (1 - uy * uy) - (ux * uy) ** 2, 1.0),
        det_ghat=np.ones_like(uf), du=np.stack([ux, uy], axis=-1),
        volume=float(dV.sum()), osc_u=float(uin.max() - uin.min()),
        mask=ins,
    )


def _padded(core: np.ndarray) -> np.ndarray:
    out = np.zeros((core.shape[0] + 2, core.shape[1] + 2))
    out[1:-1, 1:-1] = core
    return out


def disk_gradient(f: np.ndarray, h: float, padded: bool = False):
    """Central differences (f_x, f_y) at the nodes f[1:-1, 1:-1] of a disk array.

    With padded=True they come in arrays of f's shape, zero on the pad ring.
    """
    fx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * h)
    fy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * h)
    return (_padded(fx), _padded(fy)) if padded else (fx, fy)


def disk_derivatives(f: np.ndarray, h: float, padded: bool = False):
    """(f_x, f_y, f_xx, f_yy, f_xy) by central differences, laid out as disk_gradient."""
    c = f[1:-1, 1:-1]
    second = (
        (f[2:, 1:-1] - 2 * c + f[:-2, 1:-1]) / (h * h),
        (f[1:-1, 2:] - 2 * c + f[1:-1, :-2]) / (h * h),
        (f[2:, 2:] + f[:-2, :-2] - f[2:, :-2] - f[:-2, 2:]) / (4 * h * h),
    )
    if padded:
        second = tuple(_padded(d) for d in second)
    return (*disk_gradient(f, h, padded), *second)


def oscillation(state: FlowState) -> float:
    """max - min of the time function over nodes (flat chart: of u itself)."""
    if state.grid.kind == "disk2d":
        ins = disk_grid(state.grid.n, state.grid.radius).inside
        vals = state.u[ins]
    else:
        vals = state.u
    return float(vals.max() - vals.min())


def spacelike_margin(state: FlowState) -> float:
    """min over nodes of 1 - psi^2 |Du|^2_ghat (flat ambient chart)."""
    if state.grid.kind == "disk2d":
        grid = disk_grid(state.grid.n, state.grid.radius)
        ux, uy = disk_gradient(grid.fill_ghosts(state.u), grid.h)
        du2 = ux * ux + uy * uy
        return float(1.0 - du2[grid.inside[1:-1, 1:-1]].max())
    du = _slope_1d(state)
    return float(1.0 - (du * du).max())


def height_gradient_identity(state: FlowState) -> float:
    """Self-consistency of the discrete metric: |grad u|^2 = psi^-2 (v_hat^2 - 1).

    The left side evaluates the intrinsic gradient square on staggered
    midpoints, the right side uses the nodal v_hat route; the two
    discretizations of the same identity differ by O(h^2) on smooth states.
    """
    u = state.u
    if state.grid.kind == "disk2d":
        grid = disk_grid(state.grid.n, state.grid.radius)
        uf = grid.fill_ghosts(u)
        h = grid.h
        sx = (np.diff(uf, axis=0) / h) ** 2
        sy = (np.diff(uf, axis=1) / h) ** 2
        mid2 = np.zeros_like(uf)
        mid2[1:-1, :] = 0.5 * (sx[:-1, :] + sx[1:, :])
        mid2[:, 1:-1] += 0.5 * (sy[:, :-1] + sy[:, 1:])
        lhs = mid2 / np.maximum(1.0 - mid2, 1e-12)
        ux, uy = disk_gradient(uf, h, padded=True)
        du2 = ux * ux + uy * uy
        rhs = du2 / np.maximum(1.0 - du2, 1e-12)
        return float(np.abs(lhs - rhs)[grid.deep].max())
    h = state.spacing()
    dm = np.diff(u) / h
    lhs_mid = dm * dm / (1.0 - dm * dm)
    lhs = np.empty_like(u)
    lhs[1:-1] = 0.5 * (lhs_mid[1:] + lhs_mid[:-1])
    lhs[0], lhs[-1] = lhs_mid[0], lhs_mid[-1]
    du = _slope_1d(state)
    rhs = du * du / (1.0 - du * du)
    return float(np.abs(lhs - rhs)[1:-1].max())


def laplace_beltrami(state: FlowState, f: np.ndarray) -> np.ndarray:
    """Divergence-form intrinsic Laplacian of a nodal field on the state.

    (1/sqrt(det g)) D_i(sqrt(det g) g^{ij} D_j f) with midpoint fluxes.
    Boundary entries are NaN; for disk2d only the deep-interior mask is
    filled (all stencil nodes strictly inside).
    """
    u = state.u
    if state.grid.kind == "curve1d":
        h = state.spacing()
        dum = np.diff(u) / h
        a_mid = 1.0 / np.sqrt(1.0 - dum * dum)      # sqrt(g) g^{xx} at midpoints
        flux = a_mid * np.diff(f) / h
        ux = d1(u, h)
        out = np.full_like(f, np.nan)
        out[1:-1] = (flux[1:] - flux[:-1]) / (h * np.sqrt(1.0 - ux[1:-1] ** 2))
        return out
    if state.grid.kind == "radial2d":
        h = state.spacing()
        rho = state.coords()
        rho_mid = 0.5 * (rho[1:] + rho[:-1])
        dum = np.diff(u) / h
        a_mid = rho_mid / np.sqrt(1.0 - dum * dum)  # sqrt(G) g^{rr} at midpoints
        flux = a_mid * np.diff(f) / h
        ur = _slope_1d(state)
        out = np.full_like(f, np.nan)
        sg = rho * np.sqrt(1.0 - ur * ur)
        out[1:-1] = (flux[1:] - flux[:-1]) / (h * sg[1:-1])
        # axis cell: (1/(rho sqrt(g))) d_rho(rho f_rho/sqrt(g)) -> 2 f_rr at 0
        out[0] = 4.0 * (f[1] - f[0]) / (h * h * np.sqrt(1.0 - dum[0] ** 2))
        return out
    grid = disk_grid(state.grid.n, state.grid.radius)
    h = grid.h
    uf = grid.fill_ghosts(u)
    # midpoint metric coefficients in each direction
    out = np.full_like(uf, np.nan)
    ux, uy = disk_gradient(uf, h, padded=True)
    du2 = ux * ux + uy * uy
    m = np.maximum(1.0 - du2, 1e-12)
    sg = np.sqrt(m)                                  # sqrt(det g) = 1/v_hat
    vh2 = 1.0 / m
    g11 = 1.0 + vh2 * ux * ux
    g12 = vh2 * ux * uy
    g22 = 1.0 + vh2 * uy * uy
    fx, fy = disk_gradient(f, h, padded=True)
    Fx = sg * (g11 * fx + g12 * fy)
    Fy = sg * (g12 * fx + g22 * fy)
    div = np.zeros_like(uf)
    div[1:-1, 1:-1] = ((Fx[2:, 1:-1] - Fx[:-2, 1:-1]) + (Fy[1:-1, 2:] - Fy[1:-1, :-2])) / (2 * h)
    out[grid.deep] = (div / sg)[grid.deep]
    return out
