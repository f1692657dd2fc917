"""Discrete spacelike graphs and their geometry.

A state is a graph height u over a (possibly moving) grid.  Three grid kinds:

* curve1d  - a curve t = u(x) in R^2_1 over [x_left, x_right], both ends on a
             planar boundary; reference coordinate s in [-1, 1].
* radial2d - a rotationally symmetric graph t = u(rho) in R^3_1 over
             [0, rho_b], rim on a rotational tube; reference s in [0, 1].
* disk2d   - a general graph t = u(x, y) over a fixed disk inside the
             vertical cylinder of its radius, the one tube whose condition
             du/drho = 0 on a fixed rim the kind imposes (so V = e_t and
             v = v_hat); cell-centered Cartesian nodes; reference
             coordinate r/R, physical coordinate r.

Each kind's facts live in one table, ``_KINDS`` at the end of this module:
its geometry evaluator and Laplace-Beltrami operator, |Du|^2 for the
spacelike margin, its reference and physical node coordinates, its spacing,
its real nodes and the fewest nodes per axis it takes.  GridSpec, FlowState
and the public functions look the kind up there and nowhere branch on its
name.  flow, monitors and _kernels each keep one table of their own for the
numerics they add (the step, the monitors' terms, the C loop's arguments).

The geometry evaluator is an observer: second-order central stencils inside,
one-sided second-order at boundaries, no boundary condition assumed.  With
the future-pointing unit normal nu and h_ij = -<d2F, nu>, the mean curvature
of an upward-convex graph is positive; the translating benchmark
u = log cosh x + t has H = v_hat = cosh x and interior update g^xx u_xx = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .disk import disk_grid
from .profiles import PlanarBoundary, RotationalProfile

class SpacelikeError(ValueError):
    """Raised when a state violates the strict spacelike guard."""


@dataclass(frozen=True)
class GridSpec:
    kind: str                  # a key of _KINDS: "curve1d" | "radial2d" | "disk2d"
    n: int                     # nodes per axis
    radius: float = 1.0        # disk2d only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < _KINDS[self.kind].min_n:
            raise ValueError(f"a {self.kind} grid needs at least "
                             f"{_KINDS[self.kind].min_n} nodes per axis")

    def reference(self) -> np.ndarray:
        """The reference coordinate per node: s on the line kinds, r/R on the disk."""
        return _KINDS[self.kind].reference(self)

    def real_nodes(self):
        """An index of a node array that picks the real nodes (not the disk's
        pad or ghosts), in the order final_profile.csv lists them."""
        return _KINDS[self.kind].real_nodes(self)


@dataclass
class FlowState:
    grid: GridSpec
    t: float
    u: np.ndarray
    # curve1d: (x_left, x_right); radial2d: rho_b; disk2d: None (fixed radius)
    boundary: object = None

    def coords(self) -> np.ndarray:
        """Physical node coordinates: x, rho, or the disk's node radius r."""
        return _KINDS[self.grid.kind].coords(self)

    def spacing(self) -> float:
        return _KINDS[self.grid.kind].spacing(self)

    def copy(self) -> "FlowState":
        return FlowState(self.grid, self.t, self.u.copy(), self.boundary)


@dataclass
class GeometryFields:
    """Per-node geometric data plus the global volume."""

    v_hat: np.ndarray
    v: np.ndarray
    nu: np.ndarray
    H: np.ndarray
    normA2: np.ndarray
    dV: np.ndarray
    du: np.ndarray                      # u's slope; disk2d: (u_x, u_y) on a leading axis
    volume: float
    mask: Optional[np.ndarray] = None   # disk2d inside mask
    kappa: Optional[tuple] = None       # radial2d principal curvatures


# -- one-dimensional stencils -------------------------------------------------


# The stencils and kernels below index the node axis last (``...``), so one
# formula serves one state or a stack of states along leading axes; a stack's
# spacing h then has shape (K, 1), and end nodes are taken as length-1 slices.


def d1(u: np.ndarray, h) -> np.ndarray:
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * h)
    out[..., :1] = (-3.0 * u[..., :1] + 4.0 * u[..., 1:2] - u[..., 2:3]) / (2.0 * h)
    out[..., -1:] = (3.0 * u[..., -1:] - 4.0 * u[..., -2:-1] + u[..., -3:-2]) / (2.0 * h)
    return out


def d2(u: np.ndarray, h) -> np.ndarray:
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / (h * h)
    out[..., :1] = (2.0 * u[..., :1] - 5.0 * u[..., 1:2] + 4.0 * u[..., 2:3]
                    - u[..., 3:4]) / (h * h)
    out[..., -1:] = (2.0 * u[..., -1:] - 5.0 * u[..., -2:-1] + 4.0 * u[..., -3:-2]
                     - u[..., -4:-3]) / (h * h)
    return out


def trapezoid_weights(n: int, h) -> np.ndarray:
    w = h * np.ones(n)
    w[..., :1] = w[..., -1:] = 0.5 * h
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
    return _KINDS[state.grid.kind].geometry(state, profile)


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
    dV = w * trapezoid_weights(u.shape[-1], h)
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        du=ux, volume=dV.sum(axis=-1),
    )


def _geometry_radial2d(state: FlowState, profile) -> GeometryFields:
    u = state.u
    h = state.spacing()
    rho = state.coords()
    ur = _radial2d_slope(state)
    urr = d2(u, h)
    urr[..., :1] = 2.0 * (u[..., 1:2] - u[..., :1]) / (h * h)
    m = 1.0 - ur * ur
    if np.any(m <= 0) or not np.all(np.isfinite(urr)):
        raise SpacelikeError("graph is not strictly spacelike")
    w = np.sqrt(m)
    v_hat = 1.0 / w
    nu = np.stack([ur / w, 1.0 / w], axis=-1)   # (nu_radial, nu_t)
    kappa1 = urr / (m * w)
    kappa2 = np.empty_like(u)
    kappa2[..., 1:] = ur[..., 1:] / (rho[..., 1:] * w[..., 1:])
    kappa2[..., :1] = urr[..., :1] / w[..., :1]   # L'Hopital at the axis
    H = kappa1 + kappa2
    normA2 = kappa1**2 + kappa2**2
    if profile is not None and isinstance(profile, RotationalProfile):
        dfz, invw = rotational_V_factors(profile, u)
        v = (1.0 - dfz * ur) * invw / w
    else:
        v = v_hat.copy()
    dV = 2.0 * np.pi * rho * w * trapezoid_weights(u.shape[-1], h)
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        du=ur, volume=dV.sum(axis=-1),
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
    if np.any((m <= 0) & ins):
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
    v = v_hat.copy()        # V = e_t on the cylinder, the disk's one tube
    dV = np.where(ins, grid.area_weights * w, 0.0)
    return GeometryFields(
        v_hat=v_hat, v=v, nu=nu, H=H, normA2=normA2, dV=dV,
        du=np.stack([ux, uy]), volume=dV.sum(axis=(-2, -1)), mask=ins,
    )


def _padded(core: np.ndarray) -> np.ndarray:
    out = np.zeros(core.shape[:-2] + (core.shape[-2] + 2, core.shape[-1] + 2))
    out[..., 1:-1, 1:-1] = core
    return out


def disk_gradient(f: np.ndarray, h: float, padded: bool = False):
    """Central differences (f_x, f_y) at the nodes f[1:-1, 1:-1] of a disk array.

    With padded=True they come in arrays of f's shape, zero on the pad ring.
    Like every disk stencil, it multiplies by the reciprocal of its spacing,
    as the compiled loop does.
    """
    inv_2h = 1.0 / (2.0 * h)
    fx = (f[..., 2:, 1:-1] - f[..., :-2, 1:-1]) * inv_2h
    fy = (f[..., 1:-1, 2:] - f[..., 1:-1, :-2]) * inv_2h
    return (_padded(fx), _padded(fy)) if padded else (fx, fy)


def disk_derivatives(f: np.ndarray, h: float, padded: bool = False):
    """(f_x, f_y, f_xx, f_yy, f_xy) by central differences, laid out as disk_gradient."""
    c = f[..., 1:-1, 1:-1]
    inv_h2, inv_4h2 = 1.0 / (h * h), 1.0 / (4.0 * h * h)
    second = (
        (f[..., 2:, 1:-1] - 2 * c + f[..., :-2, 1:-1]) * inv_h2,
        (f[..., 1:-1, 2:] - 2 * c + f[..., 1:-1, :-2]) * inv_h2,
        (f[..., 2:, 2:] + f[..., :-2, :-2] - f[..., 2:, :-2] - f[..., :-2, 2:]) * inv_4h2,
    )
    if padded:
        second = tuple(_padded(d) for d in second)
    return (*disk_gradient(f, h, padded), *second)


def spacelike_margin(state: FlowState) -> float:
    """min over nodes of 1 - psi^2 |Du|^2_ghat (flat ambient chart)."""
    return float(1.0 - _KINDS[state.grid.kind].du2(state).max())


def laplace_beltrami(state: FlowState, f: np.ndarray, g: GeometryFields) -> np.ndarray:
    """Divergence-form intrinsic Laplacian of a nodal field on the state.

    (1/sqrt(det g)) D_i(sqrt(det g) g^{ij} D_j f) with midpoint fluxes; the
    slope of u comes from g.du, g being the state's GeometryFields.  Boundary
    entries are NaN; for disk2d only the deep-interior mask is filled (all
    stencil nodes strictly inside).  f may stack several fields ahead of the
    state's own axes; they share one metric evaluation.
    """
    return _KINDS[state.grid.kind].laplace_beltrami(state, f, g)


def _curve1d_laplace_beltrami(state: FlowState, f: np.ndarray, g: GeometryFields) -> np.ndarray:
    u = state.u
    h = state.spacing()
    dum = np.diff(u) / h
    a_mid = 1.0 / np.sqrt(1.0 - dum * dum)      # sqrt(g) g^{xx} at midpoints
    flux = a_mid * np.diff(f) / h
    out = np.full_like(f, np.nan)
    out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) / (h * np.sqrt(1.0 - g.du[..., 1:-1] ** 2))
    return out


def _radial2d_laplace_beltrami(state: FlowState, f: np.ndarray, g: GeometryFields) -> np.ndarray:
    u = state.u
    h = state.spacing()
    rho = state.coords()
    rho_mid = 0.5 * (rho[..., 1:] + rho[..., :-1])
    dum = np.diff(u) / h
    a_mid = rho_mid / np.sqrt(1.0 - dum * dum)  # sqrt(G) g^{rr} at midpoints
    flux = a_mid * np.diff(f) / h
    out = np.full_like(f, np.nan)
    sg = rho * np.sqrt(1.0 - g.du * g.du)
    out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) / (h * sg[..., 1:-1])
    # axis cell: (1/(rho sqrt(g))) d_rho(rho f_rho/sqrt(g)) -> 2 f_rr at 0
    out[..., :1] = 4.0 * (f[..., 1:2] - f[..., :1]) / (h * h * np.sqrt(1.0 - dum[..., :1] ** 2))
    return out


def _disk2d_laplace_beltrami(state: FlowState, f: np.ndarray, g: GeometryFields) -> np.ndarray:
    grid = disk_grid(state.grid.n, state.grid.radius)
    h = grid.h
    ux, uy = g.du                                    # u's central gradient
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
    div = np.zeros_like(Fx)
    div[..., 1:-1, 1:-1] = ((Fx[..., 2:, 1:-1] - Fx[..., :-2, 1:-1])
                            + (Fy[..., 1:-1, 2:] - Fy[..., 1:-1, :-2])) / (2 * h)
    return np.where(grid.deep, div / sg, np.nan)


# -- the grid kinds ----------------------------------------------------------


def _curve1d_coords(state: FlowState) -> np.ndarray:
    xl, xr = state.boundary
    return 0.5 * (xl + xr) + state.grid.reference() * 0.5 * (xr - xl)


def _radial2d_slope(state: FlowState) -> np.ndarray:
    """d1 of u, zero on the axis (symmetry)."""
    du = d1(state.u, state.spacing())
    du[..., 0] = 0.0
    return du


def _disk2d_real_nodes(grid: GridSpec) -> tuple:
    """The nodes inside the disk by radius, then angle, as (rows, columns)."""
    dg = disk_grid(grid.n, grid.radius)
    ins = dg.inside
    order = np.lexsort((np.arctan2(dg.Y[ins], dg.X[ins]), dg.r[ins]))
    return tuple(a[order] for a in np.nonzero(ins))


def _disk2d_du2(state: FlowState) -> np.ndarray:
    grid = disk_grid(state.grid.n, state.grid.radius)
    ux, uy = disk_gradient(grid.fill_ghosts(state.u), grid.h)
    return (ux * ux + uy * uy)[grid.inside[1:-1, 1:-1]]


class _Kind(NamedTuple):
    geometry: Callable           # (state, profile) -> GeometryFields
    laplace_beltrami: Callable   # (state, f, g) -> the intrinsic Laplacian of f
    du2: Callable                # state -> |Du|^2 at the real nodes
    reference: Callable          # grid -> the reference coordinate per node
    coords: Callable             # state -> the physical coordinate per node
    spacing: Callable            # state -> the node spacing
    real_nodes: Callable         # grid -> the index of GridSpec.real_nodes
    min_n: int                   # the fewest nodes per axis


_KINDS = {
    "curve1d": _Kind(_geometry_curve1d, _curve1d_laplace_beltrami,
                     lambda state: d1(state.u, state.spacing()) ** 2,
                     lambda grid: np.linspace(-1.0, 1.0, grid.n), _curve1d_coords,
                     lambda state: (state.boundary[1] - state.boundary[0]) / (state.grid.n - 1),
                     lambda grid: slice(None), 5),
    "radial2d": _Kind(_geometry_radial2d, _radial2d_laplace_beltrami,
                      lambda state: _radial2d_slope(state) ** 2,
                      lambda grid: np.linspace(0.0, 1.0, grid.n),
                      lambda state: state.grid.reference() * state.boundary,
                      lambda state: state.boundary / (state.grid.n - 1),
                      lambda grid: slice(None), 5),
    # from N = 6 the rim monitor circles sample inside nodes only (disk.DiskGrid
    # builds N = 5 too, for its own tests)
    "disk2d": _Kind(_geometry_disk2d, _disk2d_laplace_beltrami, _disk2d_du2,
                    lambda grid: disk_grid(grid.n, grid.radius).r / grid.radius,
                    lambda state: disk_grid(state.grid.n, state.grid.radius).r,
                    lambda state: disk_grid(state.grid.n, state.grid.radius).h,
                    _disk2d_real_nodes, 6),
}
