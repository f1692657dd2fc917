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
its evaluation, node fields and observer, its Laplace-Beltrami operator, its
reference and physical node coordinates, its spacing, its real nodes and the
fewest nodes per axis it takes.  GridSpec, FlowState and the public
functions look the kind up there and nowhere branch on its name.  flow,
monitors and _kernels each keep one table of their own for the numerics they
add (the step, the monitors' terms, the C loop's arguments).

A kind's evaluation (``evaluate``: slope, margin, H / v_hat, w and v_hat)
and its node fields (``node_fields``: H, v and dV) are the one place its
slope, metric and mean curvature are formed; the flow's projections take a
line grid's slope from the same ``line_slope``, and the disk's
Laplace-Beltrami operator its metric from the observer.  The flow's step
reads the evaluation, its record adds the node fields, and so does the
observer ``geometry``, which adds |A|^2 (and on the disk the inverse metric)
and forms the normal and dV when they are first read, so the observer sees
the state the flow's guard saw.  v reads the boundary's V field: a planar
boundary's own, the tube's radial extension from f'.  Central differences
inside; the line kinds impose at their ends the slope the state's boundary
takes there (-+1/s' on the planar boundary, f'(u_b) at the radial rim, 0 on
the axis), the disk its mirror-point ghosts.  A line end's u_xx takes the
ghost (mirror-slope) form in the step's rate and the one-sided second-order
form in H.  With the future-pointing unit normal nu and h_ij = -<d2F, nu>,
the mean curvature of an upward-convex graph is positive; the translating
benchmark u = log cosh x + t has H = v_hat = cosh x and interior update
g^xx u_xx = 1.

A disk state is the m x m box of its nodes, m = N + 2: the N x N core and
one pad ring.  Its fields live on the box too, with their values on the pad
ring set once: Du = 0, v_hat = v = 1 and H = |A|^2 = dV = 0 (and off the
disk H = |A|^2 = dV = 0 and v_hat = 1); the Laplace-Beltrami operator is
NaN off the deep nodes.  The disk stencils read a node's neighbours as
shifts of the flattened box: node k = i m + j has (i +- 1, j) at k +- m and
(i, j +- 1) at k +- 1, so each shifted operand is one contiguous slice over
the span from node (1, 1) to node (m - 2, m - 2), and every operation after
it runs on contiguous memory.  That span holds the pad columns between the
core's rows, where a +-1 shift wraps into the next row; the pad ring's
values overwrite them.  Each node keeps the operations, in their order, of
the compiled loop's row kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .disk import disk_grid

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
        """The reference coordinate per node: s on the line kinds, built once
        per grid and read-only (the flow reads it every step), r/R on the disk."""
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
    """Per-node geometric data of a state; the normal nu and the volume
    element dV are formed on first read."""

    v_hat: np.ndarray
    v: np.ndarray
    H: np.ndarray
    normA2: np.ndarray
    du: np.ndarray                      # u's slope; disk2d: (u_x, u_y) on a leading axis
    ginv: Optional[tuple]               # disk2d: the inverse metric (g^xx, g^xy, g^yy)
    form_dV: Callable                   # () -> dV, from the evaluation
    kappa: Optional[tuple] = None       # radial2d principal curvatures
    V: Optional[tuple] = None           # the V field at the nodes: curve1d's (V_x, V_t);
                                        # radial2d's (f' rhat + e3)/w as (f', 1/w), w = sqrt(1-f'^2)

    @functools.cached_property
    def nu(self) -> np.ndarray:
        """v_hat (Du, 1), components (x or rho[, y], t) on a trailing axis."""
        slope = self.du if self.du.ndim > self.v_hat.ndim else self.du[None]
        return np.stack([*(c * self.v_hat for c in slope), self.v_hat], axis=-1)

    @functools.cached_property
    def dV(self) -> np.ndarray:
        return self.form_dV()


class Evaluation(NamedTuple):
    """A kind's evaluation of a state, or of a stack of states along leading
    axes: what the flow's step reads, and what ``node_fields`` and the
    observer build on."""

    h: object              # the node spacing; (K, 1) over a stack of line states
    m_min: float           # least 1 - |Du|^2 over the real nodes: the flow's guard
    du: object             # u's slope, the boundary's at a line grid's ends; disk2d
                           # (u_x, u_y) on a leading axis
    rhs: np.ndarray        # H / v_hat: the step's u_t on a fixed grid (ghost-form line ends)
    w: np.ndarray          # sqrt(1 - |Du|^2); 1 at the disk's nodes outside it
    v_hat: np.ndarray      # 1 / w
    ends: Optional[tuple]  # a line grid's rhs at its (low, high) ends with the one-sided
                           # u_xx (the axis keeps rhs): the boundary speeds and H
    profile_slope: Optional[tuple]  # the boundary's slope at a line grid's (low, high)
                           # ends: curve1d (s'(|x_l|), s'(x_r)), radial2d (None, f'(u_b))
    second: object         # the observer's second derivatives: radial2d u_r / rho (u_rr on
                           # the axis); disk2d (u_xx, u_yy, u_xy) on a leading axis;
                           # curve1d None


class NodeFields(NamedTuple):
    """What the flow's record and the observer add to an evaluation."""

    H: np.ndarray          # v_hat rhs, with the ends' one-sided rhs on a line grid
    v: np.ndarray          # -<nu, V> with the profile's V field
    dV: np.ndarray         # the volume element times the quadrature weight


# -- one-dimensional stencils -------------------------------------------------


# The stencils and kernels below index the node axis last (``...``), so one
# formula serves one state or a stack of states along leading axes; a stack's
# spacing h then has shape (K, 1).  Values at a line grid's ends drop the node
# axis: one per state, numpy scalars for one state.


def d1(u: np.ndarray, h) -> np.ndarray:
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * h)
    out[..., :1] = (-3.0 * u[..., :1] + 4.0 * u[..., 1:2] - u[..., 2:3]) / (2.0 * h)
    out[..., -1:] = (3.0 * u[..., -1:] - 4.0 * u[..., -2:-1] + u[..., -3:-2]) / (2.0 * h)
    return out


def trapezoid_weights(n: int, h) -> np.ndarray:
    w = h * np.ones(n)
    w[..., :1] = w[..., -1:] = 0.5 * h
    return w


# -- the evaluation and the observer --------------------------------------------


def evaluate(state: FlowState, profile) -> Evaluation:
    """The kind's evaluation of a state, with the boundary's slope imposed at a
    line grid's ends; no guard applies."""
    return _KINDS[state.grid.kind].evaluate(state, profile)


def node_fields(state: FlowState, profile, ev: Evaluation) -> NodeFields:
    """H, v and dV of an evaluated state."""
    H, v, form_dV, _ = _KINDS[state.grid.kind].fields(state, profile, ev)
    return NodeFields(H, v, form_dV())


def geometry(state: FlowState, profile) -> GeometryFields:
    """Metric, gradient functions, normal and curvature of a state, or of a
    stack of states along leading axes, from the kind's evaluation.

    In the flat ambient chart (psi = 1, ghat = delta, V_hat = e_t); the V
    field comes from the profile's extension.  SpacelikeError where the
    flow's margin is not positive (or NaN).
    """
    kind = _KINDS[state.grid.kind]
    with np.errstate(all="ignore"):
        ev = kind.evaluate(state, profile)
        if not ev.m_min > 0.0:
            raise SpacelikeError(f"graph is not strictly spacelike (least margin {ev.m_min:.3g})")
        fields = kind.fields(state, profile, ev)
    return kind.observe(state, ev, *fields)


class _LineDerivatives(NamedTuple):
    ux: np.ndarray
    uxx: np.ndarray        # the ends' in the ghost form
    m: np.ndarray          # 1 - u_x^2
    w: np.ndarray          # sqrt(m)
    v_hat: np.ndarray      # 1 / w
    vh2: np.ndarray        # v_hat^2, which turns u_xx into u_xx / m
    ends2: tuple           # the (low, high) ends' u_xx in the one-sided form


def line_slope(u, h, slope_lo, slope_hi) -> np.ndarray:
    """u_x of a line grid: central differences by the reciprocal of 2h, as
    _step.c takes them, and the slopes imposed at the (low, high) ends."""
    ux = np.empty_like(u)
    ux[..., 1:-1] = (u[..., 2:] - u[..., :-2]) * (1.0 / (2.0 * h))
    ux[..., 0] = slope_lo
    ux[..., -1] = slope_hi
    return ux


def _line_derivatives(u, h, slope_lo, slope_hi) -> _LineDerivatives:
    """The derivatives and metric of a line grid with the slopes du/dx imposed
    at its ends, the stencils multiplying by the reciprocals of 2h and h^2
    taken once, as _step.c does.  The ends' u_xx takes the ghost
    (mirror-slope) form, which keeps the interior stencil's stability bound;
    the one-sided form gives the boundary speeds and H.
    """
    inv_h2 = 1.0 / (h * h)
    ux = line_slope(u, h, slope_lo, slope_hi)
    uxx = np.empty_like(u)
    uxx[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) * inv_h2
    # the high end is the low end of the reversed grid, whose slope is -du/dx
    h_end, inv_end = _per_state(h), _per_state(inv_h2)
    (uxx[..., 0], lo2), (uxx[..., -1], hi2) = (
        _end_uxx(u, h_end, inv_end, slope_lo), _end_uxx(u[..., ::-1], h_end, inv_end, -slope_hi))
    m = 1.0 - ux * ux
    w = np.sqrt(m)
    v_hat = 1.0 / w
    return _LineDerivatives(ux, uxx, m, w, v_hat, v_hat * v_hat, (lo2, hi2))


def _end(a: np.ndarray, k: int):
    """a's value at node k of a line grid, per state: a numpy scalar for one state."""
    return a[..., k][()]


def _per_state(a):
    """A number as it is, or a column over a stack's states as one value per state."""
    return a[..., 0] if getattr(a, "ndim", 0) else a


def _end_uxx(u, h, inv_h2, slope):
    """(ghost form, one-sided form) of u_xx at u[..., 0], whose slope is imposed."""
    u0, u1, u2 = _end(u, 0), _end(u, 1), _end(u, 2)
    return ((2.0 * u1 - 2.0 * u0 - 2.0 * h * slope) * inv_h2,
            (-3.5 * u0 + 4.0 * u1 - 0.5 * u2 - 3.0 * h * slope) * inv_h2)


def _line_evaluation(h, d: _LineDerivatives, rhs, ends, profile_slope, second) -> Evaluation:
    return Evaluation(h, float(d.m.min()), d.ux, rhs, d.w, d.v_hat, ends, profile_slope, second)


def _line_fields(ev: Evaluation, vw, unit) -> tuple:
    """H = v_hat rhs with the ends' one-sided rhs, v = vw v_hat, and dV = unit w
    trapezoid when called."""
    H = ev.v_hat * ev.rhs
    H[..., 0] = _end(ev.v_hat, 0) * ev.ends[0]
    H[..., -1] = _end(ev.v_hat, -1) * ev.ends[1]
    return H, vw * ev.v_hat, lambda: unit * ev.w * trapezoid_weights(ev.w.shape[-1], ev.h)


def _curve1d_evaluate(state: FlowState, profile) -> Evaluation:
    (xl, xr), h = state.boundary, state.spacing()
    dsL, dsR = profile.ds(abs(_per_state(xl))), profile.ds(_per_state(xr))
    d = _line_derivatives(state.u, h, -1.0 / dsL, 1.0 / dsR)
    lo2, hi2 = d.ends2
    return _line_evaluation(h, d, d.uxx * d.vh2, (lo2 * _end(d.vh2, 0), hi2 * _end(d.vh2, -1)),
                            (dsL, dsR), None)


def _curve1d_fields(state: FlowState, profile, ev: Evaluation) -> tuple:
    Vx, Vt = V = profile.V(state.coords())
    return (*_line_fields(ev, Vt - Vx * ev.du, 1.0), V)


def _curve1d_observe(state: FlowState, ev: Evaluation, H, v, form_dV, V) -> GeometryFields:
    return GeometryFields(v_hat=ev.v_hat, v=v, H=H, normA2=H * H, du=ev.du, ginv=None,
                          form_dV=form_dV, V=V)


def _radial2d_evaluate(state: FlowState, profile) -> Evaluation:
    u, h, rho = state.u, state.spacing(), state.coords()
    dfb = profile.df(_end(u, -1))
    # slope 0 on the axis: the ghost form there is the even extension 2 (u_1 - u_0) / h^2
    d = _line_derivatives(u, h, 0.0, dfb)
    k2 = np.empty_like(u)             # u_r / rho = kappa_2 / v_hat; u_rr on the axis
    k2[..., 1:] = d.ux[..., 1:] / rho[..., 1:]
    k2[..., :1] = d.uxx[..., :1]
    # on the axis v_hat = 1, so rhs there is 2 u_rr
    rhs = d.uxx * d.vh2 + k2
    return _line_evaluation(h, d, rhs, (_end(rhs, 0), d.ends2[1] * _end(d.vh2, -1) + _end(k2, -1)),
                            (None, dfb), k2)


def _radial2d_fields(state: FlowState, profile, ev: Evaluation) -> tuple:
    dfz = np.asarray(profile.df(state.u), dtype=float)
    invw = 1.0 / np.sqrt(1.0 - dfz * dfz)
    return (*_line_fields(ev, (1.0 - dfz * ev.du) * invw, 2.0 * np.pi * state.coords()),
            (dfz, invw))


def _radial2d_observe(state: FlowState, ev: Evaluation, H, v, form_dV, V) -> GeometryFields:
    g = _curve1d_observe(state, ev, H, v, form_dV, V)
    kappa2 = ev.v_hat * ev.second
    kappa1 = H - kappa2
    g.normA2, g.kappa = kappa1**2 + kappa2**2, (kappa1, kappa2)
    return g


def _disk2d_evaluate(state: FlowState, profile) -> Evaluation:
    grid = disk_grid(state.grid.n, state.grid.radius)
    d = disk_derivatives(grid.fill_ghosts(state.u), grid.h)
    ux, uy, uxx, uyy, uxy = d
    # 1 - |Du|^2 at the inside nodes, 1 elsewhere; 1 - |Du|^2 <= 1 (or NaN), so
    # its least value is the least over the inside nodes
    ux2, uy2 = ux * ux, uy * uy
    m = _off(1.0 - (ux2 + uy2), grid.inside, 1.0)
    # one sqrt and one division a node, as in _step.c's row kernel
    w = np.sqrt(m)
    v_hat = 1.0 / w
    vh2 = v_hat * v_hat
    q = _sum_in(ux2 * uxx, 2 * ux * uy * uxy, uy2 * uyy)
    q *= vh2
    rhs = _sum_in(uxx + uyy, q)
    return Evaluation(grid.h, float(m.min()), d[:2], rhs, w, v_hat, None, None, d[2:])


def _disk2d_fields(state: FlowState, profile, ev: Evaluation) -> tuple:
    """H = 0 and dV = 0 off the disk; V = e_t on the cylinder, the disk's one
    tube, so v = v_hat."""
    grid = disk_grid(state.grid.n, state.grid.radius)
    return (_off(ev.v_hat * ev.rhs, grid.inside, 0.0), ev.v_hat,
            lambda: _off(grid.area_weights * ev.w, grid.inside, 0.0), None)


def _disk2d_observe(state: FlowState, ev: Evaluation, H, v, form_dV, V) -> GeometryFields:
    """|A|^2 (0 off the disk) and the inverse metric."""
    uxx, uyy, uxy = ev.second
    ux, uy = ev.du
    vh, vh2 = ev.v_hat, ev.v_hat * ev.v_hat
    # |A|^2 = tr((g^{-1} h)^2), g^{-1} = delta + vh^2 Du Du, h_ij = v_hat u_ij
    vh2_ux = vh2 * ux
    a11 = 1.0 + vh2_ux * ux
    a12 = vh2_ux * uy
    a22 = 1.0 + vh2 * uy * uy
    m11, m12 = _sum_in(a11 * uxx, a12 * uxy), _sum_in(a11 * uxy, a12 * uyy)
    m21, m22 = _sum_in(a12 * uxx, a22 * uxy), _sum_in(a12 * uxy, a22 * uyy)
    normA2 = _sum_in(m11 * m11, 2.0 * m12 * m21, m22 * m22)
    normA2 *= vh2
    normA2 = _off(normA2, disk_grid(state.grid.n, state.grid.radius).inside, 0.0)
    return GeometryFields(v_hat=vh, v=v, H=H, normA2=normA2, du=ev.du, ginv=(a11, a12, a22),
                          form_dV=form_dV, V=V)


def _sum_in(a: np.ndarray, *terms) -> np.ndarray:
    """a + terms[0] + terms[1] + ..., in that order, summed into a, a new array:
    the disk's sums take no temporary per addition."""
    for t in terms:
        a += t
    return a


def _off(a: np.ndarray, mask: np.ndarray, value: float) -> np.ndarray:
    """np.where(mask, a, value) written into a, a new array."""
    np.copyto(a, value, where=~mask)
    return a


def _box_shifts(f: np.ndarray):
    """k -> the flattened box f at the span's nodes moved k nodes on: each core
    node's neighbour (i +- 1, j) is k = +-m, (i, j +- 1) is k = +-1."""
    m = f.shape[-1]
    flat = f.reshape(f.shape[:-2] + (m * m,))
    return lambda k: flat[..., m + 1 + k:m * m - m - 1 + k]


def _box(lead: tuple, m: int):
    """An unset m x m box behind the leading axes lead, and the flat view of its span."""
    box = np.empty(lead + (m, m))
    return box, box.reshape(lead + (m * m,))[..., m + 1:m * m - m - 1]


def _zero_pad(box: np.ndarray) -> np.ndarray:
    """box, its span written, with 0 set on its pad ring."""
    m = box.shape[-1]
    box[..., ::m - 1, :] = 0.0     # the pad rows
    box[..., ::m - 1] = 0.0        # the pad columns, into which the +-1 shifts wrap
    return box


def _gradient_spans(f: np.ndarray, h: float, out) -> None:
    """f_x and f_y into the spans out[0] and out[1], multiplying by the
    reciprocal of 2h, as every disk stencil does and the compiled loop too."""
    m, at = f.shape[-1], _box_shifts(f)
    inv_2h = 1.0 / (2.0 * h)
    np.multiply(at(m) - at(-m), inv_2h, out=out[0])
    np.multiply(at(1) - at(-1), inv_2h, out=out[1])


def disk_gradient(f: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f_x, f_y) of a disk box f on a new leading axis, on
    the box: 0 on its pad ring."""
    grad, span = _box((2,) + f.shape[:-2], f.shape[-1])
    _gradient_spans(f, h, span)
    return _zero_pad(grad)


def disk_derivatives(f: np.ndarray, h: float) -> np.ndarray:
    """(f_x, f_y, f_xx, f_yy, f_xy) of a disk box f by central differences on a
    new leading axis, on the box: 0 on its pad ring."""
    m, at = f.shape[-1], _box_shifts(f)
    c = at(0)
    inv_h2, inv_4h2 = 1.0 / (h * h), 1.0 / (4.0 * h * h)
    d, span = _box((5,) + f.shape[:-2], m)
    _gradient_spans(f, h, span)
    np.multiply(at(m) - 2 * c + at(-m), inv_h2, out=span[2])
    np.multiply(at(1) - 2 * c + at(-1), inv_h2, out=span[3])
    np.multiply(at(m + 1) + at(-m - 1) - at(m - 1) - at(1 - m), inv_4h2, out=span[4])
    return _zero_pad(d)


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
    out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) * g.v_hat[..., 1:-1] / h
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
    out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) * g.v_hat[..., 1:-1] / (h * rho[..., 1:-1])
    # axis cell: (1/(rho sqrt(g))) d_rho(rho f_rho/sqrt(g)) -> 2 f_rr at 0
    out[..., :1] = 4.0 * (f[..., 1:2] - f[..., :1]) / (h * h * np.sqrt(1.0 - dum[..., :1] ** 2))
    return out


def _disk2d_laplace_beltrami(state: FlowState, f: np.ndarray, g: GeometryFields) -> np.ndarray:
    return disk_divergence(state, disk_gradient(f, state.spacing()), g)


def disk_divergence(state: FlowState, grad, g: GeometryFields) -> np.ndarray:
    """The disk's Laplace-Beltrami operator of a field from its central
    gradient grad = disk_gradient(f, h), for a caller that holds it:
    (1/sqrt(det g)) D_i(sqrt(det g) g^{ij} f_j) on the deep nodes, NaN elsewhere."""
    grid = disk_grid(state.grid.n, state.grid.radius)
    a11, a12, a22 = g.ginv                           # g^{ij}; delta off the disk
    sg = 1.0 / g.v_hat                               # sqrt(det g); 1 off the disk
    fx, fy = grad
    Fx, Fy = _sum_in(a11 * fx, a12 * fy), _sum_in(a12 * fx, a22 * fy)
    Fx *= sg                                         # sg g^{ij} f_j
    Fy *= sg
    m, at_x, at_y = fx.shape[-1], _box_shifts(Fx), _box_shifts(Fy)
    div, span = _box(Fx.shape[:-2], m)
    np.subtract(at_x(m), at_x(-m), out=span)
    span += at_y(1) - at_y(-1)
    span /= 2 * grid.h
    _zero_pad(div)
    div /= sg
    return _off(div, grid.deep, np.nan)


# -- the grid kinds ----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _line_reference(lo: float, n: int) -> np.ndarray:
    """np.linspace(lo, 1, n), read-only: a line grid's reference coordinate."""
    ref = np.linspace(lo, 1.0, n)
    ref.flags.writeable = False
    return ref


def _curve1d_coords(state: FlowState) -> np.ndarray:
    xl, xr = state.boundary
    return 0.5 * (xl + xr) + state.grid.reference() * 0.5 * (xr - xl)


def _radial2d_coords(state: FlowState) -> np.ndarray:
    """k h and, at the rim, rho_b: the bits of np.linspace(0, rho_b, n) and _step.c."""
    rho = np.arange(state.grid.n) * state.spacing()
    rho[..., -1:] = state.boundary
    return rho


def _disk2d_real_nodes(grid: GridSpec) -> tuple:
    """The nodes inside the disk by radius, then angle, as (rows, columns)."""
    dg = disk_grid(grid.n, grid.radius)
    ins = dg.inside
    order = np.lexsort((np.arctan2(dg.Y[ins], dg.X[ins]), dg.r[ins]))
    return tuple(a[order] for a in np.nonzero(ins))


class _Kind(NamedTuple):
    evaluate: Callable           # (state, profile) -> Evaluation
    fields: Callable             # (state, profile, Evaluation) -> (H, v, () -> dV, V),
                                 # V as GeometryFields.V
    observe: Callable            # (state, Evaluation, H, v, () -> dV, V) -> GeometryFields
    laplace_beltrami: Callable   # (state, f, g) -> the intrinsic Laplacian of f
    reference: Callable          # grid -> the reference coordinate per node
    coords: Callable             # state -> the physical coordinate per node
    spacing: Callable            # state -> the node spacing
    real_nodes: Callable         # grid -> the index of GridSpec.real_nodes
    min_n: int                   # the fewest nodes per axis


_KINDS = {
    "curve1d": _Kind(_curve1d_evaluate, _curve1d_fields, _curve1d_observe,
                     _curve1d_laplace_beltrami,
                     lambda grid: _line_reference(-1.0, grid.n), _curve1d_coords,
                     lambda state: (state.boundary[1] - state.boundary[0]) / (state.grid.n - 1),
                     lambda grid: slice(None), 5),
    "radial2d": _Kind(_radial2d_evaluate, _radial2d_fields, _radial2d_observe,
                      _radial2d_laplace_beltrami,
                      lambda grid: _line_reference(0.0, grid.n), _radial2d_coords,
                      lambda state: state.boundary / (state.grid.n - 1),
                      lambda grid: slice(None), 5),
    # from N = 6 the rim monitor circles sample inside nodes only (disk.DiskGrid
    # builds N = 5 too, for its own tests)
    "disk2d": _Kind(_disk2d_evaluate, _disk2d_fields, _disk2d_observe,
                    _disk2d_laplace_beltrami,
                    lambda grid: disk_grid(grid.n, grid.radius).r / grid.radius,
                    lambda state: disk_grid(state.grid.n, state.grid.radius).r,
                    lambda state: disk_grid(state.grid.n, state.grid.radius).h,
                    _disk2d_real_nodes, 6),
}
