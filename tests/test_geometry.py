import ast
import glob
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import maxsurf
from maxsurf.analytic import grim_reaper, hyperbolic_plane, radial_graph_mean_curvature
from maxsurf.config import SCENARIOS
from maxsurf.disk import disk_grid
from maxsurf.flow import StepControl, record_state
from maxsurf.geometry import (
    FlowState,
    GridSpec,
    evaluate,
    geometry,
    laplace_beltrami,
    node_fields,
    spacelike_margin,
    trapezoid_weights,
)
from maxsurf.lorentz import minkowski_inner
from maxsurf.profiles import cylinder, pseudosphere, sine_tube, trumpet
from maxsurf.scenarios import _SCENARIOS


def curve_state(u_of_x, xl, xr, n, t=0.0):
    grid = GridSpec("curve1d", n)
    x = 0.5 * (xl + xr) + grid.reference() * 0.5 * (xr - xl)
    return FlowState(grid, t, np.asarray(u_of_x(x), dtype=float), (xl, xr))


def radial_state(u_of_r, rho_b, n, t=0.0):
    grid = GridSpec("radial2d", n)
    rho = grid.reference() * rho_b
    return FlowState(grid, t, np.asarray(u_of_r(rho), dtype=float), rho_b)


def disk_state(u_of_xy, n, radius=1.0, t=0.0):
    grid = GridSpec("disk2d", n, radius)
    dg = disk_grid(n, radius)
    u = np.where(dg.inside, u_of_xy(dg.X, dg.Y), 0.0)
    return FlowState(grid, t, u, None)


def test_line_reference_is_built_once_per_grid_and_read_only():
    for grid in (GridSpec("curve1d", 51), GridSpec("radial2d", 33)):
        ref = grid.reference()
        assert GridSpec(grid.kind, grid.n).reference() is ref
        assert not ref.flags.writeable
    assert GridSpec("curve1d", 51).reference().tobytes() == np.linspace(-1.0, 1.0, 51).tobytes()
    assert GridSpec("radial2d", 33).reference().tobytes() == np.linspace(0.0, 1.0, 33).tobytes()


# -- flat disk ---------------------------------------------------------------


def test_flat_disk_geometry():
    # nonzero constant: ghost fill exact up to substitution roundoff only
    st = disk_state(lambda x, y: 0.7 + 0.0 * x, 64)
    g = geometry(st, cylinder(1.0))
    ins = disk_grid(64).inside
    assert np.abs(g.H[ins]).max() <= 1e-11
    assert np.abs(g.v_hat[ins] - 1.0).max() <= 1e-12
    assert g.dV.sum() == pytest.approx(math.pi, abs=1e-12)  # exact cell areas
    # over the whole box v_hat = v >= 1; the pad ring holds nu = e_t
    assert g.v_hat.min() >= 1.0 and np.array_equal(g.v, g.v_hat)
    pad = np.ones(ins.shape, dtype=bool)
    pad[1:-1, 1:-1] = False
    assert np.all(g.nu[pad] == (0.0, 0.0, 1.0))
    # u identically zero is an exact fixed point of every stencil
    st0 = disk_state(lambda x, y: 0.0 * x, 64)
    g0 = geometry(st0, cylinder(1.0))
    assert np.abs(g0.H[ins]).max() == 0.0


def test_disk_quadrature_exact_area():
    for n in (32, 101):
        st = disk_state(lambda x, y: 0.0 * x, n)
        assert geometry(st, cylinder(1.0)).dV.sum() == pytest.approx(math.pi, abs=1e-12)


def _spacelike_disk_u(n, base, bumps):
    """Sums of Gaussian bumps on base, scaled to a least margin of 0.3, 0 off the disk."""
    dg = disk_grid(n)
    shape = sum(a * np.exp(-((dg.X - cx) ** 2 + (dg.Y - cy) ** 2) / s**2) for a, cx, cy, s in bumps)
    grid = GridSpec("disk2d", n)
    steepest = 1.0 - spacelike_margin(FlowState(grid, 0.0, shape, None), cylinder(1.0))
    scale = min(1.0, math.sqrt(0.7 / steepest)) if steepest > 0.0 else 1.0
    return np.where(dg.inside, base + scale * shape, 0.0)


def _slice_oracle(state, f):
    """H, |A|^2 and the Laplace-Beltrami operator of f on a disk state (or a
    stack) by 2-D slices of the box, each node's operations in geometry's
    order: the core's fields, padded with their pad-ring values."""
    dg = disk_grid(state.grid.n, state.grid.radius)
    u, h = dg.fill_ghosts(state.u), dg.h
    inv_2h, inv_h2, inv_4h2 = 1.0 / (2.0 * h), 1.0 / (h * h), 1.0 / (4.0 * h * h)

    def grad(a):
        return ((a[..., 2:, 1:-1] - a[..., :-2, 1:-1]) * inv_2h,
                (a[..., 1:-1, 2:] - a[..., 1:-1, :-2]) * inv_2h)

    def padded(core, fill=0.0):
        out = np.full(core.shape[:-2] + (core.shape[-2] + 2, core.shape[-1] + 2), fill)
        out[..., 1:-1, 1:-1] = core
        return out

    c = u[..., 1:-1, 1:-1]
    ux, uy = grad(u)
    uxx = (u[..., 2:, 1:-1] - 2 * c + u[..., :-2, 1:-1]) * inv_h2
    uyy = (u[..., 1:-1, 2:] - 2 * c + u[..., 1:-1, :-2]) * inv_h2
    uxy = (u[..., 2:, 2:] + u[..., :-2, :-2] - u[..., 2:, :-2] - u[..., :-2, 2:]) * inv_4h2
    ins = dg.inside[1:-1, 1:-1]
    vh = 1.0 / np.sqrt(np.where(ins, 1.0 - (ux * ux + uy * uy), 1.0))
    vh2 = vh * vh
    rhs = (uxx + uyy) + vh2 * (ux * ux * uxx + 2 * ux * uy * uxy + uy * uy * uyy)
    a11, a12, a22 = 1.0 + vh2 * ux * ux, vh2 * ux * uy, 1.0 + vh2 * uy * uy
    m11, m12 = a11 * uxx + a12 * uxy, a11 * uxy + a12 * uyy
    m21, m22 = a12 * uxx + a22 * uxy, a12 * uxy + a22 * uyy
    H = padded(np.where(ins, vh * rhs, 0.0))
    normA2 = padded(np.where(ins, vh2 * (m11 * m11 + 2.0 * m12 * m21 + m22 * m22), 0.0))
    # the metric rebuilt on the box from the padded slope and v_hat
    UX, UY, VH = padded(ux), padded(uy), padded(vh, 1.0)
    sg, VH2 = 1.0 / VH, VH * VH
    g11, g12, g22 = 1.0 + VH2 * UX * UX, VH2 * UX * UY, 1.0 + VH2 * UY * UY
    fx, fy = (padded(d) for d in grad(f))
    Fx, Fy = sg * (g11 * fx + g12 * fy), sg * (g12 * fx + g22 * fy)
    div = np.zeros_like(Fx)
    div[..., 1:-1, 1:-1] = ((Fx[..., 2:, 1:-1] - Fx[..., :-2, 1:-1])
                            + (Fy[..., 1:-1, 2:] - Fy[..., 1:-1, :-2])) / (2 * h)
    return H, normA2, np.where(dg.deep, div / sg, np.nan)


_BUMPS = hs.lists(hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-0.5, 0.5), hs.floats(-0.5, 0.5),
                            hs.floats(0.2, 1.0)), min_size=1, max_size=3)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(n=hs.integers(6, 40), base=hs.floats(-1.0, 1.0), stack=hs.booleans(),
       states=hs.lists(_BUMPS, min_size=1, max_size=3))
def test_disk_fields_live_on_the_box(n, base, stack, states):
    # one state, or a stack of up to three along a leading axis: the pad ring
    # holds its documented values, every field is finite on the box, the
    # Laplacian is NaN exactly off the deep nodes, and H, |A|^2 and the
    # Laplacian are the 2-D-slice stencils' bit for bit
    dg = disk_grid(n)
    us = [_spacelike_disk_u(n, base, bumps) for bumps in (states if stack else states[:1])]
    u = np.stack(us) if stack else us[0]
    t = np.zeros((len(us), 1, 1)) if stack else 0.0
    st = FlowState(GridSpec("disk2d", n), t, u, None)
    g = geometry(st, cylinder(1.0))
    pad = np.ones(dg.inside.shape, dtype=bool)
    pad[1:-1, 1:-1] = False
    assert np.all(g.v_hat[..., pad] == 1.0) and np.all(g.v[..., pad] == 1.0)
    for a in (g.H, g.normA2, g.dV, g.du[0], g.du[1]):
        assert a.shape == u.shape and np.all(a[..., pad] == 0.0)
    for a in (g.v_hat, g.v, g.nu, g.H, g.normA2, g.dV, g.du, *g.ginv):
        assert np.all(np.isfinite(a))
    F = np.stack([g.H, g.v])
    lap = laplace_beltrami(st, F, g)
    assert np.array_equal(np.isnan(lap), np.broadcast_to(~dg.deep, lap.shape))
    H, normA2, lap_oracle = _slice_oracle(st, F)
    assert g.H.tobytes() == H.tobytes()
    assert g.normA2.tobytes() == normA2.tobytes()
    assert lap.tobytes() == lap_oracle.tobytes()


# -- translator closed forms ---------------------------------------------------


def test_curve_log_cosh_fields():
    sol = grim_reaper()
    st = curve_state(lambda x: np.log(np.cosh(x)), -1.0, 1.0, 801)
    g = geometry(st, trumpet())
    x = st.coords()
    h = st.spacing()
    interior = slice(3, -3)
    np.testing.assert_allclose(g.v_hat[interior], np.cosh(x)[interior], atol=20 * h * h)
    # H = cosh x with the future normal; H/v_hat = 1 on the translator
    np.testing.assert_allclose(g.H[interior], np.cosh(x)[interior], atol=50 * h * h)
    np.testing.assert_allclose((g.H / g.v_hat)[interior], 1.0, atol=50 * h * h)
    # interior update g^xx u_xx = 1
    uxx = np.gradient(np.gradient(st.u, x), x)
    # the translator's v is identically 1 (nu = V everywhere)
    np.testing.assert_allclose(g.v[interior], 1.0, atol=1e-6)


# -- hyperboloid (radial) ------------------------------------------------------


def hyperboloid_tube(R, rho_b):
    """The pseudo-sphere that t = sqrt(R^2 + rho^2) meets perpendicularly at
    rho_b: f(u_b) = rho_b and f'(u_b) = rho_b / u_b, the graph's slope there."""
    u_b = math.hypot(R, rho_b)
    return pseudosphere(rho_b * R / u_b, -R * R / u_b)


def test_radial_hyperboloid_mean_curvature_order2():
    R = 1.5
    sol = hyperbolic_plane(R)
    p = hyperboloid_tube(R, 1.2)
    errs = []
    for n in (51, 101, 201):
        st = radial_state(lambda r: sol.u(r, 0.0), 1.2, n)
        g = geometry(st, p)
        errs.append(np.abs(g.H - 2.0 / R).max())
    assert errs[0] == pytest.approx(0.0, abs=1e-2)
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert 1.6 < order < 2.4


def hyperbolic_plane_mean_curvature(R: float, rho) -> np.ndarray:
    """Exact |H| = 2/R of the hyperboloid, via the graph formula (n = 2).

    Assembled from u_rho = rho/sqrt(R^2+rho^2) and u_rhorho through
    radial_graph_mean_curvature, so a symbolic cancellation check rather
    than the constant 2/R directly.
    """
    rho = np.asarray(rho, dtype=float)
    R = float(R)
    s = np.sqrt(R * R + rho**2)
    return radial_graph_mean_curvature(rho, rho / s, R * R / s**3)


def test_hyperbolic_plane_oracle_is_exact():
    rho = np.linspace(0.0, 2.0, 40)
    Hs = hyperbolic_plane_mean_curvature(2.5, rho)
    np.testing.assert_allclose(Hs, 2.0 / 2.5, atol=1e-13)


# -- invariants ----------------------------------------------------------------


def test_gradient_functions_at_least_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        amp = rng.uniform(0.01, 0.25)
        k = rng.uniform(0.5, 2.0)
        st = curve_state(lambda x: amp * np.sin(k * x), -1.5, 1.5, 101)
        g = geometry(st, trumpet())
        assert np.all(g.v_hat >= 1.0)
        assert np.all(g.v >= 1.0 - 1e-12)


def test_normal_is_unit_and_orthogonal():
    st = curve_state(lambda x: 0.3 * np.sin(x), -1.0, 1.0, 201)
    g = geometry(st, trumpet())
    x = st.coords()
    sq = g.nu[:, 0] ** 2 - g.nu[:, 1] ** 2
    np.testing.assert_allclose(sq, -1.0, atol=1e-12)
    # against the exact tangent (1, u_x): O(h^2) at interior nodes
    tang = np.stack([np.ones_like(x), 0.3 * np.cos(x)], axis=-1)
    ip = g.nu[:, 0] * tang[:, 0] - g.nu[:, 1] * tang[:, 1]
    h = st.spacing()
    assert np.abs(ip[2:-2]).max() <= 5 * h * h


@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d"])
def test_observer_sees_what_the_flow_records(kind):
    # one evaluation serves both: the record's sups of v, v_hat and |H| are
    # the observer's at the real nodes, bit for bit, and so is the margin
    if kind == "curve1d":
        p = trumpet()
        st = curve_state(lambda x: np.log(np.cosh(x)) + 0.01 * np.cos(x), -0.8, 0.8, 41)
    elif kind == "radial2d":
        p = sine_tube(2.0, 0.5, 1.0)
        st = radial_state(lambda r: math.pi / 2 + 0.05 * (1 - (r / 2.5) ** 2) ** 2, 2.5, 41)
    else:
        st, p = disk_state(lambda x, y: 0.1 * (1 - (x * x + y * y)) ** 2, 33), cylinder(1.0)
    g = geometry(st, p)
    rec = record_state(st, StepControl(), p)
    at = st.grid.real_nodes()
    assert [rec[1], rec[2], rec[3]] == [g.v[at].max(), g.v_hat[at].max(), np.abs(g.H[at]).max()]
    assert rec[2] == 1.0 / math.sqrt(spacelike_margin(st, p))


@pytest.mark.parametrize("kind", ["curve1d", "radial2d", "disk2d"])
def test_normal_and_volume_element_formed_on_first_read(kind):
    # nu and dV are formed when first read, once, and equal bit for bit (pad
    # ring included) the arrays the observer used to form with every state:
    # nu = v_hat (Du, 1) on a trailing axis, dV = unit w trapezoid on the line
    # kinds and area w inside the disk (0 elsewhere), and dV is the record's
    if kind == "curve1d":
        p = trumpet()
        st = curve_state(lambda x: np.log(np.cosh(x)) + 0.01 * np.cos(x), -0.8, 0.8, 41)
    elif kind == "radial2d":
        p = sine_tube(2.0, 0.5, 1.0)
        st = radial_state(lambda r: math.pi / 2 + 0.05 * (1 - (r / 2.5) ** 2) ** 2, 2.5, 41)
    else:
        st, p = disk_state(lambda x, y: 0.1 * (1 - (x * x + y * y)) ** 2, 33), cylinder(1.0)
    ev = evaluate(st, p)
    slope = ev.du if kind == "disk2d" else [ev.du]
    nu = np.stack([*(c * ev.v_hat for c in slope), ev.v_hat], axis=-1)
    if kind == "disk2d":
        dg = disk_grid(st.grid.n)
        dV = np.where(dg.inside, dg.area_weights * ev.w, 0.0)
    else:
        unit = 1.0 if kind == "curve1d" else 2.0 * np.pi * st.coords()
        dV = unit * ev.w * trapezoid_weights(st.grid.n, ev.h)
    g = geometry(st, p)
    assert "nu" not in vars(g) and "dV" not in vars(g)
    assert g.nu.tobytes() == nu.tobytes() and g.nu.shape == nu.shape
    assert g.dV.tobytes() == dV.tobytes() and g.dV.shape == dV.shape
    assert g.nu is g.nu and g.dV is g.dV
    assert node_fields(st, p, ev).dV.tobytes() == dV.tobytes()


def test_spacelike_margin_and_error():
    st = curve_state(lambda x: 0.999 * x, -1.0, 1.0, 51)
    assert spacelike_margin(st, trumpet()) < 3e-3
    from maxsurf.geometry import SpacelikeError

    with pytest.raises(SpacelikeError):
        geometry(curve_state(lambda x: 1.2 * x, -1.0, 1.0, 51), trumpet())


def test_remarkablev_equivalence_bound():
    # cylinder: V = e3 = V_hat, so v = v_hat exactly
    st = disk_state(lambda x, y: 0.1 * (1 - (x * x + y * y)) ** 2, 48)
    g = geometry(st, cylinder(1.0))
    ins = disk_grid(48).inside
    np.testing.assert_allclose(g.v[ins], g.v_hat[ins], atol=1e-12)
    # sine tube: bounded by 2 C_V with C_V = max boost between V and e_t
    p = sine_tube(2.0, 0.5, 1.0)
    st2 = radial_state(lambda r: math.pi / 2 + 0.05 * (1 - (r / 2.5) ** 2) ** 2, 2.5, 101)
    g2 = geometry(st2, p)
    dfmax = float(np.abs(p.df(st2.u)).max())
    c_v = 1.0 / math.sqrt(1.0 - dfmax * dfmax)
    assert np.all(g2.v_hat <= 2.0 * c_v * g2.v + 1e-12)
    assert np.all(g2.v <= 2.0 * c_v * g2.v_hat + 1e-12)


# -- intrinsic laplacian -------------------------------------------------------


def test_laplace_beltrami_flat_plane_quadratic():
    # on a flat radial graph, Delta(R - rho^2) = -4 exactly (n = 2)
    st = radial_state(lambda r: 0.0 * r + 1.0, 2.0, 101)
    phi = 10.0 - st.coords() ** 2
    lap = laplace_beltrami(st, phi, geometry(st, cylinder(2.0)))
    np.testing.assert_allclose(lap[:-1], -4.0, atol=1e-9)


def test_laplace_beltrami_disk_quadratic():
    st = disk_state(lambda x, y: 0.0 * x, 64)
    dg = disk_grid(64, 1.0)
    phi = 10.0 - (dg.X**2 + dg.Y**2)
    lap = laplace_beltrami(st, phi, geometry(st, cylinder(1.0)))
    deep = dg.deep
    np.testing.assert_allclose(lap[deep], -4.0, atol=1e-9)


def test_laplace_beltrami_curve_matches_closed_form():
    # on the translator graph, Delta H = cosh x (sinh^2 + cosh^2) in the interior
    st = curve_state(lambda x: np.log(np.cosh(x)), -1.0, 1.0, 801)
    x = st.coords()
    H = np.cosh(x)
    lap = laplace_beltrami(st, H, geometry(st, trumpet()))
    exact = np.cosh(x) * (np.sinh(x) ** 2 + np.cosh(x) ** 2)
    err = np.abs(lap[5:-5] - exact[5:-5]).max()
    assert err < 5e-4


def compared_constants(names) -> list:
    """(module, line) of each comparison in the package against one of names."""
    package = os.path.dirname(os.path.abspath(maxsurf.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                items = (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                         else [operand])
                found += [(os.path.basename(path), node.lineno) for e in items
                          if isinstance(e, ast.Constant) and e.value in names]
    return found


def test_no_module_compares_grid_kind_names():
    # each module that keeps per-kind numerics looks the kind up in its one
    # table (geometry, flow, monitors, _kernels); none branches on a kind's name
    assert compared_constants({"curve1d", "radial2d", "disk2d"}) == []


def test_no_module_compares_scenario_selector_or_end_names():
    # a scenario is an entry of scenarios._SCENARIOS and its selectors are keys
    # of that entry; flow's line kinds read the high end on reversed arrays
    assert compared_constants(set(SCENARIOS)) == []
    selectors = {name for spec in _SCENARIOS.values() for name in spec.initials}
    assert [f for f in compared_constants(selectors) if f[0] == "scenarios.py"] == []
    assert [f for f in compared_constants({"lo", "hi"}) if f[0] == "flow.py"] == []
