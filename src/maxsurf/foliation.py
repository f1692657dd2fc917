"""Compatible spacelike foliations: the flat chart and the rotational
CMC-leaf chart.

A chart is an evaluable map F(x, lam) from a fixed spatial domain times the
leaf parameter into Minkowski space, with leaves orthogonal to the
lam-direction, the boundary rays lying on the tube, and lapse
psi = sqrt(-|dF/dlam|^2) bounded below.  The associated unit normal field is
V_hat = psi^-1 dF/dlam and the time function tau inverts the leaf family
along spatial rays.

The rotational chart uses the constant-mean-curvature leaves
t(rho, z) = z - (f/f')(1 - sqrt(1 - q)), q = f'^2 (1 - rho^2/f^2): the
lam-curves follow the leaf normals (a scalar ODE per spatial ray, integrated
on demand), the lapse has the closed form dz t-leaf / sqrt(1 - t_rho^2),
and the boundary rays stay on the tube because the leaves meet it
perpendicularly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .lorentz import minkowski_inner
from .profiles import (
    PlanarBoundary,
    RotationalProfile,
    leaf_time,
    leaf_time_anchor_rate,
    leaf_time_slope,
    planar_boundary_data,
    profile_curvature,
)


class ChartError(ValueError):
    """Point outside the chart image, degenerate lapse, or non-spacelike leaf."""


@dataclass
class ChartCompatibilityReport:
    orthogonality_max: float
    lapse_min: float
    boundary_alignment_max: float
    V_hat_pairing: dict          # {"min": ..., "max": ...}
    max_leaf_volume: float
    boundary_incidence_max: float


class FlatChart:
    """F(x, lam) = (x, lam): psi = 1, ghat = delta, V_hat = e_t.

    ``extent`` is the half-width of the interval (one spatial dimension) or
    the disk radius (two); only the sampling windows depend on it.
    """

    name = "flat"

    def __init__(self, space_dim: int = 2, extent: float = 1.0):
        if space_dim not in (1, 2):
            raise ChartError("flat charts support 1 or 2 spatial dimensions")
        self.space_dim = space_dim
        self.extent = float(extent)

    def map(self, x, lam: float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.concatenate([x, [float(lam)]])

    def lapse(self, x, lam: float) -> float:
        return 1.0

    def dmap_dlam(self, x, lam: float) -> np.ndarray:
        out = np.zeros(self.space_dim + 1)
        out[-1] = 1.0
        return out

    def dmap_dx(self, x, lam: float) -> list:
        outs = []
        for i in range(self.space_dim):
            e = np.zeros(self.space_dim + 1)
            e[i] = 1.0
            outs.append(e)
        return outs

    def leaf_metric(self, x, lam: float) -> np.ndarray:
        return np.eye(self.space_dim)

    def hat_v(self, x, lam: float) -> np.ndarray:
        return self.dmap_dlam(x, lam)

    def leaf_volume(self, lam: float) -> float:
        if self.space_dim == 1:
            return 2.0 * self.extent
        return math.pi * self.extent**2

    def time_function(self, y) -> float:
        y = np.asarray(y, dtype=float)
        if y.size != self.space_dim + 1:
            raise ChartError("point dimension does not match the chart")
        r = abs(float(y[0])) if self.space_dim == 1 else float(np.hypot(y[0], y[1]))
        if r > self.extent * (1.0 + 1e-9):
            raise ChartError("point outside the chart image")
        return float(y[-1])


class RotationalCmcChart:
    """Orthogonal chart built on the CMC leaves of a rotational tube.

    The spatial domain is the unit disk; the ray labelled r in [0, 1] starts
    at radius r f(anchor) on the anchor leaf and follows leaf normals.
    """

    name = "rotational_cmc"

    def __init__(self, profile: RotationalProfile, window: Optional[tuple] = None,
                 anchor: Optional[float] = None, lapse_floor: float = 1e-8):
        if not isinstance(profile, RotationalProfile):
            raise ChartError("the CMC-leaf chart needs a rotational profile")
        self.profile = profile
        self.window = tuple(window) if window else tuple(profile.domain)
        self.anchor = float(anchor) if anchor is not None else 0.5 * sum(self.window)
        self.lapse_floor = float(lapse_floor)
        self.space_dim = 2
        self._rays: dict = {}

    # -- leaf family ------------------------------------------------------

    def _t_rho(self, rho: float, lam: float) -> float:
        return float(leaf_time_slope(self.profile, rho, lam))

    def _ray(self, r: float):
        """Dense solution rho(lam) of the normal-flow ODE for ray label r."""
        key = round(float(r), 12)
        if key in self._rays:
            return self._rays[key]
        p = self.profile
        rho0 = key * float(p.f(self.anchor))

        def rhs(lam, rho):
            tr = float(leaf_time_slope(p, max(rho[0], 0.0), lam))
            rate = float(leaf_time_anchor_rate(p, max(rho[0], 0.0), lam))
            return [tr * rate / (1.0 - tr * tr)]

        sols = []
        for a, b in ((self.anchor, self.window[1]), (self.anchor, self.window[0])):
            if a == b:
                sols.append(None)
                continue
            sols.append(solve_ivp(rhs, (a, b), [rho0], dense_output=True,
                                  rtol=1e-11, atol=1e-13, max_step=abs(b - a) / 8))
        self._rays[key] = sols
        return sols

    def _rho(self, r: float, lam: float) -> float:
        if not self.window[0] <= lam <= self.window[1]:
            raise ChartError(f"leaf parameter {lam} outside the chart window")
        if r == 0.0:
            return 0.0
        up, down = self._ray(r)
        sol = up if lam >= self.anchor else down
        if sol is None or not sol.success:
            raise ChartError(f"normal-flow integration failed for ray {r}")
        return float(sol.sol(lam)[0])

    # -- chart surface ------------------------------------------------------

    def map(self, x, lam: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = float(np.hypot(x[0], x[1]))
        if r > 1.0 + 1e-12:
            raise ChartError("chart domain is the unit disk")
        rho = self._rho(r, lam)
        t = float(leaf_time(self.profile, rho, lam))
        if r == 0.0:
            return np.array([0.0, 0.0, t])
        return np.array([rho * x[0] / r, rho * x[1] / r, t])

    def lapse(self, x, lam: float) -> float:
        x = np.asarray(x, dtype=float)
        rho = self._rho(float(np.hypot(x[0], x[1])), lam)
        tr = self._t_rho(rho, lam)
        m = 1.0 - tr * tr
        if m <= 0:
            raise ChartError("sampled leaf is not spacelike")
        psi = float(leaf_time_anchor_rate(self.profile, rho, lam)) / math.sqrt(m)
        return psi

    def dmap_dlam(self, x, lam: float) -> np.ndarray:
        psi = self.lapse(x, lam)
        return psi * self.hat_v(x, lam)

    def hat_v(self, x, lam: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = float(np.hypot(x[0], x[1]))
        rho = self._rho(r, lam)
        tr = self._t_rho(rho, lam)
        m = 1.0 - tr * tr
        if m <= 0:
            raise ChartError("sampled leaf is not spacelike")
        w = math.sqrt(m)
        if r == 0.0:
            return np.array([0.0, 0.0, 1.0])
        xh = x / r
        return np.array([tr * xh[0] / w, tr * xh[1] / w, 1.0 / w])

    def _drho_dr(self, r: float, lam: float, delta: float = 1e-5) -> float:
        r_hi = min(r + delta, 1.0)
        r_lo = max(r - delta, 0.0)
        return (self._rho(r_hi, lam) - self._rho(r_lo, lam)) / (r_hi - r_lo)

    def dmap_dx(self, x, lam: float) -> list:
        """Leaf-tangent coordinate vectors (radial and angular legs)."""
        x = np.asarray(x, dtype=float)
        r = float(np.hypot(x[0], x[1]))
        if r == 0.0:
            dr = self._drho_dr(0.0, lam)
            return [np.array([dr, 0.0, 0.0]), np.array([0.0, dr, 0.0])]
        rho = self._rho(r, lam)
        tr = self._t_rho(rho, lam)
        dr = self._drho_dr(r, lam)
        xh = x / r
        radial = np.array([dr * xh[0], dr * xh[1], dr * tr])
        angular = np.array([-rho * xh[1] / r, rho * xh[0] / r, 0.0])
        return [radial, angular]

    def leaf_metric(self, x, lam: float) -> np.ndarray:
        """Induced metric in polar chart coordinates diag(g_rr, g_thth)."""
        x = np.asarray(x, dtype=float)
        r = float(np.hypot(x[0], x[1]))
        rho = self._rho(r, lam)
        tr = self._t_rho(rho, lam)
        m = 1.0 - tr * tr
        if m <= 0:
            raise ChartError("sampled leaf is not spacelike")
        dr = self._drho_dr(r, lam)
        return np.diag([dr * dr * m, rho * rho])

    def leaf_volume(self, lam: float, n_quad: int = 400) -> float:
        rb = float(self.profile.f(lam))
        rho = np.linspace(0.0, rb, n_quad)
        tr = np.asarray(leaf_time_slope(self.profile, rho, lam))
        return float(np.trapezoid(2.0 * np.pi * rho * np.sqrt(1.0 - tr * tr), rho))

    def time_function(self, y) -> float:
        y = np.asarray(y, dtype=float)
        rho_y = float(np.hypot(y[0], y[1]))
        lo, hi = self.window

        def g(lam):
            return float(leaf_time(self.profile, rho_y, lam)) - float(y[2])

        glo, ghi = g(lo), g(hi)
        if glo * ghi > 0:
            raise ChartError("point outside the chart image (no bracketing leaf)")
        lam = float(brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16))
        if rho_y > float(self.profile.f(lam)) * (1.0 + 1e-9):
            raise ChartError("point outside the tube interior")
        return lam


def hat_v_field(chart, x, lam: float) -> np.ndarray:
    """Unit future-directed normal V_hat = psi^-1 dF/dlam of the chart."""
    psi = chart.lapse(x, lam)
    if psi < getattr(chart, "lapse_floor", 1e-8):
        raise ChartError(f"lapse {psi} below the uniform bound")
    vh = chart.hat_v(x, lam)
    return vh


def _sigma_slice_point(profile, lam: float):
    """A boundary point at time-slice lam, with its frame data."""
    if isinstance(profile, RotationalProfile):
        fz = float(profile.f(lam))
        point = np.array([fz, 0.0, lam])
        bc = profile_curvature(profile, lam)
        return point, bc
    # planar: x with s(x) = lam on the right branch
    lo, hi = profile.domain

    def g(xx):
        return float(profile.s(xx)) - lam

    if g(lo) * g(hi) > 0:
        raise ChartError(f"no boundary point at slice {lam}")
    xs = float(brentq(g, lo, hi, xtol=1e-13))
    bc = planar_boundary_data(profile, xs)
    return np.array([xs, lam]), bc


def check_compatibility(chart, profile, samples: int = 200,
                        seed: int = 0) -> ChartCompatibilityReport:
    """Sample the defining properties of a compatible foliation.

    Entries are witнesses (the caller owns ok-thresholds): max orthogonality
    defect of the provided tangents, min lapse, max angle defect of the
    chart's outward boundary direction against mu, the range of the pairing
    -<V, V_hat> sampled on the tube, and the largest sampled leaf volume.
    """
    rng = np.random.default_rng(seed)
    if isinstance(profile, RotationalProfile):
        lo, hi = profile.domain
    else:
        lo = float(profile.s(profile.domain[0] + 1e-9))
        hi = float(profile.s(profile.domain[1]))
    if isinstance(chart, RotationalCmcChart):
        lo, hi = chart.window
    ortho = 0.0
    lapse_min = math.inf
    vol_max = 0.0
    for _ in range(samples):
        lam = float(rng.uniform(lo, hi))
        if getattr(chart, "space_dim", 2) == 1:
            x = np.array([rng.uniform(-chart.extent, chart.extent)])
        else:
            ang = rng.uniform(0, 2 * math.pi)
            rad = math.sqrt(rng.uniform(0, 1.0))
            scale = chart.extent if isinstance(chart, FlatChart) else 1.0
            x = scale * rad * np.array([math.cos(ang), math.sin(ang)])
        dlam = chart.dmap_dlam(x, lam)
        sq = float(minkowski_inner(dlam, dlam))
        if sq >= 0:
            raise ChartError("lam-direction is not timelike at a sample")
        psi = chart.lapse(x, lam)
        lapse_min = min(lapse_min, psi)
        for tang in chart.dmap_dx(x, lam):
            ortho = max(ortho, abs(float(minkowski_inner(dlam, tang))))
            gsq = float(minkowski_inner(tang, tang))
            if gsq <= 0 and float(np.dot(tang, tang)) > 1e-20:
                raise ChartError("sampled leaf is not spacelike")
        vol_max = max(vol_max, chart.leaf_volume(lam))
    # boundary alignment and V pairing along the tube
    align = 0.0
    incid = 0.0
    pair_lo, pair_hi = math.inf, -math.inf
    for lam in np.linspace(lo + 1e-9, hi - 1e-9, max(16, samples // 8)):
        point, bc = _sigma_slice_point(profile, float(lam))
        V = bc.V
        if isinstance(chart, FlatChart):
            vhat = np.zeros(chart.space_dim + 1)
            vhat[-1] = 1.0
            if chart.space_dim == 1:
                direction = np.zeros(2)
                direction[0] = 1.0
            else:
                direction = np.array([1.0, 0.0, 0.0])
            chart_bpoint = None
        else:
            xb = np.array([1.0, 0.0])
            chart_bpoint = chart.map(xb, float(lam))
            incid = max(incid, abs(float(np.hypot(chart_bpoint[0], chart_bpoint[1]))
                                   - float(profile.f(chart_bpoint[2]))))
            vhat = chart.hat_v(xb, float(lam))
            tang = chart.dmap_dx(xb, float(lam))[0]
            gsq = float(minkowski_inner(tang, tang))
            direction = tang / math.sqrt(gsq) if gsq > 0 else tang
        mu = bc.mu
        align = max(align, float(np.linalg.norm(direction - mu)))
        pairing = -float(minkowski_inner(V, vhat))
        pair_lo = min(pair_lo, pairing)
        pair_hi = max(pair_hi, pairing)
    return ChartCompatibilityReport(
        orthogonality_max=ortho,
        lapse_min=float(lapse_min),
        boundary_alignment_max=align,
        V_hat_pairing={"min": pair_lo, "max": pair_hi},
        max_leaf_volume=vol_max,
        boundary_incidence_max=incid,
    )
