"""Boundary manifolds: rotational tubes in R^3_1 and planar boundary curves in R^2_1.

A rotational tube is the surface of revolution x_spatial = f(z)*rhat,
x_time = z for a radius function f with f > 0 and |f'| < 1 (timelike tube).
Its second fundamental form diagonalizes in the timelike direction
V = (f' rhat + e3)/sqrt(1-f'^2) and the angular direction W = theta_hat, with

    A(V,V) = -f'' / (1-f'^2)^(3/2),      A(W,W) = 1 / (f sqrt(1-f'^2)),

and the outward spacelike normal mu = (rhat + f' e3)/sqrt(1-f'^2).  The
curvature admissibility criterion A(W,W) + A(V,V) >= 0 is equivalent to

    f''/(1-f'^2) - 1/f <= 0,

with the pseudo-sphere f = sqrt(A^2 + (z+B)^2) as the equality case.

Planar boundaries are the two symmetric branches y = s(|x|) of a curve in
R^2_1 with |s'| > 1 (timelike branches); the trumpet s = log sinh x is the
singular example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lorentz import minkowski_inner

__all__ = [
    "RotationalProfile",
    "PlanarBoundary",
    "BoundaryCurvature",
    "CmcLeaf",
    "ProfileError",
    "profile_curvature",
    "rim_curvature",
    "normal_curvature",
    "planar_boundary_data",
    "check_condition_curvature",
    "cmc_leaf_through",
    "foliation_monotonicity",
    "leaf_time",
    "leaf_time_slope",
    "leaf_time_anchor_rate",
    "cylinder",
    "pseudosphere",
    "sine_tube",
    "trumpet",
    "profile_from_spec",
]

PLANE_LEAF_TOL = 1e-10


class ProfileError(ValueError):
    """Profile invariant violated (f <= 0, |f'| >= 1, or |s'| <= 1)."""


@dataclass(frozen=True)
class RotationalProfile:
    """Rotational tube via radius f(z) with analytic f' and f''.

    ``kind``/``params`` identify built-ins so the fast stepping kernels can
    evaluate f inline; user profiles get kind="custom".
    """

    f: Callable
    df: Callable
    d2f: Callable
    domain: tuple[float, float]
    kind: str = "custom"
    params: tuple = ()

    boundary_type = "rotational"

    def validate_at(self, z: float) -> None:
        fz, dfz = float(self.f(z)), float(self.df(z))
        if not fz > 0.0:
            raise ProfileError(f"f(z) = {fz} <= 0 at z = {z}")
        if not abs(dfz) < 1.0:
            raise ProfileError(f"|f'(z)| = {abs(dfz)} >= 1 at z = {z} (tube not timelike)")


@dataclass(frozen=True)
class PlanarBoundary:
    """Symmetric planar boundary branches y = s(|x|), x > 0, with |s'| > 1."""

    s: Callable
    ds: Callable
    d2s: Callable
    domain: tuple[float, float]
    kind: str = "custom"
    params: tuple = ()

    boundary_type = "planar"

    def validate_at(self, x: float) -> None:
        x = abs(float(x))
        dsx = float(self.ds(x))
        if not abs(dsx) > 1.0:
            raise ProfileError(f"|s'(x)| = {abs(dsx)} <= 1 at x = {x} (boundary not timelike)")


@dataclass(frozen=True)
class BoundaryCurvature:
    """Eigen-data of the boundary's second fundamental form at one point.

    mu is the outward spacelike unit normal, V the timelike unit eigenvector,
    W the remaining spacelike eigenvectors (empty for planar boundaries),
    A_VV / A_WW the paired eigenvalues.
    """

    mu: np.ndarray
    V: np.ndarray
    W: list = field(default_factory=list)
    A_VV: float = 0.0
    A_WW: list = field(default_factory=list)


@dataclass(frozen=True)
class CmcLeaf:
    """One leaf of the constant-mean-curvature foliation inside a tube.

    HyperbolicPlane leaves satisfy <P - J e3, P - J e3> = -R^2 and meet the
    tube perpendicularly at the anchor height; at an anchor with f' = 0 the
    leaf degenerates to the plane t = z_anchor.
    """

    kind: str            # "hyperbolic_plane" | "plane"
    R: float | None
    J: float | None
    z_anchor: float
    sign: int = 1        # +1 opens upward (f' > 0), -1 downward

    def height(self, rho):
        """Leaf graph t(rho)."""
        if self.kind == "plane":
            return np.full_like(np.asarray(rho, dtype=float), self.z_anchor)
        return self.J + self.sign * np.sqrt(self.R**2 + np.asarray(rho, dtype=float) ** 2)


def profile_curvature(p: RotationalProfile, z: float) -> BoundaryCurvature:
    """Normal, principal directions and curvature eigenvalues of the tube at height z."""
    p.validate_at(z)
    fz, dfz, d2fz = float(p.f(z)), float(p.df(z)), float(p.d2f(z))
    w = math.sqrt(1.0 - dfz * dfz)
    # azimuth theta = 0: rhat = e1, theta_hat = e2
    mu = np.array([1.0, 0.0, dfz]) / w
    V = np.array([dfz, 0.0, 1.0]) / w
    W = np.array([0.0, 1.0, 0.0])
    a_vv = -d2fz / w**3
    a_ww = 1.0 / (fz * w)
    return BoundaryCurvature(mu=mu, V=V, W=[W], A_VV=a_vv, A_WW=[a_ww])


def rim_curvature(p: RotationalProfile, z):
    """(1/sqrt(1-f'^2), A(V,V), A(W,W)) of the tube at heights z, vectorized."""
    fz = np.asarray(p.f(z), dtype=float)
    dfz = np.asarray(p.df(z), dtype=float)
    d2fz = np.asarray(p.d2f(z), dtype=float)
    w = np.sqrt(1.0 - dfz**2)
    return 1.0 / w, -d2fz / w**3, 1.0 / (fz * w)


def normal_curvature(v, a_vv, a_ww):
    """A^Sig(nu,nu) = v^2 A(V,V) + (v^2 - 1) A(W,W) for a normal nu with v = -<nu, V>."""
    return v * v * a_vv + (v * v - 1.0) * a_ww


def planar_boundary_data(b: PlanarBoundary, x: float) -> BoundaryCurvature:
    """Outward normal mu, future timelike tangent V and A(V,V) of a planar branch.

    x may be signed; the branch at x < 0 carries the mirrored orientation so
    that V is smooth across the throat for the trumpet.
    """
    b.validate_at(x)
    ax = abs(float(x))
    sgn = -1.0 if x < 0 else 1.0
    dsx, d2sx = float(b.ds(ax)), float(b.d2s(ax))
    w = math.sqrt(dsx * dsx - 1.0)
    mu = np.array([sgn * dsx, 1.0]) / w
    V = np.array([sgn, dsx]) / w
    a_vv = d2sx / w**3
    return BoundaryCurvature(mu=mu, V=V, W=[], A_VV=a_vv, A_WW=[])


def condition_expression(p, z: float) -> float:
    """Left side of the curvature admissibility criterion (<= 0 means admissible).

    Rotational: f''/(1-f'^2) - 1/f.  Planar: -A(V,V) (no spacelike eigenvectors,
    the criterion degenerates to A(V,V) >= 0).
    """
    if p.boundary_type == "rotational":
        p.validate_at(z)
        fz, dfz, d2fz = float(p.f(z)), float(p.df(z)), float(p.d2f(z))
        return d2fz / (1.0 - dfz * dfz) - 1.0 / fz
    return -planar_boundary_data(p, z).A_VV


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    worst_z: float
    worst_value: float


def check_condition_curvature(
    p, z_lo: float, z_hi: float, samples: int = 1001, tol: float = 1e-12
) -> ConditionReport:
    """Sample the curvature criterion on [z_lo, z_hi]; ok iff max <= tol.

    For rotational profiles the direct expression f''/(1-f'^2) - 1/f is
    cross-checked for sign agreement against -(A_VV + min A_WW) computed
    through the independent eigenvalue route.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    zs = np.linspace(z_lo, z_hi, samples)
    worst_z, worst = z_lo, -math.inf
    for z in zs:
        expr = condition_expression(p, float(z))
        if p.boundary_type == "rotational":
            bc = profile_curvature(p, float(z))
            other = -(bc.A_VV + min(bc.A_WW))
            if abs(expr) > 1e-9 and np.sign(expr) != np.sign(other):
                raise AssertionError(
                    f"condition oracle disagreement at z={z}: {expr} vs {other}"
                )
        if expr > worst:
            worst, worst_z = expr, float(z)
    return ConditionReport(ok=bool(worst <= tol), worst_z=worst_z, worst_value=worst)


def cmc_leaf_through(p: RotationalProfile, z: float) -> CmcLeaf:
    """CMC leaf meeting the tube perpendicularly at height z.

    R = (f/f') sqrt(1-f'^2) and J = z - f/f', sign-normalized so R > 0; a
    vanishing f' gives the degenerate plane leaf t = z.
    """
    p.validate_at(z)
    fz, dfz = float(p.f(z)), float(p.df(z))
    if abs(dfz) < PLANE_LEAF_TOL:
        return CmcLeaf(kind="plane", R=None, J=None, z_anchor=z)
    R = (fz / dfz) * math.sqrt(1.0 - dfz * dfz)
    J = z - fz / dfz
    sign = 1 if dfz > 0 else -1
    return CmcLeaf(kind="hyperbolic_plane", R=abs(R), J=J, z_anchor=z, sign=sign)


def foliation_monotonicity(p: RotationalProfile, z: float) -> float:
    """g'(z) of the leaf axis height; positive certifies non-crossing leaves.

    Closed form sqrt(1-f'^2) * [1 - f'' f / ((1+sqrt(1-f'^2))(1-f'^2))].
    """
    p.validate_at(z)
    fz, dfz, d2fz = float(p.f(z)), float(p.df(z)), float(p.d2f(z))
    w2 = 1.0 - dfz * dfz
    w = math.sqrt(w2)
    return w * (1.0 - d2fz * fz / ((1.0 + w) * w2))


# -- leaf family as a graph over (rho, anchor), in the cancellation-free form
#    t(rho, z) = z - (f/f') (1 - sqrt(1 - q)),  q = f'^2 (1 - rho^2/f^2),
#    which is smooth through f' = 0 and equals J + sign(f') sqrt(R^2+rho^2).

_SMALL_DF = 1e-7


def leaf_time(p: RotationalProfile, rho, z: float):
    """Height t of the leaf anchored at z, at cylinder radius rho."""
    fz, dfz = float(p.f(z)), float(p.df(z))
    rho = np.asarray(rho, dtype=float)
    c = 1.0 - rho**2 / fz**2
    if abs(dfz) < _SMALL_DF:
        return z - 0.5 * fz * dfz * c * (1.0 + 0.25 * dfz * dfz * c)
    q = dfz * dfz * c
    return z - (fz / dfz) * (1.0 - np.sqrt(1.0 - q))


def leaf_time_slope(p: RotationalProfile, rho, z: float):
    """Radial slope t_rho = rho f' / (f sqrt(1-q)) of the leaf anchored at z."""
    fz, dfz = float(p.f(z)), float(p.df(z))
    rho = np.asarray(rho, dtype=float)
    q = dfz * dfz * (1.0 - rho**2 / fz**2)
    return rho * dfz / (fz * np.sqrt(1.0 - q))


def leaf_time_slope2(p: RotationalProfile, rho, z: float):
    """Second radial derivative t_rhorho of the leaf anchored at z."""
    fz, dfz = float(p.f(z)), float(p.df(z))
    rho = np.asarray(rho, dtype=float)
    q = dfz * dfz * (1.0 - rho**2 / fz**2)
    S = np.sqrt(1.0 - q)
    return (dfz / (fz * S)) * (1.0 - rho**2 * dfz**2 / (fz**2 * S**2))


def leaf_mean_curvature(p: RotationalProfile, rho, z: float):
    """Mean curvature of the leaf (n = 2 convention), |H| = 2/R identically.

    Assembled through the graph formulas from the analytic leaf derivatives,
    so it doubles as an exactness check of the closed forms.
    """
    rho = np.asarray(rho, dtype=float)
    tr = leaf_time_slope(p, rho, z)
    trr = leaf_time_slope2(p, rho, z)
    m = 1.0 - tr * tr
    with np.errstate(divide="ignore", invalid="ignore"):
        angular = np.where(rho > 0, tr / np.maximum(rho, 1e-300), trr) / np.sqrt(m)
    return trr / m**1.5 + angular


def leaf_time_anchor_rate(p: RotationalProfile, rho, z: float):
    """d t(rho, z) / dz at fixed rho; reduces to g'(z) on the axis."""
    fz, dfz, d2fz = float(p.f(z)), float(p.df(z)), float(p.d2f(z))
    rho = np.asarray(rho, dtype=float)
    c = 1.0 - rho**2 / fz**2
    if abs(dfz) < _SMALL_DF:
        return 1.0 - 0.5 * fz * d2fz * c + 0.0 * rho
    q = dfz * dfz * c
    S = np.sqrt(1.0 - q)
    P = fz / dfz
    dP = 1.0 - fz * d2fz / dfz**2
    dq = 2.0 * dfz * (d2fz * c + rho**2 * dfz**2 / fz**3)
    return 1.0 - dP * (1.0 - S) - P * dq / (2.0 * S)


# -- built-in profiles ---------------------------------------------------


def cylinder(radius: float = 1.0, domain=(-5.0, 5.0)) -> RotationalProfile:
    r = float(radius)
    if r <= 0:
        raise ProfileError("cylinder radius must be positive")
    return RotationalProfile(
        f=lambda z: np.full_like(np.asarray(z, dtype=float), r) if np.ndim(z) else r,
        df=lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
        d2f=lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
        domain=tuple(domain),
        kind="cylinder",
        params=(r,),
    )


def pseudosphere(A: float = 1.0, B: float = 0.0, domain=(-3.0, 3.0)) -> RotationalProfile:
    """f = sqrt(A^2 + (z+B)^2): the equality case of the curvature criterion."""
    A, B = float(A), float(B)
    if A <= 0:
        raise ProfileError("pseudosphere A must be positive")
    f = lambda z: np.sqrt(A * A + (np.asarray(z, dtype=float) + B) ** 2)
    return RotationalProfile(
        f=f,
        df=lambda z: (np.asarray(z, dtype=float) + B) / f(z),
        d2f=lambda z: A * A / f(z) ** 3,
        domain=tuple(domain),
        kind="pseudosphere",
        params=(A, B),
    )


def sine_tube(a: float = 2.0, b: float = 0.5, omega: float = 1.0, domain=None) -> RotationalProfile:
    """f = a + b sin(omega z); admissible for a sufficiently dominant a."""
    a, b, omega = float(a), float(b), float(omega)
    if a - abs(b) <= 0:
        raise ProfileError("sine_tube needs a > |b|")
    if abs(b * omega) >= 1:
        raise ProfileError("sine_tube needs |b*omega| < 1 (timelike tube)")
    if domain is None:
        domain = (0.0, 2.0 * math.pi / omega)
    return RotationalProfile(
        f=lambda z: a + b * np.sin(omega * np.asarray(z, dtype=float)),
        df=lambda z: b * omega * np.cos(omega * np.asarray(z, dtype=float)),
        d2f=lambda z: -b * omega * omega * np.sin(omega * np.asarray(z, dtype=float)),
        domain=tuple(domain),
        kind="sine_tube",
        params=(a, b, omega),
    )


def trumpet(domain=(1e-8, 12.0)) -> PlanarBoundary:
    """s = log sinh x: the boundary perpendicular to the translating solution."""
    return PlanarBoundary(
        s=lambda x: np.log(np.sinh(np.asarray(x, dtype=float))),
        ds=lambda x: 1.0 / np.tanh(np.asarray(x, dtype=float)),
        d2s=lambda x: -1.0 / np.sinh(np.asarray(x, dtype=float)) ** 2,
        domain=tuple(domain),
        kind="trumpet",
        params=(),
    )


_BUILTINS = {
    "cylinder": cylinder,
    "pseudosphere": pseudosphere,
    "sine_tube": sine_tube,
    "trumpet": trumpet,
}


def profile_from_spec(text: str):
    """Parse a profile spec like ``pseudosphere(1, 0)`` or ``cylinder``."""
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"malformed profile spec {text!r}")
        args_txt = rest[:-1].strip()
        args = [float(tok) for tok in args_txt.split(",") if tok.strip()] if args_txt else []
    else:
        name, args = text, []
    name = name.strip()
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown profile {name!r} (built-ins: {', '.join(sorted(_BUILTINS))})"
        )
    return _BUILTINS[name](*args)


def boundary_frame_orthonormal(bc: BoundaryCurvature, tol: float = 1e-12) -> bool:
    """True when <mu,mu>=1, <V,V>=-1 and mu,V,W are mutually orthogonal."""
    checks = [
        abs(minkowski_inner(bc.mu, bc.mu) - 1.0),
        abs(minkowski_inner(bc.V, bc.V) + 1.0),
        abs(minkowski_inner(bc.mu, bc.V)),
    ]
    for w in bc.W:
        checks += [abs(minkowski_inner(w, w) - 1.0), abs(minkowski_inner(bc.V, w))]
    return max(checks) <= tol
