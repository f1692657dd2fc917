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

from .analytic import radial_graph_mean_curvature

__all__ = [
    "RotationalProfile",
    "PlanarBoundary",
    "BoundaryCurvature",
    "CmcLeaf",
    "ProfileError",
    "profile_curvature",
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
CONDITION_TOL = 1e-12   # the curvature criterion's largest value that counts as <= 0


class ProfileError(ValueError):
    """Profile invariant violated (f <= 0, |f'| >= 1, or |s'| <= 1)."""


@dataclass(frozen=True)
class RotationalProfile:
    """Rotational tube via radius f(z) with analytic f', f'' and f'''.

    ``kind``/``params`` identify built-ins so the fast stepping kernels can
    evaluate f inline; user profiles get kind="custom".
    """

    f: Callable
    df: Callable
    d2f: Callable
    d3f: Callable            # read by the v identity's residual (see monitors)
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
    """Symmetric planar boundary branches y = s(|x|), x > 0, with |s'| > 1.

    ``V`` is the boundary's timelike field x -> (V_x, V_t) off the boundary,
    which the gradient function v = -<nu, V> reads, and ``V_derivs`` its x
    derivatives (x, V(x)) -> ((dV_x, dV_t), (d2V_x, d2V_t)), which the
    evolution of v reads (see monitors); it is handed the V already taken at
    x, so that derivatives read off V's values (the trumpet's) cost nothing.
    """

    s: Callable
    ds: Callable
    d2s: Callable
    domain: tuple[float, float]
    V: Callable
    V_derivs: Callable
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


def check_condition_curvature(p, z_lo: float, z_hi: float, samples: int) -> ConditionReport:
    """Sample the curvature criterion on [z_lo, z_hi]; ok iff max <= CONDITION_TOL.

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
    return ConditionReport(ok=bool(worst <= CONDITION_TOL), worst_z=worst_z, worst_value=worst)


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

    Assembled through the graph formula (analytic.radial_graph_mean_curvature)
    from the analytic leaf derivatives, so it doubles as an exactness check
    of the closed forms.
    """
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return radial_graph_mean_curvature(rho, leaf_time_slope(p, rho, z),
                                           leaf_time_slope2(p, rho, z))


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


def cylinder(radius: float = 1.0) -> RotationalProfile:
    r = float(radius)
    if r <= 0:
        raise ProfileError("cylinder radius must be positive")
    return RotationalProfile(
        f=lambda z: np.full_like(np.asarray(z, dtype=float), r) if np.ndim(z) else r,
        df=lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
        d2f=lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
        d3f=lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
        domain=(-5.0, 5.0),
        kind="cylinder",
        params=(r,),
    )


def pseudosphere(A: float = 1.0, B: float = 0.0) -> RotationalProfile:
    """f = sqrt(A^2 + (z+B)^2): the equality case of the curvature criterion."""
    A, B = float(A), float(B)
    if A <= 0:
        raise ProfileError("pseudosphere A must be positive")
    f = lambda z: np.sqrt(A * A + (np.asarray(z, dtype=float) + B) ** 2)
    return RotationalProfile(
        f=f,
        df=lambda z: (np.asarray(z, dtype=float) + B) / f(z),
        d2f=lambda z: A * A / f(z) ** 3,
        d3f=lambda z: -3.0 * A * A * (np.asarray(z, dtype=float) + B) / f(z) ** 5,
        domain=(-3.0, 3.0),
        kind="pseudosphere",
        params=(A, B),
    )


def sine_tube(a: float = 2.0, b: float = 0.5, omega: float = 1.0) -> RotationalProfile:
    """f = a + b sin(omega z); admissible for a sufficiently dominant a."""
    a, b, omega = float(a), float(b), float(omega)
    if a - abs(b) <= 0:
        raise ProfileError("sine_tube needs a > |b|")
    if abs(b * omega) >= 1:
        raise ProfileError("sine_tube needs |b*omega| < 1 (timelike tube)")
    return RotationalProfile(
        f=lambda z: a + b * np.sin(omega * np.asarray(z, dtype=float)),
        df=lambda z: b * omega * np.cos(omega * np.asarray(z, dtype=float)),
        d2f=lambda z: -b * omega * omega * np.sin(omega * np.asarray(z, dtype=float)),
        d3f=lambda z: -b * omega**3 * np.cos(omega * np.asarray(z, dtype=float)),
        domain=(0.0, 2.0 * math.pi / omega),
        kind="sine_tube",
        params=(a, b, omega),
    )


# e^a by the reduction a = k ln 2 + r, |r| <= ln(2)/2, with Cody and Waite's
# two-part ln 2 (k ln2_hi is exact) and the Taylor polynomial of e^r - 1 to
# degree 13 (remainder below 0.05 ulp) in Estrin's scheme; _step.c's
# exp_parts does the same operations on each number
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42feep-1"), float.fromhex("0x1.a39ef35793c76p-33")
_INV_LN2, _ROUND_SHIFT = float.fromhex("0x1.71547652b82fep+0"), float.fromhex("0x1.8p52")
_C = {k: 1 / math.factorial(k) for k in range(2, 14)}


def _exp_parts(a):
    """(e^a, e^a - 1) for 0 <= a < 709 from adds and multiplies alone: k =
    round(a / ln 2) by adding and subtracting 1.5 2^52, in whose low bits k
    sits, so that 2^k is the bits (k + 1023) << 52; within an ulp of libm's
    exp on the trumpet's domain."""
    a = np.asarray(a, dtype=float)
    t = a * _INV_LN2 + _ROUND_SHIFT
    k = t - _ROUND_SHIFT
    r = (a - k * _LN2_HI) - k * _LN2_LO
    r2 = r * r
    r4 = r2 * r2
    c = _C
    q = ((c[2] + c[3] * r) + (c[4] + c[5] * r) * r2
         + ((c[6] + c[7] * r) + (c[8] + c[9] * r) * r2) * r4
         + ((c[10] + c[11] * r) + (c[12] + c[13] * r) * r2) * (r4 * r4))
    p = r + r2 * q
    scale = ((t.view(np.uint64) + np.uint64(1023)) << np.uint64(52)).view(np.float64)
    sp = scale * p
    return sp + scale, sp + (scale - 1.0)


def _trumpet_V(x, lo: float, hi: float):
    """The trumpet's V field (sgn(x) sinh a, cosh a), a = |x| clamped to the
    domain [lo, hi]: sinh a = (e1 + e1/e)/2 and cosh a = (e + 1/e)/2 from
    (e, e1) = _exp_parts(a), neither cancelling; _step.c's trumpet_V."""
    x = np.asarray(x, dtype=float)
    e, em1 = _exp_parts(np.minimum(np.maximum(np.abs(x), lo), hi))
    ie = 1.0 / e
    return np.copysign(0.5 * (em1 + em1 * ie), x), 0.5 * (e + ie)


def _libm_on_numbers(number: Callable, array: Callable) -> Callable:
    """f through math on a number, so libm's as _step.c calls it, and through
    numpy on an array, whose loops may differ from libm's in the last bit.
    Where math raises (log 0, 1/tanh 0, sinh beyond 710) the number takes
    numpy's IEEE value, an inf or a NaN, as libm returns it."""
    def f(x):
        if not isinstance(x, (float, int, np.number)):
            return array(np.asarray(x, dtype=float))
        try:
            return number(float(x))
        except (ValueError, ZeroDivisionError, OverflowError):
            with np.errstate(all="ignore"):
                return float(array(np.float64(x)))
    return f


def _trumpet_V_derivs(x, V):
    """(dV, d2V) = ((V_t, V_x), V): sinh and cosh are each other's derivative,
    so V's values at x give them, and x itself is not read."""
    Vx, Vt = V
    return (Vt, Vx), (Vx, Vt)


def trumpet(domain=(1e-8, 12.0)) -> PlanarBoundary:
    """s = log sinh x: the boundary perpendicular to the translating solution.

    Its V field is (sgn(x) sinh|x|, cosh x), with |x| clamped to the domain;
    its derivatives are read off the same values.
    """
    lo, hi = (float(d) for d in domain)
    if not 0.0 < lo < hi < 709.0:
        raise ProfileError(f"the trumpet's domain must satisfy 0 < lo < hi < 709, got {domain}")
    return PlanarBoundary(
        s=_libm_on_numbers(lambda x: math.log(math.sinh(x)), lambda x: np.log(np.sinh(x))),
        ds=_libm_on_numbers(lambda x: 1.0 / math.tanh(x), lambda x: 1.0 / np.tanh(x)),
        d2s=_libm_on_numbers(lambda x: -1.0 / math.sinh(x) ** 2,
                             lambda x: -1.0 / np.sinh(x) ** 2),
        domain=(lo, hi),
        kind="trumpet",
        params=(),
        V=lambda x: _trumpet_V(x, lo, hi),
        V_derivs=_trumpet_V_derivs,
    )


# each built-in and the most numeric parameters its spec may give
_BUILTINS = {
    "cylinder": (cylinder, 1),
    "pseudosphere": (pseudosphere, 2),
    "sine_tube": (sine_tube, 3),
    "trumpet": (trumpet, 0),
}


def profile_from_spec(text: str):
    """Parse a profile spec like ``pseudosphere(1, 0)`` or ``cylinder``.

    ProfileError for an unknown name, more parameters than the profile takes,
    a parameter that is not a finite number, or parameters it rejects.
    """
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise ProfileError(f"malformed profile spec {text!r}")
        tokens = [tok.strip() for tok in rest[:-1].split(",") if tok.strip()]
    else:
        name, tokens = text, []
    name = name.strip()
    if name not in _BUILTINS:
        raise ProfileError(
            f"unknown profile {name!r} (built-ins: {', '.join(sorted(_BUILTINS))})"
        )
    build, most = _BUILTINS[name]
    if len(tokens) > most:
        raise ProfileError(f"too many parameters in {text!r}: {name} takes at most {most}")
    args = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ProfileError(f"profile parameter {tok!r} in {text!r} is not a finite number")
        args.append(value)
    return build(*args)
