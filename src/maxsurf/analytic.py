"""Closed-form reference solutions used as oracles and convergence targets.

Each bundle evaluates the graph height and enough derivatives to check the
discrete geometry against exact values. The translating solution
u = log cosh x + t, perpendicular to the trumpet y = log sinh |x|, is the
singular benchmark: its boundary position is x_b(t) = artanh(e^t) and the
maximum boost factor on the surface is cosh x_b = 1/sqrt(1 - e^{2t}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class AnalyticSolution:
    name: str
    u: Callable            # u(x, t)
    du: Callable           # spatial derivative u_x(x, t)
    d2u: Callable          # u_xx(x, t)
    static: bool = False


def grim_reaper() -> AnalyticSolution:
    return AnalyticSolution(
        name="grim_reaper",
        u=lambda x, t: np.log(np.cosh(x)) + t,
        du=lambda x, t: np.tanh(x),
        d2u=lambda x, t: 1.0 / np.cosh(x) ** 2,
    )


def grim_reaper_boundary(t: float) -> float:
    """Exact half-width x_b(t) = artanh(e^t) of the translating solution, t < 0.

    ValueError where the half-width is not a positive finite number: for
    t >= 0, and where e^t rounds to 1 (t > -5.6e-17) or to 0 (t < -745.1).
    """
    e = math.exp(t) if t < 0 else 1.0
    if not 0.0 < e < 1.0:
        raise ValueError("the translating solution's half-width artanh(e^t) is positive and "
                         f"finite only where 0 < e^t < 1, not at t = {t}")
    return math.atanh(e)


def plane(z0: float) -> AnalyticSolution:
    z0 = float(z0)
    return AnalyticSolution(
        name="plane",
        u=lambda x, t: np.full_like(np.asarray(x, dtype=float), z0),
        du=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        d2u=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        static=True,
    )


def hyperbolic_plane(R: float, J: float = 0.0, sign: int = 1) -> AnalyticSolution:
    """Static hyperboloid t = J + sign*sqrt(R^2 + rho^2); |H| = 2/R (n = 2)."""
    R, J, sign = float(R), float(J), int(sign)

    def u(rho, t):
        return J + sign * np.sqrt(R * R + np.asarray(rho, dtype=float) ** 2)

    def du(rho, t):
        rho = np.asarray(rho, dtype=float)
        return sign * rho / np.sqrt(R * R + rho**2)

    def d2u(rho, t):
        rho = np.asarray(rho, dtype=float)
        return sign * R * R / (R * R + rho**2) ** 1.5

    return AnalyticSolution(
        name="hyperbolic_plane",
        u=u,
        du=du,
        d2u=d2u,
        static=True,
    )


def radial_graph_mean_curvature(rho, u_r, u_rr):
    """Mean curvature (n = 2) of a rotationally symmetric graph t = u(rho)
    from its radial derivatives:

        H = u_rr / (1 - u_r^2)^(3/2) + (u_r / rho) / sqrt(1 - u_r^2),

    the second quotient's axis limit u_r / rho -> u_rr taken at rho = 0.
    """
    m = 1.0 - u_r * u_r
    angular = np.where(rho > 0, u_r / np.maximum(rho, 1e-300), u_rr) / np.sqrt(m)
    return u_rr / m**1.5 + angular

