import math

import numpy as np
import pytest

from maxsurf.lorentz import minkowski_inner
from maxsurf.profiles import (
    ProfileError,
    BoundaryCurvature,
    RotationalProfile,
    check_condition_curvature,
    cmc_leaf_through,
    condition_expression,
    cylinder,
    foliation_monotonicity,
    leaf_time,
    leaf_time_anchor_rate,
    leaf_time_slope,
    planar_boundary_data,
    profile_curvature,
    profile_from_spec,
    pseudosphere,
    sine_tube,
    trumpet,
)


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


def random_tube(rng):
    """Admissible f = a + b sin(w z + phi) with margins on f > 0 and |f'| < 1."""
    a = rng.uniform(1.5, 3.0)
    w = rng.uniform(0.3, 1.5)
    b = rng.uniform(0.0, min(0.6, 0.9 / w))
    phi = rng.uniform(0.0, 2 * np.pi)
    return RotationalProfile(
        f=lambda z: a + b * np.sin(w * np.asarray(z) + phi),
        df=lambda z: b * w * np.cos(w * np.asarray(z) + phi),
        d2f=lambda z: -b * w * w * np.sin(w * np.asarray(z) + phi),
        d3f=lambda z: -b * w**3 * np.cos(w * np.asarray(z) + phi),
        domain=(-5.0, 5.0),
    )


@pytest.mark.parametrize("profile", [cylinder(1.0), pseudosphere(1.0, 0.0), pseudosphere(0.5, 1 / 3),
                                     pseudosphere(2.0, -1.0), sine_tube(2.0, 0.5, 1.0),
                                     sine_tube(1.5, 0.4, 2.0)], ids=lambda p: f"{p.kind}{p.params}")
def test_builtin_d3f_is_the_derivative_of_d2f(profile):
    # a centred difference of f'' meets the closed-form f''' to its truncation
    # error: halving the step quarters the largest gap over the domain (the
    # cylinder's is 0 at every step)
    z = np.linspace(*profile.domain, 2001)
    gaps = [float(np.abs(profile.d3f(z) - (profile.d2f(z + d) - profile.d2f(z - d)) / (2 * d)).max())
            for d in (4e-4, 2e-4, 1e-4)]
    if profile.kind == "cylinder":
        assert gaps == [0.0, 0.0, 0.0]
    else:
        assert all(3.9 < a / b < 4.1 for a, b in zip(gaps, gaps[1:])), gaps


def test_profile_curvature_cylinder():
    bc = profile_curvature(cylinder(1.0), 0.3)
    assert bc.A_VV == 0.0
    assert bc.A_WW == [pytest.approx(1.0)]


def test_profile_curvature_pseudosphere_waist():
    bc = profile_curvature(pseudosphere(1.0, 0.0), 0.0)
    assert bc.A_VV == pytest.approx(-1.0, abs=1e-14)
    assert bc.A_WW[0] == pytest.approx(1.0, abs=1e-14)


def test_profile_curvature_sine_tube():
    bc = profile_curvature(sine_tube(2.0, 0.5, 1.0), math.pi / 2)
    assert bc.A_VV == pytest.approx(0.5, abs=1e-12)
    assert bc.A_WW[0] == pytest.approx(1.0 / 2.5, abs=1e-12)


def test_profile_curvature_rejects_null_tube():
    p = RotationalProfile(
        f=lambda z: 1.0 + np.asarray(z) * 0.0,
        df=lambda z: 1.0 + np.asarray(z) * 0.0,
        d2f=lambda z: np.asarray(z) * 0.0,
        d3f=lambda z: np.asarray(z) * 0.0,
        domain=(-1, 1),
    )
    with pytest.raises(ProfileError):
        profile_curvature(p, 0.0)


def test_frame_orthonormal_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_tube(rng)
        z = rng.uniform(-4, 4)
        assert boundary_frame_orthonormal(profile_curvature(p, z), tol=1e-12)


def test_condition_pseudosphere_is_equality_case():
    for A in (0.5, 1.0, 2.0):
        for B in (-1.0, 0.0, 1.0):
            rep = check_condition_curvature(pseudosphere(A, B), -2.0, 2.0, samples=301)
            assert rep.ok
            assert abs(rep.worst_value) <= 1e-12


def test_condition_sine_tube_ok():
    rep = check_condition_curvature(sine_tube(2.0, 0.5, 1.0), 0.0, 2 * math.pi, samples=2001)
    assert rep.ok
    # max of f''/(1-f'^2) - 1/f sits at the thinnest point z = 3pi/2
    assert rep.worst_value == pytest.approx(0.5 - 1.0 / 1.5, abs=1e-4)


def test_condition_failing_neck():
    neck = RotationalProfile(
        f=lambda z: 0.3 + 2.0 * np.asarray(z) ** 2,
        df=lambda z: 4.0 * np.asarray(z),
        d2f=lambda z: 4.0 + 0.0 * np.asarray(z),
        d3f=lambda z: 0.0 * np.asarray(z),
        domain=(-0.2, 0.2),
    )
    rep = check_condition_curvature(neck, -0.2, 0.2, samples=401)
    assert not rep.ok
    assert rep.worst_value > 0
    # already fails at the waist itself: 4 - 1/0.3 > 0
    assert condition_expression(neck, 0.0) > 0


def test_condition_sign_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_tube(rng)
        z = float(rng.uniform(-4, 4))
        expr = condition_expression(p, z)
        bc = profile_curvature(p, z)
        other = -(bc.A_VV + min(bc.A_WW))
        if abs(expr) > 1e-10:
            assert np.sign(expr) == np.sign(other)


def test_cmc_leaf_pseudosphere():
    leaf = cmc_leaf_through(pseudosphere(1.0, 0.0), 1.0)
    assert leaf.kind == "hyperbolic_plane"
    assert leaf.R == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert leaf.J == pytest.approx(-1.0, abs=1e-14)


def test_cmc_leaf_plane_cases():
    assert cmc_leaf_through(cylinder(1.0), 0.7).kind == "plane"
    leaf = cmc_leaf_through(sine_tube(2.0, 0.5, 1.0), math.pi / 2)
    assert leaf.kind == "plane"
    assert leaf.z_anchor == pytest.approx(math.pi / 2)


def test_cmc_leaf_invariant():
    p = pseudosphere(1.0, 0.0)
    for z in np.linspace(0.2, 2.5, 8):
        leaf = cmc_leaf_through(p, float(z))
        rho = np.linspace(0.0, p.f(z), 20)
        t = leaf.height(rho)
        sq = rho**2 - (t - leaf.J) ** 2
        assert np.all(np.abs(sq + leaf.R**2) <= 1e-10)


def test_leaf_time_matches_leaf():
    p = pseudosphere(1.0, 0.0)
    for z in (-1.3, 0.4, 2.0):
        leaf = cmc_leaf_through(p, z)
        rho = np.linspace(0.0, float(p.f(z)) * 0.99, 15)
        np.testing.assert_allclose(leaf_time(p, rho, z), leaf.height(rho), atol=1e-11)
    # smooth through f' = 0: the sine tube's widest anchor
    st_p = sine_tube(2.0, 0.5, 1.0)
    z0 = math.pi / 2
    for dz in (1e-9, 1e-6, 1e-4):
        tt = leaf_time(st_p, np.array([1.0]), z0 + dz)
        assert np.isfinite(tt).all()
        assert abs(tt[0] - (z0 + dz)) < 1e-3


def test_leaf_time_slope_consistency():
    p = pseudosphere(1.0, 0.5)
    z = 0.8
    rho = np.linspace(0.05, p.f(z) * 0.95, 20)
    eps = 1e-6
    fd = (leaf_time(p, rho + eps, z) - leaf_time(p, rho - eps, z)) / (2 * eps)
    np.testing.assert_allclose(leaf_time_slope(p, rho, z), fd, atol=1e-9)


def test_leaf_anchor_rate_matches_monotonicity_on_axis():
    p = pseudosphere(1.0, 0.0)
    for z in (-2.0, -0.5, 1e-9, 0.5, 2.0):
        lhs = float(leaf_time_anchor_rate(p, 0.0, z))
        rhs = foliation_monotonicity(p, z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_foliation_monotonicity_examples():
    assert foliation_monotonicity(pseudosphere(1.0, 0.0), 0.0) == pytest.approx(0.5, abs=1e-12)
    assert foliation_monotonicity(cylinder(1.0), 1.3) == pytest.approx(1.0, abs=1e-14)
    p = sine_tube(2.0, 0.5, 1.0)
    val = foliation_monotonicity(p, math.pi)
    assert val == pytest.approx(math.sqrt(1.0 - 0.25), abs=1e-12)
    assert val > 0


def test_planar_boundary_trumpet():
    b = trumpet()
    x = np.arctanh(0.5)          # coth x = 2 there
    bc = planar_boundary_data(b, float(x))
    np.testing.assert_allclose(bc.V, np.array([1.0, 2.0]) / math.sqrt(3.0), atol=1e-12)
    assert boundary_frame_orthonormal(bc)
    # A(V,V) = -sinh x on the trumpet
    assert bc.A_VV == pytest.approx(-math.sinh(x), rel=1e-12)


# a dense sweep of the trumpet's domain [1e-8, 12], evenly and in log scale
EXP_SWEEP = np.concatenate([np.linspace(1e-8, 12.0, 200_001),
                            np.geomspace(1e-8, 12.0, 100_001)])


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_exp_parts_within_an_ulp_of_libm():
    # the trumpet's V field takes e^a and e^a - 1 from adds and multiplies;
    # e^a is within 1 ulp of math.exp (glibc's) over the domain, e^a - 1
    # within 2 of math.expm1
    from maxsurf.profiles import _exp_parts

    e, em1 = _exp_parts(EXP_SWEEP)
    assert _ulps(e, np.array([math.exp(a) for a in EXP_SWEEP])).max() <= 1.0
    assert _ulps(em1, np.array([math.expm1(a) for a in EXP_SWEEP])).max() <= 2.0


def test_trumpet_V_is_sinh_and_cosh():
    # V = (sgn(x) sinh|x|, cosh x) to a few ulps over the domain, where the
    # coth form (sgn, s')/sqrt(s'^2 - 1) cancels: 1.5e-8 at x = 10
    b = trumpet()
    for x in (-EXP_SWEEP, EXP_SWEEP):
        Vx, Vt = b.V(x)
        assert _ulps(Vx, np.array([math.sinh(a) for a in x])).max() <= 3.0
        assert _ulps(Vt, np.array([math.cosh(a) for a in x])).max() <= 2.0
    for x in (5.0, 10.0, 11.9):
        Vx, Vt = b.V(x)
        assert float(Vx) == pytest.approx(math.sinh(x), rel=5e-16)
        assert float(Vt) == pytest.approx(math.cosh(x), rel=5e-16)
    # |x| is clamped to the domain
    assert [float(c) for c in b.V(0.0)] == [float(c) for c in b.V(1e-8)]
    assert [float(c) for c in b.V(-20.0)] == [float(c) for c in b.V(-12.0)]


def test_trumpet_V_derivs_are_its_V():
    # sinh and cosh are each other's derivative: dV = (V_t, V_x) and d2V = V,
    # bit for bit, so dV is within the ulps of V's test of cosh and sinh
    b = trumpet()
    for x in (-EXP_SWEEP, EXP_SWEEP, np.array([-11.5, -10.0, 10.0, 11.5])):
        Vx, Vt = b.V(x)
        (dVx, dVt), (d2Vx, d2Vt) = b.V_derivs(x, b.V(x))
        assert [a.tobytes() for a in (dVx, dVt, d2Vx, d2Vt)] == [a.tobytes()
                                                                for a in (Vt, Vx, Vx, Vt)]
        assert _ulps(dVx, np.array([math.cosh(a) for a in x])).max() <= 2.0
        assert _ulps(dVt, np.array([math.sinh(a) for a in x])).max() <= 3.0
    # a centred difference of V agrees with dV to its truncation error
    # delta^2/6 |d3V| = delta^2/6 |dV|, and its rounding error
    delta = 1e-3
    x = np.concatenate([np.linspace(2 * delta, 12.0 - 2 * delta, 1001), [10.0, 11.5]])
    x = np.concatenate([-x, x])
    (Vx_p, Vt_p), (Vx_m, Vt_m) = b.V(x + delta), b.V(x - delta)
    dVx, dVt = b.V_derivs(x, b.V(x))[0]
    bound = (delta**2 / 6 * 1.01 + 1e-12) * np.cosh(np.abs(x) + delta)
    assert np.all(np.abs((Vx_p - Vx_m) / (2 * delta) - dVx) <= bound)
    assert np.all(np.abs((Vt_p - Vt_m) / (2 * delta) - dVt) <= bound)


def test_trumpet_functions_take_libm_on_numbers():
    # numbers go through math, so libm as _step.c calls it, arrays through
    # numpy; where math raises, the number takes IEEE's inf
    b = trumpet()
    x = np.linspace(0.01, 3.0, 2001)
    assert [b.ds(float(a)) for a in x] == [1.0 / math.tanh(a) for a in x]
    assert [b.s(float(a)) for a in x] == [math.log(math.sinh(a)) for a in x]
    assert [b.d2s(float(a)) for a in x] == [-1.0 / math.sinh(a) ** 2 for a in x]
    np.testing.assert_array_equal(b.ds(x), 1.0 / np.tanh(x))
    with np.errstate(divide="ignore"):
        assert (b.ds(0.0), b.s(0.0), b.d2s(0.0), b.s(800.0)) == (math.inf, -math.inf,
                                                                 -math.inf, math.inf)


def test_trumpet_rejects_a_domain_outside_the_exp_range():
    for domain in ((0.0, 12.0), (2.0, 1.0), (1e-8, 800.0)):
        with pytest.raises(ProfileError):
            trumpet(domain)


def test_planar_boundary_line():
    import maxsurf.profiles as profiles

    zero = lambda x: 0.0 * np.asarray(x)
    line = profiles.PlanarBoundary(
        s=lambda x: 2.0 * np.asarray(x),
        ds=lambda x: 2.0 + zero(x),
        d2s=zero,
        domain=(1e-8, 10.0),
        V=lambda x: (np.sign(x) / math.sqrt(3.0), 2.0 / math.sqrt(3.0) + zero(x)),
        V_derivs=lambda x, V: ((zero(x), zero(x)), (zero(x), zero(x))),
    )
    bc = planar_boundary_data(line, 1.0)
    np.testing.assert_allclose(bc.V, np.array([1.0, 2.0]) / math.sqrt(3.0), atol=1e-14)
    np.testing.assert_allclose(bc.mu, np.array([2.0, 1.0]) / math.sqrt(3.0), atol=1e-14)
    # mirrored orientation on the left branch
    bc_left = planar_boundary_data(line, -1.0)
    np.testing.assert_allclose(bc_left.V, np.array([-1.0, 2.0]) / math.sqrt(3.0), atol=1e-14)
    np.testing.assert_allclose(bc_left.mu, np.array([-2.0, 1.0]) / math.sqrt(3.0), atol=1e-14)


def test_planar_boundary_rejects_lightlike():
    import maxsurf.profiles as profiles

    zero = lambda x: 0.0 * np.asarray(x)
    diag = profiles.PlanarBoundary(
        s=lambda x: np.asarray(x, dtype=float),
        ds=lambda x: 1.0 + zero(x),
        d2s=zero,
        domain=(1e-8, 10.0),
        V=lambda x: (zero(x), 1.0 + zero(x)),
        V_derivs=lambda x, V: ((zero(x), zero(x)), (zero(x), zero(x))),
    )
    with pytest.raises(ProfileError):
        planar_boundary_data(diag, 1.0)


def test_profile_from_spec():
    p = profile_from_spec("pseudosphere(2, 1)")
    assert p.kind == "pseudosphere"
    assert p.params == (2.0, 1.0)
    assert profile_from_spec("cylinder").params == (1.0,)
    assert profile_from_spec("sine_tube(2, 0.5, 1)").kind == "sine_tube"
    assert profile_from_spec("trumpet").kind == "trumpet"
    with pytest.raises(ValueError):
        profile_from_spec("moebius(1)")
