import math

import numpy as np
import pytest

from maxsurf.foliation import (
    ChartCompatibilityReport,
    ChartError,
    FlatChart,
    RotationalCmcChart,
    check_compatibility,
    hat_v_field,
)
from maxsurf.lorentz import minkowski_inner
from maxsurf.profiles import cylinder, pseudosphere, sine_tube, trumpet


def test_flat_chart_basics():
    chart = FlatChart(space_dim=2, extent=1.0)
    p = chart.map([0.3, -0.2], 1.7)
    np.testing.assert_allclose(p, [0.3, -0.2, 1.7])
    assert chart.lapse([0.3, -0.2], 1.7) == 1.0
    np.testing.assert_allclose(hat_v_field(chart, [0.3, -0.2], 1.7), [0.0, 0.0, 1.0])
    assert chart.time_function([0.1, 0.2, 0.9]) == 0.9
    with pytest.raises(ChartError):
        chart.time_function([2.0, 0.0, 0.9])


def test_flat_chart_against_cylinder():
    rep = check_compatibility(FlatChart(2, 1.0), cylinder(1.0, domain=(-1, 1)), samples=60)
    assert rep.orthogonality_max == 0.0
    assert rep.lapse_min == 1.0
    assert rep.boundary_alignment_max <= 1e-14
    assert rep.V_hat_pairing["max"] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_leaf_volume == pytest.approx(math.pi, abs=1e-12)


def test_flat_chart_against_trumpet_pairing_grows():
    # the counterexample violates the pairing bound: -<V, e_t> = cosh x -> inf
    small = check_compatibility(FlatChart(1, 2.0), trumpet(domain=(0.3, 2.0)), samples=40)
    large = check_compatibility(FlatChart(1, 6.0), trumpet(domain=(0.3, 6.0)), samples=40)
    assert large.V_hat_pairing["max"] > 5.0 * small.V_hat_pairing["max"]
    assert large.boundary_alignment_max > 0.1


def test_rotational_chart_orthogonality_and_vhat():
    p = pseudosphere(1.0, 0.0, domain=(-1.5, 1.5))
    chart = RotationalCmcChart(p)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(40):
        lam = float(rng.uniform(-1.4, 1.4))
        ang = rng.uniform(0, 2 * math.pi)
        x = math.sqrt(rng.uniform(0, 1)) * np.array([math.cos(ang), math.sin(ang)])
        dlam = chart.dmap_dlam(x, lam)
        for tang in chart.dmap_dx(x, lam):
            worst = max(worst, abs(minkowski_inner(dlam, tang)))
        vh = chart.hat_v(x, lam)
        assert abs(minkowski_inner(vh, vh) + 1.0) <= 1e-12
        assert vh[-1] > 0
    assert worst <= 1e-10


def test_rotational_chart_axis_vhat_is_e3():
    p = pseudosphere(1.0, 0.0, domain=(-1.5, 1.5))
    chart = RotationalCmcChart(p)
    np.testing.assert_allclose(chart.hat_v([0.0, 0.0], 0.7), [0.0, 0.0, 1.0])


def test_rotational_chart_time_function_roundtrip():
    p = pseudosphere(1.0, 0.0, domain=(-1.5, 1.5))
    chart = RotationalCmcChart(p)
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = float(rng.uniform(-1.2, 1.2))
        ang = rng.uniform(0, 2 * math.pi)
        x = math.sqrt(rng.uniform(0, 1)) * np.array([math.cos(ang), math.sin(ang)])
        y = chart.map(x, lam)
        assert chart.time_function(y) == pytest.approx(lam, abs=1e-9)
    with pytest.raises(ChartError):
        chart.time_function(np.array([5.0, 0.0, 0.0]))


def test_rotational_chart_boundary_on_tube():
    p = pseudosphere(1.0, 0.0, domain=(-1.5, 1.5))
    chart = RotationalCmcChart(p)
    rep = check_compatibility(chart, p, samples=40)
    # leaves meet the tube perpendicularly: alignment and pairing are exact
    assert rep.boundary_alignment_max <= 1e-6
    assert rep.boundary_incidence_max <= 1e-6
    assert rep.V_hat_pairing["max"] == pytest.approx(1.0, abs=1e-6)
    assert rep.V_hat_pairing["min"] == pytest.approx(1.0, abs=1e-6)
    # leaves bunch toward the waist but the lapse stays uniformly positive
    assert rep.lapse_min > 0.1


def test_flat_chart_vhat_matches_graph_vhat():
    # v_hat from the chart pairing equals the graph formula 1/sqrt(1-|Du|^2)
    from maxsurf.geometry import FlowState, GridSpec, geometry

    grid = GridSpec("curve1d", 101)
    x = grid.reference()
    st = FlowState(grid, 0.0, 0.3 * np.sin(x), (-1.0, 1.0))
    g = geometry(st, None)
    chart = FlatChart(1, 1.0)
    vhat_field = np.array([hat_v_field(chart, [xx], 0.0) for xx in x])
    pairing = -(g.nu[:, 0] * vhat_field[:, 0] - g.nu[:, 1] * vhat_field[:, 1])
    np.testing.assert_allclose(pairing, g.v_hat, atol=1e-12)


def test_sine_tube_chart_monotone_window():
    # window without plane leaves (f' != 0 throughout)
    p = sine_tube(2.0, 0.5, 1.0)
    chart = RotationalCmcChart(p, window=(0.2, 1.2), anchor=0.7)
    rep = check_compatibility(chart, p, samples=30)
    assert rep.orthogonality_max <= 1e-10
    assert rep.lapse_min > 0.0
    assert rep.boundary_incidence_max <= 1e-6
