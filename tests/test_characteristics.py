"""Characteristics, the first-order system check, and the expansion formulas."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import (
    POLY_X11,
    POLY_X11_PLUS_T,
    POLY_X12,
    bench_module,
    graph_point,
    solution_residual,
)

from heisencurve import flowtrace, intersect
from heisencurve.characteristics import CharField, characteristic
from heisencurve.errors import NoSignChange
from heisencurve.flowtrace import PathSample, Rect, _clamped, _heun_march, integrate_through
from heisencurve.hgroup import ORIGIN, Point, VerticalCoords, dist, make_frame
from heisencurve.hsurface import WINDOW_SLACK, GraphPatch, PolySurface
from heisencurve.verify import (
    TaylorBasePoint,
    _y_derivatives,
    chain_rule_check,
    chain_rule_rhs,
    directional_derivative_check,
    system_residual,
    taylor_remainder,
)

RIGHT_HALF = Rect((0.0, 0.5), (-0.5, 0.5))

F1_QUAD = PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0})  # x12 + x11^2


def sphere_samples(r, m=40):
    """Points on the homogeneous sphere max(|eta|, sqrt|tau|) = r in N-coordinates."""
    out = []
    for u in np.linspace(-1.0, 1.0, m):
        out.append((r, u * r * r))
        out.append((-r, u * r * r))
        out.append((u * r, r * r))
        out.append((u * r, -r * r))
    return out


class TestCharacteristic:
    def test_flat_patch_horizontal_lines(self, flat_field):
        for tau0 in (-0.3, 0.0, 0.25):
            p = characteristic(flat_field, tau0, step=5e-3)
            assert np.max(np.abs(p.values - tau0)) <= 1e-12

    def test_affine_patch_closed_form(self, affine_field):
        for tau0 in (-0.3, 0.2):
            p = characteristic(affine_field, tau0, window=RIGHT_HALF, step=1e-3)
            exact = tau0 * (1.0 - p.etas) ** 2
            assert np.max(np.abs(p.values - exact)) <= 5e-6

    @pytest.mark.parametrize("window", [Rect((0.0, 0.9), (-0.5, 0.5)),
                                        Rect((-0.6, 0.5), (-0.5, 0.5)),
                                        Rect((0.0, 0.5), (-0.5, 0.7)),
                                        Rect((0.0, 0.5)),
                                        Rect((0.0, math.nan), (-0.5, 0.5))])
    def test_window_must_lie_in_the_patch_window(self, affine_field, window):
        # past eta = 0.5 the march would run on the field clamped at the patch edge
        with pytest.raises(ValueError, match="not inside the patch window"):
            characteristic(affine_field, 0.1, window=window, step=0.01)

    def test_zero_initial_value_fixed_point(self, affine_field):
        p = characteristic(affine_field, 0.0, window=RIGHT_HALF, step=1e-2)
        assert np.max(np.abs(p.values)) <= 1e-14

    def test_convergence_order(self, affine_field):
        tau0 = 0.3
        errs = []
        steps = (1e-2, 5e-3, 2.5e-3)
        for step in steps:
            p = characteristic(affine_field, tau0, window=RIGHT_HALF, step=step)
            errs.append(np.max(np.abs(p.values - tau0 * (1.0 - p.etas) ** 2)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.9

    def test_satisfies_flow_residual(self, affine_field):
        step = 2e-3
        p = characteristic(affine_field, -0.2, window=RIGHT_HALF, step=step)
        assert solution_residual(p, affine_field.rhs) <= 10.0 * step

    def test_outside_window_rejected(self, affine_field):
        with pytest.raises(ValueError):
            characteristic(affine_field, 2.0)

    def test_heun_predictor_past_patch_edge(self):
        # f2 = x11 + x12 + t: the characteristic through (0, 0.2) peaks near
        # tau = 0.2504, and at step 0.1 the Heun predictor before the peak
        # reaches tau = 0.2578, past a patch edge at 0.254 that every node stays below
        f2 = PolySurface({(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
        cf = CharField(GraphPatch(make_frame((1.0, 0.0)), f2,
                                  window=Rect((-0.5, 0.5), (-0.5, 0.254))))
        p = characteristic(cf, 0.2, step=0.1)
        assert len(p) == 11 and np.max(p.values) <= 0.254
        with pytest.raises(ValueError):  # the field itself rejects the predictor
            integrate_through(cf.rhs, 0.0, 0.2, (-0.5, 0.1, 11))


def _march_cases():
    """(name, window half-width, bracket, f2, base point) of the graph fields marched."""
    pair = bench_module("pairs").draw_pair(1, 0)
    return [
        ("A", 0.5, (-2.0, 2.0), POLY_X12, ORIGIN),
        ("B", 0.5, (-2.0, 2.0), POLY_X11_PLUS_T, ORIGIN),
        ("C", 0.2, (-0.5, 0.5), PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0, (3, 0, 0): -1.0}),
         ORIGIN),
        ("G22", 0.5, (-2.0, 2.0), PolySurface({(0, 1, 0): 1.0, (2, 0, 0): -2.0}), ORIGIN),
        ("pair-s1-k0", 0.5, (-2.0, 2.0), PolySurface(pair["f2"]), Point(*pair["p"])),
    ]


def _twin_fields(case, hint):
    """Two equal fields of the case, both with the given hint."""
    _, half, bracket, f2, p = case
    fields = [intersect.graph_field(f2, p, half, bracket) for _ in range(2)]
    for cf in fields:
        cf._hint = hint
    return fields


def _generic_march(cf, box, *args):
    """The generic Heun loop over the clamped rhs, a plain function, never cf.march."""
    return _heun_march(_clamped(lambda e, t: cf.rhs(e, t), box), *args)


def _outcome(march, *args):
    try:
        return march(*args)
    except (ValueError, NoSignChange) as e:
        return f"{type(e).__name__}: {e}"


def _bits_equal(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestGraphMarch:
    """CharField.march against the generic loop of flowtrace._heun_march, bit for bit."""

    @pytest.mark.parametrize("case", _march_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("hint", [None, 0.01])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_values_and_hint_equal_the_generic_march(self, case, hint, direction):
        half = case[1]
        box = Rect.centered(half, half)
        for tau0 in (-0.6 * half, 0.0, 0.3 * half):
            graph, generic = _twin_fields(case, hint)
            args = (0.0, tau0, direction, 200, half / 200, -math.inf, math.inf)
            ours = _heun_march(_clamped(graph, box), *args)
            ref = _generic_march(generic, box, *args)
            assert len(ours) == 201 and _bits_equal(ours, ref)
            assert graph._hint == generic._hint and graph._hint is not None

    def test_predictor_past_the_box(self):
        # the patch of test_heun_predictor_past_patch_edge: a predictor reaches
        # tau = 0.2578, past the box edge 0.254, and is clamped back
        f2 = PolySurface({(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
        window = Rect((-0.5, 0.5), (-0.5, 0.254))
        graph, generic = (CharField(GraphPatch(make_frame((1.0, 0.0)), f2, window=window))
                          for _ in range(2))
        seen = []
        hc = _clamped(generic.rhs, window)

        def recorded(e, t):
            seen.append(t)
            return hc(e, t)

        args = (0.0, 0.2, -1, 5, 0.1, *window.tau)
        ours = _heun_march(_clamped(graph, window), *args)
        ref = _heun_march(recorded, *args)
        assert max(seen) > 0.254 and len(ours) == 6
        assert _bits_equal(ours, ref) and graph._hint == generic._hint

    @pytest.mark.parametrize("box", [Rect.centered(1.0, 1.0), Rect((-math.inf, math.inf))])
    def test_window_error_leaves_the_generic_hint(self, box):
        # a box wider than the patch window, or a field not clamped at all:
        # eta = 0.55 is outside the patch
        case = _march_cases()[1]
        for hint in (None, 0.01):
            graph, generic = _twin_fields(case, hint)
            args = (0.35, 0.1, 1, 5, 0.1, -math.inf, math.inf)
            field = graph if math.isinf(box.eta[1]) else _clamped(graph, box)
            ours = _outcome(lambda *a: _heun_march(field, *a), *args)
            ref = _outcome(lambda *a: _generic_march(generic, box, *a), *args)
            assert ours.startswith("ValueError: n = (0.55") and ours == ref
            assert graph._hint == generic._hint and graph._hint is not None

    def test_failed_bisection_leaves_the_generic_hint(self):
        # f2 = x11 + t on the bracket [-0.1, 0.1]: phi2hat = -tau / (1 - eta)
        # leaves the bracket backward from (0, 0.09), where Newton and _bisect fail
        box = Rect.centered(0.5, 0.5)
        for hint in (None, -0.05):
            graph, generic = (CharField(GraphPatch(make_frame((1.0, 0.0)), POLY_X11_PLUS_T,
                                                   bracket=(-0.1, 0.1))) for _ in range(2))
            graph._hint = generic._hint = hint
            args = (0.0, 0.09, -1, 100, 5e-3, -math.inf, math.inf)
            ours = _outcome(lambda *a: _heun_march(_clamped(graph, box), *a), *args)
            ref = _outcome(lambda *a: _generic_march(generic, box, *a), *args)
            assert ours.startswith("NoSignChange") and ours == ref
            assert graph._hint == generic._hint and graph._hint is not None

    def test_no_march_calls_rhs_or_solve_scalar(self, monkeypatch):
        # the marches solve through the Newton kernel alone; rhs sees only the
        # field bound's array call, and solve_scalar only the harvest and the lift
        calls = {"rhs": [], "solve_scalar": [], "march": 0}
        in_march = [False]
        rhs, solve, heun = CharField.rhs, GraphPatch.solve_scalar, flowtrace._heun_march

        def counted_rhs(cf, eta, tau):
            calls["rhs"].append((in_march[0], isinstance(eta, np.ndarray)))
            return rhs(cf, eta, tau)

        def counted_solve(patch, n, hint=None):
            calls["solve_scalar"].append(in_march[0])
            return solve(patch, n, hint)

        def flagged_march(*args):
            calls["march"] += 1
            in_march[0] = True
            try:
                return heun(*args)
            finally:
                in_march[0] = False

        monkeypatch.setattr(CharField, "rhs", counted_rhs)
        monkeypatch.setattr(GraphPatch, "solve_scalar", counted_solve)
        monkeypatch.setattr(flowtrace, "_heun_march", flagged_march)
        curve = intersect.intersect_surfaces(intersect.IntersectionProblem(
            POLY_X12, POLY_X11_PLUS_T, trace=flowtrace.TraceParams(depth=2)))
        assert calls["march"] > 0 and len(curve) > 0
        assert calls["rhs"] == [(False, True)]
        assert calls["solve_scalar"] and not any(calls["solve_scalar"])


class TestCharFieldWindow:
    @pytest.mark.parametrize("eta, tau", [
        (0.5 + 10 * WINDOW_SLACK, 0.0), (-0.5 - 10 * WINDOW_SLACK, 0.0),
        (0.0, 0.5 + 10 * WINDOW_SLACK), (0.0, -0.5 - 10 * WINDOW_SLACK),
        (math.nan, 0.0), (0.0, math.nan),
    ])
    def test_outside_or_nan_rejected(self, affine_field, eta, tau):
        for evaluate in (affine_field.rhs, affine_field.graph_coords):
            with pytest.raises(ValueError):
                evaluate(eta, tau)


class TestCharFieldArrays:
    def test_array_calls_leave_the_hint(self, affine_field):
        eta, tau = np.linspace(-0.4, 0.4, 9), np.linspace(0.3, -0.3, 9)
        assert affine_field._hint is None
        affine_field.phi(eta, tau)
        affine_field.graph_coords(eta, tau)
        assert affine_field._hint is None
        hint = affine_field.rhs(0.1, 0.2) / affine_field.beta
        assert affine_field._hint == hint
        affine_field.phi(eta, 0.25)
        affine_field.graph_coords(0.1, tau)
        assert affine_field._hint == hint

    def test_checks_leave_the_hint(self, affine_field):
        path = characteristic(affine_field, 0.2, window=RIGHT_HALF, step=1e-2)
        hint = affine_field.rhs(0.1, 0.2) / affine_field.beta
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.0))
        system_residual(affine_field, path)
        taylor_remainder(F1_QUAD, affine_field, base, np.linspace(-0.2, 0.2, 5), 0.01)
        assert affine_field._hint == hint

    def test_arrays_match_floats(self, affine_field):
        eta, tau = np.linspace(-0.4, 0.4, 9), np.linspace(0.3, -0.3, 9)
        coords = affine_field.graph_coords(eta, tau)
        for i, (e, t) in enumerate(zip(eta.tolist(), tau.tolist())):
            assert [c[i] for c in coords] == list(astuple(graph_point(affine_field.patch, e, t)))


def _ref_system_residual(cf, path):
    """Reference only: system_residual point by point, each solve cold."""
    taus = path.values.tolist()
    nus = [cf.patch.solve_scalar((e, t)) for e, t in zip(path.etas.tolist(), taus)]
    worst = 0.0
    for i in range(len(path) - 1):
        mid = graph_point(cf.patch, float(path.eta0 + (i + 0.5) * path.step),
                          0.5 * (taus[i] + taus[i + 1]))
        y1, y2 = _y_derivatives(cf.patch.f2, astuple(mid), cf.patch.frame)
        worst = max(worst, abs((nus[i + 1] - nus[i]) / path.step + y2 / y1))
    return worst


class TestFirstOrderSystem:
    def test_flat_patch_zero_residual(self, flat_field):
        p = characteristic(flat_field, 0.2, step=5e-3)
        assert system_residual(flat_field, p) <= 1e-12

    def test_affine_patch_second_order(self, affine_field):
        for step in (2e-3, 1e-3):
            for tau0 in (-0.3, 0.25):
                p = characteristic(affine_field, tau0, window=RIGHT_HALF, step=step)
                assert system_residual(affine_field, p) <= 10.0 * step**2

    def test_matches_the_cold_point_loop(self, affine_field):
        # the affine graph is linear, so array and float solves agree bit for bit
        p = characteristic(affine_field, 0.25, window=RIGHT_HALF, step=1e-2)
        fake = PathSample(0.0, 1e-2, 0.1 + 1e-2 * np.arange(41))
        for path in (p, fake):
            assert system_residual(affine_field, path) == _ref_system_residual(affine_field, path)

    def test_negative_control(self, affine_field):
        # tau = 0.1 + eta is no characteristic of the affine patch
        step = 2e-3
        n = int(0.4 / step) + 1
        etas = step * np.arange(n)
        fake = PathSample(0.0, step, 0.1 + etas)
        assert system_residual(affine_field, fake) > 0.05


class TestChainRule:
    def test_analytic_pair_constant_one(self, affine_field):
        p = characteristic(affine_field, 0.2, window=RIGHT_HALF, step=1e-3)
        for eta in (0.05, 0.2, 0.4):
            assert abs(chain_rule_rhs(POLY_X12, affine_field, eta, p) - 1.0) <= 1e-12

    def test_repeated_surface_vanishes(self, affine_field):
        f2 = affine_field.patch.f2
        p = characteristic(affine_field, -0.1, window=RIGHT_HALF, step=1e-3)
        for eta in (0.1, 0.3):
            assert abs(chain_rule_rhs(f2, affine_field, eta, p)) <= 1e-12

    def test_swapped_coordinates_unit_value(self, flat_field):
        # f1 = x11 against the flat patch (frame b1 = (0,1), det C = 1)
        p = characteristic(flat_field, 0.0, step=5e-3)
        val = chain_rule_rhs(POLY_X11, flat_field, 0.1, p)
        assert abs(abs(val) - 1.0) <= 1e-12

    def test_finite_difference_analytic_pair(self, affine_field):
        p = characteristic(affine_field, 0.2, window=RIGHT_HALF, step=1e-3)
        report = chain_rule_check(POLY_X12, affine_field, p, h_sweep=(1e-4,))
        assert report.max_rel_errors[0] <= 1e-5

    def test_finite_difference_same_surface(self, affine_field):
        f2 = affine_field.patch.f2
        p = characteristic(affine_field, 0.2, window=RIGHT_HALF, step=1e-3)
        report = chain_rule_check(f2, affine_field, p, h_sweep=(1e-3, 1e-4))
        assert max(report.max_abs_errors) <= 1e-7

    def test_random_polynomial_pair_order(self, affine_field):
        rng = np.random.default_rng(42)
        coeffs = {
            (0, 1, 0): 1.0,
            (2, 0, 0): float(rng.uniform(0.2, 0.6)),
            (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
            (1, 1, 0): float(rng.uniform(0.1, 0.4)),
        }
        f1 = PolySurface(coeffs)
        p = characteristic(affine_field, 0.15, window=RIGHT_HALF, step=1e-3)
        report = chain_rule_check(f1, affine_field, p, h_sweep=(1e-2, 5e-3, 2.5e-3))
        assert min(report.observed_orders) >= 1.9


class TestTaylor:
    def test_zero_at_base_point(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.1, -0.2))
        rem, scale = taylor_remainder(F1_QUAD, affine_field, base, *astuple(base.n_bar))
        assert rem == 0.0
        # the sheared offset cancels only to rounding; hnorm square-roots it
        assert scale <= 1e-8

    def test_linear_pair_exact_cancellation(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.0))
        rng = np.random.default_rng(1)
        for _ in range(40):
            eta, tau = rng.uniform(-0.4, 0.4, size=2)
            rem, _ = taylor_remainder(POLY_X12, affine_field, base, eta, tau)
            assert abs(rem) <= 1e-10

    def test_quadratic_ratio_decreases(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.0))
        ratios = []
        for k in range(2, 9):
            r = 2.0**-k
            worst = 0.0
            for eta, tau in sphere_samples(r):
                rem, scale = taylor_remainder(F1_QUAD, affine_field, base, eta, tau)
                worst = max(worst, abs(rem) / scale)
            ratios.append(worst)
        violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
        assert violations <= 1
        assert ratios[-1] <= 0.05

    def test_base_point_cache_consistency(self, affine_field):
        n_bar = VerticalCoords(0.15, -0.1)
        base = TaylorBasePoint.from_patch(affine_field.patch, n_bar)
        assert dist(base.x_bar, graph_point(affine_field.patch, n_bar.eta, n_bar.tau)) <= 1e-12
        detc = affine_field.patch.frame.detC
        assert abs(base.tau_bar - (n_bar.tau - base.eta1_bar * n_bar.eta * detc)) <= 1e-15


    def test_arrays_match_cold_float_calls(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.1, -0.2))
        eta, tau = np.random.default_rng(3).uniform(-0.4, 0.4, size=(2, 60))
        rem, scale = taylor_remainder(F1_QUAD, affine_field, base, eta, tau)
        for i, (e, t) in enumerate(zip(eta.tolist(), tau.tolist())):
            # a field of its own per point, so each float solve starts cold
            cold = CharField(affine_field.patch)
            assert taylor_remainder(F1_QUAD, cold, base, e, t) == (rem[i], scale[i])


class TestDirectionalDerivative:
    def test_base_origin_unit_derivative(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.0))
        report = directional_derivative_check(POLY_X12, affine_field, base, h_sweep=(1e-4,))
        assert report.max_abs_errors[0] <= 1e-10

    def test_same_surface_zero(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.0))
        report = directional_derivative_check(
            affine_field.patch.f2, affine_field, base, h_sweep=(1e-3,)
        )
        assert report.max_abs_errors[0] <= 1e-9

    def test_shifted_base_matches_formula(self, affine_field):
        base = TaylorBasePoint.from_patch(affine_field.patch, VerticalCoords(0.0, 0.2))
        assert abs(base.eta1_bar + 0.2) <= 1e-10  # phi2hat(0, 0.2) = -0.2
        report = directional_derivative_check(F1_QUAD, affine_field, base,
                                              h_sweep=(1e-2, 5e-3, 2.5e-3, 1e-4))
        assert report.max_abs_errors[-1] <= 1e-5
        assert min(report.observed_orders[:2]) >= 1.9


class TestLiftRegularity:
    def test_characteristic_lift_is_horizontal(self, affine_field):
        # along characteristics the lifted increments scale like h
        p = characteristic(affine_field, 0.2, window=RIGHT_HALF, step=1e-3)
        eta = 0.2
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            tau = p.tau_at(eta)
            # eight Heun steps from eta to eta + h
            tau_h = integrate_through(affine_field.rhs, eta, tau, (eta, h / 8, 9)).values[-1]
            a = affine_field.graph_point(eta, tau)
            b = affine_field.graph_point(eta + h, tau_h)
            ratios.append(dist(a, b) / h)
        assert max(ratios) <= 2.0 * ratios[0] + 1e-9

    def test_non_characteristic_lift_degrades(self, affine_field):
        # along a straight non-characteristic line the homogeneous increment
        # only scales like sqrt(h), so the ratio blows up as h shrinks
        eta, tau0, slope = 0.1, 0.2, 0.0
        ratios = []
        for h in (1e-2, 1e-4):
            a = affine_field.graph_point(eta, tau0)
            b = affine_field.graph_point(eta + h, tau0 + slope * h)
            ratios.append(dist(a, b) / h)
        assert ratios[-1] >= 5.0 * ratios[0]
