"""Integration, funnel selection, monotone families, and zero-set tracing."""

import math

import numpy as np
import pytest

from heisencurve import flowtrace
from heisencurve.errors import (
    GridMismatch,
    MonotonicityViolated,
    NoZeroFound,
    OrderingViolation,
)
from heisencurve.flowtrace import (
    PathSample,
    Rect,
    TraceParams,
    build_family,
    coverage_gap,
    extremal_solutions,
    funnel_section,
    integrate_through,
    level_trace,
    monotone_root,
    pointwise_max,
    pointwise_min,
    solution_residual,
)


def cubic_field(eta, tau):
    """The classic non-uniqueness example: dtau/deta = 3 |tau|^(2/3)."""
    return 3.0 * abs(tau) ** (2.0 / 3.0)


def path_on(eta0, step, n, fn):
    etas = eta0 + step * np.arange(n)
    return PathSample(eta0, step, np.array([fn(e) for e in etas]))


class TestIntegrate:
    # grids are (eta0, step, n); each march is anchored at eta = 0
    def test_tau_independent_field(self):
        # h = 2 eta integrates exactly to tau0 + eta^2 under the trapezoid rule
        for tau0 in (-0.3, 0.0, 0.5):
            p = integrate_through(lambda e, t: 2.0 * e, 0.0, tau0, (0.0, 1e-2, 101))
            err = np.max(np.abs(p.values - (tau0 + p.etas**2)))
            assert err <= 1e-12

    def test_zero_field_constant(self):
        p = integrate_through(lambda e, t: 0.0, 0.0, 0.7, (0.0, 0.05, 41))
        assert np.all(p.values == 0.7)

    def test_separable_field_second_order(self):
        def h(e, t):
            return -2.0 * t / (1.0 - e)

        errs = []
        for step in (1e-2, 5e-3, 2.5e-3):
            p = integrate_through(h, 0.0, 0.4, (0.0, step, round(0.5 / step) + 1))
            errs.append(np.max(np.abs(p.values - 0.4 * (1.0 - p.etas) ** 2)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_backward_direction(self):
        p = integrate_through(lambda e, t: 2.0 * e, 0.0, 0.0, (-1.0, 1e-2, 101))
        assert p.eta0 == pytest.approx(-1.0)
        assert np.max(np.abs(p.values - p.etas**2)) <= 1e-12

    def test_residual_bound(self):
        def h(e, t):
            return -2.0 * t / (1.0 - e)

        step = 1e-3
        p = integrate_through(h, 0.0, 0.3, (0.0, step, 501))
        assert solution_residual(p, h) <= 10.0 * step

    def test_lipschitz_bound(self):
        # increments stay within (max |h| + slack) * step for solutions and splices
        step = 5e-3
        grid, tau_range = (0.0, step, 101), (-2.0, 2.0)
        M = 3.0 * 2.0 ** (2.0 / 3.0)  # max of the cubic field over the window
        p = integrate_through(cubic_field, 0.0, 0.2, grid, tau_range)
        q = integrate_through(cubic_field, 0.0, -0.2, grid, tau_range)
        glued = pointwise_max(p, q)
        for path in (p, q, glued):
            assert path.max_increment() <= (M + 10.0 * step) * step


class TestPointwiseOps:
    def test_max_idempotent(self):
        p = path_on(0.0, 0.01, 50, lambda e: math.sin(e))
        q = pointwise_max(p, p)
        assert np.all(q.values == p.values)

    def test_cubic_splice_is_solution(self):
        step = 0.01
        zero = path_on(-0.5, step, 101, lambda e: 0.0)
        cubic = path_on(-0.5, step, 101, lambda e: max(e, 0.0) ** 3)
        glued = pointwise_max(zero, cubic)
        assert np.all(glued.values == cubic.values)
        assert solution_residual(glued, cubic_field) <= 10.0 * step

    def test_min_below_max(self):
        a = path_on(0.0, 0.01, 40, lambda e: math.cos(3 * e))
        b = path_on(0.0, 0.01, 40, lambda e: 0.5 - e)
        lo = pointwise_min(a, b)
        hi = pointwise_max(a, b)
        assert np.all(lo.values <= hi.values)

    def test_grid_mismatch(self):
        a = path_on(0.0, 0.01, 40, lambda e: 0.0)
        b = path_on(0.0, 0.02, 40, lambda e: 0.0)
        with pytest.raises(GridMismatch):
            pointwise_max(a, b)


class TestFunnelSection:
    def test_between_returns_tau0(self):
        lo = path_on(0.0, 0.01, 30, lambda e: -1.0)
        hi = path_on(0.0, 0.01, 30, lambda e: 1.0)
        mid = path_on(0.0, 0.01, 30, lambda e: 0.3 * e)
        sec = funnel_section(lo, hi, mid)
        assert np.all(sec.values == mid.values)

    def test_below_returns_lower(self):
        lo = path_on(0.0, 0.01, 30, lambda e: 0.0)
        hi = path_on(0.0, 0.01, 30, lambda e: 1.0)
        low = path_on(0.0, 0.01, 30, lambda e: -2.0)
        sec = funnel_section(lo, hi, low)
        assert np.all(sec.values == lo.values)

    def test_shifted_cubic_glues_to_solution(self):
        step = 0.005
        n = 201
        lo = path_on(-0.5, step, n, lambda e: 0.0)
        hi = path_on(-0.5, step, n, lambda e: max(e, 0.0) ** 3)
        c = 0.25
        shifted = path_on(-0.5, step, n, lambda e: (e - c) ** 3)
        sec = funnel_section(lo, hi, shifted)
        assert solution_residual(sec, cubic_field) <= 10.0 * step
        assert np.all(sec.values >= lo.values)
        assert np.all(sec.values <= hi.values)

    def test_ordering_violation(self):
        lo = path_on(0.0, 0.01, 30, lambda e: 1.0)
        hi = path_on(0.0, 0.01, 30, lambda e: -1.0)
        with pytest.raises(OrderingViolation):
            funnel_section(lo, hi, lo)


class TestExtremalSolutions:
    def test_lipschitz_field_collapses(self):
        def h(e, t):
            return -2.0 * t / (1.0 - e)

        lo, hi, diag = extremal_solutions(h, 0.0, 0.3, Rect((0.0, 0.5)), 5e-4)
        exact = 0.3 * (1.0 - lo.etas) ** 2
        assert np.max(np.abs(lo.values - exact)) <= 1e-6
        assert np.max(np.abs(hi.values - exact)) <= 1e-6
        assert diag["converged"]

    def test_cubic_funnel_forward(self):
        lo, hi, _ = extremal_solutions(cubic_field, 0.0, 0.0, Rect((0.0, 0.5)), 1e-3)
        i = lo.index_of(0.5)
        assert abs(lo.values[i] - 0.0) <= 1e-3
        assert abs(hi.values[i] - 0.5**3) <= 1e-3

    def test_constant_field_line(self):
        lo, hi, _ = extremal_solutions(lambda e, t: 2.0, 0.0, 0.1, Rect((-0.5, 0.5)), 1e-3)
        exact = 0.1 + 2.0 * lo.etas
        assert np.max(np.abs(lo.values - exact)) <= 1e-6
        assert np.max(np.abs(hi.values - exact)) <= 1e-6

    def test_min_below_max(self):
        lo, hi, _ = extremal_solutions(cubic_field, 0.0, 0.0, Rect((-0.3, 0.3)), 1e-3)
        assert np.all(lo.values <= hi.values + 1e-15)


class TestBuildFamily:
    def test_unique_field_ordered_by_initial_value(self):
        def h(e, t):
            return -t

        grid = (-0.5, 0.01, 101)
        lo = integrate_through(h, 0.0, -1.0, grid)
        hi = integrate_through(h, 0.0, 1.0, grid)
        fam = build_family(h, lo, hi, depth=4)
        assert len(fam.members) == 2**4 + 1
        assert fam.monotonicity_violation() <= 1e-9
        assert max(fam.mean_residuals()) <= 1e-6
        mus = fam.mus
        assert all(mus[i] < mus[i + 1] for i in range(len(mus) - 1))

    def test_equal_endpoints_degenerate(self):
        p = path_on(0.0, 0.01, 51, lambda e: 0.2)
        fam = build_family(lambda e, t: 0.0, p, p.copy(), depth=3)
        for _, m in fam.members:
            assert np.max(np.abs(m.values - 0.2)) <= 1e-12

    def test_funnel_sweep_realizes_all_means(self):
        step = 0.01
        n = 101
        c = 0.01
        r = c ** (1.0 / 3.0)
        lo = path_on(-0.5, step, n, lambda e: -max(r - e, 0.0) ** 3)
        hi = path_on(-0.5, step, n, lambda e: max(e + r, 0.0) ** 3)
        assert solution_residual(lo, cubic_field) <= 10.0 * step
        assert solution_residual(hi, cubic_field) <= 10.0 * step
        fam = build_family(cubic_field, lo, hi, depth=4)
        assert fam.monotonicity_violation() <= 1e-9
        assert max(fam.mean_residuals()) <= 1e-6
        # the dyadic targets are hit: adjacent means differ by ~range/2^depth
        mus = fam.mus
        rng = mus[-1] - mus[0]
        gaps = np.diff(mus)
        assert np.all(gaps > 0.0)
        assert np.max(gaps) <= rng / 2**4 + 2e-6
        # endpoints unchanged
        assert fam.members[0][1] is lo
        assert fam.members[-1][1] is hi
        # every member is a (possibly spliced) solution
        for _, m in fam.members:
            assert solution_residual(m, cubic_field) <= 10.0 * step

    def test_rejects_misordered_endpoints(self):
        p = path_on(0.0, 0.01, 51, lambda e: 1.0)
        q = path_on(0.0, 0.01, 51, lambda e: -1.0)
        with pytest.raises(OrderingViolation):
            build_family(lambda e, t: 0.0, p, q, depth=2)


class TestMonotoneRoot:
    def test_f_eta(self):
        p = path_on(-0.5, 0.01, 101, lambda e: 0.37)
        root, vals = monotone_root(lambda e, t: e, p)
        assert np.array_equal(vals, p.etas)
        assert root is not None
        assert abs(root[0]) <= 1e-10
        assert root[1] == pytest.approx(0.37)

    def test_linear_combination(self):
        c = 0.21
        p = path_on(-0.5, 0.01, 101, lambda e: c)
        root, _ = monotone_root(lambda e, t: e + t, p)
        assert root is not None
        assert abs(root[0] + c) <= 1e-10
        assert abs(root[1] - c) <= 1e-12

    def test_no_sign_change_returns_none(self):
        p = path_on(-0.5, 0.01, 101, lambda e: 0.0)
        assert monotone_root(lambda e, t: e + 2.0, p)[0] is None

    def test_decreasing_allowed(self):
        p = path_on(-0.5, 0.01, 101, lambda e: 0.0)
        root, _ = monotone_root(lambda e, t: -e + 0.25, p)
        assert root is not None
        assert abs(root[0] - 0.25) <= 1e-10

    def test_monotonicity_violation(self):
        p = path_on(-0.5, 0.01, 101, lambda e: 0.0)
        with pytest.raises(MonotonicityViolated):
            monotone_root(lambda e, t: e * e, p)


class TestLevelTrace:
    def test_vertical_segment(self):
        res = level_trace(lambda e, t: 0.0, lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=5))
        pts = np.array(res.zeta)
        assert np.max(np.abs(pts[:, 0])) <= 1e-10
        taus = pts[:, 1]
        assert taus[0] < -0.4 and taus[-1] > 0.4
        assert np.all(np.diff(taus) > 0.0)

    def test_antidiagonal_segment(self):
        res = level_trace(lambda e, t: 0.0, lambda e, t: e + t,
                          Rect.centered(0.5, 1.0), TraceParams(depth=5))
        pts = np.array(res.zeta)
        assert np.max(np.abs(pts[:, 0] + pts[:, 1])) <= 1e-10
        gap, spacing, nzeros = coverage_gap(res, lambda e, t: e + t, f_eps=2 * 1.0 / 40)
        assert nzeros > 0
        assert gap <= 2.0 * spacing

    def test_funnel_field_covers_segment(self):
        res = level_trace(cubic_field, lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=6))
        pts = np.array(res.zeta)
        assert np.max(np.abs(pts[:, 0])) <= 1e-9
        u = res.neighborhood
        gap, spacing, nzeros = coverage_gap(res, lambda e, t: e,
                                            f_eps=2 * (u.eta[1] - u.eta[0]) / 40)
        assert nzeros > 0
        assert gap <= 2.0 * spacing

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            level_trace(lambda e, t: 0.0, lambda e, t: e + 1.0, Rect.centered(0.5, 1.0))

    def test_no_zero_is_typed(self, monkeypatch):
        monkeypatch.setattr(flowtrace, "monotone_root", lambda F, path, root_tol:
                            (None, monotone_root(F, path, root_tol)[1]))
        with pytest.raises(NoZeroFound):
            level_trace(lambda e, t: 0.0, lambda e, t: e,
                        Rect.centered(0.5, 1.0), TraceParams(depth=2))

    def test_injectivity_after_collapse(self):
        res = level_trace(cubic_field, lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=5))
        pts = res.zeta
        for a, b in zip(pts, pts[1:]):
            assert math.hypot(a[0] - b[0], a[1] - b[1]) > 1e-12

    def test_preimage_intervals_before_collapse(self):
        res = level_trace(cubic_field, lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=5))
        raw = res.diagnostics["raw_zeta"]
        # equal values may only occur on contiguous index ranges
        seen = {}
        for i, p in enumerate(raw):
            key = (round(p[0], 12), round(p[1], 12))
            if key in seen:
                assert i - seen[key] == 1, "equal zeta values must be contiguous"
            seen[key] = i

    def test_samples_satisfy_F_tolerance(self):
        params = TraceParams(depth=5)
        F = lambda e, t: e + t
        res = level_trace(lambda e, t: 0.0, F, Rect.centered(0.5, 1.0), params)
        for e, t in res.zeta:
            assert abs(F(e, t)) <= params.root_tol
