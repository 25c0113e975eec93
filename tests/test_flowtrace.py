"""Integration, funnel selection, monotone families, and zero-set tracing."""

import json
import math
import struct

import numpy as np
import pytest
from conftest import solution_residual
from hypothesis import given, settings
from hypothesis import strategies as st

from heisencurve import flowtrace, verify
from heisencurve.errors import (
    GridMismatch,
    MeanBisectionFailure,
    MonotonicityViolated,
    NotCommonZero,
    NoZeroFound,
    OrderingViolation,
)
from heisencurve.flowtrace import (
    PathSample,
    Rect,
    TraceParams,
    build_family,
    extremal_solutions,
    funnel_section,
    integrate_through,
    level_trace,
    monotone_root,
    pointwise_max,
    pointwise_min,
)
from heisencurve.verify import coverage_gap


def cubic_field(eta, tau):
    """The classic non-uniqueness example: dtau/deta = 3 |tau|^(2/3)."""
    return 3.0 * abs(tau) ** (2.0 / 3.0)


def path_on(eta0, step, n, fn):
    etas = eta0 + step * np.arange(n)
    return PathSample(eta0, step, np.array([fn(e) for e in etas]))


def _ref_coverage_gap(result, F, f_eps):
    """Reference only: coverage_gap point by point on floats."""
    (e_lo, e_hi), (t_lo, t_hi) = result.neighborhood.eta, result.neighborhood.tau
    pts = np.array(result.zeta)
    band_lo, band_hi = result.band
    worst, count = 0.0, 0
    for e in np.linspace(e_lo, e_hi, verify.COVERAGE_GRID).tolist():
        for t in np.linspace(t_lo, t_hi, verify.COVERAGE_GRID).tolist():
            if (band_lo.tau_at(e) - 1e-12 <= t <= band_hi.tau_at(e) + 1e-12
                    and abs(F(e, t)) < f_eps):
                count += 1
                worst = max(worst, float(np.min(np.hypot(pts[:, 0] - e, pts[:, 1] - t))))
    spacing = max((e_hi - e_lo), (t_hi - t_lo)) / (verify.COVERAGE_GRID - 1)
    return worst, spacing, count


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

    def test_field_sees_the_grid_nodes(self):
        # each eta is the anchor plus j steps, not a running sum: a 500-step
        # march at step 1e-3 from 0 ends at 0.5, not 0.5000000000000003
        seen = []
        integrate_through(lambda e, t: seen.append(e) or 0.0, 0.0, 0.0, (0.0, 1e-3, 501))
        assert max(seen) == 0.5
        assert set(seen) == {j * 1e-3 for j in range(501)}
        seen.clear()
        integrate_through(lambda e, t: seen.append(e) or 0.0, 0.0, 0.0, (-0.5, 1e-3, 1001))
        assert set(seen) == {s * j * 1e-3 for s in (1, -1) for j in range(501)}

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
            assert np.max(np.abs(np.diff(path.values))) <= (M + 10.0 * step) * step


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
        assert lo.etas[-1] == pytest.approx(0.5)
        assert abs(lo.values[-1] - 0.0) <= 1e-3
        assert abs(hi.values[-1] - 0.5**3) <= 1e-3

    def test_cubic_maximal_path_misses_less(self):
        # the path of the smallest eps kept, clipped to the natural march,
        # misses eta^3 by 4.0e-4; extrapolating the one-sided eps sequence
        # pointwise (Aitken) misses it by more
        _, hi, _ = extremal_solutions(cubic_field, 0.0, 0.0, Rect((0.0, 0.5)), 1e-3)
        assert np.max(np.abs(hi.values - hi.etas**3)) < 4.5e-4

    def test_constant_field_line(self):
        lo, hi, _ = extremal_solutions(lambda e, t: 2.0, 0.0, 0.1, Rect((-0.5, 0.5)), 1e-3)
        exact = 0.1 + 2.0 * lo.etas
        assert np.max(np.abs(lo.values - exact)) <= 1e-6
        assert np.max(np.abs(hi.values - exact)) <= 1e-6

    def test_min_below_max(self):
        lo, hi, _ = extremal_solutions(cubic_field, 0.0, 0.0, Rect((-0.3, 0.3)), 1e-3)
        assert np.all(lo.values <= hi.values + 1e-15)


def counting(h, calls):
    def field(e, t):
        calls.append((e, t))
        return h(e, t)
    return field


def same_bits(a, b):
    return a.tobytes() == b.tobytes()


class TestUniqueCharacteristicShortcut:
    """A finite tau-Lipschitz bound: the extremal pair is the one natural march."""

    @staticmethod
    def field(e, t):
        return 0.5 * math.sin(t) + e

    def test_one_march_two_copies(self):
        window, step = Rect((-0.3, 0.4)), 1e-3
        calls = []
        lo, hi, diag = extremal_solutions(counting(self.field, calls), 0.0, 0.1, window,
                                          step, tau_lipschitz=0.5)
        natural = integrate_through(self.field, 0.0, 0.1, (lo.eta0, lo.step, len(lo)))
        assert len(calls) == 2 * (len(lo) - 1)
        assert same_bits(lo.values, natural.values) and same_bits(hi.values, natural.values)
        assert lo.values is not hi.values
        assert diag == {"eps": (), "gap_min": [], "gap_max": [], "dropped_min": [],
                        "dropped_max": [], "converged": True, "tau_lipschitz": 0.5}

    @pytest.mark.parametrize("bound", [None, math.inf, math.nan])
    def test_no_finite_bound_keeps_the_eps_paths(self, bound):
        window, step = Rect((0.0, 0.5)), 1e-3
        calls = []
        lo, hi, diag = extremal_solutions(counting(cubic_field, calls), 0.0, 0.0, window,
                                          step, tau_lipschitz=bound)
        ref_lo, ref_hi, ref_diag = extremal_solutions(cubic_field, 0.0, 0.0, window, step)
        assert len(calls) == (1 + 2 * len(flowtrace.EPS_SEQUENCE)) * 2 * (len(lo) - 1)
        assert same_bits(lo.values, ref_lo.values) and same_bits(hi.values, ref_hi.values)
        assert diag == ref_diag and diag["tau_lipschitz"] is None
        assert set(diag) == {"eps", "gap_min", "gap_max", "dropped_min", "dropped_max",
                             "converged", "tau_lipschitz"}
        json.dumps(diag, allow_nan=False)

    def test_level_trace_marches_once(self, monkeypatch):
        seen = []
        real = flowtrace.extremal_solutions

        def spy(h, *args):
            calls = []
            out = real(counting(h, calls), *args)
            seen.append((h, calls, out))
            return out

        monkeypatch.setattr(flowtrace, "extremal_solutions", spy)
        window = Rect.centered(0.5, 1.0)
        # the field of this class, with np.sin, since the field bound takes arrays
        res = level_trace(lambda e, t: 0.5 * np.sin(t) + e, lambda e, t: e, window,
                          TraceParams(depth=3), tau_lipschitz=0.5)
        (hc, calls, (tau_bar, tau_hat, diag)), = seen
        grid = (tau_bar.eta0, tau_bar.step, len(tau_bar))
        natural = integrate_through(hc, 0.0, 0.0, grid)
        assert len(calls) == 2 * (len(tau_bar) - 1)
        assert same_bits(tau_bar.values, natural.values)
        assert same_bits(tau_hat.values, natural.values)
        assert res.diagnostics["extremal"] is diag and diag["tau_lipschitz"] == 0.5
        json.dumps(res.diagnostics, allow_nan=False)

    def test_funnel_trace_unchanged_without_a_bound(self):
        window, params = Rect.centered(0.5, 1.0), TraceParams(depth=4)
        plain = level_trace(cubic_field, lambda e, t: e, window, params)
        none = level_trace(cubic_field, lambda e, t: e, window, params, tau_lipschitz=None)
        assert np.array(plain.zeta).tobytes() == np.array(none.zeta).tobytes()
        assert json.dumps(plain.diagnostics) == json.dumps(none.diagnostics)
        assert plain.diagnostics["extremal"]["eps"] == flowtrace.EPS_SEQUENCE


def linear_field(e, t):
    return -t


def linear_family_ends():
    """Solutions of h = -tau through (0, -1) and (0, 1) on the grid (-0.5, 0.01, 101)."""
    grid = (-0.5, 0.01, 101)
    return (integrate_through(linear_field, 0.0, -1.0, grid),
            integrate_through(linear_field, 0.0, 1.0, grid))


def funnel_family_ends():
    """Solutions of the cubic field bounding a funnel around tau = 0."""
    step, n, r = 0.01, 101, 0.01 ** (1.0 / 3.0)
    return (path_on(-0.5, step, n, lambda e: -max(r - e, 0.0) ** 3),
            path_on(-0.5, step, n, lambda e: max(e + r, 0.0) ** 3))


class TestBuildFamily:
    def test_unique_field_ordered_by_initial_value(self):
        fam = build_family(linear_field, *linear_family_ends(), depth=4)
        assert len(fam.members) == 2**4 + 1
        assert fam.monotonicity_violation() <= 1e-9
        assert max(fam.mean_residuals()) <= 1e-6
        mus = [mu for mu, _ in fam.members]
        assert all(mus[i] < mus[i + 1] for i in range(len(mus) - 1))

    def test_equal_endpoints_degenerate(self):
        p = path_on(0.0, 0.01, 51, lambda e: 0.2)
        fam = build_family(lambda e, t: 0.0, p, PathSample(p.eta0, p.step, p.values.copy()),
                           depth=3)
        for _, m in fam.members:
            assert np.max(np.abs(m.values - 0.2)) <= 1e-12

    def test_funnel_sweep_realizes_all_means(self):
        lo, hi = funnel_family_ends()
        step = lo.step
        assert solution_residual(lo, cubic_field) <= 10.0 * step
        assert solution_residual(hi, cubic_field) <= 10.0 * step
        fam = build_family(cubic_field, lo, hi, depth=4)
        assert fam.monotonicity_violation() <= 1e-9
        assert max(fam.mean_residuals()) <= 1e-6
        # the dyadic targets are hit: adjacent means differ by ~range/2^depth
        mus = [mu for mu, _ in fam.members]
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

    def test_mean_residuals_measure_the_targets(self, monkeypatch):
        # a member accepted 1e-2 from its bracket's midpoint mean shows that miss
        monkeypatch.setattr(flowtrace, "MEAN_TOL", 1e-2)
        fam = build_family(cubic_field, *funnel_family_ends(), depth=4)
        assert len(fam.targets) == len(fam.members)
        assert fam.targets[0] == fam.members[0][0] and fam.targets[-1] == fam.members[-1][0]
        assert 1e-6 < max(fam.mean_residuals()) <= 1e-2

    def test_rejects_misordered_endpoints(self):
        p = path_on(0.0, 0.01, 51, lambda e: 1.0)
        q = path_on(0.0, 0.01, 51, lambda e: -1.0)
        with pytest.raises(OrderingViolation):
            build_family(lambda e, t: 0.0, p, q, depth=2)


# The member search that integrates every candidate afresh, kept as the
# reference for the reusing one.

def _ref_find_member_with_mean(h, lo, hi, mu_t):
    grid = (lo.eta0, lo.step, len(lo))

    def candidate(k, s):
        v = (1.0 - s) * lo.values[k] + s * hi.values[k]
        raw = flowtrace.integrate_through(h, lo.eta0 + k * lo.step, float(v), grid)
        return funnel_section(lo, hi, raw)

    n = len(lo)
    stride = max(1, n // flowtrace.MAX_ANCHORS)
    order = sorted(set(range(0, n, stride)) | {n - 1}, key=lambda k: abs(k - n // 2))
    best_gap = math.inf
    for k in order:
        c0, c1 = candidate(k, 0.0), candidate(k, 1.0)
        m0, m1 = c0.integral(), c1.integral()
        for c, m in ((c0, m0), (c1, m1)):
            best_gap = min(best_gap, abs(m - mu_t))
            if abs(m - mu_t) <= flowtrace.MEAN_TOL:
                return c
        if (m0 - mu_t) * (m1 - mu_t) > 0.0:
            continue
        s_lo, s_hi = 0.0, 1.0
        g_lo, g_hi = m0 - mu_t, m1 - mu_t
        side = 0
        for _ in range(64):
            denom = g_hi - g_lo
            if denom != 0.0:
                s_mid = s_lo - g_lo * (s_hi - s_lo) / denom
            else:
                s_mid = 0.5 * (s_lo + s_hi)
            if not (s_lo + 1e-15 < s_mid < s_hi - 1e-15):
                s_mid = 0.5 * (s_lo + s_hi)
            c_mid = candidate(k, s_mid)
            g_mid = c_mid.integral() - mu_t
            best_gap = min(best_gap, abs(g_mid))
            if abs(g_mid) <= flowtrace.MEAN_TOL:
                return c_mid
            if g_lo * g_mid <= 0.0:
                s_hi, g_hi = s_mid, g_mid
                if side == -1:
                    g_lo *= 0.5
                side = -1
            else:
                s_lo, g_lo = s_mid, g_mid
                if side == 1:
                    g_hi *= 0.5
                side = 1
            if s_hi - s_lo < 1e-14:
                break
    raise MeanBisectionFailure(mu_t, best_gap)


def _ref_family_paths(h, tau_minus, tau_plus, depth):
    def recurse(lo, mu_lo, hi, mu_hi, d):
        if d == 0:
            return []
        if mu_hi - mu_lo <= 2.0 * flowtrace.MEAN_TOL:
            mid = funnel_section(lo, hi, lo)
        else:
            mid = _ref_find_member_with_mean(h, lo, hi, 0.5 * (mu_lo + mu_hi))
        mu_mid = mid.integral()
        return (recurse(lo, mu_lo, mid, mu_mid, d - 1) + [mid]
                + recurse(mid, mu_mid, hi, mu_hi, d - 1))

    inner = recurse(tau_minus, tau_minus.integral(), tau_plus, tau_plus.integral(), depth)
    return [tau_minus] + inner + [tau_plus]


def count_integrations(monkeypatch):
    """Route flowtrace.integrate_through through a counter; returns the count cell."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return integrate_through(*args, **kwargs)

    monkeypatch.setattr(flowtrace, "integrate_through", counting)
    return calls


class TestFamilyReuse:
    @pytest.mark.parametrize("depth", [4, 6])
    @pytest.mark.parametrize("case", ["linear", "funnel"])
    def test_members_match_fresh_integration(self, case, depth):
        h, ends = ((linear_field, linear_family_ends()) if case == "linear"
                   else (cubic_field, funnel_family_ends()))
        fam = build_family(h, *ends, depth=depth)
        want = _ref_family_paths(h, *ends, depth)
        assert len(fam.members) == len(want)
        for (_, got), ref in zip(fam.members, want):
            assert np.array_equal(got.values, ref.values)

    @pytest.mark.parametrize("depth, calls, fresh", [(2, 5, 9), (4, 17, 45), (6, 65, 189)])
    def test_linear_field_integrates_each_member_once(self, monkeypatch, depth, calls, fresh):
        # one integration per new member plus the candidates on the two ends,
        # against fresh integrations by the reference search
        lo, hi = linear_family_ends()
        counted = count_integrations(monkeypatch)
        build_family(linear_field, lo, hi, depth)
        assert counted[0] == calls == 2**depth + 1
        counted[0] = 0
        _ref_family_paths(linear_field, lo, hi, depth)
        assert counted[0] == fresh

    def test_funnel_reuses_paths(self, monkeypatch):
        lo, hi = funnel_family_ends()
        counted = count_integrations(monkeypatch)
        _ref_family_paths(cubic_field, lo, hi, 4)
        assert counted[0] == 127
        counted[0] = 0
        build_family(cubic_field, lo, hi, depth=4)
        assert counted[0] == 99

    def test_no_state_between_calls(self, monkeypatch):
        lo, hi = funnel_family_ends()
        counted = count_integrations(monkeypatch)
        first = build_family(cubic_field, lo, hi, depth=4)
        n_first = counted[0]
        second = build_family(cubic_field, lo, hi, depth=4)
        assert counted[0] == 2 * n_first
        for (_, a), (_, b) in zip(first.members, second.members):
            assert np.array_equal(a.values, b.values)


class TestMemberSearch:
    def test_moves_to_another_anchor(self, monkeypatch):
        # on 3|tau|^(1/3) some candidate means jump past the target at the
        # middle anchor, so the search goes on to other anchors
        anchors = []
        find, integrate = flowtrace._find_member_with_mean, flowtrace.integrate_through

        def recording_find(*args):
            anchors.append(set())
            return find(*args)

        def recording_integrate(h, eta_c, *args):
            if anchors:
                anchors[-1].add(eta_c)
            return integrate(h, eta_c, *args)

        monkeypatch.setattr(flowtrace, "_find_member_with_mean", recording_find)
        monkeypatch.setattr(flowtrace, "integrate_through", recording_integrate)
        res = level_trace(lambda e, t: 3.0 * np.abs(t) ** (1.0 / 3.0), lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=6))
        zeta = np.array(res.zeta)
        assert np.all(zeta[:, 0] == 0.0) and np.all(np.diff(zeta[:, 1]) > 0.0)
        assert max(map(len, anchors)) > 1

    def test_unreachable_mean_raises(self):
        lo, hi = linear_family_ends()
        mu_t = hi.integral() + 0.5
        with pytest.raises(MeanBisectionFailure) as info:
            flowtrace._find_member_with_mean(linear_field, lo, hi, mu_t, {})
        assert info.value.target == mu_t
        assert info.value.gap == pytest.approx(0.5)


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


@pytest.mark.parametrize("make, field", [
    (lambda: TraceParams(step=-1.0), "step"),
    (lambda: TraceParams(step=math.nan), "step"),
    (lambda: TraceParams(depth=2.5), "depth"),
    (lambda: TraceParams(root_tol=math.nan), "root_tol"),
    (lambda: PathSample(0.0, math.nan, [1.0, 2.0]), "step"),
], ids=["negative-step", "nan-step", "fractional-depth", "nan-root_tol", "path-nan-step"])
def test_rejects_bad_values(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        make()


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def box_and_point(draw):
    """A box with non-NaN edges and a point: any floats, its edges, +-0, +-inf or NaN."""
    edges = st.floats(allow_nan=False)
    box = [tuple(sorted((draw(edges), draw(edges)))) for _ in range(2)]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    point = [draw(st.one_of(st.floats(), st.sampled_from([*edge, *special])))
             for edge in box]
    return Rect(*box), point


class TestClamped:
    @given(box_and_point())
    @settings(max_examples=200)
    def test_same_bits_as_min_max(self, case):
        box, point = case
        seen = []
        flowtrace._clamped(lambda e, t: seen.append((e, t)), box)(*point)
        expected = [min(max(x, lo), hi) for x, (lo, hi) in zip(point, (box.eta, box.tau))]
        assert [_bits(x) for x in seen[0]] == [_bits(x) for x in expected]

    @given(box_and_point())
    @settings(max_examples=200)
    def test_march_clamps_with_the_same_bits(self, case):
        # _heun_march unwraps the clamped field and clamps inline: the anchor
        # and the predictor reach the field as min(max(.)) clamps them
        box, point = case
        seen = []
        field = flowtrace._clamped(lambda e, t: seen.append((e, t)) or 0.0, box)
        flowtrace._heun_march(field, *point, 1, 1, 0.5, -math.inf, math.inf)
        predictor = (point[0] + 0.5, point[1] + 0.5 * 0.0)
        expected = [[min(max(x, lo), hi) for x, (lo, hi) in zip(p, (box.eta, box.tau))]
                    for p in (point, predictor)]
        assert [[_bits(x) for x in p] for p in seen] == [[_bits(x) for x in p] for p in expected]


class TestLevelTrace:
    def test_field_gets_floats_and_F_node_arrays(self, monkeypatch):
        # F = eta + 0.3 tau vanishes between the nodes of most members, so the
        # node passes and the bisection both call it
        fields, grids, node_passes, points, members = set(), [], [], [], []

        def h(e, t):
            if isinstance(e, np.ndarray):
                grids.append((e, t))
            else:
                fields.add((type(e), type(t)))
            return 0.0

        def F(e, t):
            if isinstance(e, np.ndarray):
                node_passes.append((e, t))
            else:
                points.append((type(e), type(t)))
            return e + 0.3 * t

        root = flowtrace.monotone_root
        monkeypatch.setattr(flowtrace, "monotone_root",
                            lambda F, path, tol: members.append(path) or root(F, path, tol))
        level_trace(h, F, Rect.centered(0.5, 1.0), TraceParams(depth=3))
        # the field bound is one call on the sample grid, every other call floats
        (e, t), = grids
        shape = (flowtrace.SAMPLE_GRID,) * 2
        assert e.dtype == t.dtype == np.float64 and e.shape == t.shape == shape == (33, 33)
        assert np.array_equal(e, np.broadcast_to(np.linspace(-0.5, 0.5, 33)[:, None], shape))
        assert np.array_equal(t, np.broadcast_to(np.linspace(-1.0, 1.0, 33), shape))
        assert fields == {(float, float)}
        # one node pass per member, on its node arrays
        assert len(node_passes) == len(members) == 2 * (2**3 + 1)
        for (e, t), path in zip(node_passes, members):
            assert e.dtype == t.dtype == np.float64
            assert np.array_equal(e, path.etas) and np.array_equal(t, path.values)
        # the origin check and the bisection points are floats
        assert len(points) > 1 and set(points) == {(float, float)}

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

    @pytest.mark.parametrize("F", [lambda e, t: e + 1.0, lambda e, t: math.nan * (e + 1.0)],
                             ids=["one", "nan"])
    def test_rejects_nonzero_origin(self, F):
        with pytest.raises(NotCommonZero, match="the trace must start at a zero"):
            level_trace(lambda e, t: 0.0, F, Rect.centered(0.5, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_field_bound(self, bad):
        # h is finite at the origin but not on the whole sample grid
        def h(e, t):
            return np.where(np.abs(t) > 0.5, bad, 0.0)

        with pytest.raises(ValueError, match="field bound on the window is not finite"):
            level_trace(h, lambda e, t: e, Rect.centered(0.5, 1.0))

    def test_coverage_gap_matches_the_point_loop(self):
        res = level_trace(cubic_field, lambda e, t: e, Rect.centered(0.5, 1.0),
                          TraceParams(depth=4))
        for F, f_eps in ((lambda e, t: e, 0.05), (lambda e, t: e + t, 0.1)):
            assert coverage_gap(res, F, f_eps) == _ref_coverage_gap(res, F, f_eps)

    def test_coverage_gap_calls_F_once_on_the_grid(self):
        res = level_trace(lambda e, t: 0.0, lambda e, t: e + t,
                          Rect.centered(0.5, 1.0), TraceParams(depth=3))
        calls = []

        def F(e, t):
            calls.append((e, t))
            return e + t

        assert coverage_gap(res, F, f_eps=2 * 1.0 / 40)[2] > 0
        assert len(calls) == 1
        e, t = calls[0]
        shape = (verify.COVERAGE_GRID, verify.COVERAGE_GRID)
        assert e.shape == t.shape == shape and e.dtype == t.dtype == np.float64

    @pytest.mark.parametrize("h", [lambda e, t: e - t, lambda e, t: -t], ids=["e-t", "-t"])
    def test_rejects_an_infinite_eta_half_width(self, h):
        with pytest.raises(ValueError, match="window must be a finite rectangle"):
            level_trace(h, lambda e, t: t, Rect((-math.inf, math.inf), (-1.0, 1.0)))

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

    def test_diagnostics_are_json(self):
        res = level_trace(cubic_field, lambda e, t: e,
                          Rect.centered(0.5, 1.0), TraceParams(depth=3))
        report = json.loads(json.dumps(res.diagnostics))
        assert report["n_lower"] == res.diagnostics["n_lower"]
        lo, hi = res.band
        assert np.all(lo.values <= hi.values)

    def test_samples_satisfy_F_tolerance(self):
        params = TraceParams(depth=5)
        F = lambda e, t: e + t
        res = level_trace(lambda e, t: 0.0, F, Rect.centered(0.5, 1.0), params)
        for e, t in res.zeta:
            assert abs(F(e, t)) <= params.root_tol
