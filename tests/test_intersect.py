"""End-to-end intersection pipeline, oracles, and the cone checker."""

import contextlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from conftest import POLY_X11, POLY_X11_PLUS_T, POLY_X12, bench_module, graph_point
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisencurve import flowtrace, hsurface, intersect
from heisencurve.errors import (
    DependentNormals,
    MarginViolated,
    MonotonicityViolated,
    NotCommonZero,
)
from heisencurve.flowtrace import TraceParams
from heisencurve.hgroup import ORIGIN, Point, dist, inv, make_frame, mul
from heisencurve.hsurface import GraphPatch, PolySurface
from heisencurve.intersect import (
    ConeParams,
    IntersectionProblem,
    _coord_array,
    _directed,
    _points_to_polyline,
    brute_force_zero_cloud,
    choose_frame,
    cone_property_check,
    cone_width_for,
    curve_cloud_agreement,
    gradient_margin,
    intersect_surfaces,
    pair_lipschitz_bound,
)


BOX_SMALL = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))
# x11 + t - x11^3, whose zero set meets x12 = 0 in the curve t = x11^3 - x11
POLY_CUBIC = PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0, (3, 0, 0): -1.0})


def polyline_hausdorff(A, B) -> float:
    """Euclidean Hausdorff distance between two polylines (sampled curves)."""
    a = _coord_array(A)
    b = _coord_array(B)
    for name, arr in (("A", a), ("B", b)):
        if not len(arr):
            raise ValueError(f"polyline_hausdorff: polyline {name} is empty")
    return max(_points_to_polyline(a, b), _points_to_polyline(b, a))


def problem_a(**kw):
    return IntersectionProblem(POLY_X11, POLY_X12, **kw)


def problem_b(**kw):
    return IntersectionProblem(POLY_X12, POLY_X11_PLUS_T, **kw)


def _bending(k, m):
    """Gamma_{k,m} as (f1, f2): f1 = t + x11 - m x11^3 and f2 = x12 - k x11^2."""
    return (PolySurface({(0, 0, 1): 1.0, (1, 0, 0): 1.0, **({(3, 0, 0): -m} if m else {})}),
            PolySurface({(0, 1, 0): 1.0, (2, 0, 0): -k}))


def dist_to_vertical_axis(q):
    # the vertical coordinate is free along the axis, so only |x1| counts
    return math.hypot(q.x11, q.x12)


def dist_to_antidiagonal(q):
    """Tight upper bound for the distance from q to the line {(-s, 0, s)}.

    The displacement to the line point at parameter s has horizontal part
    (s + x11, x12) and twisted vertical part s (1 - x12) - t; choosing s to
    cancel the vertical part bounds the infimum, with a coarse scan backstop.
    """
    s_star = q.t / (1.0 - q.x12)
    best = dist(q, Point(-s_star, 0.0, s_star))
    for s in np.linspace(s_star - 0.01, s_star + 0.01, 41):
        best = min(best, dist(q, Point(-float(s), 0.0, float(s))))
    return best


@pytest.fixture(scope="module")
def curve_a():
    return intersect_surfaces(problem_a())


@pytest.fixture(scope="module")
def curve_b():
    return intersect_surfaces(problem_b())


class TestChooseFrame:
    def test_gradient_of_x12(self):
        fr = choose_frame(POLY_X12, ORIGIN)
        assert fr.b1 == (0.0, 1.0)

    def test_gradient_of_affine(self):
        fr = choose_frame(POLY_X11_PLUS_T, ORIGIN)
        assert fr.b1 == (1.0, 0.0)

    def test_axis_aligned(self):
        fr = choose_frame(POLY_X11, Point(0.0, 0.3, -0.2))
        assert fr.b1 == (1.0, 0.0)

    def test_vanishing_gradient_rejected(self):
        f = PolySurface({(0, 0, 1): 1.0})  # f = t
        with pytest.raises(MarginViolated):
            choose_frame(f, ORIGIN)


class TestIntersectSurfaces:
    def test_vertical_axis(self, curve_a):
        assert max(dist_to_vertical_axis(q) for q in curve_a.points) <= 1e-8
        ts = [q.t for q in curve_a.points]
        assert min(ts) <= -0.2 and max(ts) >= 0.2

    def test_antidiagonal(self, curve_b):
        assert max(dist_to_antidiagonal(q) for q in curve_b.points) <= 1e-6
        ts = [q.t for q in curve_b.points]
        assert min(ts) <= -0.2 and max(ts) >= 0.2

    def test_dependent_normals(self):
        with pytest.raises(DependentNormals):
            intersect_surfaces(IntersectionProblem(POLY_X12, POLY_X12))

    def test_base_point_must_be_zero(self):
        with pytest.raises(NotCommonZero):
            intersect_surfaces(IntersectionProblem(POLY_X11, POLY_X12, p=Point(0.3, 0.0, 0.0)))

    def test_base_point_nan_rejected(self):
        # both surfaces evaluate to inf - inf = NaN at p, which is no common zero
        big = {(2, 0, 0): 1e300, (0, 2, 0): -1e300}
        f1 = PolySurface({**big, (1, 0, 0): 1.0})
        f2 = PolySurface({**big, (0, 1, 0): 1.0})
        with pytest.raises(NotCommonZero):
            IntersectionProblem(f1, f2, p=Point(1e10, 1e10, 0.0)).validate()

    def test_base_point_overflow_rejected(self):
        # f2 = x11 + t^3 at t = 1e300: t**3 overflows
        f2 = PolySurface({(1, 0, 0): 1.0, (0, 0, 3): 1.0})
        with pytest.raises(NotCommonZero, match="f2 overflows at the base point"):
            IntersectionProblem(POLY_X12, f2, p=Point(0.0, 0.0, 1e300)).validate()

    def test_base_point_gradient_overflow_rejected(self):
        # f1 = x11 t^3 is 1e-100 at p, but X2 f1 = 3 x11^2 t^2 overflows
        f1 = PolySurface({(1, 0, 3): 1.0})
        with pytest.raises(DependentNormals, match="gradient of f1 overflows"):
            IntersectionProblem(f1, POLY_X12, p=Point(1e200, 0.0, 1e-100)).validate()

    @pytest.mark.parametrize("which", ["f1", "f2"])
    def test_overflowing_gradient_is_dependent_normals(self, which):
        # 1e308 x11^3 + x12 vanishes at the origin, but X1 of it has the
        # coefficient 3e308 = inf: a named failure, not a bare OverflowError
        steep = PolySurface({(0, 1, 0): 1.0, (3, 0, 0): 1e308})
        pair = (steep, POLY_X11) if which == "f1" else (POLY_X11, steep)
        with pytest.raises(DependentNormals, match=f"gradient of {which} overflows"):
            intersect_surfaces(IntersectionProblem(*pair))

    def test_graph_field_overflowing_gradient_rejected(self):
        steep = PolySurface({(1, 0, 0): 1.0, (3, 0, 0): 1e308})
        with pytest.raises(NotCommonZero, match="the horizontal gradient of f2 overflows"):
            intersect.graph_field(steep, ORIGIN, 0.5, (-2.0, 2.0))

    def test_translation_overflow_rejected(self):
        # f2 = x12 + t^2 and f1 = x11 - 1e200 vanish at p = (1e200, 0, 0) with
        # independent normals, but t -> t + 1e200 x12 gives f2's translate an
        # x12^2 coefficient of 1e400
        f1 = PolySurface({(1, 0, 0): 1.0, (0, 0, 0): -1e200})
        f2 = PolySurface({(0, 1, 0): 1.0, (0, 0, 2): 1.0})
        prob = IntersectionProblem(f1, f2, p=Point(1e200, 0.0, 0.0))
        prob.validate()
        with pytest.raises(NotCommonZero, match="f2 overflows when translated"):
            intersect_surfaces(prob)

    def test_graph_field_checks_the_base_point(self):
        f2 = PolySurface({(1, 0, 0): 1.0, (0, 0, 3): 1.0})
        with pytest.raises(NotCommonZero, match="f2 overflows at the base point"):
            intersect.graph_field(f2, Point(0.0, 0.0, 1e300), 0.5, (-2.0, 2.0))

    def test_residuals_along_curve(self, curve_b):
        assert curve_b.meta["residual_f1"] <= 1e-8
        assert curve_b.meta["residual_f2"] <= 1e-8

    def test_injectivity(self, curve_a, curve_b):
        for curve in (curve_a, curve_b):
            assert min(dist(a, b) for a, b in zip(curve.points, curve.points[1:])) > 1e-12

    def test_trace_report_is_json(self, curve_b):
        json.dumps(curve_b.meta)

    def test_extremal_report(self, curve_b):
        # a polynomial f2: the tau-slope bound of its field replaces the eps paths
        cf = intersect.graph_field(POLY_X11_PLUS_T, ORIGIN, 0.5, (-2.0, 2.0))
        ext = json.loads(json.dumps(curve_b.meta, allow_nan=False))["trace"]["extremal"]
        assert ext == {"eps": [], "gap_min": [], "gap_max": [], "dropped_min": [],
                       "dropped_max": [], "converged": True,
                       "tau_lipschitz": abs(cf.beta) * cf.patch.tau_lipschitz}
        assert math.isfinite(ext["tau_lipschitz"])

    def test_params_normalized(self, curve_a, curve_b):
        # the arc length is divided by its own last entry, so the last
        # parameter is 1.0 exactly whatever the summation (Python 3.12's sum()
        # of floats is compensated, and acc / sum(seps) exceeded 1 on B and C)
        curve_c = intersect_surfaces(IntersectionProblem(
            POLY_X12, POLY_CUBIC, window_half=0.2, bracket=(-0.5, 0.5)))
        for curve in (curve_a, curve_b, curve_c):
            assert curve.params[0] == 0.0
            assert curve.params[-1] == 1.0
            assert all(b > a for a, b in zip(curve.params, curve.params[1:]))
            assert all(x <= 1.0 for x in curve.params)

    def test_lift_matches_the_per_sample_loop(self, curve_a, curve_b):
        # reference only: the running sum over consecutive distances, and the
        # residuals point by point (both pairs are linear, so array and float
        # evaluations round alike on every host)
        for curve, (f1, f2) in ((curve_a, (POLY_X11, POLY_X12)),
                                (curve_b, (POLY_X12, POLY_X11_PLUS_T))):
            arc = [0.0]
            for a, b in zip(curve.points, curve.points[1:]):
                arc.append(arc[-1] + dist(a, b))
            assert curve.params == [s / arc[-1] for s in arc]
            for key, f in (("residual_f1", f1), ("residual_f2", f2)):
                assert curve.meta[key] == max(abs(f(q)) for q in curve.points)

    def test_membership_consistency(self, curve_b):
        # re-solving the graph from each planar preimage reproduces the point
        curve = curve_b
        patch = GraphPatch(make_frame(curve.meta["frame"]["b1"]), POLY_X11_PLUS_T)
        for n, q in list(zip(curve.planar, curve.points))[::8]:
            assert dist(graph_point(patch, n.eta, n.tau), q) <= 1e-10

    def test_translated_problem(self):
        # conjugating by a left translation moves the curve with the point
        p = Point(0.05, -0.02, 0.01)
        from heisencurve.hgroup import inv

        q = inv(p)
        f1, f2 = POLY_X12.translated(p), POLY_X11_PLUS_T.translated(p)
        curve = intersect_surfaces(IntersectionProblem(f1, f2, p=q,
                                                       trace=TraceParams(depth=4)))
        for x in curve.points[::16]:
            assert abs(f1(x)) <= 1e-8
            assert abs(f2(x)) <= 1e-8

    def test_symmetry_under_swap(self, curve_b):
        trace = TraceParams(depth=6)
        c2 = intersect_surfaces(IntersectionProblem(POLY_X11_PLUS_T, POLY_X12, trace=trace))
        assert polyline_hausdorff(curve_b.points, c2.points) <= 2.0 * trace.step

    @pytest.mark.parametrize("depth", [2, 6])
    def test_curved_closed_form(self, depth):
        # C = {x12, x11 + t - x11^3}: the curve t = x11^3 - x11 on x12 = 0,
        # each graph solve a Newton iteration on a cubic
        curve = intersect_surfaces(IntersectionProblem(
            POLY_X12, POLY_CUBIC, window_half=0.2, bracket=(-0.5, 0.5),
            trace=TraceParams(depth=depth)))
        assert len(curve) >= 2 * 2**depth + 1
        for q in curve.points:
            assert q.x12 == 0.0
            assert abs(q.t - (q.x11**3 - q.x11)) <= 1e-12

    @pytest.mark.parametrize("k, m, half", [(k, m, 0.5) for k in (0.5, 1.0, 2.0)
                                            for m in (0.0, 1.0)]
                             + [(k, 2.0, 0.3) for k in (0.5, 1.0, 2.0)])
    def test_bending_family(self, k, m, half):
        # Gamma_{k,m} meets in (s, k s^2, -s + m s^3), a curve that bends in
        # x12.  The sample count is not asserted: the interval collapse leaves
        # 125 on Gamma_{2,1}.
        curve = intersect_surfaces(IntersectionProblem(*_bending(k, m), window_half=half))
        for q in curve.points:
            assert abs(q.x12 - k * q.x11**2) <= 1e-10
            assert abs(q.t + q.x11 - m * q.x11**3) <= 1e-10
        assert all(a != b for a, b in zip(curve.points, curve.points[1:]))


def _ref_monotone_root(F, path, root_tol):
    """Reference only: monotone_root with its node values taken float by float."""
    etas = path.etas.tolist()
    vals = np.array([F(e, t) for e, t in zip(etas, path.values.tolist())])
    d = np.diff(vals)
    tol = 1e-9 * (float(np.max(vals) - np.min(vals)) + 1e-30)
    if np.any(d > tol) and np.any(d < -tol):
        raise MonotonicityViolated("sampled increments change sign")
    sign = 1.0 if vals[-1] >= vals[0] else -1.0
    g = sign * vals
    hits = np.nonzero(np.abs(vals) <= root_tol)[0]
    if len(hits):
        return (etas[hits[0]], float(path.values[hits[0]])), vals
    cross = np.nonzero((g[:-1] < 0.0) & (g[1:] > 0.0))[0]
    if not len(cross):
        return None, vals
    i = int(cross[0])
    a, b, ga = etas[i], etas[i + 1], g[i]
    for _ in range(200):
        m = 0.5 * (a + b)
        gm = sign * F(m, path.tau_at(m))
        if abs(gm) <= root_tol or b - a < 1e-14:
            return (m, path.tau_at(m)), vals
        if ga * gm < 0.0:
            b = m
        else:
            a, ga = m, gm
    m = 0.5 * (a + b)
    return (m, path.tau_at(m)), vals


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MonotonicityViolated as e:
        return e


PAIRS = bench_module("pairs")


def cubic_problem(seed, k, depth):
    """The benchmark's seeded cubic pair (seed, k), as a problem at depth."""
    pair = PAIRS.draw_pair(seed, k)
    f1, f2 = (PolySurface(pair[f]) for f in ("f1", "f2"))
    return IntersectionProblem(f1, f2, p=Point(*pair["p"]), window_half=PAIRS.WINDOW,
                               bracket=PAIRS.BRACKET, trace=TraceParams(depth=depth))


def _nesting_gap(coarse, fine) -> float:
    """Largest distance (max norm) from a sample of coarse to the nearest of fine."""
    a, b = _coord_array(coarse.points), _coord_array(fine.points)
    return float(np.max(np.min(np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2), axis=1)))


class TestSamplesNest:
    """A dyadic family of depth d is part of the family of depth d + 2, so
    every sample of the coarser curve is a sample of the finer one."""

    @pytest.mark.parametrize("pair, d, fine", [
        ((POLY_X12, POLY_X11_PLUS_T), 2, 6),
        (_bending(2.0, 2.0), 2, 6),
        (_bending(4.0, 0.0), 2, 6),
    ], ids=["B", "G22", "G40"])
    def test_reference_curves(self, pair, d, fine):
        coarse, finer = (intersect_surfaces(IntersectionProblem(*pair, trace=TraceParams(depth=n)))
                         for n in (d, fine))
        assert _nesting_gap(coarse, finer) <= 1e-12

    @pytest.mark.parametrize("k", range(8))
    def test_cubic_pairs(self, k):
        coarse, fine = (intersect_surfaces(cubic_problem(1, k, depth)) for depth in (1, 3))
        assert _nesting_gap(coarse, fine) <= 1e-12


STEEP = PolySurface({(1, 0, 0): 1.0, (2, 0, 0): 1e20})


def _float_field_bound(prob) -> float:
    """The field bound as the float loop over the sample grid took it."""
    cf = intersect.graph_field(prob.f2, prob.p, prob.window_half, prob.bracket)
    cf.phi(0.0, 0.0)  # the origin check that precedes the bound in level_trace
    axis = np.linspace(-prob.window_half, prob.window_half, flowtrace.SAMPLE_GRID)
    return max(abs(cf.rhs(float(e), float(t))) for e in axis for t in axis)


class TestFieldBound:
    """level_trace's field bound, one array call of CharField.rhs on the grid."""

    @pytest.mark.parametrize("tag", ["A", "B"])
    def test_linear_bound_is_the_float_loop(self, tag, curve_a, curve_b):
        curve, prob = (curve_a, problem_a()) if tag == "A" else (curve_b, problem_b())
        assert curve.meta["trace"]["field_bound"] == _float_field_bound(prob)

    def test_cubic_bound_within_ulps(self):
        # numpy's array power may round apart from the scalar x**e in the last bit
        prob = IntersectionProblem(POLY_X12, POLY_CUBIC, window_half=0.2, bracket=(-0.5, 0.5),
                                   trace=TraceParams(depth=1))
        got = intersect_surfaces(prob).meta["trace"]["field_bound"]
        ref = _float_field_bound(prob)
        assert abs(got - ref) <= 4 * math.ulp(ref)

    @pytest.mark.parametrize("seed, k", [(1, 0), (2, 3), (3, 3)])
    def test_cubic_pair_bound_within_solver_tolerance(self, seed, k):
        # the float loop starts each solve from the previous root, the array solve
        # from the base root; each stops once |f2| <= GTOL, so the roots may stop
        # up to GTOL / |Y1 f2| apart
        prob = cubic_problem(seed, k, 1)
        got = intersect_surfaces(prob).meta["trace"]["field_bound"]
        cf = intersect.graph_field(prob.f2, prob.p, prob.window_half, prob.bracket)
        tol = abs(cf.beta) * hsurface.GTOL / cf.patch.y1_min_sampled
        assert abs(got - _float_field_bound(prob)) <= tol


class TestHarvest:
    @pytest.mark.parametrize("problem", [
        problem_a(trace=TraceParams(depth=3)),
        problem_b(trace=TraceParams(depth=3)),
        cubic_problem(1, 0, 2),
        cubic_problem(2, 3, 2),
        IntersectionProblem(STEEP, POLY_X12, trace=TraceParams(depth=2)),
    ], ids=["A", "B", "cubic-1-0", "cubic-2-3", "steep"])
    def test_roots_match_the_float_loop(self, problem, monkeypatch):
        # each member's node pass is one array call of F; its node signs agree
        # exactly with F taken float by float, and so do the roots to rounding
        members = []
        root = flowtrace.monotone_root

        def both(F, path, root_tol):
            got = _outcome(root, F, path, root_tol)
            members.append((got, _outcome(_ref_monotone_root, F, path, root_tol)))
            if isinstance(got, Exception):
                raise got
            return got

        monkeypatch.setattr(flowtrace, "monotone_root", both)
        if problem.f1 is STEEP:
            with pytest.raises(MonotonicityViolated):
                intersect_surfaces(problem)
        else:
            intersect_surfaces(problem)
            assert len(members) == 2 * (2**problem.trace.depth + 1)
            assert any(got[0] is not None for got, _ in members)
        for got, ref in members:
            if isinstance(ref, Exception):
                assert isinstance(got, MonotonicityViolated)
                continue
            (root_got, vals), (root_ref, vals_ref) = got, ref
            assert np.array_equal(np.sign(vals), np.sign(vals_ref))
            assert np.array_equal(np.sign(np.diff(vals)), np.sign(np.diff(vals_ref)))
            assert (root_got is None) == (root_ref is None)
            if root_got is not None:
                assert all(type(x) is float for x in root_got)
                assert max(abs(x - y) for x, y in zip(root_got, root_ref)) <= 1e-15

    @pytest.mark.parametrize("problem", [problem_a, problem_b])
    def test_families_share_raw_solutions(self, problem, monkeypatch):
        # the characteristic field has a finite tau-slope bound, so tau_hat is
        # tau_bar, and the upper family's first candidate is the lower's last
        # one, marched once
        calls = [0]
        integrate = flowtrace.integrate_through

        def counting(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(flowtrace, "integrate_through", counting)
        intersect_surfaces(problem(trace=TraceParams(depth=2)))
        assert calls[0] == 12


class TestZeroCloud:
    def test_axis_cluster(self):
        box = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        cloud = brute_force_zero_cloud(POLY_X11, POLY_X12, box, grid_n=21)
        assert cloud
        assert max(math.hypot(q.x11, q.x12) for q in cloud) <= 0.2 + 1e-12

    def test_disjoint_box_empty(self):
        box = ((2.0, 3.0), (2.0, 3.0), (-1.0, 1.0))
        assert brute_force_zero_cloud(POLY_X11, POLY_X12, box, grid_n=11) == []

    def test_antidiagonal_cluster(self):
        cloud = brute_force_zero_cloud(POLY_X12, POLY_X11_PLUS_T, BOX_SMALL, grid_n=41)
        assert cloud
        for q in cloud:
            assert abs(q.x12) <= 0.021
            assert abs(q.x11 + q.t) <= 0.021

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            brute_force_zero_cloud(POLY_X11, POLY_X12, BOX_SMALL, grid_n=1)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_slabs_match_one_block(self, rows):
        grid_n = 41
        whole = brute_force_zero_cloud(POLY_X12, POLY_X11_PLUS_T, BOX_SMALL, grid_n=grid_n)
        with mock.patch.object(intersect, "CLOUD_BLOCK", rows * grid_n * grid_n):
            sliced = brute_force_zero_cloud(POLY_X12, POLY_X11_PLUS_T, BOX_SMALL, grid_n=grid_n)
        assert whole and sliced == whole

    @pytest.mark.parametrize("pair", [(POLY_X11, POLY_X12), (POLY_X12, POLY_X11_PLUS_T)],
                             ids=["A", "B"])
    def test_matches_full_grid_on_paper_problems(self, pair):
        assert brute_force_zero_cloud(*pair, BOX_SMALL, 201) == _ref_zero_cloud(
            *pair, BOX_SMALL, 201)

    @given(st.data(), st.integers(min_value=1, max_value=3), st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_matches_full_grid(self, data, degree, grid_n):
        self._check_random_pair(data, degree, grid_n)

    @given(st.data(), st.integers(min_value=4, max_value=9), st.integers(2, 24))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_grid_high_degree(self, data, degree, grid_n):
        self._check_random_pair(data, degree, grid_n)

    @staticmethod
    def _check_random_pair(data, degree, grid_n):
        box = data.draw(boxes())
        zero = data.draw(st.tuples(*(st.floats(lo, hi) for lo, hi in box)))
        pair = tuple(data.draw(planted_polys(degree, zero)) for _ in range(2))
        assert brute_force_zero_cloud(*pair, box, grid_n) == _ref_zero_cloud(*pair, box, grid_n)

    @pytest.mark.parametrize("box", [
        ((2.0, 3.0), (2.0, 3.0), (-1.0, 1.0)),
        ((5.0, 5.5), (-3.0, 3.0), (10.0, 10.01)),
    ])
    def test_far_box(self, box):
        # every cube lies far from the zero set, so only the 5^3 centres are evaluated
        with _counted_points() as seen:
            assert brute_force_zero_cloud(POLY_X11, POLY_X12, box, grid_n=33) == []
        assert seen["points"] == 5**3
        assert _ref_zero_cloud(POLY_X11, POLY_X12, box, 33) == []

    def test_exclusion_prunes_the_grid(self):
        with _counted_points() as seen:
            cloud = brute_force_zero_cloud(POLY_X11, POLY_X12, BOX_SMALL, grid_n=201)
        assert len(cloud) == 1005
        assert seen["points"] < 0.02 * 201**3

    @pytest.mark.parametrize("coeffs, box", [
        # 2 x11^2 is inf at x11 = +-1e154, while the band is 8.9e307
        ({(2, 0, 0): 2.0}, ((-1e154, 1e154), (-1.0, 1.0), (-1.0, 1.0))),
        # 2 (x11^2 - x12^2) is inf - inf = NaN where both terms overflow;
        # its partials' bounds are 4e154, so the band 1.3e308 stays finite
        ({(2, 0, 0): 2.0, (0, 2, 0): -2.0}, ((-1e154, 1e154), (-1e154, 1e154), (-1.0, 1.0))),
    ], ids=["inf", "nan"])
    def test_non_finite_values_keep_cubes(self, coeffs, box):
        pair = (PolySurface(coeffs), POLY_X12)
        with np.errstate(all="ignore"):
            total = np.abs(pair[0].value_at(*np.meshgrid(*intersect._axes(box, 19),
                                                           indexing="ij")))
            assert not np.isfinite(total).all()
            assert brute_force_zero_cloud(*pair, box, 19) == _ref_zero_cloud(*pair, box, 19)

    @pytest.mark.parametrize("coeffs, box", [
        # values and gradient bound overflow
        ({(0, 0, 3): 1e300, (1, 0, 0): 1.0}, ((-1.0, 1.0), (-1.0, 1.0), (-1e3, 1e3))),
        # partials' bounds 2e305 each: finite, but 2 * spacing * bound is not
        ({(2, 0, 0): 1e300, (0, 2, 0): -1e300}, ((-1e5, 1e5), (-1e5, 1e5), (-1.0, 1.0))),
        # finite values, but the coefficient 3e308 of d/dx11 overflows
        ({(1, 0, 0): 1.0, (3, 0, 0): 1e308}, ((-0.2, 0.2),) * 3),
        # gradient bound 1.2e154 and spacing 1.1e154: only their product overflows
        ({(2, 0, 0): 0.06}, ((-1e155, 1e155), (-1.0, 1.0), (-1.0, 1.0))),
    ], ids=["gradient", "band", "coefficient", "product"])
    def test_overflowing_band_rejected(self, coeffs, box):
        # the band eps would be inf, so the reference takes every grid point with a
        # finite total as a zero; the oracle raises instead
        pair = (PolySurface(coeffs), POLY_X12)
        with np.errstate(all="ignore"):
            total = np.abs(pair[0].value_at(*np.meshgrid(*intersect._axes(box, 19),
                                                           indexing="ij")))
            assert len(_ref_zero_cloud(*pair, box, 19)) == np.isfinite(total).sum()
            with pytest.raises(OverflowError, match="gradient bound"):
                brute_force_zero_cloud(*pair, box, 19)

    def test_huge_finite_gradient_bound_accepted(self):
        # the squares of the partials' bounds 1e200 overflow, their norm does not
        pair = (PolySurface({(1, 0, 0): 1e200}), POLY_X12)
        cloud = brute_force_zero_cloud(*pair, BOX_SMALL, 21)
        assert cloud == _ref_zero_cloud(*pair, BOX_SMALL, 21)
        assert Point(0.0, 0.0, 0.0) in cloud

    def test_exclusion_is_false_on_non_finite_operands(self):
        nan, inf = math.nan, math.inf
        centre = np.array([5.0, nan, inf, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0])
        spread = np.array([1.0, 1.0, 1.0, nan, inf, 1.0, 1.0, 1.0, 1.0])
        eps = np.array([1.0, 1.0, 1.0, 1.0, 1.0, nan, inf, 1.0, 1.0])
        allowance = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, inf, 0.0])
        assert intersect._excluded(centre, spread, eps, allowance).tolist() == [
            True] + [False] * 8


def _ref_zero_cloud(f1, f2, box, grid_n):
    """The full-grid slab loop the cube exclusion replaced, kept as its reference."""
    xs, ys, ts = (np.linspace(lo, hi, grid_n) for lo, hi in box)
    spacing = max((hi - lo) / (grid_n - 1) for lo, hi in box)
    bound = 0.0
    for f in (f1, f2):
        bound = max(bound, f.max_euclidean_gradient(box))
    eps = 2.0 * spacing * bound
    Y = ys[None, :, None]
    T = ts[None, None, :]
    cloud = []
    for rows in intersect._row_blocks(grid_n, grid_n * grid_n, 2**20):
        X = xs[rows, None, None]
        total = np.abs(f1.value_at(X, Y, T)) + np.abs(f2.value_at(X, Y, T))
        hits = np.broadcast_to(total < eps, (len(X), grid_n, grid_n))
        cloud += [Point(float(xs[rows.start + i]), float(ys[j]), float(ts[k]))
                  for i, j, k in np.argwhere(hits)]
    return cloud


@contextlib.contextmanager
def _counted_points():
    """Counts the points at which the cloud evaluates |f1| + |f2|."""
    seen = {"points": 0}
    original = intersect._zero_total

    def counted(f1, f2, *coords):
        seen["points"] += np.broadcast(*coords).size
        return original(f1, f2, *coords)

    with mock.patch.object(intersect, "_zero_total", counted):
        yield seen


@st.composite
def boxes(draw):
    """Boxes with independent centres and half-widths per axis."""
    box = []
    for _ in range(3):
        c = draw(st.floats(-1.0, 1.0))
        w = draw(st.floats(0.01, 1.0))
        box.append((c - w, c + w))
    return tuple(box)


@st.composite
def planted_polys(draw, degree, zero):
    """A random polynomial of total degree <= degree that vanishes near zero."""
    exps = st.tuples(*(st.integers(0, degree),) * 3).filter(lambda e: 0 < sum(e) <= degree)
    coeffs = draw(st.dictionaries(exps, st.floats(-3.0, 3.0), min_size=1, max_size=10))
    coeffs[(0, 0, 0)] = -PolySurface(coeffs).value_at(*zero)
    return PolySurface(coeffs)


def in_cone(vertex, y, cp):
    """Whether y lies in the cone at vertex: _in_cone on one-row arrays."""
    return bool(intersect._in_cone(_coord_array([vertex]), _coord_array([y]), cp)[0])


class TestConeProperty:
    def test_vertex_inside_own_cone(self):
        cp = ConeParams(1.0, 1.0)
        assert in_cone(ORIGIN, ORIGIN, cp)

    def test_horizontal_offset_inside(self):
        assert in_cone(ORIGIN, Point(1.0, 0.0, 0.0), ConeParams(1.0, 2.0))

    def test_vertical_offset_outside(self):
        assert not in_cone(ORIGIN, Point(0.0, 0.0, 1.0), ConeParams(1.0, 2.0))

    def test_width_cut(self):
        assert not in_cone(ORIGIN, Point(1.0, 0.0, 0.0), ConeParams(1.0, 0.5))

    def test_vertical_samples_clean(self):
        samples = [Point(0.0, 0.0, 0.01 * k) for k in range(-10, 11)]
        for alpha in (1.0, 2.0, 5.0):
            report = cone_property_check(samples, ConeParams(alpha, 0.5))
            assert report.ok

    def test_horizontal_line_violations(self):
        samples = [Point(0.01 * k, 0.0, 0.0) for k in range(-10, 11)]
        report = cone_property_check(samples, ConeParams(1.0, 0.5))
        assert not report.ok

    def test_single_sample_vacuous(self):
        report = cone_property_check([Point(1.0, 2.0, 3.0)], ConeParams(1.0, 1.0))
        assert report.ok
        assert report.n_samples == 1

    def test_traced_curves_have_cone_property(self, curve_a, curve_b):
        for curve, pair in ((curve_a, (POLY_X11, POLY_X12)),
                               (curve_b, (POLY_X12, POLY_X11_PLUS_T))):
            lam = gradient_margin(pair, BOX_SMALL, grid_n=5)
            lip = pair_lipschitz_bound(pair, BOX_SMALL)
            for alpha in (1.0, 2.0, 5.0):
                r = cone_width_for(alpha, lam, lip, r_max=0.2)
                report = cone_property_check(curve.points, ConeParams(alpha, r, lam))
                assert report.ok, f"alpha={alpha}: {len(report.violations)} violations"


def _ref_cone_contains(vertex, y, cp):
    """The scalar membership test the array formula replaced."""
    z = mul(inv(vertex), y)
    z1 = math.hypot(z.x11, z.x12)
    return math.sqrt(abs(z.t)) <= cp.alpha * z1 and z1 <= cp.r


def _ref_cone_violations(samples, cp):
    """The double loop over ordered pairs the array formula replaced."""
    bad = []
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if i == j:
                continue
            if _ref_cone_contains(x, y, cp):
                bad.append((i, j))
    return bad


def _bench_lines():
    """The verification benchmark's 33-sample lines A and B and their kinked copies,
    as (tag, surface pair, samples)."""
    s = [float(v) for v in np.linspace(-0.25, 0.25, 33)]
    lines = {"A": ((POLY_X11, POLY_X12), [Point(0.0, 0.0, v) for v in s]),
             "B": ((POLY_X12, POLY_X11_PLUS_T), [Point(-v, 0.0, v) for v in s])}
    out = []
    for tag, (pair, points) in lines.items():
        kinked = list(points)
        nb = kinked[17]
        kinked[16] = Point(nb.x11 + 0.005, nb.x12, nb.t)
        out += [(tag, pair, points), (f"{tag}-kinked", pair, kinked)]
    return out


BENCH_LINES = _bench_lines()


class TestConeArrays:
    @pytest.mark.parametrize("tag, pair, points", BENCH_LINES,
                             ids=[case[0] for case in BENCH_LINES])
    def test_bench_lines_match_double_loop(self, tag, pair, points):
        lam = gradient_margin(pair, BOX_SMALL, grid_n=5)
        lip = pair_lipschitz_bound(pair, BOX_SMALL)
        found = []
        for alpha in (1.0, 2.0, 5.0):
            cp = ConeParams(alpha, cone_width_for(alpha, lam, lip, r_max=0.2), lam)
            got = cone_property_check(points, cp).violations
            assert got == _ref_cone_violations(points, cp)
            found += got
        # the lines are clean, and the kink is caught
        assert bool(found) == tag.endswith("kinked")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_samples_match_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        points = [Point(*map(float, row))
                  for row in rng.uniform(-0.3, 0.3, size=(int(rng.integers(2, 60)), 3))]
        total = 0
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for r in (0.05, 0.2, 1.0):
                cp = ConeParams(alpha, r)
                got = cone_property_check(points, cp).violations
                assert got == _ref_cone_violations(points, cp)
                with mock.patch.object(intersect, "AGREEMENT_BLOCK", 7):  # one row a block
                    assert cone_property_check(points, cp).violations == got
                total += len(got)
        assert total

    def test_one_pair_matches_scalar_test(self):
        rng = np.random.default_rng(7)
        cp = ConeParams(2.0, 0.4)
        for row in rng.uniform(-0.3, 0.3, size=(500, 6)):
            x, y = Point(*map(float, row[:3])), Point(*map(float, row[3:]))
            assert in_cone(x, y, cp) == _ref_cone_contains(x, y, cp)

    def test_face_pair_uses_correctly_rounded_norm(self):
        # y sits on the cone face sqrt(|t|) = |y_1| with |y_1| = hypot(0.5, 0.3)
        # rounded correctly; a hypot one ulp low, as numpy's can be, drops it
        h = math.hypot(0.5, 0.3)
        t = h * h
        while math.sqrt(t) > h:
            t = math.nextafter(t, 0.0)
        while math.sqrt(math.nextafter(t, math.inf)) <= h:
            t = math.nextafter(t, math.inf)
        y = Point(0.5, 0.3, t)
        cp = ConeParams(1.0, 1.0)
        assert in_cone(ORIGIN, y, cp) and _ref_cone_contains(ORIGIN, y, cp)
        got = cone_property_check([ORIGIN, y], cp).violations
        assert got == _ref_cone_violations([ORIGIN, y], cp) == [(0, 1), (1, 0)]

    def test_overflowing_displacement_rejected(self):
        with pytest.raises(ValueError):
            cone_property_check([Point(1e308, 0.0, 0.0), Point(-1e308, 0.0, 0.0)],
                                ConeParams(1.0, 1.0))

    def test_empty_samples(self):
        report = cone_property_check([], ConeParams(1.0, 1.0))
        assert report.ok and report.n_samples == 0


def _ref_gradient_margin(pair, box, grid_n=5):
    """The loop over grid points, one Point and one SVD each, that gradient_margin replaced."""
    worst = math.inf
    for x in np.linspace(*box[0], grid_n):
        for y in np.linspace(*box[1], grid_n):
            for t in np.linspace(*box[2], grid_n):
                q = Point(float(x), float(y), float(t))
                rows = np.array([f.grad_at(q.x11, q.x12, q.t) for f in pair])
                if not np.isfinite(rows).all():
                    raise OverflowError("a horizontal gradient overflows")
                worst = min(worst, float(np.linalg.svd(rows, compute_uv=False)[-1]))
    return worst


CUBIC_MONOMIALS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
                   if i + j + k <= 3]
cubics = st.dictionaries(st.sampled_from(CUBIC_MONOMIALS), st.floats(-1.0, 1.0),
                         max_size=8).map(PolySurface)


def _dyadic_box(corners):
    """The box with corners k / 16: every power of a cubic on its 5-point grid is exact."""
    return tuple((lo / 16.0, (lo + size) / 16.0) for lo, size in corners)


dyadic_boxes = st.lists(st.tuples(st.integers(-16, 16), st.integers(0, 16)),
                        min_size=3, max_size=3).map(_dyadic_box)


class TestGradientMargin:
    @given(cubics, cubics, dyadic_boxes)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_point_loop(self, f1, f2, box):
        # numpy's array power may round differently from the scalar power;
        # on these grids every power is exact, so the two agree bit for bit
        assert gradient_margin((f1, f2), box) == _ref_gradient_margin((f1, f2), box)

    @given(cubics, cubics, st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
                                    min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_point_loop_to_rounding(self, f1, f2, corners):
        # elsewhere a power may differ by an ulp or so; by Weyl's inequality
        # the smallest singular value moves by no more than the gradients do
        box = tuple((lo, lo + size) for lo, size in corners)
        scale = sum(q.termwise_bound(box) for f in (f1, f2) for q in f.grad_poly)
        eps = float(np.finfo(float).eps)
        assert abs(gradient_margin((f1, f2), box) - _ref_gradient_margin((f1, f2), box)) \
            <= 64.0 * eps * (1.0 + scale)

    def test_overflow_raises(self):
        # X1 of x11^3 is 3 x11^2, which overflows at x11 = 1e200
        steep = PolySurface({(3, 0, 0): 1.0})
        box = ((0.0, 1e200), (0.0, 1.0), (0.0, 1.0))
        for margin in (gradient_margin, _ref_gradient_margin):
            with pytest.raises(OverflowError):
                margin((steep, POLY_X12), box)

    def test_identity_pair(self):
        assert gradient_margin((POLY_X11, POLY_X12), BOX_SMALL) == pytest.approx(1.0)

    def test_rank_deficient_pair(self):
        assert gradient_margin((POLY_X12, POLY_X12), BOX_SMALL) == pytest.approx(0.0)

    def test_analytic_pair_on_small_box(self):
        box = ((-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1))
        val = gradient_margin((POLY_X12, POLY_X11_PLUS_T), box, grid_n=5)
        # worst corner: rows (0,1) and (0.9, +-0.1); smaller singular value
        expected = np.linalg.svd(np.array([[0.0, 1.0], [0.9, 0.1]]),
                                 compute_uv=False)[-1]
        assert val == pytest.approx(expected, abs=1e-12)
        assert 0.85 <= val <= 1.0


class TestCurveCloudAgreement:
    def test_problem_a_small_grid(self, curve_a):
        cloud = brute_force_zero_cloud(POLY_X11, POLY_X12, BOX_SMALL, grid_n=41)
        spacing = 0.4 / 40
        assert curve_cloud_agreement(curve_a.points, cloud, BOX_SMALL) <= 2 * spacing + 1e-12

    def test_problem_b_small_grid(self, curve_b):
        cloud = brute_force_zero_cloud(POLY_X12, POLY_X11_PLUS_T, BOX_SMALL, grid_n=41)
        spacing = 0.4 / 40
        assert curve_cloud_agreement(curve_b.points, cloud, BOX_SMALL) <= 2 * spacing + 1e-12

    def test_empty_cloud_rejected(self, curve_a):
        with pytest.raises(ValueError, match="zero cloud is empty"):
            curve_cloud_agreement(curve_a.points, [], BOX_SMALL)

    def test_empty_polyline_rejected(self, curve_a):
        with pytest.raises(ValueError, match="polyline B is empty"):
            polyline_hausdorff(curve_a.points, [])

    @pytest.mark.parametrize("tag, value", [
        ("A", 0.0020000000000000018),
        ("B", 0.0040000000000000036),
    ])
    def test_closed_form_lines_on_fine_grid(self, tag, value):
        # the verification benchmark's oracle inputs: 33 samples of the exact
        # lines and the 201^3 cloud over the box; the values are pinned exactly
        s = [float(v) for v in np.linspace(-0.25, 0.25, 33)]
        if tag == "A":
            pair, points = (POLY_X11, POLY_X12), [Point(0.0, 0.0, v) for v in s]
        else:
            pair, points = (POLY_X12, POLY_X11_PLUS_T), [Point(-v, 0.0, v) for v in s]
        cloud = brute_force_zero_cloud(*pair, BOX_SMALL, grid_n=201)
        assert curve_cloud_agreement(points, cloud, BOX_SMALL) == value


# The scalar loops the array kernels replace, kept as their reference.

def _ref_point_segment_dist(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    s = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + s * ab)))


def _ref_points_to_polyline(u, v):
    worst = 0.0
    for p in u:
        if len(v) > 1:
            best = min(_ref_point_segment_dist(p, v[i], v[i + 1]) for i in range(len(v) - 1))
        else:
            best = float(np.linalg.norm(p - v[0]))
        worst = max(worst, best)
    return worst


def _ref_directed(a, b):
    worst = 0.0
    for row in a:
        d = np.sqrt(np.sum((b - row) ** 2, axis=1))
        worst = max(worst, float(np.min(d)))
    return worst


coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
rows = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=40)


@st.composite
def polylines(draw):
    """Vertex lists with repeated vertices (zero-length segments) mixed in."""
    out = []
    for v in draw(rows):
        out += [v, v] if draw(st.booleans()) else [v]
    return np.array(out)


class TestDistanceKernels:
    # block sizes from one row per block up to several rows, so most drawn
    # inputs span more than one block
    blocks = st.integers(min_value=1, max_value=200)

    @given(rows, polylines(), blocks)
    @example([(1.0, 2.0, 2.0), (0.0, 0.0, 0.0)], np.array([[0.0, 0.0, 0.0]]), 1)
    @settings(max_examples=60, deadline=None)
    def test_points_to_polyline_matches_scalar(self, u, v, block):
        u = np.array(u)
        want = _ref_points_to_polyline(u, v)
        with mock.patch.object(intersect, "AGREEMENT_BLOCK", block):
            got = _points_to_polyline(u, v)
        assert abs(got - want) <= 1e-12 * (1.0 + want)

    @given(rows, rows, blocks)
    @settings(max_examples=60, deadline=None)
    def test_directed_matches_scalar(self, a, b, block):
        a, b = np.array(a), np.array(b)
        want = _ref_directed(a, b)
        with mock.patch.object(intersect, "AGREEMENT_BLOCK", block):
            got = _directed(a, b)
        assert abs(got - want) <= 1e-12 * (1.0 + want)
