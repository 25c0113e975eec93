"""End-to-end intersection pipeline, oracles, and the cone checker."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from conftest import POLY_X11, POLY_X11_PLUS_T, POLY_X12
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisencurve import intersect
from heisencurve.errors import DependentNormals, MarginViolated, NotCommonZero
from heisencurve.flowtrace import TraceParams
from heisencurve.hgroup import ORIGIN, Point, dist, mul
from heisencurve.hsurface import GraphPatch, SurfaceHandle
from heisencurve.intersect import (
    ConeParams,
    IntersectionProblem,
    _directed,
    _points_to_polyline,
    brute_force_zero_cloud,
    choose_frame,
    cone_contains,
    cone_property_check,
    cone_width_for,
    curve_cloud_agreement,
    gradient_margin,
    intersect_surfaces,
    pair_lipschitz_bound,
    polyline_hausdorff,
)

F_X11 = SurfaceHandle.from_polynomial(POLY_X11)
F_X12 = SurfaceHandle.from_polynomial(POLY_X12)
F_X11_T = SurfaceHandle.from_polynomial(POLY_X11_PLUS_T)

BOX_SMALL = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))


def problem_a(**kw):
    return IntersectionProblem(F_X11, F_X12, **kw)


def problem_b(**kw):
    return IntersectionProblem(F_X12, F_X11_T, **kw)


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
        fr = choose_frame(F_X12, ORIGIN)
        assert fr.b1 == (0.0, 1.0)

    def test_gradient_of_affine(self):
        fr = choose_frame(F_X11_T, ORIGIN)
        assert fr.b1 == (1.0, 0.0)

    def test_axis_aligned(self):
        fr = choose_frame(F_X11, Point(0.0, 0.3, -0.2))
        assert fr.b1 == (1.0, 0.0)

    def test_vanishing_gradient_rejected(self):
        from heisencurve.hsurface import PolySurface

        f = SurfaceHandle.from_polynomial(PolySurface({(0, 0, 1): 1.0}))  # f = t
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
            intersect_surfaces(IntersectionProblem(F_X12, F_X12))

    def test_base_point_must_be_zero(self):
        with pytest.raises(NotCommonZero):
            intersect_surfaces(IntersectionProblem(F_X11, F_X12, p=Point(0.3, 0.0, 0.0)))

    def test_residuals_along_curve(self, curve_b):
        assert curve_b.meta["residual_f1"] <= 1e-8
        assert curve_b.meta["residual_f2"] <= 1e-8

    def test_injectivity(self, curve_a, curve_b):
        for curve in (curve_a, curve_b):
            assert curve.min_separation() > 1e-12

    def test_trace_report_is_json(self, curve_b):
        json.dumps(curve_b.meta["trace"])

    def test_params_normalized(self, curve_a):
        curve = curve_a
        assert curve.params[0] == 0.0
        assert curve.params[-1] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(curve.params, curve.params[1:]))

    def test_membership_consistency(self, curve_b):
        # re-solving the graph from each planar preimage reproduces the point
        curve = curve_b
        fr = curve.meta["frame"]
        patch = GraphPatch(fr, F_X11_T)
        for n, q in list(zip(curve.planar, curve.points))[::8]:
            assert dist(patch.graph_point(n), q) <= 1e-10

    def test_translated_problem(self):
        # conjugating by a left translation moves the curve with the point
        p = Point(0.05, -0.02, 0.01)
        from heisencurve.hgroup import inv

        q = inv(p)
        f1 = SurfaceHandle(
            eval=lambda x: F_X12.eval(mul(p, x)),
            grad_h=lambda x: F_X12.grad_h(mul(p, x)),
        )
        f2 = SurfaceHandle(
            eval=lambda x: F_X11_T.eval(mul(p, x)),
            grad_h=lambda x: F_X11_T.grad_h(mul(p, x)),
        )
        curve = intersect_surfaces(IntersectionProblem(f1, f2, p=q,
                                                       trace=TraceParams(depth=4)))
        for x in curve.points[::16]:
            assert abs(f1.eval(x)) <= 1e-8
            assert abs(f2.eval(x)) <= 1e-8

    def test_symmetry_under_swap(self, curve_b):
        trace = TraceParams(depth=6)
        c2 = intersect_surfaces(IntersectionProblem(F_X11_T, F_X12, trace=trace))
        assert polyline_hausdorff(curve_b.points, c2.points) <= 2.0 * trace.step


class TestZeroCloud:
    def test_axis_cluster(self):
        box = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        cloud = brute_force_zero_cloud(F_X11, F_X12, box, grid_n=21)
        assert cloud
        assert max(math.hypot(q.x11, q.x12) for q in cloud) <= 0.2 + 1e-12

    def test_disjoint_box_empty(self):
        box = ((2.0, 3.0), (2.0, 3.0), (-1.0, 1.0))
        assert brute_force_zero_cloud(F_X11, F_X12, box, grid_n=11) == []

    def test_antidiagonal_cluster(self):
        cloud = brute_force_zero_cloud(F_X12, F_X11_T, BOX_SMALL, grid_n=41)
        assert cloud
        for q in cloud:
            assert abs(q.x12) <= 0.021
            assert abs(q.x11 + q.t) <= 0.021

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            brute_force_zero_cloud(F_X11, F_X12, BOX_SMALL, grid_n=1)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_slabs_match_one_block(self, rows):
        grid_n = 41
        whole = brute_force_zero_cloud(F_X12, F_X11_T, BOX_SMALL, grid_n=grid_n)
        with mock.patch.object(intersect, "CLOUD_BLOCK", rows * grid_n * grid_n):
            sliced = brute_force_zero_cloud(F_X12, F_X11_T, BOX_SMALL, grid_n=grid_n)
        assert whole and sliced == whole


@pytest.mark.parametrize("oracle", [
    lambda f: brute_force_zero_cloud(F_X11, f, BOX_SMALL, grid_n=11),
    lambda f: pair_lipschitz_bound((F_X11, f), BOX_SMALL),
], ids=["zero_cloud", "lipschitz_bound"])
def test_oracle_needs_polynomial_handles(oracle):
    # a handle built from callables alone carries no polynomial
    plain = SurfaceHandle(eval=F_X12.eval, grad_h=F_X12.grad_h)
    assert plain.poly is None
    with pytest.raises(ValueError, match="polynomial surfaces"):
        oracle(plain)


class TestConeProperty:
    def test_vertex_inside_own_cone(self):
        cp = ConeParams(1.0, 1.0)
        assert cone_contains(ORIGIN, ORIGIN, cp)

    def test_horizontal_offset_inside(self):
        assert cone_contains(ORIGIN, Point(1.0, 0.0, 0.0), ConeParams(1.0, 2.0))

    def test_vertical_offset_outside(self):
        assert not cone_contains(ORIGIN, Point(0.0, 0.0, 1.0), ConeParams(1.0, 2.0))

    def test_width_cut(self):
        assert not cone_contains(ORIGIN, Point(1.0, 0.0, 0.0), ConeParams(1.0, 0.5))

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
        for curve, handles in ((curve_a, (F_X11, F_X12)),
                               (curve_b, (F_X12, F_X11_T))):
            lam = gradient_margin(handles, BOX_SMALL, grid_n=5)
            lip = pair_lipschitz_bound(handles, BOX_SMALL)
            for alpha in (1.0, 2.0, 5.0):
                r = cone_width_for(alpha, lam, lip, r_max=0.2)
                report = cone_property_check(curve.points, ConeParams(alpha, r, lam))
                assert report.ok, f"alpha={alpha}: {len(report.violations)} violations"


class TestGradientMargin:
    def test_identity_pair(self):
        assert gradient_margin((F_X11, F_X12), BOX_SMALL) == pytest.approx(1.0)

    def test_rank_deficient_pair(self):
        assert gradient_margin((F_X12, F_X12), BOX_SMALL) == pytest.approx(0.0)

    def test_analytic_pair_on_small_box(self):
        box = ((-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1))
        val = gradient_margin((F_X12, F_X11_T), box, grid_n=5)
        # worst corner: rows (0,1) and (0.9, +-0.1); smaller singular value
        expected = np.linalg.svd(np.array([[0.0, 1.0], [0.9, 0.1]]),
                                 compute_uv=False)[-1]
        assert val == pytest.approx(expected, abs=1e-12)
        assert 0.85 <= val <= 1.0

    def test_single_surface(self):
        assert gradient_margin(F_X12, BOX_SMALL) == pytest.approx(1.0)


class TestCurveCloudAgreement:
    def test_problem_a_small_grid(self, curve_a):
        cloud = brute_force_zero_cloud(F_X11, F_X12, BOX_SMALL, grid_n=41)
        spacing = 0.4 / 40
        assert curve_cloud_agreement(curve_a.points, cloud, BOX_SMALL) <= 2 * spacing + 1e-12

    def test_problem_b_small_grid(self, curve_b):
        cloud = brute_force_zero_cloud(F_X12, F_X11_T, BOX_SMALL, grid_n=41)
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
            pair, points = (F_X11, F_X12), [Point(0.0, 0.0, v) for v in s]
        else:
            pair, points = (F_X12, F_X11_T), [Point(-v, 0.0, v) for v in s]
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
