"""Polynomial surfaces, horizontal gradients, and the intrinsic graph solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisencurve.errors import MarginViolated, NoSignChange
from heisencurve.hgroup import Point, VerticalCoords, embed_N, make_frame, mul
from heisencurve.hsurface import (
    GraphPatch,
    PolySurface,
    SurfaceHandle,
    check_gradient,
    horiz_grad_poly,
    y_derivatives,
)

X11 = PolySurface({(1, 0, 0): 1.0})
X12 = PolySurface({(0, 1, 0): 1.0})
T = PolySurface({(0, 0, 1): 1.0})
X11_PLUS_T = PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0})


def poly_equal(p, q):
    keys = set(p.coefficients) | set(q.coefficients)
    return all(
        abs(p.coefficients.get(k, 0.0) - q.coefficients.get(k, 0.0)) <= 1e-15 for k in keys
    )


class TestPolySurface:
    def test_eval(self):
        p = PolySurface({(2, 0, 0): 1.0, (0, 1, 1): -3.0})
        assert p(Point(2.0, 1.0, 0.5)) == 4.0 - 1.5

    def test_quadruple_encoding(self):
        p = PolySurface.from_quadruples([[1, 0, 0, 1.0], [0, 0, 1, 1.0]])
        assert poly_equal(p, X11_PLUS_T)

    def test_vectorized_eval_matches_pointwise(self):
        p = PolySurface({(1, 1, 0): 2.0, (0, 0, 2): -1.0, (0, 0, 0): 0.5})
        xs = np.linspace(-1, 1, 5)
        grid = p.eval_coords(xs[:, None], 0.3, xs[None, :] ** 2)
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert abs(grid[i, j] - p(Point(a, 0.3, b * b))) <= 1e-14

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            PolySurface({(10, 5, 5): 1.0})

    def test_drops_zero_coefficients(self):
        p = PolySurface({(1, 0, 0): 0.0, (0, 1, 0): 2.0})
        assert (1, 0, 0) not in p.coefficients

    def test_gradient_bound_covers_interior(self):
        # x11^3 - 3 x11 has |grad| = 0 at every corner of [-1, 1]^3 but 3 at the centre
        p = PolySurface({(3, 0, 0): 1.0, (1, 0, 0): -3.0})
        assert p.max_euclidean_gradient(((-1.0, 1.0),) * 3) >= 3.0

    @given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                           st.floats(-2.0, 2.0, allow_nan=False), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_gradient_bound_over_box(self, coeffs):
        p = PolySurface(coeffs)
        box = ((-0.5, 1.0), (-1.0, 0.25), (0.0, 0.75))
        bound = p.max_euclidean_gradient(box)
        axes = [np.linspace(lo, hi, 7) for lo, hi in box]
        X, Y, T = np.meshgrid(*axes, indexing="ij")
        norm = np.sqrt(sum(p.partial(v).eval_coords(X, Y, T) ** 2 for v in range(3)))
        assert np.max(norm) <= bound * (1.0 + 1e-12)

    def test_gradient_bound_exact_on_linear(self):
        box = ((-0.2, 0.2),) * 3
        assert X11.max_euclidean_gradient(box) == 1.0
        assert X11_PLUS_T.max_euclidean_gradient(box) == math.sqrt(2.0)


class TestHorizontalGradient:
    def test_coordinate_x11(self):
        g1, g2 = horiz_grad_poly(X11)
        assert poly_equal(g1, PolySurface({(0, 0, 0): 1.0}))
        assert poly_equal(g2, PolySurface({}))

    def test_vertical_coordinate(self):
        # X1 t = -x12 and X2 t = x11
        g1, g2 = horiz_grad_poly(T)
        assert poly_equal(g1, PolySurface({(0, 1, 0): -1.0}))
        assert poly_equal(g2, PolySurface({(1, 0, 0): 1.0}))

    def test_linearity(self):
        g1, g2 = horiz_grad_poly(X11_PLUS_T)
        assert poly_equal(g1, PolySurface({(0, 0, 0): 1.0, (0, 1, 0): -1.0}))
        assert poly_equal(g2, PolySurface({(1, 0, 0): 1.0}))

    def test_finite_difference_cross_check(self):
        p = PolySurface({(2, 1, 0): 1.5, (0, 1, 1): -2.0, (1, 0, 2): 0.25})
        handle = SurfaceHandle.from_polynomial(p)
        assert check_gradient(handle) <= 1e-6

    def test_cross_check_convergence_order(self):
        p = PolySurface({(3, 0, 0): 1.0, (0, 2, 1): -1.0})
        handle = SurfaceHandle.from_polynomial(p)
        x = Point(0.4, -0.3, 0.2)
        g1, _ = handle.grad_h(x)
        errs = []
        from heisencurve.hgroup import horizontal_derivative

        for h in (1e-2, 5e-3, 2.5e-3):
            errs.append(abs(horizontal_derivative(handle.eval, x, (1.0, 0.0), h) - g1))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.9

    @pytest.mark.parametrize("g1", [2.0, math.nan, math.inf], ids=["wrong", "nan", "inf"])
    def test_bad_gradient_is_caught(self, g1):
        wrong = SurfaceHandle(eval=lambda p: p.x11, grad_h=lambda p: (g1, 0.0))
        with pytest.raises(ValueError):
            check_gradient(wrong)


class TestYDerivatives:
    def test_rotated_frame(self):
        fr = make_frame((0.0, 1.0))
        f = SurfaceHandle.from_polynomial(X12)
        y1, _ = y_derivatives(f, Point(0.2, 0.4, -0.1), fr)
        assert abs(y1 - 1.0) <= 1e-14

    def test_identity_frame_is_horizontal_gradient(self):
        fr = make_frame((1.0, 0.0))
        p = PolySurface({(2, 0, 0): 1.0, (0, 0, 1): 3.0})
        f = SurfaceHandle.from_polynomial(p)
        x = Point(0.7, -0.2, 0.1)
        assert y_derivatives(f, x, fr) == f.grad_h(x)

    def test_affine_surface_value(self):
        fr = make_frame((1.0, 0.0))
        f = SurfaceHandle.from_polynomial(X11_PLUS_T)
        eta = 0.3
        x = Point(0.1, eta, 0.05)
        y1, y2 = y_derivatives(f, x, fr)
        assert abs(y1 - (1.0 - eta)) <= 1e-14
        assert abs(y2 - x.x11) <= 1e-14


def patch_flat():
    """f2 = x12 with graph direction b1 = (0, 1); phi2hat vanishes identically."""
    return GraphPatch(make_frame((0.0, 1.0)), SurfaceHandle.from_polynomial(X12))


def patch_affine():
    """f2 = x11 + t with the identity frame; phi2hat = -tau / (1 - eta)."""
    return GraphPatch(make_frame((1.0, 0.0)), SurfaceHandle.from_polynomial(X11_PLUS_T))


class TestGraphSolve:
    def test_flat_patch_scalar(self):
        patch = patch_flat()
        for eta, tau in [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.5)]:
            assert abs(patch.solve_scalar(VerticalCoords(eta, tau))) <= 1e-10

    def test_affine_patch_closed_form(self):
        patch = patch_affine()
        rng = np.random.default_rng(0)
        for _ in range(100):
            eta, tau = rng.uniform(-0.5, 0.5, size=2)
            s = patch.solve_scalar(VerticalCoords(eta, tau))
            assert abs(s - (-tau / (1.0 - eta))) <= 1e-10

    def test_base_point_consistency(self):
        patch = patch_affine()
        assert abs(patch.base_coordinate - 0.0) <= 1e-12

    def test_graph_map_affine_example(self):
        # n = (0, xi) maps to (-xi, 0, xi)
        patch = patch_affine()
        for xi in (-0.4, -0.1, 0.2, 0.45):
            p = patch.graph_point(VerticalCoords(0.0, xi))
            assert abs(p.x11 + xi) <= 1e-10
            assert abs(p.x12) <= 1e-12
            assert abs(p.t - xi) <= 1e-10

    def test_graph_map_flat(self):
        patch = patch_flat()
        p = patch.graph_point(VerticalCoords(0.25, -0.3))
        # b2 = (-1, 0): the point is eta*b2 + tau*e3 with zero graph coordinate
        assert abs(p.x11 + 0.25) <= 1e-12
        assert abs(p.x12) <= 1e-10
        assert abs(p.t + 0.3) <= 1e-10

    def test_level_residual_on_grid(self):
        for patch in (patch_flat(), patch_affine()):
            etas = np.linspace(-0.5, 0.5, 50)
            taus = np.linspace(-0.5, 0.5, 50)
            worst = 0.0
            for eta in etas:
                for tau in taus:
                    p = patch.graph_point(VerticalCoords(eta, tau))
                    worst = max(worst, abs(patch.f2.eval(p)))
            assert worst <= 1e-10

    def test_section_property(self):
        # project_N of a graph point recovers its N-coordinates
        from heisencurve.hgroup import coords_N, project_N

        patch = patch_affine()
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = VerticalCoords(*rng.uniform(-0.5, 0.5, size=2))
            back = coords_N(project_N(patch.graph_point(n), patch.frame), patch.frame)
            assert abs(back.eta - n.eta) <= 1e-10
            assert abs(back.tau - n.tau) <= 1e-10

    def test_rejects_points_outside_window(self):
        with pytest.raises(ValueError):
            patch_affine().solve_scalar(VerticalCoords(0.9, 0.0))

    def test_no_sign_change(self):
        # the margin certificate passes (Y1 f2 = 1 - x12 > 0) but the zero
        # set is unreachable anywhere inside the bracket
        p = PolySurface({(0, 0, 0): 2.9 - 10.0, (1, 0, 0): 1.0, (0, 0, 1): 1.0})
        with pytest.raises(NoSignChange):
            GraphPatch(make_frame((1.0, 0.0)), SurfaceHandle.from_polynomial(p))

    def test_margin_violation_detected(self):
        # Y1 f2 = 1 - eta vanishes at the sample node eta = 1 of a window reaching it
        with pytest.raises(MarginViolated):
            GraphPatch(
                make_frame((1.0, 0.0)),
                SurfaceHandle.from_polynomial(X11_PLUS_T),
                window=((-1.5, 1.5), (-0.5, 0.5)),
            )

    def test_non_finite_margin_detected(self):
        # |Y1 f2| = NaN compares false against the margin; it must not pass
        f2 = SurfaceHandle(eval=lambda x: x.x11, grad_h=lambda x: (math.nan, 0.0))
        with pytest.raises(MarginViolated):
            GraphPatch(make_frame((1.0, 0.0)), f2)


# -- float evaluation at coordinates against the Point reference ---------------

MONOMIALS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]
unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
polys = st.dictionaries(st.sampled_from(MONOMIALS), unit, max_size=10).map(PolySurface)
group_points = st.builds(Point, unit, unit, unit)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
window = st.floats(min_value=-0.5, max_value=0.5)
bracket = st.floats(min_value=-2.0, max_value=2.0)


def assert_close(value, reference):
    assert abs(value - reference) <= 1e-12 * (1.0 + abs(reference))


class TestFloatEvaluation:
    @given(polys, group_points, group_points)
    @settings(max_examples=200, deadline=None)
    def test_left_translation_is_substitution(self, f, p, x):
        assert_close(f.translated(p)(x), f(mul(p, x)))

    @given(polys, group_points, group_points)
    @settings(max_examples=200, deadline=None)
    def test_float_evaluator_matches_point_reference(self, f, p, x):
        handle = SurfaceHandle.from_polynomial(f, validate=False)
        coords = (x.x11, x.x12, x.t)
        for h in (handle, SurfaceHandle(eval=handle.eval, grad_h=handle.grad_h)):
            assert_close(h.value_at(*coords), handle.eval(x))
            for a, b in zip(h.grad_at(*coords), handle.grad_h(x)):
                assert_close(a, b)
        shifted = handle.translated(p)
        assert shifted.poly is not None
        assert_close(shifted.value_at(*coords), handle.eval(mul(p, x)))
        for a, b in zip(shifted.grad_at(*coords), handle.grad_h(mul(p, x))):
            assert_close(a, b)

    @given(polys, group_points, angles, window, window, bracket)
    @settings(max_examples=50, deadline=None)
    def test_graph_line_matches_group_product(self, pert, p, theta, eta, tau, s):
        fr = make_frame((math.cos(theta), math.sin(theta)))
        # Y1 of the linear part is 1; the scaled cubic perturbation keeps the
        # margin and the sign change on window x bracket
        linear = PolySurface({(1, 0, 0): fr.b1[0], (0, 1, 0): fr.b1[1]})
        f2 = SurfaceHandle.from_polynomial(linear + pert.scaled(2e-4), validate=False)
        patch = GraphPatch(fr, f2.translated(p))
        n = VerticalCoords(eta, tau)
        coords = patch.line_coords(eta, tau, s)
        q = patch.line_point(n, s)
        assert q == Point(*coords)
        reference = mul(embed_N(n, fr), Point(s * fr.b1[0], s * fr.b1[1], 0.0))
        for a, b in zip(coords, (reference.x11, reference.x12, reference.t)):
            assert_close(a, b)
        assert_close(patch._g(n, s), patch.f2.eval(q))
        assert_close(patch._g(n, s), f2.eval(mul(p, reference)))
