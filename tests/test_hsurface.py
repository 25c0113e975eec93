"""Polynomial surfaces, horizontal gradients, and the intrinsic graph solver."""

import math

import numpy as np
import pytest

from heisencurve.errors import MarginViolated, NoSignChange
from heisencurve.hgroup import Point, VerticalCoords, make_frame
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

    def test_bad_gradient_is_caught(self):
        wrong = SurfaceHandle(eval=lambda p: p.x11, grad_h=lambda p: (2.0, 0.0))
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
