"""Polynomial surfaces, horizontal gradients, and the intrinsic graph solver."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from conftest import bench_module, graph_point
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heisencurve
from heisencurve import hsurface
from heisencurve.errors import MarginViolated, NoSignChange
from heisencurve.flowtrace import Rect
from heisencurve.hgroup import Frame, Point, VerticalCoords, make_frame, mul
from heisencurve.hsurface import GraphPatch, PolySurface, horiz_grad_poly
from heisencurve.intersect import graph_field
from heisencurve.verify import _y_derivatives, embed_N, horizontal_derivative

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
        grid = p.value_at(xs[:, None], 0.3, xs[None, :] ** 2)
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert abs(grid[i, j] - p(Point(a, 0.3, b * b))) <= 1e-14

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            PolySurface({(10, 5, 5): 1.0})

    @pytest.mark.parametrize("key", [(1.9, 0, 0), (0, -1, 0), (0, 0, math.nan),
                                     (math.inf, 0, 0), ("2", 0, 0)])
    def test_rejects_non_integral_exponents(self, key):
        with pytest.raises(ValueError, match="nonnegative integers"):
            PolySurface({key: 1.0})

    @pytest.mark.parametrize("row", [[1.7, 0, 0, 1.0], [-0.5, 0, 0, 1.0]])
    def test_quadruples_name_the_bad_row(self, row):
        with pytest.raises(ValueError, match="row 1: exponents must be nonnegative integers"):
            PolySurface.from_quadruples([[0, 1, 0, 1.0], row])

    def test_integral_float_exponents_accepted(self):
        p = PolySurface.from_quadruples([[2.0, 0, 1.0, 1.5]])
        assert p.coefficients == {(2, 0, 1): 1.5}
        assert all(type(e) is int for e in next(iter(p.coefficients)))

    def test_drops_zero_coefficients(self):
        p = PolySurface({(1, 0, 0): 0.0, (0, 1, 0): 2.0})
        assert (1, 0, 0) not in p.coefficients

    @pytest.mark.parametrize("p", [Point(0.0, 0.0, 1e300), Point(1e200, 0.0, 0.0)])
    def test_translation_overflow_raises(self, p):
        # (t + 1e300)^3 overflows the constant; t + 1e200 x12 squared the x12^2 term
        f = PolySurface({(1, 0, 0): 1.0, (0, 0, 3): 1.0, (0, 0, 2): 1.0})
        with pytest.raises(OverflowError, match="overflows the coefficient"):
            f.translated(p)

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
        norm = np.sqrt(sum(p.partial(v).value_at(X, Y, T) ** 2 for v in range(3)))
        assert np.max(norm) <= bound * (1.0 + 1e-12)

    def test_termwise_bound_at_largest_coordinates(self):
        # 2 x11^2 t - 3 x12 at |x11|, |x12|, |t| = 1, 2, 3: 2 * 1 * 3 + 3 * 2
        p = PolySurface({(2, 0, 1): 2.0, (0, 1, 0): -3.0})
        assert p.termwise_bound(((-1.0, 0.5), (0.2, 2.0), (-3.0, -1.0))) == 12.0

    def test_gradient_bound_exact_on_linear(self):
        box = ((-0.2, 0.2),) * 3
        assert X11.max_euclidean_gradient(box) == 1.0
        assert X11_PLUS_T.max_euclidean_gradient(box) == math.sqrt(2.0)

    def test_gradient_bound_finite_past_squared_overflow(self):
        # the partials' bounds 1e200 and 3e200 have squares beyond float64
        p = PolySurface({(1, 0, 0): 1e200, (0, 0, 1): 3e200})
        assert p.max_euclidean_gradient(((-0.2, 0.2),) * 3) == math.hypot(1e200, 3e200)


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
        # central differences of step 1e-5 along group curves, relative to
        # 1 + |grad_H f|, at five points spread over the unit box and beyond
        p = PolySurface({(2, 1, 0): 1.5, (0, 1, 1): -2.0, (1, 0, 2): 0.25})
        for x in (Point(0.0, 0.0, 0.0), Point(0.3, -0.2, 0.1), Point(-0.5, 0.4, -0.3),
                  Point(1.1, 0.7, 0.9), Point(-0.9, -1.3, 0.6)):
            g1, g2 = p.grad_at(*astuple(x))
            d1 = horizontal_derivative(p, x, (1.0, 0.0), 1e-5)
            d2 = horizontal_derivative(p, x, (0.0, 1.0), 1e-5)
            scale = 1.0 + abs(g1) + abs(g2)
            assert abs(g1 - d1) / scale <= 1e-6 and abs(g2 - d2) / scale <= 1e-6

    def test_overflowing_gradient_raises(self):
        # 1e308 x11^3 is finite, but X1 of it has the coefficient 3e308 = inf
        steep = PolySurface({(1, 0, 0): 1.0, (3, 0, 0): 1e308})
        with pytest.raises(OverflowError, match=r"\(2, 0, 0\) in X1 f overflows"):
            steep.grad_poly
        # the translate's coefficients stay finite, its gradient's do not
        # (t + 1e154 x12)^2 has the x12^2 coefficient 1e308, X2 of it 2e308
        square = PolySurface({(0, 0, 2): 1.0})
        with pytest.raises(OverflowError, match=r"\(0, 1, 0\) in X2 f overflows"):
            square.translated(Point(1e154, 0.0, 0.0)).grad_poly

    def test_from_polynomial_shim_returns_the_surface(self):
        # SurfaceHandle.from_polynomial survives for older callers only: it is
        # the surface itself, its gradient derived, and no public name
        p = PolySurface({(1, 0, 0): 1.0, (0, 0, 2): 0.5})
        assert hsurface.SurfaceHandle.from_polynomial(p) is p
        assert "grad_poly" in vars(p)
        steep = PolySurface({(1, 0, 0): 1.0, (3, 0, 0): 1e308})
        with pytest.raises(OverflowError, match=r"\(2, 0, 0\) in X1 f overflows"):
            hsurface.SurfaceHandle.from_polynomial(steep)
        assert "SurfaceHandle" not in hsurface.__all__
        assert not hasattr(heisencurve, "SurfaceHandle")

    def test_cross_check_convergence_order(self):
        p = PolySurface({(3, 0, 0): 1.0, (0, 2, 1): -1.0})
        x = Point(0.4, -0.3, 0.2)
        g1, _ = p.grad_at(*astuple(x))
        errs = []
        from heisencurve.verify import horizontal_derivative

        for h in (1e-2, 5e-3, 2.5e-3):
            errs.append(abs(horizontal_derivative(p, x, (1.0, 0.0), h) - g1))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.9


class TestYDerivatives:
    def test_rotated_frame(self):
        fr = make_frame((0.0, 1.0))
        y1, _ = _y_derivatives(X12, (0.2, 0.4, -0.1), fr)
        assert abs(y1 - 1.0) <= 1e-14

    def test_identity_frame_is_horizontal_gradient(self):
        fr = make_frame((1.0, 0.0))
        f = PolySurface({(2, 0, 0): 1.0, (0, 0, 1): 3.0})
        x = (0.7, -0.2, 0.1)
        assert _y_derivatives(f, x, fr) == f.grad_at(*x)

    def test_affine_surface_value(self):
        fr = make_frame((1.0, 0.0))
        eta = 0.3
        x11 = 0.1
        y1, y2 = _y_derivatives(X11_PLUS_T, (x11, eta, 0.05), fr)
        assert abs(y1 - (1.0 - eta)) <= 1e-14
        assert abs(y2 - x11) <= 1e-14


def patch_flat():
    """f2 = x12 with graph direction b1 = (0, 1); phi2hat vanishes identically."""
    return GraphPatch(make_frame((0.0, 1.0)), X12)


def patch_affine():
    """f2 = x11 + t with the identity frame; phi2hat = -tau / (1 - eta)."""
    return GraphPatch(make_frame((1.0, 0.0)), X11_PLUS_T)


class TestGraphSolve:
    def test_flat_patch_scalar(self):
        patch = patch_flat()
        for eta, tau in [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.5)]:
            assert abs(patch.solve_scalar((eta, tau))) <= 1e-10

    def test_affine_patch_closed_form(self):
        patch = patch_affine()
        rng = np.random.default_rng(0)
        for _ in range(100):
            eta, tau = rng.uniform(-0.5, 0.5, size=2)
            s = patch.solve_scalar((eta, tau))
            assert abs(s - (-tau / (1.0 - eta))) <= 1e-10

    def test_base_point_consistency(self):
        patch = patch_affine()
        assert abs(patch.solve_scalar((0.0, 0.0)) - 0.0) <= 1e-12

    def test_graph_map_affine_example(self):
        # n = (0, xi) maps to (-xi, 0, xi)
        patch = patch_affine()
        for xi in (-0.4, -0.1, 0.2, 0.45):
            p = graph_point(patch, 0.0, xi)
            assert abs(p.x11 + xi) <= 1e-10
            assert abs(p.x12) <= 1e-12
            assert abs(p.t - xi) <= 1e-10

    def test_graph_map_flat(self):
        patch = patch_flat()
        p = graph_point(patch, 0.25, -0.3)
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
                    p = graph_point(patch, eta, tau)
                    worst = max(worst, abs(patch.f2(p)))
            assert worst <= 1e-10

    def test_section_property(self):
        # project_N of a graph point recovers its N-coordinates
        from heisencurve.verify import coords_N, project_N

        patch = patch_affine()
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta, tau = rng.uniform(-0.5, 0.5, size=2)
            back = coords_N(project_N(graph_point(patch, eta, tau), patch.frame), patch.frame)
            assert abs(back.eta - eta) <= 1e-10
            assert abs(back.tau - tau) <= 1e-10

    def test_rejects_points_outside_window(self):
        patch = patch_affine()
        for n in ((0.9, 0.0), (0.0, 0.9), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                patch.solve_scalar(n)

    def test_no_sign_change(self):
        # the margin certificate passes (Y1 f2 = 1 - x12 > 0) but the zero
        # set is unreachable anywhere inside the bracket
        p = PolySurface({(0, 0, 0): 2.9 - 10.0, (1, 0, 0): 1.0, (0, 0, 1): 1.0})
        with pytest.raises(NoSignChange):
            GraphPatch(make_frame((1.0, 0.0)), p)

    def test_no_root_in_the_bracket_raises_from_the_solve(self):
        # Y1 f2 = 1 - eta >= 0.5 certifies the patch and the origin has the
        # root s = 0, but the root -tau / (1 - eta) = -1 at n = (0.5, 0.5)
        # lies outside the bracket: Newton leaves it, and its ends share a sign
        patch = GraphPatch(make_frame((1.0, 0.0)), X11_PLUS_T,
                           bracket=(-0.5, 0.5))
        for hint in (None, -0.4):
            with pytest.raises(NoSignChange, match=r"bracket \[-0.5, 0.5\] at n=\(0.5,0.5\)"):
                patch.solve_scalar((0.5, 0.5), hint)

    def test_one_solve_path(self):
        assert not hasattr(GraphPatch, "_expand_bracket")

    def test_hintless_solves_need_no_bisection(self, monkeypatch):
        # Newton from the base root converges at every point of both grids
        patches = (patch_flat(), patch_affine())

        def refuse(*args):
            raise AssertionError("a hint-less solve bisected")

        monkeypatch.setattr(GraphPatch, "_bisect", refuse)
        grid = np.linspace(-0.5, 0.5, 50)
        for patch in patches:
            for eta in grid:
                for tau in grid:
                    patch.solve_scalar((float(eta), float(tau)))

    @pytest.mark.parametrize("hint", [1e300, math.nan, math.inf, -math.inf])
    def test_any_hint_gives_the_hintless_root(self, hint, monkeypatch):
        patches = (patch_flat(), patch_affine())
        bisected = []
        bisect = GraphPatch._bisect
        monkeypatch.setattr(GraphPatch, "_bisect",
                            lambda patch, *n: bisected.append(n) or bisect(patch, *n))
        rng = np.random.default_rng(3)
        for patch in patches:
            for eta, tau in rng.uniform(-0.5, 0.5, (20, 2)):
                n = (float(eta), float(tau))
                assert abs(patch.solve_scalar(n, hint) - patch.solve_scalar(n)) <= 1e-12
        # every hint lies outside the bracket, so Newton fails at once and
        # the whole bracket is bisected
        assert len(bisected) == 40

    def test_far_hint_bisects_instead_of_overflowing(self):
        # Newton's first evaluation from 1e300 would cube it; a start outside
        # the bracket counts as a failed Newton instead
        f2 = X11_PLUS_T + PolySurface({(3, 0, 0): 0.1})
        patch = GraphPatch(make_frame((1.0, 0.0)), f2)
        assert abs(patch.solve_scalar((0.1, 0.2), 1e300)
                   - patch.solve_scalar((0.1, 0.2))) <= 1e-12

    def test_margin_violation_detected(self):
        # Y1 f2 = 1 - eta vanishes at the sample node eta = 1 of a window reaching it
        with pytest.raises(MarginViolated):
            GraphPatch(
                make_frame((1.0, 0.0)),
                X11_PLUS_T,
                window=Rect((-1.5, 1.5), (-0.5, 0.5)),
            )

    def test_non_finite_margin_detected(self):
        # |Y1 f2| = NaN compares false against the margin; it must not pass.
        # X1 f2 = 1 + 1.6e308 x11^15 - 1.5e308 x11^14 x12 is -inf + inf = NaN
        # at the first sample, x11 = s = -2 and x12 = eta = -0.5
        p = PolySurface({(1, 0, 0): 1.0, (16, 0, 0): 1e307, (15, 1, 0): -1e307})
        with pytest.raises(MarginViolated, match=r"\|Y1 f2\| = nan"):
            GraphPatch(make_frame((1.0, 0.0)), p)

    def test_infinite_margin_detected(self):
        # Y1 f2 = 1.7e308 (b1x + b1y) overflows to inf at every sample; Newton
        # could not move from there (s - f/inf = s), so the patch is refused
        p = PolySurface({(1, 0, 0): 1.7e308, (0, 1, 0): 1.7e308})
        with pytest.raises(MarginViolated, match=r"\|Y1 f2\| = inf is not finite"):
            GraphPatch(make_frame((1.0, 1.0)), p)

    def test_non_finite_bracket_fails_the_margin(self):
        # the Newton kernel relies on a finite bracket: a NaN or infinite step
        # then fails its bracket test.  An infinite end gives NaN samples.
        with np.errstate(invalid="ignore"), pytest.raises(MarginViolated):
            GraphPatch(make_frame((1.0, 0.0)), X11_PLUS_T,
                       bracket=(-math.inf, 2.0))


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
        coords = (x.x11, x.x12, x.t)
        assert_close(f.value_at(*coords), f(x))
        for a, q in zip(f.grad_at(*coords), horiz_grad_poly(f)):
            assert_close(a, q(x))
        shifted = f.translated(p)
        assert_close(shifted.value_at(*coords), f(mul(p, x)))
        for a, q in zip(shifted.grad_at(*coords), horiz_grad_poly(f)):
            assert_close(a, q(mul(p, x)))

    @given(polys, group_points, angles, window, window, bracket)
    @settings(max_examples=50, deadline=None)
    def test_graph_line_matches_group_product(self, pert, p, theta, eta, tau, s):
        fr = make_frame((math.cos(theta), math.sin(theta)))
        # Y1 of the linear part is 1; the scaled cubic perturbation keeps the
        # margin and the sign change on window x bracket
        linear = PolySurface({(1, 0, 0): fr.b1[0], (0, 1, 0): fr.b1[1]})
        f2 = linear + pert.scaled(2e-4)
        patch = GraphPatch(fr, f2.translated(p))
        coords = patch.line_coords(eta, tau, s)
        line = (*fr.b1, *fr.b2, fr.detC)
        assert coords == line_reference(line, eta, tau, s)
        reference = mul(embed_N(VerticalCoords(eta, tau), fr),
                        Point(s * fr.b1[0], s * fr.b1[1], 0.0))
        for a, b in zip(coords, (reference.x11, reference.x12, reference.t)):
            assert_close(a, b)
        assert_close(patch.f2.value_at(*coords), f2(mul(p, reference)))
        assert_close(_y_derivatives(patch.f2, coords, fr)[0],
                     _y_derivatives(f2, astuple(mul(p, reference)), fr)[0])

    @given(polys, angles, st.lists(st.tuples(*[st.integers(-64, 64)] * 3), min_size=1,
                                   max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_y_derivatives_on_arrays_match_per_point_floats(self, f, theta, lattice):
        fr = make_frame((math.cos(theta), math.sin(theta)))
        x = np.array(lattice, dtype=float).T / 64.0
        arrays = [np.broadcast_to(a, x[0].shape) for a in _y_derivatives(f, tuple(x), fr)]
        for i, point in enumerate(x.T.tolist()):
            for a, b in zip(arrays, _y_derivatives(f, point, fr)):
                assert same_float(float(a[i]), b)


# -- the compiled evaluator against the term loop it replaced ------------------

def power(x, e):
    """x^e for e >= 1, multiplied left to right: ((x * x) * x) ..."""
    out = x
    for _ in range(e - 1):
        out = out * x
    return out


def term_loop(p, x11, x12, t):
    """Reference only: the term-by-term loop that value_at compiles."""
    acc = 0.0
    for (i, j, k), c in p.coefficients.items():
        if i:
            c = c * power(x11, i)
        if j:
            c = c * power(x12, j)
        if k:
            c = c * power(t, k)
        acc = acc + c
    return acc


def same_float(a, b):
    """Bit-level agreement up to the NaN payload: NaN matches NaN, and -0.0 only -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_array(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


ALL_MONOMIALS = [(i, j, k) for i in range(17) for j in range(17) for k in range(17)
                 if i + j + k <= 16]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
           1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
coordinates = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats())
coefficients = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False))
high_polys = st.dictionaries(st.sampled_from(ALL_MONOMIALS), coefficients,
                             max_size=24).map(PolySurface)


def full_degree_16():
    rng = np.random.default_rng(16)
    return PolySurface({m: float(c) for m, c in
                        zip(ALL_MONOMIALS, rng.uniform(-1.0, 1.0, len(ALL_MONOMIALS)))})


class TestCompiledEvaluator:
    @given(st.one_of(polys, high_polys), coordinates, coordinates, coordinates)
    @settings(max_examples=400, deadline=None)
    def test_scalars_match_term_loop(self, p, x11, x12, t):
        expected = term_loop(p, x11, x12, t)
        assert same_float(p.value_at(x11, x12, t), expected)
        if all(map(math.isfinite, (x11, x12, t))):
            assert same_float(p(Point(x11, x12, t)), expected)

    @given(st.one_of(polys, high_polys),
           st.lists(coordinates, min_size=1, max_size=5),
           coordinates,
           st.lists(coordinates, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_arrays_match_term_loop(self, p, a, b, c):
        x11 = np.array(a)[:, None]
        t = np.array(c)[None, :]
        with np.errstate(all="ignore"):
            expected = term_loop(p, x11, b, t)
            got = p.value_at(x11, b, t)
        assert same_array(got, expected)

    @given(st.one_of(polys, high_polys), st.lists(st.tuples(coordinates, coordinates,
                                                            coordinates), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    # float pow and numpy's array power round this x11^4 apart in the last bit
    @example(p=PolySurface({(1, 0, 0): 0.9999825122717138, (0, 1, 0): -0.005913979265422965,
                            (4, 0, 0): -0.08846883487279719,
                            (0, 4, 0): -0.031572430908438864}),
             points=[(1.4265989352804613, 0.20180754867081085, 0.0),
                     (1.04487362482518, 0.5813515954055384, 0.0)])
    def test_arrays_match_per_entry_floats(self, p, points):
        x = np.array(points).T
        with np.errstate(all="ignore"):
            got = np.broadcast_to(p.value_at(*x), x[0].shape)
        for a, point in zip(got.tolist(), points):
            assert same_float(a, p.value_at(*point))

    def test_zero_polynomial(self):
        zero = PolySurface({})
        for x in SPECIAL:
            assert same_float(zero.value_at(x, x, x), 0.0)

    def test_full_degree_16(self):
        p = full_degree_16()
        assert len(p.coefficients) == 969
        rng = np.random.default_rng(0)
        for x11, x12, t in rng.uniform(-1.2, 1.2, (50, 3)):
            assert same_float(p.value_at(x11, x12, t), term_loop(p, x11, x12, t))
        grid = rng.uniform(-1.2, 1.2, (3, 40))
        assert same_array(p.value_at(*grid), term_loop(p, *grid))

    def test_overflow_raises_like_the_loop(self):
        # t^3 overflows to inf on floats and arrays alike, as in the loop
        p = PolySurface({(0, 0, 3): 1.0, (1, 0, 0): 1.0})
        assert term_loop(p, 0.0, 0.0, 1e300) == p.value_at(0.0, 0.0, 1e300) == math.inf
        t = np.array([1e300, -1e300])
        with np.errstate(over="ignore"):
            assert same_array(p.value_at(0.0, 0.0, t), [math.inf, -math.inf])

    def test_no_source_forms_a_power_operator(self, monkeypatch):
        # every power is a product, in value_at, line_coords and the Newton kernel
        sources = []
        compiled = hsurface._compiled
        monkeypatch.setattr(hsurface, "_compiled",
                            lambda source, *args: sources.append(source) or compiled(source, *args))
        patch = GraphPatch(make_frame((1.0, 0.0)), X11_PLUS_T + full_degree_16().scaled(1e-10))
        patch.solve_many(np.array([0.1, -0.2]), np.array([0.3, 0.0]))
        names = {name for source in sources for name in re.findall(r"^    def (\w+)", source, re.M)}
        assert names == {"value_at", "line_coords", "newton"}
        assert "x11_16 = x11_15 * x11" in "\n".join(sources)
        assert not any("**" in source for source in sources)

    def test_compiled_once_on_first_use(self):
        p = PolySurface({(2, 1, 0): 1.5})
        assert "value_at" not in vars(p)
        f = p.value_at
        assert vars(p)["value_at"] is f and p.value_at is f

    def test_same_monomials_share_the_code(self):
        # the source holds names and exponents only, so it is compiled once; each
        # evaluator binds its own coefficients
        p = PolySurface({(2, 1, 0): 1.5, (0, 0, 3): -2.0})
        q = PolySurface({(2, 1, 0): 0.25, (0, 0, 3): 4.0})
        assert p.value_at is not q.value_at
        assert p.value_at.__code__ is q.value_at.__code__
        assert p.value_at(2.0, 3.0, 0.5) == 1.5 * 4.0 * 3.0 - 2.0 * 0.125
        assert q.value_at(2.0, 3.0, 0.5) == 0.25 * 4.0 * 3.0 + 4.0 * 0.125

    def test_intermediate_polynomials_stay_uncompiled(self, monkeypatch):
        p = full_degree_16()
        compiled = []
        real = hsurface._compile
        monkeypatch.setattr(hsurface, "_compile", lambda c: compiled.append(c) or real(c))
        x1p, x2p = horiz_grad_poly(p)
        q = p.translated(Point(0.3, -0.2, 0.1))
        assert compiled == []
        for r in (p, x1p, x2p, q, *q.grad_poly):
            assert "value_at" not in vars(r)
        q.value_at(0.1, 0.2, 0.3)
        assert len(compiled) == 1 and "value_at" in vars(q)


# -- the compiled line kernels against the composition they replaced -----------

def line_reference(line, eta, tau, s):
    """Reference only: the graph line n * (s b1) for n = (eta, tau)."""
    b1x, b1y, b2x, b2y, detc = line
    return (eta * b2x + s * b1x, eta * b2y + s * b1y, tau - eta * s * detc)


def g_reference(f, line, eta, tau, s):
    """Reference only: f on the graph line, as value_at at the line coordinates."""
    return f.value_at(*line_reference(line, eta, tau, s))


def slope_of(f, line):
    """The slope polynomial Y1 f of a graph patch of f in the frame of line."""
    patch = GraphPatch.__new__(GraphPatch)
    patch.f2, patch.frame = f, Frame(b1=line[:2], b2=line[2:4])
    return patch.slope


def y1_reference(slope, line, eta, tau, s):
    """Reference only: Y1 f on the graph line, as the slope polynomial's value_at."""
    return slope.value_at(*line_reference(line, eta, tau, s))


def frame_line(a, b):
    fr = Frame(b1=(math.cos(a), math.sin(a)), b2=(math.cos(b), math.sin(b)))
    return (*fr.b1, *fr.b2, fr.detC)


# unit b1 and b2 at least a milliradian from parallel: det C in [-1, 1], nonzero
frame_lines = st.tuples(angles, angles).filter(
    lambda ab: abs(math.sin(ab[1] - ab[0])) > 1e-3).map(lambda ab: frame_line(*ab))


def surface_or_overflow(p):
    """p, its gradient derived, or None once that is shown to fail only on a
    coefficient of p or its gradient that is not finite."""
    try:
        p.grad_poly
    except OverflowError:
        coefficients = [c for q in (p, *horiz_grad_poly(p)) for c in q.coefficients.values()]
        assert not all(map(math.isfinite, coefficients))
        return None
    return p


class TestLineKernels:
    @given(st.tuples(*[st.floats(-3.0, 3.0)] * 5) | frame_lines,
           coordinates, coordinates, coordinates)
    @settings(max_examples=300, deadline=None)
    def test_line_coords_match_reference(self, line, eta, tau, s):
        got = hsurface._compile_line(line)(eta, tau, s)
        assert all(map(same_float, got, line_reference(line, eta, tau, s)))

    def test_sums_longer_than_a_chunk(self):
        # the Newton kernel holds the sums of f and of its slope, built from
        # X1 f and X2 f, each longer than one statement
        f = full_degree_16()
        assert min(len(f.coefficients), *(len(q.coefficients) for q in f.grad_poly)) \
            > hsurface.SUM_CHUNK
        rng = np.random.default_rng(3)
        for a, b in rng.uniform(0.0, 2.0 * math.pi, (2, 2)):
            line = frame_line(a, b + 0.5)
            for eta, tau, s in rng.uniform(-1.0, 1.0, (10, 3)):
                assert_newton_matches(f, line, (-2.0, 2.0), eta, tau, s)

    @pytest.mark.parametrize("coefficients", [{}, {(0, 0, 0): -2.5}])
    def test_zero_and_constant(self, coefficients):
        # f = 0 is solved wherever Newton starts in the bracket; a constant
        # f != 0 has Y1 f = 0 and fails
        f = PolySurface(coefficients)
        for x in SPECIAL:
            got = assert_newton_matches(f, frame_line(0.3, 2.0), (-2.0, 2.0), x, x, x)
            if coefficients or not -2.0 <= x <= 2.0:
                assert got is None
            else:
                assert same_float(got, x)


# -- the compiled Newton kernel against the Python loop it replaced ------------

def newton_reference(f, line, bracket, eta, tau, s):
    """Reference only: the Newton loop of graph solves before it was compiled."""
    slope_poly = slope_of(f, line)
    smin, smax = bracket
    if not (smin - 1e-9 <= s <= smax + 1e-9):
        return None
    for _ in range(12):
        gv = g_reference(f, line, eta, tau, s)
        if abs(gv) <= hsurface.GTOL:
            return s
        slope = y1_reference(slope_poly, line, eta, tau, s)
        if abs(slope) < hsurface.MARGIN:
            return None
        s_next = s - gv / slope
        if not (smin - 1e-9 <= s_next <= smax + 1e-9) or not math.isfinite(s_next):
            return None
        s = s_next
    return s if abs(g_reference(f, line, eta, tau, s)) <= 1e-10 else None


def assert_newton_matches(f, line, bracket, eta, tau, s):
    """f's kernel and the reference on g_reference and y1_reference agree bit
    for bit, None with None."""
    if f is None:
        return None
    got = f.along_line(line, bracket, slope_of(f, line))(eta, tau, s)
    expected = newton_reference(f, line, bracket, eta, tau, s)
    if isinstance(expected, float):
        assert isinstance(got, float) and same_float(got, expected)
    else:
        assert got is expected
    return got


brackets = st.tuples(st.floats(-3.0, 0.0), st.floats(0.0, 3.0))


def near_linear(pert, line):
    """Y1 of the linear part is 1 on the line; the scaled perturbation keeps it near 1."""
    linear = PolySurface({(1, 0, 0): line[0], (0, 1, 0): line[1]})
    return linear + pert.scaled(0.05)


class TestNewtonKernel:
    def test_graph_patch_has_one_newton_path(self):
        assert not hasattr(GraphPatch, "_newton")

    def test_a_patch_compiles_one_kernel(self, monkeypatch):
        # Newton is the one kernel; line_coords and the reach line of
        # tau_lipschitz are the others.  Each polynomial compiles its own
        # evaluator, value_at, on first use.
        names = []
        compile_kernel = hsurface._compile_kernel
        monkeypatch.setattr(hsurface, "_compile_kernel",
                            lambda name, *args: names.append(name) or compile_kernel(name, *args))
        patch = patch_affine()
        assert sorted(n for n in names if n != "value_at") == ["line_coords", "line_coords",
                                                              "newton"]
        assert patch.solve_scalar((0.25, -0.3)) == pytest.approx(0.3 / 0.75, abs=1e-12)

    @given(st.one_of(polys, high_polys), frame_lines, brackets,
           coordinates, coordinates, coordinates)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_any_polynomial(self, p, line, br, eta, tau, s):
        assert_newton_matches(surface_or_overflow(p), line, br, eta, tau, s)

    @given(polys, frame_lines, brackets, window, window, st.floats(-4.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_near_a_root(self, pert, line, br, eta, tau, s):
        # hints inside and outside the bracket; most steps converge
        f = near_linear(pert, line)
        root = assert_newton_matches(f, line, br, eta, tau, s)
        if isinstance(root, float):
            assert br[0] - 1e-9 <= root <= br[1] + 1e-9

    def test_converges_on_a_cubic_in_skewed_frames(self):
        rng = np.random.default_rng(15)
        converged = 0
        for _ in range(40):
            a = rng.uniform(0.0, 2.0 * math.pi)
            line = frame_line(a, a + rng.uniform(0.3, 2.8))
            assert line[4] != 1.0
            pert = PolySurface({m: float(c) for m, c in
                                zip(MONOMIALS, rng.uniform(-1.0, 1.0, len(MONOMIALS)))})
            f = near_linear(pert, line)
            for eta, tau, s in rng.uniform(-0.5, 0.5, (5, 3)):
                root = assert_newton_matches(f, line, (-2.0, 2.0), eta, tau, s)
                converged += isinstance(root, float)
        assert converged >= 150

    @pytest.mark.parametrize("coefficients", [{}, {(0, 0, 0): -2.5}, {(0, 0, 1): 1.0}])
    def test_margin_failure_gives_none(self, coefficients):
        # Y1 f = 0 on the line: no Newton step can be taken
        f = PolySurface(coefficients)
        root = assert_newton_matches(f, frame_line(0.0, 1.5), (-2.0, 2.0), 0.0, 0.3, 0.1)
        assert root is (None if coefficients else 0.1)

    @pytest.mark.parametrize("hint", [math.nan, math.inf, -math.inf, 1e300])
    def test_non_finite_and_far_hints(self, hint):
        # a start outside the bracket fails before f is evaluated there
        f = near_linear(PolySurface({(0, 0, 2): 0.5, (1, 1, 0): -0.3}), frame_line(0.4, 2.0))
        assert assert_newton_matches(f, frame_line(0.4, 2.0), (-2.0, 2.0), 0.1, 0.2, hint) \
            is None

    def test_accepts_after_the_last_step(self):
        # Newton on s^2 halves s per step: from 4.096e-3, twelve steps end
        # at 1e-6, where |f| = 1e-12 lies between GTOL and the final test
        f = PolySurface({(2, 0, 0): 1.0})
        root = assert_newton_matches(f, frame_line(0.0, 0.5 * math.pi), (-2.0, 2.0),
                                     0.0, 0.0, 4.096e-3)
        assert root == pytest.approx(4.096e-3 / 2**12)
        assert hsurface.GTOL < root**2 <= 1e-10


# -- graph solves on arrays against the scalar solve ---------------------------

def patch_or_none(f, line, half=0.3, bracket=(-1.0, 1.0)):
    """The patch of f over a square window and bracket, or None when its
    margin certificate or its base solve fails."""
    try:
        return GraphPatch(Frame(b1=line[:2], b2=line[2:4]), f,
                          window=Rect.centered(half, half), bracket=bracket)
    except (MarginViolated, NoSignChange):
        return None


def solve_error(solve, *args):
    """The exception solve(*args) raises, as (type, message)."""
    try:
        solve(*args)
    except Exception as e:
        return type(e), str(e)
    raise AssertionError("the solve raised nothing")


lanes = st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
                 min_size=1, max_size=24)
linear_polys = st.dictionaries(st.sampled_from([(0, 0, 0), (0, 0, 1)]), unit).map(PolySurface)


class TestSolveMany:
    @given(polys, st.sampled_from([0.05, 0.3]), frame_lines, lanes)
    @settings(max_examples=200, deadline=None)
    def test_each_lane_is_the_scalar_solve(self, pert, scale, line, points):
        # cubic patches (scale 0.3) and near-linear ones (scale 0.05)
        linear = PolySurface({(1, 0, 0): line[0], (0, 1, 0): line[1]})
        patch = patch_or_none(linear + pert.scaled(scale), line)
        if patch is None:
            return
        eta, tau = np.array(points).T
        scalar = []
        for n in points:
            try:
                scalar.append(patch.solve_scalar(n))
            except (MarginViolated, NoSignChange) as e:  # the bracket fails at n
                assert solve_error(patch.solve_many, eta, tau) == (type(e), str(e))
                return
        many = patch.solve_many(eta, tau)
        assert many.dtype == np.float64 and many.shape == eta.shape
        assert all(abs(s - r) <= 1e-12 for s, r in zip(many.tolist(), scalar))

    @given(linear_polys, frame_lines, lanes)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_when_f2_is_linear(self, rest, line, points):
        # no power is formed, and arrays round like floats
        f = PolySurface({(1, 0, 0): line[0], (0, 1, 0): line[1]}) + rest.scaled(0.5)
        patch = patch_or_none(f, line)
        if patch is None:
            return
        eta, tau = np.array(points).T
        many = patch.solve_many(eta, tau)
        assert all(same_float(s, patch.solve_scalar(n))
                   for s, n in zip(many.tolist(), points))

    def test_broadcasts_its_arguments(self):
        patch = patch_affine()
        eta, tau = np.linspace(-0.4, 0.4, 3)[:, None], np.linspace(-0.5, 0.5, 5)
        many = patch.solve_many(eta, tau)
        assert many.shape == (3, 5)
        assert np.array_equal(many, -tau / (1.0 - eta))
        assert np.array_equal(patch.solve_many(eta, 0.25), many[:, [3]])

    def test_failed_lanes_bisect_as_scalar_solves(self, monkeypatch):
        # f2 = x11 + x11^3 + t: from the base root 0, Newton overshoots the
        # bracket [-0.48, 0.48] where tau is near -0.5, and the solve bisects
        f = X11_PLUS_T + PolySurface({(3, 0, 0): 1.0})
        patch = GraphPatch(make_frame((1.0, 0.0)), f, bracket=(-0.48, 0.48))
        bisected = []
        bisect = GraphPatch._bisect
        monkeypatch.setattr(GraphPatch, "_bisect",
                            lambda patch, *n: bisected.append(n) or bisect(patch, *n))
        kernel_calls = []
        newton = patch._newton_from
        patch._newton_from = lambda *args: kernel_calls.append(args) or newton(*args)
        eta = np.linspace(-0.5, 0.1, 7)
        tau = np.array([-0.5, -0.49, -0.3, 0.0, 0.2, -0.5, -0.45])
        many = patch.solve_many(eta, tau)
        # a failed lane goes straight to _bisect: one kernel call, the polish,
        # and no second Newton run from the base root
        assert [args[:2] for args in kernel_calls] == bisected
        in_many, bisected[:] = list(bisected), []
        scalar = [patch.solve_scalar(n) for n in zip(eta.tolist(), tau.tolist())]
        assert in_many == bisected and len(bisected) >= 2
        for i, (s, expected) in enumerate(zip(many.tolist(), scalar)):
            assert abs(s - expected) <= 1e-12
            if (eta[i], tau[i]) in bisected:
                assert s == expected

    def test_a_lane_without_a_root_raises_the_scalar_error(self):
        # at n = (0.5, 0.5) the root -1 lies outside the bracket [-0.5, 0.5]
        patch = GraphPatch(make_frame((1.0, 0.0)), X11_PLUS_T,
                           bracket=(-0.5, 0.5))
        eta, tau = np.array([0.0, 0.5, 0.1]), np.array([0.1, 0.5, 0.0])
        expected = solve_error(patch.solve_scalar, (0.5, 0.5))
        assert expected[0] is NoSignChange
        assert solve_error(patch.solve_many, eta, tau) == expected

    @pytest.mark.parametrize("eta, tau, first", [
        ([0.1, 0.9, math.nan], [0.0, 0.0, 0.0], 1),
        ([math.nan, 0.9], [0.0, 0.0], 0),
        ([0.0, 0.2, 0.3], [0.1, math.nan, -0.7], 1),
        ([-0.5 - 1e-8, 0.0], [0.0, 0.5 + 1e-8], 0),
    ])
    def test_first_lane_outside_the_window_raises(self, eta, tau, first):
        patch = patch_affine()
        expected = solve_error(patch.solve_scalar, (eta[first], tau[first]))
        assert expected[0] is ValueError and "outside the patch window" in expected[1]
        assert solve_error(patch.solve_many, np.array(eta), np.array(tau)) == expected

    def test_window_slack_as_in_the_scalar_solve(self):
        patch = patch_affine()
        edge = 0.5 + 0.5 * hsurface.WINDOW_SLACK
        got = patch.solve_many(np.array([edge, -edge]), np.array([-edge, edge]))
        assert got.tolist() == [patch.solve_scalar((edge, -edge)),
                                patch.solve_scalar((-edge, edge))]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lanes_are_cold_scalar_solves_on_the_benchmark_pairs(self, seed):
        # bit for bit on the cubic pairs of bench/pairs.py, at random window points
        pairs = bench_module("pairs")
        rng = np.random.default_rng([28, seed])
        for k in range(8):
            pair = pairs.draw_pair(seed, k)
            patch = graph_field(PolySurface(pair["f2"]), Point(*pair["p"]), pairs.WINDOW,
                                pairs.BRACKET).patch
            eta, tau = rng.uniform(-pairs.WINDOW, pairs.WINDOW, (2, 300))
            many = patch.solve_many(eta, tau)
            scalar = [patch.solve_scalar(n) for n in zip(eta.tolist(), tau.tolist())]
            assert all(map(same_float, many.tolist(), scalar))

    def test_window_test_has_one_home(self):
        assert not hasattr(GraphPatch, "contains")


# -- the margin certificate against the sample loop it replaced ----------------

def certificate_reference(f, line, window, bracket):
    """Reference only: the margin certificate's loop over its samples.

    The smallest sampled |Y1 f2|, or the message of the first failing sample,
    each sample's Y1 f2 the slope polynomial's value_at on floats.
    """
    slope = slope_of(f, line)
    axes = [np.linspace(lo, hi, hsurface.MARGIN_GRID) for lo, hi in (window.eta, window.tau, bracket)]
    sign = 0.0
    worst = math.inf
    for eta in axes[0]:
        for tau in axes[1]:
            for s in axes[2]:
                v = y1_reference(slope, line, float(eta), float(tau), float(s))
                worst = min(worst, abs(v))
                if not hsurface.MARGIN <= abs(v) < math.inf:
                    what = ("is not finite" if abs(v) == math.inf
                            else f"< margin {hsurface.MARGIN:.3e}")
                    return f"|Y1 f2| = {abs(v):.3e} {what} at n=({eta:.3g},{tau:.3g}), s={s:.3g}"
                if sign == 0.0:
                    sign = math.copysign(1.0, v)
                elif math.copysign(1.0, v) != sign:
                    return "Y1 f2 changes sign on the sampled window"
    return worst


def certificate(f, line, window, bracket):
    """GraphPatch's certificate alone: the smallest sampled |Y1 f2|, or its message."""
    patch = GraphPatch.__new__(GraphPatch)
    patch.window, patch.bracket, patch.f2 = window, bracket, f
    patch.frame = Frame(b1=line[:2], b2=line[2:4])
    patch.line_coords = hsurface._compile_line(line)
    try:
        patch._certify_margin()
    except MarginViolated as e:
        return str(e)
    return patch.y1_min_sampled


half_widths = st.floats(0.0, 0.6)


class TestMarginCertificate:
    @given(st.one_of(polys, high_polys, polys.map(lambda p: p.scaled(1e-6))), frame_lines,
           half_widths, half_widths, brackets)
    @settings(max_examples=300, deadline=None)
    @example(p=PolySurface({(1, 0, 0): 0.9999825122717138, (0, 1, 0): -0.005913979265422965,
                            (4, 0, 0): -0.08846883487279719,
                            (0, 4, 0): -0.031572430908438864}),
             line=(0.9999825122717138, -0.005913979265422965, 0.005913979265422965,
                   0.9999825122717138, 1.0),
             we=0.254395160104549, wt=0.36978525673867907,
             br=(-1.4270580112661375, 1.3447020512059267))
    def test_matches_the_sample_loop(self, p, line, we, wt, br):
        f = surface_or_overflow(p)
        if f is None:
            return
        window = Rect((-we, we), (-wt, wt))
        expected = certificate_reference(f, line, window, br)
        got = certificate(f, line, window, br)
        assert type(got) is type(expected)
        assert got == expected

    @given(polys, frame_lines, half_widths, half_widths, brackets)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sample_loop_near_linear(self, pert, line, we, wt, br):
        # the certificate passes on most of these, so the minima are compared
        f = near_linear(pert, line)
        window = Rect((-we, we), (-wt, wt))
        assert certificate(f, line, window, br) == \
            certificate_reference(f, line, window, br)

    def test_one_kernel_call(self, monkeypatch):
        # one call of the slope polynomial's evaluator, on the sample arrays
        calls = []
        compile_poly = hsurface._compile

        def counted(coefficients):
            evaluate = compile_poly(coefficients)
            return lambda *x: calls.append((coefficients, x)) or evaluate(*x)

        monkeypatch.setattr(hsurface, "_compile", counted)
        patch = patch_affine()
        slope_calls = [x for coefficients, x in calls if coefficients is patch.slope.coefficients]
        assert [np.shape(a) for a in slope_calls[0]] == [(hsurface.MARGIN_GRID,) * 3] * 3
        assert len(slope_calls) == 1
        assert patch.y1_min_sampled == 0.5

    def test_constant_slope_is_broadcast(self):
        # Y1 f2 = 1 on the flat patch: the evaluators return one float
        assert patch_flat().y1_min_sampled == 1.0


# -- the bound on the tau-slope of the graph function --------------------------

class TestTauLipschitz:
    def test_affine_patch(self):
        # dt f2 = 1 and MARGIN bounds |Y1 f2| = |1 - eta| from below
        assert patch_affine().tau_lipschitz == 1.0 / hsurface.MARGIN
        assert patch_flat().tau_lipschitz == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_finite_differences_on_random_cubics(self, seed):
        rng = np.random.default_rng([15, seed])
        a = rng.uniform(0.0, 2.0 * math.pi)
        fr = make_frame((math.cos(a), math.sin(a)))
        pert = PolySurface({m: float(c) for m, c in
                            zip(MONOMIALS, rng.uniform(-1.0, 1.0, len(MONOMIALS)))})
        linear = PolySurface({(1, 0, 0): fr.b1[0], (0, 1, 0): fr.b1[1]})
        patch = GraphPatch(fr, linear + pert.scaled(0.05))
        bound = patch.tau_lipschitz
        assert math.isfinite(bound)
        h = 1e-4
        worst = 0.0
        for eta in np.linspace(-0.5, 0.5, 9):
            for tau in np.linspace(-0.5 + h, 0.5 - h, 9):
                up, down = (patch.solve_scalar((float(eta), float(tau + d))) for d in (h, -h))
                worst = max(worst, abs(up - down) / (2.0 * h))
        assert 0.0 < worst <= bound
