"""Group algebra, metric, frames, and factorizing projections."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heisencurve.errors import NotInVerticalSubgroup
from heisencurve.hgroup import (
    ORIGIN,
    Frame,
    Point,
    VerticalCoords,
    dist,
    hnorm,
    inv,
    make_frame,
    mul,
)
from heisencurve.verify import (
    coords_N,
    dilate,
    embed_N,
    horizontal_coeffs,
    horizontal_derivative,
    project_H,
    project_N,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
points = st.builds(Point, coord, coord, coord)


def rand_points(rng, n):
    xs = rng.uniform(-10.0, 10.0, size=(n, 3))
    return [Point(*row) for row in xs]


def assert_point_close(a, b, tol=1e-12):
    assert abs(a.x11 - b.x11) <= tol
    assert abs(a.x12 - b.x12) <= tol
    assert abs(a.t - b.t) <= tol


class TestProduct:
    def test_twist_example(self):
        assert mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1, 1, 1)

    def test_identity(self):
        y = Point(0.3, -0.7, 2.0)
        assert mul(ORIGIN, y) == y
        assert mul(y, ORIGIN) == y

    def test_inverse_cancels(self):
        x = Point(1.5, -2.5, 0.25)
        assert_point_close(mul(x, inv(x)), ORIGIN)
        assert_point_close(mul(inv(x), x), ORIGIN)

    @given(points, points, points)
    @settings(max_examples=200)
    def test_associativity(self, x, y, z):
        assert_point_close(mul(mul(x, y), z), mul(x, mul(y, z)), tol=1e-12)

    def test_inverse_example(self):
        assert inv(Point(1, 2, 3)) == Point(-1, -2, -3)
        assert inv(ORIGIN) == ORIGIN

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf, 0.0)


class TestMetric:
    def test_dilate_example(self):
        assert dilate(2.0, Point(1, 1, 1)) == Point(2, 2, 4)
        x = Point(0.4, -0.1, 0.9)
        assert dilate(1.0, x) == x

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dilate(0.0, ORIGIN)
        with pytest.raises(ValueError):
            dilate(-1.0, ORIGIN)

    def test_hnorm_examples(self):
        assert hnorm(Point(3, 4, 0)) == 5.0
        assert hnorm(Point(0, 0, 4)) == 2.0
        assert hnorm(ORIGIN) == 0.0

    def test_dist_examples(self):
        x = Point(0.1, 0.2, 0.3)
        assert dist(x, x) == 0.0
        assert dist(ORIGIN, Point(3, 4, 0)) == 5.0

    @given(points, st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200)
    def test_homogeneity(self, x, r):
        assert abs(hnorm(dilate(r, x)) - r * hnorm(x)) <= 1e-12 * (1.0 + r * hnorm(x))

    @given(points, points)
    @settings(max_examples=200)
    def test_triangle_inequality(self, x, y):
        assert hnorm(mul(x, y)) <= hnorm(x) + hnorm(y) + 1e-12

    @given(points, points, points)
    @settings(max_examples=200)
    def test_left_invariance(self, z, x, y):
        # for nearly-coincident pairs the norm square-roots the rounding of
        # the twist product, so the 1e-10 bound applies to separated pairs
        assume(dist(x, y) >= 1e-3)
        assert abs(dist(mul(z, x), mul(z, y)) - dist(x, y)) <= 1e-10

    @given(points, points, st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=200)
    def test_dilations_are_automorphisms(self, x, y, r):
        assert_point_close(dilate(r, mul(x, y)), mul(dilate(r, x), dilate(r, y)), tol=1e-9)


class TestFrames:
    def test_make_frame_axis(self):
        fr = make_frame((1.0, 0.0))
        assert fr.b2 == (0.0, 1.0)
        assert fr.detC == 1.0

    def test_make_frame_rotated(self):
        fr = make_frame((0.0, 1.0))
        assert fr.b2 == (-1.0, 0.0)
        assert fr.detC == 1.0

    def test_make_frame_unit_det(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            th = rng.uniform(0, 2 * math.pi)
            fr = make_frame((math.cos(th), math.sin(th)))
            assert abs(abs(fr.detC) - 1.0) <= 1e-12

    def test_make_frame_rejects_zero(self):
        with pytest.raises(ValueError):
            make_frame((0.0, 0.0))

    def test_frame_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Frame((2.0, 0.0), (0.0, 1.0))

    def test_frame_rejects_dependent(self):
        with pytest.raises(ValueError):
            Frame((1.0, 0.0), (-1.0, 0.0))

    @pytest.mark.parametrize("b1", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
                                    (math.inf, math.nan)])
    def test_make_frame_rejects_non_finite(self, b1):
        with pytest.raises(ValueError, match="finite nonzero"):
            make_frame(b1)

    @pytest.mark.parametrize("b1, b2", [((math.nan, 0.0), (0.0, 1.0)),
                                        ((1.0, 0.0), (0.0, math.nan)),
                                        ((math.nan, math.nan), (0.0, 1.0))])
    def test_frame_rejects_non_finite(self, b1, b2):
        with pytest.raises(ValueError, match="unit length"):
            Frame(b1, b2)


class TestProjections:
    def test_worked_example(self):
        fr = make_frame((1.0, 0.0))
        x = Point(1, 2, 3)
        assert_point_close(project_H(x, fr), Point(1, 0, 0))
        assert_point_close(project_N(x, fr), Point(0, 2, 5))
        assert_point_close(mul(Point(0, 2, 5), Point(1, 0, 0)), x)

    def test_point_already_vertical(self):
        fr = make_frame((1.0, 0.0))
        n = Point(0, 1.5, -0.3)
        assert_point_close(project_N(n, fr), n)
        assert_point_close(project_H(n, fr), ORIGIN)

    def test_roundtrip_random_frames(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            th = rng.uniform(0, 2 * math.pi)
            fr = make_frame((math.cos(th), math.sin(th)))
            x = Point(*rng.uniform(-10, 10, size=3))
            back = mul(project_N(x, fr), project_H(x, fr))
            assert_point_close(back, x, tol=1e-12)
            # N-component has no b1 part
            a, _ = horizontal_coeffs(fr, project_N(x, fr).horizontal())
            assert abs(a) <= 1e-12


class TestVerticalCoords:
    def test_embed_example(self):
        fr = make_frame((1.0, 0.0))  # b2 = (0, 1)
        assert embed_N(VerticalCoords(1.0, 2.0), fr) == Point(0, 1, 2)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = rng.uniform(0, 2 * math.pi)
            fr = make_frame((math.cos(th), math.sin(th)))
            v = VerticalCoords(*rng.uniform(-5, 5, size=2))
            w = coords_N(embed_N(v, fr), fr)
            assert abs(w.eta - v.eta) <= 1e-12 * (1 + abs(v.eta))
            assert abs(w.tau - v.tau) <= 1e-12 * (1 + abs(v.tau))

    def test_origin(self):
        fr = make_frame((0.6, 0.8))
        assert embed_N(VerticalCoords(0.0, 0.0), fr) == ORIGIN

    def test_rejects_points_off_N(self):
        fr = make_frame((1.0, 0.0))
        with pytest.raises(NotInVerticalSubgroup):
            coords_N(Point(0.5, 0.0, 0.0), fr)


class TestHorizontalDerivative:
    def test_linear_coordinate(self):
        f = lambda p: p.x11
        for x in (ORIGIN, Point(0.3, -0.9, 2.0)):
            assert abs(horizontal_derivative(f, x, (1.0, 0.0)) - 1.0) <= 1e-9

    def test_vertical_coordinate_at_origin(self):
        f = lambda p: p.t
        assert abs(horizontal_derivative(f, ORIGIN, (1.0, 0.0))) <= 1e-12

    def test_vertical_coordinate_twisted(self):
        # t-component of (0,1,0)*(s,0,0) is -s, so the derivative is -1
        f = lambda p: p.t
        assert abs(horizontal_derivative(f, Point(0, 1, 0), (1.0, 0.0)) + 1.0) <= 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            horizontal_derivative(lambda p: p.t, ORIGIN, (1.0, 0.0), h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_step(self, h):
        with pytest.raises(ValueError, match="step h must be finite and positive"):
            horizontal_derivative(lambda p: p.t, ORIGIN, (1.0, 0.0), h=h)


def _draw_with_ties(seed, n=2000):
    """Coordinate arrays of n points with zeros in every coordinate and, in a
    quarter of the rows, sqrt|t| tied with |x1| to the last bit."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-10.0, 10.0, size=(3, n))
    c[rng.random((3, n)) < 0.05] = 0.0
    for i in np.flatnonzero(rng.random(n) < 0.25).tolist():
        h = math.hypot(c[0, i], c[1, i])
        t = h * h
        while math.sqrt(t) > h:
            t = math.nextafter(t, 0.0)
        while math.sqrt(math.nextafter(t, math.inf)) <= h:
            t = math.nextafter(t, math.inf)
        c[2, i] = t if rng.random() < 0.5 else -t
    return c


def same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestArrays:
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_per_element_float_calls(self, seed):
        cx, cy = _draw_with_ties(seed), _draw_with_ties(seed + 100)
        r = np.random.default_rng(seed).uniform(0.1, 3.0, size=cx.shape[1])
        x, y = Point(*cx), Point(*cy)
        xs = [Point(*map(float, col)) for col in cx.T]
        ys = [Point(*map(float, col)) for col in cy.T]
        ties = sum(hnorm(p) == math.sqrt(abs(p.t)) == math.hypot(p.x11, p.x12) for p in xs)
        assert ties > 100 and (cx == 0.0).sum() > 100
        for name, got, want in (
            ("mul", mul(x, y), [mul(a, b) for a, b in zip(xs, ys)]),
            ("inv", inv(x), [inv(a) for a in xs]),
            ("dilate", dilate(r, x), [dilate(s, a) for s, a in zip(r.tolist(), xs)]),
        ):
            for c in ("x11", "x12", "t"):
                assert same_bits(getattr(got, c), [getattr(p, c) for p in want]), (name, c)
        assert same_bits(hnorm(x), [hnorm(a) for a in xs])
        assert same_bits(dist(x, y), [dist(a, b) for a, b in zip(xs, ys)])

    def test_float_points_match_the_math_reference(self):
        # reference only: the norm on floats through math, ties included
        xs = [Point(*map(float, col)) for col in _draw_with_ties(7).T]
        for p in xs:
            got = hnorm(p)
            assert type(got) is np.float64
            assert same_bits(got, max(math.hypot(p.x11, p.x12), math.sqrt(abs(p.t))))

    def test_broadcast_shapes(self):
        col = np.array([[0.5], [-1.0]])
        x = Point(col, np.array([0.25, 0.0, 3.0]), 0.0)
        assert hnorm(x).shape == (2, 3)
        assert same_bits(hnorm(x), [[hnorm(Point(float(a), b, 0.0)) for b in (0.25, 0.0, 3.0)]
                                    for a in (0.5, -1.0)])
        assert hnorm(Point(0.0, 0.0, np.array([4.0, 9.0]))).tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("name", ["x11", "x12", "t"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_names_its_non_finite_entry(self, name, bad):
        coords = {c: np.linspace(-1.0, 1.0, 5) for c in ("x11", "x12", "t")}
        coords[name][1] = bad
        coords[name][3] = math.inf if math.isnan(bad) else math.nan  # a later bad entry
        with pytest.raises(ValueError, match=f"Point coordinate {name} must be finite, "
                                             f"got {bad!r}"):
            Point(**coords)

    def test_dilate_rejects_a_zero_factor_among_many(self):
        r = np.array([0.5, 2.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="dilation factor must be positive"):
            dilate(r, Point(np.ones(4), np.ones(4), np.ones(4)))
