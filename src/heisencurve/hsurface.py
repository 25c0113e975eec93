"""Level-set surfaces with horizontal gradients and their intrinsic graphs.

A surface is the zero set (or a general level set) of a scalar function on
the group with nonvanishing horizontal gradient.  Over a window of the
vertical subgroup N the surface is the image of a graph map
Phi2(n) = n * (phi2hat(n) * b1): for each n the scalar graph coordinate
phi2hat(n) is the unique root of a strictly monotone one-variable function,
found here by Newton's method from a warm start (the previous root), with
bracketed bisection and a Newton polish as the fallback.

The solve runs on plain floats: the graph line n * (s b1) has a closed form
in coordinates, and a polynomial handle evaluates f and (X1 f, X2 f) at
those coordinates from term tuples each polynomial builds once.  Left
translation of a polynomial is again a polynomial, so translated handles
keep that fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MarginViolated, NoSignChange
from .hgroup import (
    Frame,
    Point,
    VerticalCoords,
    horizontal_derivative,
    mul,
)

__all__ = [
    "PolySurface",
    "SurfaceHandle",
    "GraphPatch",
    "horiz_grad_poly",
    "y_derivatives",
]

MAX_TOTAL_DEGREE = 16
# Central-difference step and tolerance of check_gradient.
CHECK_STEP = 1e-5
CHECK_TOL = 1e-6
# Required lower bound for |Y1 f2| on a graph patch.
MARGIN = 1e-6
# Samples per axis of the margin certificate.
MARGIN_GRID = 7
# Residual |f2| at which a graph solve stops.
GTOL = 1e-13
# How far outside its window a graph patch still accepts a point.
WINDOW_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Polynomial surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySurface:
    """Trivariate polynomial p(x11, x12, t) = sum c_ijk x11^i x12^j t^k.

    coefficients maps exponent triples (i, j, k) to reals; zero entries are
    dropped.  The surface is the zero set of p.
    """

    coefficients: dict[tuple[int, int, int], float] = field(default_factory=dict)
    _terms: tuple[tuple[float, int, int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned = {}
        for key, c in self.coefficients.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"exponents must be nonnegative, got {key!r}")
            if i + j + k > MAX_TOTAL_DEGREE:
                raise ValueError(
                    f"total degree {i + j + k} exceeds bound {MAX_TOTAL_DEGREE}"
                )
            if c != 0.0:
                cleaned[(int(i), int(j), int(k))] = float(c)
        object.__setattr__(self, "coefficients", cleaned)
        terms = tuple((c, i, j, k) for (i, j, k), c in cleaned.items())
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def from_quadruples(cls, quads) -> "PolySurface":
        """Build from [i, j, k, coefficient] rows, summing repeated exponents."""
        coeffs: dict[tuple[int, int, int], float] = {}
        for row in quads:
            if len(row) != 4:
                raise ValueError(f"expected [i, j, k, coeff] quadruple, got {row!r}")
            i, j, k, c = row
            key = (int(i), int(j), int(k))
            coeffs[key] = coeffs.get(key, 0.0) + float(c)
        return cls(coeffs)

    def __call__(self, x: Point) -> float:
        return self.value_at(x.x11, x.x12, x.t)

    def value_at(self, x11: float, x12: float, t: float) -> float:
        """Evaluate at float coordinates: the one sum over the term tuple."""
        acc = 0.0
        for c, i, j, k in self._terms:
            if i:
                c = c * x11**i
            if j:
                c = c * x12**j
            if k:
                c = c * t**k
            acc = acc + c
        return acc

    def eval_coords(self, x11, x12, t):
        """Evaluate at coordinates; works elementwise on numpy arrays."""
        acc = self.value_at(x11, x12, t)
        if any(isinstance(x, np.ndarray) for x in (x11, x12, t)):
            # terms free of some array argument still give its full shape
            acc = acc + np.zeros(np.broadcast(x11, x12, t).shape)
        return acc

    def translated(self, p: Point) -> "PolySurface":
        """The polynomial x -> self(p * x), by substituting the coordinates of p * x.

        p * x = (p11 + x11, p12 + x12, pt + t + p11 x12 - p12 x11) is affine
        in x, so the substitution stays in the polynomial ring.
        """
        subs = [
            _affine({(0, 0, 0): p.x11, (1, 0, 0): 1.0}),
            _affine({(0, 0, 0): p.x12, (0, 1, 0): 1.0}),
            _affine({(0, 0, 0): p.t, (0, 0, 1): 1.0, (0, 1, 0): p.x11, (1, 0, 0): -p.x12}),
        ]
        out: dict[tuple[int, int, int], float] = {}
        for exps, c in self.coefficients.items():
            term = {(0, 0, 0): c}
            for sub, e in zip(subs, exps):
                for _ in range(e):
                    term = _poly_mul(term, sub)
            for key, v in term.items():
                out[key] = out.get(key, 0.0) + v
        return PolySurface(out)

    def partial(self, var: int) -> "PolySurface":
        """Coordinate partial derivative; var is 0 for x11, 1 for x12, 2 for t."""
        out: dict[tuple[int, int, int], float] = {}
        for key, c in self.coefficients.items():
            e = key[var]
            if e == 0:
                continue
            new = list(key)
            new[var] = e - 1
            k = tuple(new)
            out[k] = out.get(k, 0.0) + c * e
        return PolySurface(out)

    def shift(self, var: int) -> "PolySurface":
        """Multiply by the coordinate variable ``var`` (same indexing as partial)."""
        out = {}
        for key, c in self.coefficients.items():
            new = list(key)
            new[var] += 1
            out[tuple(new)] = c
        return PolySurface(out)

    def __add__(self, other: "PolySurface") -> "PolySurface":
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, 0.0) + c
        return PolySurface(out)

    def scaled(self, a: float) -> "PolySurface":
        return PolySurface({k: a * c for k, c in self.coefficients.items()})

    def max_euclidean_gradient(self, box) -> float:
        """Upper bound for |grad p| (all three coordinate partials) over a box.

        Each partial is bounded term by term: |c| times the largest absolute
        value of each coordinate on the box to the term's exponent.
        """
        reach = [max(abs(lo), abs(hi)) for lo, hi in box]
        bounds = [
            PolySurface({e: abs(c) for e, c in self.partial(v).coefficients.items()})
            .value_at(*reach)
            for v in range(3)
        ]
        return math.sqrt(sum(b * b for b in bounds))


def _affine(coeffs: dict) -> dict:
    # zero terms dropped, so translating by the origin reproduces the input
    return {k: c for k, c in coeffs.items() if c != 0.0}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int, int], float] = {}
    for (i, j, k), c in a.items():
        for (u, v, w), d in b.items():
            key = (i + u, j + v, k + w)
            out[key] = out.get(key, 0.0) + c * d
    return out


def horiz_grad_poly(p: PolySurface) -> tuple[PolySurface, PolySurface]:
    """Exact horizontal gradient (X1 p, X2 p) as polynomials.

    The left-invariant horizontal fields act on coordinates as
    X1 = d/dx11 - x12 * d/dt and X2 = d/dx12 + x11 * d/dt; both keep the
    polynomial ring closed.
    """
    dt = p.partial(2)
    x1p = p.partial(0) + dt.shift(1).scaled(-1.0)
    x2p = p.partial(1) + dt.shift(0)
    return x1p, x2p


# ---------------------------------------------------------------------------
# Surface handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceHandle:
    """A surface as an evaluator plus its horizontal gradient (X1 f, X2 f).

    value_at and grad_at evaluate at plain coordinates (x11, x12, t): by
    PolySurface.value_at when the handle carries its polynomial, otherwise
    through eval and grad_h at a Point.
    """

    eval: Callable[[Point], float]
    grad_h: Callable[[Point], tuple[float, float]]
    poly: PolySurface | None = None
    _grad_poly: tuple[PolySurface, PolySurface] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        grad_poly = None if self.poly is None else horiz_grad_poly(self.poly)
        object.__setattr__(self, "_grad_poly", grad_poly)

    @classmethod
    def from_polynomial(cls, p: PolySurface, validate: bool = True) -> "SurfaceHandle":
        def grad(x: Point) -> tuple[float, float]:
            # handle is assigned below, before grad can run
            return handle.grad_at(x.x11, x.x12, x.t)

        handle = cls(eval=p, grad_h=grad, poly=p)
        if validate:
            check_gradient(handle)
        return handle

    def value_at(self, x11: float, x12: float, t: float) -> float:
        if self.poly is None:
            return self.eval(Point(x11, x12, t))
        return self.poly.value_at(x11, x12, t)

    def grad_at(self, x11: float, x12: float, t: float) -> tuple[float, float]:
        if self._grad_poly is None:
            return self.grad_h(Point(x11, x12, t))
        x1f, x2f = self._grad_poly
        return (x1f.value_at(x11, x12, t), x2f.value_at(x11, x12, t))

    def translated(self, p: Point) -> "SurfaceHandle":
        """The handle of x -> f(p * x); gradients translate along for free.

        A polynomial handle stays polynomial: the translate is the
        substituted polynomial, exact algebra that needs no new gradient check.
        """
        if self.poly is not None:
            return SurfaceHandle.from_polynomial(self.poly.translated(p), validate=False)

        def ev(x: Point) -> float:
            return self.eval(mul(p, x))

        def grad(x: Point) -> tuple[float, float]:
            return self.grad_h(mul(p, x))

        return SurfaceHandle(eval=ev, grad_h=grad)


_CHECK_POINTS = [
    Point(0.0, 0.0, 0.0),
    Point(0.3, -0.2, 0.1),
    Point(-0.5, 0.4, -0.3),
    Point(1.1, 0.7, 0.9),
    Point(-0.9, -1.3, 0.6),
]


def check_gradient(handle: SurfaceHandle) -> float:
    """Cross-check grad_h against central differences along group curves.

    Returns the max deviation over _CHECK_POINTS; raises if one exceeds
    CHECK_TOL or is not finite.  Deviation scales like CHECK_STEP**2 for
    smooth surfaces, which keeps well under the tolerance for
    moderate-degree polynomials.
    """
    worst = 0.0
    for x in _CHECK_POINTS:
        g1, g2 = handle.grad_h(x)
        d1 = horizontal_derivative(handle.eval, x, (1.0, 0.0), CHECK_STEP)
        d2 = horizontal_derivative(handle.eval, x, (0.0, 1.0), CHECK_STEP)
        scale = 1.0 + abs(g1) + abs(g2)
        for dev in (abs(g1 - d1) / scale, abs(g2 - d2) / scale):
            if not dev <= CHECK_TOL:  # a NaN deviation fails here too
                raise ValueError(
                    "horizontal gradient fails finite-difference cross-check: "
                    f"{dev:.3e} > {CHECK_TOL:.3e}"
                )
            worst = max(worst, dev)
    return worst


def y_derivatives(f: SurfaceHandle, x: Point, fr: Frame) -> tuple[float, float]:
    """Derivatives (Y1 f, Y2 f) along the frame directions b1, b2."""
    g1, g2 = f.grad_h(x)
    return (
        g1 * fr.b1[0] + g2 * fr.b1[1],
        g1 * fr.b2[0] + g2 * fr.b2[1],
    )


# ---------------------------------------------------------------------------
# Intrinsic graph patches
# ---------------------------------------------------------------------------

class GraphPatch:
    """A window of the vertical subgroup over which f2 admits an intrinsic graph.

    Construction certifies, on a MARGIN_GRID sample of window x bracket,
    that the graph direction derivative Y1 f2 keeps one sign and stays above
    MARGIN in absolute value; that makes the per-point root problem
    strictly monotone and bisection safe.

    Parameters
    ----------
    frame    : Frame with b1 the graph direction.
    f2       : SurfaceHandle of the defining function (the graph is f2 = 0).
    window   : ((eta_min, eta_max), (tau_min, tau_max)) in N-coordinates.
    bracket  : (s_min, s_max) allowed range of the graph coordinate.
    """

    def __init__(self, frame: Frame, f2: SurfaceHandle,
                 window=((-0.5, 0.5), (-0.5, 0.5)),
                 bracket=(-2.0, 2.0)):
        self.frame = frame
        self.f2 = f2
        self._line = (*frame.b1, *frame.b2, frame.detC)
        self.window = (tuple(window[0]), tuple(window[1]))
        self.bracket = (float(bracket[0]), float(bracket[1]))
        self._certify_margin()
        # the base solve starts at s = 0; later cold solves start from its root
        self._s_base = 0.0
        self._s_base = self.solve_scalar(VerticalCoords(0.0, 0.0))

    # -- margin certificate --------------------------------------------------

    def _y1f2_at(self, n: VerticalCoords, s: float) -> float:
        g1, g2 = self.f2.grad_at(*self.line_coords(n.eta, n.tau, s))
        return g1 * self.frame.b1[0] + g2 * self.frame.b1[1]

    def _certify_margin(self):
        (emin, emax), (tmin, tmax) = self.window
        smin, smax = self.bracket
        etas = np.linspace(emin, emax, MARGIN_GRID)
        taus = np.linspace(tmin, tmax, MARGIN_GRID)
        ss = np.linspace(smin, smax, MARGIN_GRID)
        sign = 0.0
        worst = math.inf
        for eta in etas:
            for tau in taus:
                n = VerticalCoords(float(eta), float(tau))
                for s in ss:
                    y1 = self._y1f2_at(n, float(s))
                    worst = min(worst, abs(y1))
                    if not abs(y1) >= MARGIN:  # NaN fails here too
                        raise MarginViolated(
                            f"|Y1 f2| = {abs(y1):.3e} < margin {MARGIN:.3e} "
                            f"at n=({eta:.3g},{tau:.3g}), s={s:.3g}"
                        )
                    if sign == 0.0:
                        sign = math.copysign(1.0, y1)
                    elif math.copysign(1.0, y1) != sign:
                        raise MarginViolated(
                            "Y1 f2 changes sign on the sampled window"
                        )
        self.y1_min_sampled = worst

    # -- graph solves ----------------------------------------------------------

    def line_coords(self, eta: float, tau: float, s: float) -> tuple[float, float, float]:
        """Coordinates of n * (s b1) for n = (eta, tau): the group product in closed form."""
        b1x, b1y, b2x, b2y, detc = self._line
        return (eta * b2x + s * b1x, eta * b2y + s * b1y, tau - eta * s * detc)

    def line_point(self, n: VerticalCoords, s: float) -> Point:
        """The point n * (s b1) of the graph line through n."""
        return Point(*self.line_coords(n.eta, n.tau, s))

    def _g(self, n: VerticalCoords, s: float) -> float:
        return self.f2.value_at(*self.line_coords(n.eta, n.tau, s))

    def contains(self, n: VerticalCoords) -> bool:
        (emin, emax), (tmin, tmax) = self.window
        return (emin - WINDOW_SLACK <= n.eta <= emax + WINDOW_SLACK
                and tmin - WINDOW_SLACK <= n.tau <= tmax + WINDOW_SLACK)

    def solve_scalar(self, n: VerticalCoords, hint: float | None = None) -> float:
        """The graph coordinate phi2hat(n): unique root of s -> f2(n * s b1).

        Newton runs from the hint; without one, or when Newton fails, the root
        is bracketed around the hint or the base coordinate, bisected, and
        polished by Newton.
        """
        if not self.contains(n):
            raise ValueError(f"n = ({n.eta!r}, {n.tau!r}) outside the patch window")

        if hint is not None:
            s = self._newton(n, hint)
            if s is not None:
                return s

        s0 = hint if hint is not None else self._s_base
        lo, hi = self._expand_bracket(n, s0)
        s = self._bisect(n, lo, hi)
        polished = self._newton(n, s)
        return polished if polished is not None else s

    def _newton(self, n: VerticalCoords, s: float) -> float | None:
        smin, smax = self.bracket
        for _ in range(12):
            g = self._g(n, s)
            if abs(g) <= GTOL:
                return s
            y1 = self._y1f2_at(n, s)
            if abs(y1) < MARGIN:
                return None
            s_next = s - g / y1
            if not (smin - 1e-9 <= s_next <= smax + 1e-9) or not math.isfinite(s_next):
                return None
            s = s_next
        return s if abs(self._g(n, s)) <= 1e-10 else None

    def _expand_bracket(self, n: VerticalCoords, s0: float) -> tuple[float, float]:
        smin, smax = self.bracket
        s0 = min(max(s0, smin), smax)
        w = max(1e-3, 0.0625 * (smax - smin))
        g0 = self._g(n, s0)
        if g0 == 0.0:
            return s0, s0
        while True:
            lo = max(smin, s0 - w)
            hi = min(smax, s0 + w)
            glo = self._g(n, lo)
            ghi = self._g(n, hi)
            if glo == 0.0:
                return lo, lo
            if ghi == 0.0:
                return hi, hi
            if glo * g0 < 0.0:
                return lo, s0
            if ghi * g0 < 0.0:
                return s0, hi
            if lo == smin and hi == smax:
                if glo * ghi < 0.0:
                    return lo, hi
                raise NoSignChange(
                    f"no sign change for the graph equation over bracket "
                    f"[{smin}, {smax}] at n=({n.eta:.3g},{n.tau:.3g})"
                )
            w *= 2.0

    def _bisect(self, n: VerticalCoords, lo: float, hi: float) -> float:
        if lo == hi:
            return lo
        for s_end in (lo, hi):
            if abs(self._y1f2_at(n, s_end)) < MARGIN:
                raise MarginViolated(
                    f"|Y1 f2| below margin {MARGIN:.3e} inside the solve bracket"
                )
        glo = self._g(n, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = self._g(n, mid)
            if abs(gm) <= GTOL or hi - lo < 1e-15:
                return mid
            if glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
        return 0.5 * (lo + hi)

    def graph_point(self, n: VerticalCoords, hint: float | None = None) -> Point:
        """Phi2(n) = n * (phi2hat(n) * b1); satisfies f2 = 0 to solver tolerance."""
        s = self.solve_scalar(n, hint=hint)
        return self.line_point(n, s)

    @property
    def base_coordinate(self) -> float:
        return self._s_base
