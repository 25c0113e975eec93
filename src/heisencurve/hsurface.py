"""Polynomial level-set surfaces, their horizontal gradients and intrinsic graphs.

A surface is the zero set (or a general level set) of a polynomial on the
group with nonvanishing horizontal gradient.  Over a window of the
vertical subgroup N the surface is the image of a graph map
Phi2(n) = n * (phi2hat(n) * b1): for each n the scalar graph coordinate
phi2hat(n) is the unique root of a strictly monotone one-variable function,
found here by Newton's method from a hint (the previous root) or from the
root at the origin, with bisection of the whole bracket and a Newton polish
as the fallback when Newton fails.

The graph line n * (s b1) has a closed form in coordinates.  A solve runs on
plain floats (GraphPatch.solve_scalar), or on all points of broadcasting
float64 arrays at once (GraphPatch.solve_many): Newton from the root at the
origin on every lane, with the same fallback for a lane that fails.  Marches
solve point after point on floats; a function of the graph point, such as
the traced F = f1 o Phi2, must accept both forms.

Each polynomial compiles, on first use, into a straight-line evaluator that
forms each power once, x^e as x^(e-1) * x, and makes the products and
sums of the term-by-term sum in the same order, so it rounds exactly as
that sum does, on floats and numpy arrays alike.  The same code generator
gives each graph patch of f2 one kernel, compiled when the patch is built:
newton(eta, tau, s), the whole scalar Newton loop, computing the line
coordinates, f2 and the patch's slope polynomial Y1 f2 there inline.  It
rounds exactly like line_coords followed by the compiled evaluators,
through which everything else (the array solve, bisection, the margin
certificate) evaluates f2 and Y1 f2 at coordinates, floats or numpy
arrays.  Kernel sources hold no coefficients, so each is compiled once per
process (up to 64 kept) and polynomials with the same monomials share it.
A surface is its PolySurface, with its exact horizontal gradient
derived on first use; left translation of a polynomial is again a
polynomial, so a translated surface is one more PolySurface.

For a polynomial f2 the graph function is C^1 (implicit function theorem),
and each patch bounds its slope in tau once (GraphPatch.tau_lipschitz), so
the characteristic through a point is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import MarginViolated, NoSignChange
from .flowtrace import Rect, _bisect_sign_change
from .hgroup import Frame, Point

__all__ = [
    "PolySurface",
    "GraphPatch",
    "horiz_grad_poly",
]

MAX_TOTAL_DEGREE = 16
# Terms per statement of a compiled polynomial's sum.
SUM_CHUNK = 64
# Required lower bound for |Y1 f2| on a graph patch.
MARGIN = 1e-6
# Samples per axis of the margin certificate.
MARGIN_GRID = 7
# Residual |f2| at which a graph solve stops.
GTOL = 1e-13
# Residual |f2| at which Newton accepts the root after its last step.
NEWTON_ACCEPT = 1e-10
# How far outside the bracket a Newton step may land.
BRACKET_SLACK = 1e-9
# How far outside its window a graph patch still accepts a point.
WINDOW_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Polynomial surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySurface:
    """Trivariate polynomial p(x11, x12, t) = sum c_ijk x11^i x12^j t^k.

    coefficients maps exponent triples (i, j, k) to reals; zero entries are
    dropped.  The surface is the zero set of p.  value_at and grad_at
    evaluate p and its horizontal gradient grad_poly at coordinates
    (x11, x12, t), floats or numpy arrays; p(x) evaluates at a Point.
    """

    coefficients: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for key, c in self.coefficients.items():
            i, j, k = exps = _exponents(key)
            if i + j + k > MAX_TOTAL_DEGREE:
                raise ValueError(
                    f"total degree {i + j + k} exceeds bound {MAX_TOTAL_DEGREE}"
                )
            if c != 0.0:
                cleaned[exps] = float(c)
        object.__setattr__(self, "coefficients", cleaned)

    @classmethod
    def from_quadruples(cls, quads) -> "PolySurface":
        """Build from [i, j, k, coefficient] rows, summing repeated exponents."""
        coeffs: dict[tuple[int, int, int], float] = {}
        for n, row in enumerate(quads):
            if len(row) != 4:
                raise ValueError(f"expected [i, j, k, coeff] quadruple, got {row!r}")
            try:
                key = _exponents(row[:3])
            except ValueError as e:
                raise ValueError(f"row {n}: {e}") from None
            coeffs[key] = coeffs.get(key, 0.0) + float(row[3])
        return cls(coeffs)

    def __call__(self, x: Point) -> float:
        return self.value_at(x.x11, x.x12, x.t)

    @cached_property
    def value_at(self) -> Callable[[float, float, float], float]:
        """The evaluator p(x11, x12, t), compiled on first use.

        It runs the operations of the term sum in term order, each power
        formed by multiplying left to right, so it rounds exactly like that
        sum, on floats and on numpy arrays alike.  On arrays its result
        broadcasts against them (a term free of an argument lacks its axes).
        """
        return _compile(self.coefficients)

    @cached_property
    def grad_poly(self) -> tuple["PolySurface", "PolySurface"]:
        """The horizontal gradient (X1 p, X2 p), exact algebra (horiz_grad_poly).

        It is derived on first use; a coefficient of p or of its gradient that
        overflowed (is not finite) raises OverflowError.
        """
        grad_poly = horiz_grad_poly(self)
        for name, q in zip(("f", "X1 f", "X2 f"), (self, *grad_poly)):
            bad = [key for key, c in q.coefficients.items() if not math.isfinite(c)]
            if bad:
                raise OverflowError(f"the coefficient of {bad[0]} in {name} overflows")
        return grad_poly

    def grad_at(self, x11: float, x12: float, t: float) -> tuple[float, float]:
        x1f, x2f = self.grad_poly
        return (x1f.value_at(x11, x12, t), x2f.value_at(x11, x12, t))

    def along_line(self, line, bracket, y1: "PolySurface") -> Callable:
        """Newton's method for f = 0 on the graph line, as one compiled kernel.

        line is (b1x, b1y, b2x, b2y, detC) and the point is n * (s b1) for
        n = (eta, tau).  newton(eta, tau, s) runs Newton's method on
        s -> f(n * (s b1)) from s within bracket (_newton_lines), with the
        slope polynomial y1 of Y1 f (GraphPatch.slope), and returns the root
        or None.  It is straight-line code that computes the line coordinates,
        f and y1 inline, y1 sharing the powers of f; it rounds exactly like
        line_coords followed by value_at of f and of y1.
        """
        consts = {**_newton_consts(bracket), **_line_consts(line)}
        bound: dict = {}
        evaluate = [*_LINE, *_sum_block("f", self.coefficients, consts, bound)]
        slope = _sum_block("y1", y1.coefficients, consts, bound)
        return _compile_kernel("newton", "eta, tau, s", _newton_lines(evaluate, slope), consts)

    def translated(self, p: Point) -> "PolySurface":
        """The polynomial x -> self(p * x), by substituting the coordinates of p * x.

        p * x = (p11 + x11, p12 + x12, pt + t + p11 x12 - p12 x11) is affine
        in x, so the substitution stays in the polynomial ring.  A coefficient
        that overflows (is not finite) raises OverflowError.
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
        bad = [key for key, v in out.items() if not math.isfinite(v)]
        if bad:
            raise OverflowError(f"translating by {p} overflows the coefficient of {bad[0]}")
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

    def termwise_bound(self, box) -> float:
        """Upper bound for |p| on a box: sum |c| x11^i x12^j t^k at its largest |coordinates|."""
        reach = [max(abs(lo), abs(hi)) for lo, hi in box]
        return PolySurface({e: abs(c) for e, c in self.coefficients.items()}).value_at(*reach)

    def max_euclidean_gradient(self, box) -> float:
        """Upper bound for |grad p| (all three coordinate partials) over a box.

        Each partial is bounded term by term (termwise_bound), and math.hypot
        takes their norm without overflowing where the norm itself is finite.
        """
        return math.hypot(*(self.partial(v).termwise_bound(box) for v in range(3)))


def _exponents(key) -> tuple[int, int, int]:
    """An exponent triple as ints; a negative or non-integral entry raises."""
    try:
        i, j, k = exps = tuple(int(e) for e in key)
        valid = exps == tuple(key) and min(exps) >= 0
    except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
        valid = False
    if not valid:
        raise ValueError(f"exponents must be nonnegative integers, got {key!r}")
    return i, j, k


def _compile(coefficients: dict) -> Callable[[float, float, float], float]:
    """Straight-line evaluator of sum c x11^i x12^j t^k over coefficients."""
    consts: dict = {}
    return _compile_kernel("value_at", "x11, x12, t",
                           [*_sum_block("acc", coefficients, consts, {}), "return acc"],
                           consts)


def _sum_block(acc: str, coefficients: dict, consts: dict, bound: dict) -> list[str]:
    """Statements that set acc to sum c x11^i x12^j t^k over coefficients.

    Each term multiplies its coefficient by its powers of x11, x12, t in that
    order; e = 1 uses x itself.  The powers are bound first, each x^e as
    x^(e-1) * x from x^1 = x, so that every power up to the highest is bound
    once and floats and numpy arrays round alike; bound maps each variable to
    the highest power already bound, and gains the new ones.  The terms are
    added left to right onto 0.0, in statements of SUM_CHUNK terms that
    bound the expression depth the compiler recurses through without
    changing that order; no terms give the one statement acc = 0.0.  The
    coefficients go into consts under the names the terms use.
    """
    products, lines = [], []
    for exps, c in coefficients.items():
        name = f"{acc}_c{len(products)}"
        consts[name] = c
        factors = [name]
        for var, e in zip(("x11", "x12", "t"), exps):
            if e:
                factors.append(_power(var, e))
                lines += [f"{_power(var, d)} = {_power(var, d - 1)} * {var}"
                          for d in range(bound.get(var, 1) + 1, e + 1)]
                bound[var] = max(bound.get(var, 1), e)
        products.append(" * ".join(factors))
    total = "0.0"
    for start in range(0, max(len(products), 1), SUM_CHUNK):
        lines.append(f"{acc} = {' + '.join([total, *products[start:start + SUM_CHUNK]])}")
        total = acc
    return lines


def _power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}_{e}"


_compiled = lru_cache(maxsize=64)(compile)  # code objects by source; a verify round has 19


def _compile_kernel(name: str, args: str, statements: list[str], consts: dict) -> Callable:
    """Compile the function name(args) with the given body statements.

    The constants and coefficients enter as arguments of the factory
    ``make``, so the source holds only fixed names and int exponents: equal
    sources compile to equal code, which _compiled keeps.  Popping ``make``
    from its namespace leaves the compiled function in no reference cycle.
    """
    source = [f"def make({', '.join(consts)}):", f"    def {name}({args}):",
              *(f"        {line}" for line in statements), f"    return {name}"]
    namespace: dict = {}
    exec(_compiled("\n".join(source), "<string>", "exec"), namespace)
    return namespace.pop("make")(*consts.values())


def _newton_lines(evaluate: list[str], slope: list[str]) -> list[str]:
    """Newton's method on s -> g(eta, tau, s) from s, as kernel statements.

    evaluate sets f = g(eta, tau, s) and slope sets y1, the s-derivative
    Y1 f2 there.  Up to 12 steps s -> s - f / y1; the root is s once
    |f| <= gtol, or after the last step once |f| <= accept.  None when the
    start or a step lies outside [slo, shi] (a NaN or infinite one does too,
    the bracket being finite), |y1| < margin, or the last step leaves
    |f| > accept.  The names are those of _newton_consts.
    """
    step = [*evaluate,
            "if abs(f) <= gtol:",
            "    return s",
            *slope,
            "if abs(y1) < margin:",
            "    return None",
            "s_next = s - f / y1",
            "if not (slo <= s_next <= shi):",
            "    return None",
            "s = s_next"]
    return ["if not (slo <= s <= shi):", "    return None",
            "for _ in range(12):", *(f"    {line}" for line in step), *evaluate,
            "return s if abs(f) <= accept else None"]


def _newton_consts(bracket) -> dict:
    smin, smax = bracket
    return {"gtol": GTOL, "margin": MARGIN, "accept": NEWTON_ACCEPT,
            "slo": smin - BRACKET_SLACK, "shi": smax + BRACKET_SLACK}


# The point n * (s b1) of the graph line for n = (eta, tau), as statements of
# a compiled kernel; line is (b1x, b1y, b2x, b2y, detC).
_LINE = (
    "x11 = eta * b2x + s * b1x",
    "x12 = eta * b2y + s * b1y",
    "t = tau - eta * s * detc",
)


def _line_consts(line) -> dict:
    return dict(zip(("b1x", "b1y", "b2x", "b2y", "detc"), line))


def _compile_line(line) -> Callable[[float, float, float], tuple[float, float, float]]:
    """The compiled map (eta, tau, s) -> coordinates of n * (s b1) on the line."""
    return _compile_kernel("line_coords", "eta, tau, s", [*_LINE, "return (x11, x12, t)"],
                           _line_consts(line))


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


class SurfaceHandle:
    """Only from_polynomial, for bench/workloads.py: a surface is its PolySurface."""

    @staticmethod
    def from_polynomial(p: PolySurface) -> PolySurface:
        """p itself, its gradient derived (p.grad_poly raises its OverflowError)."""
        p.grad_poly
        return p


# ---------------------------------------------------------------------------
# Intrinsic graph patches
# ---------------------------------------------------------------------------

class GraphPatch:
    """A window of the vertical subgroup over which f2 admits an intrinsic graph.

    The graph direction derivative Y1 f2 = b1x X1 f2 + b1y X2 f2, the slope
    in s of the graph equation g(eta, tau, s) = f2(n * (s b1)), is one
    polynomial, slope.  Construction certifies, on a MARGIN_GRID sample of
    window x bracket evaluated in one call of slope on arrays, that Y1 f2
    keeps one sign and stays finite and above MARGIN in absolute value; that
    makes the per-point root problem strictly monotone and bisection safe.  It then
    solves for the root at the origin, the start of every solve given no
    hint.

    The patch compiles one kernel, Newton's method (f2.along_line), which
    solve_scalar runs on floats.  solve_many runs the same Newton steps on
    float64 arrays, and bisection and the certificate evaluate g and its
    slope, through line_coords and the evaluators of f2 and slope.

    tau_lipschitz bounds |d phi2hat / d tau| over the window, computed once
    here.  The graph function solves g(eta, tau, phi2hat) = 0 with
    dg/ds = Y1 f2 away from zero, so by the implicit function theorem it is
    C^1 with d phi2hat / d tau = -(dt f2) / (Y1 f2) at the graph point.  The
    bound is dt f2 bounded term by term (PolySurface.termwise_bound) over
    the reach of the line coordinates on window x bracket, divided by
    MARGIN.  It rests on the margin certificate, so it is sampled as that
    certificate is, not certified.  A bound that overflows is inf, which
    flowtrace.extremal_solutions treats as no bound.

    Parameters
    ----------
    frame    : Frame with b1 the graph direction.
    f2       : PolySurface of the defining function (the graph is f2 = 0).
    window   : Rect of (eta, tau) ranges in N-coordinates.
    bracket  : (s_min, s_max) allowed range of the graph coordinate.
    """

    def __init__(self, frame: Frame, f2: PolySurface,
                 window: Rect = Rect.centered(0.5, 0.5),
                 bracket=(-2.0, 2.0)):
        self.frame = frame
        self.f2 = f2
        line = (*frame.b1, *frame.b2, frame.detC)
        self.window = window
        self.bracket = (float(bracket[0]), float(bracket[1]))
        # the window up to WINDOW_SLACK, as (eta_lo, eta_hi, tau_lo, tau_hi)
        self._bounds = (window.eta[0] - WINDOW_SLACK, window.eta[1] + WINDOW_SLACK,
                        window.tau[0] - WINDOW_SLACK, window.tau[1] + WINDOW_SLACK)
        self._newton_from = f2.along_line(line, self.bracket, self.slope)
        # line_coords(eta, tau, s): coordinates of n * (s b1) for n = (eta, tau)
        self.line_coords = _compile_line(line)
        self._certify_margin()
        self.tau_lipschitz = self._tau_bound(line)
        # the root at the origin, from which solves without a hint start
        self._s_base = self.solve_scalar((0.0, 0.0), 0.0)

    @cached_property
    def slope(self) -> PolySurface:
        """Y1 f2 = b1x X1 f2 + b1y X2 f2 as one polynomial, built once per patch."""
        x1f, x2f = self.f2.grad_poly
        return x1f.scaled(self.frame.b1[0]) + x2f.scaled(self.frame.b1[1])

    # -- margin certificate --------------------------------------------------

    def _certify_margin(self):
        # the samples in the order of nested loops over eta, tau, s
        samples = np.meshgrid(*(np.linspace(lo, hi, MARGIN_GRID) for lo, hi in
                                (self.window.eta, self.window.tau, self.bracket)), indexing="ij")
        with np.errstate(over="ignore", invalid="ignore"):
            y1 = self.slope.value_at(*self.line_coords(*samples))
            y1 = np.broadcast_to(y1, samples[0].shape).ravel()
        mag = np.abs(y1)
        bad = ~(mag >= MARGIN) | np.isinf(mag)  # NaN fails too
        failed = np.flatnonzero(bad | (np.signbit(y1) != np.signbit(y1[0])))
        if failed.size:
            i = failed[0]
            if not bad[i]:
                raise MarginViolated("Y1 f2 changes sign on the sampled window")
            eta, tau, s = (float(a.flat[i]) for a in samples)
            what = "is not finite" if np.isinf(mag[i]) else f"< margin {MARGIN:.3e}"
            raise MarginViolated(
                f"|Y1 f2| = {mag[i]:.3e} {what} at n=({eta:.3g},{tau:.3g}), s={s:.3g}")
        self.y1_min_sampled = float(mag.min())

    def _tau_bound(self, line) -> float:
        # the largest |x11|, |x12|, |t| of n * (s b1): the line with |b| and -|det C|
        # at the largest |eta|, |tau|, |s|
        reach = _compile_line((*map(abs, line[:4]), -abs(line[4])))(
            *(max(map(abs, r)) for r in (self.window.eta, self.window.tau, self.bracket)))
        return self.f2.partial(2).termwise_bound([(0.0, r) for r in reach]) / MARGIN

    # -- graph solves ----------------------------------------------------------

    def solve_scalar(self, n: tuple[float, float], hint: float | None = None) -> float:
        """The graph coordinate phi2hat(n): unique root of s -> f2(n * s b1).

        n is the pair (eta, tau) of floats.  Newton runs from the hint, or
        from the base root without one, and its root is returned; only when
        Newton fails is the root _bisect's.  A point outside the window (up
        to WINDOW_SLACK), or a NaN one, raises ValueError.
        """
        eta, tau = n
        elo, ehi, tlo, thi = self._bounds
        if not (elo <= eta <= ehi and tlo <= tau <= thi):
            raise ValueError(f"n = ({eta!r}, {tau!r}) outside the patch window")
        s = self._newton_from(eta, tau, self._s_base if hint is None else hint)
        return s if s is not None else self._bisect(eta, tau)

    def solve_many(self, eta, tau) -> np.ndarray:
        """phi2hat at every point of the broadcast float64 arrays eta and tau.

        Newton runs from the base root on all lanes at once, through
        line_coords and the evaluators of f2 and slope, with the tests of the
        compiled kernel (_newton_lines) per lane: a lane stops at |f| <= GTOL,
        fails where |Y1 f2| < MARGIN or a step leaves the bracket, and after
        12 steps is accepted at |f| <= NEWTON_ACCEPT.  A lane that fails has
        failed solve_scalar's Newton run, and goes straight to _bisect, so
        each lane equals solve_scalar(n) bit for bit.  The first lane outside
        the window, or NaN, raises the ValueError of solve_scalar.
        """
        eta, tau = np.broadcast_arrays(np.asarray(eta, dtype=float),
                                       np.asarray(tau, dtype=float))
        shape = eta.shape
        eta, tau = eta.ravel(), tau.ravel()
        elo, ehi, tlo, thi = self._bounds
        outside = np.flatnonzero(~((elo <= eta) & (eta <= ehi) & (tlo <= tau) & (tau <= thi)))
        if outside.size:
            i = outside[0]
            raise ValueError(f"n = ({float(eta[i])!r}, {float(tau[i])!r}) "
                             "outside the patch window")
        slo, shi = self.bracket[0] - BRACKET_SLACK, self.bracket[1] + BRACKET_SLACK
        roots = np.full(eta.shape, np.nan)
        lanes = np.arange(eta.size)
        s = np.full(eta.shape, self._s_base)
        with np.errstate(all="ignore"):
            for _ in range(12):
                x = self.line_coords(eta[lanes], tau[lanes], s)
                # a polynomial free of x11, x12 and t evaluates to one float
                f = np.broadcast_to(self.f2.value_at(*x), s.shape)
                going = ~(np.abs(f) <= GTOL)
                roots[lanes[~going]] = s[~going]
                lanes, s, f = lanes[going], s[going], f[going]
                y1 = np.broadcast_to(self.slope.value_at(*(c[going] for c in x)), s.shape)
                s = s - f / y1
                moving = (np.abs(y1) >= MARGIN) & (slo <= s) & (s <= shi)
                lanes, s = lanes[moving], s[moving]
                if not lanes.size:
                    break
            f = self.f2.value_at(*self.line_coords(eta[lanes], tau[lanes], s))
            accepted = np.broadcast_to(np.abs(f) <= NEWTON_ACCEPT, s.shape)
            roots[lanes[accepted]] = s[accepted]
        for i in np.flatnonzero(np.isnan(roots)).tolist():
            roots[i] = self._bisect(float(eta[i]), float(tau[i]))
        return roots.reshape(shape)

    def _bisect(self, eta: float, tau: float) -> float:
        """The one fallback of a failed Newton solve: bisection over the whole bracket.

        Its root is polished by the Newton kernel, unless the polish fails.  Ends
        where g has one sign (or is NaN) raise NoSignChange, and an end
        where |Y1 f2| is below MARGIN raises MarginViolated.
        """
        def g(s):
            return self.f2.value_at(*self.line_coords(eta, tau, s))

        lo, hi = self.bracket
        glo, ghi = g(lo), g(hi)
        if glo == 0.0:
            return lo
        if ghi == 0.0:
            return hi
        if not glo * ghi < 0.0:
            raise NoSignChange(
                f"no sign change for the graph equation over bracket "
                f"[{lo}, {hi}] at n=({eta:.3g},{tau:.3g})"
            )
        for s_end in (lo, hi):
            if abs(self.slope.value_at(*self.line_coords(eta, tau, s_end))) < MARGIN:
                raise MarginViolated(
                    f"|Y1 f2| below margin {MARGIN:.3e} inside the solve bracket"
                )
        s = _bisect_sign_change(g, lo, hi, glo, GTOL, 1e-15)
        polished = self._newton_from(eta, tau, s)
        return polished if polished is not None else s
