"""The acceptance criteria of the construction, each computed once.

Each suite runs deterministic numeric checks and returns plain dicts
suitable for a JSON report: name, measured value, tolerance, and
pass/fail.  A suite takes one `Scale`, which fixes its seed, its oracle grid
and its input counts; the tolerances do not depend on it.  `heisencurve
verify` runs the suites at `INTERACTIVE` with the caller's seed and grid,
and tests/test_acceptance.py asserts on the same checks at a larger
acceptance scale.

The reference definitions the suites check the pipeline against live here
too: the dilations, the factorizing projections and finite-difference
derivatives of the group, the first-order system residual, the chain rule
and the Taylor-type expansion of f1 o Phi2 along the characteristics, and
the coverage of a traced zero set.  The pipeline itself does not call them.

Each check computes its value once, over many points in one array call: the
group law and the symbolic-vs-FD gradient, the graph grid and section, the
system residual, the Taylor boxes and coverage_gap.  Floats stay for the
chain rule's marches and endpoint solves, its exact value and the directional
probes: a march goes point by point, a float solve starts warm from the last
root, and on 6 points or fewer an array solve costs more than the float solves.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from types import SimpleNamespace

import numpy as np

from .characteristics import CharField, characteristic
from .errors import ConfigError, NotInVerticalSubgroup
from .flowtrace import (
    PathSample,
    Rect,
    TraceParams,
    TraceResult,
    _clamped,
    build_family,
    extremal_solutions,
    integrate_through,
    level_trace,
)
from .hgroup import (
    ORIGIN,
    Point,
    VerticalCoords,
    _hypot,
    _omega_bar,
    dist,
    hnorm,
    inv,
    make_frame,
    mul,
)
from .hsurface import GraphPatch, PolySurface
from .intersect import (
    ConeParams,
    IntersectionProblem,
    _coord_array,
    brute_force_zero_cloud,
    cone_property_check,
    cone_width_for,
    curve_cloud_agreement,
    gradient_margin,
    graph_field,
    intersect_surfaces,
    pair_lipschitz_bound,
)

POLY_X11 = PolySurface({(1, 0, 0): 1.0})
POLY_X12 = PolySurface({(0, 1, 0): 1.0})
POLY_AFFINE = PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0})
GRAPH_GRID = 50  # the graph suite's least window grid points per axis


@dataclass(frozen=True)
class Scale:
    """The seed, the oracle grid and the input counts of one run of the suites."""

    seed: int
    grid_n: int                       # zero-cloud oracle and graph-grid points per axis
    group_samples: int                # random triples for the group algebra
    projection_samples: int           # of those, points projected on a random frame
    steps: int                        # characteristic steps 1e-2 * 2^-k, k < steps
    residual_tau0: tuple[float, ...]  # start values of the first-order system residual
    taylor_n: int                     # points per side of each Taylor box
    family_depth: int                 # refinement depth of the two flow families


INTERACTIVE = Scale(seed=0, grid_n=41, group_samples=2000, projection_samples=500,
                    steps=4, residual_tau0=(-0.3, 0.25), taylor_n=21, family_depth=4)


def _check(name: str, value: float, tolerance: float, larger_is_better=False) -> dict:
    passed = value >= tolerance if larger_is_better else value <= tolerance
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }


def _gap(a: Point, b: Point) -> float:
    d = np.broadcast_arrays(a.x11 - b.x11, a.x12 - b.x12, a.t - b.t)
    return float(np.max(np.abs(d), initial=0.0))


def _cubic(e, t):
    return 3.0 * abs(t) ** (2.0 / 3.0)


def _decay(e, t):
    return -t


def preimage_contiguity(raw_zeta) -> dict:
    """Check that a traced preimage never comes back to a point it has left.

    Interval collapse may repeat a zero only at adjacent members, so each
    zero seen again at a later, non-adjacent member counts as one return.
    """
    returns = 0
    seen: dict = {}
    for i, p in enumerate(raw_zeta):
        key = (round(p[0], 12), round(p[1], 12))
        returns += key in seen and i - seen[key] != 1
        seen[key] = i
    return _check("funnel_preimage_contiguity", returns, 0.0)


# ---------------------------------------------------------------------------
# Reference definitions: the group
# ---------------------------------------------------------------------------

# Largest b1-coefficient, relative to 1 + |x1|, that coords_N accepts.
VERTICAL_TOL = 1e-10


def dilate(r, x: Point) -> Point:
    """Anisotropic dilation: horizontal part scales by r, vertical by r**2."""
    if np.any(r <= 0.0):
        raise ValueError(f"dilation factor must be positive, got {r!r}")
    return Point(r * x.x11, r * x.x12, r * r * x.t)


def horizontal_coeffs(fr, x1: tuple) -> tuple:
    """Coefficients (a, e) with x1 = a*b1 + e*b2.

    fr is a Frame, or the b1 and b2 of many frames as arrays (_frames).
    """
    (b11, b12), (b21, b22) = fr.b1, fr.b2
    d = b11 * b22 - b12 * b21  # det C, as Frame.detC computes it
    return (x1[0] * b22 - x1[1] * b21) / d, (b11 * x1[1] - b12 * x1[0]) / d


def _frames(theta: np.ndarray) -> SimpleNamespace:
    """make_frame((cos th, sin th)) for each angle th, its b1 and b2 as arrays.

    cos and sin are math's, per entry, as _hypot is: numpy's need not round
    as math's do, and the frames should equal make_frame's bit for bit.
    """
    c, s = (np.vectorize(f, otypes=[float])(theta) for f in (math.cos, math.sin))
    n = _hypot(c, s)
    u = (c / n, s / n)
    return SimpleNamespace(b1=u, b2=(-u[1], u[0]))


def _horizontal_point(v: tuple[float, float], s=1.0) -> Point:
    return Point(s * v[0], s * v[1], 0.0)


def project_H(x: Point, fr) -> Point:
    """Horizontal-subgroup component x_H = a*b1 where x1 = a*b1 + e*b2."""
    a, _ = horizontal_coeffs(fr, x.horizontal())
    return _horizontal_point(fr.b1, a)


def project_N(x: Point, fr) -> Point:
    """Vertical-subgroup component pi_N(x) = x - x_H - omega(x1, x_H).

    Together with project_H this inverts the product map (n, v) -> n*v,
    so mul(project_N(x), project_H(x)) == x.
    """
    xh = project_H(x, fr)
    return Point(x.x11 - xh.x11, x.x12 - xh.x12,
                 x.t - _omega_bar(x.horizontal(), xh.horizontal()))


def embed_N(v: VerticalCoords, fr) -> Point:
    """The point eta*b2 + tau*e3 of the vertical subgroup."""
    return Point(v.eta * fr.b2[0], v.eta * fr.b2[1], v.tau)


def coords_N(n: Point, fr) -> VerticalCoords:
    """Inverse of embed_N; rejects points with a nonzero b1-coefficient."""
    a, e = horizontal_coeffs(fr, n.horizontal())
    tol = VERTICAL_TOL * (1.0 + _hypot(n.x11, n.x12))
    a_all, tol_all = (np.ravel(v) for v in np.broadcast_arrays(a, tol))
    i = int(np.argmax(np.abs(a_all) - tol_all))  # the entry farthest off N
    if abs(a_all[i]) > tol_all[i]:
        raise NotInVerticalSubgroup(
            f"point has b1-coefficient {a_all[i]:.3e}, beyond tolerance {tol_all[i]:.3e}"
        )
    return VerticalCoords(e, n.t)


def horizontal_derivative(f, x: Point, direction: tuple[float, float], h: float = 1e-6) -> float:
    """Central difference of s -> f(x * (s*direction)) at s = 0.

    Numeric stand-in for the left-invariant derivative of f at x along a
    horizontal direction, for f a callable Point -> real; second-order
    accurate in h.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    fp = f(mul(x, _horizontal_point(direction, h)))
    fm = f(mul(x, _horizontal_point(direction, -h)))
    return (fp - fm) / (2.0 * h)


# ---------------------------------------------------------------------------
# Reference definitions: f1 o Phi2 along the characteristics
# ---------------------------------------------------------------------------

# Sample points of chain_rule_check along the path.
CHAIN_RULE_SAMPLES = 5


def _y_derivatives(f: PolySurface, x: tuple, fr) -> tuple[float, float]:
    """(Y1 f, Y2 f) along the frame's b1, b2 at x = (x11, x12, t), floats or arrays."""
    g1, g2 = f.grad_at(*x)
    return g1 * fr.b1[0] + g2 * fr.b1[1], g1 * fr.b2[0] + g2 * fr.b2[1]


def system_residual(cf: CharField, path: PathSample) -> float:
    """Max defect of the first-order system along a candidate characteristic.

    Along a genuine characteristic, nu(eta) = phi2hat(eta, tau(eta)) must
    satisfy dnu/deta = source, the forcing -(Y2 f2 / Y1 f2) at the graph
    point; the returned value is the largest midpoint defect
    |delta nu / delta eta - source|.  Second order small for certified
    characteristics, order one for impostors.  nu and the source are one
    array call each, so the field's hint is neither read nor written.
    """
    nus = cf.phi(path.etas, path.values)
    e_mid = path.eta0 + (np.arange(len(path) - 1) + 0.5) * path.step
    t_mid = 0.5 * (path.values[:-1] + path.values[1:])
    y1, y2 = _y_derivatives(cf.patch.f2, cf.graph_coords(e_mid, t_mid), cf.patch.frame)
    defect = np.diff(nus) / path.step - (-y2 / y1)
    return float(np.max(np.abs(defect), initial=0.0))


def _pair_determinant(f1: PolySurface, cf: CharField, x: tuple) -> tuple[float, float]:
    """det([[Y1 f1, Y2 f1], [Y1 f2, Y2 f2]]) and Y1 f2 at the coordinates x."""
    y11, y21 = _y_derivatives(f1, x, cf.patch.frame)
    y12, y22 = _y_derivatives(cf.patch.f2, x, cf.patch.frame)
    return y11 * y22 - y21 * y12, y12


def chain_rule_rhs(f1: PolySurface, cf: CharField, eta: float,
                   path: PathSample) -> float:
    """The derivative of f1 o Phi2 along the characteristic at eta.

    Evaluates -det([[Y1 f1, Y2 f1], [Y1 f2, Y2 f2]]) / Y1 f2 at the graph
    point above (eta, tau(eta)).
    """
    det, y1f2 = _pair_determinant(f1, cf, cf.graph_coords(eta, path.tau_at(eta)))
    return -det / y1f2


@dataclass
class SweepReport:
    """Errors of a finite-difference check across a sweep of steps."""

    name: str
    h_values: tuple[float, ...]
    max_abs_errors: list[float]
    max_rel_errors: list[float]

    @property
    def observed_orders(self) -> list[float]:
        """log(error ratio) / log(step ratio) between consecutive steps."""
        e, h = self.max_abs_errors, self.h_values
        return [math.log(e[i] / max(e[i + 1], 1e-300)) / math.log(h[i] / h[i + 1])
                for i in range(len(h) - 1)]


def _sweep(name: str, h_sweep, fd, formula) -> SweepReport:
    """The report of difference quotients fd, one row per step, against formula."""
    err = np.abs(np.asarray(fd) - formula)
    rel = err / np.maximum(1.0, np.abs(formula))
    return SweepReport(name, tuple(h_sweep), err.max(axis=1).tolist(), rel.max(axis=1).tolist())


def chain_rule_check(f1: PolySurface, cf: CharField, path: PathSample,
                     h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Centered differences of f1 o Phi2 along the path vs the closed form.

    The path is re-integrated locally (fine substeps) to land on the
    characteristic through each sample point, so the difference quotient sees
    the curve itself rather than the path's linear interpolation.
    """
    rhs = _clamped(cf.rhs, cf.patch.window)
    h_max = max(h_sweep)
    etas = np.linspace(path.eta0 + h_max * 1.01, path.etas[-1] - h_max * 1.01,
                       CHAIN_RULE_SAMPLES).tolist()
    formula = np.array([chain_rule_rhs(f1, cf, eta, path) for eta in etas])

    def fd(h, eta):
        # tau(eta + h) and tau(eta - h), eight Heun steps each way on the
        # field clamped into the patch window
        local = integrate_through(rhs, eta, path.tau_at(eta), (eta - h, h / 8, 17))
        gp = f1.value_at(*cf.graph_coords(eta + h, float(local.values[-1])))
        gm = f1.value_at(*cf.graph_coords(eta - h, float(local.values[0])))
        return (gp - gm) / (2.0 * h)

    return _sweep("chain_rule", h_sweep, [[fd(h, eta) for eta in etas] for h in h_sweep], formula)


# ---------------------------------------------------------------------------
# Taylor-type expansion around a base point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorBasePoint:
    """A base point of the graph with its cached expansion data.

    n_bar = (eta2_bar, tau1_bar) in N-coordinates, x_bar the graph point
    above it, eta1_bar the graph scalar there, and tau_bar the vertical
    coordinate of x_bar: tau_bar = tau1_bar - eta1_bar * eta2_bar * det C.
    """

    n_bar: VerticalCoords
    x_bar: Point
    eta1_bar: float
    tau_bar: float

    @classmethod
    def from_patch(cls, patch: GraphPatch, n_bar: VerticalCoords) -> "TaylorBasePoint":
        eta1 = patch.solve_scalar((n_bar.eta, n_bar.tau))
        coords = patch.line_coords(n_bar.eta, n_bar.tau, eta1)
        return cls(n_bar=n_bar, x_bar=Point(*coords), eta1_bar=eta1, tau_bar=coords[2])


def taylor_remainder(f1: PolySurface, cf: CharField, base: TaylorBasePoint,
                     eta, tau) -> tuple:
    """Expansion remainder at n = (eta, tau), floats or arrays, and its scale.

    remainder = f1(Phi2(n)) - f1(Phi2(n_bar))
                + (eta - eta2_bar) / Y1 f2(x_bar) * det(...)
    scale     = ||(eta - eta2_bar) b2 + tau' e3|| = max(|eta - eta2_bar|, sqrt|tau'|)
    with tau' = tau - tau_bar - 2 eta eta1_bar det C + eta1_bar eta2_bar det C.
    The ratio remainder / scale vanishes as n approaches the base point.
    """
    det, y1f2 = _pair_determinant(f1, cf, astuple(base.x_bar))
    value_n = f1.value_at(*cf.graph_coords(eta, tau))
    value_b = f1.value_at(*astuple(base.x_bar))
    d_eta = eta - base.n_bar.eta
    remainder = value_n - value_b + d_eta / y1f2 * det
    detc = cf.patch.frame.detC
    tau_prime = (tau - base.tau_bar
                 - 2.0 * eta * base.eta1_bar * detc
                 + base.eta1_bar * base.n_bar.eta * detc)
    return remainder, np.maximum(np.abs(d_eta), np.sqrt(np.abs(tau_prime)))


def directional_derivative_check(f1: PolySurface, cf: CharField,
                                 base: TaylorBasePoint,
                                 h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Difference quotients along the sheared direction vs the determinant formula.

    The distinguished direction through the base point is
    z_bar = b2 + 2 eta1_bar det(C) e3; in (eta, tau) coordinates the probe
    moves along (1, 2 eta1_bar det C).
    """
    det, y1f2 = _pair_determinant(f1, cf, astuple(base.x_bar))
    slope = 2.0 * base.eta1_bar * cf.patch.frame.detC

    def g(s):  # f1 o Phi2 at the probe s along the direction
        return f1.value_at(*cf.graph_coords(base.n_bar.eta + s, base.n_bar.tau + slope * s))

    fd = [[(g(h) - g(-h)) / (2.0 * h)] for h in h_sweep]
    return _sweep("directional_derivative", h_sweep, fd, -det / y1f2)


# ---------------------------------------------------------------------------
# Reference definitions: coverage of a traced zero set
# ---------------------------------------------------------------------------

# Grid points per axis in coverage_gap.
COVERAGE_GRID = 41


def coverage_gap(result: TraceResult, F, f_eps: float = 1e-3):
    """Largest distance from a grid zero of F in U and the band to the samples.

    F is called once, on the float64 arrays of the COVERAGE_GRID x
    COVERAGE_GRID meshgrid (indexing="ij") of U.  Returns (max_gap,
    grid_spacing, n_grid_zeros); gaps should stay within a couple of grid
    spacings when the trace covers the zero set.
    """
    (e_lo, e_hi), (t_lo, t_hi) = result.neighborhood.eta, result.neighborhood.tau
    if not result.zeta:
        raise ValueError("empty trace")
    pts = np.array(result.zeta)
    eta, tau = np.meshgrid(np.linspace(e_lo, e_hi, COVERAGE_GRID),
                           np.linspace(t_lo, t_hi, COVERAGE_GRID), indexing="ij")
    spacing = max((e_hi - e_lo), (t_hi - t_lo)) / (COVERAGE_GRID - 1)
    lo, hi = (np.array([band.tau_at(e) for e in eta[:, 0].tolist()])[:, None]
              for band in result.band)
    zero = (lo - 1e-12 <= tau) & (tau <= hi + 1e-12) & (np.abs(F(eta, tau)) < f_eps)
    gaps = np.hypot(pts[:, 0] - eta[zero][:, None], pts[:, 1] - tau[zero][:, None])
    return float(np.max(np.min(gaps, axis=1), initial=0.0)), spacing, int(np.count_nonzero(zero))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_group(scale: Scale) -> list[dict]:
    rng = np.random.default_rng(scale.seed)
    n = scale.group_samples
    rows = [rng.uniform(-10.0, 10.0, size=(n, 3)) for _ in range(3)]
    x, y, z = (Point(*a.T) for a in rows)
    r = rng.uniform(0.1, 3.0, size=n)
    assoc = _gap(mul(mul(x, y), z), mul(x, mul(y, z)))
    inverse = _gap(mul(x, inv(x)), ORIGIN)
    homog = np.max(np.abs(hnorm(dilate(r, x)) - r * hnorm(x)), initial=0.0)
    tri = np.max(hnorm(mul(x, y)) - hnorm(x) - hnorm(y), initial=0.0)
    left = np.max(np.abs(dist(mul(z, x), mul(z, y)) - dist(x, y)), initial=0.0)
    autom = _gap(mul(dilate(r, x), dilate(r, y)), dilate(r, mul(x, y)))
    # the worked example: (1, 2, 3) = (0, 2, 5) * (1, 0, 0) in the identity frame
    q, n_part, h_part = Point(1.0, 2.0, 3.0), Point(0.0, 2.0, 5.0), Point(1.0, 0.0, 0.0)
    fr = make_frame((1.0, 0.0))
    example = max(_gap(project_N(q, fr), n_part), _gap(project_H(q, fr), h_part),
                  _gap(mul(n_part, h_part), q))
    # the roundtrips on the first rows, each on a frame of its own angle
    m = scale.projection_samples
    x, fr = Point(*rows[0][:m].T), _frames(rng.uniform(0.0, 2.0 * math.pi, size=m))
    proj = _gap(mul(project_N(x, fr), project_H(x, fr)), x)
    v = VerticalCoords(x.x11 / 10.0, x.t / 10.0)
    w = coords_N(embed_N(v, fr), fr)
    embed = float(np.max((np.abs(w.eta - v.eta), np.abs(w.tau - v.tau)), initial=0.0))
    poly = PolySurface({(2, 1, 0): 0.7, (0, 1, 1): -1.2, (1, 0, 2): 0.4})
    q = Point(*(rows[0][:50].T / 10.0))
    g1, g2 = poly.grad_at(q.x11, q.x12, q.t)
    fields = float(np.max((np.abs(g1 - horizontal_derivative(poly, q, (1.0, 0.0), 1e-5)),
                           np.abs(g2 - horizontal_derivative(poly, q, (0.0, 1.0), 1e-5))),
                          initial=0.0))
    return [
        _check("associativity", assoc, 1e-12),
        _check("identity_inverse", inverse, 1e-12),
        _check("norm_homogeneity", homog, 1e-12),
        _check("triangle_inequality_excess", tri, 1e-12),
        _check("distance_left_invariance", left, 1e-10),
        _check("dilation_automorphism", autom, 1e-9),
        _check("projection_example", example, 0.0),
        _check("projection_roundtrip", proj, 1e-12),
        _check("vertical_coords_roundtrip", embed, 1e-12),
        _check("symbolic_vs_fd_gradient", fields, 1e-6),
    ]


def _field(f2: PolySurface) -> CharField:
    """The pipeline's field of f2 at the origin, at IntersectionProblem's defaults."""
    return graph_field(f2, ORIGIN, IntersectionProblem.window_half, IntersectionProblem.bracket)


def suite_graph(scale: Scale) -> list[dict]:
    """x12 and x11 + t on max(GRAPH_GRID, scale.grid_n)^2 window points; the 9
    section points and the one derivative-order point are fixed probes."""
    flat, affine = (_field(f).patch for f in (POLY_X12, POLY_AFFINE))
    grid = np.linspace(-0.5, 0.5, max(GRAPH_GRID, scale.grid_n))
    eta, tau = np.meshgrid(grid, grid, indexing="ij")
    res = closed = 0.0
    for patch, exact in ((flat, 0.0), (affine, -tau / (1.0 - eta))):
        s = patch.solve_many(eta, tau)
        res = max(res, float(np.max(np.abs(patch.f2.value_at(*patch.line_coords(eta, tau, s))))))
        closed = max(closed, float(np.max(np.abs(s - exact))))
    etas = np.linspace(-0.4, 0.4, 9)
    coords = affine.line_coords(etas, etas / 2.0, affine.solve_many(etas, etas / 2.0))
    back = coords_N(project_N(Point(*coords), affine.frame), affine.frame)
    section = float(np.max((np.abs(back.eta - etas), np.abs(back.tau - etas / 2.0)), initial=0.0))
    poly = PolySurface({(3, 0, 0): 1.0, (0, 2, 1): -1.0})
    x = Point(0.4, -0.3, 0.2)
    g1 = poly.grad_at(x.x11, x.x12, x.t)[0]
    errs = [abs(horizontal_derivative(poly, x, (1.0, 0.0), h) - g1)
            for h in (1e-2, 5e-3, 2.5e-3)]
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    return [
        _check("graph_level_residual", res, 1e-10),
        _check("graph_closed_forms", closed, 1e-10),
        _check("graph_section_property", section, 1e-10),
        _check("gradient_fd_order", order, 1.9, larger_is_better=True),
    ]


def suite_characteristics(scale: Scale) -> list[dict]:
    cf = _field(POLY_AFFINE)
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    errs_by_step = []
    for step in (1e-2 * 0.5**k for k in range(scale.steps)):
        worst = 0.0
        for tau0 in (-0.3, -0.1, 0.1, 0.3):
            p = characteristic(cf, tau0, window=window, step=step)
            worst = max(worst, float(np.max(np.abs(
                p.values - tau0 * (1.0 - p.etas) ** 2))))
        errs_by_step.append(worst)
    order = min(math.log2(a / b) for a, b in zip(errs_by_step, errs_by_step[1:]))
    step = 1e-3
    daf = 0.0
    for tau0 in scale.residual_tau0:
        p = characteristic(cf, tau0, window=window, step=step)
        daf = max(daf, system_residual(cf, p))
    n = int(0.4 / step) + 1
    fake = PathSample(0.0, step, 0.1 + step * np.arange(n))
    control = system_residual(cf, fake)
    return [
        _check("characteristic_order", order, 1.9, larger_is_better=True),
        _check("system_residual", daf, 10.0 * step**2),
        _check("system_negative_control", control, 0.05, larger_is_better=True),
    ]


def suite_calculus(scale: Scale) -> list[dict]:
    rng = np.random.default_rng(scale.seed)
    cf = _field(POLY_AFFINE)
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    path = characteristic(cf, 0.2, window=window, step=1e-3)
    rep = chain_rule_check(POLY_X12, cf, path, h_sweep=(1e-2, 1e-3, 1e-4))
    exact = max(abs(chain_rule_rhs(POLY_X12, cf, eta, path) - 1.0) for eta in (0.1, 0.3))
    rand_poly = PolySurface({(0, 1, 0): 1.0, (2, 0, 0): float(rng.uniform(0.2, 0.6)),
                             (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
                             (1, 1, 0): float(rng.uniform(0.1, 0.4))})
    rep_rand = chain_rule_check(rand_poly, cf, path, h_sweep=(1e-2, 5e-3, 2.5e-3))
    base = TaylorBasePoint.from_patch(cf.patch, VerticalCoords(0.0, 0.0))
    quad = PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0})
    # the four sides of the boxes max(|eta|, sqrt|tau|) = r = 2^-k, k = 2..8, a row each
    r = np.ldexp(1.0, -np.arange(2, 9))[:, None]
    ends, sides = np.repeat(r, scale.taylor_n, axis=1), np.linspace(-1.0, 1.0, scale.taylor_n) * r
    rem, size = taylor_remainder(quad, cf, base, np.hstack([ends, -ends, sides, sides]),
                                 np.hstack([sides * r, sides * r, ends * r, -ends * r]))
    ratios = np.max(np.abs(rem) / size, axis=1).tolist()
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    shifted = TaylorBasePoint.from_patch(cf.patch, VerticalCoords(0.0, 0.2))
    rep_dir = directional_derivative_check(quad, cf, shifted, h_sweep=(1e-2, 1e-3, 1e-4))
    return [
        _check("chain_rule_exact_value", exact, 1e-12),
        _check("chain_rule_fd_rel_error", rep.max_rel_errors[-1], 1e-5),
        _check("chain_rule_random_order", min(rep_rand.observed_orders), 1.9,
               larger_is_better=True),
        _check("taylor_ratio_violations", violations, 1.0),
        _check("taylor_final_ratio", ratios[-1], 0.05),
        _check("directional_derivative_error", rep_dir.max_abs_errors[-1], 1e-5),
    ]


def suite_flow(scale: Scale) -> list[dict]:
    lo, hi, _ = extremal_solutions(_cubic, 0.0, 0.0, Rect((0.0, 0.5)), 1e-3)
    ext_err = max(abs(lo.values[-1]), abs(hi.values[-1] - 0.125))
    grid = (-0.5, 0.01, 101)
    # the funnel between the cubic branches -(c^(1/3) - eta)^3 and (eta + c^(1/3))^3,
    # each continued by 0, with c = 0.01
    r3 = 0.01 ** (1.0 / 3.0)
    etas = -0.5 + 0.01 * np.arange(101)
    families = [
        build_family(_decay, integrate_through(_decay, 0.0, -1.0, grid),
                     integrate_through(_decay, 0.0, 1.0, grid), depth=scale.family_depth),
        build_family(_cubic,
                     PathSample(-0.5, 0.01, np.array([-max(r3 - e, 0.0) ** 3 for e in etas])),
                     PathSample(-0.5, 0.01, np.array([max(e + r3, 0.0) ** 3 for e in etas])),
                     depth=scale.family_depth),
    ]
    res = level_trace(_cubic, lambda e, t: e, Rect.centered(0.5, 1.0),
                      TraceParams(depth=6))
    gap, spacing, nzeros = coverage_gap(res, lambda e, t: e,
                                        f_eps=2 * (res.neighborhood.eta[1]
                                                   - res.neighborhood.eta[0]) / 40)
    return [
        _check("extremal_cubic_error", ext_err, 1e-3),
        _check("family_monotonicity", max(f.monotonicity_violation() for f in families), 1e-9),
        _check("family_mean_residual", max(max(f.mean_residuals()) for f in families), 1e-6),
        _check("funnel_coverage_gap", gap, 2.0 * spacing),
        _check("funnel_zero_count", float(nzeros), 1.0, larger_is_better=True),
        preimage_contiguity(res.diagnostics["raw_zeta"]),
    ]


def suite_intersect(scale: Scale) -> list[dict]:
    box = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))
    spacing = 0.4 / (scale.grid_n - 1)
    checks = []
    worst_violations = 0
    for tag, pair, nearest in (
        ("A", (POLY_X11, POLY_X12), lambda x11, x12, t: Point(0.0, 0.0, t)),
        ("B", (POLY_X12, POLY_AFFINE),
         lambda x11, x12, t: Point(-t / (1.0 - x12), 0.0, t / (1.0 - x12))),
    ):
        curve = intersect_surfaces(IntersectionProblem(*pair))
        x = _coord_array(curve.points).T  # the samples' coordinates, as rows
        tol = 1e-8 if tag == "A" else 1e-6
        checks.append(_check(f"curve_{tag}_reference_distance",
                             np.max(dist(Point(*x), nearest(*x))), tol))
        checks.append(_check(f"curve_{tag}_residuals",
                             max(curve.meta["residual_f1"],
                                 curve.meta["residual_f2"]), 1e-8))
        cloud = brute_force_zero_cloud(*pair, box, grid_n=scale.grid_n)
        # B's traced line and its cloud are exactly two spacings apart by
        # construction (0.020000000000000018 against 0.02 at grid 41), so
        # the bound needs slack for the rounding of that distance
        checks.append(_check(f"curve_{tag}_cloud_agreement",
                             curve_cloud_agreement(curve.points, cloud, box),
                             2.0 * spacing + 1e-12))
        sep = np.min(dist(Point(*x[:, :-1]), Point(*x[:, 1:])))
        checks.append(_check(f"curve_{tag}_injectivity", sep, 1e-12,
                             larger_is_better=True))
        lam = gradient_margin(pair, box, grid_n=5)
        lip = pair_lipschitz_bound(pair, box)
        for alpha in (1.0, 2.0, 5.0):
            r = cone_width_for(alpha, lam, lip, r_max=0.2)
            rep = cone_property_check(curve.points, ConeParams(alpha, r, lam))
            worst_violations = max(worst_violations, len(rep.violations))
    control = cone_property_check(
        [Point(0.01 * k, 0.0, 0.0) for k in range(-10, 11)], ConeParams(1.0, 0.5))
    checks.append(_check("cone_property_violations", float(worst_violations), 0.0))
    checks.append(_check("cone_negative_control", float(len(control.violations)),
                         1.0, larger_is_better=True))
    return checks


SUITES = {
    "group": suite_group,
    "graph": suite_graph,
    "characteristics": suite_characteristics,
    "calculus": suite_calculus,
    "flow": suite_flow,
    "intersect": suite_intersect,
}


def run_suites(suite: str | None = None, seed: int = INTERACTIVE.seed,
               grid_n: int = INTERACTIVE.grid_n) -> dict:
    """Run one named suite or all of them at INTERACTIVE scale with the given
    seed and oracle grid; returns a JSON-ready report."""
    if suite is not None and suite not in SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r}; have {sorted(SUITES)}")
    names = [suite] if suite else list(SUITES)
    scale = replace(INTERACTIVE, seed=seed, grid_n=grid_n)
    report = {"suites": {}, "seed": seed, "grid_n": grid_n}
    for name in names:
        checks = SUITES[name](scale)
        report["suites"][name] = {
            "checks": checks,
            "passed": all(c["passed"] for c in checks),
        }
    report["passed"] = all(s["passed"] for s in report["suites"].values())
    return report
