"""Intersection of two level-set surfaces as a traced curve, with oracles.

Pipeline: translate the common point to the origin, pick the graph direction
from the horizontal gradient of f2, build the intrinsic graph patch, push f1
through the graph map to a planar function F, trace the zero set of F along
the characteristic flow, and lift the traced curve back through the graph
map and the translation.  Independent cross-checks (grid zero cloud,
curve-cloud agreement, cone property) live alongside.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field as dataclass_field

import numpy as np

from .characteristics import CharField
from .errors import DependentNormals, MarginViolated, NotCommonZero
from .flowtrace import Rect, TraceParams, level_trace
from .hgroup import (
    ORIGIN,
    Frame,
    Point,
    VerticalCoords,
    _hypot,
    dist,
    inv,
    make_frame,
    mul,
)
from .hsurface import GraphPatch, PolySurface

__all__ = [
    "IntersectionProblem",
    "Curve",
    "ConeParams",
    "choose_frame",
    "graph_field",
    "intersect_surfaces",
    "brute_force_zero_cloud",
    "curve_cloud_agreement",
    "cone_property_check",
    "gradient_margin",
    "cone_width_for",
    "pair_lipschitz_bound",
]

# Smallest |cross product| of the horizontal normals, relative to their norms.
INDEPENDENCE_MARGIN = 1e-6
# Fraction of the margin-over-curvature scale taken as cone width.
CONE_SAFETY = 0.5
# Floats (rows x segments x 3 coordinates) in one block of the distance
# kernels' temporaries, so memory stays bounded for any cloud size.
AGREEMENT_BLOCK = 3 * 2**20
# Grid points per axis of one cube of the zero cloud's exclusion test.
CLOUD_CUBE = 8
# Grid points in one chunk of the zero cloud's evaluation, so its
# temporaries stay bounded for any grid.
CLOUD_BLOCK = 2**20
# Machine epsilon of float64, the unit of the zero cloud's rounding allowance.
EPS = float(np.finfo(float).eps)


@dataclass
class IntersectionProblem:
    """Two surfaces, a common zero, and the numeric knobs of the pipeline."""

    f1: PolySurface
    f2: PolySurface
    p: Point = ORIGIN
    window_half: float = 0.5
    bracket: tuple[float, float] = (-2.0, 2.0)
    trace: TraceParams = dataclass_field(default_factory=TraceParams)

    def validate(self):
        """Both surfaces vanish at p within trace.root_tol, with independent normals.

        A value at p that overflows or is not finite raises NotCommonZero, a
        horizontal gradient that does raises DependentNormals; both name the
        surface.
        """
        v1, v2 = (_at_base(f.value_at, astuple(self.p), name, NotCommonZero)
                  for name, f in (("f1", self.f1), ("f2", self.f2)))
        tol = self.trace.root_tol
        if not (abs(v1) <= tol and abs(v2) <= tol):
            raise NotCommonZero(
                f"base point is not a common zero: f1 = {v1:.3e}, f2 = {v2:.3e}"
            )
        g1, g2 = (_at_base(f.grad_at, astuple(self.p), f"the horizontal gradient of {name}",
                           DependentNormals)
                  for name, f in (("f1", self.f1), ("f2", self.f2)))
        n1 = math.hypot(*g1)
        n2 = math.hypot(*g2)
        cross = g1[0] * g2[1] - g1[1] * g2[0]
        if abs(cross) < INDEPENDENCE_MARGIN * n1 * n2 or n1 == 0.0 or n2 == 0.0:
            raise DependentNormals(
                "horizontal gradients are linearly dependent at the base point "
                f"(|cross| = {abs(cross):.3e} vs margin "
                f"{INDEPENDENCE_MARGIN * n1 * n2:.3e}); the construction "
                "needs linearly independent horizontal normals"
            )


def _at_base(fn, x: tuple, what: str, error: type[Exception]):
    """fn(*x), raising error when it overflows: raises OverflowError or is not finite."""
    try:
        v = fn(*x)
    except OverflowError:
        v = math.inf
    if not np.isfinite(v).all():
        raise error(f"{what} overflows at the base point")
    return v


def _translated(f: PolySurface, p: Point, name: str) -> PolySurface:
    """f.translated(p) with its gradient derived, raising NotCommonZero when a
    coefficient of either overflows, named by which one did."""
    try:
        ft = f.translated(p)
    except OverflowError:
        raise NotCommonZero(f"{name} overflows when translated to the base point") from None
    try:
        ft.grad_poly
    except OverflowError:
        raise NotCommonZero(f"the horizontal gradient of {name} overflows") from None
    return ft


@dataclass
class Curve:
    """A sampled curve in the group with its planar preimage and metadata."""

    params: list[float]
    points: list[Point]
    planar: list[VerticalCoords] | None = None
    meta: dict = dataclass_field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ConeParams:
    """Opening alpha, width r, and the gradient margin the width came from."""

    alpha: float
    r: float
    lam: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.r <= 0.0:
            raise ValueError("cone opening and width must be positive")


def choose_frame(f2: PolySurface, p: Point) -> Frame:
    """Frame with b1 along the horizontal gradient of f2 at p.

    This maximizes the graph-direction derivative Y1 f2(p) = |grad_H f2(p)|,
    which gives the root solver the largest possible margin.  A vanishing
    gradient leaves Y1 f2(p) = 0 in every frame, below any graph margin.
    """
    g = f2.grad_at(*astuple(p))
    n = math.hypot(*g)
    if n < 1e-12:
        raise MarginViolated("horizontal gradient of f2 vanishes at the base point")
    return make_frame((g[0] / n, g[1] / n))


def graph_field(f2: PolySurface, p: Point, window_half: float,
                bracket: tuple[float, float]) -> CharField:
    """The characteristic field of the intrinsic graph of f2 around p.

    f2 is translated so that p sits at the origin, the graph direction
    follows its horizontal gradient there, and the graph patch covers the
    square window of half-width window_half in vertical-plane coordinates.
    A value of f2 at p, or a coefficient of its translate, that overflows
    raises NotCommonZero.
    """
    _at_base(f2.value_at, astuple(p), "f2", NotCommonZero)
    f2t = _translated(f2, p, "f2")
    patch = GraphPatch(choose_frame(f2t, ORIGIN), f2t,
                       window=Rect.centered(window_half, window_half), bracket=bracket)
    return CharField(patch)


def intersect_surfaces(prob: IntersectionProblem) -> Curve:
    """The intersection curve of the two surfaces near the base point.

    Every returned point satisfies both |f1| and |f2| below solver
    tolerance; the planar preimage of the trace is kept alongside, and the
    parameter is cumulative homogeneous arc length rescaled to [0, 1].
    meta["family_xi"] holds each sample's family parameter: the integral
    mean of its family member rescaled to [0, 1], for the samples the
    interval collapse keeps.  meta["trace"]["raw_xi"] holds the raw means.
    Every meta value is JSON-ready: meta["frame"] holds the graph frame's
    b1 and b2, and meta["neighborhood"] the eta and tau ranges of the
    certified planar rectangle.  The trace is given the field's bound
    |beta| * patch.tau_lipschitz on its tau-slope; when it is finite the
    extremal solutions are the one characteristic through the origin.
    meta["trace"]["extremal"]["tau_lipschitz"] holds a finite bound, or None.
    """
    prob.validate()
    f1t = _translated(prob.f1, prob.p, "f1")
    cf = graph_field(prob.f2, prob.p, prob.window_half, prob.bracket)

    def F(eta, tau):
        # on floats, or on a member's node arrays (GraphPatch.solve_many)
        return f1t.value_at(*cf.graph_coords(eta, tau))

    res = level_trace(cf, F, cf.patch.window, prob.trace,
                      abs(cf.beta) * cf.patch.tau_lipschitz)

    planar = [VerticalCoords(e, t) for e, t in res.zeta]
    points = [mul(prob.p, cf.graph_point(n.eta, n.tau)) for n in planar]

    # cumulative homogeneous arc length over its own last entry, so that the
    # last parameter is 1.0 exactly, and the residuals, as array calls
    xyz = _coord_array(points).T
    arc = np.cumsum(dist(Point(*xyz[:, :-1]), Point(*xyz[:, 1:])))
    params = [0.0] + (arc / arc[-1] if arc.size and arc[-1] > 0.0 else 0.0 * arc).tolist()
    res1, res2 = (float(np.max(np.abs(f.value_at(*xyz)), initial=0.0))
                  for f in (prob.f1, prob.f2))
    frame = cf.patch.frame
    meta = {
        "family_xi": res.xi,
        "trace": res.diagnostics,
        "residual_f1": res1,
        "residual_f2": res2,
        "frame": {"b1": list(frame.b1), "b2": list(frame.b2)},
        "neighborhood": {"eta": list(res.neighborhood.eta),
                         "tau": list(res.neighborhood.tau)},
    }
    return Curve(params=params, points=points, planar=planar, meta=meta)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _axes(box, grid_n):
    return [np.linspace(lo, hi, grid_n) for lo, hi in box]


def brute_force_zero_cloud(f1: PolySurface, f2: PolySurface, box,
                           grid_n: int) -> list[Point]:
    """All grid points of the box with |f1| + |f2| < eps, in the grid's C order.

    box is ((x11_lo, x11_hi), (x12_lo, x12_hi), (t_lo, t_hi)), and eps is
    (grid spacing) * (max gradient bound) * 2, a first-order band around the
    common zero set.  A band that is not finite raises OverflowError.

    The index grid is tiled into cubes of CLOUD_CUBE points per axis (fewer
    at the far faces), and |f1| + |f2| is evaluated once at each cube's
    centre c.  A cube is dropped, with none of its points evaluated, when

        total(c) - (G1 + G2) r > eps + allowance,

    where Gi = fi.max_euclidean_gradient(box) bounds |grad fi| over the
    box and r is the distance from c to the cube's farthest corner.  This is
    sound because the cube is convex and lies in the box: the segment from c
    to any grid point p of the cube stays in it, the gradient bounds hold
    along that segment, so |f1| + |f2| differs between c and p by at most
    (G1 + G2) |p - c| <= (G1 + G2) r.  The allowance is

        8 (n1 + n2 + 8) EPS (M1 + M2 + (G1 + G2) r),

    with ni the number of terms of fi, EPS the float64 machine epsilon, and
    Mi the term-wise bound sum |c| x11^i x12^j t^k of fi at the largest
    absolute coordinates of the box.  To first order, a computed value of fi
    anywhere in the box is within (ni + 9) EPS Mi / 2 of the exact one when
    each power is within one ulp.  The allowance covers that error at the
    centre and at a grid point, and the rounding of G1, G2, r and the test
    itself, several times over.  A cube is kept unless the test is True,
    so a NaN or infinite centre value, bound or allowance keeps it.

    The points of the kept cubes are evaluated exactly as on the full grid,
    with value_at and the same < eps, in chunks of at most CLOUD_BLOCK
    points (at least one cube), so memory stays bounded for any grid.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2 per axis")
    pair = (f1, f2)
    xs, ys, ts = axes = _axes(box, grid_n)
    spacing = max((hi - lo) / (grid_n - 1) for lo, hi in box)
    g1, g2 = (f.max_euclidean_gradient(box) for f in pair)
    eps = 2.0 * spacing * float(np.maximum(g1, g2))  # np.maximum keeps a NaN bound
    if not math.isfinite(eps):
        raise OverflowError("the band eps, 2 (grid spacing) (gradient bound), overflows")
    m1, m2 = (f.termwise_bound(box) for f in pair)
    (ix, vx, cx, hx), (iy, vy, cy, hy), (it, vt, ct, ht) = map(_cubes, axes)
    r = np.sqrt(hx[:, None, None] ** 2 + hy[None, :, None] ** 2 + ht[None, None, :] ** 2)
    spread = (g1 + g2) * r
    terms = sum(len(f.coefficients) for f in pair)
    allowance = 8.0 * (terms + 8) * EPS * (m1 + m2 + spread)
    centre = _zero_total(f1, f2, cx[:, None, None], cy[None, :, None], ct[None, None, :])
    kept = np.argwhere(~_excluded(centre, spread, eps, allowance))
    hits = [np.empty(0, dtype=np.int64)]
    for rows in _row_blocks(len(kept), CLOUD_CUBE**3, CLOUD_BLOCK):
        bx, by, bt = kept[rows].T
        total = _zero_total(f1, f2, xs[ix[bx]][:, :, None, None],
                            ys[iy[by]][:, None, :, None], ts[it[bt]][:, None, None, :])
        inside = (vx[bx][:, :, None, None] & vy[by][:, None, :, None]
                  & vt[bt][:, None, None, :])
        c, i, j, k = np.nonzero((total < eps) & inside)
        hits.append((ix[bx[c], i] * grid_n + iy[by[c], j]) * grid_n + it[bt[c], k])
    # cubes run in their own C order; sorting the flat indices restores the grid's
    i, j, k = np.unravel_index(np.sort(np.concatenate(hits)), (grid_n,) * 3)
    return [Point(float(xs[a]), float(ys[b]), float(ts[c])) for a, b, c in zip(i, j, k)]


def _zero_total(f1: PolySurface, f2: PolySurface, X, Y, T) -> np.ndarray:
    """|f1| + |f2| on the broadcast coordinate arrays X, Y, T."""
    return np.abs(f1.value_at(X, Y, T)) + np.abs(f2.value_at(X, Y, T))


def _cubes(axis: np.ndarray):
    """The cubes' runs of CLOUD_CUBE indices along one grid axis.

    Returns the indices (clipped to the axis, so a short last run repeats its
    last index), which of them are in range, and each run's centre and
    half-width: the largest distance from the centre to either end.
    """
    idx = np.arange(0, len(axis), CLOUD_CUBE)[:, None] + np.arange(CLOUD_CUBE)
    inside = idx < len(axis)
    idx = np.minimum(idx, len(axis) - 1)
    lo, hi = axis[idx[:, 0]], axis[idx[:, -1]]
    centre = 0.5 * (lo + hi)
    return idx, inside, centre, np.maximum(np.abs(hi - centre), np.abs(centre - lo))


def _excluded(centre, spread, eps, allowance) -> np.ndarray:
    """Where centre - spread > eps + allowance holds, with centre finite.

    Any NaN or infinite operand makes it False, so its cube is kept.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.isfinite(centre) & (centre - spread > eps + allowance)


def _coord_array(points) -> np.ndarray:
    return np.array([(q.x11, q.x12, q.t) for q in points]).reshape(-1, 3)


def _row_blocks(n_rows: int, row_floats: int, block: int):
    """Row slices holding at most block floats (at least one row each)."""
    step = max(1, block // row_floats)
    for lo in range(0, n_rows, step):
        yield slice(lo, lo + step)


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product over the last axis of length 3.

    Summed left to right, so the rounding does not depend on the machine's
    BLAS, which may reorder or fuse the products of a 3-vector dot.
    """
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean sup over the rows of a of the distance to the rows of b."""
    worst = 0.0
    for rows in _row_blocks(len(a), 3 * len(b), AGREEMENT_BLOCK):
        d = b[None, :, :] - a[rows, None, :]
        worst = max(worst, float(np.sqrt(np.min(_dot3(d, d), axis=1)).max()))
    return worst


def _points_to_polyline(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean sup over the rows of u of the distance to the polyline v.

    Each row is projected onto every segment a + s (b - a), s clipped to
    [0, 1]; a zero-length segment (one vertex, or a repeated one) projects
    to s = 0.
    """
    a, b = (v[:-1], v[1:]) if len(v) > 1 else (v, v)
    ab = b - a
    denom = _dot3(ab, ab)
    worst = 0.0
    for rows in _row_blocks(len(u), 3 * len(a), AGREEMENT_BLOCK):
        pa = u[rows, None, :] - a[None, :, :]
        s = np.divide(_dot3(pa, ab), denom, out=np.zeros(pa.shape[:2]), where=denom != 0.0)
        d = u[rows, None, :] - (a + np.clip(s, 0.0, 1.0)[..., None] * ab)
        worst = max(worst, float(np.sqrt(np.min(_dot3(d, d), axis=1)).max()))
    return worst


def curve_cloud_agreement(curve_points, cloud, box) -> float:
    """Euclidean two-way agreement between a sampled curve and a grid cloud.

    Cloud points are measured against the curve polyline (the curve between
    samples), restricted to the box padded by twice the sample spacing so the
    polyline is not cut short at the box faces; curve samples inside the box
    are measured against the cloud points.
    """
    arr = _coord_array(curve_points)
    cld = _coord_array(cloud)
    if not len(cld):
        raise ValueError("curve_cloud_agreement: the zero cloud is empty")
    gaps = np.linalg.norm(np.diff(arr, axis=0), axis=1)
    pad = 2.0 * (float(gaps.max()) if len(gaps) else 0.0)
    lo, hi = np.array(box, dtype=float).T

    def in_box(slack):
        return np.all((lo - slack <= arr) & (arr <= hi + slack), axis=1)

    poly = arr[in_box(pad)]
    strict = arr[in_box(0.0)]
    if len(poly) < 2 or not len(strict):
        raise ValueError("curve does not reach the oracle box")
    return max(_points_to_polyline(cld, poly), _directed(strict, cld))


# ---------------------------------------------------------------------------
# Cone property
# ---------------------------------------------------------------------------

def _in_cone(v: np.ndarray, y: np.ndarray, cp: ConeParams) -> np.ndarray:
    """Whether the rows of y lie in the closed cones (opening alpha, width r)
    at the rows of v, the two broadcast against each other.

    With z = v^-1 * y, membership reads sqrt(|z_t|) <= alpha |z_1| <= alpha r:
    the vertical part is measured on the homogeneous scale, which is what
    separates a curve with the cone property from its neighbours.  z and |z_1|
    come from mul and hnorm's hypot; an overflowing displacement raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = mul(inv(Point(*np.moveaxis(v, -1, 0))), Point(*np.moveaxis(y, -1, 0)))
    z1 = _hypot(z.x11, z.x12)
    if not np.isfinite(z1).all():
        raise ValueError("cone displacement overflows")
    return (np.sqrt(np.abs(z.t)) <= cp.alpha * z1) & (z1 <= cp.r)


@dataclass
class ConeReport:
    params: ConeParams
    n_samples: int
    violations: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def cone_property_check(samples, cp: ConeParams) -> ConeReport:
    """All ordered pairs (x, y), x != y, with y inside the cone at x.

    The pairs come from one _in_cone mask per block of vertex rows, in the
    order of a double loop over x and then y; a block holds at most
    AGREEMENT_BLOCK / 3 pairs.
    """
    pts = _coord_array(samples)
    idx = np.arange(len(pts))
    bad = []
    for rows in _row_blocks(len(pts), 3 * max(len(pts), 1), AGREEMENT_BLOCK):
        inside = _in_cone(pts[rows, None, :], pts[None, :, :], cp)
        inside[idx[rows] - rows.start, idx[rows]] = False
        i, j = np.nonzero(inside)
        bad += zip((i + rows.start).tolist(), j.tolist())
    return ConeReport(params=cp, n_samples=len(samples), violations=bad)


def gradient_margin(pair, box, grid_n: int = 5) -> float:
    """Worst-case lower bound of the pair's horizontal gradients over a grid of the box.

    For the pair (f1, f2) this is the smaller singular value of the stacked
    2x2 horizontal gradient matrix, minimized over the grid, i.e. min over
    unit horizontal v of |(grad f1 . v, grad f2 . v)|.  The gradients are
    evaluated on the whole grid at once; one that overflows (is not finite)
    raises OverflowError.
    """
    X, Y, T = np.meshgrid(*_axes(box, grid_n), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array([np.broadcast_to(g, X.shape) for f in pair for g in f.grad_at(X, Y, T)])
    if not np.isfinite(rows).all():
        raise OverflowError("a horizontal gradient overflows on the grid")
    # one matrix per grid point, its row i the gradient of pair[i]
    matrices = rows.reshape(len(pair), 2, -1).transpose(2, 0, 1)
    return float(np.linalg.svd(matrices, compute_uv=False)[:, -1].min())


def pair_lipschitz_bound(pair, box) -> float:
    """Crude Lipschitz bound for the horizontal gradients over the box.

    Combines the term-wise bounds on the Euclidean gradient of each symbolic
    gradient component.
    """
    worst = 0.0
    for f in pair:
        g1, g2 = f.grad_poly
        worst = max(
            worst,
            math.hypot(g1.max_euclidean_gradient(box), g2.max_euclidean_gradient(box)),
        )
    return worst


def cone_width_for(alpha: float, lam: float, lip: float, r_max: float) -> float:
    """A cone width small enough that margin lam beats curvature lip.

    Mirrors the scale at which the gradient margin separates points of the
    zero set from the cone: r ~ lam / ((alpha + 1) * lip * max(1, alpha)),
    capped by the sampled window radius.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    lip = max(lip, 1e-9)
    return min(r_max, CONE_SAFETY * lam / ((alpha + 1.0) * lip * max(1.0, alpha)))
