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
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .characteristics import CharField
from .errors import DependentNormals, MarginViolated, NotCommonZero
from .flowtrace import Rect, TraceParams, level_trace
from .hgroup import (
    ORIGIN,
    Frame,
    Point,
    VerticalCoords,
    dist,
    inv,
    make_frame,
    mul,
)
from .hsurface import GraphPatch, SurfaceHandle, horiz_grad_poly

__all__ = [
    "IntersectionProblem",
    "Curve",
    "ConeParams",
    "choose_frame",
    "graph_field",
    "intersect_surfaces",
    "brute_force_zero_cloud",
    "polyline_hausdorff",
    "curve_cloud_agreement",
    "cone_contains",
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
# Grid points in one x11 slab of the zero cloud's evaluation, so its
# temporaries stay bounded for any grid.
CLOUD_BLOCK = 2**20


@dataclass
class IntersectionProblem:
    """Two surfaces, a common zero, and the numeric knobs of the pipeline."""

    f1: SurfaceHandle
    f2: SurfaceHandle
    p: Point = ORIGIN
    window_half: float = 0.5
    bracket: tuple[float, float] = (-2.0, 2.0)
    trace: TraceParams = dataclass_field(default_factory=TraceParams)

    def validate(self):
        """Both surfaces vanish at p within trace.root_tol, with independent normals."""
        v1 = self.f1.eval(self.p)
        v2 = self.f2.eval(self.p)
        tol = self.trace.root_tol
        if abs(v1) > tol or abs(v2) > tol:
            raise NotCommonZero(
                f"base point is not a common zero: f1 = {v1:.3e}, f2 = {v2:.3e}"
            )
        g1 = self.f1.grad_h(self.p)
        g2 = self.f2.grad_h(self.p)
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


@dataclass
class Curve:
    """A sampled curve in the group with its planar preimage and metadata."""

    params: list[float]
    points: list[Point]
    planar: list[VerticalCoords] | None = None
    meta: dict = dataclass_field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def min_separation(self) -> float:
        return min(
            (dist(a, b) for a, b in zip(self.points, self.points[1:])),
            default=math.inf,
        )


@dataclass(frozen=True)
class ConeParams:
    """Opening alpha, width r, and the gradient margin the width came from."""

    alpha: float
    r: float
    lam: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.r <= 0.0:
            raise ValueError("cone opening and width must be positive")


def choose_frame(f2: SurfaceHandle, p: Point) -> Frame:
    """Frame with b1 along the horizontal gradient of f2 at p.

    This maximizes the graph-direction derivative Y1 f2(p) = |grad_H f2(p)|,
    which gives the root solver the largest possible margin.  A vanishing
    gradient leaves Y1 f2(p) = 0 in every frame, below any graph margin.
    """
    g = f2.grad_h(p)
    n = math.hypot(*g)
    if n < 1e-12:
        raise MarginViolated("horizontal gradient of f2 vanishes at the base point")
    return make_frame((g[0] / n, g[1] / n))


def graph_field(f2: SurfaceHandle, p: Point, window_half: float,
                bracket: tuple[float, float]) -> CharField:
    """The characteristic field of the intrinsic graph of f2 around p.

    f2 is translated so that p sits at the origin, the graph direction
    follows its horizontal gradient there, and the graph patch covers the
    square window of half-width window_half in vertical-plane coordinates.
    """
    f2t = f2.translated(p)
    w = window_half
    patch = GraphPatch(choose_frame(f2t, ORIGIN), f2t, window=((-w, w), (-w, w)),
                       bracket=bracket)
    return CharField(patch)


def intersect_surfaces(prob: IntersectionProblem) -> Curve:
    """The intersection curve of the two surfaces near the base point.

    Every returned point satisfies both |f1| and |f2| below solver
    tolerance; the planar preimage of the trace is kept alongside, and the
    parameter is cumulative homogeneous arc length rescaled to [0, 1] (the
    raw family parameter stays in meta["raw_xi"]).
    """
    prob.validate()
    f1t = prob.f1.translated(prob.p)
    cf = graph_field(prob.f2, prob.p, prob.window_half, prob.bracket)

    def F(eta: float, tau: float) -> float:
        return f1t.value_at(*cf.graph_coords(eta, tau))

    w = prob.window_half
    res = level_trace(cf.rhs, F, Rect.centered(w, w), prob.trace)

    planar = [VerticalCoords(e, t) for e, t in res.zeta]
    points = [mul(prob.p, cf.graph_point(n.eta, n.tau)) for n in planar]

    # cumulative homogeneous arc length, rescaled to [0, 1]
    seps = [dist(a, b) for a, b in zip(points, points[1:])]
    total = sum(seps)
    params = [0.0]
    acc = 0.0
    for s in seps:
        acc += s
        params.append(acc / total if total > 0.0 else 0.0)

    res1 = max((abs(prob.f1.eval(q)) for q in points), default=0.0)
    res2 = max((abs(prob.f2.eval(q)) for q in points), default=0.0)
    modulus = max(
        (dist(a, b) / (u2 - u1)
         for (a, b, u1, u2) in zip(points, points[1:], params, params[1:])
         if u2 > u1),
        default=0.0,
    )
    meta = {
        "raw_xi": res.xi,
        "trace": res.diagnostics,
        "residual_f1": res1,
        "residual_f2": res2,
        "empirical_modulus": modulus,
        "frame": cf.patch.frame,
        "neighborhood": res.neighborhood,
    }
    return Curve(params=params, points=points, planar=planar, meta=meta)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _axes(box, grid_n):
    return [np.linspace(lo, hi, grid_n) for lo, hi in box]


def brute_force_zero_cloud(f1: SurfaceHandle, f2: SurfaceHandle, box,
                           grid_n: int) -> list[Point]:
    """All grid points of the box with |f1| + |f2| < eps.

    box is ((x11_lo, x11_hi), (x12_lo, x12_hi), (t_lo, t_hi)), and eps is
    (grid spacing) * (max gradient bound) * 2, a first-order band around the
    common zero set.  Both surfaces must be polynomial; they are evaluated
    vectorized over slabs of x11 rows holding at most CLOUD_BLOCK points.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2 per axis")
    xs, ys, ts = _axes(box, grid_n)
    spacing = max((hi - lo) / (grid_n - 1) for lo, hi in box)
    bound = 0.0
    for f in (f1, f2):
        if f.poly is None:
            raise ValueError("brute_force_zero_cloud needs polynomial surfaces")
        bound = max(bound, f.poly.max_euclidean_gradient(box))
    eps = 2.0 * spacing * bound
    Y = ys[None, :, None]
    T = ts[None, None, :]
    cloud = []
    for rows in _row_blocks(grid_n, grid_n * grid_n, CLOUD_BLOCK):
        X = xs[rows, None, None]
        total = (np.abs(f1.poly.eval_coords(X, Y, T))
                 + np.abs(f2.poly.eval_coords(X, Y, T)))
        # slabs along the first axis keep argwhere's C order across the grid
        cloud += [Point(float(xs[rows.start + i]), float(ys[j]), float(ts[k]))
                  for i, j, k in np.argwhere(total < eps)]
    return cloud


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


def polyline_hausdorff(A, B) -> float:
    """Euclidean Hausdorff distance between two polylines (sampled curves)."""
    a = _coord_array(A)
    b = _coord_array(B)
    for name, arr in (("A", a), ("B", b)):
        if not len(arr):
            raise ValueError(f"polyline_hausdorff: polyline {name} is empty")
    return max(_points_to_polyline(a, b), _points_to_polyline(b, a))


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

def cone_contains(vertex: Point, y: Point, cp: ConeParams) -> bool:
    """Whether y lies in the closed cone of opening alpha and width r at vertex.

    With z = vertex^-1 * y, membership reads sqrt(|z_t|) <= alpha |z_1| <= alpha r:
    the vertical part is measured on the homogeneous scale, which is what
    separates a curve with the cone property from its neighbours.
    """
    z = mul(inv(vertex), y)
    z1 = math.hypot(z.x11, z.x12)
    return math.sqrt(abs(z.t)) <= cp.alpha * z1 and z1 <= cp.r


@dataclass
class ConeReport:
    params: ConeParams
    n_samples: int
    violations: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def cone_property_check(samples, cp: ConeParams) -> ConeReport:
    """All ordered pairs (x, y), x != y, with y inside the cone at x."""
    bad = []
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if i == j:
                continue
            if cone_contains(x, y, cp):
                bad.append((i, j))
    return ConeReport(params=cp, n_samples=len(samples), violations=bad)


def gradient_margin(f, box, grid_n: int = 5) -> float:
    """Worst-case lower bound of the horizontal gradient over a grid of the box.

    For a single handle this is min |grad_H f|; for a pair (f1, f2) it is the
    smaller singular value of the stacked 2x2 horizontal gradient matrix,
    i.e. min over unit horizontal v of |(grad f1 . v, grad f2 . v)|.
    """
    handles = f if isinstance(f, (tuple, list)) else (f,)
    xs, ys, ts = _axes(box, grid_n)
    worst = math.inf
    for x in xs:
        for y in ys:
            for t in ts:
                q = Point(float(x), float(y), float(t))
                rows = [h.grad_h(q) for h in handles]
                if len(rows) == 1:
                    val = math.hypot(*rows[0])
                else:
                    val = float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])
                worst = min(worst, val)
    return worst


def pair_lipschitz_bound(handles, box) -> float:
    """Crude Lipschitz bound for the horizontal gradients over the box.

    Combines the term-wise bounds on the Euclidean gradient of each symbolic
    gradient component; requires polynomial surfaces.
    """
    worst = 0.0
    for h in handles:
        if h.poly is None:
            raise ValueError("pair_lipschitz_bound needs polynomial surfaces")
        g1, g2 = horiz_grad_poly(h.poly)
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
