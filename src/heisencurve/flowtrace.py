"""Monotone flow selection and zero-set tracing for planar continuous ODEs.

The machinery here handles the scalar problem dtau/deta = h(eta, tau) when h
is merely continuous, so solutions through a point need not be unique.  It
provides

* a fixed-step Heun integrator on uniform grids,
* approximations of the minimal and maximal solution through a point,
* a one-parameter family of solutions, ordered pointwise and parametrized by
  the integral over the interval, interpolating between two given solutions,
* tracing of the zero set of a function F that is strictly monotone along
  every solution: one zero per family member, swept into a curve.

Pointwise max/min of two solutions is again a solution, which is what makes
the splicing steps legitimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatch,
    MeanBisectionFailure,
    MonotonicityViolated,
    NoZeroFound,
    OrderingViolation,
    WindowExit,
)

__all__ = [
    "Rect",
    "PathSample",
    "FlowFamily",
    "TraceParams",
    "TraceResult",
    "integrate_through",
    "solution_residual",
    "pointwise_max",
    "pointwise_min",
    "funnel_section",
    "extremal_solutions",
    "build_family",
    "monotone_root",
    "level_trace",
    "coverage_gap",
]

# Shifts of the data and field whose shifted solutions bound the extremal ones.
EPS_SEQUENCE = (1e-3, 1e-5, 1e-7, 1e-9)
# Largest miss of a family member's integral mean.
MEAN_TOL = 1e-6
# Anchors tried per member, spread over the grid.
MAX_ANCHORS = 41
# Samples per axis of the field bound on the window.
SAMPLE_GRID = 33
# Cap on the path grid; zeros are solver-accurate anyway.
MAX_NODES = 400
# Consecutive zeros closer than this collapse to one sample.
COLLAPSE_TOL = 1e-12
# Grid points per axis in coverage_gap.
COVERAGE_GRID = 41


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (eta-range x tau-range) in the plane."""

    eta: tuple[float, float]
    tau: tuple[float, float] = (-math.inf, math.inf)

    def contains(self, eta: float, tau: float) -> bool:
        return self.eta[0] <= eta <= self.eta[1] and self.tau[0] <= tau <= self.tau[1]

    @classmethod
    def centered(cls, a: float, b: float = math.inf) -> "Rect":
        return cls((-a, a), (-b, b))


@dataclass
class PathSample:
    """A scalar function eta -> tau sampled on a uniform grid."""

    eta0: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("values must be a nonempty 1-d array")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def etas(self) -> np.ndarray:
        return self.eta0 + self.step * np.arange(len(self.values))

    @property
    def eta_end(self) -> float:
        return self.eta0 + self.step * (len(self.values) - 1)

    def tau_at(self, eta: float) -> float:
        """Piecewise-linear interpolation; eta may exceed the grid by a hair."""
        u = (eta - self.eta0) / self.step
        if u < -1e-9 or u > len(self.values) - 1 + 1e-9:
            raise ValueError(f"eta = {eta!r} outside the sampled range")
        i = min(max(int(math.floor(u)), 0), len(self.values) - 2) if len(self.values) > 1 else 0
        if len(self.values) == 1:
            return float(self.values[0])
        w = u - i
        return float((1.0 - w) * self.values[i] + w * self.values[i + 1])

    def index_of(self, eta: float) -> int:
        i = round((eta - self.eta0) / self.step)
        if abs(self.eta0 + i * self.step - eta) > 1e-9 * max(1.0, abs(eta)):
            raise ValueError(f"eta = {eta!r} is not a grid point")
        return int(i)

    def same_grid(self, other: "PathSample") -> bool:
        return (len(self.values) == len(other.values)
                and abs(self.eta0 - other.eta0) <= 1e-9 * max(1.0, abs(self.eta0))
                and abs(self.step - other.step) <= 1e-12 * self.step)

    def integral(self) -> float:
        """Trapezoid integral of tau over the covered eta-interval."""
        return float(np.trapezoid(self.values, dx=self.step))

    def max_increment(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.values))))

    def copy(self) -> "PathSample":
        return PathSample(self.eta0, self.step, self.values.copy())


def _require_same_grid(a: PathSample, b: PathSample):
    if not a.same_grid(b):
        raise GridMismatch(
            f"paths on different grids: ({a.eta0}, {a.step}, {len(a)}) "
            f"vs ({b.eta0}, {b.step}, {len(b)})"
        )


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _heun_march(h, eta_a: float, tau_a: float, direction: int, n_steps: int,
                step: float, tau_lo: float, tau_hi: float) -> np.ndarray:
    """March n_steps Heun steps; stop early if tau leaves [tau_lo, tau_hi].

    Returns the accepted values including the start, ordered in march order.
    """
    dt = direction * step
    vals = [tau_a]
    eta, tau = eta_a, tau_a
    for _ in range(n_steps):
        k1 = h(eta, tau)
        k2 = h(eta + dt, tau + dt * k1)
        tau_next = tau + 0.5 * dt * (k1 + k2)
        if not (tau_lo <= tau_next <= tau_hi) or not math.isfinite(tau_next):
            break
        eta += dt
        tau = tau_next
        vals.append(tau)
    return np.array(vals)


def integrate_through(h, eta_c: float, tau_c: float, grid: tuple[float, float, int],
                      tau_range=(-math.inf, math.inf)) -> PathSample:
    """Solution through (eta_c, tau_c) sampled on a prescribed uniform grid.

    grid is (eta0, step, n); eta_c must be one of its nodes.  Both directions
    are marched from the anchor; a trajectory that cannot cover the whole
    grid raises WindowExit.
    """
    eta0, step, n = grid
    k = round((eta_c - eta0) / step)
    if not (0 <= k < n) or abs(eta0 + k * step - eta_c) > 1e-9:
        raise ValueError(f"anchor eta = {eta_c!r} is not a node of the grid")
    right = _heun_march(h, eta_c, tau_c, 1, n - 1 - k, step, *tau_range)
    left = _heun_march(h, eta_c, tau_c, -1, k, step, *tau_range)
    if len(right) != n - k or len(left) != k + 1:
        raise WindowExit("trajectory leaves the tau-range before covering the grid")
    vals = np.concatenate([left[::-1], right[1:]])
    return PathSample(eta0, step, vals)


def solution_residual(path: PathSample, h) -> float:
    """Max over interior midpoints of |delta tau / delta eta - h(midpoint)|."""
    if len(path) < 2:
        return 0.0
    e = path.etas
    v = path.values
    worst = 0.0
    for i in range(len(v) - 1):
        slope = (v[i + 1] - v[i]) / path.step
        mid = h(0.5 * (e[i] + e[i + 1]), 0.5 * (v[i] + v[i + 1]))
        worst = max(worst, abs(slope - mid))
    return worst


# ---------------------------------------------------------------------------
# Pointwise lattice operations on solutions
# ---------------------------------------------------------------------------

def pointwise_max(a: PathSample, b: PathSample) -> PathSample:
    """Elementwise max; the max of two solutions is again a solution."""
    _require_same_grid(a, b)
    return PathSample(a.eta0, a.step, np.maximum(a.values, b.values))


def pointwise_min(a: PathSample, b: PathSample) -> PathSample:
    _require_same_grid(a, b)
    return PathSample(a.eta0, a.step, np.minimum(a.values, b.values))


def funnel_section(rho1: PathSample, rho2: PathSample, tau0: PathSample) -> PathSample:
    """The spliced solution max(rho1, min(tau0, rho2)).

    Requires rho1 <= rho2 pointwise.  Where tau0 lies between the envelopes
    the result follows tau0; elsewhere it rides the violated envelope.
    """
    _require_same_grid(rho1, rho2)
    _require_same_grid(rho1, tau0)
    if np.any(rho1.values > rho2.values + 1e-12):
        raise OrderingViolation("funnel_section requires rho1 <= rho2 pointwise")
    return PathSample(rho1.eta0, rho1.step,
                      np.maximum(rho1.values, np.minimum(tau0.values, rho2.values)))


# ---------------------------------------------------------------------------
# Extremal solutions through a point
# ---------------------------------------------------------------------------

def _anchored_grid(eta_a: float, window: Rect, step: float) -> tuple[float, float, int]:
    if not (window.eta[0] <= eta_a <= window.eta[1]):
        raise WindowExit(f"anchor eta = {eta_a!r} outside the window")
    n_l = max(0, int(math.floor((eta_a - window.eta[0]) / step + 1e-9)))
    n_r = max(0, int(math.floor((window.eta[1] - eta_a) / step + 1e-9)))
    if n_l + n_r < 1:
        raise WindowExit("window leaves no room to take a single step")
    return (eta_a - n_l * step, step, n_l + n_r + 1)


def _aitken(seq: list[np.ndarray]) -> np.ndarray:
    """Pointwise Aitken delta-squared of the last three iterates, safeguarded."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-14 * (1.0 + np.abs(x2))
    out = x2.copy()
    accel = x2 - np.where(safe, d2**2 / np.where(safe, denom, 1.0), 0.0)
    # accept acceleration only where it stays on the monotone side
    good = safe & (np.sign(d2) * (accel - x2) >= -np.abs(d2))
    out[good] = accel[good]
    return out


def extremal_solutions(h, eta_a: float, tau_a: float, window: Rect, step: float):
    """Approximate minimal and maximal solutions through (eta_a, tau_a).

    For each eps the data and the field are shifted by -eps (minimal side)
    or +eps (maximal side); the shifted problems bound the extremal
    solutions from below/above and converge to them as eps -> 0.  Marching
    against the eta direction flips the field shift so that the bound keeps
    its side.  The EPS_SEQUENCE paths are extrapolated pointwise; the
    convergence gaps are reported in the returned diagnostics dict.
    """
    grid = _anchored_grid(eta_a, window, step)
    eta0, step_g, n = grid
    k = round((eta_a - eta0) / step_g)

    def shifted_path(sign: float, eps: float) -> np.ndarray:
        # sign = -1 for the minimal side, +1 for the maximal side
        def field(direction):
            return lambda e, t: h(e, t) + sign * direction * eps

        right = _heun_march(field(1), eta_a, tau_a + sign * eps, 1,
                            n - 1 - k, step_g, *window.tau)
        left = _heun_march(field(-1), eta_a, tau_a + sign * eps, -1,
                           k, step_g, *window.tau)
        if len(right) != n - k or len(left) != k + 1:
            raise WindowExit(
                "shifted trajectory leaves the tau-range; enlarge the window"
            )
        return np.concatenate([left[::-1], right[1:]])

    natural = integrate_through(h, eta_a, tau_a, grid, window.tau).values
    # A shifted path that crosses the natural trajectory on the wrong side has
    # gone unstable (the shift is too small for the step near a degenerate
    # zero of the field); such eps values are dropped, not extrapolated.
    wrong_side_tol = 1e-3 * (1.0 + float(np.max(np.abs(natural))))
    diagnostics = {"eps": EPS_SEQUENCE, "gap_min": [], "gap_max": [],
                   "dropped_min": [], "dropped_max": []}
    lows, highs = [], []
    for eps in EPS_SEQUENCE:
        low = shifted_path(-1.0, eps)
        if float(np.max(low - natural)) > wrong_side_tol + eps:
            diagnostics["dropped_min"].append(eps)
        else:
            if lows:
                diagnostics["gap_min"].append(float(np.max(np.abs(low - lows[-1]))))
            lows.append(low)
        high = shifted_path(+1.0, eps)
        if float(np.max(natural - high)) > wrong_side_tol + eps:
            diagnostics["dropped_max"].append(eps)
        else:
            if highs:
                diagnostics["gap_max"].append(float(np.max(np.abs(high - highs[-1]))))
            highs.append(high)
    lo = _aitken(lows) if lows else natural.copy()
    hi = _aitken(highs) if highs else natural.copy()
    lo = np.minimum(lo, natural)
    hi = np.maximum(hi, natural)
    gaps = diagnostics["gap_min"] + diagnostics["gap_max"]
    diagnostics["converged"] = bool(
        (not gaps or gaps[-1] <= max(gaps[0], 1e-12))
        and not diagnostics["dropped_min"] and not diagnostics["dropped_max"]
    )
    min_path = PathSample(eta0, step_g, np.minimum(lo, hi))
    max_path = PathSample(eta0, step_g, np.maximum(lo, hi))
    return min_path, max_path, diagnostics


# ---------------------------------------------------------------------------
# Monotone one-parameter families
# ---------------------------------------------------------------------------

@dataclass
class FlowFamily:
    """Solutions ordered pointwise and parametrized by their integral."""

    members: list[tuple[float, PathSample]]
    interval: tuple[float, float]

    @property
    def mus(self) -> list[float]:
        return [mu for mu, _ in self.members]

    def monotonicity_violation(self) -> float:
        """Max pointwise drop between consecutive members (should be ~0)."""
        worst = 0.0
        for (_, a), (_, b) in zip(self.members, self.members[1:]):
            worst = max(worst, float(np.max(a.values - b.values, initial=0.0)))
        return worst

    def mean_residuals(self) -> list[float]:
        return [abs(p.integral() - mu) for mu, p in self.members]

    def max_uniform_gap(self) -> float:
        """Largest uniform distance between adjacent members (continuity proxy)."""
        worst = 0.0
        for (_, a), (_, b) in zip(self.members, self.members[1:]):
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
        return worst


def _clamped(h, tau_lo: float, tau_hi: float):
    def hc(eta, tau):
        return h(eta, min(max(tau, tau_lo), tau_hi))
    return hc


def _find_member_with_mean(hc, lo: PathSample, hi: PathSample, mu_t: float,
                           paths: dict) -> PathSample:
    """A solution between lo and hi whose integral is mu_t within MEAN_TOL.

    Candidates are spliced solutions through anchor points between the
    envelopes; the vertical position at a fixed anchor is bisected on the
    candidate's integral, which varies continuously with the anchor value.
    paths maps (anchor node, anchor value) to raw solutions of hc on this
    grid, and a candidate through such a point reuses its solution.  The
    bracket-end candidates and the accepted one are added to it: the two
    halves of this bracket start from the same points.
    """
    grid = (lo.eta0, lo.step, len(lo))

    def candidate(k: int, s: float):
        key = (k, float((1.0 - s) * lo.values[k] + s * hi.values[k]))
        raw = paths.get(key)
        if raw is None:
            raw = integrate_through(hc, lo.eta0 + k * lo.step, key[1], grid)
        return key, raw, funnel_section(lo, hi, raw)

    def keep(c) -> PathSample:
        key, raw, spliced = c
        paths[key] = raw
        return spliced

    n = len(lo)
    stride = max(1, n // MAX_ANCHORS)
    order = sorted(set(range(0, n, stride)) | {n - 1}, key=lambda k: abs(k - n // 2))
    best_gap = math.inf
    for k in order:
        c0, c1 = keep(candidate(k, 0.0)), keep(candidate(k, 1.0))
        m0, m1 = c0.integral(), c1.integral()
        for c, m in ((c0, m0), (c1, m1)):
            best_gap = min(best_gap, abs(m - mu_t))
            if abs(m - mu_t) <= MEAN_TOL:
                return c
        if (m0 - mu_t) * (m1 - mu_t) > 0.0:
            continue
        # Illinois false position on s: the candidate mean is continuous in s
        s_lo, s_hi = 0.0, 1.0
        g_lo, g_hi = m0 - mu_t, m1 - mu_t
        side = 0
        for _ in range(64):
            denom = g_hi - g_lo
            if denom != 0.0:
                s_mid = s_lo - g_lo * (s_hi - s_lo) / denom
            else:
                s_mid = 0.5 * (s_lo + s_hi)
            if not (s_lo + 1e-15 < s_mid < s_hi - 1e-15):
                s_mid = 0.5 * (s_lo + s_hi)
            c_mid = candidate(k, s_mid)
            g_mid = c_mid[2].integral() - mu_t
            best_gap = min(best_gap, abs(g_mid))
            if abs(g_mid) <= MEAN_TOL:
                return keep(c_mid)
            if g_lo * g_mid <= 0.0:
                s_hi, g_hi = s_mid, g_mid
                if side == -1:
                    g_lo *= 0.5
                side = -1
            else:
                s_lo, g_lo = s_mid, g_mid
                if side == 1:
                    g_hi *= 0.5
                side = 1
            if s_hi - s_lo < 1e-14:
                break  # candidate mean jumps past mu_t here; try another anchor
    raise MeanBisectionFailure(mu_t, best_gap)


def build_family(h, tau_minus: PathSample, tau_plus: PathSample, depth: int) -> FlowFamily:
    """Dyadic family of 2**depth + 1 ordered solutions from tau_minus to tau_plus.

    Each new member realizes the midpoint of its bracket's integral range and
    is spliced between the bracket members, so pointwise ordering holds by
    construction; endpoints are the supplied paths, unchanged.  One clamped
    field serves every bracket, so a raw solution kept by its anchor point
    stays valid for the whole call: each member's path, and each endpoint's
    candidate, is integrated once.
    """
    _require_same_grid(tau_minus, tau_plus)
    if np.any(tau_minus.values > tau_plus.values + 1e-12):
        raise OrderingViolation("build_family requires tau_minus <= tau_plus pointwise")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mu_minus = tau_minus.integral()
    mu_plus = tau_plus.integral()
    hc = _clamped(h, float(np.min(tau_minus.values)) - 1.0,
                  float(np.max(tau_plus.values)) + 1.0)
    paths: dict = {}

    def recurse(lo, mu_lo, hi, mu_hi, d) -> list[tuple[float, PathSample]]:
        if d == 0:
            return []
        if mu_hi - mu_lo <= 2.0 * MEAN_TOL:
            mid = funnel_section(lo, hi, lo)
            mu_mid = mid.integral()
        else:
            mid = _find_member_with_mean(hc, lo, hi, 0.5 * (mu_lo + mu_hi), paths)
            mu_mid = mid.integral()
        return (recurse(lo, mu_lo, mid, mu_mid, d - 1)
                + [(mu_mid, mid)]
                + recurse(mid, mu_mid, hi, mu_hi, d - 1))

    members = ([(mu_minus, tau_minus)]
               + recurse(tau_minus, mu_minus, tau_plus, mu_plus, depth)
               + [(mu_plus, tau_plus)])
    return FlowFamily(members=members, interval=(mu_minus, mu_plus))


# ---------------------------------------------------------------------------
# Roots along paths and the zero-set trace
# ---------------------------------------------------------------------------

def monotone_root(F, path: PathSample, root_tol: float = 1e-10):
    """The unique zero of eta -> F(eta, tau(eta)) along the path, with F's samples.

    The sampled values must be strictly monotone (up to rounding); mixed
    increment signs raise MonotonicityViolated.  Returns (root, values):
    root is (eta, tau), or None when F keeps one sign over the whole path,
    and values holds F at the path's nodes.
    """
    vals = np.array([F(e, t) for e, t in zip(path.etas, path.values)])
    if len(vals) < 2:
        return None, vals
    d = np.diff(vals)
    span = float(np.max(vals) - np.min(vals))
    tol = 1e-9 * (span + 1e-30)
    if np.any(d > tol) and np.any(d < -tol):
        raise MonotonicityViolated(
            f"sampled increments change sign (max {d.max():.3e}, min {d.min():.3e})"
        )
    sign = 1.0 if vals[-1] >= vals[0] else -1.0
    g = sign * vals
    hits = np.nonzero(np.abs(vals) <= root_tol)[0]
    if len(hits):
        i = int(hits[0])
        return (float(path.etas[i]), float(path.values[i])), vals
    cross = np.nonzero((g[:-1] < 0.0) & (g[1:] > 0.0))[0]
    if not len(cross):
        return None, vals
    i = int(cross[0])
    a, b = path.etas[i], path.etas[i + 1]
    ga = g[i]
    for _ in range(200):
        m = 0.5 * (a + b)
        gm = sign * F(m, path.tau_at(m))
        if abs(gm) <= root_tol or b - a < 1e-14:
            return (float(m), float(path.tau_at(m))), vals
        if ga * gm < 0.0:
            b = m
        else:
            a, ga = m, gm
    m = 0.5 * (a + b)
    return (float(m), float(path.tau_at(m))), vals


@dataclass
class TraceParams:
    """Numeric knobs for level_trace."""

    step: float = 1e-3
    depth: int = 6
    root_tol: float = 1e-10


@dataclass
class TraceResult:
    """A traced zero set: parametrized planar samples plus diagnostics.

    band holds the outermost members with zeros, the envelopes of the zero
    set; diagnostics holds only JSON-ready values.
    """

    xi: list[float]
    zeta: list[tuple[float, float]]
    neighborhood: Rect
    band: tuple[PathSample, PathSample]
    diagnostics: dict = field(default_factory=dict)


def level_trace(h, F, window: Rect, params: TraceParams | None = None) -> TraceResult:
    """Trace the zero set of F near the origin along a monotone flow of h.

    F must vanish at the origin and be strictly monotone along every
    solution of dtau/deta = h.  The construction integrates the extremal
    solutions through the origin, flanks them by solutions through
    (0, +-b/2), fills both gaps with integral-parametrized families, takes
    the unique zero of F along each member, and collapses parameter
    intervals on which the zero stalls, so consecutive samples are distinct.
    """
    params = params or TraceParams()
    if abs(F(0.0, 0.0)) > max(params.root_tol, 1e-10):
        raise ValueError(f"F(0,0) = {F(0.0, 0.0)!r}: the trace must start at a zero")
    a = min(-window.eta[0], window.eta[1])
    b = min(-window.tau[0], window.tau[1])
    if not (a > 0.0 and b > 0.0 and math.isfinite(b)):
        raise ValueError("window must be a finite rectangle around the origin")

    # field bound and the safe half-width delta = min(a, b / (2 M))
    es = np.linspace(-a, a, SAMPLE_GRID)
    ts = np.linspace(-b, b, SAMPLE_GRID)
    M = max(abs(h(float(e), float(t))) for e in es for t in ts)
    delta = a if M * 2.0 * a <= b else b / (2.0 * M)
    n_half = max(1, min(int(math.ceil(delta / params.step - 1e-9)),
                        MAX_NODES // 2))
    step = delta / n_half
    hc = _clamped(h, -b, b)
    # the clamped field is bounded, so trajectories stay tame without a tau cap
    ibox = Rect((-delta, delta))
    grid = (-delta, step, 2 * n_half + 1)

    tau_bar, tau_hat, ext_diag = extremal_solutions(hc, 0.0, 0.0, ibox, step)
    tau_plus = pointwise_max(integrate_through(hc, 0.0, b / 2.0, grid), tau_hat)
    tau_minus = pointwise_min(integrate_through(hc, 0.0, -b / 2.0, grid), tau_bar)

    lower = build_family(hc, tau_minus, tau_bar, params.depth)
    upper = build_family(hc, tau_hat, tau_plus, params.depth)

    raw_xi: list[float] = []
    raw_pts: list[tuple[float, float]] = []
    margins: list[float] = []
    kept_paths: list[PathSample] = []

    def harvest(family: FlowFamily):
        for mu, path in family.members:
            root, vals = monotone_root(F, path, params.root_tol)
            if root is None:
                continue
            d = np.diff(vals)
            margins.append(float(np.min(np.abs(d))) / path.step)
            raw_xi.append(mu)
            raw_pts.append(root)
            kept_paths.append(path)

    harvest(lower)
    n_lower = len(raw_xi)
    harvest(upper)

    if not raw_pts:
        raise NoZeroFound("no family member produced a zero of F")

    # rescale the two mean-intervals to a single [0, 1] parameter
    lo_span = (raw_xi[n_lower - 1] - raw_xi[0]) if n_lower else 0.0
    up_span = (raw_xi[-1] - raw_xi[n_lower]) if n_lower < len(raw_xi) else 0.0
    total = lo_span + up_span
    xi01 = []
    for i, mu in enumerate(raw_xi):
        if total <= 0.0:
            xi01.append(0.0 if len(raw_xi) == 1 else i / (len(raw_xi) - 1))
        elif i < n_lower:
            xi01.append((mu - raw_xi[0]) / total)
        else:
            xi01.append((lo_span + mu - raw_xi[n_lower]) / total)

    # interval collapse: equal consecutive zeros shrink to one sample
    xi_out, pts_out = [], []
    for x, p in zip(xi01, raw_pts):
        if pts_out and math.hypot(p[0] - pts_out[-1][0], p[1] - pts_out[-1][1]) \
                <= COLLAPSE_TOL:
            continue
        xi_out.append(x)
        pts_out.append(p)

    # the inner rectangle certified by the outermost members that have zeros
    lo_env = kept_paths[0] if n_lower else tau_bar
    hi_env = kept_paths[-1] if n_lower < len(raw_xi) else tau_hat
    u_lo = float(np.max(lo_env.values))
    u_hi = float(np.min(hi_env.values))
    if u_lo > u_hi:
        u_lo = u_hi = 0.0
    neighborhood = Rect((-delta, delta), (u_lo, u_hi))

    diagnostics = {
        "monotonicity_margins": margins,
        "raw_xi": raw_xi,
        "raw_zeta": raw_pts,
        "n_lower": n_lower,
        "delta": delta,
        "field_bound": M,
        "extremal": ext_diag,
        "family_gap": max(lower.max_uniform_gap(), upper.max_uniform_gap()),
        "family_monotonicity": max(lower.monotonicity_violation(),
                                   upper.monotonicity_violation()),
        "mean_residual": max(max(lower.mean_residuals(), default=0.0),
                             max(upper.mean_residuals(), default=0.0)),
    }
    return TraceResult(xi=xi_out, zeta=pts_out, neighborhood=neighborhood,
                       band=(lo_env, hi_env), diagnostics=diagnostics)


def coverage_gap(result: TraceResult, F, f_eps: float = 1e-3):
    """Largest distance from a grid zero of F in U and the band to the samples.

    Returns (max_gap, grid_spacing, n_grid_zeros); gaps should stay within a
    couple of grid spacings when the trace covers the zero set.
    """
    (e_lo, e_hi), (t_lo, t_hi) = result.neighborhood.eta, result.neighborhood.tau
    if not result.zeta:
        raise ValueError("empty trace")
    pts = np.array(result.zeta)
    es = np.linspace(e_lo, e_hi, COVERAGE_GRID)
    ts = np.linspace(t_lo, t_hi, COVERAGE_GRID)
    spacing = max((e_hi - e_lo), (t_hi - t_lo)) / (COVERAGE_GRID - 1)
    worst = 0.0
    count = 0
    band_lo, band_hi = result.band
    for e in es:
        for t in ts:
            if not (band_lo.tau_at(float(e)) - 1e-12 <= t
                    <= band_hi.tau_at(float(e)) + 1e-12):
                continue
            if abs(F(float(e), float(t))) >= f_eps:
                continue
            count += 1
            gap = float(np.min(np.hypot(pts[:, 0] - e, pts[:, 1] - t)))
            worst = max(worst, gap)
    return worst, spacing, count
