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
    NotCommonZero,
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
    "pointwise_max",
    "pointwise_min",
    "funnel_section",
    "extremal_solutions",
    "build_family",
    "monotone_root",
    "level_trace",
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
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be finite and positive, got {self.step!r}")
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("values must be a nonempty 1-d array")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def etas(self) -> np.ndarray:
        return self.eta0 + self.step * np.arange(len(self.values))

    def tau_at(self, eta: float) -> float:
        """Piecewise-linear interpolation; eta may exceed the grid by a hair."""
        u = (eta - self.eta0) / self.step
        if u < -1e-9 or u > len(self.values) - 1 + 1e-9:
            raise ValueError(f"eta = {eta!r} outside the sampled range")
        if len(self.values) == 1:
            return float(self.values[0])
        i = min(max(int(math.floor(u)), 0), len(self.values) - 2)
        w = u - i
        return float((1.0 - w) * self.values[i] + w * self.values[i + 1])

    def same_grid(self, other: "PathSample") -> bool:
        return (len(self.values) == len(other.values)
                and abs(self.eta0 - other.eta0) <= 1e-9 * max(1.0, abs(self.eta0))
                and abs(self.step - other.step) <= 1e-12 * self.step)

    def integral(self) -> float:
        """Trapezoid integral of tau over the covered eta-interval."""
        return float(np.trapezoid(self.values, dx=self.step))


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
    A field clamped by _clamped is clamped here, inline (any other field has
    the whole plane as its box), and a field with a march method
    (characteristics.CharField) marches itself.
    """
    if not isinstance(h, _Clamped):
        h = _Clamped(h, Rect((-math.inf, math.inf)))
    if hasattr(h.field, "march"):
        return h.field.march(h.box, eta_a, tau_a, direction, n_steps, step, tau_lo, tau_hi)
    h, (emin, emax), (tmin, tmax) = h.field, h.box.eta, h.box.tau
    dt = direction * step
    vals = [tau_a]
    eta, tau = eta_a, tau_a
    for j in range(1, n_steps + 1):
        # node etas from the anchor, so rounding does not drift along the march
        eta_next = eta_a + j * dt
        # each evaluation as _Clamped.__call__ makes it
        if emin <= eta <= emax and tmin <= tau <= tmax:
            k1 = h(eta, tau)
        else:
            k1 = h(min(max(eta, emin), emax), min(max(tau, tmin), tmax))
        tau_p = tau + dt * k1
        if emin <= eta_next <= emax and tmin <= tau_p <= tmax:
            k2 = h(eta_next, tau_p)
        else:
            k2 = h(min(max(eta_next, emin), emax), min(max(tau_p, tmin), tmax))
        tau_next = tau + 0.5 * dt * (k1 + k2)
        if not (tau_lo <= tau_next <= tau_hi) or not math.isfinite(tau_next):
            break
        eta, tau = eta_next, tau_next
        vals.append(tau)
    return np.array(vals)


def _march_both(h_fwd, h_back, eta_a: float, tau_a: float, k: int, n: int,
                step: float, tau_lo: float, tau_hi: float) -> np.ndarray:
    """Heun values on an n-node grid from the anchor (eta_a, tau_a) at node k.

    h_fwd is marched forward first, then h_back backward; a trajectory that
    leaves [tau_lo, tau_hi] before covering the grid raises WindowExit.
    """
    right = _heun_march(h_fwd, eta_a, tau_a, 1, n - 1 - k, step, tau_lo, tau_hi)
    left = _heun_march(h_back, eta_a, tau_a, -1, k, step, tau_lo, tau_hi)
    if len(right) != n - k or len(left) != k + 1:
        raise WindowExit("trajectory leaves the tau-range before covering the grid")
    return np.concatenate([left[::-1], right[1:]])


def integrate_through(h, eta_c: float, tau_c: float, grid: tuple[float, float, int],
                      tau_range=(-math.inf, math.inf)) -> PathSample:
    """Solution through (eta_c, tau_c) sampled on a prescribed uniform grid.

    grid is (eta0, step, n); eta_c must be one of its nodes.  Both directions
    are marched from the anchor (_heun_march, where a CharField marches
    itself); a trajectory that cannot cover the whole grid raises
    WindowExit.
    """
    eta0, step, n = grid
    k = round((eta_c - eta0) / step)
    if not (0 <= k < n) or abs(eta0 + k * step - eta_c) > 1e-9:
        raise ValueError(f"anchor eta = {eta_c!r} is not a node of the grid")
    return PathSample(eta0, step, _march_both(h, h, eta_c, tau_c, k, n, step, *tau_range))


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


def extremal_solutions(h, eta_a: float, tau_a: float, window: Rect, step: float,
                       tau_lipschitz: float | None = None):
    """Approximate minimal and maximal solutions through (eta_a, tau_a).

    tau_lipschitz states a property of h, not a tuning option: a bound on
    |dh/dtau| over the window, or None when there is none.  A finite bound
    makes the solution through each point unique (Picard-Lindelof), so the
    minimal and maximal solutions are both the natural march through the
    anchor, returned as two copies, with empty eps lists and converged True
    in the diagnostics.

    Otherwise, for each eps the data and the field are shifted by -eps
    (minimal side) or +eps (maximal side); the shifted problems bound the
    extremal solutions from below/above and converge to them as eps -> 0.
    Marching against the eta direction flips the field shift so that the
    bound keeps its side.  Each side returns the path of its smallest kept
    eps, clipped to the natural march; the convergence gaps between
    successive kept paths are reported in the returned diagnostics dict.
    diagnostics["tau_lipschitz"] is the finite bound used, or None.
    """
    grid = _anchored_grid(eta_a, window, step)
    eta0, step_g, n = grid
    k = round((eta_a - eta0) / step_g)
    natural = integrate_through(h, eta_a, tau_a, grid, window.tau).values
    unique = tau_lipschitz is not None and math.isfinite(tau_lipschitz)
    diagnostics = {"eps": () if unique else EPS_SEQUENCE, "gap_min": [], "gap_max": [],
                   "dropped_min": [], "dropped_max": [], "converged": True,
                   "tau_lipschitz": float(tau_lipschitz) if unique else None}
    if unique:
        return (PathSample(eta0, step_g, natural), PathSample(eta0, step_g, natural.copy()),
                diagnostics)

    # A shifted path that crosses the natural trajectory on the wrong side has
    # gone unstable (the shift is too small for the step near a degenerate
    # zero of the field); such eps values are dropped.
    wrong_side_tol = 1e-3 * (1.0 + float(np.max(np.abs(natural))))
    kept = {"min": [], "max": []}
    # min then max per eps: a graph field's warm start follows the march order
    for eps in EPS_SEQUENCE:
        for side, sign in (("min", -1.0), ("max", 1.0)):
            path = _march_both(lambda e, t: h(e, t) + sign * eps,
                               lambda e, t: h(e, t) - sign * eps,
                               eta_a, tau_a + sign * eps, k, n, step_g, *window.tau)
            if float(np.max(-sign * (path - natural))) > wrong_side_tol + eps:
                diagnostics[f"dropped_{side}"].append(eps)
                continue
            if kept[side]:
                diagnostics[f"gap_{side}"].append(float(np.max(np.abs(path - kept[side][-1]))))
            kept[side].append(path)
    lo = np.minimum(kept["min"][-1], natural) if kept["min"] else natural.copy()
    hi = np.maximum(kept["max"][-1], natural) if kept["max"] else natural.copy()
    gaps = diagnostics["gap_min"] + diagnostics["gap_max"]
    diagnostics["converged"] = bool(
        (not gaps or gaps[-1] <= max(gaps[0], 1e-12))
        and not diagnostics["dropped_min"] and not diagnostics["dropped_max"]
    )
    return PathSample(eta0, step_g, lo), PathSample(eta0, step_g, hi), diagnostics


# ---------------------------------------------------------------------------
# Monotone one-parameter families
# ---------------------------------------------------------------------------

@dataclass
class FlowFamily:
    """Solutions ordered pointwise and parametrized by their integral.

    targets[i] is the integral members[i] was built to realize: the midpoint
    of its bracket's means, or for an endpoint its own mean.
    """

    members: list[tuple[float, PathSample]]
    targets: list[float]

    def _steps(self) -> np.ndarray:
        """Differences between consecutive members, one row per pair."""
        return np.diff([p.values for _, p in self.members], axis=0)

    def monotonicity_violation(self) -> float:
        """Max pointwise drop between consecutive members (should be ~0)."""
        return float(np.max(-self._steps(), initial=0.0))

    def mean_residuals(self) -> list[float]:
        """How far each member's integral misses its target."""
        return [abs(p.integral() - mu_t) for (_, p), mu_t in zip(self.members, self.targets)]

    def max_uniform_gap(self) -> float:
        """Largest uniform distance between adjacent members (continuity proxy)."""
        return float(np.max(np.abs(self._steps()), initial=0.0))


@dataclass(frozen=True)
class _Clamped:
    """The field continued past box by clamping (eta, tau) into it (_clamped)."""

    field: object
    box: Rect

    def __call__(self, eta, tau):
        (emin, emax), (tmin, tmax) = self.box.eta, self.box.tau
        if emin <= eta <= emax and tmin <= tau <= tmax:  # min/max would pass it as is
            return self.field(eta, tau)
        return self.field(min(max(eta, emin), emax), min(max(tau, tmin), tmax))


def _clamped(h, box: Rect) -> _Clamped:
    """h continued past box by clamping (eta, tau) into it; the only such extension.

    The result carries h and box: _heun_march unwraps it and clamps inline,
    with the same comparisons, so a march hands h the bits a call would.
    """
    return _Clamped(h, box)


def _find_member_with_mean(h, lo: PathSample, hi: PathSample, mu_t: float,
                           paths: dict) -> PathSample:
    """A solution between lo and hi whose integral is mu_t within MEAN_TOL.

    Candidates are spliced solutions through anchor points between the
    envelopes; the vertical position at a fixed anchor is bisected on the
    candidate's integral, which varies continuously with the anchor value.
    paths maps (anchor node, anchor value) to raw solutions of h on this
    grid, and a candidate through such a point reuses its solution.  The
    bracket-end candidates and the accepted one are added to it: the two
    halves of this bracket start from the same points.
    """
    grid = (lo.eta0, lo.step, len(lo))

    def candidate(k: int, s: float):
        key = (k, float((1.0 - s) * lo.values[k] + s * hi.values[k]))
        raw = paths.get(key)
        if raw is None:
            raw = integrate_through(h, lo.eta0 + k * lo.step, key[1], grid)
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


def build_family(h, tau_minus: PathSample, tau_plus: PathSample, depth: int,
                 paths: dict | None = None) -> FlowFamily:
    """Dyadic family of 2**depth + 1 ordered solutions from tau_minus to tau_plus.

    Each new member realizes the midpoint of its bracket's integral range and
    is spliced between the bracket members, so pointwise ordering holds by
    construction; endpoints are the supplied paths, unchanged.  Every bracket
    integrates the field h as given (level_trace passes its clamped field),
    so a raw solution kept by its anchor point stays valid for the whole
    call: each member's path, and each endpoint's candidate, is integrated
    once.  paths holds those raw solutions, keyed by anchor point
    (_find_member_with_mean); a new dict by default.  Families of the same
    h on the same grid may share one, as level_trace's two families do.
    """
    _require_same_grid(tau_minus, tau_plus)
    if np.any(tau_minus.values > tau_plus.values + 1e-12):
        raise OrderingViolation("build_family requires tau_minus <= tau_plus pointwise")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mu_minus = tau_minus.integral()
    mu_plus = tau_plus.integral()
    paths = {} if paths is None else paths
    family = FlowFamily([(mu_minus, tau_minus)], [mu_minus])

    def fill(lo, mu_lo, hi, mu_hi, d):
        # in order: the lower half's members, this bracket's, the upper half's
        if d == 0:
            return
        mu_t = 0.5 * (mu_lo + mu_hi)
        if mu_hi - mu_lo <= 2.0 * MEAN_TOL:
            mid = funnel_section(lo, hi, lo)
        else:
            mid = _find_member_with_mean(h, lo, hi, mu_t, paths)
        mu_mid = mid.integral()
        fill(lo, mu_lo, mid, mu_mid, d - 1)
        family.members.append((mu_mid, mid))
        family.targets.append(mu_t)
        fill(mid, mu_mid, hi, mu_hi, d - 1)

    fill(tau_minus, mu_minus, tau_plus, mu_plus, depth)
    family.members.append((mu_plus, tau_plus))
    family.targets.append(mu_plus)
    return family


# ---------------------------------------------------------------------------
# Roots along paths and the zero-set trace
# ---------------------------------------------------------------------------

def _bisect_sign_change(g, lo, hi, g_lo, tol, width) -> float:
    """Root of g on [lo, hi] by bisection, where g(lo) = g_lo and g(hi) differ in sign.

    Keeps the half with the sign change.  Returns the midpoint once |g| <= tol
    there or the bracket is narrower than width, else after 200 halvings.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= tol or hi - lo < width:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def monotone_root(F, path: PathSample, root_tol: float = 1e-10):
    """The unique zero of eta -> F(eta, tau(eta)) along the path, with F's samples.

    F must accept floats and broadcasting float64 arrays.  It is called once
    on the node arrays (path.etas, path.values), then on floats at each
    bisection point.  The sampled values must be strictly monotone (up to
    rounding); mixed increment signs raise MonotonicityViolated.  Returns
    (root, values): root is (eta, tau), or None when F keeps one sign over
    the whole path, and values holds F at the path's nodes.
    """
    nodes = path.etas
    vals = np.array(np.broadcast_to(F(nodes, path.values), nodes.shape), dtype=float)
    etas = nodes.tolist()
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
        return (etas[i], float(path.values[i])), vals
    cross = np.nonzero((g[:-1] < 0.0) & (g[1:] > 0.0))[0]
    if not len(cross):
        return None, vals
    i = int(cross[0])
    m = _bisect_sign_change(lambda e: sign * F(e, path.tau_at(e)), etas[i], etas[i + 1],
                            g[i], root_tol, 1e-14)
    return (m, path.tau_at(m)), vals


@dataclass
class TraceParams:
    """Numeric knobs for level_trace; a value out of range raises ValueError."""

    step: float = 1e-3
    depth: int = 6
    root_tol: float = 1e-10

    def __post_init__(self):
        for name in ("step", "root_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)!r}")
        if not (isinstance(self.depth, int) and self.depth >= 0):
            raise ValueError(f"depth must be an integer >= 0, got {self.depth!r}")


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


def level_trace(h, F, window: Rect, params: TraceParams | None = None,
                tau_lipschitz: float | None = None) -> TraceResult:
    """Trace the zero set of F near the origin along a monotone flow of h.

    F must vanish at the origin (NotCommonZero beyond max(root_tol, 1e-10))
    and be strictly monotone along every solution of dtau/deta = h.  h and F
    are called on floats and on broadcasting float64 arrays: h once, on the
    SAMPLE_GRID x SAMPLE_GRID grid of the field bound (ValueError if it is
    not finite), and F once per member on its node arrays (monotone_root).
    The construction integrates the extremal solutions through the origin,
    flanks them by solutions through (0, +-b/2), fills both gaps with
    integral-parametrized families, takes the unique zero of F along each
    member, and collapses parameter intervals on which the zero stalls, so
    consecutive samples are distinct.  tau_lipschitz is a bound on |dh/dtau|
    over the window, or None; a finite one makes the extremal solutions the
    one march through the origin (extremal_solutions).  h is clamped into
    the window (_clamped); a CharField h therefore marches itself
    (CharField.march), one kernel call per field evaluation.
    """
    params = params or TraceParams()
    f0 = F(0.0, 0.0)
    if not abs(f0) <= max(params.root_tol, 1e-10):  # NaN fails too
        raise NotCommonZero(f"F(0,0) = {f0!r}: the trace must start at a zero")
    a = min(-window.eta[0], window.eta[1])
    b = min(-window.tau[0], window.tau[1])
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("window must be a finite rectangle around the origin")

    # field bound, one call on the sample grid, and delta = min(a, b / (2 M))
    M = float(np.max(np.abs(h(*np.meshgrid(np.linspace(-a, a, SAMPLE_GRID),
                                            np.linspace(-b, b, SAMPLE_GRID),
                                            indexing="ij")))))
    if not math.isfinite(M):
        raise ValueError(f"the field bound on the window is not finite: M = {M!r}")
    delta = a if M * 2.0 * a <= b else b / (2.0 * M)
    n_half = max(1, min(int(math.ceil(delta / params.step - 1e-9)), MAX_NODES // 2))
    step = delta / n_half
    hc = _clamped(h, Rect.centered(a, b))
    # the clamped field is bounded, so trajectories stay tame without a tau cap
    ibox = Rect((-delta, delta))
    grid = (-delta, step, 2 * n_half + 1)

    tau_bar, tau_hat, ext_diag = extremal_solutions(hc, 0.0, 0.0, ibox, step, tau_lipschitz)
    tau_plus = pointwise_max(integrate_through(hc, 0.0, b / 2.0, grid), tau_hat)
    tau_minus = pointwise_min(integrate_through(hc, 0.0, -b / 2.0, grid), tau_bar)

    # one dict of raw solutions: with a finite tau_lipschitz, tau_hat is
    # tau_bar, so the upper family's first candidate is the lower's last
    paths: dict = {}
    lower = build_family(hc, tau_minus, tau_bar, params.depth, paths)
    upper = build_family(hc, tau_hat, tau_plus, params.depth, paths)

    def harvest(family: FlowFamily) -> list[tuple[float, tuple, float, PathSample]]:
        """(mean, zero, monotonicity margin, path) of each member with a zero."""
        kept = []
        for mu, path in family.members:
            root, vals = monotone_root(F, path, params.root_tol)
            if root is not None:
                kept.append((mu, root, float(np.min(np.abs(np.diff(vals)))) / path.step, path))
        return kept

    low, up = harvest(lower), harvest(upper)
    if not (low or up):
        raise NoZeroFound("no family member produced a zero of F")
    raw_xi, raw_pts, margins, _ = (list(c) for c in zip(*low, *up))

    # rescale the two mean-intervals to a single [0, 1] parameter
    lo_span = low[-1][0] - low[0][0] if low else 0.0
    up_span = up[-1][0] - up[0][0] if up else 0.0
    total = lo_span + up_span
    if total <= 0.0:
        xi01 = [0.0 if len(raw_xi) == 1 else i / (len(raw_xi) - 1) for i in range(len(raw_xi))]
    else:
        xi01 = ([(mu - low[0][0]) / total for mu, *_ in low]
                + [(lo_span + mu - up[0][0]) / total for mu, *_ in up])

    # interval collapse: equal consecutive zeros shrink to one sample
    xi_out, pts_out = [], []
    for x, p in zip(xi01, raw_pts):
        if pts_out and math.hypot(p[0] - pts_out[-1][0], p[1] - pts_out[-1][1]) \
                <= COLLAPSE_TOL:
            continue
        xi_out.append(x)
        pts_out.append(p)

    # the inner rectangle certified by the outermost members that have zeros
    lo_env = low[0][3] if low else tau_bar
    hi_env = up[-1][3] if up else tau_hat
    u_lo = float(np.max(lo_env.values))
    u_hi = float(np.min(hi_env.values))
    if u_lo > u_hi:
        u_lo = u_hi = 0.0
    neighborhood = Rect((-delta, delta), (u_lo, u_hi))

    diagnostics = {
        "monotonicity_margins": margins,
        "raw_xi": raw_xi,
        "raw_zeta": raw_pts,
        "n_lower": len(low),
        "delta": delta,
        "field_bound": M,
        "extremal": ext_diag,
        "family_gap": max(lower.max_uniform_gap(), upper.max_uniform_gap()),
        "family_monotonicity": max(lower.monotonicity_violation(),
                                   upper.monotonicity_violation()),
        "mean_residual": max(lower.mean_residuals() + upper.mean_residuals()),
    }
    return TraceResult(xi=xi_out, zeta=pts_out, neighborhood=neighborhood,
                       band=(lo_env, hi_env), diagnostics=diagnostics)
