"""The acceptance criteria of the construction, each computed once.

Each suite runs deterministic numeric checks and returns plain dicts
suitable for a JSON report: name, measured value, tolerance, and
pass/fail.  A suite takes one `Scale`, which fixes its seed, its oracle grid
and its input counts; the tolerances do not depend on it.  `heisencurve
verify` runs the suites at `INTERACTIVE` with the caller's seed and grid,
and tests/test_acceptance.py asserts on the same checks at a larger
acceptance scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import (
    CharField,
    TaylorBasePoint,
    chain_rule_check,
    chain_rule_rhs,
    characteristic,
    directional_derivative_check,
    system_residual,
    taylor_remainder,
)
from .errors import ConfigError
from .flowtrace import (
    PathSample,
    Rect,
    TraceParams,
    build_family,
    coverage_gap,
    extremal_solutions,
    integrate_through,
    level_trace,
)
from .hgroup import (
    ORIGIN,
    Point,
    VerticalCoords,
    coords_N,
    dilate,
    dist,
    embed_N,
    hnorm,
    horizontal_derivative,
    inv,
    make_frame,
    mul,
    project_H,
    project_N,
)
from .hsurface import GraphPatch, PolySurface
from .intersect import (
    ConeParams,
    IntersectionProblem,
    brute_force_zero_cloud,
    cone_property_check,
    cone_width_for,
    curve_cloud_agreement,
    gradient_margin,
    intersect_surfaces,
    pair_lipschitz_bound,
)

POLY_X11 = PolySurface({(1, 0, 0): 1.0})
POLY_X12 = PolySurface({(0, 1, 0): 1.0})
POLY_AFFINE = PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0})


@dataclass(frozen=True)
class Scale:
    """The seed, the oracle grid and the input counts of one run of the suites."""

    seed: int
    grid_n: int                       # zero-cloud oracle points per axis
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
    d = (abs(a.x11 - b.x11), abs(a.x12 - b.x12), abs(a.t - b.t))
    return float(np.max(d, initial=0.0)) if isinstance(d[0], np.ndarray) else max(d)


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
    proj = embed = 0.0
    for x in (Point(*row) for row in rows[0][:scale.projection_samples]):
        th = rng.uniform(0.0, 2.0 * math.pi)
        fr = make_frame((math.cos(th), math.sin(th)))
        proj = max(proj, _gap(mul(project_N(x, fr), project_H(x, fr)), x))
        v = VerticalCoords(x.x11 / 10.0, x.t / 10.0)
        w = coords_N(embed_N(v, fr), fr)
        embed = max(embed, abs(w.eta - v.eta), abs(w.tau - v.tau))
    fields = 0.0
    poly = PolySurface({(2, 1, 0): 0.7, (0, 1, 1): -1.2, (1, 0, 2): 0.4})
    for q in (Point(*(row / 10.0)) for row in rows[0][:50]):
        g1, g2 = poly.grad_at(q.x11, q.x12, q.t)
        fields = max(
            fields,
            abs(g1 - horizontal_derivative(poly, q, (1.0, 0.0), 1e-5)),
            abs(g2 - horizontal_derivative(poly, q, (0.0, 1.0), 1e-5)),
        )
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


def _patches():
    flat = GraphPatch(make_frame((0.0, 1.0)), POLY_X12)
    affine = GraphPatch(make_frame((1.0, 0.0)), POLY_AFFINE)
    return flat, affine


def suite_graph(scale: Scale) -> list[dict]:
    flat, affine = _patches()
    grid = np.linspace(-0.5, 0.5, 50)
    eta, tau = np.meshgrid(grid, grid, indexing="ij")
    res = closed = 0.0
    for patch, exact in ((flat, 0.0), (affine, -tau / (1.0 - eta))):
        s = patch.solve_many(eta, tau)
        res = max(res, float(np.max(np.abs(patch.f2.value_at(*patch.line_coords(eta, tau, s))))))
        closed = max(closed, float(np.max(np.abs(s - exact))))
    section = 0.0
    etas = np.linspace(-0.4, 0.4, 9)
    coords = affine.line_coords(etas, etas / 2.0, affine.solve_many(etas, etas / 2.0))
    for eta, *q in zip(etas.tolist(), *(c.tolist() for c in coords)):
        back = coords_N(project_N(Point(*q), affine.frame), affine.frame)
        section = max(section, abs(back.eta - eta), abs(back.tau - eta / 2.0))
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
    _, affine = _patches()
    cf = CharField(affine)
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
    _, affine = _patches()
    cf = CharField(affine)
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    path = characteristic(cf, 0.2, window=window, step=1e-3)
    rep = chain_rule_check(POLY_X12, cf, path, h_sweep=(1e-2, 1e-3, 1e-4))
    exact = max(abs(chain_rule_rhs(POLY_X12, cf, eta, path) - 1.0) for eta in (0.1, 0.3))
    rand_poly = PolySurface({
        (0, 1, 0): 1.0,
        (2, 0, 0): float(rng.uniform(0.2, 0.6)),
        (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
        (1, 1, 0): float(rng.uniform(0.1, 0.4)),
    })
    rep_rand = chain_rule_check(rand_poly, cf, path, h_sweep=(1e-2, 5e-3, 2.5e-3))
    base = TaylorBasePoint.from_patch(affine, VerticalCoords(0.0, 0.0))
    quad = PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0})
    u = np.linspace(-1.0, 1.0, scale.taylor_n)
    ratios = []
    for k in range(2, 9):
        r = 2.0**-k
        # the four sides of the box max(|eta|, sqrt|tau|) = r
        ends, sides = np.full_like(u, r), u * r
        rem, size = taylor_remainder(quad, cf, base,
                                     np.concatenate([ends, -ends, sides, sides]),
                                     np.concatenate([sides * r, sides * r, ends * r, -ends * r]))
        ratios.append(float(np.max(np.abs(rem) / size)))
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    shifted = TaylorBasePoint.from_patch(affine, VerticalCoords(0.0, 0.2))
    rep_dir = directional_derivative_check(quad, cf, shifted,
                                           h_sweep=(1e-2, 1e-3, 1e-4))
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
    i = lo.index_of(0.5)
    ext_err = max(abs(lo.values[i]), abs(hi.values[i] - 0.125))
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
    for tag, pair, line_dist in (
        ("A", (POLY_X11, POLY_X12),
         lambda q: math.hypot(q.x11, q.x12)),
        ("B", (POLY_X12, POLY_AFFINE),
         lambda q: dist(q, Point(-q.t / (1.0 - q.x12), 0.0, q.t / (1.0 - q.x12)))),
    ):
        curve = intersect_surfaces(IntersectionProblem(*pair))
        tol = 1e-8 if tag == "A" else 1e-6
        checks.append(_check(f"curve_{tag}_reference_distance",
                             max(line_dist(q) for q in curve.points), tol))
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
        sep = min(dist(a, b) for a, b in zip(curve.points, curve.points[1:]))
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
