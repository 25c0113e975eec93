"""Verification suites aggregating the library's formula checks.

Each suite runs deterministic numeric checks on shipped fixtures and returns
plain dicts suitable for a JSON report: name, measured value, tolerance, and
pass/fail.  Tolerances match the test suite; the grids are kept small enough
for an interactive run.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import (
    CharField,
    TaylorBasePoint,
    chain_rule_check,
    chain_rule_rhs,
    characteristic,
    system_residual,
    directional_derivative_check,
)
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
from .hsurface import GraphPatch, PolySurface, SurfaceHandle
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


def _check(name: str, value: float, tolerance: float, larger_is_better=False) -> dict:
    passed = value >= tolerance if larger_is_better else value <= tolerance
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }


def _rand_points(rng, n, scale=10.0):
    return [Point(*row) for row in rng.uniform(-scale, scale, size=(n, 3))]


def _cubic(e, t):
    return 3.0 * abs(t) ** (2.0 / 3.0)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_group(seed: int, grid_n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    xs = _rand_points(rng, 2000)
    ys = _rand_points(rng, 2000)
    zs = _rand_points(rng, 2000)
    assoc = inverse = homog = tri = left = autom = 0.0
    for x, y, z in zip(xs, ys, zs):
        a = mul(mul(x, y), z)
        b = mul(x, mul(y, z))
        assoc = max(assoc, abs(a.x11 - b.x11), abs(a.x12 - b.x12), abs(a.t - b.t))
        e = mul(x, inv(x))
        inverse = max(inverse, abs(e.x11), abs(e.x12), abs(e.t))
        r = 0.1 + 2.0 * abs(y.x11) / 10.0
        homog = max(homog, abs(hnorm(dilate(r, x)) - r * hnorm(x)))
        tri = max(tri, hnorm(mul(x, y)) - hnorm(x) - hnorm(y))
        left = max(left, abs(dist(mul(z, x), mul(z, y)) - dist(x, y)))
        c = mul(dilate(r, x), dilate(r, y))
        d = dilate(r, mul(x, y))
        autom = max(autom, abs(c.x11 - d.x11), abs(c.x12 - d.x12), abs(c.t - d.t))
    proj = 0.0
    embed = 0.0
    for x in xs[:500]:
        th = rng.uniform(0.0, 2.0 * math.pi)
        fr = make_frame((math.cos(th), math.sin(th)))
        back = mul(project_N(x, fr), project_H(x, fr))
        proj = max(proj, abs(back.x11 - x.x11), abs(back.x12 - x.x12), abs(back.t - x.t))
        v = VerticalCoords(x.x11 / 10.0, x.t / 10.0)
        w = coords_N(embed_N(v, fr), fr)
        embed = max(embed, abs(w.eta - v.eta), abs(w.tau - v.tau))
    fields = 0.0
    poly = PolySurface({(2, 1, 0): 0.7, (0, 1, 1): -1.2, (1, 0, 2): 0.4})
    handle = SurfaceHandle.from_polynomial(poly, validate=False)
    for x in xs[:50]:
        q = Point(x.x11 / 10.0, x.x12 / 10.0, x.t / 10.0)
        g1, g2 = handle.grad_h(q)
        fields = max(
            fields,
            abs(g1 - horizontal_derivative(handle.eval, q, (1.0, 0.0), 1e-5)),
            abs(g2 - horizontal_derivative(handle.eval, q, (0.0, 1.0), 1e-5)),
        )
    return [
        _check("associativity", assoc, 1e-12),
        _check("identity_inverse", inverse, 1e-12),
        _check("norm_homogeneity", homog, 1e-12),
        _check("triangle_inequality_excess", max(tri, 0.0), 1e-12),
        _check("distance_left_invariance", left, 1e-10),
        _check("dilation_automorphism", autom, 1e-9),
        _check("projection_roundtrip", proj, 1e-12),
        _check("vertical_coords_roundtrip", embed, 1e-12),
        _check("symbolic_vs_fd_gradient", fields, 1e-6),
    ]


def _patches():
    flat = GraphPatch(make_frame((0.0, 1.0)),
                      SurfaceHandle.from_polynomial(POLY_X12, validate=False))
    affine = GraphPatch(make_frame((1.0, 0.0)),
                        SurfaceHandle.from_polynomial(POLY_AFFINE, validate=False))
    return flat, affine


def suite_graph(seed: int, grid_n: int) -> list[dict]:
    flat, affine = _patches()
    res = closed = 0.0
    for eta in np.linspace(-0.5, 0.5, 50):
        for tau in np.linspace(-0.5, 0.5, 50):
            n = VerticalCoords(float(eta), float(tau))
            for patch, exact in ((flat, 0.0), (affine, -tau / (1.0 - eta))):
                s = patch.solve_scalar(n)
                res = max(res, abs(patch.f2.eval(patch.line_point(n, s))))
                closed = max(closed, abs(s - exact))
    section = 0.0
    for eta in np.linspace(-0.4, 0.4, 9):
        n = VerticalCoords(float(eta), float(eta) / 2.0)
        q = affine.graph_point(n)
        back = coords_N(project_N(q, affine.frame), affine.frame)
        section = max(section, abs(back.eta - n.eta), abs(back.tau - n.tau))
    errs = []
    handle = SurfaceHandle.from_polynomial(
        PolySurface({(3, 0, 0): 1.0, (0, 2, 1): -1.0}), validate=False)
    x = Point(0.4, -0.3, 0.2)
    g1 = handle.grad_h(x)[0]
    for h in (1e-2, 5e-3, 2.5e-3):
        errs.append(abs(horizontal_derivative(handle.eval, x, (1.0, 0.0), h) - g1))
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    return [
        _check("graph_level_residual", res, 1e-10),
        _check("graph_closed_forms", closed, 1e-10),
        _check("graph_section_property", section, 1e-10),
        _check("gradient_fd_order", order, 1.9, larger_is_better=True),
    ]


def suite_characteristics(seed: int, grid_n: int) -> list[dict]:
    _, affine = _patches()
    cf = CharField(affine)
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    errs_by_step = []
    steps = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    for step in steps:
        worst = 0.0
        for tau0 in (-0.3, -0.1, 0.1, 0.3):
            p = characteristic(cf, tau0, window=window, step=step)
            worst = max(worst, float(np.max(np.abs(
                p.values - tau0 * (1.0 - p.etas) ** 2))))
        errs_by_step.append(worst)
    order = min(
        math.log2(errs_by_step[i] / errs_by_step[i + 1])
        for i in range(len(steps) - 1)
    )
    step = 1e-3
    daf = 0.0
    for tau0 in (-0.3, 0.25):
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


def suite_calculus(seed: int, grid_n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    _, affine = _patches()
    cf = CharField(affine)
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    f1 = SurfaceHandle.from_polynomial(POLY_X12, validate=False)
    path = characteristic(cf, 0.2, window=window, step=1e-3)
    rep = chain_rule_check(f1, cf, path, h_sweep=(1e-2, 1e-3, 1e-4))
    exact = max(abs(chain_rule_rhs(f1, cf, eta, path) - 1.0) for eta in (0.1, 0.3))
    rand_poly = PolySurface({
        (0, 1, 0): 1.0,
        (2, 0, 0): float(rng.uniform(0.2, 0.6)),
        (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
        (1, 1, 0): float(rng.uniform(0.1, 0.4)),
    })
    rep_rand = chain_rule_check(SurfaceHandle.from_polynomial(rand_poly, validate=False),
                                cf, path, h_sweep=(1e-2, 5e-3, 2.5e-3))
    base = TaylorBasePoint.from_patch(affine, VerticalCoords(0.0, 0.0))
    quad = SurfaceHandle.from_polynomial(
        PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0}), validate=False)
    from .characteristics import taylor_remainder

    ratios = []
    for k in range(2, 9):
        r = 2.0**-k
        worst = 0.0
        for u in np.linspace(-1.0, 1.0, 21):
            for eta, tau in ((r, u * r * r), (-r, u * r * r),
                             (u * r, r * r), (u * r, -r * r)):
                rem, scale = taylor_remainder(quad, cf, base,
                                              VerticalCoords(eta, tau))
                worst = max(worst, abs(rem) / scale)
        ratios.append(worst)
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


def suite_flow(seed: int, grid_n: int) -> list[dict]:
    lo, hi, _ = extremal_solutions(_cubic, 0.0, 0.0, Rect((0.0, 0.5)), 1e-3)
    i = lo.index_of(0.5)
    ext_err = max(abs(lo.values[i]), abs(hi.values[i] - 0.125))
    grid = (-0.5, 0.01, 101)
    fam_lo = integrate_through(lambda e, t: -t, 0.0, -1.0, grid)
    fam_hi = integrate_through(lambda e, t: -t, 0.0, 1.0, grid)
    fam = build_family(lambda e, t: -t, fam_lo, fam_hi, depth=4)
    res = level_trace(_cubic, lambda e, t: e, Rect.centered(0.5, 1.0),
                      TraceParams(depth=6))
    gap, spacing, nzeros = coverage_gap(res, lambda e, t: e,
                                        f_eps=2 * (res.neighborhood.eta[1]
                                                   - res.neighborhood.eta[0]) / 40)
    return [
        _check("extremal_cubic_error", ext_err, 1e-3),
        _check("family_monotonicity", fam.monotonicity_violation(), 1e-9),
        _check("family_mean_residual", max(fam.mean_residuals()), 1e-6),
        _check("funnel_coverage_gap", gap, 2.0 * spacing),
        _check("funnel_zero_count", float(nzeros), 1.0, larger_is_better=True),
    ]


def suite_intersect(seed: int, grid_n: int) -> list[dict]:
    f_x11 = SurfaceHandle.from_polynomial(POLY_X11, validate=False)
    f_x12 = SurfaceHandle.from_polynomial(POLY_X12, validate=False)
    f_affine = SurfaceHandle.from_polynomial(POLY_AFFINE, validate=False)
    box = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))
    spacing = 0.4 / (grid_n - 1)
    checks = []
    curves = {}
    for tag, pair, line_dist in (
        ("A", (f_x11, f_x12),
         lambda q: math.hypot(q.x11, q.x12)),
        ("B", (f_x12, f_affine),
         lambda q: dist(q, Point(-q.t / (1.0 - q.x12), 0.0, q.t / (1.0 - q.x12)))),
    ):
        curve = intersect_surfaces(IntersectionProblem(*pair))
        curves[tag] = (curve, pair)
        tol = 1e-8 if tag == "A" else 1e-6
        checks.append(_check(f"curve_{tag}_reference_distance",
                             max(line_dist(q) for q in curve.points), tol))
        checks.append(_check(f"curve_{tag}_residuals",
                             max(curve.meta["residual_f1"],
                                 curve.meta["residual_f2"]), 1e-8))
        cloud = brute_force_zero_cloud(*pair, box, grid_n=grid_n)
        checks.append(_check(f"curve_{tag}_cloud_agreement",
                             curve_cloud_agreement(curve.points, cloud, box),
                             2.0 * spacing + 1e-12))
        sep = min(dist(a, b) for a, b in zip(curve.points, curve.points[1:]))
        checks.append(_check(f"curve_{tag}_injectivity", sep, 1e-12,
                             larger_is_better=True))
    worst_violations = 0
    for tag, (curve, pair) in curves.items():
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


def run_suites(suite: str | None = None, seed: int = 0, grid_n: int = 41) -> dict:
    """Run one named suite or all of them; returns a JSON-ready report."""
    if suite is not None and suite not in SUITES:
        from .errors import ConfigError

        raise ConfigError(f"suite: unknown suite {suite!r}; have {sorted(SUITES)}")
    names = [suite] if suite else list(SUITES)
    report = {"suites": {}, "seed": seed, "grid_n": grid_n}
    for name in names:
        checks = SUITES[name](seed, grid_n)
        report["suites"][name] = {
            "checks": checks,
            "passed": all(c["passed"] for c in checks),
        }
    report["passed"] = all(s["passed"] for s in report["suites"].values())
    return report
