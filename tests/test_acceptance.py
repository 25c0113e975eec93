"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

Tolerances are pinned here; run with -s to see the lines.  The verification
suites behind `heisencurve verify` (heisencurve.verify) run smaller versions
of the same criteria with the same tolerances.
"""

import math

import numpy as np
import pytest
from conftest import POLY_X11, POLY_X11_PLUS_T, POLY_X12, make_affine_patch

from heisencurve.characteristics import (
    CharField,
    TaylorBasePoint,
    chain_rule_check,
    characteristic,
    system_residual,
    taylor_remainder,
)
from heisencurve.flowtrace import (
    PathSample,
    Rect,
    TraceParams,
    build_family,
    coverage_gap,
    extremal_solutions,
    level_trace,
)
from heisencurve.hgroup import (
    Point,
    VerticalCoords,
    dilate,
    dist,
    hnorm,
    inv,
    make_frame,
    mul,
    project_H,
    project_N,
)
from heisencurve.hsurface import GraphPatch, PolySurface, SurfaceHandle
from heisencurve.intersect import (
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

F_X11 = SurfaceHandle.from_polynomial(POLY_X11)
F_X12 = SurfaceHandle.from_polynomial(POLY_X12)
F_AFFINE = SurfaceHandle.from_polynomial(POLY_X11_PLUS_T)

ORACLE_BOX = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))
ORACLE_GRID = 201
ORACLE_SPACING = 0.4 / (ORACLE_GRID - 1)


def report(num, name, passed, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def cubic_field(e, t):
    return 3.0 * abs(t) ** (2.0 / 3.0)


@pytest.fixture(scope="module")
def curve_a():
    return intersect_surfaces(IntersectionProblem(F_X11, F_X12))


@pytest.fixture(scope="module")
def curve_b():
    return intersect_surfaces(IntersectionProblem(F_X12, F_AFFINE))


@pytest.fixture(scope="module")
def funnel_trace():
    return level_trace(cubic_field, lambda e, t: e, Rect.centered(0.5, 1.0),
                       TraceParams(depth=6))


def test_criterion_01_group_algebra():
    rng = np.random.default_rng(2026)
    n = 10_000
    xs = rng.uniform(-10, 10, size=(n, 3))
    ys = rng.uniform(-10, 10, size=(n, 3))
    zs = rng.uniform(-10, 10, size=(n, 3))
    rs = rng.uniform(0.1, 3.0, size=n)
    worst_alg = 0.0
    worst_d = 0.0
    for i in range(n):
        x, y, z = Point(*xs[i]), Point(*ys[i]), Point(*zs[i])
        a = mul(mul(x, y), z)
        b = mul(x, mul(y, z))
        worst_alg = max(worst_alg, abs(a.x11 - b.x11), abs(a.x12 - b.x12),
                        abs(a.t - b.t))
        e = mul(x, inv(x))
        worst_alg = max(worst_alg, abs(e.x11), abs(e.x12), abs(e.t))
        worst_alg = max(worst_alg, abs(hnorm(dilate(rs[i], x)) - rs[i] * hnorm(x)))
        worst_alg = max(worst_alg, hnorm(mul(x, y)) - hnorm(x) - hnorm(y))
        worst_d = max(worst_d, abs(dist(mul(z, x), mul(z, y)) - dist(x, y)))
    passed = worst_alg <= 1e-12 and worst_d <= 1e-10
    report(1, "group-algebra", passed,
           f"alg residual {worst_alg:.2e} <= 1e-12, d residual {worst_d:.2e} <= 1e-10")


def test_criterion_02_projections():
    fr0 = make_frame((1.0, 0.0))
    x = Point(1.0, 2.0, 3.0)
    ok_example = (project_N(x, fr0) == Point(0.0, 2.0, 5.0)
                  and project_H(x, fr0) == Point(1.0, 0.0, 0.0)
                  and mul(Point(0, 2, 5), Point(1, 0, 0)) == x)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        th = rng.uniform(0.0, 2.0 * math.pi)
        fr = make_frame((math.cos(th), math.sin(th)))
        q = Point(*rng.uniform(-10, 10, size=3))
        back = mul(project_N(q, fr), project_H(q, fr))
        worst = max(worst, abs(back.x11 - q.x11), abs(back.x12 - q.x12),
                    abs(back.t - q.t))
    passed = ok_example and worst <= 1e-12
    report(2, "projections", passed,
           f"worked example {'ok' if ok_example else 'BAD'}, "
           f"roundtrip residual {worst:.2e} <= 1e-12")


def test_criterion_03_implicit_graph():
    flat = GraphPatch(make_frame((0.0, 1.0)), F_X12)
    affine = make_affine_patch()
    worst_res = 0.0
    worst_closed = 0.0
    for eta in np.linspace(-0.5, 0.5, 50):
        for tau in np.linspace(-0.5, 0.5, 50):
            n = VerticalCoords(float(eta), float(tau))
            for patch, exact in ((flat, 0.0), (affine, -tau / (1.0 - eta))):
                s = patch.solve_scalar(n)
                q = patch.line_point(n, s)
                worst_res = max(worst_res, abs(patch.f2.eval(q)))
                worst_closed = max(worst_closed, abs(s - exact))
    passed = worst_res <= 1e-10 and worst_closed <= 1e-10
    report(3, "implicit-graph", passed,
           f"level residual {worst_res:.2e}, closed-form error {worst_closed:.2e}, "
           f"both <= 1e-10 on 50x50")


def test_criterion_04_characteristics():
    cf = CharField(make_affine_patch())
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    steps = [1e-2 * 0.5**k for k in range(8)]  # halving from 1e-2 to below 1e-4
    errs = []
    for step in steps:
        worst = 0.0
        for tau0 in (-0.3, -0.1, 0.1, 0.3):
            p = characteristic(cf, tau0, window=window, step=step)
            worst = max(worst, float(np.max(np.abs(
                p.values - tau0 * (1.0 - p.etas) ** 2))))
        errs.append(worst)
    slope, _ = np.polyfit(np.log(steps), np.log(errs), 1)
    passed = slope >= 1.9
    report(4, "characteristics", passed,
           f"observed order {slope:.3f} >= 1.9 over steps 1e-2..{steps[-1]:.1e}")


def test_criterion_05_first_order_system():
    cf = CharField(make_affine_patch())
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    step = 1e-3
    worst = 0.0
    for tau0 in (-0.3, -0.1, 0.1, 0.3):
        p = characteristic(cf, tau0, window=window, step=step)
        worst = max(worst, system_residual(cf, p))
    n = int(0.4 / step) + 1
    control = system_residual(
        cf, PathSample(0.0, step, 0.1 + step * np.arange(n)))
    passed = worst <= 10.0 * step**2 and control > 0.05
    report(5, "first-order-system", passed,
           f"residual {worst:.2e} <= {10 * step**2:.0e}, "
           f"negative control {control:.3f} > 0.05")


def test_criterion_06_chain_rule():
    cf = CharField(make_affine_patch())
    window = Rect((0.0, 0.5), (-0.5, 0.5))
    path = characteristic(cf, 0.2, window=window, step=1e-3)
    rep = chain_rule_check(F_X12, cf, path, h_sweep=(1e-4,))
    rng = np.random.default_rng(3)
    rand_poly = PolySurface({
        (0, 1, 0): 1.0,
        (2, 0, 0): float(rng.uniform(0.2, 0.6)),
        (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
        (1, 1, 0): float(rng.uniform(0.1, 0.4)),
    })
    rep_rand = chain_rule_check(SurfaceHandle.from_polynomial(rand_poly), cf, path,
                                h_sweep=(1e-2, 5e-3, 2.5e-3))
    order = min(rep_rand.observed_orders)
    passed = rep.max_rel_errors[0] <= 1e-5 and order >= 1.9
    report(6, "chain-rule", passed,
           f"analytic rel error {rep.max_rel_errors[0]:.2e} <= 1e-5 at h=1e-4, "
           f"random-pair order {order:.3f} >= 1.9")


def test_criterion_07_taylor():
    cf = CharField(make_affine_patch())
    base = TaylorBasePoint.from_patch(cf.patch, VerticalCoords(0.0, 0.0))
    quad = SurfaceHandle.from_polynomial(
        PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0}))
    ratios = []
    for k in range(2, 9):
        r = 2.0**-k
        worst = 0.0
        for u in np.linspace(-1.0, 1.0, 41):
            for eta, tau in ((r, u * r * r), (-r, u * r * r),
                             (u * r, r * r), (u * r, -r * r)):
                rem, scale = taylor_remainder(quad, cf, base,
                                              VerticalCoords(eta, tau))
                worst = max(worst, abs(rem) / scale)
        ratios.append(worst)
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    passed = violations <= 1 and ratios[-1] <= 0.05
    report(7, "taylor-expansion", passed,
           f"{violations} trend violations <= 1, final ratio {ratios[-1]:.2e} <= 0.05")


def test_criterion_08_flow_selection(funnel_trace):
    lo, hi, _ = extremal_solutions(cubic_field, 0.0, 0.0, Rect((0.0, 0.5)), 1e-3)
    i = lo.index_of(0.5)
    ext_err = max(abs(lo.values[i] - 0.0), abs(hi.values[i] - 0.125))

    step = 0.01
    c = 0.01
    r3 = c ** (1.0 / 3.0)
    etas = -0.5 + step * np.arange(101)
    branch_lo = PathSample(-0.5, step,
                           np.array([-max(r3 - e, 0.0) ** 3 for e in etas]))
    branch_hi = PathSample(-0.5, step,
                           np.array([max(e + r3, 0.0) ** 3 for e in etas]))
    fam = build_family(cubic_field, branch_lo, branch_hi, depth=5)
    mono = fam.monotonicity_violation()
    mean_res = max(fam.mean_residuals())

    u = funnel_trace.neighborhood
    gap, spacing, nzeros = coverage_gap(
        funnel_trace, lambda e, t: e, f_eps=2.0 * (u.eta[1] - u.eta[0]) / 40)
    passed = (ext_err <= 1e-3 and mono <= 1e-9 and mean_res <= 1e-6
              and nzeros > 0 and gap <= 2.0 * spacing)
    report(8, "flow-selection", passed,
           f"extremal error {ext_err:.2e} <= 1e-3, monotonicity {mono:.1e} <= 1e-9, "
           f"mean residual {mean_res:.2e} <= 1e-6, coverage gap {gap:.2e} "
           f"<= {2 * spacing:.2e} over {nzeros} grid zeros")


def dist_to_axis(q):
    return math.hypot(q.x11, q.x12)


def dist_to_line_b(q):
    s_star = q.t / (1.0 - q.x12)
    best = dist(q, Point(-s_star, 0.0, s_star))
    for s in np.linspace(s_star - 0.01, s_star + 0.01, 41):
        best = min(best, dist(q, Point(-float(s), 0.0, float(s))))
    return best


def test_criterion_09_end_to_end(curve_a, curve_b):
    err_a = max(dist_to_axis(q) for q in curve_a.points)
    err_b = max(dist_to_line_b(q) for q in curve_b.points)
    cloud_a = brute_force_zero_cloud(F_X11, F_X12, ORACLE_BOX, ORACLE_GRID)
    cloud_b = brute_force_zero_cloud(F_X12, F_AFFINE, ORACLE_BOX, ORACLE_GRID)
    agree_a = curve_cloud_agreement(curve_a.points, cloud_a, ORACLE_BOX)
    agree_b = curve_cloud_agreement(curve_b.points, cloud_b, ORACLE_BOX)
    bound = 2.0 * ORACLE_SPACING + 1e-12
    passed = (err_a <= 1e-8 and err_b <= 1e-6
              and agree_a <= bound and agree_b <= bound)
    report(9, "end-to-end", passed,
           f"A axis distance {err_a:.2e} <= 1e-8, B line distance {err_b:.2e} "
           f"<= 1e-6, cloud agreement {agree_a:.2e}/{agree_b:.2e} "
           f"<= {2 * ORACLE_SPACING:.1e} on {ORACLE_GRID}^3")


def test_criterion_10_cone_property(curve_a, curve_b):
    worst = 0
    for curve, pair in ((curve_a, (F_X11, F_X12)), (curve_b, (F_X12, F_AFFINE))):
        lam = gradient_margin(pair, ORACLE_BOX, grid_n=5)
        lip = pair_lipschitz_bound(pair, ORACLE_BOX)
        for alpha in (1.0, 2.0, 5.0):
            r = cone_width_for(alpha, lam, lip, r_max=0.2)
            rep = cone_property_check(curve.points, ConeParams(alpha, r, lam))
            worst = max(worst, len(rep.violations))
    control = cone_property_check(
        [Point(0.01 * k, 0.0, 0.0) for k in range(-10, 11)],
        ConeParams(1.0, 0.5))
    passed = worst == 0 and len(control.violations) > 0
    report(10, "cone-property", passed,
           f"{worst} violations on traced curves for alpha in {{1,2,5}}, "
           f"horizontal control yields {len(control.violations)}")


def test_criterion_11_injectivity(curve_a, curve_b, funnel_trace):
    sep = min(curve_a.min_separation(), curve_b.min_separation())
    raw = funnel_trace.diagnostics["raw_zeta"]
    contiguous = True
    seen = {}
    for i, p in enumerate(raw):
        key = (round(p[0], 12), round(p[1], 12))
        if key in seen and i - seen[key] != 1:
            contiguous = False
        seen[key] = i
    passed = sep > 1e-12 and contiguous
    report(11, "injectivity", passed,
           f"min consecutive separation {sep:.2e} > 1e-12, "
           f"funnel preimage intervals {'contiguous' if contiguous else 'BROKEN'}")
