"""The verification suites at interactive scale, as the benchmark runs them."""

import math

import numpy as np
import pytest
from conftest import bench_module
from test_acceptance import ACCEPTANCE

from heisencurve import verify
from heisencurve.hgroup import Point, VerticalCoords, dist, hnorm, inv, make_frame, mul
from heisencurve.hsurface import PolySurface
from heisencurve.verify import (
    coords_N,
    dilate,
    embed_N,
    horizontal_derivative,
    project_H,
    project_N,
)

BENCH_VERIFY = bench_module("workloads").Verify


@pytest.mark.parametrize("name", BENCH_VERIFY.SUITES)
def test_benchmark_suite_reports_its_checks(name):
    report = verify.run_suites(name)
    got = {c["name"]: c for c in report["suites"][name]["checks"]}
    for check in BENCH_VERIFY.CHECKS[name]:
        assert check in got, f"{name}: check {check} not reported"
        assert got[check]["passed"], f"{name}: {got[check]}"


def test_preimage_contiguity():
    # interval collapse repeats a zero only at adjacent members
    assert verify.preimage_contiguity([(0.0, 0.0), (0.0, 0.0), (0.1, 0.2)])["passed"]
    left_and_back = [(0.0, 0.0), (0.1, 0.2), (0.0, 0.0)]
    check = verify.preimage_contiguity(left_and_back)
    assert check["value"] == 1.0 and not check["passed"]


def _ref_gap(a, b):
    return max(abs(a.x11 - b.x11), abs(a.x12 - b.x12), abs(a.t - b.t))


def _ref_suite_group_values(scale):
    """The ten values of suite_group as its per-triple loop over scalar Points computed them."""
    rng = np.random.default_rng(scale.seed)
    n = scale.group_samples
    xs, ys, zs = ([Point(*row) for row in rng.uniform(-10.0, 10.0, size=(n, 3))]
                  for _ in range(3))
    rs = rng.uniform(0.1, 3.0, size=n)
    assoc = inverse = homog = tri = left = autom = 0.0
    for x, y, z, r in zip(xs, ys, zs, rs):
        assoc = max(assoc, _ref_gap(mul(mul(x, y), z), mul(x, mul(y, z))))
        inverse = max(inverse, _ref_gap(mul(x, inv(x)), Point(0.0, 0.0, 0.0)))
        homog = max(homog, abs(hnorm(dilate(r, x)) - r * hnorm(x)))
        tri = max(tri, hnorm(mul(x, y)) - hnorm(x) - hnorm(y))
        left = max(left, abs(dist(mul(z, x), mul(z, y)) - dist(x, y)))
        autom = max(autom, _ref_gap(mul(dilate(r, x), dilate(r, y)), dilate(r, mul(x, y))))
    q, n_part, h_part = Point(1.0, 2.0, 3.0), Point(0.0, 2.0, 5.0), Point(1.0, 0.0, 0.0)
    fr = make_frame((1.0, 0.0))
    example = max(_ref_gap(project_N(q, fr), n_part), _ref_gap(project_H(q, fr), h_part),
                  _ref_gap(mul(n_part, h_part), q))
    proj = embed = 0.0
    for x in xs[:scale.projection_samples]:
        th = rng.uniform(0.0, 2.0 * math.pi)
        fr = make_frame((math.cos(th), math.sin(th)))
        proj = max(proj, _ref_gap(mul(project_N(x, fr), project_H(x, fr)), x))
        v = VerticalCoords(x.x11 / 10.0, x.t / 10.0)
        w = coords_N(embed_N(v, fr), fr)
        embed = max(embed, abs(w.eta - v.eta), abs(w.tau - v.tau))
    fields = 0.0
    poly = PolySurface({(2, 1, 0): 0.7, (0, 1, 1): -1.2, (1, 0, 2): 0.4})
    for x in xs[:50]:
        q = Point(x.x11 / 10.0, x.x12 / 10.0, x.t / 10.0)
        g1, g2 = poly.grad_at(q.x11, q.x12, q.t)
        fields = max(fields, abs(g1 - horizontal_derivative(poly, q, (1.0, 0.0), 1e-5)),
                     abs(g2 - horizontal_derivative(poly, q, (0.0, 1.0), 1e-5)))
    return [float(v) for v in (assoc, inverse, homog, max(tri, 0.0), left, autom, example,
                               proj, embed, fields)]


@pytest.mark.parametrize("scale", [verify.INTERACTIVE, ACCEPTANCE],
                         ids=["interactive", "acceptance"])
def test_group_suite_matches_the_per_triple_loop(scale):
    got = [c["value"] for c in verify.suite_group(scale)]
    assert got == _ref_suite_group_values(scale)
