"""The verification suites at interactive scale, as the benchmark runs them."""

import importlib.util
import json
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_module
from test_acceptance import ACCEPTANCE

from heisencurve import verify
from heisencurve.characteristics import CharField, characteristic
from heisencurve.flowtrace import Rect, _clamped, integrate_through
from heisencurve.hgroup import Point, VerticalCoords, dist, hnorm, inv, make_frame, mul
from heisencurve.hsurface import GraphPatch, PolySurface
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


@pytest.mark.parametrize("scale, n", [(verify.INTERACTIVE, 50), (ACCEPTANCE, 201)],
                         ids=["interactive", "acceptance"])
def test_graph_suite_samples_the_window_at_its_scale(scale, n, monkeypatch):
    shapes = []
    solve_many = GraphPatch.solve_many

    def record(patch, eta, tau):
        shapes.append(np.broadcast(eta, tau).shape)
        return solve_many(patch, eta, tau)

    monkeypatch.setattr(GraphPatch, "solve_many", record)
    verify.suite_graph(scale)
    # a grid for each of the two patches, and the 9 fixed section points
    assert shapes == [(n, n), (n, n), (9,)]


def _ref_section_property():
    """suite_graph's graph_section_property as its per-point loop over scalar Points computed it."""
    affine = GraphPatch(make_frame((1.0, 0.0)), verify.POLY_AFFINE)
    section = 0.0
    etas = np.linspace(-0.4, 0.4, 9)
    coords = affine.line_coords(etas, etas / 2.0, affine.solve_many(etas, etas / 2.0))
    for eta, *q in zip(etas.tolist(), *(c.tolist() for c in coords)):
        back = coords_N(project_N(Point(*q), affine.frame), affine.frame)
        section = max(section, abs(back.eta - eta), abs(back.tau - eta / 2.0))
    return section


@pytest.mark.parametrize("scale", [verify.INTERACTIVE, ACCEPTANCE],
                         ids=["interactive", "acceptance"])
def test_graph_section_property_matches_the_per_point_loop(scale):
    got = {c["name"]: c["value"] for c in verify.suite_graph(scale)}
    assert got["graph_section_property"] == _ref_section_property()


def _ref_chain_rule_errors(f1, cf, path, h_sweep):
    """chain_rule_check's errors from its per-(step, point) loop, the formula solved in each."""
    rhs = _clamped(cf.rhs, cf.patch.window)
    h_max = max(h_sweep)
    etas = np.linspace(path.eta0 + h_max * 1.01, path.etas[-1] - h_max * 1.01,
                       verify.CHAIN_RULE_SAMPLES)
    abs_errs, rel_errs = [], []
    for h in h_sweep:
        worst_abs = worst_rel = 0.0
        for eta in etas.tolist():
            formula = verify.chain_rule_rhs(f1, cf, eta, path)
            local = integrate_through(rhs, eta, path.tau_at(eta), (eta - h, h / 8, 17))
            gp = f1.value_at(*cf.graph_coords(eta + h, float(local.values[-1])))
            gm = f1.value_at(*cf.graph_coords(eta - h, float(local.values[0])))
            err = abs((gp - gm) / (2.0 * h) - formula)
            worst_abs = max(worst_abs, err)
            worst_rel = max(worst_rel, err / max(1.0, abs(formula)))
        abs_errs.append(worst_abs)
        rel_errs.append(worst_rel)
    return abs_errs, rel_errs


def _ref_directional_errors(f1, cf, base, h_sweep):
    """directional_derivative_check's errors from its per-step loop."""
    det, y1f2 = verify._pair_determinant(f1, cf, astuple(base.x_bar))
    formula = -det / y1f2
    slope = 2.0 * base.eta1_bar * cf.patch.frame.detC
    abs_errs, rel_errs = [], []
    for h in h_sweep:
        gp, gm = (f1.value_at(*cf.graph_coords(base.n_bar.eta + s, base.n_bar.tau + slope * s))
                  for s in (h, -h))
        err = abs((gp - gm) / (2.0 * h) - formula)
        abs_errs.append(err)
        rel_errs.append(err / max(1.0, abs(formula)))
    return abs_errs, rel_errs


def _ref_sweep(h_sweep, errors):
    """(abs errors, rel errors, observed orders) as the settable SweepReport field computed them."""
    e = errors[0]
    return (*errors, [math.log(e[i] / max(e[i + 1], 1e-300)) / math.log(h_sweep[i] / h_sweep[i + 1])
                      for i in range(len(h_sweep) - 1)])


def _ref_suite_calculus(scale):
    """suite_calculus's six values, from its per-point and per-box loops, and its three sweeps."""
    rng = np.random.default_rng(scale.seed)
    affine = GraphPatch(make_frame((1.0, 0.0)), verify.POLY_AFFINE)
    cf = CharField(affine)
    path = characteristic(cf, 0.2, window=Rect((0.0, 0.5), (-0.5, 0.5)), step=1e-3)
    sweeps = [_ref_sweep((1e-2, 1e-3, 1e-4), _ref_chain_rule_errors(
        verify.POLY_X12, cf, path, (1e-2, 1e-3, 1e-4)))]
    exact = max(abs(verify.chain_rule_rhs(verify.POLY_X12, cf, eta, path) - 1.0)
                for eta in (0.1, 0.3))
    rand_poly = PolySurface({
        (0, 1, 0): 1.0,
        (2, 0, 0): float(rng.uniform(0.2, 0.6)),
        (0, 0, 1): float(rng.uniform(-0.5, -0.1)),
        (1, 1, 0): float(rng.uniform(0.1, 0.4)),
    })
    sweeps.append(_ref_sweep((1e-2, 5e-3, 2.5e-3), _ref_chain_rule_errors(
        rand_poly, cf, path, (1e-2, 5e-3, 2.5e-3))))
    base = verify.TaylorBasePoint.from_patch(affine, VerticalCoords(0.0, 0.0))
    quad = PolySurface({(0, 1, 0): 1.0, (2, 0, 0): 1.0})
    u = np.linspace(-1.0, 1.0, scale.taylor_n)
    ratios = []
    for k in range(2, 9):
        r = 2.0**-k
        ends, sides = np.full_like(u, r), u * r
        rem, size = verify.taylor_remainder(
            quad, cf, base, np.concatenate([ends, -ends, sides, sides]),
            np.concatenate([sides * r, sides * r, ends * r, -ends * r]))
        ratios.append(float(np.max(np.abs(rem) / size)))
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    shifted = verify.TaylorBasePoint.from_patch(affine, VerticalCoords(0.0, 0.2))
    sweeps.append(_ref_sweep((1e-2, 1e-3, 1e-4), _ref_directional_errors(
        quad, cf, shifted, (1e-2, 1e-3, 1e-4))))
    values = [exact, sweeps[0][1][-1], min(sweeps[1][2]), violations, ratios[-1],
              sweeps[2][0][-1]]
    return [float(v) for v in values], sweeps


@pytest.mark.parametrize("scale", [verify.INTERACTIVE, ACCEPTANCE],
                         ids=["interactive", "acceptance"])
def test_calculus_suite_matches_the_per_point_loops(scale, monkeypatch):
    reports = []
    for name in ("chain_rule_check", "directional_derivative_check"):
        def record(*args, check=getattr(verify, name), **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]
        monkeypatch.setattr(verify, name, record)
    got = [c["value"] for c in verify.suite_calculus(scale)]
    values, sweeps = _ref_suite_calculus(scale)
    assert got == values
    assert [(r.max_abs_errors, r.max_rel_errors, r.observed_orders) for r in reports] == sweeps


def test_snapshot_compare_names_the_moved_checks(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"
    spec = importlib.util.spec_from_file_location("snapshot_outputs", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    report = verify.run_suites("graph")
    for tag in ("parent", "change"):
        (tmp_path / tag).mkdir()
        (tmp_path / tag / "verify.json").write_text(json.dumps(report, indent=2))
        report["suites"]["graph"]["checks"][2].update(value=0.5, passed=False)
    snapshot.compare(tmp_path / "parent", tmp_path / "change")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("verify.json: ")
    assert lines[1:] == ["  graph/graph_section_property: 0.0 passed -> 0.5 FAILED",
                         "1 of 1 files differ"]
