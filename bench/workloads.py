"""The benchmark workloads: reference, funnel, poly-pairs and verify.

Each workload builds its inputs from the seed (``build``), runs one round of
the same operations through ``op`` (``round``), checks the outputs of the
latest round apart from the program (``check``), and once per run shows
that every check rejects a perturbed output (``self_test``).  ``op`` times
each call to the program and counts it as attempted, and as failed when it
raises.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import checks as ck
import pairs as pg


def _rows(points) -> np.ndarray:
    return np.array([(q.x11, q.x12, q.t) for q in points], dtype=float).reshape(-1, 3)


def _labelled(label: str, messages: list[str]) -> list[str]:
    return [f"{label}: {m}" for m in messages]


# Window 0.5 in reference and poly-pairs: the trace runs from tau = -0.25 to 0.25.
# A curve that lost a tenth of either arm ends short of REACH.
REACH = 0.95 * 0.25


def _coverage_checks(base, samples: int):
    """Both ends reached and every sample kept, each with the output that must fail it."""
    return [
        ("ends reach", lambda p: ck.ends_reach(p, base, REACH), ck.trim_ends),
        ("sample count", lambda p: ck.sample_count(p, samples), ck.thin),
    ]


class Reference:
    """The paper's problems A = {x11, x12} and B = {x12, x11 + t}, default settings but depth 2."""

    POLYS = {
        "A": ({(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}),
        "B": ({(0, 1, 0): 1.0}, {(1, 0, 0): 1.0, (0, 0, 1): 1.0}),
    }
    # Depth 2 instead of the default 6: a 129-sample curve takes 5-6 s, too
    # long to be repeated often enough in a run to be measured steadily.
    DEPTH = 2
    SAMPLES = 2 * 2**DEPTH + 1

    def __init__(self, seed: int, workdir: Path):
        self.curves: dict = {}

    def build(self, hc):
        self.hc = hc
        poly, handle = hc.hsurface.PolySurface, hc.hsurface.SurfaceHandle
        params = hc.flowtrace.TraceParams(depth=self.DEPTH)
        self.problems = {
            tag: hc.intersect.IntersectionProblem(
                *(handle.from_polynomial(poly(c)) for c in pair), trace=params)
            for tag, pair in self.POLYS.items()
        }

    def round(self, op):
        for tag, prob in self.problems.items():
            self.curves[tag] = op(f"curve_{tag}", self.hc.intersect.intersect_surfaces, prob)

    def _checks(self, tag):
        line = ck.near_axis if tag == "A" else ck.near_line_b
        return [
            ("residuals", lambda p: ck.residuals(p, list(self.POLYS[tag])),
             lambda p: ck.nudge(p, 1, 1e-9)),
            ("reference line", line,
             lambda p: ck.nudge(p, 1, 10.0 * (ck.AXIS_TOL if tag == "A" else ck.LINE_B_TOL))),
            ("distinct samples", ck.distinct, ck.duplicate_middle),
            *_coverage_checks((0.0, 0.0, 0.0), self.SAMPLES),
        ]

    def check(self) -> list[str]:
        out = []
        for tag, curve in self.curves.items():
            if curve is not None:
                pts = _rows(curve.points)
                for name, check, _ in self._checks(tag):
                    out += _labelled(f"curve {tag} {name}", check(pts))
        return out

    def self_test(self) -> list[str]:
        cases = []
        for tag, curve in self.curves.items():
            if curve is not None:
                pts = _rows(curve.points)
                cases += [(f"curve {tag} {name}", check, (pts,), (spoil(pts),))
                          for name, check, spoil in self._checks(tag)]
        return ck.self_test(cases)


def funnel_field(eta: float, tau: float) -> float:
    """The non-Lipschitz field 3 |tau|^(2/3): solutions through 0 are not unique."""
    return 3.0 * abs(tau) ** (2.0 / 3.0)


def funnel_level(eta: float, tau: float) -> float:
    return eta


class Funnel:
    """`level_trace` of F = eta along the non-Lipschitz field 3|tau|^(2/3).

    No surface is involved, so the flow-selection machinery (extremal
    solutions, Illinois search, family build) does all the work.
    """

    DEPTH = 6
    HALF = (0.5, 1.0)           # eta and tau half-widths; the zeros span tau in [-0.5, 0.5]
    REACH = 0.95 * 0.5
    LEAST = 2 * 2**DEPTH + 1    # the dyadic samples; the trace may add more

    def __init__(self, seed: int, workdir: Path):
        self.trace = None
        self.extremals = None

    def build(self, hc):
        self.hc = hc
        ft = hc.flowtrace
        self.window = ft.Rect.centered(*self.HALF)
        self.params = ft.TraceParams(depth=self.DEPTH)
        self.half = ft.Rect((0.0, 0.5))

    def round(self, op):
        ft = self.hc.flowtrace
        self.trace = op("trace", ft.level_trace, funnel_field, funnel_level, self.window,
                        self.params)
        self.extremals = op("extremals", ft.extremal_solutions, funnel_field, 0.0, 0.0,
                            self.half, 1e-3)

    def _cases(self):
        cases = []
        if self.trace is not None:
            zeta = np.array(self.trace.zeta, dtype=float)
            cases += [
                ("funnel zeros", ck.funnel_zeros, (zeta,), (ck.nudge(zeta, 0, 1e-9),)),
                ("funnel order", ck.tau_increasing, (zeta,), (ck.swap_middle(zeta),)),
                ("funnel ends reach", ck.tau_reach, (zeta, self.REACH),
                 (ck.trim_ends(zeta), self.REACH)),
                ("funnel sample count", ck.least_samples, (zeta, self.LEAST),
                 (ck.thin(zeta), self.LEAST)),
            ]
        if self.extremals is not None:
            lo, hi, _ = self.extremals
            ext = (np.asarray(lo.etas), np.asarray(lo.values), np.asarray(hi.values))
            cases.append(("funnel extremals", ck.funnel_extremals, ext,
                          (ext[0], ext[1], ext[2] + 2.0 * ck.EXTREMAL_TOL)))
        return cases

    def check(self) -> list[str]:
        out = []
        for name, check, good, _ in self._cases():
            out += _labelled(name, check(*good))
        return out

    def self_test(self) -> list[str]:
        return ck.self_test(self._cases())


class PolyPairs:
    """Seeded cubic pairs with a planted common zero, run through `heisencurve intersect`."""

    # Depth 1 keeps one CLI run near 0.7 s, so each pair repeats several
    # times in a run; eight pairs keep the seed's share of the work small.
    PAIRS = 8
    DEPTH = 1
    SAMPLES = 2 * 2**DEPTH + 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv_bytes: dict[int, bytes] = {}
        self.first_bytes: dict[int, bytes] = {}
        self.rounds = 0

    def build(self, hc):
        self.hc = hc
        self.pairs = [pg.draw_pair(self.seed, k) for k in range(self.PAIRS)]
        self.configs = []
        for k, pair in enumerate(self.pairs):
            path = self.workdir / f"pair-{k}.json"
            path.write_text(pg.config_text(pair, self.DEPTH))
            self.configs.append(path)

    def _cli(self, config: Path, out: Path) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.hc.cli.main(["intersect", "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"heisencurve intersect exited with {code}")
        return out.read_bytes()

    def round(self, op):
        self.rounds += 1
        self.csv_bytes.clear()
        for k, config in enumerate(self.configs):
            out = self.workdir / f"pair-{k}-{self.rounds % 2}.csv"
            data = op(f"pair{k}", self._cli, config, out)
            if data is not None:
                self.csv_bytes[k] = data
                self.first_bytes.setdefault(k, data)

    def _points(self, k: int) -> np.ndarray:
        table = np.loadtxt(io.StringIO(self.csv_bytes[k].decode()), delimiter=",",
                           skiprows=1, ndmin=2)
        return table[:, 3:6]

    def _checks(self, k: int):
        pair = self.pairs[k]
        base = pair["p"]
        return [
            ("residuals", lambda p: ck.residuals(p, [pair["f1"], pair["f2"]]),
             lambda p: ck.nudge(p, 0, 1e-6)),
            ("planted zero", lambda p: ck.through_point(p, base),
             lambda p: ck.drop_nearest(p, base)),
            ("distinct samples", ck.distinct, ck.duplicate_middle),
            *_coverage_checks(base, self.SAMPLES),
        ]

    def check(self) -> list[str]:
        out = []
        for k in self.csv_bytes:
            pts = self._points(k)
            for name, check, _ in self._checks(k):
                out += _labelled(f"pair {k} {name}", check(pts))
            out += _labelled(f"pair {k} determinism",
                             ck.same_bytes(self.first_bytes[k], self.csv_bytes[k]))
        return out

    def self_test(self) -> list[str]:
        cases = []
        for k, data in self.csv_bytes.items():
            pts = self._points(k)
            cases += [(f"pair {k} {name}", check, (pts,), (spoil(pts),))
                      for name, check, spoil in self._checks(k)]
            cases.append((f"pair {k} determinism", ck.same_bytes, (data, data),
                          (data, ck.flip_byte(data))))
        return ck.self_test(cases)


class Verify:
    """Five verification suites and the acceptance-scale oracles on closed-form curves."""

    SUITES = ("group", "graph", "characteristics", "calculus", "flow")
    CHECKS = {
        "group": ["associativity", "identity_inverse", "norm_homogeneity",
                  "triangle_inequality_excess", "distance_left_invariance",
                  "dilation_automorphism", "projection_roundtrip",
                  "vertical_coords_roundtrip", "symbolic_vs_fd_gradient"],
        "graph": ["graph_level_residual", "graph_closed_forms", "graph_section_property",
                  "gradient_fd_order"],
        "characteristics": ["characteristic_order", "system_residual",
                            "system_negative_control"],
        "calculus": ["chain_rule_exact_value", "chain_rule_fd_rel_error",
                     "chain_rule_random_order", "taylor_ratio_violations",
                     "taylor_final_ratio", "directional_derivative_error"],
        "flow": ["extremal_cubic_error", "family_monotonicity", "family_mean_residual",
                 "funnel_coverage_gap", "funnel_zero_count"],
    }
    BOX = ((-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2))
    GRID = 201
    SPACING = 0.4 / (GRID - 1)
    SHIFT = 5.0 * SPACING      # the rejected copy is shifted by five grid spacings
    # 33 samples: both curves are straight lines, so the polyline is exact at
    # any sample count, and the agreement's Python loop over cloud points and
    # segments stays near a second instead of 3-5 s at 129 samples.
    SAMPLES = 33
    # The rejected cone input puts the middle sample a horizontal step KINK
    # from its neighbour, inside the narrowest cone used (width 0.009 on B).
    KINK = 0.005
    ALPHAS = (1.0, 2.0, 5.0)
    # Euclidean gradient bound of the pair over the box: 1 for A, |(1, 0, 1)| for B
    GRAD_BOUND = {"A": 1.0, "B": math.sqrt(2.0)}

    def __init__(self, seed: int, workdir: Path):
        self.reports: dict = {}
        self.oracles: dict = {}

    def build(self, hc):
        self.hc = hc
        poly, handle, point = hc.hsurface.PolySurface, hc.hsurface.SurfaceHandle, hc.hgroup.Point
        self.polys = Reference.POLYS
        self.pairs = {tag: tuple(handle.from_polynomial(poly(c)) for c in pair)
                      for tag, pair in self.polys.items()}
        s = [float(v) for v in np.linspace(-0.25, 0.25, self.SAMPLES)]
        self.curves = {"A": [point(0.0, 0.0, v) for v in s],
                       "B": [point(-v, 0.0, v) for v in s]}

    def _bounds(self, pair) -> tuple[float, float]:
        it = self.hc.intersect
        return (it.gradient_margin(pair, self.BOX, grid_n=5),
                it.pair_lipschitz_bound(pair, self.BOX))

    def _cones(self, points, lam: float, lip: float) -> list[int]:
        it = self.hc.intersect
        return [len(it.cone_property_check(
            points, it.ConeParams(a, it.cone_width_for(a, lam, lip, r_max=0.2), lam)).violations)
            for a in self.ALPHAS]

    def _oracle(self, op, tag: str) -> dict | None:
        """The oracles on one closed-form curve, each call its own operation."""
        it = self.hc.intersect
        pair, points = self.pairs[tag], self.curves[tag]
        cloud = op(f"oracle_cloud_{tag}", it.brute_force_zero_cloud, *pair, self.BOX, self.GRID)
        bounds = op(f"oracle_margin_{tag}", self._bounds, pair)
        if cloud is None or bounds is None:
            return None
        lam, lip = bounds
        cones = op(f"oracle_cone_{tag}", self._cones, points, lam, lip)
        agreement = op(f"oracle_agreement_{tag}", it.curve_cloud_agreement,
                       points, cloud, self.BOX)
        if cones is None or agreement is None:
            return None
        return {"cloud": cloud, "agreement": agreement, "margin": lam, "lip": lip,
                "cones": cones}

    def round(self, op):
        for name in self.SUITES:
            self.reports[name] = op(f"suite_{name}", self.hc.verify.run_suites, name)
        for tag in self.curves:
            self.oracles[tag] = self._oracle(op, tag)

    def _margin(self, tag: str) -> float:
        """Smallest singular value of the 2x2 horizontal gradient matrix over the 5^3 grid."""
        if tag == "A":
            return 1.0
        x, y, _ = np.meshgrid(*[np.linspace(lo, hi, 5) for lo, hi in self.BOX], indexing="ij")
        # rows X(x12) = (0, 1) and X(x11 + t) = (1 - x12, x11)
        S = 1.0 + (1.0 - y) ** 2 + x**2
        D = np.abs(1.0 - y)
        smax = 0.5 * (np.sqrt(S + 2.0 * D) + np.sqrt(S - 2.0 * D))
        return float(np.min(D / smax))

    def _eps(self, tag: str) -> float:
        return 2.0 * self.SPACING * self.GRAD_BOUND[tag]

    def check(self) -> list[str]:
        out = []
        for name, rep in self.reports.items():
            if rep is not None:
                out += _labelled(f"suite {name}", ck.report_ok(rep["suites"][name],
                                                              self.CHECKS[name]))
        for tag, o in self.oracles.items():
            if o is None:
                continue
            out += _labelled(f"oracle {tag} cloud", ck.cloud_matches(
                _rows(o["cloud"]), list(self.polys[tag]), self.BOX, self.GRID, self._eps(tag)))
            out += _labelled(f"oracle {tag} agreement", ck.agreement(o["agreement"], self.SPACING))
            out += _labelled(f"oracle {tag} cone", ck.no_violations(o["cones"]))
            out += _labelled(f"oracle {tag} margin", ck.margin_matches(o["margin"], self._margin(tag)))
        return out

    def self_test(self) -> list[str]:
        it = self.hc.intersect
        point = self.hc.hgroup.Point
        cases = []
        rep = self.reports.get("group")
        if rep is not None:
            bad = {"checks": [dict(c, value=1.0) if c["name"] == "associativity" else c
                              for c in rep["suites"]["group"]["checks"]]}
            cases.append(("suite report", ck.report_ok,
                          (rep["suites"]["group"], self.CHECKS["group"]),
                          (bad, self.CHECKS["group"])))
        for tag, o in self.oracles.items():
            if o is None:
                continue
            shifted = [point(q.x11 + self.SHIFT, q.x12, q.t) for q in self.curves[tag]]
            far = it.curve_cloud_agreement(shifted, o["cloud"], self.BOX)
            kinked = list(self.curves[tag])
            mid = len(kinked) // 2
            # x12 = 0 on both curves, so this is the neighbour times (KINK, 0, 0)
            nb = kinked[mid + 1]
            kinked[mid] = point(nb.x11 + self.KINK, nb.x12, nb.t)
            kinked_cones = self._cones(kinked, o["margin"], o["lip"])
            cloud, polys, eps = _rows(o["cloud"]), list(self.polys[tag]), self._eps(tag)
            cases += [
                (f"oracle {tag} cloud", ck.cloud_matches,
                 (cloud, polys, self.BOX, self.GRID, eps),
                 (cloud[1:], polys, self.BOX, self.GRID, eps)),
                (f"oracle {tag} agreement", ck.agreement, (o["agreement"], self.SPACING),
                 (far, self.SPACING)),
                (f"oracle {tag} cone", ck.no_violations, (o["cones"],), (kinked_cones,)),
                (f"oracle {tag} margin", ck.margin_matches, (o["margin"], self._margin(tag)),
                 (o["margin"] + 1e-6, self._margin(tag))),
            ]
        return ck.self_test(cases)


WORKLOADS = {"reference": Reference, "funnel": Funnel, "poly-pairs": PolyPairs,
             "verify": Verify}
