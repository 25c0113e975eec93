"""Batch front end: JSON configs in, curve CSVs and verification reports out.

Exit codes: 0 success, 1 mathematical failure (a hypothesis of the
construction fails on the given data), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import verify as verify_suites
from .characteristics import characteristic
from .errors import (
    ConfigError,
    DependentNormals,
    MarginViolated,
    MeanBisectionFailure,
    MonotonicityViolated,
    NoSignChange,
    NotCommonZero,
    NoZeroFound,
    WindowExit,
)
from .flowtrace import TraceParams
from .hgroup import Point
from .hsurface import PolySurface, SurfaceHandle
from .intersect import IntersectionProblem, graph_field, intersect_surfaces

COMMANDS = ("intersect", "characteristics", "trace", "verify")

_KNOWN_KEYS = {
    "command", "surfaces", "base_point", "window", "bracket", "step", "depth",
    "grid", "tolerance", "seed", "tau0", "out", "suite",
}

_FAILURE_HINTS = {
    NotCommonZero: "the construction starts from a common zero of both "
                   "surfaces; move base_point onto both of them",
    DependentNormals: "the construction requires linearly independent "
                      "horizontal normals at the base point",
    MarginViolated: "the construction requires the graph-direction derivative "
                    "Y1 f2 to stay away from zero on the window",
    MonotonicityViolated: "the construction requires strict monotonicity along "
                          "characteristics (a signed chain-rule determinant); "
                          "try a smaller window",
    NoSignChange: "the graph equation has no root inside the bracket; enlarge "
                  "the bracket or shrink the window",
    MeanBisectionFailure: "the flow family could not realize an intermediate "
                          "integral mean; try a finer step",
    NoZeroFound: "no member of the flow family crosses F = 0 inside the window; "
                 "check the base point or enlarge the window",
    WindowExit: "a trajectory left the window; enlarge window, or move the "
                "characteristics' tau0 toward 0",
}


@dataclass
class RunConfig:
    command: str
    surfaces: list[PolySurface]
    base_point: Point = Point(0.0, 0.0, 0.0)
    window: float = 0.5
    bracket: tuple[float, float] = (-2.0, 2.0)
    step: float = 1e-3
    depth: int = 6
    grid: int = 41
    tolerance: float = 1e-10
    seed: int = 0
    tau0: tuple[float, ...] = (-0.2, -0.1, 0.1, 0.2)
    out: str | None = None
    suite: str | None = None

    def problem(self) -> IntersectionProblem:
        """surfaces[0] is f1, whose zero set is traced; surfaces[1] is f2, the graph."""
        f1, f2 = (SurfaceHandle.from_polynomial(p) for p in self.surfaces[:2])
        return IntersectionProblem(
            f1, f2, p=self.base_point, window_half=self.window, bracket=self.bracket,
            trace=TraceParams(step=self.step, depth=self.depth, root_tol=self.tolerance))


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _parse_surface(spec, path: str) -> PolySurface:
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a nonempty list of [i, j, k, coefficient] quadruples")
    for row_idx, row in enumerate(spec):
        if (not isinstance(row, list) or len(row) != 4
                or not all(isinstance(v, (int, float)) for v in row)):
            _fail(f"{path}[{row_idx}]", "expected an [i, j, k, coefficient] quadruple")
    try:
        return PolySurface.from_quadruples(spec)
    except ValueError as e:
        _fail(path, str(e))


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document and fill defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        _fail("$", "config must be a JSON object")
    for key in doc:
        if key not in _KNOWN_KEYS:
            _fail(key, "unknown key")
    command = doc.get("command")
    if command not in COMMANDS:
        _fail("command", f"must be one of {COMMANDS}, got {command!r}")

    need = {"intersect": 2, "trace": 2, "characteristics": 1, "verify": 0}[command]
    raw_surfaces = doc.get("surfaces", [])
    if not isinstance(raw_surfaces, list):
        _fail("surfaces", "must be a list of surface specs")
    surfaces = [_parse_surface(s, f"surfaces[{i}]") for i, s in enumerate(raw_surfaces)]
    if len(surfaces) < need:
        _fail(f"surfaces[{len(surfaces)}]",
              f"command {command!r} needs {need} surface(s), got {len(surfaces)}")

    cfg = RunConfig(command=command, surfaces=surfaces)

    if "base_point" in doc:
        bp = doc["base_point"]
        if (not isinstance(bp, list) or len(bp) != 3
                or not all(isinstance(v, (int, float)) for v in bp)):
            _fail("base_point", "expected [x11, x12, t]")
        cfg.base_point = Point(*map(float, bp))
    if "window" in doc:
        w = doc["window"]
        if not isinstance(w, (int, float)) or w <= 0:
            _fail("window", "expected a positive half-width")
        cfg.window = float(w)
    if "bracket" in doc:
        br = doc["bracket"]
        if (not isinstance(br, list) or len(br) != 2
                or not all(isinstance(v, (int, float)) for v in br) or br[0] >= br[1]):
            _fail("bracket", "expected [s_min, s_max] with s_min < s_max")
        cfg.bracket = (float(br[0]), float(br[1]))
    for key, attr, cast, check in (
        ("step", "step", float, lambda v: v > 0),
        ("depth", "depth", int, lambda v: 0 <= v <= 12),
        ("grid", "grid", int, lambda v: v >= 2),
        ("tolerance", "tolerance", float, lambda v: v > 0),
        ("seed", "seed", int, lambda v: v >= 0),
    ):
        if key in doc:
            v = doc[key]
            if not isinstance(v, (int, float)) or not check(cast(v)):
                _fail(key, f"invalid value {v!r}")
            setattr(cfg, attr, cast(v))
    if "tau0" in doc:
        ts = doc["tau0"]
        if not isinstance(ts, list) or not all(isinstance(v, (int, float)) for v in ts):
            _fail("tau0", "expected a list of initial values")
        cfg.tau0 = tuple(float(v) for v in ts)
    if "out" in doc:
        if not isinstance(doc["out"], str):
            _fail("out", "expected a path string")
        cfg.out = doc["out"]
    if "suite" in doc:
        if not isinstance(doc["suite"], str):
            _fail("suite", "expected a suite name")
        cfg.suite = doc["suite"]
    return cfg


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_intersect(cfg: RunConfig) -> None:
    curve = intersect_surfaces(cfg.problem())
    rows = [
        (xi, n.eta, n.tau, q.x11, q.x12, q.t)
        for xi, n, q in zip(curve.params, curve.planar, curve.points)
    ]
    out = cfg.out or "curve.csv"
    _write_rows(out, ["xi", "eta", "tau", "x11", "x12", "t"], rows)
    print(f"wrote {len(rows)} curve samples to {out} "
          f"(residuals {curve.meta['residual_f1']:.2e}, "
          f"{curve.meta['residual_f2']:.2e})")


def _run_characteristics(cfg: RunConfig) -> None:
    cf = graph_field(SurfaceHandle.from_polynomial(cfg.surfaces[0]), cfg.base_point,
                     cfg.window, cfg.bracket)
    rows = []
    for tau0 in cfg.tau0:
        path = characteristic(cf, tau0, step=cfg.step)
        for e, t in zip(path.etas, path.values):
            rows.append((tau0, e, t, cf.phi(float(e), float(t))))
    out = cfg.out or "characteristics.csv"
    _write_rows(out, ["tau0", "eta", "tau", "nu"], rows)
    print(f"wrote {len(rows)} characteristic samples to {out}")


def _run_trace(cfg: RunConfig) -> None:
    curve = intersect_surfaces(cfg.problem())
    rows = [(xi, n.eta, n.tau) for xi, n in zip(curve.meta["raw_xi"], curve.planar)]
    out = cfg.out or "trace.csv"
    _write_rows(out, ["xi", "eta", "tau"], rows)
    print(f"wrote {len(rows)} planar trace samples to {out}")


def _run_verify(cfg: RunConfig) -> int:
    report = verify_suites.run_suites(cfg.suite, seed=cfg.seed, grid_n=cfg.grid)
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {cfg.out}")
    else:
        print(text)
    n_checks = sum(len(s["checks"]) for s in report["suites"].values())
    n_bad = sum(1 for s in report["suites"].values()
                for c in s["checks"] if not c["passed"])
    print(f"verify: {n_checks - n_bad}/{n_checks} checks passed")
    return 0 if report["passed"] else 1


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        if cfg.command == "intersect":
            _run_intersect(cfg)
        elif cfg.command == "characteristics":
            _run_characteristics(cfg)
        elif cfg.command == "trace":
            _run_trace(cfg)
        elif cfg.command == "verify":
            return _run_verify(cfg)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except tuple(_FAILURE_HINTS) as e:
        hint = next(h for t, h in _FAILURE_HINTS.items() if isinstance(e, t))
        print(f"mathematical failure ({type(e).__name__}): {e}\n  note: {hint}",
              file=sys.stderr)
        return 1


def _load(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heisencurve",
        description="intersection curves of level-set surfaces in the first "
                    "Heisenberg group",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("--config", default=None)
            p.add_argument("--suite", default=None)
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.cmd == "verify" and args.config is None:
            cfg = RunConfig(command="verify", surfaces=[])
        else:
            cfg = _load(args.config)
        if cfg.command != args.cmd:
            raise ConfigError(
                f"command: config says {cfg.command!r} but subcommand is {args.cmd!r}"
            )
        if args.out is not None:
            cfg.out = args.out
        if getattr(args, "suite", None) is not None:
            cfg.suite = args.suite
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
