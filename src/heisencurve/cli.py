"""Batch front end: JSON configs in, curve CSVs and verification reports out.

Exit codes: 0 success, 1 mathematical failure (a hypothesis of the
construction fails on the given data), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import verify as verify_suites
from .characteristics import CharField, characteristic
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
from .hsurface import PolySurface
from .intersect import IntersectionProblem, graph_field, intersect_surfaces
from .verify import INTERACTIVE

# Cap on the nodes of one characteristic, 2 * window / step + 1; the default
# window and step take 1,001.
MAX_CHARACTERISTIC_NODES = 100_001
# Cap on grid, the zero cloud's points per axis: it holds (grid / 8)^3 cube centres.
MAX_GRID = 1001

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
    base_point: Point = IntersectionProblem.p
    window: float = IntersectionProblem.window_half
    bracket: tuple[float, float] = IntersectionProblem.bracket
    step: float = TraceParams.step
    depth: int = TraceParams.depth
    grid: int = INTERACTIVE.grid_n
    tolerance: float = TraceParams.root_tol
    seed: int = INTERACTIVE.seed
    tau0: tuple[float, ...] = (-0.2, -0.1, 0.1, 0.2)
    out: str | None = None
    suite: str | None = None

    def problem(self) -> IntersectionProblem:
        """surfaces[0] is f1, whose zero set is traced; surfaces[1] is f2, the graph."""
        f1, f2 = self.surfaces[:2]
        return IntersectionProblem(
            f1, f2, p=self.base_point, window_half=self.window, bracket=self.bracket,
            trace=TraceParams(step=self.step, depth=self.depth, root_tol=self.tolerance))


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _finite(x) -> bool:
    """x is a JSON number, not a boolean, that converts to a finite float."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _positive(x) -> bool:
    return _finite(x) and x > 0


def _integral(x) -> bool:
    """x is a finite JSON number with an integer value, such as 2 or 2.0."""
    return _finite(x) and x == int(x)


def _finite_numbers(v, n: int | None = None) -> bool:
    """v is a list of finite numbers (of length n when given)."""
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(_finite, v))


# Each key besides command and surfaces: (accepts the JSON value, message when
# it does not, formatted with the value, conversion); checked in this order.
_KEYS = {
    "base_point": (lambda v: _finite_numbers(v, 3), "expected [x11, x12, t] of finite numbers",
                   lambda v: Point(*map(float, v))),
    "window": (_positive, "expected a positive finite half-width", float),
    "bracket": (lambda v: _finite_numbers(v, 2) and v[0] < v[1],
                "expected finite [s_min, s_max] with s_min < s_max",
                lambda v: (float(v[0]), float(v[1]))),
    "step": (_positive, "invalid value {!r}", float),
    "depth": (lambda v: _integral(v) and 0 <= v <= 12, "invalid value {!r}", int),
    "grid": (lambda v: _integral(v) and 2 <= v <= MAX_GRID,
             f"invalid value {{!r}}: expected an integer in [2, {MAX_GRID}]", int),
    "tolerance": (_positive, "invalid value {!r}", float),
    "seed": (lambda v: _integral(v) and v >= 0, "invalid value {!r}", int),
    "tau0": (_finite_numbers, "expected a list of finite initial values",
             lambda v: tuple(map(float, v))),
    "out": (lambda v: isinstance(v, str), "expected a path string", str),
    "suite": (lambda v: isinstance(v, str), "expected a suite name", str),
}


def _parse_surface(spec, path: str) -> PolySurface:
    """The surface of spec, its horizontal gradient derived; a coefficient of
    either that overflows is a ConfigError."""
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a nonempty list of [i, j, k, coefficient] quadruples")
    for row_idx, row in enumerate(spec):
        if not _finite_numbers(row, 4):
            _fail(f"{path}[{row_idx}]",
                  "expected an [i, j, k, coefficient] quadruple of finite numbers")
    try:
        surface = PolySurface.from_quadruples(spec)
        surface.grad_poly
    except (ValueError, OverflowError) as e:
        _fail(path, str(e))
    return surface


def _check_against_window(cfg: RunConfig, tau0_given: bool) -> None:
    """tau0 lies in the window (the defaults too, where characteristics would
    start from them), and a characteristic has at most MAX_CHARACTERISTIC_NODES."""
    if (tau0_given or cfg.command == "characteristics") and any(
            abs(v) > cfg.window for v in cfg.tau0):
        _fail("tau0", f"initial values {list(cfg.tau0)} must lie in "
                      f"[-window, window] = [{-cfg.window!r}, {cfg.window!r}]")
    nodes = 2.0 * cfg.window / cfg.step + 1.0
    if cfg.command == "characteristics" and nodes > MAX_CHARACTERISTIC_NODES:
        _fail("step", f"2 * window / step + 1 = {nodes:.6g} nodes per characteristic "
                      f"exceed {MAX_CHARACTERISTIC_NODES}; raise step or shrink window")


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document and fill defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        _fail("$", "config must be a JSON object")
    for key in doc:
        if key not in _KEYS and key not in ("command", "surfaces"):
            _fail(key, "unknown key")
    command = doc.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        _fail("command", f"must be one of {tuple(COMMANDS)}, got {command!r}")

    need = COMMANDS[command][1]
    raw_surfaces = doc.get("surfaces", [])
    if not isinstance(raw_surfaces, list):
        _fail("surfaces", "must be a list of surface specs")
    surfaces = [_parse_surface(s, f"surfaces[{i}]") for i, s in enumerate(raw_surfaces)]
    if len(surfaces) < need:
        _fail(f"surfaces[{len(surfaces)}]",
              f"command {command!r} needs {need} surface(s), got {len(surfaces)}")

    cfg = RunConfig(command=command, surfaces=surfaces)
    for key, (accepts, message, convert) in _KEYS.items():
        if key in doc:
            if not accepts(doc[key]):
                _fail(key, message.format(doc[key]))
            setattr(cfg, key, convert(doc[key]))
        if key == "tau0":  # the checks across keys come before out and suite
            _check_against_window(cfg, "tau0" in doc)
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


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would, leaving the file as it was.

    An existing file is opened for writing without truncation; a missing one
    is created and removed again.
    """
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.remove(path)


def _run_intersect(cfg: RunConfig, out: str) -> None:
    curve = intersect_surfaces(cfg.problem())
    rows = [
        (xi, n.eta, n.tau, q.x11, q.x12, q.t)
        for xi, n, q in zip(curve.params, curve.planar, curve.points)
    ]
    _write_rows(out, ["xi", "eta", "tau", "x11", "x12", "t"], rows)
    print(f"wrote {len(rows)} curve samples to {out} "
          f"(residuals {curve.meta['residual_f1']:.2e}, "
          f"{curve.meta['residual_f2']:.2e})")


def _run_characteristics(cfg: RunConfig, out: str) -> None:
    patch = graph_field(cfg.surfaces[0], cfg.base_point, cfg.window, cfg.bracket).patch
    rows = []
    for tau0 in cfg.tau0:
        # a field of its own, so no march warm-starts from another's last root
        cf = CharField(patch)
        path = characteristic(cf, tau0, step=cfg.step)
        nus = cf.phi(path.etas, path.values)
        rows += [(tau0, e, t, nu) for e, t, nu in zip(path.etas, path.values, nus)]
    _write_rows(out, ["tau0", "eta", "tau", "nu"], rows)
    print(f"wrote {len(rows)} characteristic samples to {out}")


def _run_verify(cfg: RunConfig, out: str | None) -> int:
    report = verify_suites.run_suites(cfg.suite, seed=cfg.seed, grid_n=cfg.grid)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {out}")
    else:
        print(text)
    n_checks = sum(len(s["checks"]) for s in report["suites"].values())
    n_bad = sum(1 for s in report["suites"].values()
                for c in s["checks"] if not c["passed"])
    print(f"verify: {n_checks - n_bad}/{n_checks} checks passed")
    return 0 if report["passed"] else 1


# Each command: (body, surfaces needed, default out); a body takes the config
# and the output path (None prints to stdout) and returns its exit code, or
# None for 0.
COMMANDS = {
    "intersect": (_run_intersect, 2, "curve.csv"),
    "characteristics": (_run_characteristics, 1, "characteristics.csv"),
    "verify": (_run_verify, 0, None),
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code.

    An output path that cannot be written is reported before any work.
    """
    body, _, default_out = COMMANDS[cfg.command]
    out = cfg.out or default_out
    try:
        if out:
            _check_writable(out)
        return body(cfg, out) or 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the output could not be written
        print(f"config error: out: {e}", file=sys.stderr)
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
    """Run the command line argv; returns the exit code.

    A command line argparse rejects returns its exit code 2, with the usage
    on stderr, and --help returns 0, instead of raising SystemExit.
    """
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code

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
