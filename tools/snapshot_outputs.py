"""Write the outputs that a behaviour-preserving change keeps byte-identical.

    python tools/snapshot_outputs.py <checkout> <dir>
    python tools/snapshot_outputs.py --times <checkout>
    python tools/snapshot_outputs.py --compare <dir A> <dir B>

The first form imports heisencurve from <checkout>/src and the pair
generator from <checkout>/bench, and writes these 83 files to <dir>:

* curve-{A,B,C,G22}-depth{2,6}.json: the points, params and sorted-key JSON
  meta of intersect_surfaces on A = {x11, x12} and B = {x12, x11 + t}
  (window 0.5, bracket [-2, 2]), C = {x12, x11 + t - x11^3} (window 0.2,
  bracket [-0.5, 0.5]), and the bending curve G22 = {t + x11 - 2 x11^3,
  x12 - 2 x11^2}, whose intersection is (s, 2 s^2, -s + 2 s^3) (window
  0.5, bracket [-2, 2]);
* pair-s<seed>-k<k>-depth<d>.csv: `heisencurve intersect` on the cubic
  pairs of bench/pairs.py, seeds 1-3, k = 0-7, depths 1 and 3;
* char-s<seed>-k<k>.csv: `heisencurve characteristics` of each pair's f2
  at its base point;
* funnel-trace.json and funnel-extremal.json: level_trace of F = eta along
  3|tau|^(2/3) at depth 6, and extremal_solutions on [0, 0.5] at step
  1e-3, with their diagnostics;
* verify.json: the default `heisencurve verify` report.

Floats are written as their shortest round-trip repr, so equal files mean
equal bits.  CI writes the snapshot under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2 and fails unless `diff -r` finds the two directories
identical: identical configs give byte-identical outputs whatever the
string hashing.  The second form compares two snapshot directories: for each
file that differs it prints the largest absolute difference between
corresponding numbers, or "structure differs" when the text around the
numbers, or their count, is not the same.  Below a verify.json that differs
it lists each check whose value or verdict differs, as suite/check with its
value and verdict in <dir A> and then in <dir B>.  It always exits 0.
The --times form prints the wall time of each of the curves A, B, C and
G22 at the default depth, best of three untraced runs, with heisencurve
imported from <checkout>/src.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

PAIR_SEEDS = (1, 2, 3)
PAIR_COUNT = 8
PAIR_DEPTHS = (1, 3)
# A number in JSON or CSV text, not the digits inside a name such as x11.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _cli(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"heisencurve {' '.join(argv)} exited with {code}")


def _problems(hc) -> dict:
    """The reference problems A, B, C and G22, as tag -> (f1, f2, problem keywords)."""
    x11, x12 = hc.PolySurface({(1, 0, 0): 1.0}), hc.PolySurface({(0, 1, 0): 1.0})
    return {
        "A": (x11, x12, {}),
        "B": (x12, hc.PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0}), {}),
        "C": (x12, hc.PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0, (3, 0, 0): -1.0}),
              {"window_half": 0.2, "bracket": (-0.5, 0.5)}),
        "G22": (hc.PolySurface({(0, 0, 1): 1.0, (1, 0, 0): 1.0, (3, 0, 0): -2.0}),
                hc.PolySurface({(0, 1, 0): 1.0, (2, 0, 0): -2.0}), {}),
    }


def _curves(hc, out: Path) -> None:
    for tag, (f1, f2, kw) in _problems(hc).items():
        for depth in (2, 6):
            curve = hc.intersect_surfaces(hc.IntersectionProblem(
                f1, f2, trace=hc.TraceParams(depth=depth), **kw))
            points = [[q.x11, q.x12, q.t] for q in curve.points]
            text = "\n".join([json.dumps(points), json.dumps(curve.params),
                              json.dumps(curve.meta, sort_keys=True)])
            (out / f"curve-{tag}-depth{depth}.json").write_text(text + "\n")


def _pairs(cli, pairs, out: Path, work: Path) -> None:
    for seed in PAIR_SEEDS:
        for k in range(PAIR_COUNT):
            pair = pairs.draw_pair(seed, k)
            for depth in PAIR_DEPTHS:
                config = work / f"pair-s{seed}-k{k}-depth{depth}.json"
                config.write_text(pairs.config_text(pair, depth))
                _cli(cli, ["intersect", "--config", str(config), "--out",
                           str(out / f"{config.stem}.csv")])
            doc = json.loads(pairs.config_text(pair, PAIR_DEPTHS[0]))
            config = work / f"char-s{seed}-k{k}.json"
            config.write_text(json.dumps({
                "command": "characteristics", "surfaces": doc["surfaces"][1:],
                **{key: doc[key] for key in ("base_point", "window", "bracket")}}))
            _cli(cli, ["characteristics", "--config", str(config), "--out",
                       str(out / f"{config.stem}.csv")])


def _funnel(ft, out: Path) -> None:
    def h(eta, tau):
        return 3.0 * np.abs(tau) ** (2.0 / 3.0)

    res = ft.level_trace(h, lambda eta, tau: eta, ft.Rect.centered(0.5, 1.0),
                         ft.TraceParams(depth=6))
    trace = {"xi": res.xi, "zeta": res.zeta,
             "neighborhood": [res.neighborhood.eta, res.neighborhood.tau],
             "band": [band.values.tolist() for band in res.band],
             "diagnostics": res.diagnostics}
    lo, hi, diagnostics = ft.extremal_solutions(h, 0.0, 0.0, ft.Rect((0.0, 0.5)), 1e-3)
    extremal = {"eta0": lo.eta0, "step": lo.step, "lo": lo.values.tolist(),
                "hi": hi.values.tolist(), "diagnostics": diagnostics}
    for name, doc in (("funnel-trace", trace), ("funnel-extremal", extremal)):
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")


def _move(a: str, b: str) -> str:
    """The largest move between the numbers of two texts, or "structure differs"."""
    if NUMBER.split(a) != NUMBER.split(b):
        return "structure differs"
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return f"largest move {max(abs(float(x) - float(y)) for x, y in pairs)!r}"


def _checks(report: str) -> dict:
    """suite/check -> "value verdict" of a verify report, or {} if it is none."""
    try:
        suites = json.loads(report)["suites"]
        return {f"{name}/{c['name']}": f"{c['value']!r} {'passed' if c['passed'] else 'FAILED'}"
                for name, suite in suites.items() for c in suite["checks"]}
    except (ValueError, KeyError, TypeError):
        return {}


def _moved_checks(a: str, b: str) -> list[str]:
    """Each check of two verify reports whose value or verdict differs."""
    ca, cb = _checks(a), _checks(b)
    return [f"  {name}: {ca.get(name, 'absent')} -> {cb.get(name, 'absent')}"
            for name in sorted(ca.keys() | cb.keys()) if ca.get(name) != cb.get(name)]


def compare(dir_a: Path, dir_b: Path) -> None:
    """Print each file of the two directories that differs and how far it moved,
    and below verify.json each check that moved."""
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    moved = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            moved.append(f"{name}: only in {a.parent if a.exists() else b.parent}")
        elif a.read_bytes() != b.read_bytes():
            text_a, text_b = a.read_text(), b.read_text()
            checks = _moved_checks(text_a, text_b) if name == "verify.json" else []
            moved.append("\n".join([f"{name}: {_move(text_a, text_b)}", *checks]))
    print("\n".join(moved + [f"{len(moved)} of {len(names)} files differ"]))


def times(hc) -> str:
    """Wall time of each reference curve at the default depth, best of three."""
    best = {}
    for tag, (f1, f2, kw) in _problems(hc).items():
        prob = hc.IntersectionProblem(f1, f2, **kw)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            hc.intersect_surfaces(prob)
            runs.append(time.perf_counter() - start)
        best[tag] = min(runs)
    return ", ".join(f"{tag} {s:.3f} s" for tag, s in best.items())


def main(argv: list[str]) -> None:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return
    if len(argv) != 2:
        sys.exit("usage: python tools/snapshot_outputs.py <checkout> <dir>\n"
                 "       python tools/snapshot_outputs.py --times <checkout>\n"
                 "       python tools/snapshot_outputs.py --compare <dir A> <dir B>")
    checkout = Path(argv[-1] if argv[0] == "--times" else argv[0]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import heisencurve as hc
    import pairs
    from heisencurve import cli

    if checkout not in Path(hc.__file__).resolve().parents:
        sys.exit(f"heisencurve imported from {hc.__file__}, not from {checkout}")
    if argv[0] == "--times":
        print(times(hc))
        return
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    _curves(hc, out)
    with tempfile.TemporaryDirectory() as work:
        _pairs(cli, pairs, out, Path(work))
    _funnel(hc.flowtrace, out)
    _cli(cli, ["verify", "--out", str(out / "verify.json")])


if __name__ == "__main__":
    main(sys.argv[1:])
