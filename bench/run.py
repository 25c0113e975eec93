"""Benchmark of the heisencurve pipeline and its verification suites.

    python3 bench/run.py --workload <reference|poly-pairs|verify>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
One process, no threads or subprocesses.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 times whole rounds of the workload's operations until --seconds
is used up and reports the end-to-end metrics.  Around every operation a
fixed probe loop is timed too; ``round_rel`` is the round's time in units
of the probe's time at that moment, which cancels most of the host's speed
drift.
--trace 1 alternates an untraced and a traced round and reports the
per-layer metrics of the traced rounds, each per round, plus the tracing
overhead; spans and counts are written to
bench/out/trace-<workload>-<seed>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from probe import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 10        # set-ups before the first round
SETUP_INTERVAL = 0.5      # seconds between set-ups during the rounds
MIN_ROUNDS = 2


def program_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "heisencurve" or k.startswith("heisencurve.")}


def import_program() -> dict:
    """Import heisencurve afresh from src/ and return its package and modules."""
    for name in program_modules():
        del sys.modules[name]
    pkg = importlib.import_module("heisencurve")
    mods = {"heisencurve": pkg}
    for short in ("hgroup", "hsurface", "characteristics", "flowtrace", "intersect",
                  "verify", "cli"):
        mods[short] = importlib.import_module(f"heisencurve.{short}")
    return mods


class Recorder:
    """Times calls into the program and counts attempted and failed operations.

    Times are kept per operation label, apart for untraced and traced rounds.
    The cyclic garbage is collected before each operation, and the probe
    loop is timed right before and right after it.  The operation's time
    divided by the mean of those two probe times is its relative time: the
    host's speed at that moment cancels out of it.  Between untraced
    operations, once SETUP_INTERVAL has passed, one more set-up is timed
    with ``set_up``.
    """

    def __init__(self, set_up):
        self.attempted = 0
        self.failed = 0
        self.times: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.rel: dict[str, list[float]] = {}
        self.probes: list[float] = []
        self.set_up = set_up
        self.setups: list[float] = []
        self.next_setup = 0.0
        self.tracer = None

    def _probe(self) -> float:
        took = probe()
        self.probes.append(took)
        return took

    def op(self, label: str, fn, *args):
        self.attempted += 1
        traced = self.tracer is not None
        if not traced and perf_counter() >= self.next_setup:
            self.setups.append(self.set_up())
            self.next_setup = perf_counter() + SETUP_INTERVAL
        gc.collect()
        before = self._probe()
        start = perf_counter()
        try:
            result = self.tracer.span(f"bench.{label}")(fn, *args) if traced else fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        dur = perf_counter() - start
        after = self._probe()
        self.times[traced].setdefault(label, []).append(dur)
        if not traced:
            self.rel.setdefault(label, []).append(dur / (0.5 * (before + after)))
        return result

    def best(self, prefix: str = "", traced: bool = False) -> float:
        """Sum, over the operations whose label starts with prefix, of each one's fastest time."""
        return sum(min(v) for k, v in self.times[traced].items() if k.startswith(prefix))

    def relative_round(self) -> float:
        """Sum, over the round's operations, of each one's median relative time."""
        return sum(statistics.median(v) for v in self.rel.values())


def set_up(workload_cls, seed: int, workdir: Path) -> float:
    """Seconds to import the program afresh and build a workload's inputs.

    The inputs go to a new workload object that is then dropped, and the
    modules the run uses are put back into sys.modules, so set-ups can be
    timed between any two operations.  Spread over the run, they give the
    fastest of them many chances to fall outside a slow stretch of the host.
    """
    live = program_modules()
    start = perf_counter()
    workload_cls(seed, workdir).build(SimpleNamespace(**import_program()))
    took = perf_counter() - start
    sys.modules.update(live)
    return took


def guarded(problems: list[str], check) -> None:
    """Run a check; an exception inside it is a failed check, not a crash."""
    try:
        problems += check()
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{check.__qualname__} raised {type(e).__name__}: {e}")


def play_round(workload, rec: Recorder, problems: list[str]) -> None:
    workload.round(rec.op)
    guarded(problems, workload.check)


def layer_metrics(tr, rounds: int, extra: dict) -> dict:
    c, t, s = tr.counts, tr.times, tr.self_times
    solves = c["hsurface.solve_scalar.calls"]
    members = c["flowtrace.family_members"]
    per = {
        "hgroup.mul.calls": c["hgroup.mul.calls"],
        "hgroup.Point.count": c["hgroup.Point.calls"],
        "hsurface.solve_scalar.calls": solves,
        "hsurface.solve_scalar.s": t["hsurface.solve_scalar"],
        "hsurface.cold_solves": c["hsurface.cold_solves"],
        "hsurface.GraphPatch.s": t["hsurface.GraphPatch"],
        "characteristics.rhs.calls": c["characteristics.rhs.calls"],
        "characteristics.rhs.s": t["characteristics.rhs"],
        "characteristics.graph_point.calls": c["characteristics.graph_point.calls"],
        "characteristics.graph_point.s": t["characteristics.graph_point"],
        "flowtrace.field.calls": c["flowtrace.field.calls"],
        "flowtrace.integrate_through.calls": c["flowtrace.integrate_through.calls"],
        "flowtrace.level_trace.s": t["flowtrace.level_trace"],
        "flowtrace.level_trace.self_s": s["flowtrace.level_trace"],
        "flowtrace.extremal_solutions.s": t["flowtrace.extremal_solutions"],
        "flowtrace.build_family.s": t["flowtrace.build_family"],
        "intersect.intersect_surfaces.s": t["intersect.intersect_surfaces"],
        "intersect.intersect_surfaces.self_s": s["intersect.intersect_surfaces"],
        "intersect.brute_force_zero_cloud.s": t["intersect.brute_force_zero_cloud"],
        "intersect.curve_cloud_agreement.s": t["intersect.curve_cloud_agreement"],
        "intersect.gradient_margin.s": t["intersect.gradient_margin"],
        "intersect.cone_property_check.s": t["intersect.cone_property_check"],
        **{f"verify.{k}.s": t[f"verify.{k}"]
           for k in ("group", "graph", "characteristics", "calculus", "flow")},
        "cli.parse_config.s": t["cli.parse_config"],
        "cli.main.self_s": s["cli.main"],
    }
    out = {k: v / rounds if isinstance(v, float) else v // rounds for k, v in per.items()}
    out["hsurface.evals_per_solve"] = (
        c["hsurface.PolySurface.eval.in_solve"] / solves if solves else 0.0)
    out["flowtrace.candidates_per_member"] = (
        c["flowtrace.family_integrations"] / members if members else 0.0)
    out.update(extra)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "heisencurve" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'heisencurve'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy  # noqa: F401  -- a dependency; imported before the timed set-ups
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload_cls, workdir: Path, spec: dict) -> int:
    workload = workload_cls(args.seed, workdir)
    start = perf_counter()
    mods = import_program()
    workload.build(SimpleNamespace(**mods))
    rec = Recorder(lambda: set_up(workload_cls, args.seed, workdir))
    rec.setups.append(perf_counter() - start)
    rec.setups += [rec.set_up() for _ in range(SETUP_REPEATS - 1)]
    rec.next_setup = perf_counter() + SETUP_INTERVAL
    origin = Path(mods["heisencurve"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"bench: heisencurve imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    problems: list[str] = []
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    # The self-test runs once, after the first round, and is left out of the
    # round time that decides whether one more round fits into --seconds.
    start = perf_counter()
    iterations = 0
    tested = 0.0
    while True:
        play_round(workload, rec, problems)
        if tracer is not None:
            tracer.install(mods)
            rec.tracer = tracer
            try:
                play_round(workload, rec, problems)
            finally:
                tracer.uninstall()
                rec.tracer = None
        iterations += 1
        if iterations == 1:
            t0 = perf_counter()
            guarded(problems, workload.self_test)
            tested = perf_counter() - t0
        elapsed = perf_counter() - start
        per_round = (elapsed - tested) / iterations
        done = iterations * (2 if tracer else 1) >= MIN_ROUNDS
        if done and elapsed + per_round > args.seconds:
            break

    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(f"bench: {iterations} rounds in {perf_counter() - start:.1f} s; fastest round "
          f"{rec.best():.4f} s; probe fastest {min(rec.probes) * 1e3:.4f} ms, median "
          f"{statistics.median(rec.probes) * 1e3:.4f} ms of {len(rec.probes)}", file=sys.stderr)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        pairs = [min(v) for k, v in rec.times[False].items() if k.startswith("pair")]
        plain, traced = rec.best(), rec.best(traced=True)
        extra = {
            "cli.csv_bytes": sum(map(len, getattr(workload, "csv_bytes", {}).values())),
            # fastest untraced time of each part of a round
            "curve_A_s": rec.best("curve_A"),
            "curve_B_s": rec.best("curve_B"),
            "funnel_s": rec.best("trace"),
            "pair_s": statistics.median(pairs) if pairs else 0.0,
            "suites_s": rec.best("suite_"),
            "oracle_s": rec.best("oracle_"),
            "probe_s": min(rec.probes),
            "trace.untraced_round_s": plain,
            "trace.traced_round_s": traced,
            "trace.overhead_s": traced - plain,
        }
        values = layer_metrics(tracer, iterations, extra)
    else:
        values = {
            "setup_s": min(rec.setups),
            "round_rel": rec.relative_round(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    table = spec["per_layer" if tracer is not None else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} disagree with {SPEC.name}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
