"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the heisencurve modules and
patches every module attribute that holds one of them, so that calls made
through names imported with ``from .hgroup import mul`` are seen too.
``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper are used:

* spans, for calls made at most a few thousand times per operation: each
  records (name, start, end, parent) in memory, and its self time is its
  duration minus the durations of its direct child spans;
* counters, for the hot calls (group algebra, graph solves, field
  evaluations, millions per operation): they count calls and, where a time
  is reported, add up inclusive time, but push no span.  Their time
  therefore stays inside the self time of the span that called them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("hgroup", "hsurface", "characteristics", "flowtrace", "intersect", "verify", "cli")

# Public functions that are only counted: hot calls and trivial helpers.
# Every other public function of MODULES gets a span.
COUNTED = {
    "hgroup": ("mul", "inv", "dilate", "hnorm", "dist", "make_frame", "project_H",
               "project_N", "embed_N", "coords_N", "horizontal_derivative"),
    "hsurface": ("horiz_grad_poly", "y_derivatives", "solve_graph_scalar", "graph_map"),
    "flowtrace": ("pointwise_max", "pointwise_min", "funnel_section"),
    "intersect": ("cone_contains", "choose_frame", "cone_width_for"),
    "cli": ("run",),
}

# Methods wrapped by hand: (module, class, method, metric name, kind).
METHODS = (
    ("hgroup", "Point", "__post_init__", "hgroup.Point", "count"),
    ("hsurface", "PolySurface", "__call__", "hsurface.PolySurface.eval", "poly"),
    ("hsurface", "GraphPatch", "__init__", "hsurface.GraphPatch", "span"),
    ("hsurface", "GraphPatch", "solve_scalar", "hsurface.solve_scalar", "solve"),
    ("characteristics", "CharField", "rhs", "characteristics.rhs", "timed"),
    ("characteristics", "CharField", "graph_point", "characteristics.graph_point", "timed"),
)

# Flowtrace entry points whose first argument is the field h.
FIELD_TAKERS = {"integrate", "integrate_through", "extremal_solutions", "build_family",
                "level_trace"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = []
        self.child: list[float] = []      # child-span time of each open span
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)       # inclusive seconds
        self.self_times: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.flow_depth = 0
        self.in_solve = 0
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, field_arg: bool = False):
        tr = self
        flow = name.startswith("flowtrace.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if field_arg and tr.flow_depth == 0 and args:
                args = (tr._field(args[0]),) + args[1:]
            tr.counts[name + ".calls"] += 1
            if name == "flowtrace.integrate_through" and tr.active["flowtrace.build_family"]:
                tr.counts["flowtrace.family_integrations"] += 1
            idx = len(tr.spans)
            tr.spans.append([name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1])
            tr.stack.append(idx)
            tr.child.append(0.0)
            tr.active[name] += 1
            tr.flow_depth += flow
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr.flow_depth -= flow
                tr.active[name] -= 1
                tr.stack.pop()
                child = tr.child.pop()
                dur = end - start
                tr.spans[idx][1:3] = [start, end]
                if tr.child:
                    tr.child[-1] += dur
                if not tr.active[name]:
                    tr.times[name] += dur
                tr.self_times[name] += dur - child
            if name == "flowtrace.build_family":
                tr.counts["flowtrace.family_members"] += len(result.members) - 2
            return result

        return wrapper

    def _field(self, h):
        counts = self.counts

        def field(eta, tau):
            counts["flowtrace.field.calls"] += 1
            return h(eta, tau)

        return field

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter() - start

        return wrapper

    def _solve(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(patch, n, hint=None, *args, **kwargs):
            tr.counts[name + ".calls"] += 1
            if hint is None:
                tr.counts["hsurface.cold_solves"] += 1
            tr.in_solve += 1
            start = perf_counter()
            try:
                return fn(patch, n, hint, *args, **kwargs)
            finally:
                tr.times[name] += perf_counter() - start
                tr.in_solve -= 1

        return wrapper

    def _poly(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.counts[name + ".calls"] += 1
            if tr.in_solve:
                tr.counts[name + ".in_solve"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, modules: dict, original, wrapper):
        """Point every module attribute that holds ``original`` at ``wrapper``."""
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, modules: dict):
        """modules: {"heisencurve": package, "hgroup": module, ...}."""
        for short in MODULES:
            mod = modules[short]
            counted = COUNTED.get(short, ())
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if attr in counted:
                    self._replace(modules, fn, self._counted(name + ".calls", fn))
                else:
                    field_arg = short == "flowtrace" and attr in FIELD_TAKERS
                    self._replace(modules, fn, self._span(name, fn, field_arg))
        suites = modules["verify"].SUITES
        for key, fn in list(suites.items()):
            self._patches.append((suites, key, fn))
            suites[key] = self._span(f"verify.{key}", fn)
        make = {"count": lambda n, f: self._counted(n + ".calls", f), "span": self._span,
                "timed": self._timed, "solve": self._solve, "poly": self._poly}
        for short, cls_name, meth, name, kind in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, make[kind](name, fn))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def span(self, name: str):
        """A span around benchmark code: span(name)(fn, *args) calls fn(*args)."""
        return self._span(name, _call)

    def dump(self, path) -> None:
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "inclusive_s": dict(sorted(self.times.items())),
            "self_s": dict(sorted(self.self_times.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _call(fn, *args):
    return fn(*args)
