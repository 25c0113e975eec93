"""The package's top-level names: each module's public names, re-exported."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import heisencurve

MODULES = ("characteristics", "errors", "flowtrace", "hgroup", "hsurface", "intersect")
SRC = Path(__file__).resolve().parents[1] / "src" / "heisencurve"
PIPELINE = ("hgroup", "hsurface", "characteristics", "flowtrace", "intersect")
# The oracles bench/workloads.py reads as hc.intersect.*: only verify calls
# them in src/, until ROADMAP item 1(b) or 5 moves or deletes them.
BENCHMARK_ORACLES = {"brute_force_zero_cloud", "curve_cloud_agreement", "gradient_margin",
                     "pair_lipschitz_bound", "cone_property_check", "cone_width_for",
                     "ConeParams"}
# Methods outside the pipeline, as Class.method: the shim bench/workloads.py
# builds its surfaces with, and the verdict of the cone_property_check
# oracle's report, which goes where that oracle goes.
BENCHMARK_METHODS = {"SurfaceHandle.from_polynomial", "ConeReport.ok"}


def public_names(mod) -> list[str]:
    """The module's __all__, or for errors, which has none, its public classes."""
    if hasattr(mod, "__all__"):
        return list(mod.__all__)
    return [n for n, v in vars(mod).items()
            if isinstance(v, type) and v.__module__ == mod.__name__ and not n.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_to_module_objects(name):
    mod = importlib.import_module(f"heisencurve.{name}")
    names = public_names(mod)
    assert names
    for n in names:
        assert getattr(heisencurve, n) is getattr(mod, n), n


def test_readme_quick_start_names_are_public():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"from heisencurve import \(([^)]*)\)", readme).group(1)
    names = {n.strip() for n in block.split(",") if n.strip()}
    exported = {n for m in MODULES
                for n in public_names(importlib.import_module(f"heisencurve.{m}"))}
    assert len(names) == 3 and names <= exported


def _used_names(tree, skip: str | None = None) -> set[str]:
    """Names loaded or attributes read in tree, outside any definition named skip."""
    used = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return used


def _public_methods(tree) -> list[tuple[str, str]]:
    """(Class.method, method) for the public methods and properties of the
    module's public classes."""
    return [(f"{c.name}.{f.name}", f.name) for c in tree.body
            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
            for f in c.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


@pytest.mark.parametrize("name", PIPELINE)
def test_pipeline_names_serve_the_pipeline(name):
    # a public name or method that only verify (or only a test) uses belongs in verify
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in PIPELINE + ("cli",)}
    names = [(n, n) for n in importlib.import_module(f"heisencurve.{name}").__all__
             if n not in BENCHMARK_ORACLES]
    names += [(label, n) for label, n in _public_methods(trees[name])
              if label not in BENCHMARK_METHODS]
    unused = [label for label, n in names
              if not any(n in _used_names(tree, n if m == name else None)
                         for m, tree in trees.items())]
    assert not unused, f"{name}: used outside the pipeline only: {unused}"


def _definitions(tree) -> dict[str, ast.AST]:
    """The module's top-level functions, classes and assigned names, by name."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return defs


def test_verify_names_serve_a_check():
    # every public top-level name of verify is reached from run_suites (and
    # so the suites) or the CLI, so a reference definition cannot outlive its check
    defs = _definitions(ast.parse((SRC / "verify.py").read_text()))
    todo = ["run_suites", *_used_names(ast.parse((SRC / "cli.py").read_text())) & defs.keys()]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_used_names(defs[name]) & defs.keys())
    public = [n for n in defs if not n.startswith("_")]
    assert public and not [n for n in public if n not in reached]


def test_verify_builds_fields_through_the_pipeline():
    # the suites check the graph_field set-up the library and the CLI run,
    # not patches or fields built by hand
    tree = ast.parse((SRC / "verify.py").read_text())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"GraphPatch", "CharField"}
    assert "graph_field" in called
