"""The package's top-level names: each module's public names, re-exported."""

import importlib
import re
from pathlib import Path

import pytest

import heisencurve

MODULES = ("characteristics", "errors", "flowtrace", "hgroup", "hsurface", "intersect")


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
