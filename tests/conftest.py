"""Shared fixtures: the two analytic surfaces used throughout the suite, and helpers."""

import importlib
import sys
from pathlib import Path

import pytest

from heisencurve.characteristics import CharField
from heisencurve.hgroup import Point, make_frame
from heisencurve.hsurface import GraphPatch, PolySurface

POLY_X11 = PolySurface({(1, 0, 0): 1.0})
POLY_X12 = PolySurface({(0, 1, 0): 1.0})
POLY_T = PolySurface({(0, 0, 1): 1.0})
POLY_X11_PLUS_T = PolySurface({(1, 0, 0): 1.0, (0, 0, 1): 1.0})

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """A module of bench/, imported without writing under bench/."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode


def graph_point(patch, eta, tau):
    """The graph point above (eta, tau), from a cold solve."""
    return Point(*patch.line_coords(eta, tau, patch.solve_scalar((eta, tau))))


def solution_residual(path, h) -> float:
    """Max over interior midpoints of |delta tau / delta eta - h(midpoint)|."""
    if len(path) < 2:
        return 0.0
    e = path.etas
    v = path.values
    worst = 0.0
    for i in range(len(v) - 1):
        slope = (v[i + 1] - v[i]) / path.step
        mid = h(0.5 * (e[i] + e[i + 1]), 0.5 * (v[i] + v[i + 1]))
        worst = max(worst, abs(slope - mid))
    return worst


def make_flat_patch():
    """f2 = x12, frame b1 = (0, 1): phi2hat vanishes identically."""
    return GraphPatch(make_frame((0.0, 1.0)), POLY_X12)


def make_affine_patch():
    """f2 = x11 + t, identity frame: phi2hat(eta, tau) = -tau / (1 - eta)."""
    return GraphPatch(make_frame((1.0, 0.0)), POLY_X11_PLUS_T)


@pytest.fixture
def flat_patch():
    return make_flat_patch()


@pytest.fixture
def affine_patch():
    return make_affine_patch()


@pytest.fixture
def flat_field(flat_patch):
    return CharField(flat_patch)


@pytest.fixture
def affine_field(affine_patch):
    return CharField(affine_patch)
