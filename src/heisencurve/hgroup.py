"""Exact algebra and metric of the first Heisenberg group.

Points are triples (x11, x12, t): two horizontal coordinates that scale
linearly under dilations and one vertical coordinate that scales
quadratically.  The group product adds coordinates and twists the vertical
one by the symplectic form of the horizontal parts.  A frame (b1, b2) and
the coordinates (eta, tau) of the vertical subgroup are what the intrinsic
graph is built on.  All operations here are pure functions of immutable
values, floats or float64 arrays; each array entry equals the float result
bit for bit.  The dilations, factorizing projections and finite-difference
derivatives that check this algebra live in verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Frame",
    "VerticalCoords",
    "ORIGIN",
    "mul",
    "inv",
    "hnorm",
    "dist",
    "make_frame",
]


@dataclass(frozen=True)
class Point:
    """A group element (x11, x12, t); t carries units of length squared."""

    x11: float
    x12: float
    t: float

    def __post_init__(self):
        try:
            if math.isfinite(self.x11) and math.isfinite(self.x12) and math.isfinite(self.t):
                return
        except TypeError:  # an array coordinate
            pass
        for name in ("x11", "x12", "t"):
            v = np.asarray(getattr(self, name))
            bad = v[~np.isfinite(v)].tolist()  # first non-finite entry in C order
            if bad:
                raise ValueError(f"Point coordinate {name} must be finite, got {bad[0]!r}")

    def horizontal(self) -> tuple[float, float]:
        return (self.x11, self.x12)


ORIGIN = Point(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Frame:
    """A horizontal basis (b1, b2); b1 spans H, (b2, e3) spans the vertical subgroup N.

    The change-of-basis matrix C has rows b1 and b2 expressed in the fixed
    orthonormal horizontal basis (e1, e2).
    """

    b1: tuple[float, float]
    b2: tuple[float, float]

    def __post_init__(self):
        for name, vec in (("b1", self.b1), ("b2", self.b2)):
            n = math.hypot(*vec)
            if not abs(n - 1.0) <= 1e-12:
                raise ValueError(f"Frame vector {name} must be unit length, |{name}| = {n!r}")
        if not abs(self.detC) > 0.0:
            raise ValueError("Frame vectors b1, b2 must be linearly independent")

    @property
    def detC(self) -> float:
        return self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]


@dataclass(frozen=True)
class VerticalCoords:
    """Coordinates (eta, tau) of a point eta*b2 + tau*e3 of the vertical subgroup."""

    eta: float
    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.eta).all() and np.isfinite(self.tau).all()):
            raise ValueError(f"VerticalCoords must be finite, got {(self.eta, self.tau)!r}")


def _omega_bar(x1: tuple[float, float], y1: tuple[float, float]) -> float:
    # symplectic form of the horizontal parts; feeds the vertical twist
    return x1[0] * y1[1] - y1[0] * x1[1]


def mul(x: Point, y: Point) -> Point:
    """Group product: coordinates add, t picks up the twist omega(x1, y1)."""
    return Point(
        x.x11 + y.x11,
        x.x12 + y.x12,
        x.t + y.t + _omega_bar(x.horizontal(), y.horizontal()),
    )


def inv(x: Point) -> Point:
    """Group inverse; equals coordinate-wise negation."""
    return Point(-x.x11, -x.x12, -x.t)


def _hypot(a, b):
    """math.hypot per entry, as float64: numpy's hypot is not always correctly rounded."""
    return np.asarray(np.frompyfunc(math.hypot, 2, 1)(a, b), dtype=float)


def hnorm(x: Point):
    """Homogeneous norm max(|x1|, sqrt(|t|)), 1-homogeneous; numpy float64 or array."""
    return np.maximum(_hypot(x.x11, x.x12), np.sqrt(np.abs(x.t)))


def dist(x: Point, y: Point):
    """Left-invariant homogeneous distance ||x^-1 * y||."""
    return hnorm(mul(inv(x), y))


def make_frame(b1: tuple[float, float]) -> Frame:
    """Frame with the given unit horizontal direction and b2 = b1 rotated by +pi/2.

    The rotation makes (b1, b2) orthonormal with det C = 1, which keeps
    norms on the vertical subgroup Euclidean and fixes the sign convention
    used throughout.
    """
    n = math.hypot(*b1)
    if not 1e-12 <= n < math.inf:
        raise ValueError(f"b1 must be a finite nonzero horizontal vector, got {b1!r}")
    u = (b1[0] / n, b1[1] / n)
    return Frame(b1=u, b2=(-u[1], u[0]))
