"""Exact algebra and metric of the first Heisenberg group.

Points are triples (x11, x12, t): two horizontal coordinates that scale
linearly under dilations and one vertical coordinate that scales
quadratically.  The group product adds coordinates and twists the vertical
one by the symplectic form of the horizontal parts.  All operations here
are pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotInVerticalSubgroup

__all__ = [
    "Point",
    "Frame",
    "VerticalCoords",
    "ORIGIN",
    "mul",
    "inv",
    "dilate",
    "hnorm",
    "dist",
    "make_frame",
    "project_H",
    "project_N",
    "embed_N",
    "coords_N",
    "horizontal_derivative",
]

# Largest b1-coefficient, relative to 1 + |x1|, that coords_N accepts.
VERTICAL_TOL = 1e-10


@dataclass(frozen=True)
class Point:
    """A group element (x11, x12, t); t carries units of length squared."""

    x11: float
    x12: float
    t: float

    def __post_init__(self):
        for name in ("x11", "x12", "t"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Point coordinate {name} must be finite, got {v!r}")

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
            if abs(n - 1.0) > 1e-12:
                raise ValueError(f"Frame vector {name} must be unit length, |{name}| = {n!r}")
        if self.detC == 0.0:
            raise ValueError("Frame vectors b1, b2 must be linearly independent")

    @property
    def detC(self) -> float:
        return self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]

    def horizontal_coeffs(self, x1: tuple[float, float]) -> tuple[float, float]:
        """Coefficients (a, e) with x1 = a*b1 + e*b2."""
        d = self.detC
        a = (x1[0] * self.b2[1] - x1[1] * self.b2[0]) / d
        e = (self.b1[0] * x1[1] - self.b1[1] * x1[0]) / d
        return a, e


@dataclass(frozen=True)
class VerticalCoords:
    """Coordinates (eta, tau) of a point eta*b2 + tau*e3 of the vertical subgroup."""

    eta: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and math.isfinite(self.tau)):
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


def dilate(r: float, x: Point) -> Point:
    """Anisotropic dilation: horizontal part scales by r, vertical by r**2."""
    if r <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {r!r}")
    return Point(r * x.x11, r * x.x12, r * r * x.t)


def hnorm(x: Point) -> float:
    """Homogeneous norm max(|x1|, sqrt(|t|)); 1-homogeneous under dilations."""
    return max(math.hypot(x.x11, x.x12), math.sqrt(abs(x.t)))


def dist(x: Point, y: Point) -> float:
    """Left-invariant homogeneous distance ||x^-1 * y||."""
    return hnorm(mul(inv(x), y))


def make_frame(b1: tuple[float, float]) -> Frame:
    """Frame with the given unit horizontal direction and b2 = b1 rotated by +pi/2.

    The rotation makes (b1, b2) orthonormal with det C = 1, which keeps
    norms on the vertical subgroup Euclidean and fixes the sign convention
    used throughout.
    """
    n = math.hypot(*b1)
    if n < 1e-12:
        raise ValueError("b1 must be a nonzero horizontal vector")
    u = (b1[0] / n, b1[1] / n)
    return Frame(b1=u, b2=(-u[1], u[0]))


def _horizontal_point(v: tuple[float, float], s: float = 1.0) -> Point:
    return Point(s * v[0], s * v[1], 0.0)


def project_H(x: Point, fr: Frame) -> Point:
    """Horizontal-subgroup component x_H = a*b1 where x1 = a*b1 + e*b2."""
    a, _ = fr.horizontal_coeffs(x.horizontal())
    return _horizontal_point(fr.b1, a)


def project_N(x: Point, fr: Frame) -> Point:
    """Vertical-subgroup component pi_N(x) = x - x_H - omega(x1, x_H).

    Together with project_H this inverts the product map (n, v) -> n*v,
    so mul(project_N(x), project_H(x)) == x.
    """
    xh = project_H(x, fr)
    return Point(
        x.x11 - xh.x11,
        x.x12 - xh.x12,
        x.t - _omega_bar(x.horizontal(), xh.horizontal()),
    )


def embed_N(v: VerticalCoords, fr: Frame) -> Point:
    """The point eta*b2 + tau*e3 of the vertical subgroup."""
    return Point(v.eta * fr.b2[0], v.eta * fr.b2[1], v.tau)


def coords_N(n: Point, fr: Frame) -> VerticalCoords:
    """Inverse of embed_N; rejects points with a nonzero b1-coefficient."""
    a, e = fr.horizontal_coeffs(n.horizontal())
    scale = 1.0 + math.hypot(n.x11, n.x12)
    if abs(a) > VERTICAL_TOL * scale:
        raise NotInVerticalSubgroup(
            f"point has b1-coefficient {a:.3e}, beyond tolerance {VERTICAL_TOL * scale:.3e}"
        )
    return VerticalCoords(e, n.t)


def horizontal_derivative(f, x: Point, direction: tuple[float, float], h: float = 1e-6) -> float:
    """Central difference of s -> f(x * (s*direction)) at s = 0.

    Numeric stand-in for the left-invariant derivative of f at x along a
    horizontal direction; second-order accurate in h.  Accepts either a
    plain callable Point -> real or any object with an ``eval`` attribute.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    fe = getattr(f, "eval", f)
    fp = fe(mul(x, _horizontal_point(direction, h)))
    fm = fe(mul(x, _horizontal_point(direction, -h)))
    return (fp - fm) / (2.0 * h)
