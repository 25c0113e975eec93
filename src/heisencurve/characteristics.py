"""Characteristics of the intrinsic graph and formula verification checks.

Over a graph patch, the scalar graph function phi2hat drives a planar ODE
dtau/deta = beta * phi2hat(eta, tau) with beta = 2 * det(C); its solutions
are the curves along which the composition f1 o Phi2 becomes differentiable
with an explicit derivative.  (The factor beta matches writing the flux term
as det(C) * d/dt(phi^2), since d/dt(phi^2) = 2 phi d/dt(phi).)

The checking operations return report objects rather than asserting, so a
front end can aggregate them; hard assertions live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flowtrace import PathSample, Rect, integrate_through, _anchored_grid
from .hgroup import Point, VerticalCoords, hnorm
from .hsurface import GraphPatch, SurfaceHandle, y_derivatives

__all__ = [
    "CharField",
    "TaylorBasePoint",
    "SweepReport",
    "characteristic",
    "system_residual",
    "chain_rule_rhs",
    "chain_rule_check",
    "taylor_remainder",
    "directional_derivative_check",
]

# Sample points of chain_rule_check along the path.
CHAIN_RULE_SAMPLES = 5


class CharField:
    """The characteristic field of a graph patch in vertical-plane coordinates.

    rhs(eta, tau) is the characteristic speed beta * phi2hat; source(eta, tau)
    is the forcing -(Y2 f2 / Y1 f2) evaluated at the graph point.  Both clamp
    their arguments into the patch window, which extends them continuously and
    keeps the margin certificate in force.  A per-instance hint for the graph
    solve is kept as a warm start; it only affects speed, never the root.
    """

    def __init__(self, patch: GraphPatch):
        self.patch = patch
        self.beta = 2.0 * patch.frame.detC
        self._hint: float | None = None

    def _clamp(self, eta: float, tau: float) -> VerticalCoords:
        (emin, emax), (tmin, tmax) = self.patch.window
        return VerticalCoords(min(max(eta, emin), emax), min(max(tau, tmin), tmax))

    def _solve(self, eta: float, tau: float) -> float:
        s = self.patch.solve_scalar(self._clamp(eta, tau), hint=self._hint)
        self._hint = s
        return s

    def phi(self, eta: float, tau: float) -> float:
        """The graph scalar phi2hat at a planar point."""
        return self._solve(eta, tau)

    def rhs(self, eta: float, tau: float) -> float:
        return self.beta * self._solve(eta, tau)

    def graph_point(self, eta: float, tau: float) -> Point:
        n = self._clamp(eta, tau)
        s = self._solve(eta, tau)
        return self.patch.line_point(n, s)

    def source(self, eta: float, tau: float) -> float:
        x = self.graph_point(eta, tau)
        y1, y2 = y_derivatives(self.patch.f2, x, self.patch.frame)
        return -y2 / y1

    @property
    def window(self) -> Rect:
        (emin, emax), (tmin, tmax) = self.patch.window
        return Rect((emin, emax), (tmin, tmax))


def characteristic(cf: CharField, tau0: float, window: Rect | None = None,
                   step: float = 1e-3) -> PathSample:
    """The characteristic through (0, tau0) sampled across the window."""
    window = window or cf.window
    if not window.contains(0.0, tau0):
        raise ValueError(f"(0, {tau0!r}) outside the window")
    grid = _anchored_grid(0.0, window, step)
    return integrate_through(cf.rhs, 0.0, tau0, grid, window.tau)


def system_residual(cf: CharField, path: PathSample) -> float:
    """Max defect of the first-order system along a candidate characteristic.

    Along a genuine characteristic, nu(eta) = phi2hat(eta, tau(eta)) must
    satisfy dnu/deta = source; the returned value is the largest midpoint
    defect |delta nu / delta eta - source|.  Second order small for certified
    characteristics, order one for impostors.
    """
    nus = np.array([cf.phi(e, t) for e, t in zip(path.etas, path.values)])
    worst = 0.0
    for i in range(len(path) - 1):
        slope = (nus[i + 1] - nus[i]) / path.step
        e_mid = path.eta0 + (i + 0.5) * path.step
        t_mid = 0.5 * (path.values[i] + path.values[i + 1])
        worst = max(worst, abs(slope - cf.source(e_mid, t_mid)))
    return worst


def _pair_determinant(f1: SurfaceHandle, cf: CharField, x: Point) -> tuple[float, float]:
    y11, y21 = y_derivatives(f1, x, cf.patch.frame)
    y12, y22 = y_derivatives(cf.patch.f2, x, cf.patch.frame)
    return y11 * y22 - y21 * y12, y12


def chain_rule_rhs(f1: SurfaceHandle, cf: CharField, eta: float,
                   path: PathSample) -> float:
    """The derivative of f1 o Phi2 along the characteristic at eta.

    Evaluates -det([[Y1 f1, Y2 f1], [Y1 f2, Y2 f2]]) / Y1 f2 at the graph
    point above (eta, tau(eta)).
    """
    x = cf.graph_point(eta, path.tau_at(eta))
    det, y1f2 = _pair_determinant(f1, cf, x)
    return -det / y1f2


@dataclass
class SweepReport:
    """Errors of a finite-difference check across a sweep of steps."""

    name: str
    h_values: tuple[float, ...]
    max_abs_errors: list[float]
    max_rel_errors: list[float]
    observed_orders: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.observed_orders:
            self.observed_orders = [
                math.log(self.max_abs_errors[i] / max(self.max_abs_errors[i + 1], 1e-300))
                / math.log(self.h_values[i] / self.h_values[i + 1])
                for i in range(len(self.h_values) - 1)
            ]


def _advance_characteristic(cf: CharField, eta: float, tau: float, h: float,
                            n_sub: int = 8) -> float:
    """tau(eta + h) along the characteristic through (eta, tau), h of either sign."""
    dt = h / n_sub
    e, t = eta, tau
    for _ in range(n_sub):
        k1 = cf.rhs(e, t)
        k2 = cf.rhs(e + dt, t + dt * k1)
        t += 0.5 * dt * (k1 + k2)
        e += dt
    return t


def chain_rule_check(f1: SurfaceHandle, cf: CharField, path: PathSample,
                     h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Centered differences of f1 o Phi2 along the path vs the closed form.

    The path is re-integrated locally (fine substeps) to land on the
    characteristic through each sample point, so the difference quotient sees
    the curve itself rather than the path's linear interpolation.
    """
    h_sweep = tuple(h_sweep)
    h_max = max(h_sweep)
    lo = path.eta0 + h_max * 1.01
    hi = path.eta_end - h_max * 1.01
    etas = np.linspace(lo, hi, CHAIN_RULE_SAMPLES)
    abs_errs = []
    rel_errs = []
    for h in h_sweep:
        worst_abs = 0.0
        worst_rel = 0.0
        for eta in etas:
            tau = path.tau_at(float(eta))
            formula = chain_rule_rhs(f1, cf, float(eta), path)
            tp = _advance_characteristic(cf, float(eta), tau, +h)
            tm = _advance_characteristic(cf, float(eta), tau, -h)
            gp = f1.eval(cf.graph_point(float(eta) + h, tp))
            gm = f1.eval(cf.graph_point(float(eta) - h, tm))
            fd = (gp - gm) / (2.0 * h)
            err = abs(fd - formula)
            worst_abs = max(worst_abs, err)
            worst_rel = max(worst_rel, err / max(1.0, abs(formula)))
        abs_errs.append(worst_abs)
        rel_errs.append(worst_rel)
    return SweepReport("chain_rule", h_sweep, abs_errs, rel_errs)


# ---------------------------------------------------------------------------
# Taylor-type expansion around a base point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorBasePoint:
    """A base point of the graph with its cached expansion data.

    n_bar = (eta2_bar, tau1_bar) in N-coordinates, x_bar the graph point
    above it, eta1_bar the graph scalar there, and tau_bar the vertical
    coordinate of x_bar: tau_bar = tau1_bar - eta1_bar * eta2_bar * det C.
    """

    n_bar: VerticalCoords
    x_bar: Point
    eta1_bar: float
    tau_bar: float

    @classmethod
    def from_patch(cls, patch: GraphPatch, n_bar: VerticalCoords) -> "TaylorBasePoint":
        eta1 = patch.solve_scalar(n_bar)
        x_bar = patch.line_point(n_bar, eta1)
        tau_bar = n_bar.tau - eta1 * n_bar.eta * patch.frame.detC
        return cls(n_bar=n_bar, x_bar=x_bar, eta1_bar=eta1, tau_bar=tau_bar)


def taylor_remainder(f1: SurfaceHandle, cf: CharField, base: TaylorBasePoint,
                     n: VerticalCoords) -> tuple[float, float]:
    """Expansion remainder at n and the homogeneous scale it is measured on.

    remainder = f1(Phi2(n)) - f1(Phi2(n_bar))
                + (eta - eta2_bar) / Y1 f2(x_bar) * det(...)
    scale     = ||(eta - eta2_bar) b2 + tau' e3|| with the sheared vertical
    offset tau' = tau - tau_bar - 2 eta eta1_bar det C + eta1_bar eta2_bar det C.
    The ratio remainder / scale vanishes as n approaches the base point.
    """
    det, y1f2 = _pair_determinant(f1, cf, base.x_bar)
    value_n = f1.eval(cf.graph_point(n.eta, n.tau))
    value_b = f1.eval(base.x_bar)
    d_eta = n.eta - base.n_bar.eta
    remainder = value_n - value_b + d_eta / y1f2 * det
    detc = cf.patch.frame.detC
    tau_prime = (n.tau - base.tau_bar
                 - 2.0 * n.eta * base.eta1_bar * detc
                 + base.eta1_bar * base.n_bar.eta * detc)
    scale = hnorm(Point(d_eta, 0.0, tau_prime))
    return remainder, scale


def directional_derivative_check(f1: SurfaceHandle, cf: CharField,
                                 base: TaylorBasePoint,
                                 h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Difference quotients along the sheared direction vs the determinant formula.

    The distinguished direction through the base point is
    z_bar = b2 + 2 eta1_bar det(C) e3; in (eta, tau) coordinates the probe
    moves along (1, 2 eta1_bar det C).
    """
    det, y1f2 = _pair_determinant(f1, cf, base.x_bar)
    formula = -det / y1f2
    slope = 2.0 * base.eta1_bar * cf.patch.frame.detC
    abs_errs = []
    rel_errs = []
    for h in h_sweep:
        vals = []
        for s in (h, -h):
            n = VerticalCoords(base.n_bar.eta + s, base.n_bar.tau + slope * s)
            vals.append(f1.eval(cf.graph_point(n.eta, n.tau)))
        fd = (vals[0] - vals[1]) / (2.0 * h)
        err = abs(fd - formula)
        abs_errs.append(err)
        rel_errs.append(err / max(1.0, abs(formula)))
    return SweepReport("directional_derivative", tuple(h_sweep), abs_errs, rel_errs)
