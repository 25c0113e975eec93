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
from dataclasses import astuple, dataclass, field

import numpy as np

from .flowtrace import PathSample, Rect, integrate_through, _anchored_grid, _clamped
from .hgroup import Point, VerticalCoords
from .hsurface import GraphPatch, PolySurface, y_derivatives

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
    is the forcing -(Y2 f2 / Y1 f2) at the graph point.  Both evaluate only
    inside the patch window, as GraphPatch.solve_scalar does; a march that can
    step past it clamps the field through flowtrace._clamped.  On arrays,
    phi, graph_coords, source and rhs (when eta is one) solve at once by
    GraphPatch.solve_many from the base root, reading or writing no hint.
    On floats (the march, the lift and the chain-rule and directional checks)
    each graph solve starts Newton from the previous float solve's root.
    That warm start moves a root only by rounding, so a float value depends,
    in its last bits, on what the field solved before.
    """

    def __init__(self, patch: GraphPatch):
        self.patch = patch
        self.beta = 2.0 * patch.frame.detC
        self._hint: float | None = None

    def phi(self, eta, tau):
        """The graph scalar phi2hat at a planar point, or at arrays of them."""
        if isinstance(eta, np.ndarray) or isinstance(tau, np.ndarray):
            return self.patch.solve_many(eta, tau)
        self._hint = self.patch.solve_scalar((eta, tau), self._hint)
        return self._hint

    def rhs(self, eta, tau):
        # the float branch inline, not through phi: it is the march's hot path
        if isinstance(eta, np.ndarray):
            return self.beta * self.patch.solve_many(eta, tau)
        self._hint = self.patch.solve_scalar((eta, tau), self._hint)
        return self.beta * self._hint

    def graph_coords(self, eta, tau) -> tuple:
        """Coordinates of the graph point above (eta, tau), floats or arrays."""
        return self.patch.line_coords(eta, tau, self.phi(eta, tau))

    def graph_point(self, eta: float, tau: float) -> Point:
        return Point(*self.graph_coords(eta, tau))

    def source(self, eta, tau):
        y1, y2 = y_derivatives(self.patch.f2, self.graph_coords(eta, tau), self.patch.frame)
        return -y2 / y1


def characteristic(cf: CharField, tau0: float, window: Rect | None = None,
                   step: float = 1e-3) -> PathSample:
    """The characteristic through (0, tau0) across the window, on the clamped field.

    The window (the patch window by default) must lie inside the patch
    window, or ValueError is raised: past it the clamped field is not the
    characteristic field.  The clamp only continues the field for Heun
    predictors that step past the window.
    """
    box = Rect(*cf.patch.window)
    window = window or box
    corners = ((window.eta[0], window.tau[0]), (window.eta[1], window.tau[1]))
    if not all(box.contains(*c) for c in corners):
        raise ValueError(f"window {window} is not inside the patch window {box}")
    if not window.contains(0.0, tau0):
        raise ValueError(f"(0, {tau0!r}) outside the window")
    grid = _anchored_grid(0.0, window, step)
    return integrate_through(_clamped(cf.rhs, box), 0.0, tau0, grid, window.tau)


def system_residual(cf: CharField, path: PathSample) -> float:
    """Max defect of the first-order system along a candidate characteristic.

    Along a genuine characteristic, nu(eta) = phi2hat(eta, tau(eta)) must
    satisfy dnu/deta = source; the returned value is the largest midpoint
    defect |delta nu / delta eta - source|.  Second order small for certified
    characteristics, order one for impostors.  nu and the source are one
    array call each, so the field's hint is neither read nor written.
    """
    nus = cf.phi(path.etas, path.values)
    e_mid = path.eta0 + (np.arange(len(path) - 1) + 0.5) * path.step
    t_mid = 0.5 * (path.values[:-1] + path.values[1:])
    defect = np.diff(nus) / path.step - cf.source(e_mid, t_mid)
    return float(np.max(np.abs(defect), initial=0.0))


def _pair_determinant(f1: PolySurface, cf: CharField, x: tuple) -> tuple[float, float]:
    """det([[Y1 f1, Y2 f1], [Y1 f2, Y2 f2]]) and Y1 f2 at the coordinates x."""
    y11, y21 = y_derivatives(f1, x, cf.patch.frame)
    y12, y22 = y_derivatives(cf.patch.f2, x, cf.patch.frame)
    return y11 * y22 - y21 * y12, y12


def chain_rule_rhs(f1: PolySurface, cf: CharField, eta: float,
                   path: PathSample) -> float:
    """The derivative of f1 o Phi2 along the characteristic at eta.

    Evaluates -det([[Y1 f1, Y2 f1], [Y1 f2, Y2 f2]]) / Y1 f2 at the graph
    point above (eta, tau(eta)).
    """
    det, y1f2 = _pair_determinant(f1, cf, cf.graph_coords(eta, path.tau_at(eta)))
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


def chain_rule_check(f1: PolySurface, cf: CharField, path: PathSample,
                     h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Centered differences of f1 o Phi2 along the path vs the closed form.

    The path is re-integrated locally (fine substeps) to land on the
    characteristic through each sample point, so the difference quotient sees
    the curve itself rather than the path's linear interpolation.
    """
    rhs = _clamped(cf.rhs, Rect(*cf.patch.window))
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
            eta = float(eta)
            formula = chain_rule_rhs(f1, cf, eta, path)
            # tau(eta + h) and tau(eta - h), eight Heun steps each way on the
            # field clamped into the patch window
            local = integrate_through(rhs, eta, path.tau_at(eta),
                                      (eta - h, h / 8, 17))
            gp = f1.value_at(*cf.graph_coords(eta + h, float(local.values[-1])))
            gm = f1.value_at(*cf.graph_coords(eta - h, float(local.values[0])))
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
        eta1 = patch.solve_scalar((n_bar.eta, n_bar.tau))
        coords = patch.line_coords(n_bar.eta, n_bar.tau, eta1)
        return cls(n_bar=n_bar, x_bar=Point(*coords), eta1_bar=eta1, tau_bar=coords[2])


def taylor_remainder(f1: PolySurface, cf: CharField, base: TaylorBasePoint,
                     eta, tau) -> tuple:
    """Expansion remainder at n = (eta, tau), floats or arrays, and its scale.

    remainder = f1(Phi2(n)) - f1(Phi2(n_bar))
                + (eta - eta2_bar) / Y1 f2(x_bar) * det(...)
    scale     = ||(eta - eta2_bar) b2 + tau' e3|| = max(|eta - eta2_bar|, sqrt|tau'|)
    with tau' = tau - tau_bar - 2 eta eta1_bar det C + eta1_bar eta2_bar det C.
    The ratio remainder / scale vanishes as n approaches the base point.
    """
    det, y1f2 = _pair_determinant(f1, cf, astuple(base.x_bar))
    value_n = f1.value_at(*cf.graph_coords(eta, tau))
    value_b = f1.value_at(*astuple(base.x_bar))
    d_eta = eta - base.n_bar.eta
    remainder = value_n - value_b + d_eta / y1f2 * det
    detc = cf.patch.frame.detC
    tau_prime = (tau - base.tau_bar
                 - 2.0 * eta * base.eta1_bar * detc
                 + base.eta1_bar * base.n_bar.eta * detc)
    return remainder, np.maximum(np.abs(d_eta), np.sqrt(np.abs(tau_prime)))


def directional_derivative_check(f1: PolySurface, cf: CharField,
                                 base: TaylorBasePoint,
                                 h_sweep=(1e-2, 1e-3, 1e-4)) -> SweepReport:
    """Difference quotients along the sheared direction vs the determinant formula.

    The distinguished direction through the base point is
    z_bar = b2 + 2 eta1_bar det(C) e3; in (eta, tau) coordinates the probe
    moves along (1, 2 eta1_bar det C).
    """
    det, y1f2 = _pair_determinant(f1, cf, astuple(base.x_bar))
    formula = -det / y1f2
    slope = 2.0 * base.eta1_bar * cf.patch.frame.detC
    abs_errs = []
    rel_errs = []
    for h in h_sweep:
        vals = []
        for s in (h, -h):
            vals.append(f1.value_at(*cf.graph_coords(base.n_bar.eta + s,
                                                     base.n_bar.tau + slope * s)))
        fd = (vals[0] - vals[1]) / (2.0 * h)
        err = abs(fd - formula)
        abs_errs.append(err)
        rel_errs.append(err / max(1.0, abs(formula)))
    return SweepReport("directional_derivative", tuple(h_sweep), abs_errs, rel_errs)
