"""The characteristic field of the intrinsic graph and its characteristics.

Over a graph patch, the scalar graph function phi2hat drives a planar ODE
dtau/deta = beta * phi2hat(eta, tau) with beta = 2 * det(C); its solutions
are the curves along which the composition f1 o Phi2 becomes differentiable
with an explicit derivative.  (The factor beta matches writing the flux term
as det(C) * d/dt(phi^2), since d/dt(phi^2) = 2 phi d/dt(phi).)  The checks of
that derivative (the first-order system, the chain rule and the Taylor-type
expansion) live in verify.
"""

from __future__ import annotations

import math

import numpy as np

from .flowtrace import PathSample, Rect, integrate_through, _anchored_grid, _clamped
from .hgroup import Point
from .hsurface import GraphPatch

__all__ = ["CharField", "characteristic"]


class CharField:
    """The characteristic field of a graph patch in vertical-plane coordinates.

    rhs(eta, tau), or calling the field, is the characteristic speed
    beta * phi2hat.  It evaluates only inside the patch window, as
    GraphPatch.solve_scalar does; a march that can step past it clamps the
    field through flowtrace._clamped.  On arrays, phi, graph_coords and rhs
    solve at once by GraphPatch.solve_many from the base root, reading or
    writing no hint.  On floats (the march, the lift, and verify's
    chain-rule and directional checks) each graph solve starts Newton from
    the previous float solve's root, kept in _hint, and during a march
    (march) in a local that is written back to _hint when the march ends.
    That warm start moves a root only by rounding, so a float value
    depends, in its last bits, on what the field solved before.
    """

    def __init__(self, patch: GraphPatch):
        self.patch = patch
        self.beta = 2.0 * patch.frame.detC
        self._hint: float | None = None

    def __call__(self, eta, tau):
        return self.rhs(eta, tau)

    def phi(self, eta, tau):
        """The graph scalar phi2hat at a planar point, or at arrays of them."""
        if isinstance(eta, np.ndarray) or isinstance(tau, np.ndarray):
            return self.patch.solve_many(eta, tau)
        self._hint = self.patch.solve_scalar((eta, tau), self._hint)
        return self._hint

    def rhs(self, eta, tau):
        return self.beta * self.phi(eta, tau)

    def graph_coords(self, eta, tau) -> tuple:
        """Coordinates of the graph point above (eta, tau), floats or arrays."""
        return self.patch.line_coords(eta, tau, self.phi(eta, tau))

    def graph_point(self, eta: float, tau: float) -> Point:
        return Point(*self.graph_coords(eta, tau))

    def march(self, box: Rect, eta_a: float, tau_a: float, direction: int, n_steps: int,
              step: float, tau_lo: float, tau_hi: float) -> np.ndarray:
        """flowtrace._heun_march of this field clamped into box, each solve inline.

        Each evaluation clamps as flowtrace._clamped does and solves as
        solve_scalar does: the compiled Newton kernel from the previous root,
        _bisect when Newton fails, ValueError outside the patch window.  The
        root is read from _hint at the start and written back at the end,
        after an exception too, so values and hint equal those of the
        generic march over the clamped rhs bit for bit.
        """
        (emin, emax), (tmin, tmax) = box.eta, box.tau
        elo, ehi, tlo, thi = self.patch._bounds
        newton, bisect, base = self.patch._newton_from, self.patch._bisect, self.patch._s_base
        beta, dt, hint = self.beta, direction * step, self._hint
        vals = [tau_a]
        eta, tau = eta_a, tau_a
        try:
            for j in range(1, n_steps + 1):
                eta_next = eta_a + j * dt
                e, t = eta, tau
                if not (emin <= e <= emax and tmin <= t <= tmax):
                    e, t = min(max(e, emin), emax), min(max(t, tmin), tmax)
                if not (elo <= e <= ehi and tlo <= t <= thi):
                    raise ValueError(f"n = ({e!r}, {t!r}) outside the patch window")
                s = newton(e, t, base if hint is None else hint)
                hint = s if s is not None else bisect(e, t)
                k1 = beta * hint
                e, t = eta_next, tau + dt * k1
                if not (emin <= e <= emax and tmin <= t <= tmax):
                    e, t = min(max(e, emin), emax), min(max(t, tmin), tmax)
                if not (elo <= e <= ehi and tlo <= t <= thi):
                    raise ValueError(f"n = ({e!r}, {t!r}) outside the patch window")
                s = newton(e, t, hint)
                hint = s if s is not None else bisect(e, t)
                tau_next = tau + 0.5 * dt * (k1 + beta * hint)
                if not (tau_lo <= tau_next <= tau_hi) or not math.isfinite(tau_next):
                    break
                eta, tau = eta_next, tau_next
                vals.append(tau)
        finally:
            self._hint = hint
        return np.array(vals)


def characteristic(cf: CharField, tau0: float, window: Rect | None = None,
                   step: float = 1e-3) -> PathSample:
    """The characteristic through (0, tau0) across the window, on the clamped field.

    The window (the patch window by default) must lie inside the patch
    window, or ValueError is raised: past it the clamped field is not the
    characteristic field.  The clamp only continues the field for Heun
    predictors that step past the window.  The field is cf clamped into the
    patch window, so both directions run CharField.march.
    """
    box = cf.patch.window
    window = window or box
    corners = ((window.eta[0], window.tau[0]), (window.eta[1], window.tau[1]))
    if not all(box.contains(*c) for c in corners):
        raise ValueError(f"window {window} is not inside the patch window {box}")
    if not window.contains(0.0, tau0):
        raise ValueError(f"(0, {tau0!r}) outside the window")
    grid = _anchored_grid(0.0, window, step)
    return integrate_through(_clamped(cf, box), 0.0, tau0, grid, window.tau)
