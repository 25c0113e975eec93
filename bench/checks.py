"""Correctness checks made apart from the program, with numpy only.

Every check is a function of plain arrays that returns a list of failure
messages (empty when the output passes).  The perturbations at the end
each spoil an output in the one way a check guards against; ``self_test``
runs every check on its unperturbed and its perturbed output and reports
the checks that do not tell them apart.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

RESIDUAL_TOL = 1e-10      # the configured pipeline tolerance
AXIS_TOL = 1e-8           # curve A against the t-axis
LINE_B_TOL = 1e-6         # curve B against {(-s, 0, s)}
FUNNEL_ETA_TOL = 1e-10    # traced zeros of F = eta
EXTREMAL_TOL = 1e-3       # funnel extremals against tau = 0 and tau = eta^3
PLANTED_TOL = 1e-9        # Euclidean distance of the nearest sample to the base point


def poly_eval(coeffs: dict, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of sum c x11^i x12^j t^k at the rows of pts, and a rounding bound.

    The bound is (n + 4) * eps * sum |term| for n monomials: the standard
    forward error of summing n products of at most four factors.
    """
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    val = np.zeros(len(pts))
    mag = np.zeros(len(pts))
    for (i, j, k), c in coeffs.items():
        term = c * x**i * y**j * t**k
        val += term
        mag += np.abs(term)
    return val, (len(coeffs) + 4) * EPS * mag


# ---------------------------------------------------------------------------
# Checks on sampled curves (rows of x11, x12, t)
# ---------------------------------------------------------------------------

def residuals(pts: np.ndarray, surfaces: list[dict], tol: float = RESIDUAL_TOL) -> list[str]:
    out = []
    for n, coeffs in enumerate(surfaces, start=1):
        val, allowance = poly_eval(coeffs, pts)
        excess = np.abs(val) - (tol + allowance)
        if np.any(excess > 0.0):
            i = int(np.argmax(excess))
            out.append(f"|f{n}| = {abs(val[i]):.3e} > {tol:.0e} at sample {i}")
    return out


def near_axis(pts: np.ndarray) -> list[str]:
    """Homogeneous distance to the t-axis is |(x11, x12)|."""
    d = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    return [] if d <= AXIS_TOL else [f"curve A leaves the t-axis by {d:.3e}"]


def near_line_b(pts: np.ndarray) -> list[str]:
    """Homogeneous distance to {(-s, 0, s)}, bounded above at s = t / (1 - x12).

    For that s the vertical part of (-s, 0, s)^-1 * q vanishes, which leaves
    the horizontal part |(x11 + s, x12)|.
    """
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    d = float(np.max(np.hypot(x + t / (1.0 - y), y)))
    return [] if d <= LINE_B_TOL else [f"curve B leaves its line by {d:.3e}"]


def distinct(pts: np.ndarray) -> list[str]:
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if not len(gaps) or float(gaps.min()) > 0.0:
        return []
    return [f"consecutive samples {int(np.argmin(gaps))} and {int(np.argmin(gaps)) + 1} coincide"]


def relative(pts: np.ndarray, base) -> np.ndarray:
    """Rows of base^-1 * x: (x11 - p11, x12 - p12, t - pt - p11*x12 + p12*x11)."""
    p11, p12, pt = (float(v) for v in base)
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.column_stack([x - p11, y - p12, t - pt - p11 * y + p12 * x])


def ends_reach(pts: np.ndarray, base, reach: float) -> list[str]:
    """The end samples lie on opposite sides of base, each at least reach away
    in the vertical coordinate of base^-1 * x.

    That coordinate is tau + eta * s on the graph point over the planar sample
    (eta, tau); the trace ends at tau = -+ half the window, with eta * s tiny.
    """
    v = relative(pts[[0, -1]], base)[:, 2]
    if v[0] * v[1] < 0.0 and float(np.min(np.abs(v))) >= reach:
        return []
    return [f"curve ends at vertical offsets {v[0]:.4f}, {v[1]:.4f}; both must reach {reach}"]


def sample_count(pts: np.ndarray, expect: int) -> list[str]:
    return [] if len(pts) == expect else [f"{len(pts)} samples, expected {expect}"]


def through_point(pts: np.ndarray, base) -> list[str]:
    d = float(np.min(np.linalg.norm(pts - np.asarray(base, dtype=float), axis=1)))
    return [] if d <= PLANTED_TOL else [f"curve misses the planted zero by {d:.3e}"]


def same_bytes(a: bytes, b: bytes) -> list[str]:
    return [] if a == b else ["repeated run of one config wrote a different CSV"]


# ---------------------------------------------------------------------------
# Funnel trace: planar samples (eta, tau) of the zero set of F = eta
# ---------------------------------------------------------------------------

def funnel_zeros(zeta: np.ndarray) -> list[str]:
    worst = float(np.max(np.abs(zeta[:, 0])))
    return [] if worst <= FUNNEL_ETA_TOL else [f"|eta| = {worst:.3e} on the funnel trace"]


def tau_increasing(zeta: np.ndarray) -> list[str]:
    d = np.diff(zeta[:, 1])
    return [] if np.all(d > 0.0) else [f"tau does not increase strictly (min step {d.min():.3e})"]


def tau_reach(zeta: np.ndarray, reach: float) -> list[str]:
    """The trace starts at tau <= -reach and ends at tau >= reach."""
    lo, hi = float(zeta[0, 1]), float(zeta[-1, 1])
    return [] if lo <= -reach and hi >= reach else [
        f"funnel trace spans tau {lo:.4f} to {hi:.4f}; both ends must reach {reach}"]


def least_samples(pts: np.ndarray, least: int) -> list[str]:
    return [] if len(pts) >= least else [f"{len(pts)} samples, expected at least {least}"]


def funnel_extremals(etas: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """Minimal solution tau = 0 and maximal tau = eta^3 of 3|tau|^(2/3) on eta >= 0."""
    err = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi - etas**3))))
    return [] if err <= EXTREMAL_TOL else [f"extremal solutions miss their branches by {err:.3e}"]


# ---------------------------------------------------------------------------
# Oracles and verification reports
# ---------------------------------------------------------------------------

def cloud_matches(cloud: np.ndarray, surfaces: list[dict], box, grid_n: int,
                  eps: float) -> list[str]:
    """The cloud equals the grid points with |f1| + |f2| < eps, found slice by slice."""
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    y, t = np.meshgrid(axes[1], axes[2], indexing="ij")
    expect = []
    for x in axes[0]:
        pts = np.column_stack([np.full(y.size, x), y.ravel(), t.ravel()])
        total = sum(np.abs(poly_eval(c, pts)[0]) for c in surfaces)
        expect.append(pts[total < eps])
    expect = np.concatenate(expect)
    if expect.shape == cloud.shape and np.array_equal(expect, cloud):
        return []
    return [f"zero cloud has {len(cloud)} points, the grid has {len(expect)}"]


def agreement(value: float, spacing: float) -> list[str]:
    """Two grid spacings, plus 1e-12 for the rounding of the grid coordinates."""
    bound = 2.0 * spacing + 1e-12
    return [] if value <= bound else [f"curve/cloud agreement {value:.3e} > {bound:.3e}"]


def no_violations(counts: list[int]) -> list[str]:
    return [] if not any(counts) else [f"cone property violations {counts}"]


def margin_matches(value: float, expect: float) -> list[str]:
    ok = abs(value - expect) <= 1e-12 * max(1.0, abs(expect))
    return [] if ok else [f"gradient margin {value!r}, closed form {expect!r}"]


def report_ok(report: dict, names: list[str]) -> list[str]:
    """Every expected check is present, finite and within its tolerance."""
    out = []
    got = {c["name"]: c for c in report["checks"]}
    for name in names:
        c = got.get(name)
        if c is None:
            out.append(f"check {name} missing from the report")
            continue
        v, tol = c["value"], c["tolerance"]
        good = math.isfinite(v) and (v >= tol if name in _LARGER_IS_BETTER else v <= tol)
        if not good or not c["passed"]:
            out.append(f"check {name}: value {v!r} against tolerance {tol!r}")
    return out


# Checks whose value must reach its tolerance from above (orders, counts).
_LARGER_IS_BETTER = {"gradient_fd_order", "characteristic_order", "system_negative_control",
                     "chain_rule_random_order", "funnel_zero_count"}


# ---------------------------------------------------------------------------
# Perturbations: each spoils an output so that exactly its check must object
# ---------------------------------------------------------------------------

def nudge(pts: np.ndarray, col: int, delta: float) -> np.ndarray:
    """Move the middle sample by delta along coordinate col."""
    out = pts.copy()
    out[len(out) // 2, col] += delta
    return out


def duplicate_middle(pts: np.ndarray) -> np.ndarray:
    i = len(pts) // 2
    return np.concatenate([pts[:i + 1], pts[i:]])


def trim_ends(pts: np.ndarray) -> np.ndarray:
    """Drop the outer tenth of each arm of the curve (at least one sample)."""
    k = max(1, math.ceil(0.1 * (len(pts) - 1) / 2))
    return pts[k:len(pts) - k]


def thin(pts: np.ndarray) -> np.ndarray:
    """Keep every other sample, ends included."""
    return pts[::2]


def drop_nearest(pts: np.ndarray, base) -> np.ndarray:
    i = int(np.argmin(np.linalg.norm(pts - np.asarray(base, dtype=float), axis=1)))
    return np.delete(pts, i, axis=0)


def swap_middle(pts: np.ndarray) -> np.ndarray:
    out = pts.copy()
    i = len(out) // 2
    out[[i, i + 1]] = out[[i + 1, i]]
    return out


def flip_byte(b: bytes) -> bytes:
    i = len(b) // 2
    return b[:i] + bytes([b[i] ^ 1]) + b[i + 1:]


def self_test(cases) -> list[str]:
    """cases: (name, check, good_args, bad_args); reports unmet expectations."""
    out = []
    for name, check, good, bad in cases:
        if check(*good):
            out.append(f"{name}: rejects the unperturbed output")
        if not check(*bad):
            out.append(f"{name}: accepts a perturbed output")
    return out
