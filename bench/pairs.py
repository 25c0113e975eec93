"""Seeded random surface pairs with a planted common zero, as CLI configs.

Each pair is built in coordinates q = p^-1 * x centred at a base point p:

    g2(q) = u . (q11, q12) + P2(q),    g1(q) = v . (q11, q12) + P1(q)

with unit horizontal directions u, v at an angle between 45 and 135 degrees
and perturbations P1, P2 made of every monomial of degree 1 to 3 except
q11 and q12.  Each perturbation coefficient is scaled by a bound of that
monomial's horizontal gradient over the region the pipeline visits, so that
|X P| <= GRAD_BUDGET there.  The hypotheses of the construction then hold
by construction, and no draw is ever discarded:

* common zero: g1(0) = g2(0) = 0, so f1(p) = f2(p) = 0;
* independent normals: grad_H g(0) is u, resp. v (P has no linear
  horizontal part, and the gradient of every other monomial vanishes at 0);
* graph margin: |Y1 f2| >= 1 - GRAD_BUDGET over window x bracket;
* monotonicity: the pair determinant stays >= (sin 45 - b)(1 - b) - (1 + b) b
  > 0 with b = GRAD_BUDGET.

The surfaces handed to the program are f_i(x) = g_i(p^-1 * x), expanded into
monomials of x.  Left translation is linear in x, so the degree stays <= 3.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

WINDOW = 0.5
BRACKET = (-2.0, 2.0)
GRAD_BUDGET = 0.15

# Region visited by the graph solves in q-coordinates: horizontal part
# eta*b2 + s*b1 and vertical part tau - eta*s (det C = 1).
_B = WINDOW + max(abs(b) for b in BRACKET)
_T = WINDOW + WINDOW * max(abs(b) for b in BRACKET)

MONOMIALS = [
    m for m in itertools.product(range(4), repeat=3)
    if 1 <= sum(m) <= 3 and m not in ((1, 0, 0), (0, 1, 0))
]


def _grad_bound(m) -> float:
    """Upper bound of |X1 m| + |X2 m| over |q11|, |q12| <= _B, |t| <= _T."""
    i, j, k = m
    vert = k * _B ** (i + j + 1) * _T ** max(k - 1, 0)  # |q12 dt m|, |q11 dt m|
    x1 = i * _B ** max(i - 1 + j, 0) * _T ** k + vert
    x2 = j * _B ** max(i + j - 1, 0) * _T ** k + vert
    return x1 + x2


def _perturbation(rng) -> dict:
    share = GRAD_BUDGET / len(MONOMIALS)
    return {m: float(share * rng.uniform(-1.0, 1.0) / _grad_bound(m)) for m in MONOMIALS}


# -- polynomials as {(i, j, k): coefficient} dicts ---------------------------

def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
        out[e] = out.get(e, 0.0) + ca * cb
    return out


def _ppow(a: dict, n: int) -> dict:
    out = {(0, 0, 0): 1.0}
    for _ in range(n):
        out = _pmul(out, a)
    return out


def expand_translated(g: dict, p) -> dict:
    """Monomials of x -> g(p^-1 * x), with p^-1 * x = (x11 - p11, x12 - p12,
    t - pt - p11*x12 + p12*x11)."""
    p11, p12, pt = p
    q = (
        {(1, 0, 0): 1.0, (0, 0, 0): -p11},
        {(0, 1, 0): 1.0, (0, 0, 0): -p12},
        {(0, 0, 1): 1.0, (0, 0, 0): -pt, (0, 1, 0): -p11, (1, 0, 0): p12},
    )
    out: dict = {}
    for (i, j, k), c in g.items():
        term = _pmul(_pmul(_ppow(q[0], i), _ppow(q[1], j)), _ppow(q[2], k))
        for e, v in term.items():
            out[e] = out.get(e, 0.0) + c * v
    return out


def draw_pair(seed: int, index: int) -> dict:
    """One pair: base point, the q-frame polynomials g1, g2 and the expanded f1, f2."""
    rng = np.random.default_rng([seed, index])
    direction = rng.normal(size=3)
    p = tuple(float(v) for v in rng.uniform(0.3, 1.0) * direction / np.linalg.norm(direction))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = theta + rng.choice([-1.0, 1.0]) * rng.uniform(math.pi / 4, 3 * math.pi / 4)
    g2 = {(1, 0, 0): math.cos(theta), (0, 1, 0): math.sin(theta), **_perturbation(rng)}
    g1 = {(1, 0, 0): math.cos(phi), (0, 1, 0): math.sin(phi), **_perturbation(rng)}
    return {"p": p, "g1": g1, "g2": g2,
            "f1": expand_translated(g1, p), "f2": expand_translated(g2, p)}


def config_text(pair: dict, depth: int) -> str:
    """The `heisencurve intersect` config for a pair, as JSON text."""
    def quads(f):
        return [[i, j, k, c] for (i, j, k), c in sorted(f.items())]

    return json.dumps({
        "command": "intersect",
        "surfaces": [quads(pair["f1"]), quads(pair["f2"])],
        "base_point": list(pair["p"]),
        "window": WINDOW,
        "bracket": list(BRACKET),
        "depth": depth,
    })
