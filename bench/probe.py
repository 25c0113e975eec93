"""A fixed pure-Python loop that measures how fast the host runs right now.

The measuring host drifts between a fast and a slow regime, up to 1.9x
apart, and CPU time drifts with wall time.  The loop does the kind of work
the program does (small objects, attribute access, float arithmetic,
polynomial terms from a dict) and never changes, so its fastest time in a
run gives the unit in which `round_rel` states the program's time.
"""

from __future__ import annotations

from time import perf_counter


class _P:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        self.a = a
        self.b = b
        self.c = c


def _mul(p: _P, q: _P) -> _P:
    return _P(p.a + q.a, p.b + q.b, p.c + q.c + 0.5 * (p.a * q.b - p.b * q.a))


_POLY = {(i, j, k): 1.0 / (1 + i + 2 * j + 3 * k)
         for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3}
_STEP = _P(1e-3, -2e-3, 5e-4)


def _loop(n: int) -> float:
    p, acc = _P(0.0, 0.0, 0.0), 0.0
    for _ in range(n):
        p = _mul(p, _STEP)
        for (i, j, k), c in _POLY.items():
            acc += c * p.a ** i * p.b ** j * p.c ** k
    return acc


def probe(n: int = 1500) -> float:
    """Seconds one run of the loop takes (about 6.5 ms on a fast host).

    Long enough to average the host's speed over several milliseconds: when
    fast and slow stretches alternate quickly, a shorter loop more often
    falls into a fast gap that the operation around it did not share.
    """
    start = perf_counter()
    _loop(n)
    return perf_counter() - start
