"""Small numerical kernels: a lazily grown piecewise Taylor path, the
Frenet frame of a spherical curve on it, and adaptive Simpson quadrature.

A TaylorPath follows y(t) from y(0) where a block function gives the
order-TAYLOR_ORDER Taylor coefficients around any t0 exactly from y(t0).
Nodes grow lazily in each direction from 0; the step to the next is read
off the block's two last coefficients so that the dropped tail stays
below TAYLOR_TOL, the high-order Taylor method of Jorba and Zou
(Experimental Math. 14, 2005).  A query is one polynomial evaluation of
the node, found by bisection, whose piece holds t.  Node positions depend
only on the block function, never on the order of queries.  Where the
tail asks for a step below STEP_FLOOR, ChartError is raised instead of
spending unbounded work.

FrenetPath is the path whose block is frenet_series, the exact recursion
for the frame system on the unit sphere with geodesic curvature kappa(s),

    c' = e,    e' = kappa n - c,    n' = -kappa e,

kappa recentred at each node.  The recursion is a scalar recurrence on
Python floats, one 3-tuple per coefficient, like jets.series_power: a
step is a few dozen products, which numpy calls would cost more to
dispatch than to compute.  A backed ruled surface holds a second path,
in v, for its directrix and ruling (ruled.RuledSurface), and every node
of it, like every off-origin local jet, needs one frame series.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ChartError
from .jets import _checked, series_shift

SIMPSON_TOL = 1e-12
TAYLOR_ORDER = 20
TAYLOR_TOL = 1e-16
STEP_FLOOR = 1e-4

_HALF_PI = math.pi / 2
_POWERS = np.arange(TAYLOR_ORDER + 1)


def adaptive_simpson(
    f: Callable[[float], np.ndarray],
    a: float,
    b: float,
    tol: float = SIMPSON_TOL,
    max_depth: int = 30,
) -> np.ndarray:
    """Adaptive Simpson integral of a vector-valued function over [a, b].

    Raises ChartError where a subinterval misses its share of tol after
    max_depth halvings.  No library code calls it, _simpson or SIMPSON_TOL:
    directrices are Taylor paths.  They stay only because perfbench's
    tracer wraps adaptive_simpson by name, and go with the benchmark change
    that re-points the tracer.
    """
    fa, fb = np.asarray(f(a), dtype=float), np.asarray(f(b), dtype=float)
    if a == b:
        return np.zeros_like(fa)
    m = 0.5 * (a + b)
    fm = np.asarray(f(m))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def _simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    # module level rather than nested: a self-referencing closure would keep
    # f, and whatever f holds, alive until the cyclic collector runs
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = np.asarray(f(lm))
    frm = np.asarray(f(rm))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = np.max(np.abs(left + right - whole))
    if err < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        # an integrand no subdivision brings within tolerance (huge or not
        # finite) would otherwise cost up to 2^max_depth evaluations
        raise ChartError(f"adaptive Simpson quadrature does not converge near {m:.6g}")
    return _simpson(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _simpson(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def frenet_series(
    kappa_poly: Sequence[float],
    c0: np.ndarray,
    e0: np.ndarray,
    order: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients of (c, e, n) from c' = e, e' = kappa n - c, n' = -kappa e.

    With n_0 = c_0 x e_0, step k of the recurrence is

        (k + 1) (c, e, n)_(k+1) = (e_k, sum_i kappa_i n_(k-i) - c_k, -sum_i kappa_i e_(k-i)).

    Each step is a few dozen scalar products, too few for numpy to pay
    for its per-call overhead, so it runs on Python floats with each
    coefficient a 3-tuple, and the arrays are built once at the end.
    Python floats overflow silently; a coefficient that left the float
    range from finite data is reported as numpy overflow (jets._checked).
    """
    kappa = np.asarray(kappa_poly, dtype=float)[: order + 1]
    c0, e0 = np.asarray(c0, dtype=float), np.asarray(e0, dtype=float)
    kap = kappa.tolist()
    (cx, cy, cz), (ex, ey, ez) = c0.tolist(), e0.tolist()
    C, E, N = [(cx, cy, cz)], [(ex, ey, ez)], [(cy * ez - cz * ey, cz * ex - cx * ez, cx * ey - cy * ex)]
    for k in range(order):
        # sum_i kappa_i n_(k-i) and sum_i kappa_i e_(k-i)
        knx = kny = knz = kex = key = kez = 0.0
        for a, (nx, ny, nz), (fx, fy, fz) in zip(kap, reversed(N), reversed(E)):
            knx, kny, knz = knx + a * nx, kny + a * ny, knz + a * nz
            kex, key, kez = kex + a * fx, key + a * fy, kez + a * fz
        (cx, cy, cz), (ex, ey, ez), j = C[k], E[k], k + 1
        C.append((ex / j, ey / j, ez / j))
        E.append(((knx - cx) / j, (kny - cy) / j, (knz - cz) / j))
        N.append((-kex / j, -key / j, -kez / j))
    Y = np.array([x for rows in (C, E, N) for row in rows for x in row]).reshape(3, order + 1, 3)
    Y = _checked(Y, kappa, c0, e0)
    return Y[0], Y[1], Y[2]


class TaylorPath:
    """y(t) from y(0) = y0, where block(t0, y(t0)) is the Taylor table of y
    around t0; refusal opens the ChartError raised below STEP_FLOOR."""

    def __init__(self, block: Callable[..., np.ndarray], y0: np.ndarray, refusal: str):
        self._block, self._y0, self._refusal = block, y0, refusal

    @cached_property
    def _nodes(self) -> dict:
        """Per direction: |t| where each piece starts, its Taylor block, and its step."""
        root = self._block(0.0, self._y0)
        return {sign: ([0.0], [root], [_step(root)]) for sign in (1, -1)}

    def state(self, t: float) -> np.ndarray:
        """y(t), from the piece holding t."""
        sign = 1 if t >= 0.0 else -1
        starts, blocks, steps = self._nodes[sign]
        while starts[-1] + steps[-1] <= abs(t):
            if steps[-1] < STEP_FLOOR:
                # + 0.0 prints the root as 0, never as -0
                raise ChartError(
                    f"{self._refusal} {sign * starts[-1] + 0.0:.6f}: "
                    f"Taylor step {steps[-1]:.3e} below {STEP_FLOOR:g}"
                )
            y = (sign * steps[-1]) ** _POWERS @ blocks[-1]
            starts.append(starts[-1] + steps[-1])
            blocks.append(self._block(sign * starts[-1], y))
            steps.append(_step(blocks[-1]))
        idx = bisect_right(starts, abs(t)) - 1
        return (t - sign * starts[idx]) ** _POWERS @ blocks[idx]


def _frame_block(kappa: Sequence[float], s0: float, y: np.ndarray, order: int = TAYLOR_ORDER) -> np.ndarray:
    return np.hstack(frenet_series(series_shift(kappa, s0), y[0:3], y[3:6], order))


class FrenetPath(TaylorPath):
    """Dense frame trajectory s -> (c, e, n) of a spherical unit-speed curve.

    kappa_poly holds the coefficients of the geodesic curvature polynomial.
    The chart is the open interval |s| < pi/2; queries outside it, or past a
    point where the curvature outruns STEP_FLOOR, raise ChartError.
    """

    def __init__(self, kappa_poly: Sequence[float], point0: np.ndarray, tangent0: np.ndarray):
        y0 = np.concatenate([point0, tangent0])
        super().__init__(partial(_frame_block, kappa_poly), y0, "curvature too large near arc length")
        self._kappa = kappa_poly

    def series(self, s0: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Taylor coefficients of (c, e, n) around s0, kappa recentred there."""
        # at s0 = 0 the state is y0, and no node needs growing
        y = self._y0 if s0 == 0.0 else self.state(s0)
        return frenet_series(series_shift(self._kappa, s0), y[0:3], y[3:6], order)

    def state(self, s: float) -> np.ndarray:
        """Frame state (c, e, n) at arc length s."""
        if abs(s) >= _HALF_PI:
            raise ChartError(f"arc length {s:.6f} outside the chart |s| < pi/2")
        return super().state(s)


def _step(block: np.ndarray) -> float:
    """Step whose two last Taylor terms stay below TAYLOR_TOL; 0 if not finite."""
    p = len(block) - 1
    tail = np.max(np.abs(block[-2:]), axis=1)
    if not np.isfinite(tail).all():
        return 0.0
    return min(
        [(TAYLOR_TOL / t) ** (1.0 / j) for j, t in zip((p - 1, p), tail) if t > 0.0],
        default=_HALF_PI,
    )
