"""Small numerical kernels: adaptive Simpson quadrature and a piecewise
Taylor integrator for the Frenet frame of a spherical curve.

The frame system on the unit sphere, for geodesic curvature kappa(s),

    c' = e,    e' = kappa n - c,    n' = -kappa e,

is linear and kappa is a polynomial, so the Taylor coefficients of
(c, e, n) around any point follow exactly from a short recursion
(frenet_series) once kappa is recentred there.  FrenetPath grows nodes
lazily in each direction from s = 0.  Each node holds the order-TAYLOR_ORDER
block of that series, and the step to the next node is read off the decay
of the block's two last coefficients so that the dropped tail stays below
TAYLOR_TOL: the high-order Taylor method of Jorba and Zou (Experimental
Math. 14, 2005).  A frame query is one polynomial evaluation of the node
whose piece holds s.  Where the tail asks for a step below STEP_FLOOR the
curvature is too large for the chart to be followed, and ChartError is
raised instead of spending unbounded work.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .errors import ChartError
from .jets import vpoly

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
    max_depth halvings.
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
    """Taylor coefficients of (c, e, n) from c' = e, e' = kappa n - c, n' = -kappa e."""
    kap = kappa_poly[: order + 1]
    Y = np.zeros((order + 1, 9))  # row k: k-th coefficients of c, e, n
    Y[0, :3], Y[0, 3:6], Y[0, 6:] = c0, e0, np.cross(c0, e0)
    for k in range(order):
        ken = sum(kap[i] * Y[k - i, 3:] for i in range(min(k + 1, len(kap))))
        Y[k + 1] = np.concatenate([Y[k, 3:6], ken[3:] - Y[k, :3], -ken[:3]]) / (k + 1)
    return Y[:, :3], Y[:, 3:6], Y[:, 6:]


class FrenetPath:
    """Dense frame trajectory s -> (c, e, n) of a spherical unit-speed curve.

    kappa_poly holds the coefficients of the geodesic curvature polynomial.
    The chart is the open interval |s| < pi/2; queries outside it, or past a
    point where the curvature outruns STEP_FLOOR, raise ChartError.
    """

    def __init__(self, kappa_poly: Sequence[float], point0: np.ndarray, tangent0: np.ndarray):
        self._kappa = vpoly(kappa_poly, len(kappa_poly) - 1)
        # per direction: |s| where each piece starts, its Taylor block, and its step
        root = np.hstack(self._series(0.0, np.concatenate([point0, tangent0]), TAYLOR_ORDER))
        self._starts = {1: [0.0], -1: [0.0]}
        self._blocks = {1: [root], -1: [root]}
        self._steps = {1: [_step(root)], -1: [_step(root)]}

    def series(self, s0: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Taylor coefficients of (c, e, n) around s0, kappa recentred there."""
        return self._series(s0, self.state(s0), order)

    def _series(self, s0: float, y: np.ndarray, order: int):
        kap = self._kappa.shifted_origin(0.0, s0).c[0]
        return frenet_series(kap, y[0:3], y[3:6], order)

    def state(self, s: float) -> np.ndarray:
        """Frame state (c, e, n) at arc length s, from the piece holding s."""
        if abs(s) >= _HALF_PI:
            raise ChartError(f"arc length {s:.6f} outside the chart |s| < pi/2")
        sign = 1 if s >= 0.0 else -1
        starts, blocks, steps = self._starts[sign], self._blocks[sign], self._steps[sign]
        while starts[-1] + steps[-1] <= abs(s):
            if steps[-1] < STEP_FLOOR:
                raise ChartError(
                    f"curvature too large near arc length {sign * starts[-1]:.6f}: "
                    f"Taylor step {steps[-1]:.3e} below {STEP_FLOOR:g}"
                )
            y = (sign * steps[-1]) ** _POWERS @ blocks[-1]
            starts.append(starts[-1] + steps[-1])
            blocks.append(np.hstack(self._series(sign * starts[-1], y, TAYLOR_ORDER)))
            steps.append(_step(blocks[-1]))
        idx = bisect_right(starts, abs(s)) - 1
        return (s - sign * starts[idx]) ** _POWERS @ blocks[idx]

    def frame(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        y = self.state(s)
        return y[0:3], y[3:6], y[6:9]


def _step(block: np.ndarray) -> float:
    """Step whose two last Taylor terms each stay below TAYLOR_TOL."""
    p = len(block) - 1
    tail = np.max(np.abs(block[-2:]), axis=1)
    return min(
        [(TAYLOR_TOL / t) ** (1.0 / j) for j, t in zip((p - 1, p), tail) if t > 0.0],
        default=_HALF_PI,
    )
