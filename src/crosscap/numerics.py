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

kappa recentred at each node.  A spherical curve is its own FrenetPath
(deformation.SphericalCurve).  The recursion is a scalar recurrence on
Python floats, one 3-tuple per coefficient, like jets.series_power: a step
is a few dozen products, which numpy calls would cost more to dispatch
than to compute.  A backed ruled surface holds a second path,
in v, for its directrix and ruling (ruled.RuledSurface); every node of it
needs one frame series, and off-origin local jets one column per v, all
columns from one call.  That series is taken in v, not in s: the same
recursion solves w(t) y' = rate F for a parameter t with w(t) s'(t) =
rate, w of degree <= 2.  For a deformation family member, w = 1 + m v^2
and rate = sqrt(m) (deformation.DeformationFamily.ruling_series).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, partial
from itertools import chain, repeat
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
    w: Sequence[float] = (1.0,),
    rate: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients in t of the frame (c, e, n) of a spherical curve
    whose arc length s(t), s(0) = 0, runs at w(t) s' = rate, w of degree <= 2.

    kappa_poly is the geodesic curvature in s, and K(t) = kappa(s(t)) the one
    in t.  With y = (c, e, n) and F = (e, K n - c, -K e), the system is
    w y' = rate F, and coefficient k of it, with n_0 = c_0 x e_0, is

        w_0 (k + 1) y_(k+1) = rate F_k - w_1 k y_k - w_2 (k - 1) y_(k-1),
        F_k = (e_k, sum_i K_i n_(k-i) - c_k, -sum_i K_i e_(k-i)).

    With the defaults w = 1 and rate = 1, t is s, K is kappa and the w terms
    are exact zeros.  Otherwise a curvature that is not constant is composed
    with s(t) first, to the order terms the recurrence reads.  Each step is a few
    dozen scalar products, too few for numpy to pay for its per-call
    overhead, so it runs on Python floats with each coefficient a 3-tuple,
    once per column where c0, e0 and kappa_poly stack columns along leading
    axes (w: one per column or one for all), and the arrays are built once
    at the end, then checked once for overflow (the rule in ``jets``).
    """
    kappa = np.asarray(kappa_poly, dtype=float)[..., : order + 1]
    c0, e0, w = np.asarray(c0, dtype=float), np.asarray(e0, dtype=float), np.asarray(w, dtype=float)
    lead, m = c0.shape[:-1], c0.size // 3
    kap = kappa[..., :order].reshape(m, -1).tolist()  # step k reads K_0 .. K_k, k < order
    ws = w.reshape(-1, w.shape[-1]).tolist() * (m if w.ndim == 1 else 1)  # one w per column
    args = kap, ws, c0.reshape(m, 3).tolist(), e0.reshape(m, 3).tolist(), repeat(rate), repeat(order)
    rows = chain.from_iterable(map(_frame_column, *args))
    Y = np.fromiter(chain.from_iterable(rows), float, m * 9 * (order + 1))
    Y = _checked(Y.reshape(lead + (3, order + 1, 3)), kappa, c0, e0)
    return Y[..., 0, :, :], Y[..., 1, :, :], Y[..., 2, :, :]


def _frame_column(kap: list, w: list, c0: list, e0: list, rate: float, order: int) -> list:
    """frenet_series of one column: the coefficients of c, then e, then n, as 3-tuples."""
    w0, w1, w2 = (*w, 0.0, 0.0)[:3]
    if len(kap) > 1 and (rate, w0, w1, w2) != (1.0, 1.0, 0.0, 0.0):
        kap = _composed(kap, (w0, w1, w2), rate, order)
    (cx, cy, cz), (ex, ey, ez) = c0, e0
    C, E, N = [(cx, cy, cz)], [(ex, ey, ez)], [(cy * ez - cz * ey, cz * ex - cx * ez, cx * ey - cy * ex)]
    for k in range(order):
        # sum_i K_i n_(k-i) and sum_i K_i e_(k-i)
        knx = kny = knz = kex = key = kez = 0.0
        for a, (nx, ny, nz), (fx, fy, fz) in zip(kap, reversed(N), reversed(E)):
            knx, kny, knz = knx + a * nx, kny + a * ny, knz + a * nz
            kex, key, kez = kex + a * fx, key + a * fy, kez + a * fz
        (cx, cy, cz), (ex, ey, ez), (nx, ny, nz) = C[k], E[k], N[k]
        # y_(k-1), weighted 0 at k = 0, where it is y_0 and stands for zero
        (qcx, qcy, qcz), (qex, qey, qez), (qnx, qny, qnz) = C[k - 1], E[k - 1], N[k - 1]
        a, b, j = w1 * k, w2 * (k - 1 if k else 0), w0 * (k + 1)
        C.append(((rate * ex - a * cx - b * qcx) / j, (rate * ey - a * cy - b * qcy) / j,
                  (rate * ez - a * cz - b * qcz) / j))
        E.append(((rate * (knx - cx) - a * ex - b * qex) / j, (rate * (kny - cy) - a * ey - b * qey) / j,
                  (rate * (knz - cz) - a * ez - b * qez) / j))
        N.append(((-rate * kex - a * nx - b * qnx) / j, (-rate * key - a * ny - b * qny) / j,
                  (-rate * kez - a * nz - b * qnz) / j))
    return C + E + N


def _composed(kappa: list, w: tuple, rate: float, n: int) -> list:
    """The first n coefficients of kappa(s(t)), from the powers of s by the
    chain w (s^j)' = j rate s^(j-1), one recurrence per power."""
    w0, w1, w2 = w
    out, power = [kappa[0]] + [0.0] * (n - 1), [1.0] + [0.0] * (n - 1)
    for j, a in enumerate(kappa[1:], 1):
        prev, power = power, [0.0] * n
        # s^j starts at t^j
        for k in range(j - 1, n - 1):
            power[k + 1] = (j * rate * prev[k] - w1 * k * power[k] - w2 * (k - 1) * power[k - 1]) / (w0 * (k + 1))
            out[k + 1] += a * power[k + 1]
    return out


class TaylorPath:
    """y(t) from y(0) = y0, where block(t0, y(t0)) is the Taylor table of y
    around t0; refusal opens the ChartError raised below STEP_FLOOR.  Fields
    are set through ``vars(self)``, so that an immutable subclass can be one."""

    def __init__(self, block: Callable[..., np.ndarray], y0: np.ndarray, refusal: str):
        vars(self).update(_block=block, _y0=y0, _refusal=refusal)

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


def _frame_block(kappa: Sequence[float], s0: float, y: np.ndarray) -> np.ndarray:
    return np.concatenate(frenet_series(series_shift(kappa, s0), y[0:3], y[3:6], TAYLOR_ORDER), axis=1)


class FrenetPath(TaylorPath):
    """Dense frame trajectory s -> (c, e, n) of a spherical unit-speed curve.

    kappa_poly holds the geodesic curvature's coefficients, point0 and
    tangent0 c and e at s = 0.  The chart is |s| < pi/2; queries outside it,
    or past a point where the curvature outruns STEP_FLOOR, raise ChartError.
    """

    def __init__(self, kappa_poly: Sequence[float], point0: np.ndarray, tangent0: np.ndarray):
        vars(self).update(kappa_poly=kappa_poly, point0=point0, tangent0=tangent0)
        y0 = np.concatenate([point0, tangent0])
        super().__init__(partial(_frame_block, kappa_poly), y0, "curvature too large near arc length")

    def series(
        self, s0, order: int, w: Sequence[float] = (1.0,), rate: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Taylor coefficients of (c, e, n) around s0, kappa recentred there,
        in t where s = s0 + s(t) and w s' = rate (frenet_series).  A 1-D
        array of s0 gives one column each, from one frenet_series call."""
        s0 = np.asarray(s0, dtype=float)
        # at s0 = 0 the state is y0, and no node needs growing
        y = [self._y0 if s == 0.0 else self.state(s)[:6] for s in s0.reshape(-1).tolist()]
        y = np.array(y) if s0.ndim else y[0]
        return frenet_series(series_shift(self.kappa_poly, s0), y[..., 0:3], y[..., 3:6], order, w, rate)

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
    # Python floats, so that node starts never become numpy scalars
    return min(
        [(TAYLOR_TOL / t) ** (1.0 / j) for j, t in zip((p - 1, p), tail.tolist()) if t > 0.0],
        default=_HALF_PI,
    )
