"""Leading-order curvature behaviour along rays into a cross cap.

Approaching the singular point along u = r cos(theta), v = r sin(theta),
both curvatures blow up like 1/r^2 with angle-dependent leading
coefficients determined by the second-order normal form data:

    A(theta)  = sqrt(cos^2 + (a11 cos + a02 sin)^2)
    r^2 H  ->  a02 cos(theta) / (2 A^3)
    r^2 K  ->  a02 (a20 cos^2 - a02 sin^2) / A^4

and the umbilic defect satisfies r^4 (H^2 - K) -> (a02 cos)^2 / (4 A^6),
which is positive off theta = +-pi/2; on those two rays K itself stays
negative.  Either way a punctured neighbourhood of the singular point is
free of umbilics.

The verification helpers read exact curvatures at every radius of a
shrinking sweep in one stacked pass (surface._curvatures) and fit the
remainder decay rate as the slope of a closed-form least-squares line in
log-log; the expansions carry an O(r) remainder, so a fitted order of at
least 0.9 passes.  Radii must be positive and are clamped above 1e-6,
below which double precision cancellation dominates; a sweep whose radii
are only round-off apart fits no line (SpreadError).
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import CrosscapError
from .invariants import IntrinsicTriple, intrinsic_from_map
from .surface import SurfaceMap, _curvatures

__all__ = [
    "PolarLeading",
    "ConvergenceReport",
    "GapReport",
    "DEFAULT_RADII",
    "leading",
    "verify_convergence",
    "umbilic_gap",
    "ray_reports",
]

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
MIN_RADIUS = 1e-6
SLOPE_PASS = 0.9
TRIVIAL_ERR = 1e-13
ROUNDOFF_SPREAD = 2.0**-48  # 16 units in the last place of 1


class SpreadError(ValueError):
    """Radii only round-off apart, so that no decay line fits them."""


class PolarLeading(NamedTuple):
    theta: float
    a_theta: float
    h_lead: float
    k_lead: float

    @property
    def gap_lead(self) -> float:
        return self.h_lead * self.h_lead


def leading(triple: IntrinsicTriple, theta: float) -> PolarLeading:
    """Leading polar coefficients of H, K along the ray at angle theta."""
    if triple.a02 <= 0:
        raise ValueError("polar expansion needs a02 > 0")
    co, si = math.cos(theta), math.sin(theta)
    name = "a_theta"
    try:
        a = math.sqrt(co * co + (triple.a11 * co + triple.a02 * si) ** 2)
        name = "h_lead"
        h_lead = triple.a02 * co / (2.0 * a**3)
        name = "k_lead"
        k_lead = triple.a02 * (triple.a20 * co * co - triple.a02 * si * si) / a**4
    except OverflowError:
        raise CrosscapError(f"polar expansion overflows in {name} at theta = {theta}") from None
    return PolarLeading(theta=float(theta), a_theta=a, h_lead=h_lead, k_lead=k_lead)


def _clamped_radii(radii: Sequence[float] | None) -> tuple[float, ...]:
    vals = DEFAULT_RADII if radii is None else tuple(radii)
    if not vals:
        raise ValueError("need at least one radius")
    if min(vals) <= 0.0:
        raise ValueError("radii must be positive")
    rs = tuple(sorted({max(float(r), MIN_RADIUS) for r in vals}, reverse=True))
    # a relative spread of the radii is the spread of their logs
    if len(rs) > 1 and rs[0] - rs[-1] <= ROUNDOFF_SPREAD * rs[0]:
        raise SpreadError(f"radii {rs[-1]!r} to {rs[0]!r} are only round-off apart")
    return rs


def _line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points
    (xs[i], ys[i]), from sums about the means (math.fsum); SpreadError
    where the xs are all equal."""
    if max(xs) == min(xs):
        raise SpreadError("points with one x fit no line")
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return slope, my - slope * mx


def _fit_order(radii: Sequence[float], errors: Sequence[float]) -> float:
    """Slope of log error against log radius: inf where every error is
    trivially small, 0 where fewer than two are nonzero."""
    if all(e < TRIVIAL_ERR for e in errors):
        return math.inf
    logs = [(math.log(r), math.log(e)) for r, e in zip(radii, errors) if e > 0.0]
    return _line(*zip(*logs))[0] if len(logs) > 1 else 0.0


class ConvergenceReport(NamedTuple):
    theta: float
    radii: tuple[float, ...]
    r2k: tuple[float, ...]
    r2h: tuple[float, ...]
    k_limit: float
    h_limit: float
    k_extrapolated: float
    h_extrapolated: float
    k_order: float
    h_order: float
    k_bound: float
    h_bound: float
    passed: bool


def _extrapolate(radii: Sequence[float], values: Sequence[float]) -> float:
    """Intercept of a linear-in-r fit, matching the O(r) remainder."""
    return values[0] if len(radii) == 1 else _line(radii, values)[1]


def _samples(
    f: SurfaceMap, theta: float, radii: Sequence[float] | None, triple: IntrinsicTriple | None
) -> tuple[float, tuple[float, ...], PolarLeading, tuple[tuple[float, float], ...]]:
    """(theta, clamped radii, leading terms, exact (K, H) at each radius)."""
    rs = _clamped_radii(radii)
    if triple is None:
        triple = intrinsic_from_map(f)
    lead = leading(triple, theta)
    # expansions are stated for the positively oriented presentation; a
    # negative triple determinant means the flipped parameters apply
    sign = 1.0 if f._origin.bracket >= 0.0 else -1.0
    co, si = math.cos(theta), math.sin(theta)
    K, H = _curvatures(f, [sign * r * co for r in rs], [sign * r * si for r in rs])
    return float(theta), rs, lead, tuple(zip(K.tolist(), H.tolist()))


def _convergence_report(theta, rs, lead, kh) -> ConvergenceReport:
    r2k = tuple(r * r * K for r, (K, _) in zip(rs, kh))
    r2h = tuple(r * r * H for r, (_, H) in zip(rs, kh))
    k_err = [abs(x - lead.k_lead) for x in r2k]
    h_err = [abs(x - lead.h_lead) for x in r2h]
    k_order, h_order = _fit_order(rs, k_err), _fit_order(rs, h_err)
    return ConvergenceReport(
        theta=theta,
        radii=rs,
        r2k=r2k,
        r2h=r2h,
        k_limit=lead.k_lead,
        h_limit=lead.h_lead,
        k_extrapolated=_extrapolate(rs, r2k),
        h_extrapolated=_extrapolate(rs, r2h),
        k_order=k_order,
        h_order=h_order,
        k_bound=max(e / r for e, r in zip(k_err, rs)),
        h_bound=max(e / r for e, r in zip(h_err, rs)),
        passed=k_order >= SLOPE_PASS and h_order >= SLOPE_PASS,
    )


def verify_convergence(
    f: SurfaceMap,
    theta: float,
    radii: Sequence[float] | None = None,
    triple: IntrinsicTriple | None = None,
) -> ConvergenceReport:
    """Sample r^2 K and r^2 H along the ray and compare with leading()."""
    return _convergence_report(*_samples(f, theta, radii, triple))


class GapReport(NamedTuple):
    theta: float
    radii: tuple[float, ...]
    r4gap: tuple[float, ...]
    limit: float | None
    order: float
    negative_k_mode: bool
    k_values: tuple[float, ...]
    passed: bool


def _gap_report(theta, rs, lead, kh) -> GapReport:
    gaps = tuple(r**4 * (H * H - K) for r, (K, H) in zip(rs, kh))
    ks = tuple(K for K, _ in kh)
    if abs(math.cos(theta)) < 1e-12:
        limit, order = None, math.nan
        passed = all(k < 0.0 for k in ks)
    else:
        limit = lead.gap_lead
        order = _fit_order(rs, [abs(g - limit) for g in gaps])
        passed = order >= SLOPE_PASS and limit > 0.0
    return GapReport(
        theta=theta,
        radii=rs,
        r4gap=gaps,
        limit=limit,
        order=order,
        negative_k_mode=limit is None,
        k_values=ks,
        passed=passed,
    )


def umbilic_gap(
    f: SurfaceMap,
    theta: float,
    radii: Sequence[float] | None = None,
    triple: IntrinsicTriple | None = None,
) -> GapReport:
    """Divergence of H^2 - K along the ray; shows umbilics cannot accumulate.

    Off the rays theta = +-pi/2 the scaled gap r^4 (H^2 - K) converges to
    a positive limit; on them the report instead records that K < 0 at
    every sampled radius.
    """
    return _gap_report(*_samples(f, theta, radii, triple))


def ray_reports(
    f: SurfaceMap,
    theta: float,
    radii: Sequence[float] | None = None,
    triple: IntrinsicTriple | None = None,
) -> tuple[ConvergenceReport, GapReport]:
    """verify_convergence and umbilic_gap of one ray from one set of samples."""
    ray = _samples(f, theta, radii, triple)
    return _convergence_report(*ray), _gap_report(*ray)
