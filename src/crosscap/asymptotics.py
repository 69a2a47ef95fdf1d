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

The verification helpers sample exact curvatures on a shrinking radius
sweep and fit the remainder decay rate; the expansions carry an O(r)
remainder, so a fitted order of at least 0.9 passes.  Radii must be
positive and are clamped above 1e-6, below which double precision
cancellation dominates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CrosscapError
from .invariants import IntrinsicTriple, intrinsic_from_map
from .surface import SurfaceMap, curvatures_at

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


@dataclass(frozen=True)
class PolarLeading:
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
    return tuple(sorted({max(float(r), MIN_RADIUS) for r in vals}, reverse=True))


def _fit_order(radii: Sequence[float], errors: Sequence[float]) -> tuple[float, bool]:
    """(fitted decay order, trivially small) of errors against radii."""
    errs = np.asarray(errors)
    if np.all(errs < TRIVIAL_ERR):
        return math.inf, True
    mask = errs > 0.0
    if mask.sum() < 2:
        return 0.0, False
    slope = np.polyfit(np.log(np.asarray(radii)[mask]), np.log(errs[mask]), 1)[0]
    return float(slope), False


@dataclass(frozen=True)
class ConvergenceReport:
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


def _extrapolate(radii: np.ndarray, values: np.ndarray) -> float:
    """Intercept of a linear-in-r fit, matching the O(r) remainder."""
    if len(radii) == 1:
        return float(values[0])
    coeffs = np.polyfit(radii, values, 1)
    return float(coeffs[1])


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
    kh = tuple(curvatures_at(f, sign * r * co, sign * r * si) for r in rs)
    return float(theta), rs, lead, kh


def _convergence_report(theta, rs, lead, kh) -> ConvergenceReport:
    r2k = [r * r * K for r, (K, _) in zip(rs, kh)]
    r2h = [r * r * H for r, (_, H) in zip(rs, kh)]
    rarr = np.asarray(rs)
    k_err = np.abs(np.asarray(r2k) - lead.k_lead)
    h_err = np.abs(np.asarray(r2h) - lead.h_lead)
    k_order, k_trivial = _fit_order(rs, k_err)
    h_order, h_trivial = _fit_order(rs, h_err)
    passed = (k_trivial or k_order >= SLOPE_PASS) and (h_trivial or h_order >= SLOPE_PASS)
    return ConvergenceReport(
        theta=theta,
        radii=rs,
        r2k=tuple(r2k),
        r2h=tuple(r2h),
        k_limit=lead.k_lead,
        h_limit=lead.h_lead,
        k_extrapolated=_extrapolate(rarr, np.asarray(r2k)),
        h_extrapolated=_extrapolate(rarr, np.asarray(r2h)),
        k_order=k_order,
        h_order=h_order,
        k_bound=float(np.max(k_err / rarr)),
        h_bound=float(np.max(h_err / rarr)),
        passed=passed,
    )


def verify_convergence(
    f: SurfaceMap,
    theta: float,
    radii: Sequence[float] | None = None,
    triple: IntrinsicTriple | None = None,
) -> ConvergenceReport:
    """Sample r^2 K and r^2 H along the ray and compare with leading()."""
    return _convergence_report(*_samples(f, theta, radii, triple))


@dataclass(frozen=True)
class GapReport:
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
        order, trivial = _fit_order(rs, np.abs(np.asarray(gaps) - limit))
        passed = (trivial or order >= SLOPE_PASS) and limit > 0.0
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
