"""Isometric deformations of the degenerate quadratic cross cap.

For parameters a02 > 0, a11 and a unit-speed curve c(s) on the unit
sphere with |s| < pi/2, set m = 1 + a11^2 and

    chat(v) = c(arctan(v sqrt(m)))          reparametrized curve
    xi(v)   = sqrt(1 + m v^2) * chat(v)     scaled ruling
    B(v)    = a11 xi'(v) + xi(v) x xi'(v) = a11 xi'(v) + sqrt(m) nhat(v)
    gamma(v)= (a02/m) * integral_0^v t B(t) dt

and finally f(u,v) = gamma(v) + u xi(v).  Every member of this family,
one per spherical curve, has the same first fundamental form

    E = 1 + m v^2,  F = m u v + a02 a11 v^2,
    G = m u^2 + 2 a02 a11 u v + a02^2 v^2,

so the family deforms the degenerate quadratic cross cap (the great
circle member with geodesic curvature zero) isometrically, and the
member's curvature determines all third-order extrinsic data in closed
form.

A DeformationFamily is the backing of its member's ruled surface
(ruled.from_deformation): the Taylor coefficients of xi and gamma' in
vhat = v - v0, around any v0, are coefficient arrays.  The frame
(chat, ehat, nhat) is solved in vhat directly: with w2 = 1 + m v^2 and
shat(v) = arctan(v sqrt(m)), so that w2 shat' = sqrt(m), it satisfies
w2 y' = sqrt(m) (ehat, K nhat - chat, -K ehat), K = kappa(shat), by the
frame recurrence of numerics.frenet_series, started from the curve, a
FrenetPath, at shat(v0).  No cross product is formed: c x e = n gives

    xi x xi' = sqrt(w2) chat x (sqrt(w2) shat' ehat) = sqrt(m) nhat,

so B = a11 xi' + sqrt(m) nhat, one series product away.  Pointwise
values of gamma and xi are node evaluations of a Taylor path in v grown
from those arrays, so the member is exact anywhere in the chart.
Curvature and first-form checks read the arrays of all their points
from one call, one column per v, and never fall back to finite
differences; they grow no node of the path.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ChartError
from .jets import Jet2, series_power, series_product
from .numerics import FrenetPath
from .ruled import RuledSurface, from_deformation
from .surface import FundamentalForms, Immutable, SurfaceMap, canonical_crosscap, first_form

__all__ = [
    "SphericalCurve",
    "DeformationFamily",
    "IsometryReport",
    "circle_family",
    "circle_point",
    "deformation_family",
    "build_crosscap",
    "degenerate_quadratic",
    "degenerate_first_form",
    "second_form_closed",
    "extrinsic_invariants",
    "verify_isometry",
]

FRAME_TOL = 1e-9
# verify_isometry's bounds on the first-form jet coefficients and on the grid
ISOMETRY_JET_TOL = 1e-9
ISOMETRY_GRID_TOL = 1e-6


class SphericalCurve(Immutable, FrenetPath):
    """Unit-speed curve on S^2 given by its geodesic curvature polynomial."""

    def __init__(
        self,
        kappa_poly: tuple[float, ...] = (0.0,),
        point0: tuple[float, float, float] = (1.0, 0.0, 0.0),
        tangent0: tuple[float, float, float] = (0.0, 1.0, 0.0),
    ):
        c0 = np.asarray(point0)
        e0 = np.asarray(tangent0)
        if abs(np.linalg.norm(c0) - 1.0) > FRAME_TOL:
            raise ValueError("initial point must lie on the unit sphere")
        if abs(np.linalg.norm(e0) - 1.0) > FRAME_TOL or abs(c0 @ e0) > FRAME_TOL:
            raise ValueError("initial tangent must be unit and orthogonal to the point")
        super().__init__(kappa_poly, point0, tangent0)

    def kappa(self, s: float) -> float:
        return float(np.polynomial.polynomial.polyval(s, self.kappa_poly))


def circle_point(kappa: float, s: float) -> np.ndarray:
    """Closed-form circle of geodesic curvature kappa through (1,0,0)."""
    mu2 = 1.0 + kappa * kappa
    mu = math.sqrt(mu2)
    return np.array(
        [
            (kappa * kappa + math.cos(mu * s)) / mu2,
            math.sin(mu * s) / mu,
            kappa * (1.0 - math.cos(mu * s)) / mu2,
        ]
    )


def circle_family(kappa: float) -> SphericalCurve:
    """The circle member used by the one-parameter deformation family."""
    return SphericalCurve(kappa_poly=(float(kappa),))


class DeformationFamily(NamedTuple):
    """One member; as a ruling backing it gives xi and gamma' exactly."""

    a02: float
    a11: float
    curve: SphericalCurve

    @property
    def m(self) -> float:
        return 1.0 + self.a11 * self.a11

    def arc_parameter(self, v: float) -> float:
        return math.atan(math.sqrt(self.m) * v)

    def ruling_series(self, v0, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients in vhat = v - v0 of xi (order + 1 rows) and gamma' (order rows).

        The frame (chat, ehat, nhat) is solved in vhat directly: w2 = 1 + m v^2
        is W0 + W1 vhat + W2 vhat^2 with W0 = 1 + m v0^2, W1 = 2 m v0, W2 = m,
        and w2 y' = sqrt(m) F is the frame recurrence of
        numerics.frenet_series.  Then xi = sqrt(w2) chat, and since
        xi x xi' = sqrt(m) nhat, gamma' = (a02/m) v (a11 xi' + sqrt(m) nhat).
        An array of v0 stacks one column each along a leading axis.
        """
        m, n, sm, v = self.m, order, math.sqrt(self.m), np.asarray(v0, dtype=float)

        def per_column(f):  # f at v0 on Python floats, or one row per column
            return np.array([f(x) for x in v.tolist()]) if v.ndim else f(v.tolist())

        w2 = per_column(lambda x: (1.0 + m * x * x, 2.0 * m * x, m))
        C, _, N = self.curve.series(per_column(self.arc_parameter), n, w2, sm)
        xi = series_product(C, series_power(w2, 0.5, n), n)
        B = xi[..., 1:, :] * np.arange(1, n + 1)[:, None] * self.a11 + N[..., :n, :] * sm
        return xi, series_product(B, per_column(lambda x: (x, 1.0)), n - 1) * (self.a02 / m)


def deformation_family(
    a02: float,
    a11: float,
    kappa: float | Sequence[float] | SphericalCurve = 0.0,
) -> DeformationFamily:
    """Family member for given quadratic data and curvature description.

    The spherical curve is rebuilt from the curvature with the pinned
    initial frame c(0) = (1,0,0), e(0) = (0,1,a11)/sqrt(1+a11^2) unless a
    fully specified curve is passed in.
    """
    if a02 <= 0:
        raise ValueError("the deformation family needs a02 > 0")
    if isinstance(kappa, SphericalCurve):
        curve = kappa
    else:
        poly = (float(kappa),) if isinstance(kappa, (int, float)) else tuple(map(float, kappa))
        root_m = math.sqrt(1.0 + a11 * a11)
        curve = SphericalCurve(
            kappa_poly=poly,
            point0=(1.0, 0.0, 0.0),
            tangent0=(0.0, 1.0 / root_m, a11 / root_m),
        )
    return DeformationFamily(a02=float(a02), a11=float(a11), curve=curve)


def build_crosscap(fam: DeformationFamily, order: int = 6) -> RuledSurface:
    """The family member's ruled surface map, exact anywhere in the chart."""
    return from_deformation(fam, order)


def degenerate_quadratic(a02: float, a11: float, order: int = 6) -> SurfaceMap:
    """The base member (u, uv, a11 u v + a02 v^2 / 2)."""
    return canonical_crosscap({(0, 2): a02, (1, 1): a11}, order=order)


def degenerate_first_form(a02: float, a11: float, order: int = 6) -> FundamentalForms:
    m = 1.0 + a11 * a11
    n = order - 1
    return FundamentalForms(
        E=Jet2.from_terms({(0, 0): 1.0, (0, 2): m}, n),
        F=Jet2.from_terms({(1, 1): m, (0, 2): a02 * a11}, n),
        G=Jet2.from_terms({(2, 0): m, (1, 1): 2.0 * a02 * a11, (0, 2): a02 * a02}, n),
    )


# ----------------------------------------------------------------------
# closed-form extrinsic data

def second_form_closed(fam: DeformationFamily, u: float, v: float) -> tuple[float, float, float]:
    """(L, M, N) of the family member at (u, v), from the closed forms."""
    a02, a11, m = fam.a02, fam.a11, fam.m
    sm = math.sqrt(m)
    radicand = m * u * u + 2.0 * a02 * a11 * u * v + a02 * a02 * v * v * (1.0 + v * v)
    delta = sm * math.sqrt(max(radicand, 0.0))
    if delta == 0.0:
        raise ChartError("closed second form undefined on the singular locus")
    kap = fam.curve.kappa(fam.arc_parameter(v))
    L = 0.0
    M = -a02 * sm * v / delta
    N = a02 * sm * u / delta + delta * kap / (1.0 + m * v * v) ** 1.5
    return L, M, N


def extrinsic_invariants(kappa0: float, a02: float, a11: float) -> tuple[float, float, float]:
    """(a12, a03, b3) of the member with curvature kappa0 at the cross cap."""
    m = 1.0 + a11 * a11
    sm = math.sqrt(m)
    return (
        kappa0 * m * sm,
        3.0 * a02 * a11 * kappa0 * sm,
        -2.0 * a02 * kappa0 * sm,
    )


# ----------------------------------------------------------------------
# isometry verification

class IsometryReport(NamedTuple):
    jet_max_dev: float
    grid_max_dev: float
    passed: bool


def verify_isometry(f: SurfaceMap, g: SurfaceMap, grid: tuple[int, int] = (10, 10)) -> IsometryReport:
    """Compare first fundamental forms coefficient-wise and on a grid."""
    jet_dev = first_form(f).max_coeff_diff(first_form(g))
    (u0, u1), (v0, v1) = f.domain_hint
    nu, nv = grid
    if min(nu, nv) < 1:
        raise ValueError(f"isometry grid needs at least one point a side, got {grid}")
    us = [u0 + (u1 - u0) * (i + 0.5) / nu for i in range(nu)]
    vs = [v0 + (v1 - v0) * (j + 0.5) / nv for j in range(nv)]
    # one table per surface and point, from one derivative_jets call per surface
    us, vs = (x.ravel() for x in np.meshgrid(us, vs))
    t = np.array([s.derivative_jets(us, vs, order=1) for s in (f, g)])
    fu, fv = t[..., 1, 0], t[..., 0, 1]
    forms = np.stack([(fu * fu).sum(-1), (fu * fv).sum(-1), (fv * fv).sum(-1)])
    grid_dev = float(np.max(np.abs(forms[:, 0] - forms[:, 1])))
    return IsometryReport(
        jet_max_dev=float(jet_dev),
        grid_max_dev=grid_dev,
        passed=jet_dev <= ISOMETRY_JET_TOL and grid_dev <= ISOMETRY_GRID_TOL,
    )
