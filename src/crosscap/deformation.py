"""Isometric deformations of the degenerate quadratic cross cap.

For parameters a02 > 0, a11 and a unit-speed curve c(s) on the unit
sphere with |s| < pi/2, set m = 1 + a11^2 and

    chat(v) = c(arctan(v sqrt(m)))          reparametrized curve
    xi(v)   = sqrt(1 + m v^2) * chat(v)     scaled ruling
    B(v)    = a11 xi'(v) + xi(v) x xi'(v)
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
(ruled.from_deformation): jets of xi and gamma' around any v0 come from
exact series arithmetic on the spherical frame's Taylor coefficients
(numerics.FrenetPath), and pointwise values of gamma and xi are node
evaluations of a Taylor path in v grown from those jets, so the member is
exact anywhere in the chart and pointwise curvature checks never fall
back to finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ChartError
from .jets import Jet2, Jet3, vpoly
from .numerics import FrenetPath
from .ruled import from_deformation
from .surface import FundamentalForms, SurfaceMap, canonical_crosscap, first_form

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


@dataclass(frozen=True)
class SphericalCurve:
    """Unit-speed curve on S^2 given by its geodesic curvature polynomial."""

    kappa_poly: tuple[float, ...] = (0.0,)
    point0: tuple[float, float, float] = (1.0, 0.0, 0.0)
    tangent0: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self):
        c0 = np.asarray(self.point0)
        e0 = np.asarray(self.tangent0)
        if abs(np.linalg.norm(c0) - 1.0) > FRAME_TOL:
            raise ValueError("initial point must lie on the unit sphere")
        if abs(np.linalg.norm(e0) - 1.0) > FRAME_TOL or abs(c0 @ e0) > FRAME_TOL:
            raise ValueError("initial tangent must be unit and orthogonal to the point")

    def kappa(self, s: float) -> float:
        return float(np.polynomial.polynomial.polyval(s, self.kappa_poly))

    @cached_property
    def path(self) -> FrenetPath:
        return FrenetPath(self.kappa_poly, self.point0, self.tangent0)

    def frame(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, e, n) at arc length s; raises ChartError for |s| >= pi/2."""
        return self.path.frame(s)

    def point(self, s: float) -> np.ndarray:
        return self.frame(s)[0]

    def series_at(self, s0: float, order: int):
        """Local Taylor coefficients of (c, e, n) around s0."""
        return self.path.series(s0, order)


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


@dataclass(frozen=True)
class DeformationFamily:
    """One member; as a ruling backing it gives xi and gamma' exactly."""

    a02: float
    a11: float
    curve: SphericalCurve

    @property
    def m(self) -> float:
        return 1.0 + self.a11 * self.a11

    def arc_parameter(self, v: float) -> float:
        return math.atan(math.sqrt(self.m) * v)

    def ruling_series(self, v0: float, order: int) -> tuple[Jet3, Jet3]:
        """Jets in vhat = v - v0 of xi (to order) and gamma' (to order - 1)."""
        m = self.m
        w2 = vpoly([1.0 + m * v0 * v0, 2.0 * m * v0, m], order)
        shat = (w2.recip() * math.sqrt(m)).integrate_v().truncated(order)
        C, _, _ = self.curve.series_at(self.arc_parameter(v0), order)
        chat = Jet3(*(vpoly(C[:, i], order) for i in range(3))).compose(Jet2.zero(order), shat)
        xi = chat * w2.sqrt()
        xi_d = xi.deriv_v()
        B = xi.truncated(order - 1).cross(xi_d) + xi_d * self.a11
        return xi, B * vpoly([v0, 1.0], order - 1) * (self.a02 / m)


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


def build_crosscap(fam: DeformationFamily, order: int = 6) -> SurfaceMap:
    """Surface map of the family member, exact anywhere in the chart."""
    return from_deformation(fam, order).as_surface_map()


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

@dataclass(frozen=True)
class IsometryReport:
    jet_max_dev: float
    grid_max_dev: float
    jet_tol: float
    grid_tol: float
    passed: bool


def _first_form_of(jet: Jet3) -> tuple[float, float, float]:
    """(E, F, G) at the centre of a local jet."""
    fu = jet.coeff_vector(1, 0)
    fv = jet.coeff_vector(0, 1)
    return float(fu @ fu), float(fu @ fv), float(fv @ fv)


def verify_isometry(
    f: SurfaceMap,
    g: SurfaceMap,
    grid: tuple[int, int] = (10, 10),
    jet_tol: float = 1e-9,
    grid_tol: float = 1e-6,
) -> IsometryReport:
    """Compare first fundamental forms coefficient-wise and on a grid."""
    jet_dev = first_form(f).max_coeff_diff(first_form(g))
    (u0, u1), (v0, v1) = f.domain_hint
    nu, nv = grid
    us = [u0 + (u1 - u0) * (i + 0.5) / nu for i in range(nu)]
    grid_dev = 0.0
    # one local ruling per surface and column, shared by the column's points
    for j in range(nv):
        vv = v0 + (v1 - v0) * (j + 0.5) / nv
        for jf, jg in zip(f.local_jets(us, vv, order=1), g.local_jets(us, vv, order=1)):
            Ef, Ff, Gf = _first_form_of(jf)
            Eg, Fg, Gg = _first_form_of(jg)
            grid_dev = max(grid_dev, abs(Ef - Eg), abs(Ff - Fg), abs(Gf - Gg))
    return IsometryReport(
        jet_max_dev=float(jet_dev),
        grid_max_dev=float(grid_dev),
        jet_tol=jet_tol,
        grid_tol=grid_tol,
        passed=jet_dev <= jet_tol and grid_dev <= grid_tol,
    )
