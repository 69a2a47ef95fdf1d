"""Surface map germs and their pointwise differential geometry.

A :class:`SurfaceMap` wraps the jet of a map germ (u,v) -> R^3 at the
origin.  A polynomial map is its jet.  A ruled surface
gamma(v) + u xi(v) also carries its ruled.RuledSurface, which gives
positions and Taylor data recentered at any parameter point (exactly,
when the ruling is backed).  All pointwise quantities (fundamental forms,
curvatures) are read off local jets, so no finite differencing is
involved on the library side.

Conventions.  The unit normal at a regular point is f_u x f_v normalized.
The limiting normal along the ray of angle theta is obtained by polar
substitution u = r cos(theta), v = r sin(theta) into the jet of f_u x f_v
and normalizing the lowest-order vector coefficient in r; its sign is fixed
so that det(f_u, f_vv, nu) > 0 at the origin whenever that determinant is
nonzero, and the determinant is reported alongside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import JetDomainError, NotACrossCapError, SingularPointError
from .jets import Jet2, Jet3

if TYPE_CHECKING:
    from .ruled import RuledSurface

DEFAULT_TOL = 1e-9

Domain = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class SurfaceMap:
    jet: Jet3
    ruling: RuledSurface | None = None
    domain_hint: Domain = ((-1.0, 1.0), (-1.0, 1.0))

    @property
    def order(self) -> int:
        return self.jet.order

    def __call__(self, u: float, v: float) -> np.ndarray:
        if self.ruling is not None:
            return self.ruling.point(u, v)
        return self.jet(u, v)

    def local_jet(self, u0: float, v0: float, order: int = 2) -> Jet3:
        """Taylor jet of the map recentered at (u0, v0)."""
        if self.ruling is not None:
            return self.ruling.local_jet(u0, v0, order)
        return self.jet.shifted_origin(u0, v0).truncated(min(order, self.jet.order))


@dataclass(frozen=True)
class FundamentalForms:
    """First-form jets; second-form values are pointwise, see second_form_at."""

    E: Jet2
    F: Jet2
    G: Jet2


@dataclass(frozen=True)
class CrossCapTest:
    is_crosscap: bool
    delta: float
    fv_norm: float
    tol: float


@dataclass(frozen=True)
class LimitingNormal:
    vector: np.ndarray
    orientation: float  # det(f_u, f_vv, nu) at the origin
    leading_order: int


# ----------------------------------------------------------------------
# builders

def surface_from_polynomial(
    terms: Mapping[tuple[int, int], Sequence[float]],
    order: int = 6,
    domain: Domain = ((-1.0, 1.0), (-1.0, 1.0)),
) -> SurfaceMap:
    jet = Jet3.from_terms(terms, order)
    return SurfaceMap(jet=jet, domain_hint=domain)


def canonical_crosscap(
    a: Mapping[tuple[int, int], float],
    b: Mapping[int, float] | None = None,
    order: int = 6,
) -> SurfaceMap:
    """Cross cap in canonical shape from coefficient tables.

    a maps (j,k) with j+k >= 2 to the canonical third-component
    coefficients, b maps i >= 3 to the second-component pure-v ones;
    both follow the factorial normalization of the canonical form.
    """
    terms: dict[tuple[int, int], list[float]] = {}

    def vec(jk):
        return terms.setdefault(jk, [0.0, 0.0, 0.0])

    vec((1, 0))[0] = 1.0
    vec((1, 1))[1] = 1.0
    for i, bi in (b or {}).items():
        if i < 3:
            raise JetDomainError("pure-v coefficients start at degree 3")
        vec((0, i))[1] = bi / math.factorial(i)
    for (j, k), ajk in a.items():
        if j + k < 2:
            raise JetDomainError("canonical coefficients start at degree 2")
        vec((j, k))[2] = ajk / (math.factorial(j) * math.factorial(k))
    return surface_from_polynomial(terms, order=order)


def quadratic_crosscap(a20: float, a11: float, a02: float, order: int = 6) -> SurfaceMap:
    return canonical_crosscap({(2, 0): a20, (1, 1): a11, (0, 2): a02}, order=order)


def standard_crosscap(order: int = 6) -> SurfaceMap:
    """The map (u, uv, v^2)."""
    return canonical_crosscap({(0, 2): 2.0}, order=order)


# ----------------------------------------------------------------------
# fundamental forms and curvatures

def first_form(f: SurfaceMap) -> FundamentalForms:
    fu = f.jet.deriv_u()
    fv = f.jet.deriv_v()
    return FundamentalForms(E=fu.dot(fu), F=fu.dot(fv), G=fv.dot(fv))


def _point_derivatives(f: SurfaceMap, u: float, v: float):
    jet = f.local_jet(u, v, order=2)
    fu = jet.coeff_vector(1, 0)
    fv = jet.coeff_vector(0, 1)
    fuu = 2.0 * jet.coeff_vector(2, 0)
    fuv = jet.coeff_vector(1, 1)
    fvv = 2.0 * jet.coeff_vector(0, 2)
    return fu, fv, fuu, fuv, fvv


def second_form_at(f: SurfaceMap, u: float, v: float) -> tuple[float, float, float]:
    """(L, M, N) with respect to the unit normal f_u x f_v / |f_u x f_v|."""
    fu, fv, fuu, fuv, fvv = _point_derivatives(f, u, v)
    n = np.cross(fu, fv)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise SingularPointError(f"surface is singular at ({u}, {v})")
    nu = n / norm
    return float(fuu @ nu), float(fuv @ nu), float(fvv @ nu)


def curvatures_at(f: SurfaceMap, u: float, v: float) -> tuple[float, float]:
    """(K, H) at a regular point; H follows the f_u x f_v normal."""
    fu, fv, fuu, fuv, fvv = _point_derivatives(f, u, v)
    E, F, G = fu @ fu, fu @ fv, fv @ fv
    n = np.cross(fu, fv)
    W2 = E * G - F * F
    if math.sqrt(max(W2, 0.0)) < 1e-14:
        raise SingularPointError(f"surface is singular at ({u}, {v})")
    nu = n / np.linalg.norm(n)
    L, M, N = fuu @ nu, fuv @ nu, fvv @ nu
    K = (L * N - M * M) / W2
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * W2)
    return float(K), float(H)


# ----------------------------------------------------------------------
# cross cap detection and limiting normals

def origin_derivatives(jet: Jet3):
    """f_u, f_v, f_uu, f_uv, f_vv at the origin as vectors."""
    return (
        jet.partial_vector(1, 0),
        jet.partial_vector(0, 1),
        jet.partial_vector(2, 0),
        jet.partial_vector(1, 1),
        jet.partial_vector(0, 2),
    )


def detect_crosscap(f: SurfaceMap, tol: float = DEFAULT_TOL) -> CrossCapTest:
    """Criterion: f_v(0,0) = 0 while f_u, f_uv, f_vv are independent."""
    fu, fv, _, fuv, fvv = origin_derivatives(f.jet)
    delta = float(np.linalg.det(np.column_stack([fu, fuv, fvv])))
    fv_norm = float(np.linalg.norm(fv))
    ok = fv_norm <= tol and abs(delta) > tol
    return CrossCapTest(is_crosscap=ok, delta=delta, fv_norm=fv_norm, tol=tol)


def require_crosscap(f: SurfaceMap, tol: float = DEFAULT_TOL) -> CrossCapTest:
    test = detect_crosscap(f, tol)
    if not test.is_crosscap:
        raise NotACrossCapError(
            "map germ is not a cross cap at the origin "
            f"(|f_v| = {test.fv_norm:.3e}, bracket = {test.delta:.3e})",
            delta=test.delta,
            fv_norm=test.fv_norm,
        )
    return test


def limiting_normal(f: SurfaceMap, theta: float, tol: float = DEFAULT_TOL) -> LimitingNormal:
    """Unit limit of the normal direction along the ray of angle theta."""
    fu = f.jet.deriv_u()
    fv = f.jet.deriv_v()
    n = fu.cross(fv)
    profiles = np.column_stack([comp.polar_profile(theta) for comp in n.components()])
    scale = max(np.max(np.abs(profiles)), 1.0)
    for m in range(profiles.shape[0]):
        vec = profiles[m]
        norm = np.linalg.norm(vec)
        if norm > tol * scale:
            nu = vec / norm
            fu0 = f.jet.partial_vector(1, 0)
            fvv0 = f.jet.partial_vector(0, 2)
            det = float(np.linalg.det(np.column_stack([fu0, fvv0, nu])))
            if det < -tol:
                nu, det = -nu, -det
            return LimitingNormal(vector=nu, orientation=det, leading_order=m)
    raise SingularPointError(
        f"normal direction degenerates identically along theta = {theta}"
    )
