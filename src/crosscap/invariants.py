"""Isometry invariants of a cross cap germ.

Two independent routes recover the canonical quadratic coefficients with
one formula set in the derivatives f_u, f_uu, f_uv, f_vv at the origin,
valid in any admissible coordinates once the bracket det(f_u, f_uv, f_vv)
is positive.  The map route reads them off the germ and makes the bracket
positive by the domain flip.  The metric route realizes them from the first
fundamental form alone: since f_v = 0 at the origin, the 2-jet of E, F, G
is the Gram matrix of f_u, f_uv, f_vv, whose Cholesky factor gives the
three vectors up to a rotation, and f_uu follows from its inner products
with them.

The squared bracket is computed both from that Gram determinant and from
the Hessian of h = EG - F^2; the two must agree, which guards the input
against metrics that are not pull-backs of admissible cross caps.  The
metric triple also carries the identity

    a02_from_height_hessian = sqrt(E(0,0)) * (h_vv(0,0) / 2)^(3/2) / bracket^2;

note the factor (h_vv/2)^(3/2): |f_u x f_vv|^2 = h_vv/2 at the origin.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CrosscapError, MetricError
from .jets import Jet2, _checked, _product
from .normalform import NormalForm
from .surface import DEFAULT_TOL, FundamentalForms, SurfaceMap, cross, det3, dot, norm, require_crosscap

ROUTE_TOL = 1e-9


class IntrinsicTriple(NamedTuple):
    a02: float
    a20: float
    a11: float
    delta_sq: float
    delta_sq_hessian: float | None = None
    a02_from_height_hessian: float | None = None


# the focal conic's kind for each sign class of classify_sign
CONIC_OF_SIGN = {"elliptic": "hyperbola", "hyperbolic": "ellipse", "degenerate": "parabola-degenerate"}


class FocalConic(NamedTuple):
    yy: float
    yz: float
    zz: float
    z: float
    kind: str  # "hyperbola" | "ellipse" | "parabola-degenerate"


class ComboQuadruple(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float


def intrinsic_from_map(f: SurfaceMap, tol: float = DEFAULT_TOL) -> IntrinsicTriple:
    """Quadratic canonical coefficients from derivatives of the map."""
    require_crosscap(f, tol)
    fu, _, fuu, fuv, fvv, delta, _ = f._origin
    if delta < 0:  # admissible flip (u,v) -> (-u,-v)
        fu, delta = tuple(-x for x in fu), -delta
    return _triple("map", fu, fuu, fuv, fvv, delta)


def _triple(route: str, fu, fuu, fuv, fvv, delta, **extra) -> IntrinsicTriple:
    """The triple from the derivative vectors at a cross cap with bracket
    delta = det(f_u, f_uv, f_vv) > 0; extra fields are checked alike."""
    # numpy scalars, whose powers and quotients overflow to inf where Python floats raise
    nu_fu, nc, br_uu_vv = map(np.float64, (norm(fu), norm(cross(fu, fvv)), det3(fu, fuu, fvv)))
    br_uv_uu = det3(fu, fuv, fuu)
    gram = dot(fu, fu) * dot(fvv, fuv) - dot(fu, fuv) * dot(fvv, fu)
    with np.errstate(all="ignore"):
        d2 = delta * delta
        a02 = nu_fu * nc**3 / d2
        a20 = nc / (4.0 * nu_fu**3 * d2) * (br_uu_vv**2 + 4.0 * delta * br_uv_uu)
        a11 = (2.0 * delta * gram - nc**2 * br_uu_vv) / (2.0 * nu_fu * d2)
    fields = {"delta_sq": d2, "a02": a02, "a20": a20, "a11": a11, **extra}
    for name, value in fields.items():
        # a02 > 0 at a cross cap, so a02 = 0 underflowed
        if not np.isfinite(value) or (name == "a02" and value <= 0.0):
            raise CrosscapError(f"{route} route gives {name} = {value}, out of floating point range")
    return IntrinsicTriple(**{name: float(value) for name, value in fields.items()})


def _height_hessian(E: Jet2, F: Jet2, G: Jet2) -> tuple[float, float, float]:
    """h_uu, h_uv and h_vv at the origin for h = E G - F^2, from one product
    of the order-2 tables of E, F and G, which gives h's degree-2
    coefficients with the bits of the product at the full order."""
    p = _product(np.stack([E.c[:3, :3], F.c[:3, :3]]), np.stack([G.c[:3, :3], F.c[:3, :3]]), 2)
    h = (p[0] - p[1]).tolist()
    return 2.0 * h[2][0], h[1][1], 2.0 * h[0][2]


def intrinsic_from_metric(forms: FundamentalForms) -> IntrinsicTriple:
    """Quadratic canonical coefficients from the first form alone."""
    E, F, G = forms.E, forms.F, forms.G
    low = min(E.order, F.order, G.order)
    if low < 2:  # second partials of E, F, G would read 0 past the table
        raise MetricError(f"metric route needs first-form order >= 2 (germ order >= 3), got {low}")
    E0 = E.partial(0, 0)
    if E0 <= 0:
        raise MetricError("E(0,0) must be positive")
    # f_v = 0 makes these vanish; like E(0,0) they scale as lambda^2 under homothety
    regular = (F.partial(0, 0), G.partial(0, 0), G.partial(1, 0), G.partial(0, 1))
    if max(map(abs, regular)) > ROUTE_TOL * E0:
        raise MetricError("F, G, G_u or G_v is nonzero at the origin: not a cross cap metric")
    Eu, Euv, Evv = E.partial(1, 0), E.partial(1, 1), E.partial(0, 2)
    Fu, Fv, Fuu, Fuv = F.partial(1, 0), F.partial(0, 1), F.partial(2, 0), F.partial(1, 1)
    Guu, Guv, Gvv = G.partial(2, 0), G.partial(1, 1), G.partial(0, 2)
    # Gram matrix of f_u, f_uv, f_vv, since f_v = 0 at the origin
    gram = ((E0, Fu, Fv), (Fu, Guu / 2.0, Guv / 2.0), (Fv, Guv / 2.0, Gvv / 2.0))
    d2 = _checked(det3(*gram), *gram)
    h_uu, h_uv, h_vv = _height_hessian(E, F, G)
    d2_hess = (h_uu * h_vv - h_uv * h_uv) / (4.0 * E0)
    if h_vv < 0:
        raise MetricError("h_vv(0,0) < 0: metric is not positive semidefinite here")
    if d2 <= ROUTE_TOL:
        raise MetricError("metric bracket determinant vanishes: not a cross cap metric")
    if abs(d2 - d2_hess) > max(1.0, abs(d2)) * 1e-9:
        raise MetricError(f"bracket determinant {d2:.12e} and Hessian route {d2_hess:.12e} disagree")
    nc_sq = E0 * Gvv / 2.0 - Fv * Fv  # |f_u x f_vv|^2 = E*G_vv/2 - F_v^2
    if nc_sq <= 0:
        raise MetricError("metric gives |f_u x f_vv|^2 <= 0 at the origin")

    # E0, nc_sq and d2 are the leading minors of the Gram matrix in the order
    # (f_u, f_vv, f_uv), so its Cholesky factor is positive on the diagonal;
    # its rows are f_u, f_vv, f_uv up to a rotation, with the last axis
    # mirrored so that the bracket is positive
    sqrtE, nc, delta = math.sqrt(E0), math.sqrt(nc_sq), math.sqrt(d2)
    fu = (sqrtE, 0.0, 0.0)
    fvv = (Fv / sqrtE, nc / sqrtE, 0.0)
    fuv = (Fu / sqrtE, (E0 * Guv / 2.0 - Fu * Fv) / (sqrtE * nc), -delta / nc)
    # f_uu by forward substitution from f_u.f_uu, f_vv.f_uu and f_uv.f_uu
    x = Eu / 2.0 / sqrtE
    y = (Fuv - Evv / 2.0 - fvv[0] * x) / fvv[1]
    fuu = (x, y, (Fuu - Euv / 2.0 - fuv[0] * x - fuv[1] * y) / fuv[2])
    with np.errstate(over="ignore"):  # past the float range: inf, which _triple refuses
        a02_hess = sqrtE * np.float64(h_vv / 2.0) ** 1.5 / d2
    return _triple("metric", fu, fuu, fuv, fvv, delta, delta_sq_hessian=d2_hess, a02_from_height_hessian=a02_hess)


def route_discrepancy(t1: IntrinsicTriple, t2: IntrinsicTriple) -> float:
    return float(
        max(
            abs(t1.a02 - t2.a02),
            abs(t1.a20 - t2.a20),
            abs(t1.a11 - t2.a11),
            abs(t1.delta_sq - t2.delta_sq),
        )
    )


def focal_conic(triple: IntrinsicTriple, tol: float = DEFAULT_TOL) -> FocalConic:
    """Conic of focal points in the normal plane, in (y, z) coordinates:

        y^2 + 2 a11 y z - (a20 a02 - a11^2) z^2 + a02 z = 0.
    """
    a02, a20, a11 = triple.a02, triple.a20, triple.a11
    if a02 <= 0:
        raise ValueError("focal conic needs a02 > 0")
    return FocalConic(
        yy=1.0,
        yz=2.0 * a11,
        zz=-(a20 * a02 - a11 * a11),
        z=a02,
        kind=CONIC_OF_SIGN[classify_sign(triple, tol)],
    )


def classify_sign(triple: IntrinsicTriple, tol: float = DEFAULT_TOL) -> str:
    """'elliptic', 'hyperbolic' or 'degenerate' by the sign of a20.

    An elliptic cross cap (a20 > 0) has a hyperbola as focal conic and a
    hyperbolic one (a20 < 0) an ellipse; the crossed naming is standard.
    """
    if triple.a20 > tol:
        return "elliptic"
    if triple.a20 < -tol:
        return "hyperbolic"
    return "degenerate"


def isometry_combos(nf: NormalForm) -> ComboQuadruple:
    """Third-order coefficient combinations shared by isometric cross caps."""
    a02 = nf.a_coeff(0, 2)
    if a02 <= 0:
        raise ValueError("valid normal forms have a02 > 0")
    a20 = nf.a_coeff(2, 0)
    a11 = nf.a_coeff(1, 1)
    b3 = nf.b_coeff(3)
    m = 1.0 + a11 * a11
    return ComboQuadruple(
        c1=nf.a_coeff(0, 3) + 1.5 * a11 * b3,
        c2=nf.a_coeff(1, 2) + m * b3 / (2.0 * a02),
        c3=nf.a_coeff(2, 1) - a11 * a20 * b3 / (6.0 * a02),
        c4=nf.a_coeff(3, 0) - m * a20 * b3 / (2.0 * a02 * a02),
    )
