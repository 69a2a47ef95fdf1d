"""Ruled surfaces f(u,v) = gamma(v) + u xi(v): normalization, isometric
redeployment of the ruling, and singularity classification.

A ruled surface can always be brought to a normalized shape in which the
ruling direction xi is a unit-speed curve on the unit sphere: rescale u
by |xi(v)| and reparametrize v by the arc length of the scaled ruling.
Writing the directrix derivative in the resulting orthonormal moving
frame,

    gamma'(v) = a(v) xi + b(v) xi' + c(v) (xi x xi'),

the coefficient triple (a, b, c) together with |xi| = |xi'| = 1 pins the
first fundamental form completely:

    E = 1,  F = a,  G = a^2 + b^2 + c^2 + 2 b u + u^2.

Swapping the spherical curve xi for any other unit-speed spherical curve
while keeping (a, b, c) therefore deforms the surface isometrically
(redeploy).  The singular point at the origin is classified by open
criteria on the frame data; developable members (b = c = 0) fall into
the cuspidal edge / swallowtail / cuspidal cross cap trichotomy, and the
criteria being sufficient conditions only, anything failing every test
is reported as unclassified rather than guessed.

Every surface can be backed (see RulingBacking) by exact series data:
a spherical curve plus frame coefficients (``redeploy`` and ``from_frame``)
or an isometric deformation family member (``from_deformation``).  A
backing gives the Taylor coefficients of xi and gamma' in vhat = v - v0
as coefficient arrays, computed by series arithmetic in one variable
(jets.series_product and its kin).  A backed surface follows gamma and xi
along one Taylor path in v (numerics.TaylorPath): the block at each node
is the backing's arrays there, gamma' integrated from the node's gamma(v)
with xi beside it.  Only ``local_ruling`` and the constructors
(``_backed``) make jets of the arrays, so a backed surface expands exactly
around any point of the chart; unbacked surfaces are their polynomial
jets, exact where those are the surface (``from_polynomials``) and
truncations elsewhere (``normalize``).

gamma and xi depend on v alone, so evaluation goes one v column at a
time: ``grid`` takes one path value per column and broadcasts it over
u, and ``local_jets`` expands every u0 of a column from one local ruling
around v0.  Node positions depend only on the backing, so a column's
values do not depend on which other columns are evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Protocol, Sequence

import numpy as np

from .errors import SingularPointError
from .invariants import _det3
from .jets import Jet2, Jet3, series_product, vpoly
from .numerics import TAYLOR_ORDER, TaylorPath
from .surface import SurfaceMap

__all__ = [
    "RuledSurface",
    "FrameCoefficients",
    "from_polynomials",
    "from_frame",
    "from_deformation",
    "is_normalized",
    "normalize",
    "frame_coefficients",
    "reconstruct_directrix",
    "redeploy",
    "classify_singularity",
]

NORMALIZED_TOL = 1e-8


class SphericalFrame(Protocol):
    """A unit-speed spherical curve, such as deformation.SphericalCurve."""

    def series_at(self, s0: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...


class RulingBacking(Protocol):
    """Exact data behind a ruled surface: the Taylor coefficients in
    vhat = v - v0 of xi (order + 1 rows) and gamma' (order rows), one
    3-vector per power of vhat."""

    def ruling_series(self, v0: float, order: int) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class FrameCoefficients:
    """Coordinates of gamma' in the frame (xi, xi', xi x xi')."""

    a: Jet2
    b: Jet2
    c: Jet2


@dataclass(frozen=True)
class _FrameBacking:
    """A spherical ruling plus the frame coefficients of gamma'."""

    curve: SphericalFrame
    coeffs: FrameCoefficients

    def ruling_series(self, v0: float, order: int) -> tuple[np.ndarray, np.ndarray]:
        frame = self.curve.series_at(v0, order)
        coeffs = (self.coeffs.a, self.coeffs.b, self.coeffs.c)
        gp = sum(
            series_product(X, p.shifted_origin(0.0, v0).c[0], order - 1)
            for X, p in zip(frame, coeffs)
        )
        return frame[0], gp


@dataclass(frozen=True)
class RuledSurface:
    """Directrix and ruling as jets in v at the origin, optionally backed
    by exact pointwise data."""

    gamma: Jet3
    xi: Jet3
    backing: RulingBacking | None = None

    @property
    def order(self) -> int:
        return min(self.gamma.order, self.xi.order)

    # ------------------------------------------------------------------
    # evaluation, one v column at a time
    def grid(self, us: Sequence[float], vs: Sequence[float]) -> np.ndarray:
        """Points gamma(v) + u xi(v), shape (len(us), len(vs), 3).

        gamma(v) and xi(v) are computed once per column and broadcast over u.
        """
        if self.backing is None:
            gx = [(self.gamma(0.0, v), self.xi(0.0, v)) for v in vs]
        else:
            gx = [self._path.state(v) for v in vs]
        gx = np.array(gx, dtype=float).reshape(len(vs), 2, 3)
        return gx[:, 0] + np.asarray(us, dtype=float)[:, None, None] * gx[:, 1]

    @cached_property
    def _path(self) -> TaylorPath:
        """(gamma, xi) of a backed surface as one Taylor path in v."""
        block = partial(_directrix_block, self.backing)
        refusal = "directrix series does not converge near v ="
        return TaylorPath(block, self.gamma.coeff_vector(0, 0), refusal)

    def local_ruling(self, v0: float, order: int) -> tuple[Jet3, Jet3]:
        """Jets of (gamma, xi) around v = v0, exact for backed surfaces."""
        if v0 == 0.0 and order <= self.order:
            return self.gamma.truncated(order), self.xi.truncated(order)
        if self.backing is not None:
            xi, gp = self.backing.ruling_series(v0, order)
            gamma = _integrated(gp, self._path.state(v0)[:3])
            return _vjet3(gamma, order), _vjet3(xi, order)
        return tuple(j.shifted_origin(0.0, v0).truncated(order) for j in (self.gamma, self.xi))

    def local_jets(self, us: Sequence[float], v0: float, order: int) -> list[Jet3]:
        """Taylor jets of gamma(v) + u xi(v) recentered at each (u0, v0),
        u0 in us, from one local ruling of the column v = v0."""
        gl, xl = self.local_ruling(v0, order + 1)
        u = Jet2.variable("u", order + 1)
        jets = []
        for u0 in us:
            ul = u + u0
            jets.append((gl + xl * ul).truncated(order))
        return jets

    def local_jet(self, u0: float, v0: float, order: int) -> Jet3:
        """Taylor jet of gamma(v) + u xi(v) recentered at (u0, v0)."""
        return self.local_jets([u0], v0, order)[0]

    def as_surface_map(self) -> SurfaceMap:
        u = Jet2.variable("u", self.order)
        return SurfaceMap(jet=self.gamma + self.xi * u, ruling=self)


def _directrix_block(backing: RulingBacking, v0: float, y: np.ndarray) -> np.ndarray:
    """Taylor coefficients of (gamma, xi) around v0, with gamma(v0) = y[:3]."""
    xi, gp = backing.ruling_series(v0, TAYLOR_ORDER)
    return np.hstack([_integrated(gp, y[:3]), xi])


def _integrated(gp: np.ndarray, gamma0) -> np.ndarray:
    """Coefficients of gamma from those of gamma' and the value gamma0."""
    gamma = np.empty((len(gp) + 1, 3))
    gamma[0] = gamma0
    gamma[1:] = gp / np.arange(1, len(gp) + 1)[:, None]
    return gamma


def _vjet3(rows: np.ndarray, order: int) -> Jet3:
    """The jet in v of a vector series, one 3-vector per power of v."""
    return Jet3(*(vpoly(rows[:, i], order) for i in range(3)))


# ----------------------------------------------------------------------
# constructors

def from_polynomials(
    gamma: Sequence[Sequence[float]],
    xi: Sequence[Sequence[float]],
    order: int = 8,
) -> RuledSurface:
    """Ruled surface from polynomial directrix and ruling, one 3-vector per
    power of v."""
    g = np.asarray(gamma, dtype=float).reshape(-1, 3)
    x = np.asarray(xi, dtype=float).reshape(-1, 3)
    order = max(order, g.shape[0] - 1, x.shape[0] - 1)
    return RuledSurface(gamma=_vjet3(g, order), xi=_vjet3(x, order))


def _backed(backing: RulingBacking, order: int) -> RuledSurface:
    """The surface through the origin with the backing's series at v = 0."""
    xi, gp = backing.ruling_series(0.0, order)
    gamma = _integrated(gp, 0.0)
    return RuledSurface(gamma=_vjet3(gamma, order), xi=_vjet3(xi, order), backing=backing)


def from_frame(
    curve: SphericalFrame,
    a: Sequence[float] | float = 0.0,
    b: Sequence[float] | float = 0.0,
    c: Sequence[float] | float = 0.0,
    order: int = 8,
) -> RuledSurface:
    """Ruled surface from a unit-speed spherical ruling and polynomial frame
    coefficients of the directrix derivative."""

    def as_jet(p) -> Jet2:
        if isinstance(p, (int, float)):
            return Jet2.constant(float(p), order)
        return vpoly(p, order)

    fc = FrameCoefficients(a=as_jet(a), b=as_jet(b), c=as_jet(c))
    return _backed(_FrameBacking(curve, fc), order)


def from_deformation(fam: RulingBacking, order: int = 8) -> RuledSurface:
    """The deformation family member (deformation.DeformationFamily) in its
    natural ruled presentation, backed by the family's exact data."""
    return _backed(fam, order)


# ----------------------------------------------------------------------
# normalization

def is_normalized(rs: RuledSurface, tol: float = NORMALIZED_TOL) -> bool:
    one = Jet2.constant(1.0, rs.xi.order)
    if rs.xi.dot(rs.xi).max_coeff_diff(one) > tol:
        return False
    xid = rs.xi.deriv_v()
    return xid.dot(xid).max_coeff_diff(Jet2.constant(1.0, xid.order)) <= tol


def _invert_series(sigma: Jet2) -> Jet2:
    """Compositional inverse of a v-series with zero constant term."""
    n = sigma.order
    s1 = sigma.coeff(0, 1)
    if s1 == 0.0:
        raise SingularPointError("series has no linear term; not invertible")
    v = Jet2.variable("v", n)
    tail = sigma - v * s1
    w = v * (1.0 / s1)
    for _ in range(n):
        w = (v - tail.compose(Jet2.zero(n), w)) * (1.0 / s1)
    return w


def normalize(rs: RuledSurface, tol: float = NORMALIZED_TOL) -> RuledSurface:
    """Equivalent surface with |xi| = 1 and |xi'| = 1 as jet identities.

    Rescales u pointwise by |xi(v)| and reparametrizes v by the arc
    length of the unit ruling.  Requires xi(0) != 0 and xi'(0) != 0
    after scaling; the latter failing means the ruling direction is
    stationary and no spherical arc-length chart exists.
    """
    if is_normalized(rs, tol):
        return rs
    n2 = rs.xi.dot(rs.xi)
    if n2.coeff(0, 0) <= 0.0:
        raise SingularPointError("ruling vanishes at v = 0")
    xi1 = rs.xi * n2.sqrt().recip()
    d = xi1.deriv_v()
    speed2 = d.dot(d)
    if speed2.coeff(0, 0) <= tol * tol:
        raise SingularPointError("ruling direction is stationary at v = 0")
    sigma = speed2.sqrt().integrate_v()
    w = _invert_series(sigma)
    zero = Jet2.zero(w.order)
    return RuledSurface(
        gamma=rs.gamma.compose(zero, w),
        xi=xi1.compose(zero, w),
    )


# ----------------------------------------------------------------------
# frame data and redeployment

def frame_coefficients(rs: RuledSurface, tol: float = NORMALIZED_TOL) -> FrameCoefficients:
    """Project gamma' onto the orthonormal frame (xi, xi', xi x xi')."""
    if not is_normalized(rs, tol):
        raise ValueError("frame coefficients need a normalized ruled surface")
    xi = rs.xi
    xid = xi.deriv_v()
    xit = xi.truncated(xid.order)
    nu = xit.cross(xid)
    gp = rs.gamma.deriv_v()
    return FrameCoefficients(a=gp.dot(xit), b=gp.dot(xid), c=gp.dot(nu))


def reconstruct_directrix(fc: FrameCoefficients, rs: RuledSurface) -> Jet3:
    """a xi + b xi' + c (xi x xi'), for checking against gamma'."""
    xid = rs.xi.deriv_v()
    xit = rs.xi.truncated(xid.order)
    return xit * fc.a + xid * fc.b + xit.cross(xid) * fc.c


def redeploy(
    fc: FrameCoefficients,
    new_xi: SphericalFrame | Jet3,
    order: int | None = None,
    tol: float = NORMALIZED_TOL,
) -> RuledSurface:
    """Ruled surface with the same frame coefficients along a new unit-speed
    spherical ruling; isometric to any other surface sharing (a, b, c)."""
    n = order if order is not None else fc.a.order + 1
    if not isinstance(new_xi, Jet3):
        return _backed(_FrameBacking(new_xi, fc), n)
    probe = RuledSurface(gamma=Jet3.zero(new_xi.order), xi=new_xi)
    if not is_normalized(probe, tol):
        raise ValueError("redeployment ruling must be a unit-speed spherical curve")
    gp = reconstruct_directrix(fc, probe).truncated(n - 1)
    return RuledSurface(gamma=gp.integrate_v(), xi=new_xi.truncated(n))


# ----------------------------------------------------------------------
# classification

def classify_singularity(rs: RuledSurface, tol: float = 1e-9) -> str:
    """Classify the origin by the frame criteria.

    Decision order: cross cap on the raw data; then, among developable
    normalized surfaces, cuspidal cross cap, swallowtail, cuspidal edge;
    then regular; everything else is unclassified (the criteria are
    sufficient, not exhaustive).
    """
    gp0 = rs.gamma.partial_vector(0, 1)
    xi0 = rs.xi.coeff_vector(0, 0)
    xid0 = rs.xi.partial_vector(0, 1)
    if np.linalg.norm(gp0) <= tol:
        gpp0 = rs.gamma.partial_vector(0, 2)
        if abs(_det3([gpp0, xi0, xid0])) > tol:
            return "cross_cap"
    try:
        rsn = normalize(rs)
        fc = frame_coefficients(rsn)
    except (SingularPointError, ValueError):
        fc = None
    if fc is not None and fc.b.max_abs() <= tol and fc.c.max_abs() <= tol:
        a0 = fc.a.coeff(0, 0)
        a1 = fc.a.partial(0, 1)
        xi = rsn.xi
        xid = xi.deriv_v()
        nu = xi.truncated(xid.order).cross(xid)
        nu1 = nu.deriv_v()
        nu2 = nu1.deriv_v()
        x0 = xi.coeff_vector(0, 0)
        n0 = nu.coeff_vector(0, 0)
        if (
            abs(_det3([x0, n0, nu1.coeff_vector(0, 0)])) <= tol
            and abs(a0) > tol
            and abs(_det3([x0, n0, nu2.coeff_vector(0, 0)])) > tol
        ):
            return "cuspidal_cross_cap"
        if abs(a0) <= tol and abs(a1) > tol:
            return "swallowtail"
        if abs(a0) > tol:
            return "cuspidal_edge"
    if np.linalg.norm(np.cross(xi0, gp0)) > tol:
        return "regular"
    return "unclassified"
