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
criteria: surface.detect_crosscap on the surface itself, then the frame
data; developable members (b = c = 0) fall into the cuspidal edge /
swallowtail / cuspidal cross cap trichotomy, and the criteria being
sufficient conditions only, anything failing every test is reported as
unclassified rather than guessed.

Series in v alone are coefficient arrays, one row per power of v, and all of
the above is series arithmetic in one variable (jets.series_product and its
kin), each dot, cross and frame projection one stacked product;
FrameCoefficients holds them, and the arc length chart of ``normalize`` is a
series reversion solved a coefficient at a time.  A RuledSurface is a
surface.SurfaceMap that keeps gamma and xi as jets in v, whose first rows,
``gamma.c[:, 0].T``, are the vector series, one 3-vector per power of v; the
map's own jet, gamma in row j = 0 and xi in row j = 1, is built when read.  A
surface can be backed (see RulingBacking) by exact data: a spherical curve
(deformation.SphericalCurve, whose frame series are ``curve.series``)
plus frame coefficients (``redeploy``, ``from_frame``) or a deformation family
member (``from_deformation``), which give the Taylor coefficients of xi and
gamma' around any v0.  A backed surface follows gamma and xi along one Taylor
path in v (numerics.TaylorPath) whose block at each node is the backing's
arrays there, so it expands exactly around any point of the chart; unbacked
surfaces are their polynomial jets, exact where those are the surface
(``from_polynomials``) and truncations elsewhere (``normalize``).

gamma and xi depend on v alone, so evaluation goes by v column:
``evaluate_grid`` takes one value per column and broadcasts it over u, and
``derivative_jets`` writes the tables of paired points (u0, v0), less the
directrix point gamma(v0), from one expansion of (gamma, xi) per distinct
v0.  Those need only the backing's series, all from one ``ruling_series``
call, not the path; gamma(v0) comes from ``evaluate_grid`` alone.  Node
positions depend only on the backing, so a column's values do not depend on
which other columns are evaluated.
"""
from __future__ import annotations

from functools import cached_property, partial
from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import JetDomainError, SingularPointError
from .jets import Jet3, _checked, series_compose, series_cross
from .jets import series_derivative, series_integral, series_power, series_product, series_shift
from .numerics import TAYLOR_ORDER, TaylorPath
from .surface import DEFAULT_DOMAIN, Domain, SurfaceMap, cross, det3, detect_crosscap, norm

if TYPE_CHECKING:
    from .deformation import SphericalCurve

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


class RulingBacking(Protocol):
    """Exact data behind a ruled surface: the Taylor coefficients in
    vhat = v - v0 of xi (order + 1 rows) and gamma' (order rows), one
    3-vector per power of vhat; a 1-D array of v0 stacks one per column."""

    def ruling_series(self, v0, order: int) -> tuple[np.ndarray, np.ndarray]: ...


class FrameCoefficients(NamedTuple):
    """Coefficient arrays in v of gamma' in the frame (xi, xi', xi x xi')."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class _FrameBacking(NamedTuple):
    """A spherical ruling plus the frame coefficients of gamma' as one
    (len, 3) array of (a, b, c) rows, one per power of v, zero past each
    coefficient's length: padded once, by ``_frame_backing``."""

    curve: SphericalCurve
    abc: np.ndarray

    def ruling_series(self, v0, order: int) -> tuple[np.ndarray, np.ndarray]:
        frame = np.stack(self.curve.series(v0, order))
        return frame[0], _directrix_derivative(frame, series_shift(self.abc, v0), order - 1)


def _frame_backing(curve: SphericalCurve, fc: FrameCoefficients) -> _FrameBacking:
    abc = np.zeros((max(map(len, fc)), 3))
    for i, p in enumerate(fc):
        abc[: len(p), i] = p
    return _FrameBacking(curve, abc)


class RuledSurface(SurfaceMap):
    """Directrix and ruling as jets in v at the origin, optionally backed
    by exact pointwise data."""

    def __init__(
        self,
        gamma: Jet3,
        xi: Jet3,
        backing: RulingBacking | None = None,
        domain_hint: Domain = DEFAULT_DOMAIN,
    ):
        vars(self).update(gamma=gamma, xi=xi, backing=backing, domain_hint=domain_hint)

    @property
    def order(self) -> int:
        return min(self.gamma.order, self.xi.order)

    @cached_property
    def jet(self) -> Jet3:
        """gamma(v) + u xi(v) as one jet: gamma is row j = 0 of its table, xi row j = 1."""
        n = self.order
        c = np.zeros((3, n + 1, n + 1))
        c[:, 0], c[:, 1:2, :n] = self.gamma.c[:, 0, : n + 1], self.xi.c[:, :1, :n]  # no row 1 at n = 0
        return Jet3(n, c)

    # ------------------------------------------------------------------
    # evaluation, one v column at a time
    def evaluate_grid(self, us: Sequence[float], vs: Sequence[float]) -> np.ndarray:
        """Points gamma(v) + u xi(v), shape (len(us), len(vs), 3).

        gamma(v) and xi(v) are computed once per column and broadcast over u.
        """
        if self.backing is None:
            n = max(self.gamma.order, self.xi.order)
            rows = np.stack([j.truncated(n).c[:, 0].T for j in (self.gamma, self.xi)], axis=-1)
            gx = np.polynomial.polynomial.polyval(np.asarray(vs, dtype=float), rows).T
        else:
            gx = np.array([self._path.state(v) for v in vs], dtype=float).reshape(len(vs), 2, 3)
        return gx[:, 0] + np.asarray(us, dtype=float)[:, None, None] * gx[:, 1]

    @cached_property
    def _path(self) -> TaylorPath:
        """(gamma, xi) of a backed surface as one Taylor path in v."""
        block = partial(_directrix_block, self.backing)
        refusal = "directrix series does not converge near v ="
        return TaylorPath(block, self.gamma.coeff_vector(0, 0), refusal)

    def derivative_jets(self, us: Sequence[float], vs: Sequence[float], order: int = 2) -> np.ndarray:
        """Jet tables of gamma(v) - gamma(v0) + u xi(v) at the points (u0, v0)
        of us and vs, broadcast together, exact for backed surfaces and read
        without the directrix path: row 0 of each table is u0 xi plus
        gamma's terms past the constant."""
        if order < 0:
            raise JetDomainError("jet order must be nonnegative")
        us, vs = np.broadcast_arrays(np.asarray(us, dtype=float), np.asarray(vs, dtype=float))
        index: dict[float, int] = {}  # the column of each distinct v0, in order of appearance
        col = [index.setdefault(v, len(index)) for v in vs.ravel().tolist()]
        v0s, col = np.array(list(index)), np.array(col, dtype=int).reshape(vs.shape)
        n = order + 1
        # gamma's rows 1 .. order and xi's rows 0 .. order, per distinct v0
        gamma, xi = np.empty((len(v0s), order, 3)), np.empty((len(v0s), n, 3))
        # kept on purpose: at v0 = 0, where every radius of a theta = 0 ray sits,
        # the held rows replace a backing's series or a shift (see ROADMAP)
        at_origin = (v0s == 0.0) & (order <= self.order)
        if at_origin.any():
            gamma[at_origin], xi[at_origin] = self.gamma.c[:, 0, 1:n].T, self.xi.c[:, 0, :n].T
        off, v0s = ~at_origin, v0s[~at_origin]
        if len(v0s) and self.backing is not None:
            xi[off], gp = self.backing.ruling_series(v0s, order)
            gamma[off] = gp / np.arange(1, n)[:, None]
        elif len(v0s):
            gamma[off] = series_shift(self.gamma.c[:, 0].T, v0s, order)[:, 1:]
            xi[off] = series_shift(self.xi.c[:, 0].T, v0s, order)
        gamma, xi = gamma[col], xi[col]
        rows = us[..., None, None] * xi
        rows[..., 1:, :] += gamma
        tables = np.zeros(us.shape + (3, n, n))
        tables[..., 0, :] = rows.mT
        tables[..., 1:2, :order] = xi[..., :order, :].mT[..., None, :]
        return tables


def _directrix_block(backing: RulingBacking, v0: float, y: np.ndarray) -> np.ndarray:
    """Taylor coefficients of (gamma, xi) around v0, with gamma(v0) = y[:3]."""
    xi, gp = backing.ruling_series(v0, TAYLOR_ORDER)
    return np.concatenate([series_integral(gp, y[:3]), xi], axis=1)


def _vjet3(rows: np.ndarray, order: int) -> Jet3:
    """The jet in v of a vector series, one 3-vector per power of v, kept to
    the powers up to order."""
    c = np.zeros((3, order + 1, order + 1))
    c[:, 0, : len(rows)] = rows[: order + 1].T
    return Jet3(order, c)


def _dot(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """First n + 1 coefficients of x . y for vector series, y maybe stacked: one series_product."""
    p = series_product(x.T[..., None], y.mT, n)  # component i: x_i y_i
    return p[..., 0, :, 0] + p[..., 1, :, 0] + p[..., 2, :, 0]


def _frame(xi: np.ndarray) -> np.ndarray:
    """(xi, xi', xi x xi') stacked, each to one order below xi."""
    xid = series_derivative(xi)
    n = len(xid) - 1
    return np.stack([xi[: n + 1], xid, series_cross(xi[: n + 1], xid, n)])


def _directrix_derivative(frame: np.ndarray, abc: np.ndarray, n: int) -> np.ndarray:
    """First n + 1 coefficients of a xi + b xi' + c (xi x xi'), as one product."""
    return series_product(frame, np.moveaxis(abc, -1, 0), n).sum(axis=0)


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
    gamma = series_integral(gp, 0.0)
    return RuledSurface(gamma=_vjet3(gamma, order), xi=_vjet3(xi, order), backing=backing)


def from_frame(
    curve: SphericalCurve,
    a: Sequence[float] | float = 0.0,
    b: Sequence[float] | float = 0.0,
    c: Sequence[float] | float = 0.0,
    order: int = 8,
) -> RuledSurface:
    """Ruled surface from a unit-speed spherical ruling and polynomial frame
    coefficients of the directrix derivative, kept to degree order."""
    fc = FrameCoefficients(*(np.array(p, dtype=float, ndmin=1)[: order + 1] for p in (a, b, c)))
    return _backed(_frame_backing(curve, fc), order)


def from_deformation(fam: RulingBacking, order: int = 8) -> RuledSurface:
    """The deformation family member (deformation.DeformationFamily) in its
    natural ruled presentation, backed by the family's exact data."""
    return _backed(fam, order)


# ----------------------------------------------------------------------
# normalization

def is_normalized(rs: RuledSurface) -> bool:
    """|xi|^2 = |xi'|^2 = 1 to within NORMALIZED_TOL in every coefficient."""
    if rs.xi.order < 1:
        raise JetDomainError(f"normalization reads rulings of order 1, got order {rs.xi.order}")
    xi = rs.xi.c[:, 0].T
    devs = (_dot(x, x, len(x) - 1) - np.eye(1, len(x))[0] for x in (xi, series_derivative(xi)))
    return all(np.max(np.abs(dev)) <= NORMALIZED_TOL for dev in devs)


def _reverted(sigma: np.ndarray) -> np.ndarray:
    """w with sigma(w(t)) = t for sigma(0) = 0 < sigma'(0).  Coefficient i of
    sigma(w) is sigma_1 w_i plus sum_(k >= 2) sigma_k (w^k)_i, and those powers
    of w need w_1 .. w_(i-1) alone: one table of the powers grows a column a step."""
    powers = np.zeros((len(sigma), len(sigma)))  # powers[k, i]: t^i in w^k
    w = powers[1]
    w[1] = 1.0 / sigma[1]
    for i in range(2, len(sigma)):
        powers[2 : i + 1, i] = powers[1:i, i - 1 : 0 : -1] @ w[1:i]
        w[i] = -(sigma[2 : i + 1] @ powers[2 : i + 1, i]) / sigma[1]
    return _checked(w, sigma)


def normalize(rs: RuledSurface) -> RuledSurface:
    """Equivalent surface with |xi| = 1 and |xi'| = 1 as series identities.

    Rescales u pointwise by |xi(v)| and reparametrizes v by the arc
    length of the unit ruling.  Requires xi(0) != 0 and xi'(0) != 0
    after scaling; the latter failing means the ruling direction is
    stationary and no spherical arc-length chart exists.
    """
    if is_normalized(rs):
        return rs
    xi = rs.xi.c[:, 0].T
    n = len(xi) - 1
    n2 = _dot(xi, xi, n)
    if n2[0] <= 0.0:
        raise SingularPointError("ruling vanishes at v = 0")
    xi1 = series_product(xi, series_power(n2, -0.5, n), n)
    d = series_derivative(xi1)
    speed2 = _dot(d, d, n - 1)
    if speed2[0] <= NORMALIZED_TOL * NORMALIZED_TOL:
        raise SingularPointError("ruling direction is stationary at v = 0")
    w = _reverted(series_integral(series_power(speed2, 0.5, n - 1), 0.0))
    m = min(rs.gamma.order, n)
    both = np.zeros((n + 1, 6))  # gamma, zero past its order, beside xi1
    both[: m + 1, :3], both[:, 3:] = rs.gamma.c[:, 0, : m + 1].T, xi1
    both = series_compose(both, w, n)
    return RuledSurface(gamma=_vjet3(both[:, :3], m), xi=_vjet3(both[:, 3:], n))


# ----------------------------------------------------------------------
# frame data and redeployment

def frame_coefficients(rs: RuledSurface) -> FrameCoefficients:
    """Project gamma' onto the orthonormal frame (xi, xi', xi x xi')."""
    if not is_normalized(rs):
        raise ValueError("frame coefficients need a normalized ruled surface")
    frame = _frame(rs.xi.c[:, 0].T)
    gp = series_derivative(rs.gamma.c[:, 0].T)
    return FrameCoefficients(*_dot(gp, frame, min(len(gp), frame.shape[1]) - 1))


def reconstruct_directrix(fc: FrameCoefficients, rs: RuledSurface) -> np.ndarray:
    """Coefficients of a xi + b xi' + c (xi x xi'), for checking against
    gamma', to the lowest order of fc and xi'."""
    frame = _frame(rs.xi.c[:, 0].T)
    n = min(len(frame[0]), len(fc.a), len(fc.b), len(fc.c)) - 1
    return _directrix_derivative(frame, np.stack([p[: n + 1] for p in (fc.a, fc.b, fc.c)], axis=1), n)


def redeploy(
    fc: FrameCoefficients,
    new_xi: SphericalCurve | Jet3,
    order: int | None = None,
) -> RuledSurface:
    """Ruled surface with the same frame coefficients along a new unit-speed
    spherical ruling, isometric to any other sharing (a, b, c); a jet ruling
    caps the order at what it and fc support."""
    n = order if order is not None else len(fc.a)
    if not isinstance(new_xi, Jet3):
        return _backed(_frame_backing(new_xi, fc), n)
    probe = RuledSurface(gamma=Jet3.zero(new_xi.order), xi=new_xi)
    if not is_normalized(probe):
        raise ValueError("redeployment ruling must be a unit-speed spherical curve")
    gamma = series_integral(reconstruct_directrix(fc, probe)[:n], 0.0)  # to the order fc and xi' support
    return RuledSurface(gamma=_vjet3(gamma, len(gamma) - 1), xi=new_xi.truncated(len(gamma) - 1))


# ----------------------------------------------------------------------
# classification

def classify_singularity(rs: RuledSurface, tol: float = 1e-9) -> str:
    """Classify the origin by the frame criteria.

    Decision order: cross cap on the raw data; then, among developable
    normalized surfaces, cuspidal cross cap, swallowtail, cuspidal edge;
    then regular; everything else is unclassified (the criteria are
    sufficient, not exhaustive).
    """
    if rs.order < 3:
        raise JetDomainError(f"classification reads jets of order 3, got order {rs.order}")
    if detect_crosscap(rs, tol).is_crosscap:
        return "cross_cap"
    try:
        rsn = normalize(rs)
        fc = frame_coefficients(rsn)
    except (SingularPointError, ValueError):
        fc = None
    if fc is not None and np.max(np.abs(fc.b)) <= tol and np.max(np.abs(fc.c)) <= tol:
        a0, a1 = fc.a[0], fc.a[1]
        x, _, nu = _frame(rsn.xi.c[:, 0].T)
        if (
            abs(det3(x[0], nu[0], nu[1])) <= tol
            and abs(a0) > tol
            and abs(det3(x[0], nu[0], 2.0 * nu[2])) > tol
        ):
            return "cuspidal_cross_cap"
        if abs(a0) <= tol and abs(a1) > tol:
            return "swallowtail"
        if abs(a0) > tol:
            return "cuspidal_edge"
    if norm(cross(rs._origin.fu, rs._origin.fv)) > tol:
        return "regular"
    return "unclassified"
