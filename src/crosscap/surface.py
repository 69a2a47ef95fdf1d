"""Surface map germs and their pointwise differential geometry.

A :class:`SurfaceMap` wraps the jet of a map germ (u,v) -> R^3 at the
origin.  A polynomial map is its jet.  A ruled surface gamma(v) + u xi(v)
is the subclass ruled.RuledSurface, which overrides ``evaluate_grid`` and
``derivative_jets`` to give positions and Taylor data recentered at any
parameter point (exactly, when the ruling is backed).  All pointwise
quantities (fundamental forms, curvatures) are read off the Taylor tables
of ``derivative_jets``, so no finite differencing is involved on the
library side.

Off the origin a map answers two questions.  Points come in grids
(``evaluate_grid``; a single point is a one-point grid), derivatives at
paired points (us[i], vs[i]) (``derivative_jets``) as stacked tables
c[point, i, j, k], in one call: a ruled surface expands its directrix and
ruling once per distinct v.  A table leaves out the directrix point
gamma(v0), the one coefficient that needs a backed surface's directrix
path, so the curvatures, the second form and deformation.verify_isometry
grow no path.  ``local_jet`` is the two answers together: the derivatives
with f(u0, v0) as constant term.  ``_forms`` reads both fundamental forms
at paired points in one stacked pass, from one derivative_jets call;
``curvatures_at`` and ``second_form_at`` are its one-point case.

At the origin a map is read once, into ``SurfaceMap._origin``; formulas at
the cross cap point read it through the float kernels dot, cross, norm, det3.

Conventions.  The unit normal at a regular point is f_u x f_v normalized.
The limiting normal along the ray of angle theta is obtained by polar
substitution u = r cos(theta), v = r sin(theta) into the jet of f_u x f_v
and normalizing the lowest-order vector coefficient in r; its sign is fixed
so that det(f_u, f_vv, nu) > 0 at the origin whenever that determinant is
nonzero, and the determinant is reported alongside.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import JetDomainError, NotACrossCapError, SingularPointError
from .jets import Jet2, Jet3, _checked, _product, table_shift

DEFAULT_TOL = 1e-9

Domain = tuple[tuple[float, float], tuple[float, float]]
DEFAULT_DOMAIN: Domain = ((-1.0, 1.0), (-1.0, 1.0))
Vec = tuple[float, float, float]


# ----------------------------------------------------------------------
# 3-vectors at one point, on Python floats: a numpy call costs more than its arithmetic

def dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def norm(a: Vec) -> float:
    return math.sqrt(dot(a, a))


def det3(a: Vec, b: Vec, c: Vec) -> float:
    """det(a, b, c) as a . (b x c), on Python floats (see the overflow rule in ``jets``)."""
    return dot(a, cross(b, c))


class Origin(NamedTuple):
    """f_u, ..., f_vv at the origin, the bracket det(f_u, f_uv, f_vv) and |f_v|."""

    fu: Vec
    fv: Vec
    fuu: Vec
    fuv: Vec
    fvv: Vec
    bracket: float
    fv_norm: float


class Immutable:
    """Attributes set once, by ``__init__`` through ``vars(self)``: a class
    that caches with ``cached_property`` (which writes the instance dict
    itself) but whose fields never change.  Equality is identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SurfaceMap(Immutable):
    def __init__(self, jet: Jet3, domain_hint: Domain = DEFAULT_DOMAIN):
        vars(self).update(jet=jet, domain_hint=domain_hint)

    @property
    def order(self) -> int:
        return self.jet.order

    def __call__(self, u: float, v: float) -> np.ndarray:
        return self.evaluate_grid([u], [v])[0, 0]

    def evaluate_grid(self, us: Sequence[float], vs: Sequence[float]) -> np.ndarray:
        """Points f(u, v) for u in us and v in vs, shape (len(us), len(vs), 3);
        a polynomial map's by Horner's rule, each the bits of ``self.jet(u, v)``."""
        return np.moveaxis(np.polynomial.polynomial.polygrid2d(us, vs, np.moveaxis(self.jet.c, 0, -1)), 0, -1)

    def local_jet(self, u0: float, v0: float, order: int = 2) -> Jet3:
        """Taylor jet of the map recentered at (u0, v0): the derivatives of
        derivative_jets and the point f(u0, v0)."""
        c = self.derivative_jets([u0], v0, order)[0]
        c[:, 0, 0] = self(u0, v0)
        return Jet3(c.shape[-1] - 1, c)

    def derivative_jets(self, us: Sequence[float], vs: Sequence[float], order: int = 2) -> np.ndarray:
        """Jet tables at the points (us[i], vs[i]), us and vs broadcast, shape (points,
        3, n + 1, n + 1), n = order (at most a polynomial's own), up to the constant
        term: a ruled surface leaves out gamma(v0), which needs the directrix path."""
        if order < 0:
            raise JetDomainError("jet order must be nonnegative")
        return table_shift(self.jet.c, us, vs, min(order, self.jet.order))

    @cached_property
    def _origin(self) -> Origin:
        fu, fv, fuu, fuv, fvv = (tuple(x.tolist()) for x in origin_derivatives(self.jet.c))
        bracket, fv_norm = _checked((det3(fu, fuv, fvv), norm(fv)), fu, fv, fuv, fvv)
        return Origin(fu, fv, fuu, fuv, fvv, bracket, fv_norm)

    @cached_property
    def _first_form(self) -> FundamentalForms:
        fu, fv, n = self.jet.deriv_u().c, self.jet.deriv_v().c, self.order - 1
        # f_u.f_u, f_u.f_v and f_v.f_v from one product of stacked tables,
        # summed x + y + z as Jet3.dot sums them
        p = _product(np.stack([fu, fu, fv]), np.stack([fu, fv, fv]), n)
        E, F, G = (Jet2(n, c) for c in p[:, 0] + p[:, 1] + p[:, 2])
        return FundamentalForms(E=E, F=F, G=G)


class FundamentalForms(NamedTuple):
    """First-form jets; second-form values are pointwise, see second_form_at."""

    E: Jet2
    F: Jet2
    G: Jet2

    def max_coeff_diff(self, other: "FundamentalForms") -> float:
        """Largest coefficient difference between the two first forms."""
        return max(
            self.E.max_coeff_diff(other.E),
            self.F.max_coeff_diff(other.F),
            self.G.max_coeff_diff(other.G),
        )


class CrossCapTest(NamedTuple):
    is_crosscap: bool
    delta: float
    fv_norm: float
    tol: float


class LimitingNormal(NamedTuple):
    vector: np.ndarray
    orientation: float  # det(f_u, f_vv, nu) at the origin
    leading_order: int


# ----------------------------------------------------------------------
# builders

def surface_from_polynomial(
    terms: Mapping[tuple[int, int], Sequence[float]],
    order: int = 6,
    domain: Domain = DEFAULT_DOMAIN,
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
    """E, F, G jets of f, computed once per map."""
    return f._first_form


def origin_derivatives(c: np.ndarray):
    """f_u, f_v, f_uu, f_uv, f_vv at the origin of a map's coefficient table
    c[..., i, j, k], or of a stack of them, as vectors, zero past its order."""
    d, m = np.zeros(c.shape[:-2] + (3, 3)), min(c.shape[-1], 3)
    d[..., :m, :m] = c[..., :m, :m]
    return d[..., 1, 0], d[..., 0, 1], 2.0 * d[..., 2, 0], d[..., 1, 1], 2.0 * d[..., 0, 2]


def _forms(f: SurfaceMap, us: Sequence[float], vs: Sequence[float]):
    """(E, F, G, E G - F^2, L, M, N) as arrays over the regular points (us[i], vs[i]),
    from one derivative_jets call; L, M, N follow f_u x f_v / |f_u x f_v|.
    Each point has the bits of one-point cross, @ and norm; the first bad point is refused."""
    for u, v in zip(us, vs):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"point ({u}, {v}) is not finite")
    fu, fv, fuu, fuv, fvv = d = origin_derivatives(f.derivative_jets(us, vs))
    n = np.cross(fu, fv)
    finite = np.isfinite(d).all(axis=(0, 2)) & np.isfinite(n).all(axis=1)
    length = np.sqrt(np.vecdot(n, n))  # not sqrt(E G - F^2), which cancels where f_u || f_v
    for u, v, ok, size in zip(us, vs, finite.tolist(), length.tolist()):
        if not ok:  # an overflow is not singular
            raise ValueError(f"derivatives at ({u}, {v}) are not finite")
        if size < 1e-14:
            raise SingularPointError(f"surface is singular at ({u}, {v})")
    E, F, G, nu = np.vecdot(fu, fu), np.vecdot(fu, fv), np.vecdot(fv, fv), n / length[:, None]
    return E, F, G, E * G - F * F, np.vecdot(fuu, nu), np.vecdot(fuv, nu), np.vecdot(fvv, nu)


def second_form_at(f: SurfaceMap, u: float, v: float) -> tuple[float, float, float]:
    """(L, M, N) with respect to the unit normal f_u x f_v / |f_u x f_v|."""
    return tuple(float(x[0]) for x in _forms(f, [u], [v])[4:])


def _curvatures(f: SurfaceMap, us: Sequence[float], vs: Sequence[float]):
    """(K, H) as arrays over the regular points (us[i], vs[i])."""
    E, F, G, W2, L, M, N = _forms(f, us, vs)
    return (L * N - M * M) / W2, (E * N - 2.0 * F * M + G * L) / (2.0 * W2)


def curvatures_at(f: SurfaceMap, u: float, v: float) -> tuple[float, float]:
    """(K, H) at a regular point; H follows the f_u x f_v normal."""
    return tuple(float(x[0]) for x in _curvatures(f, [u], [v]))


# ----------------------------------------------------------------------
# cross cap detection and limiting normals

def detect_crosscap(f: SurfaceMap, tol: float = DEFAULT_TOL) -> CrossCapTest:
    """Criterion: f_v(0,0) = 0 while f_u, f_uv, f_vv are independent."""
    o = f._origin
    return CrossCapTest(o.fv_norm <= tol and abs(o.bracket) > tol, delta=o.bracket, fv_norm=o.fv_norm, tol=tol)


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


def limiting_normal(f: SurfaceMap, theta: float) -> LimitingNormal:
    """Unit limit of the normal direction along the ray of angle theta."""
    fu = f.jet.deriv_u()
    fv = f.jet.deriv_v()
    n = fu.cross(fv)
    profiles = n.polar_profile(theta).T
    scale = max(np.max(np.abs(profiles)), 1.0)
    for m in range(profiles.shape[0]):
        vec = profiles[m]
        length = norm(vec)
        if length > DEFAULT_TOL * scale:
            nu = vec / length
            det = det3(f._origin.fu, f._origin.fvv, nu.tolist())
            if det < -DEFAULT_TOL:
                nu, det = -nu, -det
            return LimitingNormal(vector=nu, orientation=det, leading_order=m)
    raise SingularPointError(
        f"normal direction degenerates identically along theta = {theta}"
    )
