"""Reduction of a cross cap germ to its canonical coordinate form.

The canonical shape, unique once the pure quadratic v-coefficient is made
positive, is

    (u, v) -> (u,  u v + sum_{i>=3} b_i v^i / i!,
               sum_{2 <= j+k <= N} a_jk u^j v^k / (j! k!)).

reduce() finds the rigid motion and the domain diffeomorphism bringing an
admissible germ to this shape, order by order:

1. translate the image so f(0,0) = 0;
2. if the bracket det(f_u, f_uv, f_vv) is negative, compose with the domain
   flip (u,v) -> (-u,-v), which switches its sign, through P's sign;
3. rotate so f_u, times that sign, points along +x and f_vv lies in the
   xz-plane with positive z-part;
4. solve for the domain diffeomorphism (P, Q) degree by degree, from its
   linear part in closed form.  g(P, Q) is linear in the powers P^a Q^b,
   which a basis holds flat, one homogeneous degree more per pass; its rows
   P^1 and Q^1 are P and Q themselves, solved in place.  At degree d,
   P^a Q^b (a >= 1) is P times P^(a-1) Q^b and Q^b is Q times Q^(b-1), one
   matrix product for each of the two.  Pass d reads g(P, Q) off the
   basis at degree d-1, to check it (from d = 3), and at degree d, to
   solve Q at degree d-1 from the second component's mixed monomials (the
   divisor is (f_uv . e2) * P_u(0), a multiple of the bracket), then P at
   degree d from the first component with divisor g_x,u(0) = 1/P_u(0).
   Q's update dQ reaches the first component at degree d only as l dQ,
   with l the degree-1 part of g_x,v(P, Q), and the basis at degree d
   only in P Q and Q^2, which take that slice again.  One full-order
   composition, apart from the basis, gives the tables and degree n's
   check: an order-n reduction composes once.  A residual that fails to
   cancel raises with its degree.

The recomposition rotation @ (f(P,Q) - translation) is compared against
the canonical shape and the largest stray coefficient is stored on the
result as ``residual``.  A domain change that shrinks u and v by a factor
s magnifies the round-off at degree d by about s^d, so every residual check
at degree d allows RESIDUAL_TOL * s^d with s = max(1, |P_u(0)|, |Q_v(0)|).
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import NormalFormError
from .jets import Jet2
from .surface import DEFAULT_TOL, SurfaceMap, Vec, canonical_crosscap, cross, dot, norm, require_crosscap

__all__ = ["NormalForm", "CrossCapFrame", "reduce_to_normal_form", "classify", "frame"]

RESIDUAL_TOL = 1e-9


class NormalForm(NamedTuple):
    order: int
    a: np.ndarray  # a[j,k] valid for 2 <= j+k <= order
    b: np.ndarray  # b[i] valid for 3 <= i <= order
    rotation: np.ndarray
    translation: np.ndarray
    domain_u: Jet2
    domain_v: Jet2
    flipped: bool
    residual: float

    def a_coeff(self, j: int, k: int) -> float:
        if j < 0 or k < 0 or j + k < 2 or j + k > self.order:
            return 0.0
        return float(self.a[j, k])

    def b_coeff(self, i: int) -> float:
        if i < 3 or i > self.order:
            return 0.0
        return float(self.b[i])

    def a_table(self) -> list[tuple[int, int, float]]:
        out = []
        for d in range(2, self.order + 1):
            for j in range(d + 1):
                out.append((j, d - j, float(self.a[j, d - j])))
        return out

    def b_table(self) -> list[tuple[int, float]]:
        return [(i, float(self.b[i])) for i in range(3, self.order + 1)]

    def canonical_map(self) -> SurfaceMap:
        """Rebuild the canonical-shape polynomial map from the tables."""
        a = {(j, k): val for j, k, val in self.a_table()}
        b = {i: val for i, val in self.b_table()}
        return canonical_crosscap(a, b, order=self.order)


class CrossCapFrame(NamedTuple):
    point: np.ndarray
    tangent: np.ndarray  # unit f_u direction
    principal_normal: np.ndarray  # spans the principal plane with tangent
    conormal: np.ndarray  # normal of the principal plane

    @property
    def principal_plane(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point, spanning pair) of the plane through f_u and f_vv."""
        return (self.point, self.tangent, self.principal_normal)

    @property
    def normal_plane(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point, spanning pair) of the plane orthogonal to f_u."""
        return (self.point, self.principal_normal, self.conormal)


def _rotation_for(fu: Vec, fvv: Vec) -> np.ndarray:
    """Rows e1 = f_u / |f_u|, e2 = e3 x e1 and e3, the unit part of f_vv normal to f_u."""
    fu_len = norm(fu)
    e1 = tuple(x / fu_len for x in fu)
    s = dot(fvv, e1)
    w = tuple(x - s * e for x, e in zip(fvv, e1))
    w_len = norm(w)
    # Python floats: a length that overflowed only turns its unit vector into zeros
    jets._checked((fu_len, w_len), fu, fvv)
    e3 = tuple(x / w_len for x in w)
    return np.array([e1, cross(e3, e1), e3])


class _Step(NamedTuple):
    """Pass d of a reduction: the flat positions of degrees d-1 and d, each
    by ascending power of u, and the products (rows, parents, by, gather)
    that ``_grow`` runs before the solve and after it."""

    read: np.ndarray
    grow: tuple
    refresh: tuple


class _Plan(NamedTuple):
    p: int  # the basis rows of P and Q, also the flat positions of u and v
    q: int
    steps: tuple  # passes d = 2, ..., n


@lru_cache(maxsize=None)
def _basis_plan(n: int) -> _Plan:
    """The bookkeeping of an order-n basis of rows P^a Q^b, 1 <= a + b <= n,
    in ``jets._table_lags`` order: for each pass, the rows that gain a
    slice, their parents, read below its degree as P and Q vanish at the
    origin, and the rows of P's or Q's product matrix at its degree."""
    j, k, lags = jets._table_lags(n)[:3]
    pos = {(a, b): i for i, (a, b) in enumerate(zip(j.tolist(), k.tolist()))}
    deg = j + k

    def product(at, below, gather, by, pairs):
        rows, parents = zip(*pairs)
        rows, at, parents, below = map(jets._frozen, (*np.ix_(rows, at), *np.ix_(parents, below)))
        return (rows, at), (parents, below), by, gather

    steps = []
    for d in range(2, n + 1):
        at, below = np.flatnonzero(deg == d), np.flatnonzero((deg > 0) & (deg < d))
        slices = (at, below, jets._frozen(lags[np.ix_(at, below)]))  # one gather for P and Q
        grown = [(a, b) for a, b in pos if 2 <= a + b <= d]
        grow = (
            product(*slices, pos[1, 0], [(pos[a, b], pos[a - 1, b]) for a, b in grown if a > 0]),
            product(*slices, pos[0, 1], [(pos[0, b], pos[0, b - 1]) for a, b in grown if a == 0]),
        )
        refresh = (product(*slices, pos[0, 1], [(pos[1, 1], pos[1, 0]), (pos[0, 2], pos[0, 1])]),)
        read = np.concatenate([np.flatnonzero(deg == d - 1), at])
        steps.append(_Step(jets._frozen(read), grow, refresh))
    return _Plan(pos[1, 0], pos[0, 1], tuple(steps))


def _grow(basis: np.ndarray, rows, parents, by: int, gather: np.ndarray) -> None:
    """basis[rows] = row ``by`` times basis[parents]: one product with the
    rows of by's product matrix at the degree that the slices hold."""
    basis[rows] = basis[parents] @ basis[by][gather].T


def _check_second(dev: np.ndarray, degree: int, scale: float) -> None:
    """Refuse when the second component, less u v, keeps a coefficient of
    degree ``degree`` off its pure v-power beyond round-off."""
    if np.abs(dev).max() > RESIDUAL_TOL * scale**degree:
        raise NormalFormError(f"second-component residual survived at degree {degree}", degree=degree)


def reduce_to_normal_form(
    f: SurfaceMap, order: int | None = None, tol: float = DEFAULT_TOL
) -> NormalForm:
    """Canonical coefficient tables plus the motions realizing them."""
    require_crosscap(f, tol)
    n = f.jet.order if order is None else min(order, f.jet.order)
    if n < 2:
        raise NormalFormError("reduction needs jets of order >= 2", degree=n)
    jet = f.jet.truncated(n)

    translation = jet.coeff_vector(0, 0)
    work = jet.translated(-translation)

    # translation and truncation leave f_u, f_vv and the bracket alone
    fu, fvv, bracket = f._origin.fu, f._origin.fvv, f._origin.bracket
    sign = -1.0 if bracket < 0 else 1.0  # the domain flip negates f_u, and P's sign carries it
    rotation = _rotation_for(tuple(sign * x for x in fu), fvv)
    g = work.rotated(rotation)

    alpha = sign * norm(fu)  # g_x,u(0), the divisor for P
    gamma2 = float(g.c[1, 1, 1])  # the uv-coefficient of g_y, nonzero iff the bracket is

    plan = _basis_plan(n)
    j, k = jets._table_lags(n)[:2]
    # basis[(a, b)] holds P^a Q^b flat, through the degrees passed so far; the
    # flat positions of u and v are the rows of P and Q, so P_u is P[plan.p]
    basis = np.zeros((len(j), len(j) + 1))
    P, Q = basis[plan.p], basis[plan.q]
    P[plan.p] = 1.0 / alpha
    qdiv = gamma2 / alpha  # gamma2 * P_u(0), the diagonal divisor for Q
    # Q's linear part in closed form: the uv- and u^2-coefficients of g_y(P, Q)
    # are gamma2 P_u Q_v and g_y,uu(0)/2 P_u^2 + gamma2 P_u Q_u
    Q[plan.q] = 1.0 / qdiv
    Q[plan.p] = -(g.c[1, 2, 0] * P[plan.p] * P[plan.p]) / qdiv
    # composing with (P, Q) multiplies degree-d coefficients, and their
    # round-off, by about P_u(0)^j Q_v(0)^k; RESIDUAL_TOL holds at scale 1
    scale = max(1.0, abs(P[plan.p]), abs(Q[plan.q]))

    uv = Jet2.from_terms({(1, 1): 1.0}, n).c  # the canonical second component, b_i aside
    gflat = g.c[:, j, k]
    uvflat = uv[j, k]

    # pass d grows the basis by degree d, checks degree d-1 and solves degree d
    for d, step in enumerate(plan.steps, start=2):
        for product in step.grow:
            _grow(basis, *product)
        # g(P, Q) at degrees d-1 and d, by ascending power of u.  Every basis slice is
        # read here (P Q and Q^2 by the next pass) and P and Q change by ufuncs alone,
        # so a basis overflow makes comp non-finite from a finite g, reported here
        comp = jets._checked(gflat @ basis[:, step.read], gflat)
        second = comp[1] - uvflat[step.read]
        if d > 2:
            _check_second(second[1:d], d - 1, scale)
        # second component: mixed monomials of degree d determine Q at d-1
        dq = second[d + 1 :] / qdiv
        Q[step.read[:d]] -= dq
        # first component: degree-d monomials determine P at d.  Q's update
        # -dq reaches degree d only through the degree-1 part l of g_x,v(P, Q):
        # its square starts at degree 2d-2 > d for d >= 3, and at d = 2 dq is
        # the round-off of Q's closed-form linear part, so its square is below it
        lu = g.c[0, 1, 1] * P[plan.p] + 2.0 * g.c[0, 0, 2] * Q[plan.p]
        lv = 2.0 * g.c[0, 0, 2] * Q[plan.q]
        first = comp[0, d:]
        first[1:] -= lu * dq
        first[:-1] -= lv * dq
        P[step.read[d:]] -= first / alpha
        for product in step.refresh:
            _grow(basis, *product)

    p, q = np.zeros((2, n + 1, n + 1))  # the tables of P and Q
    p[j, k], q[j, k] = P[:-1], Q[:-1]
    # the tables come from one composition, independent of the basis
    final = jets._compose(g.c, p, q, n)
    m = np.arange(1, n + 1)
    _check_second(final[1, m, n - m] - uv[m, n - m], n, scale)
    idx = np.arange(n + 1)
    degree = idx[:, None] + idx[None, :]
    fact = np.array([math.factorial(i) for i in idx], dtype=float)
    b = final[1, 0] * fact
    b[:3] = 0.0
    a = np.where(degree >= 2, final[2] * fact[:, None] * fact[None, :], 0.0)
    # the canonical shape with the tables read off it; dev is the distance
    canon = np.zeros_like(final)
    canon[0, 1, 0] = 1.0
    canon[1] = uv
    canon[1, 0, 3:] = final[1, 0, 3:]
    canon[2] = np.where(degree >= 2, final[2], 0.0)
    dev = np.abs(final - canon).max(axis=0)
    residual = float(dev.max())
    if not (dev / scale ** np.minimum(degree, n)).max() <= RESIDUAL_TOL:
        raise NormalFormError(
            f"canonical shape residual {residual:.3e} exceeds {RESIDUAL_TOL} x {scale:.3g}^degree",
            degree=n,
        )
    if a[0, 2] <= 0:
        raise NormalFormError("pure quadratic v-coefficient failed to come out positive", degree=2)

    return NormalForm(
        order=n,
        a=a,
        b=b,
        rotation=rotation,
        translation=translation,
        domain_u=Jet2(n, p),
        domain_v=Jet2(n, q),
        flipped=sign < 0,
        residual=residual,
    )


def classify(nf: NormalForm, tol: float = DEFAULT_TOL) -> dict[str, bool]:
    """Shape flags read off the coefficient tables."""
    higher_a = max(
        (abs(val) for j, k, val in nf.a_table() if j + k >= 3), default=0.0
    )
    higher_b = max((abs(val) for _, val in nf.b_table()), default=0.0)
    return {
        "quadratic": higher_a <= tol and higher_b <= tol,
        "normal_up_to_order": higher_b <= tol,
    }


def frame(f: SurfaceMap) -> CrossCapFrame:
    """Distinguished directions and planes at the cross cap point."""
    require_crosscap(f)
    e1, e2, e3 = _rotation_for(f._origin.fu, f._origin.fvv)
    return CrossCapFrame(
        point=f.jet.coeff_vector(0, 0),
        tangent=e1,
        principal_normal=e3,
        conormal=e2,
    )
