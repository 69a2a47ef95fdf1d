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
   linear part in closed form.  Pass d composes once, as deep as d, checks
   degree d-1 (from d = 3), solves Q at degree d-1 from the second
   component's mixed monomials of degree d (the divisor is (f_uv . e2) *
   P_u(0), a multiple of the bracket), then P at degree d from the first
   component with divisor g_x,u(0) = 1/P_u(0).  Q's update dQ reaches the
   first component at degree d only as l dQ, with l the degree-1 part of
   g_x,v(P, Q).  A final full-order composition gives the tables and
   degree n's check: an order-n reduction composes n times.  A residual
   that fails to cancel raises with its degree.

The recomposition rotation @ (f(P,Q) - translation) is compared against
the canonical shape and the largest stray coefficient is stored on the
result as ``residual``.  A domain change that shrinks u and v by a factor
s magnifies the round-off at degree d by about s^d, so every residual check
at degree d allows RESIDUAL_TOL * s^d with s = max(1, |P_u(0)|, |Q_v(0)|).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import NormalFormError
from .jets import Jet2
from .surface import (
    DEFAULT_TOL,
    SurfaceMap,
    canonical_crosscap,
    origin_derivatives,
    require_crosscap,
)

__all__ = ["NormalForm", "CrossCapFrame", "reduce_to_normal_form", "classify", "frame"]

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class NormalForm:
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


@dataclass(frozen=True)
class CrossCapFrame:
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


def _rotation_for(fu: np.ndarray, fvv: np.ndarray) -> np.ndarray:
    e1 = fu / np.linalg.norm(fu)
    w = fvv - (fvv @ e1) * e1
    e3 = w / np.linalg.norm(w)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


def reduce_to_normal_form(
    f: SurfaceMap, order: int | None = None, tol: float = DEFAULT_TOL
) -> NormalForm:
    """Canonical coefficient tables plus the motions realizing them."""
    delta = require_crosscap(f, tol).delta
    n = f.jet.order if order is None else min(order, f.jet.order)
    if n < 2:
        raise NormalFormError("reduction needs jets of order >= 2", degree=n)
    jet = f.jet.truncated(n)

    translation = jet.coeff_vector(0, 0)
    work = jet.translated(-translation)

    # translation and truncation leave f_u, f_uv, f_vv and so the bracket alone
    fu, _, _, _, fvv = origin_derivatives(work.c)
    sign = -1.0 if delta < 0 else 1.0  # the domain flip negates f_u, and P's sign carries it
    rotation = _rotation_for(sign * fu, fvv)
    g = work.rotated(rotation)

    alpha = sign * float(np.linalg.norm(fu))  # g_x,u(0), the divisor for P
    gamma2 = float(g.c[1, 1, 1])  # the uv-coefficient of g_y, nonzero iff the bracket is

    p = np.zeros((n + 1, n + 1))  # the tables of P and Q
    p[1, 0] = 1.0 / alpha
    q = np.zeros_like(p)
    qdiv = gamma2 / alpha  # gamma2 * P_u(0), the diagonal divisor for Q
    # Q's linear part in closed form: the uv- and u^2-coefficients of g_y(P, Q)
    # are gamma2 P_u Q_v and g_y,uu(0)/2 P_u^2 + gamma2 P_u Q_u
    q[0, 1] = 1.0 / qdiv
    q[1, 0] = -(g.c[1, 2, 0] * p[1, 0] * p[1, 0]) / qdiv
    # composing with (P, Q) multiplies degree-d coefficients, and their
    # round-off, by about P_u(0)^j Q_v(0)^k; RESIDUAL_TOL holds at scale 1
    scale = max(1.0, abs(p[1, 0]), abs(q[0, 1]))

    uv = Jet2.from_terms({(1, 1): 1.0}, n).c  # the canonical second component, b_i aside

    # pass d composes once, as deep as d, checks degree d-1 and solves degree
    # d; pass n + 1 is the final full-order composition, which gives the tables
    for d in range(2, n + 2):
        e = min(d, n)
        comp = jets._compose(np.where(jets._mask(e), g.c[:, : e + 1, : e + 1], 0.0), p, q, e)
        m = np.arange(1, d)  # u^m v^(d-1-m), the mixed monomials of degree d-1
        if d > 2 and np.abs(comp[1, m, d - 1 - m] - uv[m, d - 1 - m]).max() > RESIDUAL_TOL * scale ** (d - 1):
            raise NormalFormError(f"second-component residual survived at degree {d - 1}", degree=d - 1)
        if d > n:
            break
        j = np.arange(d + 1)  # u^j v^(d-j) runs over the degree-d monomials
        # second component: mixed monomials of degree d determine Q at d-1
        dq = (comp[1, j[1:], d - j[1:]] - uv[j[1:], d - j[1:]]) / qdiv
        q[j[:-1], d - 1 - j[:-1]] -= dq
        # first component: degree-d monomials determine P at d.  Q's update
        # -dq reaches degree d only through the degree-1 part l of g_x,v(P, Q):
        # its square starts at degree 2d-2 > d for d >= 3, and at d = 2 dq is
        # the round-off of Q's closed-form linear part, so its square is below it
        lu = g.c[0, 1, 1] * p[1, 0] + 2.0 * g.c[0, 0, 2] * q[1, 0]
        lv = 2.0 * g.c[0, 0, 2] * q[0, 1]
        first = comp[0, j, d - j]
        first[1:] -= lu * dq
        first[:-1] -= lv * dq
        p[j, d - j] -= first / alpha

    final = comp
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
    """Degeneracy and shape flags read off the coefficient tables."""
    higher_a = max(
        (abs(val) for j, k, val in nf.a_table() if j + k >= 3), default=0.0
    )
    higher_b = max((abs(val) for _, val in nf.b_table()), default=0.0)
    return {
        "degenerate": abs(nf.a_coeff(2, 0)) <= tol,
        "quadratic": higher_a <= tol and higher_b <= tol,
        "normal_up_to_order": higher_b <= tol,
    }


def frame(f: SurfaceMap) -> CrossCapFrame:
    """Distinguished directions and planes at the cross cap point."""
    require_crosscap(f)
    fu, _, _, _, fvv = origin_derivatives(f.jet.c)
    e1, e2, e3 = _rotation_for(fu, fvv)
    return CrossCapFrame(
        point=f.jet.coeff_vector(0, 0),
        tangent=e1,
        principal_normal=e3,
        conormal=e2,
    )
