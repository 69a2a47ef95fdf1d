"""Reduction of a cross cap germ to its canonical coordinate form.

The canonical shape, unique once the pure quadratic v-coefficient is made
positive, is

    (u, v) -> (u,  u v + sum_{i>=3} b_i v^i / i!,
               sum_{2 <= j+k <= N} a_jk u^j v^k / (j! k!)).

reduce() finds the rigid motion and the orientation-preserving domain
diffeomorphism bringing an admissible germ to this shape, order by order:

1. translate the image so f(0,0) = 0;
2. if the bracket det(f_u, f_uv, f_vv) is negative, precompose the domain
   flip (u,v) -> (-u,-v), which switches its sign;
3. rotate so f_u points along +x and f_vv lies in the xz-plane with
   positive z-part;
4. solve for the domain diffeomorphism (P, Q) degree by degree.  At degree
   d the second component's mixed monomials determine the degree-(d-1)
   coefficients of Q diagonally (the divisor is (f_uv . e2) * P_u(0), a
   multiple of the bracket), after which the first component determines
   the degree-d coefficients of P with divisor |f_u|.  A fresh composition
   after each degree keeps the bookkeeping honest; any residual that fails
   to cancel raises with the offending degree.

The recomposition rotation @ (f(P,Q) - translation) is compared against
the canonical shape and the largest stray coefficient is stored on the
result as ``residual``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalFormError
from .jets import Jet2, Jet3
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


def _flip_jet(jet: Jet3) -> Jet3:
    order = jet.order
    idx = np.arange(order + 1)
    sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
    return Jet3(*(Jet2(order, comp.c * sign) for comp in jet.components()))


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
    require_crosscap(f, tol)
    n = f.jet.order if order is None else min(order, f.jet.order)
    if n < 2:
        raise NormalFormError("reduction needs jets of order >= 2", degree=n)
    jet = f.jet.truncated(n)

    translation = jet.coeff_vector(0, 0)
    work = jet.translated(-translation)

    fu, _, _, fuv, fvv = origin_derivatives(work)
    delta = float(np.linalg.det(np.column_stack([fu, fuv, fvv])))
    flipped = delta < 0
    if flipped:
        work = _flip_jet(work)
        fu, fvv = -fu, fvv

    rotation = _rotation_for(fu, fvv)
    g = work.rotated(rotation)

    alpha = float(np.linalg.norm(fu))
    gamma2 = g.y.partial(1, 1)  # nonzero iff the bracket is

    P = Jet2.from_terms({(1, 0): 1.0 / alpha}, n)
    Q = Jet2.zero(n)
    qdiv = gamma2 / alpha  # gamma2 * P_u(0), the diagonal divisor for Q

    def compose() -> Jet3:
        return g.compose(P, Q)

    for d in range(2, n + 1):
        comp = compose()
        # second component: mixed monomials of degree d determine Q at d-1
        target2 = 1.0 if d == 2 else 0.0
        q_new = Q.c.copy()
        for j in range(1, d + 1):
            k = d - j
            res = comp.y.coeff(j, k) - (target2 if (j, k) == (1, 1) else 0.0)
            q_new[j - 1, k] -= res / qdiv
        Q = Jet2(n, q_new)
        comp = compose()
        for j in range(1, d + 1):
            k = d - j
            if abs(comp.y.coeff(j, k) - (target2 if (j, k) == (1, 1) else 0.0)) > RESIDUAL_TOL:
                raise NormalFormError(
                    f"second-component residual survived at degree {d}", degree=d
                )
        # first component: degree-d monomials determine P at d
        p_new = P.c.copy()
        for j in range(d + 1):
            k = d - j
            p_new[j, k] -= comp.x.coeff(j, k) / alpha
        P = Jet2(n, p_new)

    final = compose()
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    residual = 0.0
    for j in range(n + 1):
        for k in range(n + 1 - j):
            d = j + k
            cx, cy, cz = final.x.coeff(j, k), final.y.coeff(j, k), final.z.coeff(j, k)
            residual = max(residual, abs(cx - (1.0 if (j, k) == (1, 0) else 0.0)))
            if (j, k) == (1, 1):
                residual = max(residual, abs(cy - 1.0))
            elif j == 0 and k >= 3:
                b[k] = cy * math.factorial(k)
            else:
                residual = max(residual, abs(cy))
            if d >= 2:
                a[j, k] = cz * math.factorial(j) * math.factorial(k)
            else:
                residual = max(residual, abs(cz))
    if residual > RESIDUAL_TOL:
        raise NormalFormError(
            f"canonical shape residual {residual:.3e} exceeds {RESIDUAL_TOL}", degree=n
        )
    if a[0, 2] <= 0:
        raise NormalFormError("pure quadratic v-coefficient failed to come out positive", degree=2)

    if flipped:
        P, Q = -P, -Q
    return NormalForm(
        order=n,
        a=a,
        b=b,
        rotation=rotation,
        translation=translation,
        domain_u=P,
        domain_v=Q,
        flipped=flipped,
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


def frame(f: SurfaceMap, tol: float = DEFAULT_TOL) -> CrossCapFrame:
    """Distinguished directions and planes at the cross cap point."""
    require_crosscap(f, tol)
    fu, _, _, _, fvv = origin_derivatives(f.jet)
    e1, e2, e3 = _rotation_for(fu, fvv)
    return CrossCapFrame(
        point=f.jet.coeff_vector(0, 0),
        tangent=e1,
        principal_normal=e3,
        conormal=e2,
    )
