"""Truncated bivariate power series (jets) at the origin.

A :class:`Jet2` stores the coefficients c[j,k] of a polynomial

    p(u, v) = sum_{j+k <= order} c[j,k] u^j v^k

in a dense triangular table and supports the ring operations plus the
composition, square root, reciprocal and calculus operations needed for
normal-form reductions of surface germs.  Coefficients are monomial
coefficients, not derivative values; the (j,k) partial derivative at the
origin is ``c[j,k] * j! * k!`` and is exposed as :meth:`Jet2.partial`.

Each series operation is one array operation:

- the product pads the rows of both tables to width 2n+1 and convolves
  the flattened rows once: u^j v^k becomes t^(j(2n+1)+k), and no product
  of two rows reaches the next row (Kronecker substitution);
- composition p(g, h) forms the powers of h once, the rows
  r_j = sum_k c[j,k] h^k with one tensordot, and sums r_j g^j by Horner's
  rule in g, so about 2n products where the monomial sum took n^2/2.
  A Jet3 shares the powers of h between its components; sqrt and recip
  are the composition of their series with p/p(0) - 1;
- recentring at (u0, v0) is U^T c V with the binomial (Pascal) matrices
  U[a,j] = C(a,j) u0^(a-j) and V[b,k] = C(b,k) v0^(b-k).

Binary operations truncate at the smaller of the two operand orders, so
precision bookkeeping stays explicit at the call site.  Jets are immutable:
every operation returns a fresh instance and the coefficient arrays are
frozen.  A :class:`Jet3` is a triple of scalar jets representing a map germ
``(u, v) -> R^3`` and adds the vector operations (dot, cross, rigid motion)
used throughout the geometry modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import JetDomainError, SingularJetError

__all__ = ["Jet2", "Jet3", "vpoly", "upoly"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _mask(order: int) -> np.ndarray:
    j = np.arange(order + 1)
    return _frozen((j[:, None] + j[None, :]) <= order)


@lru_cache(maxsize=None)
def _binomials(order: int) -> tuple[np.ndarray, np.ndarray]:
    """C(a, j) and the exponents max(a - j, 0), for a, j <= order."""
    a = np.arange(order + 1)
    table = [[math.comb(i, j) for j in a] for i in a]
    return _frozen(np.array(table, dtype=float)), _frozen(np.maximum(a[:, None] - a[None, :], 0))


def _product(a: np.ndarray, b: np.ndarray, n: int) -> "Jet2":
    """Product of two coefficient tables as a jet of order n."""
    a, b = a[: n + 1, : n + 1], b[: n + 1, : n + 1]
    if np.count_nonzero(a[1:]) or np.count_nonzero(b[1:]):
        width = 2 * n + 1
        pa, pb = np.zeros((2, n + 1, width))
        pa[:, : n + 1], pb[:, : n + 1] = a, b
        full = np.convolve(pa.ravel(), pb.ravel())[: (n + 1) * width]
        table = full.reshape(n + 1, width)[:, : n + 1]
    else:
        # both series in v alone: one convolution of the first rows
        table = np.zeros((n + 1, n + 1))
        table[0] = np.convolve(a[0], b[0])[: n + 1]
    out = Jet2(n, table)
    if not np.isfinite(out.c).all() and np.isfinite(a).all() and np.isfinite(b).all():
        # np.convolve does not report overflow through np.errstate; a kept
        # coefficient that overflowed from finite operands is reported here
        np.multiply(np.finfo(float).max, 2.0)
    return out


def _compose(outer: Sequence["Jet2"], g: "Jet2", h: "Jet2") -> list["Jet2"]:
    """[p(g, h) for p in outer], each at order min(p.order, g.order, h.order)."""
    if g.coeff(0, 0) != 0.0 or h.coeff(0, 0) != 0.0:
        raise JetDomainError("composition requires inner jets with zero constant term")
    orders = [min(p.order, g.order, h.order) for p in outer]
    tables = [p.c[: n + 1, : n + 1] for p, n in zip(outer, orders)]
    # powers of h up to the highest one any outer jet uses, shared by all
    kmax = max(np.flatnonzero(t.any(axis=0)).max(initial=0) for t in tables)
    top = max(orders)
    powers = [Jet2.constant(1.0, top), h.truncated(top)][: kmax + 1]
    while len(powers) <= kmax:
        powers.append(powers[-1] * powers[1])
    hp = np.array([p.c for p in powers])
    out = []
    for t, n in zip(tables, orders):
        # rows r_j = sum_k c[j,k] h^k, then Horner in g from the top nonzero row
        k = min(kmax, n) + 1
        rows = np.tensordot(t[:, :k], hp[:k, : n + 1, : n + 1], axes=1)
        jtop = np.flatnonzero(t.any(axis=1)).max(initial=0)
        acc = Jet2(n, rows[jtop])
        for j in range(jtop - 1, -1, -1):
            acc = acc * g + Jet2(n, rows[j])
        out.append(acc)
    return out


class Jet2:
    """Polynomial in (u, v) truncated at total degree ``order``."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, coeffs: np.ndarray | None = None):
        if order < 0:
            raise JetDomainError("jet order must be nonnegative")
        self.order = order
        if coeffs is None:
            c = np.zeros((order + 1, order + 1))
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != (order + 1, order + 1):
                raise JetDomainError(
                    f"coefficient table must be {(order + 1, order + 1)}, got {c.shape}"
                )
            c = np.where(_mask(order), c, 0.0)
        self.c = _frozen(c)

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls, order: int) -> "Jet2":
        return cls(order)

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet2":
        c = np.zeros((order + 1, order + 1))
        c[0, 0] = value
        return cls(order, c)

    @classmethod
    def variable(cls, name: str, order: int) -> "Jet2":
        if order < 1:
            raise JetDomainError("variable jet needs order >= 1")
        c = np.zeros((order + 1, order + 1))
        if name == "u":
            c[1, 0] = 1.0
        elif name == "v":
            c[0, 1] = 1.0
        else:
            raise JetDomainError(f"unknown variable {name!r}")
        return cls(order, c)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], float], order: int) -> "Jet2":
        c = np.zeros((order + 1, order + 1))
        for (j, k), val in terms.items():
            if j < 0 or k < 0:
                raise JetDomainError("monomial exponents must be nonnegative")
            if j + k <= order:
                c[j, k] = val
        return cls(order, c)

    # ------------------------------------------------------------------
    # basic queries
    def coeff(self, j: int, k: int) -> float:
        if j < 0 or k < 0 or j + k > self.order:
            return 0.0
        return float(self.c[j, k])

    def partial(self, j: int, k: int) -> float:
        """Value of the (j,k) partial derivative at the origin."""
        return self.coeff(j, k) * math.factorial(j) * math.factorial(k)

    def terms(self) -> Iterable[tuple[int, int, float]]:
        for j in range(self.order + 1):
            for k in range(self.order + 1 - j):
                val = self.c[j, k]
                if val != 0.0:
                    yield j, k, float(val)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.c)))

    def max_coeff_diff(self, other: "Jet2") -> float:
        n = min(self.order, other.order)
        a = self.truncated(n).c
        b = other.truncated(n).c
        return float(np.max(np.abs(a - b)))

    def __repr__(self) -> str:
        body = ", ".join(f"u^{j} v^{k}: {val:.6g}" for j, k, val in self.terms())
        return f"Jet2(order={self.order}, {{{body}}})"

    # ------------------------------------------------------------------
    # ring operations
    def _coerce(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)):
            return Jet2.constant(float(other), self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return Jet2(n, self.c[: n + 1, : n + 1] + rhs.c[: n + 1, : n + 1])

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, -self.c)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.order, self.c * float(other))
        if not isinstance(other, Jet2):
            return NotImplemented
        n = min(self.order, other.order)
        return _product(self.c, other.c, n)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise JetDomainError("jet powers need a nonnegative integer exponent")
        out = Jet2.constant(1.0, self.order)
        for _ in range(exponent):
            out = out * self
        return out

    # ------------------------------------------------------------------
    # composition and inverses
    def compose(self, g: "Jet2", h: "Jet2") -> "Jet2":
        """Return self(g(u,v), h(u,v)); g and h must vanish at the origin."""
        if isinstance(self, Jet3):  # Jet3.compose: one call, shared powers of h
            return Jet3(*_compose(self.components(), g, h))
        return _compose([self], g, h)[0]

    def _unit_series(self, coeffs: Sequence[float]) -> "Jet2":
        # sum_n coeffs[n] w^n with w = self/c00 - 1, whose constant term is 0
        w = self.c * (1.0 / self.c[0, 0])
        w[0, 0] = 0.0
        series = upoly(coeffs, self.order)
        return _compose([series], Jet2(self.order, w), Jet2.zero(self.order))[0]

    def sqrt(self) -> "Jet2":
        c00 = self.coeff(0, 0)
        if c00 <= 0.0:
            raise SingularJetError("sqrt of a jet needs a positive constant term")
        binom = [1.0]
        for n in range(1, self.order + 1):
            binom.append(binom[-1] * (0.5 - (n - 1)) / n)
        return self._unit_series(binom) * math.sqrt(c00)

    def recip(self) -> "Jet2":
        c00 = self.coeff(0, 0)
        if c00 <= 0.0:
            raise SingularJetError("recip of a jet needs a positive constant term")
        return self._unit_series([(-1.0) ** n for n in range(self.order + 1)]) * (1.0 / c00)

    # ------------------------------------------------------------------
    # calculus
    def deriv_u(self) -> "Jet2":
        n = self.order - 1
        if n < 0:
            raise JetDomainError("cannot differentiate an order-0 jet")
        return Jet2(n, self.c[1:, : n + 1] * np.arange(1, n + 2)[:, None])

    def deriv_v(self) -> "Jet2":
        n = self.order - 1
        if n < 0:
            raise JetDomainError("cannot differentiate an order-0 jet")
        return Jet2(n, self.c[: n + 1, 1:] * np.arange(1, n + 2))

    def integrate_v(self) -> "Jet2":
        """Termwise integral from 0 in v; the order grows by one."""
        n = self.order + 1
        out = np.zeros((n + 1, n + 1))
        out[:n, 1:] = self.c / np.arange(1, n + 1)
        return Jet2(n, out)

    # ------------------------------------------------------------------
    # evaluation and recentering
    def truncated(self, order: int) -> "Jet2":
        if order >= self.order:
            if order == self.order:
                return self
            c = np.zeros((order + 1, order + 1))
            c[: self.order + 1, : self.order + 1] = self.c
            return Jet2(order, c)
        return Jet2(order, self.c[: order + 1, : order + 1].copy())

    def __call__(self, u: float, v: float) -> float:
        up = u ** np.arange(self.order + 1)
        vp = v ** np.arange(self.order + 1)
        return float(up @ self.c @ vp)

    def shifted_origin(self, u0: float, v0: float) -> "Jet2":
        """Exact Taylor recentering: q(s,t) = p(u0+s, v0+t)."""
        # (x0 + s)^a = sum_j C(a, j) x0^(a-j) s^j, one Pascal matrix per variable
        binom, expo = _binomials(self.order)
        return Jet2(self.order, (binom * u0**expo).T @ self.c @ (binom * v0**expo))

    def polar_profile(self, theta: float) -> np.ndarray:
        """Coefficients of r^m along u = r cos(theta), v = r sin(theta)."""
        cs, sn = math.cos(theta), math.sin(theta)
        out = np.zeros(self.order + 1)
        for j, k, val in self.terms():
            out[j + k] += val * cs**j * sn**k
        return out


def vpoly(coeffs: Sequence[float], order: int) -> Jet2:
    """Univariate polynomial in v embedded as a Jet2."""
    c = np.zeros((order + 1, order + 1))
    for k, val in enumerate(coeffs[: order + 1]):
        c[0, k] = val
    return Jet2(order, c)


def upoly(coeffs: Sequence[float], order: int) -> Jet2:
    c = np.zeros((order + 1, order + 1))
    for j, val in enumerate(coeffs[: order + 1]):
        c[j, 0] = val
    return Jet2(order, c)


@dataclass(frozen=True)
class Jet3:
    """Jet of a map germ (u,v) -> R^3, one scalar jet per component."""

    x: Jet2
    y: Jet2
    z: Jet2

    @property
    def order(self) -> int:
        return min(self.x.order, self.y.order, self.z.order)

    @classmethod
    def zero(cls, order: int) -> "Jet3":
        return cls(Jet2.zero(order), Jet2.zero(order), Jet2.zero(order))

    @classmethod
    def from_terms(
        cls, terms: Mapping[tuple[int, int], Sequence[float]], order: int
    ) -> "Jet3":
        comps = []
        for i in range(3):
            comps.append(
                Jet2.from_terms({jk: vec[i] for jk, vec in terms.items()}, order)
            )
        return cls(*comps)

    @classmethod
    def constant_vector(cls, vec: Sequence[float], order: int) -> "Jet3":
        return cls(*(Jet2.constant(float(vec[i]), order) for i in range(3)))

    def components(self) -> tuple[Jet2, Jet2, Jet2]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Jet3":
        return Jet3(-self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Jet3":
        # scalar, float, or Jet2 multiplier applied componentwise
        return Jet3(self.x * other, self.y * other, self.z * other)

    __rmul__ = __mul__

    def dot(self, other: "Jet3") -> Jet2:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Jet3") -> "Jet3":
        return Jet3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def deriv_u(self) -> "Jet3":
        return Jet3(self.x.deriv_u(), self.y.deriv_u(), self.z.deriv_u())

    def deriv_v(self) -> "Jet3":
        return Jet3(self.x.deriv_v(), self.y.deriv_v(), self.z.deriv_v())

    def integrate_v(self) -> "Jet3":
        return Jet3(self.x.integrate_v(), self.y.integrate_v(), self.z.integrate_v())

    def compose(self, g: Jet2, h: Jet2) -> "Jet3":
        return Jet2.compose(self, g, h)

    def truncated(self, order: int) -> "Jet3":
        return Jet3(self.x.truncated(order), self.y.truncated(order), self.z.truncated(order))

    def shifted_origin(self, u0: float, v0: float) -> "Jet3":
        return Jet3(
            self.x.shifted_origin(u0, v0),
            self.y.shifted_origin(u0, v0),
            self.z.shifted_origin(u0, v0),
        )

    def __call__(self, u: float, v: float) -> np.ndarray:
        return np.array([self.x(u, v), self.y(u, v), self.z(u, v)])

    def coeff_vector(self, j: int, k: int) -> np.ndarray:
        return np.array([self.x.coeff(j, k), self.y.coeff(j, k), self.z.coeff(j, k)])

    def partial_vector(self, j: int, k: int) -> np.ndarray:
        return np.array([self.x.partial(j, k), self.y.partial(j, k), self.z.partial(j, k)])

    def rotated(self, rotation: np.ndarray) -> "Jet3":
        R = np.asarray(rotation, dtype=float)
        comps = self.components()
        new = []
        for i in range(3):
            acc = comps[0] * R[i, 0]
            acc = acc + comps[1] * R[i, 1]
            acc = acc + comps[2] * R[i, 2]
            new.append(acc)
        return Jet3(*new)

    def translated(self, vec: Sequence[float]) -> "Jet3":
        return Jet3(self.x + float(vec[0]), self.y + float(vec[1]), self.z + float(vec[2]))

    def max_coeff_diff(self, other: "Jet3") -> float:
        return max(
            self.x.max_coeff_diff(other.x),
            self.y.max_coeff_diff(other.y),
            self.z.max_coeff_diff(other.z),
        )
