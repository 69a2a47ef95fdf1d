"""Truncated bivariate power series (jets) at the origin.

A jet is a dense triangular table of the coefficients c[j,k] of a polynomial

    p(u, v) = sum_{j+k <= order} c[j,k] u^j v^k.

A :class:`Jet2` holds one table.  A :class:`Jet3`, the jet of a map germ
``(u, v) -> R^3``, stacks its three component tables as c of shape
(3, order + 1, order + 1).  Both share the operations of normal-form
reductions, each acting on the last two axes of c: sums and scaling,
the product with a scalar jet, composition, derivatives, truncation and
recentring.  Jet2 adds the square root and reciprocal, and Jet3 the
vector operations (dot, cross, rigid motion) used throughout the
geometry modules.  Coefficients are monomial coefficients, not
derivative values; the (j,k) partial derivative at the origin is
``c[j,k] * j! * k!`` and is exposed as :meth:`Jet2.partial`.

Each series operation is one array operation on tables:

- the product flattens both tables over the triangle j + k <= n and
  gives each kept monomial t the sum of a_x b_y over the pairs of
  monomials x y = t, one reduction over a pair list cached per order;
- composition p(g, h) is linear in p: on flat tables, a product with g
  or h is one gathered (2-D Toeplitz) matrix from the same index, so the
  powers of h (shared by a Jet3's tables), the rows r_j = sum_k c[j,k] h^k
  and each step of Horner's rule in g are matrix products, about 2n in
  all, with no series product.  The normal form calls it once per
  reduction: its passes grow the powers of its own (g, h) one degree at
  a time, from the rows of the same matrices.  A power p^q (square root,
  reciprocal) is c00^q (1 + w)^q with w = p/c00 - 1, the binomial series
  composed with w;
- recentring at (u0, v0) is U^T c V with the binomial (Pascal) matrices
  U[a,j] = C(a,j) u0^(a-j) and V[b,k] = C(b,k) v0^(b-k), one U per centre
  when ``table_shift`` recentres at a whole array of u0.

Binary operations truncate at the smaller of the two operand orders, so
precision bookkeeping stays explicit at the call site.  Jets are immutable:
every operation returns a fresh instance and the coefficient arrays are
frozen.  Values p(u, v) are Horner's rule in u, then v (``polyval2d``).

A series in one variable t needs no table: the ``series_*`` functions
take and return its coefficient array (a vector series has one 3-vector
row per power of t) and truncate to the first n + 1 coefficients.  The
product is one lower triangular (Toeplitz) matrix product; powers such
as square roots and reciprocals follow a coefficient recurrence,
composition is one matrix of powers of the inner series, a shift is one
product with V, and the derivative and integral scale the rows by their
powers.

Overflow has one rule.  ufuncs and reductions report it through
``np.errstate`` in the calling thread; matrix products only while OpenBLAS
keeps them in that thread (on 2 CPUs, OpenBLAS 0.3.31, a 256 x 256 product
and a 1,501-row matrix-vector product overflowing in their last column or
row were silent on two threads and reported on one); Python floats never.
So a stage whose result comes from a matrix product or Python floats checks
it once, ``_checked`` against the stage's inputs, before a comparison or a
report reads it; nothing else checks.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import JetDomainError, SingularJetError

__all__ = [
    "Jet2",
    "Jet3",
    "series_product",
    "series_cross",
    "series_power",
    "series_compose",
    "series_shift",
    "table_shift",
    "series_derivative",
    "series_integral",
]


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


def _checked(out: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """out, after reporting overflow if it is not finite but the operands are."""
    if not np.isfinite(out).all() and all(np.isfinite(x).all() for x in operands):
        np.multiply(np.finfo(float).max, 2.0)
    return out


@lru_cache(maxsize=None)
def _lags(n: int) -> np.ndarray:
    """k - j at row k, column j <= k, else n + 1 (a zero past the series)."""
    k = np.arange(n + 1)
    return _frozen(np.where(k[:, None] >= k[None, :], k[:, None] - k[None, :], n + 1))


def _product_matrix(b: np.ndarray, n: int) -> np.ndarray:
    """Lower triangular M with M @ a the first n + 1 coefficients of a(t) b(t),
    one M per series stacked on the leading axes of b."""
    padded = np.zeros(b.shape[:-1] + (n + 2,))
    padded[..., : b.shape[-1]] = b
    # the same gather; take is the faster one on stacked rows, indexing on one
    return padded.take(_lags(n), axis=-1) if b.ndim > 1 else padded[_lags(n)]


def series_product(a, b, n: int) -> np.ndarray:
    """First n + 1 coefficients of a(t) b(t) for series in one variable.

    a may be a vector series (one row per power of t); b is scalar, or scalar
    series stacked on leading axes, each times the vector series of a there.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if b.ndim > 1:
        a, b = a[..., : n + 1, :], b[..., : n + 1]
        return _checked(_product_matrix(b, n)[..., : a.shape[-2]] @ a, a, b)
    a, b = a[: n + 1], b[: n + 1]
    return _checked(_product_matrix(b, n)[:, : len(a)] @ a, a, b)


def series_cross(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n + 1 coefficients of a(t) x b(t) for vector series: one stacked series_product."""
    p = series_product(b, np.asarray(a, dtype=float).T, n)  # p[i][:, j] = a_i b_j
    return (p[[1, 2, 0], :, [2, 0, 1]] - p[[2, 0, 1], :, [1, 2, 0]]).T  # a_1 b_2 - a_2 b_1, ...


def series_power(a, p: float, n: int) -> np.ndarray:
    """First n + 1 coefficients of a(t)^p for a(0) > 0, by J. C. P. Miller's
    recurrence k a_0 s_k = sum_(j=1..k) ((p + 1) j - k) a_j s_(k-j), whose
    sum stops at the last nonzero a_j (two terms for a quadratic).  A 2-D a
    holds one series per row, each raised in turn, on Python floats."""
    a = np.asarray(a, dtype=float)[..., : n + 1]
    s = [_power(x, p, n) for x in a.tolist()] if a.ndim > 1 else _power(a.tolist(), p, n)
    return _checked(np.array(s), a)


def _power(a: list, p: float, n: int) -> list:
    while a and a[-1] == 0.0:
        a.pop()
    if not a or a[0] <= 0.0:
        raise SingularJetError("power of a series needs a positive constant term")
    s = [a[0] ** p]
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += ((p + 1.0) * j - k) * a[j] * s[k - j]
        s.append(acc / (k * a[0]))
    return s


def series_compose(c, h, n: int) -> np.ndarray:
    """First n + 1 coefficients of sum_k c_k h(t)^k, for h(0) = 0; c may be
    a vector series.  The powers of h are the rows of one matrix."""
    c, h = np.asarray(c, dtype=float)[: n + 1], np.asarray(h, dtype=float)[: n + 1]
    if h[0] != 0.0:
        raise JetDomainError("composition requires an inner series with zero constant term")
    times_h = _product_matrix(h, n)
    powers = np.zeros((len(c), n + 1))
    powers[0, 0] = 1.0
    for k in range(1, len(c)):
        powers[k] = times_h @ powers[k - 1]
    return _checked(powers.T @ c, c, h)


def series_shift(c, t0, n: int | None = None) -> np.ndarray:
    """The first n + 1 coefficients of c(t0 + t), zero past the series (all
    when n is None); c may be a vector series.  The axes of an array of
    centres t0 lead the result, one shifted series each."""
    c, t0 = np.asarray(c, dtype=float), np.asarray(t0, dtype=float)
    binom, expo = _binomials(len(c) - 1)
    out = (binom * t0[..., None, None] ** expo).mT @ c
    if n is None:
        return out
    out = np.moveaxis(out, t0.ndim, 0)  # one row per power first
    kept = np.zeros((n + 1,) + out.shape[1:])
    kept[: len(out)] = out[: n + 1]
    return np.moveaxis(kept, 0, t0.ndim)


def series_derivative(x: np.ndarray) -> np.ndarray:
    """Coefficients of x' from those of a series x."""
    return (x[1:].T * np.arange(1, len(x))).T


def series_integral(dx: np.ndarray, x0) -> np.ndarray:
    """Coefficients of a series x from those of x' and the value x0."""
    x = np.empty((len(dx) + 1,) + dx.shape[1:])
    x[0] = x0
    x[1:] = (dx.T / np.arange(1, len(dx) + 1)).T
    return x


def table_shift(c: np.ndarray, u0, v0, order: int) -> np.ndarray:
    """Tables at order ``order`` of p(u0 + s, v0 + t) for each jet table p
    stacked in c[..., j, k], masked only if truncated (a shift keeps total
    degree); arrays of centres u0 and v0 broadcast together, and their axes
    lead the result."""
    # (x0 + s)^a = sum_j C(a, j) x0^(a-j) s^j, one Pascal matrix per variable
    binom, expo = _binomials(c.shape[-1] - 1)
    U, V = (binom * np.asarray(x, dtype=float)[(...,) + (None,) * c.ndim] ** expo for x in (u0, v0))
    out = (np.swapaxes(U, -1, -2) @ c @ V)[..., : order + 1, : order + 1]
    return out if order >= c.shape[-1] - 1 else np.where(_mask(order), out, 0.0)


@lru_cache(maxsize=None)
def _table_lags(n: int) -> tuple[np.ndarray, ...]:
    """The triangle j + k <= n as index arrays j, k; at row t, column x the
    position of the monomial t / x in it, else its length (a zero); and the
    pairs (x, t / x), grouped by t in order, with the first pair of each t."""
    j, k = np.nonzero(_mask(n))
    pos = np.cumsum(_mask(n)).reshape(n + 1, n + 1) - 1  # row-major, as j, k
    dj, dk = j[:, None] - j, k[:, None] - k
    lags = np.where((dj >= 0) & (dk >= 0), pos[dj, dk], len(j))
    t, x = np.nonzero(lags < len(j))
    return tuple(map(_frozen, (j, k, lags, x, lags[t, x], np.flatnonzero(np.diff(t, prepend=-1)))))


def _product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product of coefficient tables at order n; a and b may stack tables
    along leading axes, which broadcast."""
    j, k, _, x, y, starts = _table_lags(n)
    a, b = a[..., j, k], b[..., j, k]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (n + 1, n + 1))
    # each kept monomial t sums a_x b_y over its pairs
    out[..., j, k] = np.add.reduceat(a[..., x] * b[..., y], starts, axis=-1)
    return out


def _table_product_matrix(b: np.ndarray, n: int) -> np.ndarray:
    """M with M @ x = x(u, v) b(u, v) at order n, x flat as in ``_table_lags``."""
    j, k, lags = _table_lags(n)[:3]
    return np.append(b[j, k], 0.0)[lags]


def _compose(c: np.ndarray, g: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Tables of p(g, h) at order n for each table p stacked in c[..., j, k];
    g and h are tables of order >= n that vanish at the origin."""
    if g[0, 0] != 0.0 or h[0, 0] != 0.0:
        raise JetDomainError("composition requires inner jets with zero constant term")
    c = c[..., : n + 1, : n + 1]
    tables = c.reshape(-1, n + 1, n + 1)
    j, k = _table_lags(n)[:2]
    # flat powers of h up to the highest one any table uses, shared by all
    kmax = np.flatnonzero(tables.any(axis=(0, 1))).max(initial=0)
    hp = np.zeros((kmax + 1, len(j)))
    hp[0, 0] = 1.0
    times_h = _table_product_matrix(h, n) if kmax else None
    for p in range(1, kmax + 1):
        hp[p] = times_h @ hp[p - 1]
    times_g = _table_product_matrix(g, n) if tables[:, 1:].any() else None
    out = np.zeros_like(tables)
    for i, t in enumerate(tables):
        # rows r_j = sum_k c[j,k] h^k, then Horner in g from the top nonzero row
        rows = t[:, : kmax + 1] @ hp
        jtop = np.flatnonzero(t.any(axis=1)).max(initial=0)
        acc = rows[jtop]
        for r in range(jtop - 1, -1, -1):
            acc = times_g @ acc + rows[r]
        out[i, j, k] = acc
    return _checked(out.reshape(c.shape), c, g, h)


class _Jet:
    """Coefficient tables c[..., j, k] truncated at total degree ``order``;
    the operations act on the last two axes."""

    __slots__ = ("order", "c")
    _stack: tuple[int, ...] = ()  # the leading axes of c

    def __init__(self, order: int, coeffs: np.ndarray | None = None):
        if order < 0:
            raise JetDomainError("jet order must be nonnegative")
        self.order = order
        shape = self._stack + (order + 1, order + 1)
        if coeffs is None:
            c = np.zeros(shape)
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != shape:
                raise JetDomainError(f"coefficient table must be {shape}, got {c.shape}")
            c = np.where(_mask(order), c, 0.0)
        self.c = _frozen(c)

    @classmethod
    def zero(cls, order: int):
        return cls(order)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], float | Sequence[float]], order: int):
        c = np.zeros(cls._stack + (order + 1, order + 1))
        for (j, k), val in terms.items():
            if j < 0 or k < 0:
                raise JetDomainError("monomial exponents must be nonnegative")
            if j + k <= order:
                c[..., j, k] = val
        return cls(order, c)

    def _entry(self, j: int, k: int) -> np.ndarray:
        """c[..., j, k], zero outside the triangle."""
        if j < 0 or k < 0 or j + k > self.order:
            return np.zeros(self._stack)
        return self.c[..., j, k]

    def max_coeff_diff(self, other) -> float:
        n = min(self.order, other.order)
        return float(np.max(np.abs(self.truncated(n).c - other.truncated(n).c)))

    # ------------------------------------------------------------------
    # ring operations
    def _coerce(self, other):
        """other if it is a jet of this type, a number as a constant one, else None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, float)):
            return type(self).from_terms({(0, 0): other}, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return type(self)(n, self.c[..., : n + 1, : n + 1] + rhs.c[..., : n + 1, : n + 1])

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.order, -self.c)

    def __sub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs + (-self)

    def __mul__(self, other):
        """Scaling by a number, or the product of each table with a scalar jet."""
        if isinstance(other, (int, float)):
            return type(self)(self.order, self.c * float(other))
        if not isinstance(other, Jet2):
            return NotImplemented
        n = min(self.order, other.order)
        return type(self)(n, _product(self.c, other.c, n))

    __rmul__ = __mul__

    def compose(self, g: "Jet2", h: "Jet2"):
        """Return self(g(u,v), h(u,v)); g and h must vanish at the origin."""
        n = min(self.order, g.order, h.order)
        return type(self)(n, _compose(self.c, g.c, h.c, n))

    # ------------------------------------------------------------------
    # calculus, truncation and recentring
    def deriv_u(self):
        n = self.order - 1
        if n < 0:
            raise JetDomainError("cannot differentiate an order-0 jet")
        return type(self)(n, self.c[..., 1:, : n + 1] * np.arange(1, n + 2)[:, None])

    def deriv_v(self):
        n = self.order - 1
        if n < 0:
            raise JetDomainError("cannot differentiate an order-0 jet")
        return type(self)(n, self.c[..., : n + 1, 1:] * np.arange(1, n + 2))

    def truncated(self, order: int):
        if order == self.order:
            return self
        c = np.zeros(self._stack + (order + 1, order + 1))
        m = min(order, self.order) + 1
        c[..., :m, :m] = self.c[..., :m, :m]
        return type(self)(order, c)

    def shifted_origin(self, u0: float, v0: float):
        """Exact Taylor recentering: q(s,t) = p(u0+s, v0+t)."""
        return type(self)(self.order, table_shift(self.c, u0, v0, self.order))

    def __call__(self, u: float, v: float):
        return np.polynomial.polynomial.polyval2d(u, v, np.moveaxis(self.c, (-2, -1), (0, 1)))

    def polar_profile(self, theta: float) -> np.ndarray:
        """Coefficients of r^m along u = r cos(theta), v = r sin(theta), in
        the last axis."""
        n = self.order
        cs, sn = math.cos(theta), math.sin(theta)
        powers = [[cs**j for j in range(n + 1)], [sn**k for k in range(n + 1)]]
        terms = self.c * np.array(powers[0])[:, None] * np.array(powers[1])
        # out[m] sums c[j, m - j] cs^j sn^(m-j) in the order of j
        out = np.zeros(self._stack + (n + 1,))
        for j in range(n + 1):
            out[..., j:] += terms[..., j, : n + 1 - j]
        return out


class Jet2(_Jet):
    """Polynomial in (u, v) truncated at total degree ``order``."""

    __slots__ = ()

    # named in Jet2's own body, where the benchmark's tracer wraps them
    __mul__ = __rmul__ = _Jet.__mul__
    __call__ = _Jet.__call__
    compose = _Jet.compose
    shifted_origin = _Jet.shifted_origin

    @classmethod
    def variable(cls, name: str, order: int) -> "Jet2":
        if order < 1:
            raise JetDomainError("variable jet needs order >= 1")
        if name not in ("u", "v"):
            raise JetDomainError(f"unknown variable {name!r}")
        return cls.from_terms({(1, 0) if name == "u" else (0, 1): 1.0}, order)

    def coeff(self, j: int, k: int) -> float:
        return float(self._entry(j, k))

    def partial(self, j: int, k: int) -> float:
        """Value of the (j,k) partial derivative at the origin."""
        return self.coeff(j, k) * math.factorial(j) * math.factorial(k)

    def terms(self) -> Iterable[tuple[int, int, float]]:
        for j in range(self.order + 1):
            for k in range(self.order + 1 - j):
                val = self.c[j, k]
                if val != 0.0:
                    yield j, k, float(val)

    def __repr__(self) -> str:
        body = ", ".join(f"u^{j} v^{k}: {val:.6g}" for j, k, val in self.terms())
        return f"Jet2(order={self.order}, {{{body}}})"

    # no library code calls sqrt, recip or Jet3.components; the benchmark
    # wraps and reads them by name
    def _power(self, p: float) -> "Jet2":
        """self^p = c00^p (1 + w)^p with w = self/c00 - 1, whose constant term is 0."""
        c00 = self.coeff(0, 0)
        if c00 <= 0.0:
            raise SingularJetError("power of a jet needs a positive constant term")
        n = self.order
        w = self.c * (1.0 / c00)
        w[0, 0] = 0.0
        binomials = np.zeros((n + 1, n + 1))
        binomials[:, 0] = series_power([1.0, 1.0], p, n)
        return Jet2(n, _compose(binomials, w, np.zeros((n + 1, n + 1)), n)) * c00**p

    def sqrt(self) -> "Jet2":
        return self._power(0.5)

    def recip(self) -> "Jet2":
        return self._power(-1.0)


class Jet3(_Jet):
    """Jet of a map germ (u,v) -> R^3, its component tables stacked as c[i]."""

    __slots__ = ()
    _stack = (3,)

    def components(self) -> tuple[Jet2, Jet2, Jet2]:
        return tuple(Jet2(self.order, t) for t in self.c)

    def dot(self, other: "Jet3") -> Jet2:
        n = min(self.order, other.order)
        p = _product(self.c, other.c, n)
        return Jet2(n, p[0] + p[1] + p[2])

    def cross(self, other: "Jet3") -> "Jet3":
        n = min(self.order, other.order)
        # a_y b_z - a_z b_y and its cyclic permutations, from one product
        p = _product(self.c[[1, 2, 0, 2, 0, 1]], other.c[[2, 0, 1, 1, 2, 0]], n)
        return Jet3(n, p[:3] - p[3:])

    def coeff_vector(self, j: int, k: int) -> np.ndarray:
        return np.array(self._entry(j, k))

    def rotated(self, rotation: np.ndarray) -> "Jet3":
        R = np.asarray(rotation, dtype=float)[:, :, None, None]
        c = self.c
        # summed c0 R[:, 0] + c1 R[:, 1] + c2 R[:, 2], in this order, as the
        # component sums always were, so results keep their last bits
        return Jet3(self.order, c[0] * R[:, 0] + c[1] * R[:, 1] + c[2] * R[:, 2])

    def translated(self, vec: Sequence[float]) -> "Jet3":
        return self + Jet3.from_terms({(0, 0): vec}, self.order)
