"""Reference mathematics for the benchmark, written without crosscap.

Everything here is computed apart from the program under test: truncated
bivariate polynomial algebra for building scrambled germs, the closed-form spherical circle, a tight DOP853 solve of
the spherical Frenet system for polynomial geodesic curvature, quadrature
of the deformation family's directrix, and the closed-form first
fundamental form and curvature limits of a family member.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp


# ----------------------------------------------------------------------
# truncated polynomials p(u, v) = sum c[j, k] u^j v^k, j + k <= n

def degree_mask(n: int) -> np.ndarray:
    idx = np.arange(n + 1)
    return (idx[:, None] + idx[None, :]) <= n


def pmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Truncated product by Kronecker substitution: rows padded to width
    2n+1 so one 1-D convolution cannot carry between powers of u."""
    width = 2 * n + 1
    pa = np.zeros((n + 1, width))
    pb = np.zeros((n + 1, width))
    pa[:, : n + 1], pb[:, : n + 1] = a, b
    out = np.convolve(pa.ravel(), pb.ravel())[: (n + 1) * width].reshape(n + 1, width)
    return np.where(degree_mask(n), out[:, : n + 1], 0.0)


def compose3(comps: list[np.ndarray], p: np.ndarray, q: np.ndarray, n: int) -> list[np.ndarray]:
    """[F_i(p(u,v), q(u,v))] for three coefficient tables F_i; p, q vanish at 0."""
    one = np.zeros((n + 1, n + 1))
    one[0, 0] = 1.0
    pp, qp = [one], [one]
    for _ in range(n):
        pp.append(pmul(pp[-1], p, n))
        qp.append(pmul(qp[-1], q, n))
    out = [np.zeros((n + 1, n + 1)) for _ in comps]
    for j in range(n + 1):
        for k in range(n + 1 - j):
            coeffs = [c[j, k] for c in comps]
            if not any(coeffs):
                continue
            prod = pmul(pp[j], qp[k], n)
            for acc, c in zip(out, coeffs):
                acc += c * prod
    return out


# ----------------------------------------------------------------------
# spherical curves with the family's pinned initial frame

def initial_frame(a11: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c(0) = (1,0,0), e(0) = (0,1,a11)/sqrt(1+a11^2), n(0) = c x e."""
    rm = math.sqrt(1.0 + a11 * a11)
    c0 = np.array([1.0, 0.0, 0.0])
    e0 = np.array([0.0, 1.0 / rm, a11 / rm])
    return c0, e0, np.cross(c0, e0)


def circle_frame(kappa: float, a11: float):
    """Closed-form circle of geodesic curvature kappa: s -> (c, e, n)."""
    c0, e0, n0 = initial_frame(a11)
    mu2 = 1.0 + kappa * kappa
    mu = math.sqrt(mu2)

    def frame(s: float):
        cs, sn = math.cos(mu * s), math.sin(mu * s)
        c = c0 * (kappa * kappa + cs) / mu2 + e0 * sn / mu + n0 * kappa * (1.0 - cs) / mu2
        e = -c0 * sn / mu + e0 * cs + n0 * kappa * sn / mu
        return c, e, np.cross(c, e)

    return frame


class FamilyMember:
    """Reference data of the family member with quadratic data (a02, a11)
    along the spherical curve of geodesic curvature kappa_poly(s)."""

    def __init__(self, a02: float, a11: float, kappa_poly=(0.0,)):
        self.a02, self.a11 = a02, a11
        self.m = 1.0 + a11 * a11
        self.kappa_poly = np.asarray(kappa_poly, dtype=float)

    def reference(self, vs: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """(xi(v), gamma(v)) for each v, where xi(v) = sqrt(1 + m v^2) c(s(v)),
        s(v) = arctan(sqrt(m) v), and gamma(v) = (a02/m) int_0^v t B(t) dt.

        One DOP853 solve at rtol 1e-13 per sign of v, in t = v, of the
        frame c' = s'e, e' = s'(kappa n - c), n' = -s' kappa e together with
        the quadrature gamma' = (a02/m) t (a11 xi' + sqrt(m) n), where
        xi' = (m t c + sqrt(m) e) / sqrt(1 + m t^2).  For a circle, c comes
        from the closed form instead of the solve.
        """
        m, sm = self.m, math.sqrt(self.m)

        def rhs(t, y):
            c, e, n = y[0:3], y[3:6], y[6:9]
            ds = sm / (1.0 + m * t * t)
            k = np.polynomial.polynomial.polyval(math.atan(sm * t), self.kappa_poly)
            xi_d = (m * t * c + sm * e) / math.sqrt(1.0 + m * t * t)
            gamma_d = (self.a02 / m) * t * (self.a11 * xi_d + sm * n)
            return np.concatenate([ds * e, ds * (k * n - c), -ds * k * e, gamma_d])

        y0 = np.concatenate([*initial_frame(self.a11), np.zeros(3)])
        out = {0.0: y0}
        for sign in (1.0, -1.0):
            ts = sorted((v for v in vs if sign * v > 0.0), key=abs)
            if ts:
                sol = solve_ivp(rhs, (0.0, ts[-1]), y0, method="DOP853", t_eval=ts,
                                rtol=1e-13, atol=1e-15)
                out.update(zip(ts, sol.y.T))
        ys = np.array([out[v] for v in vs])
        curve = ys[:, 0:3]
        if len(self.kappa_poly) == 1:
            circle = circle_frame(float(self.kappa_poly[0]), self.a11)
            curve = np.array([circle(math.atan(sm * v))[0] for v in vs])
        scale = np.sqrt(1.0 + m * np.asarray(vs) ** 2)[:, None]
        return scale * curve, ys[:, 9:12]

    def first_form(self, u: float, v: float) -> tuple[float, float, float]:
        a02, a11, m = self.a02, self.a11, self.m
        return (
            1.0 + m * v * v,
            m * u * v + a02 * a11 * v * v,
            m * u * u + 2.0 * a02 * a11 * u * v + a02 * a02 * v * v,
        )

    def third_order(self, kappa0: float) -> tuple[float, float, float]:
        """(a12, a03, b3) = (k m sqrt(m), 3 a02 a11 k sqrt(m), -2 a02 k sqrt(m))."""
        sm = math.sqrt(self.m)
        return (
            kappa0 * self.m * sm,
            3.0 * self.a02 * self.a11 * kappa0 * sm,
            -2.0 * self.a02 * kappa0 * sm,
        )


def curvature_limits(a20: float, a11: float, a02: float, theta: float) -> tuple[float, float]:
    """Leading coefficients (lim r^2 K, lim r^2 H) along the ray at theta."""
    co, si = math.cos(theta), math.sin(theta)
    big_a = math.sqrt(co * co + (a11 * co + a02 * si) ** 2)
    return (
        a02 * (a20 * co * co - a02 * si * si) / big_a**4,
        a02 * co / (2.0 * big_a**3),
    )


def ruled_first_form(gamma: np.ndarray, xi: np.ndarray, n: int) -> np.ndarray:
    """v-series of xi.xi, xi.gamma', xi.xi', gamma'.gamma', gamma'.xi', xi'.xi'
    for f = gamma(v) + u xi(v), truncated below degree n.

    gamma and xi are (3, d+1) arrays of coefficients in v; together the six
    series fix E = xi.xi, F = xi.gamma' + u xi.xi', G = |gamma' + u xi'|^2.
    """
    def deriv(p):
        return p[:, 1:] * np.arange(1, p.shape[1])

    def dot(p, q):
        out = np.zeros(n)
        for i in range(3):
            prod = np.convolve(p[i], q[i])[:n]
            out[: len(prod)] += prod
        return out

    gd, xd = deriv(gamma), deriv(xi)
    return np.array([dot(xi, xi), dot(xi, gd), dot(xi, xd), dot(gd, gd), dot(gd, xd), dot(xd, xd)])
