"""Jet constructors and randomized construction helpers shared by the test
modules."""
from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from crosscap import Jet2, Jet3, JetDomainError, SpecFormatError, SurfaceMap, canonical_crosscap
from crosscap import SingularPointError, surface_from_polynomial
from crosscap.deformation import DeformationFamily
from crosscap.jets import _checked, _mask, _table_lags, _table_product_matrix, series_compose, series_cross
from crosscap.jets import series_derivative
from crosscap.jets import series_integral, series_power, series_product
from crosscap.normalform import NormalForm
from crosscap.specio import DEFAULT_DOMAIN, FAMILY_KINDS, FIELDS, MAX_DEGREE, ORDERS, SPEC_KINDS, SurfaceSpec


def vpoly(coeffs, order: int) -> Jet2:
    """Polynomial in v alone, embedded as a Jet2 of the given order."""
    return Jet2.from_terms({(0, k): val for k, val in enumerate(coeffs)}, order)


def stack(x: Jet2, y: Jet2, z: Jet2) -> Jet3:
    """The Jet3 with components x, y, z, at the smallest of their orders."""
    n = min(x.order, y.order, z.order)
    return Jet3(n, np.stack([comp.truncated(n).c for comp in (x, y, z)]))


TOOLS = Path(__file__).resolve().parent.parent / "tools"
CLI_OUTPUTS = TOOLS / "cli_outputs.py"


def load_tool(name: str):
    """The module of tools/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli_outputs():
    """The module of tools/cli_outputs.py, whose SPECS and FAMILY the
    byte-identity check runs."""
    return load_tool("cli_outputs")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Proper rotation matrix from a sign-fixed QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_canonical(rng: np.random.Generator, order: int = 4):
    """Canonical-shape cross cap with random tables; (map, a, b)."""
    a = {
        (0, 2): float(rng.uniform(0.5, 2.5)),
        (2, 0): float(rng.uniform(-1.0, 1.0)),
        (1, 1): float(rng.uniform(-1.0, 1.0)),
    }
    for d in range(3, order + 1):
        for j in range(d + 1):
            a[(j, d - j)] = float(rng.uniform(-1.0, 1.0))
    b = {i: float(rng.uniform(-1.0, 1.0)) for i in range(3, order + 1)}
    return canonical_crosscap(a, b, order=6), a, b


def admissible_diffeo(
    rng: np.random.Generator, order: int = 6, scale: tuple[float, float] = (0.6, 1.4)
) -> tuple[Jet2, Jet2]:
    """Origin-preserving domain change that keeps the degenerate direction.

    P_v(0) = 0 and both diagonal derivatives positive, drawn from scale, so
    the bracket keeps its sign and the null direction of the pull-back
    metric stays along v.
    """
    p = {(1, 0): float(rng.uniform(*scale))}
    q = {(0, 1): float(rng.uniform(*scale)), (1, 0): float(rng.uniform(-0.5, 0.5))}
    for d in range(2, 4):
        for j in range(d + 1):
            p[(j, d - j)] = float(rng.uniform(-0.3, 0.3))
            q[(j, d - j)] = float(rng.uniform(-0.3, 0.3))
    return Jet2.from_terms(p, order), Jet2.from_terms(q, order)


def scramble(
    f: SurfaceMap, rng: np.random.Generator, scale: tuple[float, float] = (0.6, 1.4), flip: bool = False
) -> SurfaceMap:
    """Rigid motion plus admissible reparametrization of a germ; flip
    composes with (u, v) -> (-u, -v) too, which negates the bracket."""
    P, Q = admissible_diffeo(rng, f.jet.order, scale)
    if flip:
        P, Q = -P, -Q
    R = random_rotation(rng)
    T = rng.uniform(-1.0, 1.0, size=3)
    return SurfaceMap(jet=f.jet.compose(P, Q).rotated(R).translated(T))


def reference_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product of coefficient tables at order n, by the library's former
    kernel: the rows of both tables padded to width 2n+1 and convolved
    once, so u^j v^k becomes t^(j(2n+1)+k) and no product of two rows
    reaches the next row (Kronecker substitution).  a and b may stack
    tables along leading axes, which broadcast."""
    a, b = a[..., : n + 1, : n + 1], b[..., : n + 1, : n + 1]
    if a.ndim > 2 or b.ndim > 2:
        return np.stack([reference_product(x, y, n) for x, y in zip(*np.broadcast_arrays(a, b))])
    if np.count_nonzero(a[1:]) or np.count_nonzero(b[1:]):
        width = 2 * n + 1
        pa, pb = np.zeros((2, n + 1, width))
        pa[:, : n + 1], pb[:, : n + 1] = a, b
        full = np.convolve(pa.ravel(), pb.ravel())[: (n + 1) * width]
        # only coefficients inside the triangle are kept, and checked
        return _checked(np.where(_mask(n), full.reshape(n + 1, width)[:, : n + 1], 0.0), a, b)
    # both series in v alone: one product of the first rows
    table = np.zeros((n + 1, n + 1))
    table[0] = series_product(a[0], b[0], n)
    return table


def reference_compose(c: np.ndarray, g: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Tables of p(g, h) at order n for each table p stacked in c[..., j, k],
    by the library's former kernel: powers of h and Horner's rule in g by
    ``reference_product``.  g and h vanish at the origin."""
    if g[0, 0] != 0.0 or h[0, 0] != 0.0:
        raise JetDomainError("composition requires inner jets with zero constant term")
    c = c[..., : n + 1, : n + 1]
    tables = c.reshape(-1, n + 1, n + 1)
    # powers of h up to the highest one any table uses, shared by all
    kmax = np.flatnonzero(tables.any(axis=(0, 1))).max(initial=0)
    hp = np.zeros((kmax + 1, n + 1, n + 1))
    hp[0, 0, 0] = 1.0
    if kmax:
        hp[1] = np.where(_mask(n), h[: n + 1, : n + 1], 0.0)
    for k in range(2, kmax + 1):
        hp[k] = reference_product(hp[k - 1], hp[1], n)
    out = np.empty_like(tables)
    for i, t in enumerate(tables):
        # rows r_j = sum_k c[j,k] h^k, then Horner in g from the top nonzero row
        rows = np.where(_mask(n), np.tensordot(t[:, : kmax + 1], hp, axes=1), 0.0)
        jtop = np.flatnonzero(t.any(axis=1)).max(initial=0)
        acc = rows[jtop]
        for j in range(jtop - 1, -1, -1):
            acc = reference_product(acc, g, n) + rows[j]
        out[i] = acc
    return out.reshape(c.shape)


def reference_table_compose(c: np.ndarray, g: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """``jets._compose`` as it was before its stacked Horner step: the same
    gathered matrices, with the rows and Horner's rule in g run table by
    table, each from its own top nonzero row."""
    c = c[..., : n + 1, : n + 1]
    tables = c.reshape(-1, n + 1, n + 1)
    j, k = _table_lags(n)[:2]
    kmax = np.flatnonzero(tables.any(axis=(0, 1))).max(initial=0)
    hp = np.zeros((kmax + 1, len(j)))
    hp[0, 0] = 1.0
    times_h = _table_product_matrix(h, n) if kmax else None
    for p in range(1, kmax + 1):
        hp[p] = times_h @ hp[p - 1]
    times_g = _table_product_matrix(g, n) if tables[:, 1:].any() else None
    out = np.zeros_like(tables)
    for i, t in enumerate(tables):
        rows = t[:, : kmax + 1] @ hp
        jtop = np.flatnonzero(t.any(axis=1)).max(initial=0)
        acc = rows[jtop]
        for r in range(jtop - 1, -1, -1):
            acc = times_g @ acc + rows[r]
        out[i, j, k] = acc
    return out.reshape(c.shape)


def reference_basis_plan(n: int) -> list[list[tuple]]:
    """The products of each pass of an order-n reduction, its grown slices
    then its refresh, as ``normalform._basis_plan`` wrote them before its
    flat indices: ((rows, at), (parents, below), by, gather), which set
    basis[np.ix_(rows, at)] = basis[np.ix_(parents, below)] @ basis[by][gather].T."""
    j, k, lags = _table_lags(n)[:3]
    pos = {(a, b): i for i, (a, b) in enumerate(zip(j.tolist(), k.tolist()))}
    deg = j + k
    passes = []
    for d in range(2, n + 1):
        at, below = np.flatnonzero(deg == d), np.flatnonzero((deg > 0) & (deg < d))
        gather = lags[np.ix_(at, below)]
        grown = [(a, b) for a, b in pos if 2 <= a + b <= d]
        products = [
            (pos[1, 0], [(pos[a, b], pos[a - 1, b]) for a, b in grown if a > 0]),
            (pos[0, 1], [(pos[0, b], pos[0, b - 1]) for a, b in grown if a == 0]),
            (pos[0, 1], [(pos[1, 1], pos[1, 0]), (pos[0, 2], pos[0, 1])]),
        ]
        step = []
        for by, pairs in products:
            rows, parents = zip(*pairs)
            step.append(((rows, at), (parents, below), by, gather))
        passes.append(step)
    return passes


def reference_classify(nf: NormalForm, tol: float) -> dict[str, bool]:
    """``normalform.classify`` as it was before it read the arrays: maxima of
    generators over ``a_table()`` and ``b_table()``."""
    higher_a = max((abs(val) for j, k, val in nf.a_table() if j + k >= 3), default=0.0)
    higher_b = max((abs(val) for _, val in nf.b_table()), default=0.0)
    return {"quadratic": higher_a <= tol and higher_b <= tol, "normal_up_to_order": higher_b <= tol}


def reference_domain_change(g: Jet3) -> tuple[Jet2, Jet2]:
    """Domain change (P, Q) that brings g to the canonical shape, by the
    reduction's former degree loop: two full-order compositions per degree,
    one to read Q at d - 1 and one, after Q's update, to read P at d, each
    by ``reference_compose``.

    g is a germ as ``reduce_to_normal_form`` works on it: translated to the
    origin, flipped if its bracket is negative, and rotated so that f_u
    points along +x and f_vv lies in the xz-plane.
    """
    n = g.order
    alpha = float(np.linalg.norm(g.coeff_vector(1, 0)))
    P = Jet2.from_terms({(1, 0): 1.0 / alpha}, n)
    Q = Jet2.zero(n)
    qdiv = g.c[1, 1, 1] / alpha
    uv = Jet2.from_terms({(1, 1): 1.0}, n).c
    for d in range(2, n + 1):
        j = np.arange(d + 1)
        m = j[1:]
        q_new = Q.c.copy()
        q_new[m - 1, d - m] -= (reference_compose(g.c, P.c, Q.c, n)[1] - uv)[m, d - m] / qdiv
        Q = Jet2(n, q_new)
        p_new = P.c.copy()
        p_new[j, d - j] -= reference_compose(g.c, P.c, Q.c, n)[0, j, d - j] / alpha
        P = Jet2(n, p_new)
    return P, Q


def reference_frenet_series(
    kappa_poly: Sequence[float],
    c0: np.ndarray,
    e0: np.ndarray,
    order: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients of (c, e, n) from c' = e, e' = kappa n - c,
    n' = -kappa e, by the library's former kernel: numpy slices of one
    coefficient table, a generator sum and a concatenation per step."""
    kap = kappa_poly[: order + 1]
    Y = np.zeros((order + 1, 9))  # row k: k-th coefficients of c, e, n
    Y[0, :3], Y[0, 3:6], Y[0, 6:] = c0, e0, np.cross(c0, e0)
    for k in range(order):
        ken = sum(kap[i] * Y[k - i, 3:] for i in range(min(k + 1, len(kap))))
        Y[k + 1] = np.concatenate([Y[k, 3:6], ken[3:] - Y[k, :3], -ken[:3]]) / (k + 1)
    return Y[:, :3], Y[:, 3:6], Y[:, 6:]


def reference_reverted(sigma: np.ndarray) -> np.ndarray:
    """w with sigma(w(t)) = t for sigma(0) = 0 < sigma'(0), by the fixed
    point w = (t - tail(w)) / sigma'(0), which gains one coefficient a step:
    n compositions in all."""
    n, s1 = len(sigma) - 1, sigma[1]
    t = np.eye(1, n + 1, 1)[0]
    tail = sigma - s1 * t
    w = t / s1
    for _ in range(n):
        w = (t - series_compose(tail, w, n)) / s1
    return w


def reference_dot(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """x(t) . y(t) for vector series, one series_product per component."""
    return sum(series_product(x[:, i], y[:, i], n) for i in range(3))


def reference_cross(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a(t) x b(t) for vector series, one series_product per component of a."""
    p = [series_product(b, a[:, i], n) for i in range(3)]  # p[i][:, j] = a_i b_j
    cols = [p[1][:, 2] - p[2][:, 1], p[2][:, 0] - p[0][:, 2], p[0][:, 1] - p[1][:, 0]]
    return np.stack(cols, axis=1)


def reference_ruling_series(fam: DeformationFamily, v0: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``DeformationFamily.ruling_series`` by the composition route: the
    frame in arc length composed with shat(v), whose derivative comes from a
    Miller recurrence for w2^(-1), times w2^(1/2) from a second one, and
    B = a11 xi' + xi x xi' by a series cross product.  The library solves
    the frame in vhat instead and uses xi x xi' = sqrt(m) nhat."""
    m, n = fam.m, order
    w2 = [1.0 + m * v0 * v0, 2.0 * m * v0, m]
    shat = series_integral(series_power(w2, -1.0, n - 1) * math.sqrt(m), 0.0)
    C, _, _ = fam.curve.series(fam.arc_parameter(v0), n)
    xi = series_product(series_compose(C, shat, n), series_power(w2, 0.5, n), n)
    xi_d = series_derivative(xi)
    B = series_cross(xi[:n], xi_d, n - 1) + xi_d * fam.a11
    return xi, series_product(B, [v0, 1.0], n - 1) * (fam.a02 / m)


def mpmath_ruling_series(fam: DeformationFamily, v0: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``reference_ruling_series`` in 60-digit arithmetic, from the same
    float data: the curvature, the frame state at s0 = arc_parameter(v0),
    a02, a11 and v0.  Series are lists of coefficients, scalar or 3-vector,
    and each product sums straight from its definition."""
    import mpmath

    n, s0 = order, fam.arc_parameter(v0)
    with mpmath.workdps(60):
        mpf = mpmath.mpf

        def product(a, b, top):
            """The first top + 1 coefficients of a(t) b(t); a may be a vector series."""
            out = []
            for k in range(top + 1):
                pairs = [(a[i], b[k - i]) for i in range(k + 1) if i < len(a) and k - i < len(b)]
                out.append([mpmath.fsum(x[c] * y for x, y in pairs) for c in range(3)] if isinstance(a[0], list)
                           else mpmath.fsum(x * y for x, y in pairs))
            return out

        def cross(x, y):
            return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]

        # the frame's Taylor coefficients in arc length around s0, with kappa(s0 + s)
        kappa = [mpf(x) for x in fam.curve.kappa_poly]
        K = [mpmath.fsum(math.comb(i, j) * kappa[i] * mpf(s0) ** (i - j) for i in range(j, len(kappa)))
             for j in range(len(kappa))]
        y = fam.curve.state(s0)
        c, e = [mpf(x) for x in y[0:3]], [mpf(x) for x in y[3:6]]
        C, E, N = [c], [e], [cross(c, e)]
        for k in range(n):
            kn, ke = product(N, K, k)[k], product(E, K, k)[k]
            C.append([x / (k + 1) for x in E[k]])
            E.append([(x - y) / (k + 1) for x, y in zip(kn, C[k])])
            N.append([-x / (k + 1) for x in ke])
        # shat' = sqrt(m) / w2, and C(shat(t)) from the powers of shat
        m, v = 1 + mpf(fam.a11) ** 2, mpf(v0)
        w2 = [1 + m * v * v, 2 * m * v, m]
        recip = [1 / w2[0]]
        for k in range(1, n):
            recip.append(-(w2[1] * recip[k - 1] + (w2[2] * recip[k - 2] if k > 1 else 0)) / w2[0])
        shat = [mpf(0)] + [mpmath.sqrt(m) * recip[k - 1] / k for k in range(1, n + 1)]
        composed, power = [[mpf(0)] * 3 for _ in range(n + 1)], [mpf(1)]
        for Ck in C:
            composed = [[x + y * p for x, y in zip(row, Ck)] for row, p in zip(composed, power + [0] * n)]
            power = product(power, shat, n)
        root = [mpmath.sqrt(w2[0]), w2[1] / (2 * mpmath.sqrt(w2[0]))]  # sqrt(w2) by Miller's recurrence
        for k in range(2, n + 1):
            root.append(mpmath.fsum(((mpf(1.5) * j - k) * w2[j] * root[k - j]) for j in (1, 2)) / (k * w2[0]))
        xi = product(composed, root, n)
        xi_d = [[(k + 1) * x for x in xi[k + 1]] for k in range(n)]
        B = []
        for k in range(n):
            terms = [cross(xi[i], xi_d[k - i]) for i in range(k + 1)]
            B.append([mpmath.fsum(t[c] for t in terms) + mpf(fam.a11) * xi_d[k][c] for c in range(3)])
        gamma_d = [[(v * x + (B[k - 1][c] if k else 0)) * mpf(fam.a02) / m for c, x in enumerate(B[k])] for k in range(n)]
        return np.array(xi, dtype=float), np.array(gamma_d, dtype=float)


def reference_polynomial_jet(entries: Sequence[Sequence[Any]], order: int) -> Jet3:
    """The jet that build_surface formerly made of a polynomial spec's
    entries: each monomial's coefficients summed from 0.0 in a dict, in entry
    order, then one assignment per monomial."""
    terms: dict[tuple[int, int], list[float]] = {}
    for j, k, x, y, z in entries:
        vec = terms.setdefault((int(j), int(k)), [0.0, 0.0, 0.0])
        vec[0] += x
        vec[1] += y
        vec[2] += z
    return surface_from_polynomial(terms, order=max(order, *(j + k for j, k in terms))).jet


def table_dev(nf: NormalForm, a: dict, b: dict) -> float:
    """Largest deviation between reduced tables and their targets."""
    seen = {(j, k): val for j, k, val in nf.a_table()}
    keys = set(seen) | {key for key in a if sum(key) <= nf.order}
    dev = max((abs(seen.get(k, 0.0) - a.get(k, 0.0)) for k in keys), default=0.0)
    bs = dict(nf.b_table())
    idx = set(bs) | {i for i in b if i <= nf.order}
    return max(dev, max((abs(bs.get(i, 0.0) - b.get(i, 0.0)) for i in idx), default=0.0))


def reference_derivative_jets(f: SurfaceMap, us: Sequence[float], v0: float, order: int) -> np.ndarray:
    """A polynomial map's derivative tables one point at a time: its jet
    recentred at each (u0, v0), then truncated to the lower of the orders."""
    n = min(order, f.jet.order)
    tables = [f.jet.shifted_origin(u0, v0).truncated(n).c for u0 in us]
    return np.array(tables).reshape(len(us), 3, n + 1, n + 1)


def reference_forms_at(f: SurfaceMap, u: float, v: float):
    """(E, F, G, E G - F^2, L, M, N) at one regular point by the former
    ``surface._forms_at``: one derivative table, then numpy's one-point
    cross, @ and norm."""
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"point ({u}, {v}) is not finite")
    c, d = f.derivative_jets([u], v)[0], np.zeros((3, 3, 3))
    m = min(c.shape[-1], 3)
    d[:, :m, :m] = c[:, :m, :m]
    fu, fv, fuu, fuv, fvv = d = d[:, 1, 0], d[:, 0, 1], 2.0 * d[:, 2, 0], d[:, 1, 1], 2.0 * d[:, 0, 2]
    n = np.cross(fu, fv)
    if not (np.isfinite(d).all() and np.isfinite(n).all()):
        raise ValueError(f"derivatives at ({u}, {v}) are not finite")
    length = np.linalg.norm(n)
    if length < 1e-14:
        raise SingularPointError(f"surface is singular at ({u}, {v})")
    E, F, G, nu = fu @ fu, fu @ fv, fv @ fv, n / length
    return E, F, G, E * G - F * F, fuu @ nu, fuv @ nu, fvv @ nu


def reference_first_form(f: SurfaceMap) -> tuple[Jet2, Jet2, Jet2]:
    """E, F, G of a map by the former ``SurfaceMap._first_form``: three
    ``Jet3.dot`` calls on f_u and f_v."""
    fu, fv = f.jet.deriv_u(), f.jet.deriv_v()
    return fu.dot(fu), fu.dot(fv), fv.dot(fv)


def reference_kernels(a, b, c) -> tuple[float, np.ndarray, float, float]:
    """a . b, a x b, |a| and det(a, b, c) by numpy: the references of the
    float kernels dot, cross, norm and det3 in crosscap.surface."""
    a, b, c = (np.array(x, dtype=float) for x in (a, b, c))
    return float(a @ b), np.cross(a, b), float(np.linalg.norm(a)), float(np.linalg.det(np.column_stack([a, b, c])))


def reference_height_hessian(E: Jet2, F: Jet2, G: Jet2) -> tuple[float, float, float]:
    """h_uu, h_uv and h_vv at the origin by the former metric route: the jet
    h = E G - F^2 at the full order of the first form."""
    h = E * G - F * F
    return h.partial(2, 0), h.partial(1, 1), h.partial(0, 2)


def jet_first_form_at(f: SurfaceMap, u: float, v: float) -> tuple[float, float, float]:
    jet = f.local_jet(u, v, order=1)
    fu = jet.coeff_vector(1, 0)
    fv = jet.coeff_vector(0, 1)
    return float(fu @ fu), float(fu @ fv), float(fv @ fv)


def fd_first_form_at(
    f: SurfaceMap, u: float, v: float, step: float = 1e-5
) -> tuple[float, float, float]:
    """Central-difference first form of the evaluator, the jet oracle."""
    fu = (f(u + step, v) - f(u - step, v)) / (2.0 * step)
    fv = (f(u, v + step) - f(u, v - step)) / (2.0 * step)
    return float(fu @ fu), float(fu @ fv), float(fv @ fv)


def reference_point(c: np.ndarray, u: float, v: float) -> np.ndarray:
    """Values at (u, v) of the tables stacked in c[..., j, k] by the former
    per-table kernel of ``Jet3.__call__``: power vectors, one product per table."""
    order = c.shape[-1] - 1
    up = u ** np.arange(order + 1)
    vp = v ** np.arange(order + 1)
    # one product per table: a batched product moves last digits
    return np.array([up @ t @ vp for t in c.reshape(-1, order + 1, order + 1)]).reshape(c.shape[:-2])


def horner_bound(c: np.ndarray, u: float, v: float) -> np.ndarray:
    """4 (n + 1) eps sum |c_jk| |u|^j |v|^k for each table stacked in c, n its
    order: the largest difference allowed between Horner's rule and
    ``reference_point``.  Horner's rule in u and then in v errs by at most
    2 gamma_2n ~ 2n eps times the sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 5.1); the reference by about
    (n + 3) eps (two powers and two sums of n + 1 products); a ruled
    point's u xi(v) + gamma(v) adds 2 eps on each side, covered from n = 3."""
    n = c.shape[-1] - 1
    return 4 * (n + 1) * np.finfo(float).eps * reference_point(np.abs(c), abs(u), abs(v))


# ----------------------------------------------------------------------
# the former spec reader and report writer

def _reference_require(cond: bool, field: str, detail: str):
    if not cond:
        raise SpecFormatError(f"field '{field}': {detail}")


def _reference_number(obj: Any, field: str) -> float:
    _reference_require(isinstance(obj, (int, float)) and not isinstance(obj, bool), field, "expected a number")
    # json accepts NaN and Infinity; NaN fails every comparison
    _reference_require(abs(obj) <= sys.float_info.max, field, "expected a finite number")
    return float(obj)


def reference_parse_spec(doc: Any) -> SurfaceSpec:
    """``specio.parse_spec`` as it was before its check of all polynomial
    entries at once: entry by entry, with isinstance tests."""
    _reference_require(isinstance(doc, dict), "<root>", "spec must be a JSON object")
    present = [k for k in SPEC_KINDS if k in doc]
    _reference_require(
        len(present) == 1,
        "<root>",
        f"exactly one of {', '.join(SPEC_KINDS)} required, found {len(present)}",
    )
    kind = present[0]
    payload = doc[kind]
    order = doc.get("order", 6)
    bounds = f"{ORDERS[0]}..{ORDERS[-1]}"
    _reference_require(isinstance(order, int) and order in ORDERS, "order", f"expected an integer in {bounds}")

    domain = DEFAULT_DOMAIN
    if "domain" in doc:
        raw = doc["domain"]
        _reference_require(
            isinstance(raw, (list, tuple)) and len(raw) == 2,
            "domain",
            "expected [[u0, u1], [v0, v1]]",
        )
        spans = []
        for axis, pair in zip("uv", raw):
            _reference_require(
                isinstance(pair, (list, tuple)) and len(pair) == 2,
                f"domain.{axis}",
                "expected [lo, hi]",
            )
            lo = _reference_number(pair[0], f"domain.{axis}[0]")
            hi = _reference_number(pair[1], f"domain.{axis}[1]")
            _reference_require(lo < hi, f"domain.{axis}", "needs lo < hi")
            spans.append((lo, hi))
        domain = (spans[0], spans[1])

    if kind == "polynomial":
        _reference_require(isinstance(payload, list) and payload, kind, "expected a nonempty list of entries")
        for i, entry in enumerate(payload):
            _reference_require(
                isinstance(entry, (list, tuple)) and len(entry) == 5,
                f"{kind}[{i}]",
                "expected [j, k, x, y, z]",
            )
            j, k = entry[0], entry[1]
            _reference_require(
                all(isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in (j, k)),
                f"{kind}[{i}]",
                "monomial powers must be nonnegative integers",
            )
            _reference_require(j + k <= MAX_DEGREE, f"{kind}[{i}]", f"monomial degree above {MAX_DEGREE}")
            for c, name in zip(entry[2:], "xyz"):
                _reference_number(c, f"{kind}[{i}].{name}")
    elif kind in FIELDS:
        _reference_require(isinstance(payload, dict), kind, "expected an object")
        values = {}
        for f in FIELDS[kind]:
            _reference_require(f in payload, f"{kind}.{f}", "missing")
            values[f] = _reference_number(payload[f], f"{kind}.{f}")
        _reference_require(values["a02"] > 0.0, f"{kind}.a02", "must be positive")
        if kind in FAMILY_KINDS:
            # the family's ruling speed is sqrt(1 + a11^2)
            a11 = values["a11"]
            _reference_require(math.isfinite(1.0 + a11 * a11), f"{kind}.a11", "too large: 1 + a11^2 overflows")
            kp = [values.pop("kappa")] if "kappa" in values else payload.get("kappa_poly")
            _reference_require(
                isinstance(kp, list) and 0 < len(kp) <= MAX_DEGREE + 1,
                f"{kind}.kappa_poly",
                f"expected a list of 1 to {MAX_DEGREE + 1} numbers",
            )
            values["kappa_poly"] = tuple(_reference_number(c, f"{kind}.kappa_poly[{i}]") for i, c in enumerate(kp))
        payload = values
    else:
        _reference_require(isinstance(payload, dict), kind, "expected an object")
        for f in ("gamma_poly", "xi_poly"):
            rows = payload.get(f)
            _reference_require(
                isinstance(rows, list) and 0 < len(rows) <= MAX_DEGREE + 1,
                f"{kind}.{f}",
                f"expected a list of 1 to {MAX_DEGREE + 1} rows",
            )
            for i, row in enumerate(rows):
                _reference_require(
                    isinstance(row, (list, tuple)) and len(row) == 3,
                    f"{kind}.{f}[{i}]",
                    "expected an [x, y, z] triple",
                )
                for c, name in zip(row, "xyz"):
                    _reference_number(c, f"{kind}.{f}[{i}].{name}")

    return SurfaceSpec(kind=kind, payload=payload, order=order, domain=domain)


def _reference_format_float(x: float) -> str:
    if isinstance(x, bool) or not isinstance(x, float):
        return str(x)
    if not math.isfinite(x):
        return "null"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def reference_dumps(obj: Any) -> str:
    """``specio.dumps_report`` as it was before its exact-type dispatch: an
    isinstance ladder per value, one append per item."""
    out: list[str] = []
    _reference_emit(obj, out, 0)
    return "".join(out) + "\n"


def _reference_emit(obj: Any, out: list[str], depth: int):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _reference_emit(obj[key], out, depth + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _reference_emit(item, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
