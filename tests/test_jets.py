"""Truncated series arithmetic against independent oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosscap import Jet2, Jet3, JetDomainError, SingularJetError, jets
from crosscap.jets import (
    series_compose,
    series_cross,
    series_power,
    series_product,
    series_shift,
)

from helpers import random_rotation, reference_compose, reference_product, reference_table_compose, stack, vpoly


def as_dict(p: Jet2) -> dict[tuple[int, int], float]:
    return {(j, k): c for j, k, c in p.terms()}


def naive_mul(p: dict, q: dict, order: int) -> dict[tuple[int, int], float]:
    """Convolution straight from the definition of polynomial product."""
    out: dict[tuple[int, int], float] = {}
    for (j1, k1), c1 in p.items():
        for (j2, k2), c2 in q.items():
            if j1 + j2 + k1 + k2 <= order:
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0.0) + c1 * c2
    return out


def naive_powers(p: dict, top: int, order: int) -> list[dict]:
    out = [{(0, 0): 1.0}]
    for _ in range(top):
        out.append(naive_mul(out[-1], p, order))
    return out


def naive_compose(f: Jet2, g: Jet2, h: Jet2) -> dict[tuple[int, int], float]:
    """sum_{j,k} c[j,k] g^j h^k, every monomial product formed separately."""
    n = min(f.order, g.order, h.order)
    gp = naive_powers(as_dict(g), n, n)
    hp = naive_powers(as_dict(h), n, n)
    out: dict[tuple[int, int], float] = {}
    for j, k, c in f.terms():
        if j + k <= n:
            for key, val in naive_mul(gp[j], hp[k], n).items():
                out[key] = out.get(key, 0.0) + c * val
    return out


def naive_shift(p: Jet2, u0: float, v0: float) -> dict[tuple[int, int], float]:
    """p(u0 + s, v0 + t) from binomial powers of u0 + s and v0 + t."""
    n = p.order
    up = naive_powers({(0, 0): u0, (1, 0): 1.0}, n, n)
    vp = naive_powers({(0, 0): v0, (0, 1): 1.0}, n, n)
    out: dict[tuple[int, int], float] = {}
    for j, k, c in p.terms():
        for key, val in naive_mul(up[j], vp[k], n).items():
            out[key] = out.get(key, 0.0) + c * val
    return out


def max_dev(jet: Jet2, expect: dict) -> float:
    keys = set(expect) | {(j, k) for j, k, _ in jet.terms()}
    return max((abs(jet.coeff(j, k) - expect.get((j, k), 0.0)) for j, k in keys), default=0.0)


def abs_jet(p: Jet2) -> Jet2:
    return Jet2(p.order, np.abs(p.c))


def inner_jet(rng, order: int, scale: float = 0.7) -> Jet2:
    c = rng.uniform(-scale, scale, size=(order + 1, order + 1))
    c[0, 0] = 0.0
    return Jet2(order, c)


# (order of the first operand, order of the second)
ORDER_PAIRS = [(0, 0), (1, 1), (4, 4), (12, 12), (5, 3), (3, 5)]


def random_jet(rng, order: int = 4, scale: float = 1.0) -> Jet2:
    c = rng.uniform(-scale, scale, size=(order + 1, order + 1))
    return Jet2(order, c)


def jet_strategy(order: int = 3, zero_constant: bool = False):
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)
    n_terms = (order + 1) * (order + 2) // 2
    keys = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    if zero_constant:
        keys = [key for key in keys if key != (0, 0)]
        n_terms -= 1
    return st.lists(coeff, min_size=n_terms, max_size=n_terms).map(
        lambda vals: Jet2.from_terms(dict(zip(keys, vals)), order)
    )


# ----------------------------------------------------------------------
# ring structure

def random_vpoly(rng, order: int) -> Jet2:
    return vpoly(rng.uniform(-1.0, 1.0, size=order + 1), order)


def test_mul_matches_convolution_oracle(rng):
    # dense tables, and series in v alone, whose products stay in the first row
    v_only = [(random_vpoly, random_vpoly), (random_vpoly, random_jet), (random_jet, random_vpoly)]
    pairs = [(random_jet, random_jet, orders) for orders in ORDER_PAIRS] + [
        (first, second, (n, n)) for n in (0, 1, 12, 20) for first, second in v_only
    ]
    for first, second, orders in pairs:
        for _ in range(25):
            p = first(rng, orders[0])
            q = second(rng, orders[1])
            n = min(orders)
            expect = naive_mul(as_dict(p), as_dict(q), n)
            prod = p * q
            assert prod.order == n
            scale = max(1.0, max((abs(val) for val in expect.values()), default=0.0))
            assert max_dev(prod, expect) <= 1e-14 * scale


@pytest.mark.parametrize("n", [0, 1, 2, 6, 11, 12, 20])
def test_product_matches_the_convolution_reference(rng, n):
    # the pair-list kernel against the former Kronecker kernel, on the
    # operand shapes the library multiplies: (3,) x () for Jet3 * Jet2,
    # (3,) x (3,) for dot and cross, and () x () for Jet2 * Jet2; dense
    # tables, series in v alone, and a first operand of a higher order
    def table(shape, order=n, v_only=False):
        c = np.where(jets._mask(order), rng.uniform(-1.0, 1.0, size=shape + (order + 1, order + 1)), 0.0)
        if v_only:
            c[..., 1:, :] = 0.0
        return c

    for sa, sb in [((3,), ()), ((3,), (3,)), ((), ())]:
        for a, b in [(table(sa), table(sb)), (table(sa, v_only=True), table(sb, v_only=True)),
                     (table(sa, v_only=True), table(sb)), (table(sa, n + 3), table(sb))]:
            want = reference_product(a, b, n)
            bound = reference_product(np.abs(a), np.abs(b), n).max()
            assert np.abs(jets._product(a, b, n) - want).max() <= 1e-14 * bound


def test_mul_reports_overflow_of_kept_coefficients_only():
    big = Jet2.from_terms({(0, 0): 1e200, (1, 0): 1.0}, 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            big * big
    # u^2 v times v and u^2 times u land above order 2, u v times v inside
    # the stored table but outside the triangle: neither is kept
    high = Jet2.from_terms({(2, 0): 1e200, (1, 1): 1e200}, 2)
    low = Jet2.from_terms({(1, 0): 1e200, (0, 1): 1e200}, 2)
    with np.errstate(over="raise"):
        prod = high * low
    assert np.abs(prod.c).max() == 0.0
    # the same from two series in v alone: v^2 times v lands above order 2
    vbig = vpoly([1e200, 1.0], 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            vbig * vbig
        prod = vpoly([0.0, 0.0, 1e200], 2) * vpoly([0.0, 1e200], 2)
    assert np.abs(prod.c).max() == 0.0
    # the same with a stacked operand: a Jet3 times a Jet2, and a dot product
    vec = Jet3.from_terms({(0, 0): [0.0, 1e200, 1.0], (1, 0): [1.0, 1.0, 1.0]}, 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            vec * big
        with pytest.raises(FloatingPointError):
            vec.dot(vec)
        prod = Jet3.from_terms({(2, 0): [1e200, 0.0, 1e200], (1, 1): [0.0, 1e200, 1e200]}, 2) * low
    assert np.abs(prod.c).max() == 0.0


@given(jet_strategy(), jet_strategy(), jet_strategy())
def test_ring_axioms(a, b, c):
    scale = max(1.0, np.abs(a.c).max(), np.abs(b.c).max(), np.abs(c.c).max()) ** 2
    assert ((a + b) + c).max_coeff_diff(a + (b + c)) <= 1e-12 * scale
    assert (a * b).max_coeff_diff(b * a) <= 1e-12 * scale
    assert (a * (b + c)).max_coeff_diff(a * b + a * c) <= 1e-12 * scale
    assert ((a * b) * c).max_coeff_diff(a * (b * c)) <= 1e-12 * scale ** 2


def test_scalar_and_int_coercion():
    p = Jet2.from_terms({(1, 0): 2.0, (0, 1): -1.0}, 3)
    assert (p + 1).coeff(0, 0) == 1.0
    assert (1 + p).coeff(1, 0) == 2.0
    assert (p - 0.5).coeff(0, 0) == -0.5
    assert (2 * p).coeff(0, 1) == -2.0
    assert (p * p).coeff(2, 0) == 4.0


def test_truncation_to_smaller_order():
    a = random_jet(np.random.default_rng(3), 5)
    b = random_jet(np.random.default_rng(4), 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.truncated(2).order == 2
    assert a.truncated(7).coeff(1, 1) == a.coeff(1, 1)


# ----------------------------------------------------------------------
# composition, sqrt, recip

def test_compose_associativity(rng):
    for _ in range(10):
        f = random_jet(rng, 4)
        inner = []
        for _ in range(4):
            c = random_jet(rng, 4, scale=0.7).c.copy()
            c[0, 0] = 0.0
            inner.append(Jet2(4, c))
        g1, h1, g2, h2 = inner
        lhs = f.compose(g1, h1).compose(g2, h2)
        rhs = f.compose(g1.compose(g2, h2), h1.compose(g2, h2))
        scale = max(1.0, np.abs(lhs.c).max())
        assert lhs.max_coeff_diff(rhs) <= 1e-12 * scale


def test_compose_requires_zero_constant():
    f = random_jet(np.random.default_rng(0), 3)
    bad = Jet2.from_terms({(0, 0): 1.0}, 3)
    with pytest.raises(JetDomainError):
        f.compose(bad, Jet2.zero(3))


def test_compose_evaluates_correctly(rng):
    for orders in ORDER_PAIRS:
        f = random_jet(rng, orders[0])
        n = orders[1]
        g = Jet2.from_terms({(1, 0): 0.5, (0, 2): 0.25}, n)
        h = Jet2.from_terms({(0, 1): -0.75, (2, 0): 0.1}, n)
        pairs = ((g, h), (inner_jet(rng, n), inner_jet(rng, n)), (Jet2.zero(n), inner_jet(rng, n)))
        for inner in pairs:
            comp = f.compose(*inner)
            expect = naive_compose(f, *inner)
            bound = naive_compose(abs_jet(f), *(abs_jet(x) for x in inner))
            assert comp.order == min(orders)
            assert max_dev(comp, expect) <= 1e-14 * max(1.0, max(bound.values(), default=0.0))
        # the substitution agrees with direct evaluation near the origin
        if min(orders) >= 4:
            comp = f.compose(g, h)
            for u, v in [(0.01, 0.02), (-0.015, 0.01)]:
                assert abs(comp(u, v) - f(g(u, v), h(u, v))) <= 1e-8


def test_truncated_outer_jet_composes_to_truncated_composition(rng):
    # the normal form composes g.truncated(d) for the degree-d step: that
    # must give the degree <= d part of the full composition
    n = 12
    F = stack(*(random_jet(rng, n) for _ in range(3)))
    g, h = inner_jet(rng, n), inner_jet(rng, n)
    full = F.compose(g, h)
    bound = Jet3(n, np.abs(F.c)).compose(abs_jet(g), abs_jet(h)).c.max()
    for d in range(1, n + 1):
        part = F.truncated(d).compose(g, h)
        assert part.order == d
        assert part.max_coeff_diff(full.truncated(d)) <= 1e-14 * bound


def test_jet3_compose_shares_powers_of_h(rng, monkeypatch):
    n = 12
    F = stack(*(random_jet(rng, n) for _ in range(3)))
    g, h = inner_jet(rng, n), inner_jet(rng, n)
    expect = [naive_compose(comp, g, h) for comp in F.components()]
    builds = []
    build = jets._table_product_matrix

    def counting(b, n):
        builds.append(n)
        return build(b, n)

    monkeypatch.setattr(jets, "_table_product_matrix", counting)
    comp = F.compose(g, h)
    # one product matrix for g and one for h, shared by the three tables
    assert len(builds) == 2
    u = Jet2.variable("u", n)
    # a stack of one, a series in v (powers of h only), one in u (Horner
    # in g only) and a constant
    single, v_only, u_only, constant = F.components()[0], vpoly([1.0] * (n + 1), n), u * u + u, F * 0.0 + 2.0
    for outer, count in [(single, 2), (v_only, 1), (u_only, 1), (constant, 0)]:
        builds.clear()
        outer.compose(g, h)
        assert len(builds) == count
    monkeypatch.undo()
    for got, want, outer in zip(comp.components(), expect, F.components()):
        bound = naive_compose(abs_jet(outer), abs_jet(g), abs_jet(h))
        assert max_dev(got, want) <= 1e-14 * max(bound.values())


@pytest.mark.parametrize("n", range(13))
def test_compose_matches_the_convolution_reference(rng, n):
    # the gathered linear map against the former kernel of convolution
    # products, for dense outer tables, tables of one row (v alone), of one
    # column (u alone) and constants, stacked and single, and inner pairs
    # with h = 0 (the path of powers such as sqrt) and with g = 0
    dense = rng.uniform(-1.0, 1.0, size=(3, n + 1, n + 1))
    row, column, constant = np.zeros((3, 3, n + 1, n + 1))
    row[:, 0], column[:, :, 0], constant[:, 0, 0] = dense[:, 0], dense[:, :, 0], dense[:, 0, 0]
    g, h, zero = inner_jet(rng, n), inner_jet(rng, n), Jet2.zero(n)
    for outer in (dense, row, column, constant):
        F = Jet3(n, outer)
        for inner in ((g, h), (g, zero), (zero, h)):
            cs = [x.c for x in inner]
            for p in (F, *F.components()):
                want = reference_compose(p.c, *cs, n)
                bound = reference_compose(np.abs(p.c), *(np.abs(x) for x in cs), n).max()
                assert np.abs(p.compose(*inner).c - want).max() <= 1e-14 * bound


@pytest.mark.parametrize("n", range(1, 13))
def test_compose_matches_the_per_table_loop_bit_for_bit(rng, n):
    # one stacked Horner step for all tables against the former loop, table
    # by table from its own top nonzero row, on stacks of one and three
    # tables whose top rows in u and top powers of v differ
    g, h = inner_jet(rng, n).c, inner_jet(rng, n).c
    for _ in range(20):
        c = np.where(jets._mask(n), rng.uniform(-1.0, 1.0, size=(3, n + 1, n + 1)), 0.0)
        for t, (u_top, v_top) in zip(c, rng.integers(0, n + 1, size=(3, 2))):
            t[u_top + 1 :] = 0.0
            t[:, v_top + 1 :] = 0.0
        for tables in (c, c[0], c[2]):
            assert np.array_equal(jets._compose(tables, g, h, n), reference_table_compose(tables, g, h, n))


def test_compose_reports_overflow_of_kept_coefficients_only():
    u, v = Jet2.variable("u", 2), Jet2.variable("v", 2)
    vv = Jet2.from_terms({(0, 2): 1.0}, 2)
    cube = Jet3.from_terms({(3, 0): [1.0, -2.0, 0.5]}, 6)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            vv.compose(u, v * 1e200)
        with pytest.raises(FloatingPointError):
            cube.compose(Jet2.variable("u", 6) * 1e120, Jet2.variable("v", 6))
        # (1e200 u^2)^2 lies above order 2: nothing kept overflows
        comp = vv.compose(u, Jet2.from_terms({(2, 0): 1e200}, 2))
    assert np.array_equal(comp.c, np.zeros((3, 3)))


@given(st.sampled_from([0, 1, 4]).flatmap(jet_strategy))
def test_sqrt_and_recip_roundtrip(a):
    base = a + 1.5 + np.abs(a.c).max()  # force a positive constant term
    s = base.sqrt()
    scale = max(1.0, np.abs(base.c).max()) ** 2
    assert (s * s).max_coeff_diff(base) <= 1e-12 * scale
    r = base.recip()
    assert (base * r).max_coeff_diff(Jet2.from_terms({(0, 0): 1.0}, base.order)) <= 1e-12 * scale


@given(jet_strategy(order=12))
def test_sqrt_and_recip_roundtrip_order_12(a):
    base = a + 1.5 + np.abs(a.c).max()
    s = base.sqrt()
    r = base.recip()
    # at order 12 the coefficients of s and r grow like |base/c00 - 1|^12, so
    # the bound is the round-off of a product: eps times the factors' 1-norms
    size = np.abs(base.c).sum()
    assert (s * s).max_coeff_diff(base) <= 1e-14 * max(size, np.abs(s.c).sum() ** 2)
    one = Jet2.from_terms({(0, 0): 1.0}, base.order)
    assert (base * r).max_coeff_diff(one) <= 1e-14 * max(1.0, size * np.abs(r.c).sum())


def test_sqrt_rejects_nonpositive_constant():
    with pytest.raises(SingularJetError):
        Jet2.from_terms({(1, 0): 1.0}, 3).sqrt()
    with pytest.raises(SingularJetError):
        Jet2.from_terms({(0, 0): -2.0}, 3).recip()


# ----------------------------------------------------------------------
# calculus and recentering

def test_deriv_and_integrate_are_inverse(rng):
    q = vpoly([0.0, 1.0, 2.0, 3.0], 5)
    assert q.deriv_v().coeff(0, 0) == 1.0
    assert q.deriv_v().coeff(0, 2) == 9.0
    with pytest.raises(JetDomainError):
        Jet2.from_terms({(0, 0): 1.0}, 0).deriv_u()


def test_calculus_matches_termwise_definition(rng):
    for order in (1, 4, 12):
        p = random_jet(rng, order)
        terms = list(p.terms())
        assert max_dev(p.deriv_u(), {(j - 1, k): j * c for j, k, c in terms if j}) == 0.0
        assert max_dev(p.deriv_v(), {(j, k - 1): k * c for j, k, c in terms if k}) == 0.0
        assert (p.deriv_u().order, p.deriv_v().order) == (order - 1, order - 1)


def test_partial_is_factorial_times_coeff():
    p = Jet2.from_terms({(2, 3): 0.5, (1, 0): 2.0}, 5)
    assert p.partial(2, 3) == 0.5 * math.factorial(2) * math.factorial(3)
    assert p.partial(1, 0) == 2.0
    assert p.partial(4, 4) == 0.0  # outside the triangle


def test_shifted_origin_is_exact(rng):
    u0, v0 = 0.37, -0.81
    for order in (0, 1, 5, 12):
        p = random_jet(rng, order)
        q = p.shifted_origin(u0, v0)
        bound = max(naive_shift(abs_jet(p), abs(u0), abs(v0)).values())
        assert max_dev(q, naive_shift(p, u0, v0)) <= 1e-15 * (order + 1) ** 2 * bound
        for s, t in rng.uniform(-0.5, 0.5, size=(8, 2)):
            assert abs(q(s, t) - p(u0 + s, v0 + t)) <= 1e-10
        # two shifts compose into one
        r = q.shifted_origin(-u0, -v0)
        assert r.max_coeff_diff(p) <= 1e-9
        assert p.shifted_origin(0.0, 0.0).max_coeff_diff(p) == 0.0


def test_polar_profile_matches_radial_evaluation(rng):
    p = random_jet(rng, 4)
    theta = 0.83
    prof = p.polar_profile(theta)
    for r in (0.3, 0.05):
        val = sum(prof[m] * r**m for m in range(len(prof)))
        assert abs(val - p(r * math.cos(theta), r * math.sin(theta))) <= 1e-12


def test_constructor_validation():
    with pytest.raises(JetDomainError):
        Jet2(-1)
    with pytest.raises(JetDomainError):
        Jet2.variable("w", 3)
    with pytest.raises(JetDomainError):
        Jet2.variable("u", 0)
    with pytest.raises(JetDomainError):
        Jet2.from_terms({(-1, 0): 1.0}, 3)
    with pytest.raises(JetDomainError):
        Jet2(2, np.zeros((4, 4)))


# ----------------------------------------------------------------------
# vector jets

def test_jet3_cross_and_dot_identities(rng):
    order = 4
    a = stack(*(random_jet(rng, order) for _ in range(3)))
    b = stack(*(random_jet(rng, order) for _ in range(3)))
    scale = max(1.0, max(np.abs(c.c).max() for c in (*a.components(), *b.components()))) ** 4
    # antisymmetry and orthogonality of the cross product
    assert a.cross(b).max_coeff_diff(-b.cross(a)) <= 1e-13 * scale
    assert np.abs(a.cross(b).dot(a).c).max() <= 1e-12 * scale
    # Lagrange identity |a x b|^2 = |a|^2 |b|^2 - (a.b)^2
    lhs = a.cross(b).dot(a.cross(b))
    rhs = a.dot(a) * b.dot(b) - a.dot(b) * a.dot(b)
    assert lhs.max_coeff_diff(rhs) <= 1e-11 * scale


def test_jet3_rigid_motion(rng):
    a = stack(*(random_jet(rng, 3) for _ in range(3)))
    R = random_rotation(rng)
    rotated = a.rotated(R)
    assert rotated.dot(rotated).max_coeff_diff(a.dot(a)) <= 1e-12 * max(1.0, np.abs(a.dot(a).c).max())
    shifted = a.translated([1.0, -2.0, 3.0])
    assert np.allclose(shifted.coeff_vector(0, 0) - a.coeff_vector(0, 0), [1.0, -2.0, 3.0])
    assert shifted.coeff_vector(1, 1) == pytest.approx(a.coeff_vector(1, 1))


def test_jet3_shares_the_jet2_operations_exactly(rng):
    # each operation on the stacked tables is the same operation on each
    # component, to the last bit; the random tables are dense, so every
    # component uses all the powers of h that the stack shares
    n = 6
    F, G = (stack(*(random_jet(rng, n) for _ in range(3))) for _ in range(2))
    s, g, h = random_jet(rng, n), inner_jet(rng, n), inner_jet(rng, n)
    ops = [
        (lambda J: J + G, lambda p, i: p + G.components()[i]),
        (lambda J: J - G, lambda p, i: p - G.components()[i]),
        (lambda J: -J, lambda p, i: -p),
        (lambda J: J * 0.37, lambda p, i: p * 0.37),
        (lambda J: J * s, lambda p, i: p * s),
        (lambda J: J.compose(g, h), lambda p, i: p.compose(g, h)),
        (lambda J: J.deriv_u(), lambda p, i: p.deriv_u()),
        (lambda J: J.deriv_v(), lambda p, i: p.deriv_v()),
        (lambda J: J.truncated(4), lambda p, i: p.truncated(4)),
        (lambda J: J.truncated(8), lambda p, i: p.truncated(8)),
        (lambda J: J.shifted_origin(0.37, -0.81), lambda p, i: p.shifted_origin(0.37, -0.81)),
    ]
    for stacked, single in ops:
        got = stacked(F)
        for i, comp in enumerate(F.components()):
            want = single(comp, i)
            assert got.order == want.order
            assert np.array_equal(got.c[i], want.c)
    profile = F.polar_profile(0.83)
    for i, comp in enumerate(F.components()):
        assert np.array_equal(profile[i], comp.polar_profile(0.83))
    assert F.max_coeff_diff(G) == max(a.max_coeff_diff(b) for a, b in zip(F.components(), G.components()))
    assert np.array_equal(F(0.3, -0.2), [comp(0.3, -0.2) for comp in F.components()])


def test_jet3_evaluation_and_partials():
    f = Jet3.from_terms({(1, 0): [1.0, 0.0, 0.0], (1, 1): [0.0, 1.0, 0.0], (0, 2): [0.0, 0.0, 1.0]}, 4)
    assert np.allclose(f(0.5, 0.25), [0.5, 0.125, 0.0625])
    assert np.allclose(2.0 * f.coeff_vector(0, 2), [0.0, 0.0, 2.0])
    assert f.order == 4


def test_series_in_one_variable_match_jets(rng):
    # the coefficient-array series agree with the same operations on jets
    # in v alone, including a vector series times a scalar one
    n = 12
    a = rng.uniform(-1.0, 1.0, n + 1)
    a[0] = 1.5
    b = rng.uniform(-1.0, 1.0, n + 1)
    X = rng.uniform(-1.0, 1.0, (n + 1, 3))
    Y = rng.uniform(-1.0, 1.0, (n + 1, 3))
    jet_a, jet_b = vpoly(a, n), vpoly(b, n)
    jx, jy = (stack(*(vpoly(Z[:, i], n) for i in range(3))) for Z in (X, Y))

    def rows(j3):
        return np.array([c.c[0] for c in j3.components()]).T

    assert np.max(np.abs(series_product(a, b, n) - (jet_a * jet_b).c[0])) <= 1e-14
    assert np.max(np.abs(series_product(X, b, n) - rows(jx * jet_b))) <= 1e-14
    assert np.max(np.abs(series_cross(X, Y, n) - rows(jx.cross(jy)))) <= 1e-14
    assert np.max(np.abs(series_power(a, 0.5, n) - jet_a.sqrt().c[0])) <= 1e-12
    assert np.max(np.abs(series_power(a, -1.0, n) - jet_a.recip().c[0])) <= 1e-12
    h = b.copy()
    h[0] = 0.0
    composed = jx.compose(Jet2.zero(n), vpoly(h, n))
    assert np.max(np.abs(series_compose(X, h, n) - rows(composed))) <= 1e-13
    # short operands are zero beyond their last coefficient
    assert np.array_equal(series_product([2.0], [1.0, 3.0], 3), [2.0, 6.0, 0.0, 0.0])
    assert np.allclose(series_power([1.0, 2.0, 1.0], 0.5, 4), [1.0, 1.0, 0.0, 0.0, 0.0])


def test_series_refuse_bad_input_and_report_overflow():
    with pytest.raises(SingularJetError):
        series_power([0.0, 1.0], 0.5, 3)
    with pytest.raises(SingularJetError):
        series_power([-1.0, 1.0], -1.0, 3)
    with pytest.raises(JetDomainError):
        series_compose(np.ones((3, 3)), [1.0, 1.0], 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            series_product([1e200, 1.0], [1e200, 1.0], 2)
        with pytest.raises(FloatingPointError):
            series_compose([0.0, 0.0, 1.0], [0.0, 1e200], 2)
        # the coefficient that would overflow lies past the truncation
        assert series_product([0.0, 1e200], [0.0, 1e200], 1).tolist() == [0.0, 0.0]


def test_long_series_product_reports_overflow_in_any_thread():
    # one 1,501-row matrix-vector product, whose last rows OpenBLAS may run
    # in a worker thread that np.errstate does not see: series_product's own
    # check reports the overflowing kept coefficient all the same
    n = 1500
    a, b = np.zeros(n + 1), np.zeros(n + 1)
    a[0], b[n] = 1e300, 1e10
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            series_product(a, b, n)


def test_series_shift_is_the_recentring_in_v(rng):
    # c(t0 + t) agrees with Jet2.shifted_origin along v, for scalar and
    # vector series, and n truncates or pads the result with zeros
    t0 = -0.63
    for n in (0, 3, 12):
        c = rng.uniform(-1.0, 1.0, n + 1)
        X = rng.uniform(-1.0, 1.0, (n + 1, 3))
        want = vpoly(c, n).shifted_origin(0.0, t0).c[0]
        assert np.max(np.abs(series_shift(c, t0) - want)) <= 1e-14
        rows = np.array([vpoly(X[:, i], n).shifted_origin(0.0, t0).c[0] for i in range(3)]).T
        assert np.max(np.abs(series_shift(X, t0) - rows)) <= 1e-14
        assert np.array_equal(series_shift(c, 0.0), c)
        assert np.array_equal(series_shift(c, t0, n + 2), np.concatenate([series_shift(c, t0), [0.0, 0.0]]))
        assert np.array_equal(series_shift(X, t0, n // 2), series_shift(X, t0)[: n // 2 + 1])
    assert np.allclose(series_shift([1.0, 2.0, 3.0], 1.0), [6.0, 8.0, 3.0])
