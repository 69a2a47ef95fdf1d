"""Reduction to the canonical coordinate form and its uniqueness."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from crosscap import (
    NormalFormError,
    NotACrossCapError,
    canonical_crosscap,
    classify,
    frame,
    jets,
    normalform,
    quadratic_crosscap,
    reduce_to_normal_form,
    standard_crosscap,
    surface_from_polynomial,
)
from crosscap.cli import main
from crosscap.jets import Jet2, Jet3
from crosscap.surface import SurfaceMap

from helpers import (
    random_canonical,
    random_rotation,
    reference_compose,
    reference_domain_change,
    scramble,
    table_dev,
)


def test_reduce_is_identity_on_canonical(rng):
    f, a, b = random_canonical(rng, order=4)
    nf = reduce_to_normal_form(f)
    assert not nf.flipped
    assert nf.residual <= 1e-9
    assert table_dev(nf, a, b) <= 1e-10
    assert np.allclose(nf.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(nf.translation, 0.0, atol=1e-12)


def test_reduce_quadratic_example():
    # z = (u^2 + 2 u v + 3 v^2)/2 carries tables a20 = 1, a11 = 1, a02 = 3
    f = surface_from_polynomial(
        {(1, 0): [1, 0, 0], (1, 1): [0, 1, 1.0], (2, 0): [0, 0, 0.5], (0, 2): [0, 0, 1.5]},
        order=4,
    )
    nf = reduce_to_normal_form(f)
    assert nf.a_coeff(2, 0) == pytest.approx(1.0, abs=1e-12)
    assert nf.a_coeff(1, 1) == pytest.approx(1.0, abs=1e-12)
    assert nf.a_coeff(0, 2) == pytest.approx(3.0, abs=1e-12)


def test_scramble_roundtrip(rng):
    for _ in range(8):
        f, a, b = random_canonical(rng, order=4)
        g = scramble(f, rng)
        nf = reduce_to_normal_form(g, order=4)
        assert table_dev(nf, a, b) <= 1e-7
        assert nf.residual <= 1e-9
        assert nf.a_coeff(0, 2) > 0.0


@pytest.mark.parametrize("seed", [2, 5])
def test_halving_domain_change_reduces_at_order_12(seed):
    # P_u(0), Q_v(0) near 1/2 magnify round-off at degree d by about 2^d;
    # an absolute residual tolerance took that for a failed reduction
    rng = np.random.default_rng(seed)
    n = 12
    a = {(0, 2): rng.uniform(0.5, 2.5), (1, 1): rng.uniform(-1, 1), (2, 0): rng.uniform(-1, 1)}
    for d in range(3, n + 1):
        for j in range(d + 1):
            a[(j, d - j)] = rng.uniform(-0.5, 0.5) * math.factorial(j) * math.factorial(d - j)
    b = {i: rng.uniform(-0.5, 0.5) * math.factorial(i) for i in range(3, n + 1)}
    p = {(1, 0): rng.uniform(0.45, 0.55)}
    q = {(0, 1): rng.uniform(0.45, 0.55), (1, 0): rng.uniform(-0.3, 0.3)}
    for d in (2, 3):
        for j in range(d + 1):
            p[(j, d - j)] = rng.uniform(-0.3, 0.3)
            q[(j, d - j)] = rng.uniform(-0.3, 0.3)
    jet = canonical_crosscap(a, b, order=n).jet.compose(Jet2.from_terms(p, n), Jet2.from_terms(q, n))
    g = SurfaceMap(jet=jet.rotated(random_rotation(rng)).translated(rng.uniform(-1, 1, 3)))
    nf = reduce_to_normal_form(g)
    assert nf.order == n and not nf.flipped
    # in monomial units the reduction may lose up to 2^12 times more than at scale 1
    dev = [abs(nf.a_coeff(j, k) - v) / (math.factorial(j) * math.factorial(k)) for (j, k), v in a.items()]
    dev += [abs(nf.b_coeff(i) - v) / math.factorial(i) for i, v in b.items()]
    assert max(dev) <= 1e-9 * 2.0**n
    assert nf.residual <= 1e-9 * 2.0**n


def test_two_scrambles_agree(rng):
    f, _, _ = random_canonical(rng, order=4)
    nf1 = reduce_to_normal_form(scramble(f, rng), order=4)
    nf2 = reduce_to_normal_form(scramble(f, rng), order=4)
    dev = max(
        abs(v1 - v2)
        for (_, _, v1), (_, _, v2) in zip(nf1.a_table(), nf2.a_table())
    )
    devb = max(abs(v1 - v2) for (_, v1), (_, v2) in zip(nf1.b_table(), nf2.b_table()))
    assert max(dev, devb) <= 1e-8


def test_domain_flip_recovers_same_tables(rng):
    f, a, b = random_canonical(rng, order=4)
    u = Jet2.variable("u", f.jet.order)
    v = Jet2.variable("v", f.jet.order)
    flipped_map = SurfaceMap(jet=f.jet.compose(-u, -v))
    nf = reduce_to_normal_form(flipped_map, order=4)
    assert nf.flipped
    assert table_dev(nf, a, b) <= 1e-9


def test_mirror_of_standard_flips():
    mirrored = surface_from_polynomial(
        {(1, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 2): [0, 0, -1.0]}, order=4
    )
    nf = reduce_to_normal_form(mirrored)
    assert nf.flipped
    assert nf.a_coeff(0, 2) == pytest.approx(2.0, abs=1e-12)
    assert nf.a_coeff(2, 0) == pytest.approx(0.0, abs=1e-12)


def test_canonical_map_recomposes(rng):
    f, _, _ = random_canonical(rng, order=4)
    g = scramble(f, rng)
    nf = reduce_to_normal_form(g, order=4)
    rebuilt = nf.canonical_map()
    again = reduce_to_normal_form(rebuilt)
    dev = max(
        abs(v1 - v2)
        for (_, _, v1), (_, _, v2) in zip(nf.a_table(), again.a_table())
    )
    assert dev <= 1e-9
    assert f.jet.truncated(4).max_coeff_diff(rebuilt.jet.truncated(4)) <= 1e-7


def test_classify_flags():
    quad = reduce_to_normal_form(quadratic_crosscap(1.0, 0.5, 2.0))
    flags = classify(quad)
    assert flags == {"quadratic": True, "normal_up_to_order": True}

    with_b = reduce_to_normal_form(canonical_crosscap({(0, 2): 2.0}, {4: 1.0}, order=5))
    flags = classify(with_b)
    assert not flags["quadratic"] and not flags["normal_up_to_order"]

    with_a30 = reduce_to_normal_form(canonical_crosscap({(0, 2): 2.0, (3, 0): 1.0}, order=5))
    flags = classify(with_a30)
    assert not flags["quadratic"] and flags["normal_up_to_order"]


def test_frame_standard_and_translated():
    fr = frame(standard_crosscap())
    assert np.allclose(fr.point, 0.0)
    assert np.allclose(fr.tangent, [1.0, 0.0, 0.0])
    assert np.allclose(fr.principal_normal, [0.0, 0.0, 1.0])
    assert np.allclose(fr.conormal, [0.0, 1.0, 0.0])
    point, s1, s2 = fr.principal_plane
    normal = np.cross(s1, s2)
    assert np.allclose(np.cross(normal, fr.conormal), 0.0)
    assert np.linalg.norm(normal) > 0.5
    point, s1, s2 = fr.normal_plane
    assert abs(s1 @ fr.tangent) <= 1e-12 and abs(s2 @ fr.tangent) <= 1e-12

    shifted = SurfaceMap(jet=standard_crosscap().jet.translated([1.0, 2.0, 3.0]))
    assert np.allclose(frame(shifted).point, [1.0, 2.0, 3.0])


# an unscrambled order-8 germ with modest coefficients (a02 = 7.09, |f_u| =
# 0.88) whose domain change grows to about 1e11 at degree 11
STEEP_GERM = {
    (1, 0): [0.3, -0.7, 0.45], (1, 1): [0.2, 0.55, -0.35], (0, 2): [0.15, -0.4, -0.6],
    (2, 0): [-0.35, 0.1, 0.7], (0, 3): [0.3, 0.1, -0.2], (2, 1): [0.1, -0.3, 0.15],
    (1, 2): [-0.15, 0.2, 0.1], (3, 0): [0.05, 0.1, -0.1], (2, 2): [0.1, 0.05, -0.3],
    (0, 4): [-0.1, 0.3, 0.05], (1, 3): [0.07, -0.02, 0.11], (3, 2): [-0.03, 0.09, 0.01],
    (0, 5): [0.02, -0.06, 0.04], (4, 4): [0.01, 0.03, -0.02], (0, 8): [-0.01, 0.02, 0.03],
}


def test_steep_germ_refuses_at_degree_11(tmp_path, capsys):
    # its degree-11 coefficients sum terms of about 7e10, one ulp of which
    # exceeds RESIDUAL_TOL * s^11, so it refuses at degree 11 and not below.
    # At order 12 degree 11 is checked on degree 12's composition; at order
    # 11 the last bits of the final composition decide whether that check or
    # the canonical-shape check fires first, so only the degree is pinned
    nf = reduce_to_normal_form(surface_from_polynomial(STEEP_GERM, order=8))
    assert nf.order == 8 and nf.flipped
    for order in (11, 12):
        with pytest.raises(NormalFormError) as err:
            reduce_to_normal_form(surface_from_polynomial(STEEP_GERM, order=order))
        assert err.value.degree == 11
    rows = [[j, k, *xyz] for (j, k), xyz in STEEP_GERM.items()]
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"polynomial": rows, "order": 8}), encoding="utf-8")
    assert main(["analyze", str(path), "--order", "8"]) == 0
    for order in ("11", "12"):
        capsys.readouterr()
        assert main(["analyze", str(path), "--order", order]) == 2
    assert capsys.readouterr().err == "analysis failed: second-component residual survived at degree 11\n"


def test_reduce_errors():
    with pytest.raises(NotACrossCapError):
        reduce_to_normal_form(
            surface_from_polynomial({(1, 0): [1, 0, 0], (0, 1): [0, 1, 0]}, order=4)
        )
    with pytest.raises(NormalFormError) as err:
        reduce_to_normal_form(standard_crosscap(), order=1)
    assert err.value.degree == 1


def test_reduction_motions_are_rigid(rng):
    f, _, _ = random_canonical(rng, order=3)
    g = scramble(f, rng)
    nf = reduce_to_normal_form(g, order=3)
    assert np.allclose(nf.rotation @ nf.rotation.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(nf.rotation) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10, 12])
def test_reduction_matches_two_composition_reference(rng, n):
    # the basis P^a Q^b against the former loop's two compositions per
    # degree, which, like every composition on this side, runs the former
    # convolution kernel, so the two share no composition code.  The domain
    # change is compared relative to its largest coefficient; the tables, in
    # monomial units, relative to the largest coefficient of |g|(|P|, |Q|),
    # the size of the terms that each of their coefficients sums
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    idx = np.arange(n + 1)
    quadratic_up = (idx[:, None] + idx[None, :]) >= 2
    for flip in (False, True):
        _, a, b = random_canonical(rng, order=n)
        f = scramble(canonical_crosscap(a, b, order=n), rng, flip=flip)
        nf = reduce_to_normal_form(f)
        assert nf.flipped == flip
        work = f.jet.translated(-nf.translation)
        if flip:
            minus_u, minus_v = -Jet2.variable("u", n), -Jet2.variable("v", n)
            work = Jet3(n, reference_compose(work.c, minus_u.c, minus_v.c, n))
        g = work.rotated(nf.rotation)
        P, Q = reference_domain_change(g)
        final = reference_compose(g.c, P.c, Q.c, n)
        terms = reference_compose(np.abs(g.c), np.abs(P.c), np.abs(Q.c), n).max()
        sign = -1.0 if flip else 1.0
        pairs = [
            (nf.domain_u.c, sign * P.c, np.abs(P.c).max()),
            (nf.domain_v.c, sign * Q.c, np.abs(Q.c).max()),
            (nf.a / np.outer(fact, fact), np.where(quadratic_up, final[2], 0.0), terms),
            (nf.b[3:] / fact[3:], final[1, 0, 3:], terms),
        ]
        for got, want, scale in pairs:
            if got.size:  # at n = 2 the b table is empty
                assert np.abs(got - want).max() <= 1e-12 * scale


def test_reduction_composes_once(monkeypatch):
    # the passes grow the basis P^a Q^b by one degree each and compose
    # nothing; one full-order composition gives the tables.  Composition is
    # a linear map on flat tables, so no convolution product of tables runs
    calls, products = [], []
    compose, product = jets._compose, jets._product

    def counting(c, g, h, n):
        calls.append(n)
        return compose(c, g, h, n)

    monkeypatch.setattr(jets, "_compose", counting)
    monkeypatch.setattr(jets, "_product", lambda a, b, n: products.append(n) or product(a, b, n))
    for n in range(2, 13):
        _, a, b = random_canonical(np.random.default_rng(n), order=n)
        f = scramble(canonical_crosscap(a, b, order=n), np.random.default_rng(n))
        calls.clear()
        products.clear()
        reduce_to_normal_form(f)
        assert calls == [n]
        assert products == []


def test_basis_without_its_refresh_is_refused(monkeypatch):
    # once a pass has solved Q at degree d-1, P Q and Q^2 must take their
    # degree-d slices again; a basis that skips it is not P^a Q^b, and the
    # residual checks must refuse it rather than return wrong tables
    rng = np.random.default_rng(8)
    _, a, b = random_canonical(rng, order=8)
    f = scramble(canonical_crosscap(a, b, order=8), rng)
    assert reduce_to_normal_form(f).order == 8
    plan = normalform._basis_plan
    monkeypatch.setattr(
        normalform,
        "_basis_plan",
        lambda n: plan(n)._replace(steps=tuple(s._replace(refresh=()) for s in plan(n).steps)),
    )
    with pytest.raises(NormalFormError):
        reduce_to_normal_form(f)


def test_overflow_in_the_basis_is_reported_as_overflow(monkeypatch):
    # the basis products check nothing: the third, pass 2's P Q and Q^2
    # refresh, is read by pass 3's composition, whose check must report a
    # slice that overflowed before a residual check reads a value that is not finite
    rng = np.random.default_rng(8)
    _, a, b = random_canonical(rng, order=8)
    f = scramble(canonical_crosscap(a, b, order=8), rng)
    grow, calls = normalform._grow, []

    def overflowing(basis, rows, *args):
        grow(basis, rows, *args)
        calls.append(rows)
        if len(calls) == 3:
            basis[rows] = np.inf

    monkeypatch.setattr(normalform, "_grow", overflowing)
    # inf times a zero of g makes nan in the composition; only overflow raises
    with np.errstate(over="raise", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflow"):
            reduce_to_normal_form(f)
    assert len(calls) == 5  # pass 3 grows the basis twice, then composes


def test_flipped_presentation_mirrors_exactly(rng):
    # f and f(-u, -v) have brackets of opposite sign; the flip is carried by
    # the signs of P and Q alone, so every floating-point operation of one
    # reduction is the exact negation of the other's
    for i in range(20):
        n = 3 + i % 10
        _, a, b = random_canonical(rng, order=n)
        f = scramble(canonical_crosscap(a, b, order=n), rng, flip=i >= 10)
        idx = np.arange(n + 1)
        odd = (idx[:, None] + idx[None, :]) % 2 == 1
        mirror = SurfaceMap(jet=Jet3(f.jet.order, np.where(odd, -f.jet.c, f.jet.c)))
        nf, nf_mirror = reduce_to_normal_form(f), reduce_to_normal_form(mirror)
        assert nf.flipped != nf_mirror.flipped
        assert np.array_equal(nf.a, nf_mirror.a) and np.array_equal(nf.b, nf_mirror.b)
        assert np.array_equal(nf.rotation, nf_mirror.rotation)
        assert nf.residual == nf_mirror.residual
        assert np.array_equal(nf.domain_u.c, -nf_mirror.domain_u.c)
        assert np.array_equal(nf.domain_v.c, -nf_mirror.domain_v.c)
