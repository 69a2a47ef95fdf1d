"""Intrinsic invariants: two routes, focal conic, sign class, combos."""
from __future__ import annotations

import math

import numpy as np
import pytest

from crosscap import (
    CrosscapError,
    MetricError,
    build_crosscap,
    classify_sign,
    curvatures_at,
    deformation_family,
    degenerate_first_form,
    first_form,
    focal_conic,
    intrinsic_from_map,
    intrinsic_from_metric,
    isometry_combos,
    quadratic_crosscap,
    reduce_to_normal_form,
    route_discrepancy,
    standard_crosscap,
)
from crosscap import invariants
from crosscap.invariants import IntrinsicTriple, _height_hessian
from crosscap.jets import Jet2
from crosscap.normalform import NormalForm
from crosscap.specio import build_surface, parse_spec
from crosscap.surface import FundamentalForms, canonical_crosscap

from helpers import load_cli_outputs, random_canonical, reference_first_form, reference_height_hessian, scramble


def quadratic_cases(rng, n):
    for _ in range(n):
        a20 = rng.uniform(-1.5, 1.5)
        a11 = rng.uniform(-1.0, 1.0)
        a02 = rng.uniform(0.5, 2.5)
        yield quadratic_crosscap(a20, a11, a02), (a20, a11, a02)


def test_standard_triple_both_routes():
    f = standard_crosscap()
    for triple in (intrinsic_from_map(f), intrinsic_from_metric(first_form(f))):
        assert triple.a02 == pytest.approx(2.0, abs=1e-12)
        assert triple.a20 == pytest.approx(0.0, abs=1e-12)
        assert triple.a11 == pytest.approx(0.0, abs=1e-12)
        assert triple.delta_sq == pytest.approx(4.0, abs=1e-12)


def test_routes_agree_on_quadratics(rng):
    for f, (a20, a11, a02) in quadratic_cases(rng, 12):
        tm = intrinsic_from_map(f)
        tg = intrinsic_from_metric(first_form(f))
        assert route_discrepancy(tm, tg) <= 1e-9
        assert tm.a02 == pytest.approx(a02, abs=1e-9)
        assert tm.a20 == pytest.approx(a20, abs=1e-9)
        assert tm.a11 == pytest.approx(a11, abs=1e-9)


def test_routes_agree_after_scramble(rng):
    # the metric route builds its own orientation, so flipped germs and wide
    # diagonal scales of the domain change come in too
    cases = [((0.6, 1.4), False)] * 6
    cases += [((0.25, 4.0), flip) for flip in (False, True) for _ in range(4)]
    for scale, flip in cases:
        f, a, b = random_canonical(rng, order=4)
        g = scramble(f, rng, scale=scale, flip=flip)
        tm = intrinsic_from_map(g)
        tg = intrinsic_from_metric(first_form(g))
        assert route_discrepancy(tm, tg) <= 1e-8
        # the triple is an invariant of the germ, not of the chart
        assert tm.a02 == pytest.approx(a[(0, 2)], abs=1e-8)
        assert tm.a20 == pytest.approx(a[(2, 0)], abs=1e-8)
        assert tm.a11 == pytest.approx(a[(1, 1)], abs=1e-8)


def test_bracket_hessian_agreement(rng):
    for f, _ in quadratic_cases(rng, 8):
        triple = intrinsic_from_metric(first_form(f))
        assert triple.delta_sq_hessian is not None
        assert abs(triple.delta_sq - triple.delta_sq_hessian) <= 1e-9 * max(
            1.0, abs(triple.delta_sq)
        )


def test_height_hessian_identity(rng):
    surfaces = [standard_crosscap()]
    surfaces += [f for f, _ in quadratic_cases(rng, 5)]
    f, _, _ = random_canonical(rng, order=4)
    surfaces.append(f)
    surfaces.append(scramble(f, rng))
    for g in surfaces:
        triple = intrinsic_from_metric(first_form(g))
        a02 = triple.a02
        assert triple.a02_from_height_hessian == pytest.approx(a02, abs=1e-9 * max(1.0, a02))


@pytest.mark.xfail(strict=True, reason="h_vv^1.5/(2*bracket^2) overshoots by sqrt(2)")
def test_height_hessian_without_halving():
    forms = first_form(standard_crosscap())
    E, F, G = forms.E, forms.F, forms.G
    h = E * G - F * F
    h_vv = h.partial(0, 2)
    d2 = intrinsic_from_metric(forms).delta_sq
    literal = math.sqrt(E.partial(0, 0)) * h_vv**1.5 / (2.0 * d2)
    assert literal == pytest.approx(2.0, abs=1e-9)


def test_height_hessian_halving_ratio(rng):
    surfaces = [standard_crosscap()] + [f for f, _ in quadratic_cases(rng, 4)]
    for g in surfaces:
        forms = first_form(g)
        E, F, G = forms.E, forms.F, forms.G
        h_vv = (E * G - F * F).partial(0, 2)
        triple = intrinsic_from_metric(forms)
        literal = math.sqrt(E.partial(0, 0)) * h_vv**1.5 / (2.0 * triple.delta_sq)
        assert literal / triple.a02_from_height_hessian == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )


def test_focal_conic_examples():
    hyper = focal_conic(IntrinsicTriple(a02=1.0, a20=1.0, a11=0.0, delta_sq=1.0))
    assert (hyper.yy, hyper.yz, hyper.zz, hyper.z) == (1.0, 0.0, -1.0, 1.0)
    assert hyper.kind == "hyperbola"

    ell = focal_conic(IntrinsicTriple(a02=1.0, a20=-1.0, a11=0.0, delta_sq=1.0))
    assert (ell.yy, ell.yz, ell.zz, ell.z) == (1.0, 0.0, 1.0, 1.0)
    assert ell.kind == "ellipse"

    par = focal_conic(IntrinsicTriple(a02=2.0, a20=0.0, a11=0.0, delta_sq=4.0))
    assert (par.yy, par.yz, par.zz, par.z) == (1.0, 0.0, 0.0, 2.0)
    assert par.kind == "parabola-degenerate"

    mixed = focal_conic(IntrinsicTriple(a02=2.0, a20=1.0, a11=0.5, delta_sq=4.0))
    assert mixed.yz == pytest.approx(1.0, abs=1e-15)
    assert mixed.zz == pytest.approx(-1.75, abs=1e-15)

    with pytest.raises(ValueError):
        focal_conic(IntrinsicTriple(a02=0.0, a20=1.0, a11=0.0, delta_sq=1.0))


def test_classify_sign_branches():
    assert classify_sign(IntrinsicTriple(2.0, 1.0, 0.0, 4.0)) == "elliptic"
    assert classify_sign(IntrinsicTriple(2.0, -1.0, 0.0, 4.0)) == "hyperbolic"
    assert classify_sign(IntrinsicTriple(2.0, 0.0, 0.0, 4.0)) == "degenerate"
    assert classify_sign(IntrinsicTriple(2.0, 5e-4, 0.0, 4.0), tol=1e-3) == "degenerate"


def test_gauss_sign_tracks_a20():
    r = 1e-2
    thetas = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)

    hyper = quadratic_crosscap(-1.0, 0.3, 1.5)
    ks = [curvatures_at(hyper, r * math.cos(t), r * math.sin(t))[0] for t in thetas]
    assert max(ks) < 0.0

    elli = quadratic_crosscap(1.0, 0.3, 1.5)
    ks = [curvatures_at(elli, r * math.cos(t), r * math.sin(t))[0] for t in thetas]
    assert min(ks) < 0.0 < max(ks)


def test_metric_route_rejections():
    zero = Jet2.zero(4)
    one = Jet2.from_terms({(0, 0): 1.0}, 4)
    with pytest.raises(MetricError):
        intrinsic_from_metric(FundamentalForms(E=zero, F=zero, G=zero))
    # metrics of regular points: G(0,0) = |f_v|^2 > 0 (the flat plane, and
    # one whose bracket and Hessian routes would agree on a02 = 1)
    for G in (one, Jet2.from_terms({(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0}, 4)):
        with pytest.raises(MetricError, match="nonzero at the origin"):
            intrinsic_from_metric(FundamentalForms(E=one, F=zero, G=G))
    # an order-2 germ has order-1 forms, whose second partials read 0
    with pytest.raises(MetricError, match="order >= 2"):
        intrinsic_from_metric(first_form(quadratic_crosscap(0.5, 0.3, 1.0, order=2)))
    # Gram matrices of (f_u, f_uv, f_vv) with a positive determinant that are
    # not positive definite: refused before any factorization
    grams = [
        ([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], {}),
        ([[1.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.5]], {}),
        # G(0,0) = 1 and E_vv = 2 make h_vv positive, and the metric regular
        ([[1.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.5]], {"G": 1.0, "E": 1.0}),
        ([[2.0, 1.0, 0.0], [1.0, 0.25, 0.0], [0.0, 0.0, -3.0]], {}),
    ]
    for gram, extra in grams:
        gram = np.array(gram)
        assert np.linalg.det(gram) > 0.0 and np.linalg.eigvalsh(gram).min() < 0.0
        forms = FundamentalForms(
            E=Jet2.from_terms({(0, 0): gram[0, 0], (0, 2): extra.get("E", 0.0)}, 4),
            F=Jet2.from_terms({(1, 0): gram[0, 1], (0, 1): gram[0, 2]}, 4),
            G=Jet2.from_terms(
                {(0, 0): extra.get("G", 0.0), (2, 0): gram[1, 1], (1, 1): 2.0 * gram[1, 2], (0, 2): gram[2, 2]},
                4,
            ),
        )
        with pytest.raises(MetricError):
            intrinsic_from_metric(forms)


def test_crosscap_metrics_are_degenerate_at_the_origin(rng):
    # f_v = 0 makes F, G, G_u and G_v vanish at the origin, exactly for germs
    # built without round-off in f_v; the metric route accepts them all
    forms = [degenerate_first_form(rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)) for _ in range(4)]
    for i in range(40):
        f, _, _ = random_canonical(rng, order=4)
        forms.append(first_form(scramble(f, rng, scale=(0.25, 4.0), flip=i % 2 == 1)))
        kappa = rng.uniform(-2.0, 2.0, size=1 + i % 3)
        fam = deformation_family(rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0), tuple(kappa))
        forms.append(first_form(build_crosscap(fam, order=4)))
    for form in forms:
        F, G = form.F, form.G
        assert (F.partial(0, 0), G.partial(0, 0), G.partial(1, 0), G.partial(0, 1)) == (0.0, 0.0, 0.0, 0.0)
        assert intrinsic_from_metric(form).a02 > 0.0


def test_metric_route_on_arbitrary_forms(rng):
    # forms of a cross cap's shape (F and G vanish at the origin, and so do
    # G's first partials) with coefficients across twelve decades: the route
    # returns a finite triple or refuses with a CrosscapError, and no numpy
    # error or warning escapes the realization
    keys = [(j, k) for j in range(3) for k in range(3 - j)]
    for _ in range(300):
        coeffs = [{jk: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for jk in keys} for _ in range(3)]
        for i, jk in ((0, (0, 0)), (2, (2, 0)), (2, (0, 2))):  # the Gram matrix's diagonal
            coeffs[i][jk] = abs(coeffs[i][jk])
        del coeffs[1][(0, 0)], coeffs[2][(0, 0)], coeffs[2][(1, 0)], coeffs[2][(0, 1)]
        try:
            t = intrinsic_from_metric(FundamentalForms(*(Jet2.from_terms(c, 3) for c in coeffs)))
        except CrosscapError:
            continue
        assert all(map(math.isfinite, tuple(t)))


def test_combo_quadruple():
    nf = reduce_to_normal_form(quadratic_crosscap(1.0, 0.5, 2.0))
    combos = isometry_combos(nf)
    assert np.allclose(tuple(combos), 0.0, atol=1e-12)

    bad = NormalForm(
        order=2,
        a=np.zeros((3, 3)),
        b=np.zeros(3),
        rotation=np.eye(3),
        translation=np.zeros(3),
        domain_u=Jet2.variable("u", 2),
        domain_v=Jet2.variable("v", 2),
        flipped=False,
        residual=0.0,
    )
    with pytest.raises(ValueError):
        isometry_combos(bad)


def test_triple_is_scramble_invariant(rng):
    # the bracket itself scales with the chart Jacobian, the triple does not
    f = quadratic_crosscap(0.7, -0.4, 1.8)
    base = intrinsic_from_map(f)
    for _ in range(5):
        t = intrinsic_from_map(scramble(f, rng))
        assert abs(t.a02 - base.a02) <= 1e-8
        assert abs(t.a20 - base.a20) <= 1e-8
        assert abs(t.a11 - base.a11) <= 1e-8


def _first_form_maps() -> dict:
    """Scrambled cross cap germs of orders 1 to 12, and the family members
    of tools/cli_outputs.py."""
    rng = np.random.default_rng(24)
    maps = {}
    for n in range(1, 13):
        _, a, b = random_canonical(rng, n)
        maps[f"germ{n}"] = scramble(canonical_crosscap(a, b, order=n), rng, flip=n % 2 == 1)
    tool = load_cli_outputs()
    for name in tool.FAMILY:
        maps[name] = build_surface(parse_spec(tool.SPECS[name])).surface
    return maps


FIRST_FORM_MAPS = _first_form_maps()


def _metric_triple(forms: FundamentalForms):
    try:
        return intrinsic_from_metric(forms)
    except CrosscapError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(FIRST_FORM_MAPS))
def test_first_form_and_metric_route_keep_their_former_bits(name, monkeypatch):
    f = FIRST_FORM_MAPS[name]
    forms = first_form(f)
    for new, old in zip((forms.E, forms.F, forms.G), reference_first_form(f)):
        assert new.order == old.order == f.order - 1
        assert np.array_equal(new.c, old.c)
    triple = _metric_triple(forms)
    assert isinstance(triple, IntrinsicTriple) == (f.order >= 3), triple
    if f.order >= 3:
        assert _height_hessian(forms.E, forms.F, forms.G) == reference_height_hessian(forms.E, forms.F, forms.G)
    monkeypatch.setattr(invariants, "_height_hessian", reference_height_hessian)
    assert _metric_triple(forms) == triple
