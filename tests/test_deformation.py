"""Isometric deformation family built from spherical curves."""
from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from crosscap import (
    ChartError,
    SphericalCurve,
    build_crosscap,
    circle_point,
    deformation_family,
    degenerate_first_form,
    degenerate_quadratic,
    extrinsic_invariants,
    first_form,
    reduce_to_normal_form,
    second_form_at,
    second_form_closed,
    verify_isometry,
)
from crosscap.deformation import circle_family
from crosscap.numerics import frenet_series
from crosscap.ruled import from_deformation
from crosscap.specio import build_surface, parse_spec, write_obj


S_GRID = np.linspace(-1.2, 1.2, 13)


def test_circle_point_matches_integrated_frame():
    for kappa in (0.0, 1.0, 3.0):
        curve = circle_family(kappa)
        for s in S_GRID:
            assert np.linalg.norm(curve.point(s) - circle_point(kappa, s)) <= 1e-9


def test_circle_point_stays_on_sphere():
    for kappa in (0.0, 0.5, 2.0):
        for s in S_GRID:
            assert np.linalg.norm(circle_point(kappa, s)) == pytest.approx(1.0, abs=1e-12)


def test_frame_conservation_drift():
    for curve in (circle_family(1.0), SphericalCurve(kappa_poly=(0.0, 1.0))):
        for s in np.linspace(-1.0, 1.0, 9):
            c, e, n = curve.frame(s)
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-9
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
            assert abs(c @ e) <= 1e-9
            assert np.linalg.norm(np.cross(c, e) - n) <= 1e-9


def test_chart_boundary_raises():
    with pytest.raises(ChartError):
        circle_family(1.0).frame(1.6)


def test_flat_member_jet_is_quadratic():
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        fam = deformation_family(a02, a11, 0.0)
        built = build_crosscap(fam, order=6)
        closed = degenerate_quadratic(a02, a11, order=6)
        assert built.jet.max_coeff_diff(closed.jet) <= 1e-12


def test_flat_member_evaluator_is_quadratic():
    fam = deformation_family(1.5, 0.5, 0.0)
    built = build_crosscap(fam)
    for u in np.linspace(-0.9, 0.9, 5):
        for v in np.linspace(-0.9, 0.9, 5):
            expect = np.array([u, u * v, 0.5 * u * v + 0.75 * v * v])
            assert np.linalg.norm(built(u, v) - expect) <= 1e-9


def test_family_members_are_isometric(rng):
    a02 = float(rng.uniform(0.8, 2.2))
    a11 = float(rng.uniform(-0.8, 0.8))
    base = build_crosscap(deformation_family(a02, a11, 0.0))
    for kappa in (0.5, 1.0, 3.0):
        member = build_crosscap(deformation_family(a02, a11, kappa))
        report = verify_isometry(base, member)
        assert report.passed, (kappa, report)


def test_first_form_matches_closed_form():
    for kappa in (0.0, 1.0, 3.0):
        fam = deformation_family(2.0, 0.5, kappa)
        forms = first_form(build_crosscap(fam, order=6))
        closed = degenerate_first_form(2.0, 0.5, order=7)
        assert forms.E.max_coeff_diff(closed.E.truncated(forms.E.order)) <= 1e-12
        assert forms.F.max_coeff_diff(closed.F.truncated(forms.F.order)) <= 1e-12
        assert forms.G.max_coeff_diff(closed.G.truncated(forms.G.order)) <= 1e-12


def test_extrinsic_invariants_from_reduction():
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        for kappa in (0.0, 1.0, 3.0):
            fam = deformation_family(a02, a11, kappa)
            nf = reduce_to_normal_form(build_crosscap(fam, order=5), order=3)
            a12, a03, b3 = extrinsic_invariants(kappa, a02, a11)
            assert nf.a_coeff(1, 2) == pytest.approx(a12, abs=1e-7)
            assert nf.a_coeff(0, 3) == pytest.approx(a03, abs=1e-7)
            assert nf.b_coeff(3) == pytest.approx(b3, abs=1e-7)
            assert nf.a_coeff(2, 0) == pytest.approx(0.0, abs=1e-7)


def test_b3_column_for_standard_parameters():
    # a02 = 2, a11 = 0: b3 = -2 * 2 * kappa
    for kappa, expect in ((0.0, 0.0), (1.0, -4.0), (3.0, -12.0)):
        assert extrinsic_invariants(kappa, 2.0, 0.0)[2] == pytest.approx(expect, abs=1e-13)


def test_cubic_expansion_of_member():
    # order-3 jet: (u, uv, a11 uv + a02 v^2/2)
    #            + kappa0 sqrt(m)/6 * (0, -3 a11 u v^2 - 2 a02 v^3, 3 u v^2)
    a02, a11, kappa0 = 1.7, 0.6, 1.3
    m = 1.0 + a11 * a11
    sm = math.sqrt(m)
    fam = deformation_family(a02, a11, kappa0)
    jet = build_crosscap(fam, order=3).jet
    expect = {
        (1, 0): [1.0, 0.0, 0.0],
        (1, 1): [0.0, 1.0, a11],
        (0, 2): [0.0, 0.0, a02 / 2.0],
        (1, 2): [0.0, -kappa0 * sm * a11 / 2.0, kappa0 * sm / 2.0],
        (0, 3): [0.0, -kappa0 * sm * a02 / 3.0, 0.0],
    }
    for (j, k), vec in expect.items():
        assert np.linalg.norm(jet.coeff_vector(j, k) - np.array(vec)) <= 1e-10
    for j in range(4):
        for k in range(4 - j):
            if (j, k) not in expect and (j, k) != (0, 0):
                assert np.linalg.norm(jet.coeff_vector(j, k)) <= 1e-10


def test_second_form_closed_matches_pointwise():
    fam = deformation_family(2.0, 0.5, 1.0)
    f = build_crosscap(fam)
    pts = [(0.4, 0.3), (-0.5, 0.2), (0.3, -0.6), (0.7, 0.7)]
    diffs, sums = [], []
    for u, v in pts:
        closed = np.array(second_form_closed(fam, u, v))
        direct = np.array(second_form_at(f, u, v))
        diffs.append(np.max(np.abs(direct - closed)))
        sums.append(np.max(np.abs(direct + closed)))
    # the unit normal is defined up to a global sign on the chart
    assert min(max(diffs), max(sums)) <= 1e-8


def test_second_form_closed_singular_locus():
    fam = deformation_family(2.0, 0.0, 1.0)
    with pytest.raises(ChartError):
        second_form_closed(fam, 0.0, 0.0)


def test_rotated_initial_frame_is_congruent():
    kappa = 1.0
    fam = deformation_family(2.0, 0.0, kappa)
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    curve = SphericalCurve(
        kappa_poly=(kappa,),
        point0=tuple(rot @ np.array([1.0, 0.0, 0.0])),
        tangent0=tuple(rot @ np.array([0.0, 1.0, 0.0])),
    )
    fam_rot = deformation_family(2.0, 0.0, curve)
    nf = reduce_to_normal_form(build_crosscap(fam, order=5), order=4)
    nf_rot = reduce_to_normal_form(build_crosscap(fam_rot, order=5), order=4)
    dev = max(
        abs(v1 - v2) for (_, _, v1), (_, _, v2) in zip(nf.a_table(), nf_rot.a_table())
    )
    devb = max(abs(v1 - v2) for (_, v1), (_, v2) in zip(nf.b_table(), nf_rot.b_table()))
    assert max(dev, devb) <= 1e-8


def test_different_quadratic_data_not_isometric():
    f = build_crosscap(deformation_family(2.0, 0.0, 1.0))
    g = build_crosscap(deformation_family(1.0, 1.0, 1.0))
    assert not verify_isometry(f, g).passed


def test_spherical_curve_validation():
    with pytest.raises(ValueError):
        SphericalCurve(point0=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SphericalCurve(tangent0=(0.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        SphericalCurve(tangent0=(1.0, 0.0, 0.0))  # parallel to point0
    with pytest.raises(ValueError):
        deformation_family(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        deformation_family(-2.0, 0.0, 1.0)


def test_frenet_series_matches_path():
    curve = SphericalCurve(kappa_poly=(0.5, -1.0))
    C, E, N = frenet_series(curve.kappa_poly, np.array(curve.point0), np.array(curve.tangent0), 10)
    s = 0.3
    powers = s ** np.arange(11)
    c_series = powers @ C
    assert np.linalg.norm(c_series - curve.point(s)) <= 1e-9

    # recentered series around s0 reproduces nearby frames
    C2, E2, N2 = curve.series_at(0.4, 10)
    h = 0.05
    powers = h ** np.arange(11)
    assert np.linalg.norm(powers @ C2 - curve.point(0.4 + h)) <= 1e-9
    assert np.linalg.norm(powers @ E2 - curve.frame(0.4 + h)[1]) <= 1e-9


@pytest.mark.parametrize("k1", [1.0, 10.0, 100.0])
def test_frame_matches_mpmath_oracle(k1):
    import mpmath

    def frenet_rhs(s, y):
        c, e, n = y[0:3], y[3:6], y[6:9]
        return [*e, *(k1 * s * ni - ci for ci, ni in zip(c, n)), *(-k1 * s * ei for ei in e)]

    with mpmath.workdps(20):
        ref = mpmath.odefun(frenet_rhs, 0, [1, 0, 0, 0, 1, 0, 0, 0, 1])(1.2)
        ref = np.array([float(x) for x in ref])
    path = SphericalCurve(kappa_poly=(0.0, k1)).path
    assert np.max(np.abs(path.state(1.2) - ref)) <= 1e-10
    # kappa is odd, so the rotation by pi about c(0) maps s to -s with
    # (c, e, n) -> (D c, -D e, -D n)
    d = np.array([1.0, -1.0, -1.0])
    mirrored = np.concatenate([d * ref[0:3], -d * ref[3:6], -d * ref[6:9]])
    assert np.max(np.abs(path.state(-1.2) - mirrored)) <= 1e-10


def test_frame_refuses_series_that_is_not_finite():
    # outside the CLI's errstate the recursion overflows to inf - inf = nan,
    # which must not pass for a zero tail
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ChartError, match="curvature too large"):
            SphericalCurve(kappa_poly=(0.0, 1e100)).path.state(0.5)


@pytest.mark.parametrize("k1", [1.0, 10.0, 100.0])
def test_directrix_matches_mpmath_oracle(k1):
    import mpmath

    a02, a11 = 1.3, 0.5
    m = 1.0 + a11 * a11
    sm = math.sqrt(m)

    def rhs(s, y):
        # the frame system in arc length s, kappa = k1 s, carrying gamma along
        # by d gamma/ds = gamma'(v) dv/ds with t = tan s = sqrt(m) v; n = c x e
        c, e, t = y[0:3], y[3:6], y[9]
        n = [c[1] * e[2] - c[2] * e[1], c[2] * e[0] - c[0] * e[2], c[0] * e[1] - c[1] * e[0]]
        w = mpmath.sqrt(1 + t * t)
        g = (a02 / m) * t * w / sm
        return [
            *e,
            *(k1 * s * ni - ci for ci, ni in zip(c, n)),
            *(g * (a11 * (t * ci + ei) + w * ni) for ci, ei, ni in zip(c, e, n)),
            1 + t * t,
        ]

    ref = {}
    with mpmath.workdps(20):
        # tol far below the 1e-12 checked, and larger steps than the default
        sol = mpmath.odefun(rhs, 0, [1, 0, 0, 0, 1 / sm, a11 / sm, 0, 0, 0, 0], tol=1e-18)
        for v in (0.5, 1.0):
            ref[v] = np.array([float(x) for x in sol(mpmath.atan(sm * v))[6:9]])
            # kappa is odd, so c(-s) = D c(s) and gamma(-v) = -D gamma(v),
            # D the rotation by pi about c(0)
            ref[-v] = np.array([-1.0, 1.0, 1.0]) * ref[v]
    vs = sorted(ref)
    gamma = from_deformation(deformation_family(a02, a11, (0.0, k1))).grid([0.0], vs)[0]
    assert max(np.max(np.abs(g - ref[v])) for g, v in zip(gamma, vs)) <= 1e-12


def test_built_surface_is_freed_by_reference_counting(tmp_path):
    spec = parse_spec({"spherical_deformation": {"kappa_poly": [0.5, -0.7], "a02": 2, "a11": 0.3}})
    gc.disable()
    try:
        built = build_surface(spec)
        write_obj(built.surface, str(tmp_path / "m.obj"), 4)
        curve = weakref.ref(built.family.curve)
        del built
        assert curve() is None
    finally:
        gc.enable()


def test_ruling_decomposition_consistency():
    fam = deformation_family(2.0, 0.5, 1.0)
    rs = from_deformation(fam, order=6)
    gamma, xi = rs.gamma, rs.xi
    jet = build_crosscap(fam, order=6).jet
    # f(u, v) = gamma(v) + u xi(v), compare pure-v and u-linear rows
    for k in range(7):
        assert np.linalg.norm(jet.coeff_vector(0, k) - gamma.coeff_vector(0, k)) <= 1e-12
        if k <= 5:
            assert np.linalg.norm(jet.coeff_vector(1, k) - xi.coeff_vector(0, k)) <= 1e-12
    # xi stays on the sphere of radius sqrt(1 + m v^2)
    xi_sq = xi.dot(xi)
    m = fam.m
    for k in range(7):
        expect = {0: 1.0, 2: m}.get(k, 0.0)
        assert xi_sq.coeff(0, k) == pytest.approx(expect, abs=1e-12)
