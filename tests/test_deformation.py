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
from crosscap.deformation import DeformationFamily, circle_family
from crosscap.jets import series_shift
from crosscap.numerics import TAYLOR_ORDER, frenet_series
from crosscap.ruled import from_deformation
from crosscap.specio import build_surface, parse_spec, write_obj
from helpers import mpmath_ruling_series, reference_frenet_series, reference_ruling_series


S_GRID = np.linspace(-1.2, 1.2, 13)


def test_circle_point_matches_integrated_frame():
    for kappa in (0.0, 1.0, 3.0):
        curve = circle_family(kappa)
        for s in S_GRID:
            assert np.linalg.norm(curve.state(s)[0:3] - circle_point(kappa, s)) <= 1e-9


def test_circle_point_stays_on_sphere():
    for kappa in (0.0, 0.5, 2.0):
        for s in S_GRID:
            assert np.linalg.norm(circle_point(kappa, s)) == pytest.approx(1.0, abs=1e-12)


def test_frame_conservation_drift():
    for curve in (circle_family(1.0), SphericalCurve(kappa_poly=(0.0, 1.0))):
        for s in np.linspace(-1.0, 1.0, 9):
            y = curve.state(s)
            c, e, n = y[0:3], y[3:6], y[6:9]
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-9
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
            assert abs(c @ e) <= 1e-9
            assert np.linalg.norm(np.cross(c, e) - n) <= 1e-9


def test_chart_boundary_raises():
    with pytest.raises(ChartError):
        circle_family(1.0).state(1.6)
    # a refusal at the root names it as 0 in either direction, never as -0
    for s in (-0.1, 0.1):
        with pytest.raises(ChartError, match=r"near arc length 0\.000000:"):
            circle_family(1e6).state(s)


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


def test_isometry_grid_needs_a_point_on_each_side():
    f = build_crosscap(deformation_family(2.0, 0.0, 1.0))
    g = build_crosscap(deformation_family(2.0, 0.0, 0.0))
    for grid in ((0, 0), (-3, 2), (4, 0), (0, 5)):
        with pytest.raises(ValueError, match="at least one point"):
            verify_isometry(f, g, grid=grid)
    report = verify_isometry(f, g, grid=(1, 1))
    assert report.passed and report.grid_max_dev <= 1e-12


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


def test_verify_isometry_reads_each_surface_in_one_ruling_series_call(monkeypatch):
    f, g = (build_crosscap(deformation_family(1.3, -0.4, kappa)) for kappa in (1.2, (0.5, -0.4, 0.2)))
    calls = []
    series = DeformationFamily.ruling_series

    def counted(self, v0, order):
        calls.append(np.shape(v0))
        return series(self, v0, order)

    monkeypatch.setattr(DeformationFamily, "ruling_series", counted)
    report = verify_isometry(f, g, grid=(10, 10))
    # the ten columns of each surface in one call
    assert calls == [(10,), (10,)]
    assert report.passed


def test_frenet_series_matches_path():
    curve = SphericalCurve(kappa_poly=(0.5, -1.0))
    C, E, N = frenet_series(curve.kappa_poly, np.array(curve.point0), np.array(curve.tangent0), 10)
    s = 0.3
    powers = s ** np.arange(11)
    c_series = powers @ C
    assert np.linalg.norm(c_series - curve.state(s)[0:3]) <= 1e-9

    # recentered series around s0 reproduces nearby frames
    C2, E2, N2 = curve.series(0.4, 10)
    h = 0.05
    powers = h ** np.arange(11)
    assert np.linalg.norm(powers @ C2 - curve.state(0.4 + h)[0:3]) <= 1e-9
    assert np.linalg.norm(powers @ E2 - curve.state(0.4 + h)[3:6]) <= 1e-9


def test_series_at_origin_grows_no_node():
    for curve in (circle_family(0.7), deformation_family(1.5, 0.25, (0.5, -0.4, 0.2)).curve):
        first = curve.series(0.0, TAYLOR_ORDER)
        # the root block of the path is grown on the first state query only
        assert "_nodes" not in vars(curve)
        curve.state(1.2)
        assert len(curve._nodes[1][0]) > 1
        grown = np.hsplit(curve._block(0.0, curve.state(0.0)), 3)
        for a, b in zip(first, grown):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k1", [1.0, 10.0, 100.0])
def test_frame_matches_mpmath_oracle(k1):
    import mpmath

    def frenet_rhs(s, y):
        c, e, n = y[0:3], y[3:6], y[6:9]
        return [*e, *(k1 * s * ni - ci for ci, ni in zip(c, n)), *(-k1 * s * ei for ei in e)]

    with mpmath.workdps(20):
        ref = mpmath.odefun(frenet_rhs, 0, [1, 0, 0, 0, 1, 0, 0, 0, 1])(1.2)
        ref = np.array([float(x) for x in ref])
    path = SphericalCurve(kappa_poly=(0.0, k1))
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
            SphericalCurve(kappa_poly=(0.0, 1e100)).state(0.5)


@pytest.mark.parametrize("degree", [0, 2, 7])
def test_frenet_series_matches_reference_kernel(degree):
    rng = np.random.default_rng(degree)
    for _ in range(10):
        kappa = series_shift(rng.uniform(-2.0, 2.0, degree + 1), rng.uniform(-1.0, 1.0))
        c0 = rng.normal(size=3)
        c0 /= np.linalg.norm(c0)
        e0 = np.cross(c0, rng.normal(size=3))
        e0 /= np.linalg.norm(e0)
        for order in (0, 1, 20):
            got = frenet_series(kappa, c0, e0, order)
            for a, b in zip(got, reference_frenet_series(kappa, c0, e0, order)):
                assert a.shape == b.shape == (order + 1, 3)
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


# (a02, a11, kappa) for members with constant, quadratic and steeper quadratic curvature
NODE_MEMBERS = [(2.0, -0.3, 0.7), (1.5, 0.25, (0.5, -0.4, 0.2)), (1.1, 0.8, (-1.9, 0.6, -0.7))]
# and with curvature of degree 1, 3, 7 and 29, whose K(vhat) is a longer
# series; the 30 coefficients decay like a truncated analytic curvature's,
# since with O(1) ones the reference itself errs by more than 1e-13
RULING_MEMBERS = NODE_MEMBERS + [
    (1.3, -0.6, (0.4, -0.9)),
    (0.8, 0.45, (-0.2, 0.7, 0.3, -0.5)),
    (2.4, -0.9, (0.3, -0.6, 0.5, 0.8, -0.4, 0.2, -0.7, 0.35)),
    (1.7, 0.15, tuple(np.random.default_rng(29).uniform(-1.0, 1.0, 30) * 0.7 ** np.arange(30))),
]


def test_ruling_series_matches_two_power_formula():
    # the frame solved in vhat, with xi x xi' = sqrt(m) nhat, against the
    # frame in arc length composed with shat(v) and a series cross product
    for a02, a11, kappa in RULING_MEMBERS:
        fam = deformation_family(a02, a11, kappa)
        for v0 in (-1.0, -0.55, 0.0, 0.3, 0.8, 1.0):
            for order in (1, 2, 5, 12, 20):
                for got, want in zip(fam.ruling_series(v0, order), reference_ruling_series(fam, v0, order)):
                    assert got.shape == want.shape
                    # about order^2 units in the last place of the largest coefficient
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_steep_ruling_series_matches_mpmath_oracle():
    # 30 curvature coefficients of size O(1), where the composition route in
    # floats errs by about 1e-12 of the largest coefficient at v0 = 1 and
    # order 20: the same route in 60 digits is the oracle
    kappa = tuple(np.random.default_rng(29).uniform(-1.0, 1.0, 30))
    fam = deformation_family(1.7, 0.15, kappa)
    for v0 in (-1.0, -0.55, 0.0, 0.3, 0.8, 1.0):
        for order in (5, 12, 20):
            for got, want in zip(fam.ruling_series(v0, order), mpmath_ruling_series(fam, v0, order)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_overflowing_ruling_frame_is_reported():
    # at v0 = 0 no frame node is grown, so the overflow arises in the
    # frame recurrence in vhat, from finite curvature and initial frame
    fam = deformation_family(2.0, 0.0, (0.0, 1e100))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            fam.ruling_series(0.0, 20)


def test_frenet_series_defaults_match_reference_kernel_exactly():
    # with w = 1 and rate = 1 the added terms of the recurrence are exact zeros
    rng = np.random.default_rng(5)
    for degree in (0, 2, 7):
        kappa = series_shift(rng.uniform(-2.0, 2.0, degree + 1), rng.uniform(-1.0, 1.0))
        c0, e0 = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0])
        for got, want in zip(frenet_series(kappa, c0, e0, 20), reference_frenet_series(kappa, c0, e0, 20)):
            assert np.array_equal(got, want)


def test_node_layout_is_pinned():
    # per path, directrix in v then frame in arc length: the node count and
    # the start of the last node per direction (+, -), after one grid over
    # 25 columns of [-1, 1]
    want = [
        (((6, 6), (0.9287469425251336, 0.9251573347539328)), ((1, 1), (0.0, 0.0))),
        (((6, 6), (0.9866655704635543, 0.9620310085815228)), ((2, 2), (0.4319145099070547, 0.4319145099070547))),
        (((7, 7), (0.9023006768098835, 0.829156382592817)), ((3, 4), (0.5769680231669494, 0.7605341565013406))),
    ]
    for (a02, a11, kappa), (directrix, frame) in zip(NODE_MEMBERS, want):
        fam = deformation_family(a02, a11, kappa)
        surface = from_deformation(fam)
        surface.evaluate_grid([0.0], np.linspace(-1.0, 1.0, 25))
        for nodes, (counts, lasts) in ((surface._path._nodes, directrix), (fam.curve._nodes, frame)):
            assert tuple(len(nodes[sign][0]) for sign in (1, -1)) == counts
            assert [nodes[sign][0][-1] for sign in (1, -1)] == pytest.approx(lasts, abs=1e-14)


def test_node_positions_are_python_floats():
    for a02, a11, kappa in NODE_MEMBERS:
        fam = deformation_family(a02, a11, kappa)
        surface = from_deformation(fam)
        surface.evaluate_grid([0.0], np.linspace(-1.0, 1.0, 25))
        for nodes in (surface._path._nodes, fam.curve._nodes):
            for starts, _, steps in nodes.values():
                assert all(type(x) is float for x in starts + steps)


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
    gamma = from_deformation(deformation_family(a02, a11, (0.0, k1))).evaluate_grid([0.0], vs)[0]
    assert max(np.max(np.abs(g - ref[v])) for g, v in zip(gamma, vs)) <= 1e-12


def test_built_surface_is_freed_by_reference_counting(tmp_path):
    spec = parse_spec({"spherical_deformation": {"kappa_poly": [0.5, -0.7], "a02": 2, "a11": 0.3}})
    gc.disable()
    try:
        built = build_surface(spec)
        write_obj(built.surface, str(tmp_path / "m.obj"), 4)
        curve = weakref.ref(built.surface.backing.curve)
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
