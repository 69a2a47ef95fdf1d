"""Polar curvature asymptotics near the singular point."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from crosscap import (
    CrosscapError,
    build_crosscap,
    deformation_family,
    intrinsic_from_map,
    leading,
    quadratic_crosscap,
    standard_crosscap,
    surface_from_polynomial,
    umbilic_gap,
    verify_convergence,
)
from crosscap import asymptotics, surface
from crosscap.asymptotics import _clamped_radii
from crosscap.invariants import IntrinsicTriple


def test_leading_standard_values():
    triple = intrinsic_from_map(standard_crosscap())
    side = leading(triple, math.pi / 2.0)
    assert side.a_theta == pytest.approx(2.0, abs=1e-12)
    assert side.k_lead == pytest.approx(-0.25, abs=1e-12)
    assert side.h_lead == pytest.approx(0.0, abs=1e-12)

    axis = leading(triple, 0.0)
    assert axis.a_theta == pytest.approx(1.0, abs=1e-12)
    assert axis.h_lead == pytest.approx(1.0, abs=1e-12)
    assert axis.k_lead == pytest.approx(0.0, abs=1e-12)
    assert axis.gap_lead == pytest.approx(1.0, abs=1e-12)


def test_leading_rejects_bad_a02():
    with pytest.raises(ValueError):
        leading(IntrinsicTriple(a02=0.0, a20=0.0, a11=0.0, delta_sq=1.0), 0.3)


def test_leading_names_the_overflowing_quantity():
    # a^4, a^3 and the square inside a(theta) overflow in turn as a02 grows
    for a02, name in ((1e80, "k_lead"), (1e120, "h_lead"), (1e160, "a_theta")):
        triple = IntrinsicTriple(a02=a02, a20=0.5, a11=0.3, delta_sq=1.0)
        with pytest.raises(CrosscapError, match=f"{name} at theta = 1.0"):
            leading(triple, 1.0)


def test_convergence_standard_side_ray():
    rep = verify_convergence(standard_crosscap(), math.pi / 2.0)
    assert rep.passed
    assert rep.k_order >= 0.9
    assert abs(rep.k_extrapolated + 0.25) < 1e-3
    assert rep.k_limit == pytest.approx(-0.25, abs=1e-12)


def test_convergence_standard_axis_is_trivial():
    rep = verify_convergence(standard_crosscap(), 0.0)
    assert rep.passed
    assert all(val == pytest.approx(1.0, abs=1e-13) for val in rep.r2h)
    assert all(val == pytest.approx(0.0, abs=1e-13) for val in rep.r2k)
    assert rep.h_order == math.inf and rep.k_order == math.inf


def test_gap_modes():
    f = standard_crosscap()
    axis = umbilic_gap(f, 0.0)
    assert not axis.negative_k_mode
    assert axis.limit == pytest.approx(1.0, abs=1e-12)
    assert axis.passed

    side = umbilic_gap(f, math.pi / 2.0)
    assert side.negative_k_mode
    assert side.limit is None
    assert math.isnan(side.order)
    assert side.passed and all(k < 0.0 for k in side.k_values)

    diag = umbilic_gap(f, math.pi / 4.0)
    assert not diag.negative_k_mode
    lead = leading(intrinsic_from_map(f), math.pi / 4.0)
    assert diag.limit == pytest.approx(lead.gap_lead, abs=1e-15)
    assert diag.passed


def test_k_lead_sign_tracks_a20():
    thetas = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    hyper = intrinsic_from_map(quadratic_crosscap(-1.0, 0.3, 1.5))
    assert max(leading(hyper, float(t)).k_lead for t in thetas) < 0.0
    elli = intrinsic_from_map(quadratic_crosscap(1.0, 0.3, 1.5))
    leads = [leading(elli, float(t)).k_lead for t in thetas]
    assert min(leads) < 0.0 < max(leads)


def test_ray_sweep_with_error_bounds():
    surfaces = [standard_crosscap(), quadratic_crosscap(1.0, 0.5, 1.5)]
    thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for f in surfaces:
        triple = intrinsic_from_map(f)
        for theta in thetas:
            rep = verify_convergence(f, float(theta), triple=triple)
            assert rep.passed, (theta, rep)
            assert np.isfinite(rep.k_bound)
            for r, val in zip(rep.radii, rep.r2k):
                assert abs(val - rep.k_limit) <= rep.k_bound * r + 1e-12


def test_family_member_rays():
    f = build_crosscap(deformation_family(2.0, 0.0, 1.0))
    for theta in (0.0, 0.7, math.pi / 2.0):
        rep = verify_convergence(f, theta)
        assert rep.passed, (theta, rep)


def test_a_theta_lower_bound():
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for a20, a11, a02 in ((0.0, 0.0, 2.0), (1.0, 0.5, 1.5), (-1.0, -0.8, 0.6)):
        triple = IntrinsicTriple(a02=a02, a20=a20, a11=a11, delta_sq=1.0)
        bound = min(1.0, a02) / 2.0
        for t in thetas:
            assert leading(triple, float(t)).a_theta >= bound


def test_radius_clamping():
    assert _clamped_radii((1e-9, 1e-2)) == (1e-2, 1e-6)
    assert _clamped_radii((1e-2, 1e-2, 1e-3)) == (1e-2, 1e-3)
    with pytest.raises(ValueError):
        _clamped_radii(())


EPS = 2.0**-52


def exact_line(xs, ys):
    """Least-squares (slope, intercept) in exact rational arithmetic on the
    float inputs."""
    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    slope = sum((x - mx) * (y - my) for x, y in zip(X, Y)) / sum((x - mx) ** 2 for x in X)
    return slope, my - slope * mx


def line_error_bound(xs, ys):
    """First-order round-off bound, doubled, of the fit by sums about the
    means.  With unit round-off u, each mean is off by c <= 2u |mean|, which
    shifts every centred value by c and, since the exact centred values sum
    to 0, moves the cross sum only by n c_x c_y; the differences, the
    products and the correctly rounded sums add a relative u each."""
    u = EPS / 2
    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n, (slope, intercept) = len(X), exact_line(xs, ys)
    mx, my = float(sum(X) / n), float(sum(Y) / n)
    dx, dy = [float(x - sum(X) / n) for x in X], [float(y - sum(Y) / n) for y in Y]
    cx, cy = 2 * u * abs(mx), 2 * u * abs(my)
    sxx, sxy = sum(d * d for d in dx), sum(p * q for p, q in zip(dx, dy))
    d_sxy = n * cx * cy + 3 * u * sum((abs(p) + cx) * (abs(q) + cy) for p, q in zip(dx, dy)) + u * abs(sxy)
    d_sxx = n * cx * cx + 3 * u * sum((abs(p) + cx) ** 2 for p in dx) + u * sxx
    s = abs(float(slope))
    d_slope = (d_sxy + s * d_sxx) / sxx + u * s
    d_intercept = cy + d_slope * abs(mx) + s * cx + u * (s * abs(mx) + abs(float(intercept)))
    return 2 * d_slope, 2 * d_intercept


def test_line_matches_exact_least_squares():
    rng = np.random.default_rng(27)
    cases = []
    for n in (2, 3, 4, 6, 8):
        for _ in range(40):
            radii = np.sort(10.0 ** rng.uniform(-6.0, 0.0, n))[::-1]
            logs = np.log(radii)
            # a decay line in log-log and an O(r) remainder, with noise
            cases.append((logs, rng.uniform(-3, 3) + rng.uniform(0.5, 3) * logs + rng.normal(0, 1e-3, n)))
            cases.append((radii, rng.uniform(-2, 2) + rng.uniform(-5, 5) * radii + rng.normal(0, 1e-9, n)))
            # x far from 0 against its spread: centring has to cancel
            xs = 1e3 + rng.uniform(-1e-6, 1e-6, n)
            cases.append((xs, rng.normal(0, 1.0, n)))
    for xs, ys in cases:
        xs, ys = xs.tolist(), ys.tolist()
        if max(xs) == min(xs):
            continue
        slope, intercept = asymptotics._line(xs, ys)
        exact_slope, exact_intercept = exact_line(xs, ys)
        d_slope, d_intercept = line_error_bound(xs, ys)
        assert abs(Fraction(slope) - exact_slope) <= d_slope, (xs, ys)
        assert abs(Fraction(intercept) - exact_intercept) <= d_intercept, (xs, ys)


@pytest.mark.parametrize("xs", [[0.25, 0.25], [0.0, 0.0, 0.0], [-3.5, -3.5, -3.5]])
def test_line_refuses_points_with_one_x(xs):
    with pytest.raises(asymptotics.SpreadError, match="one x"):
        asymptotics._line(xs, [1.0, 2.0, 3.0][: len(xs)])


@pytest.mark.parametrize(
    "radii",
    [
        (0.5, 0.5000000000000001),
        (0.05, 0.05000000000000001, 0.05000000000000002),
        # near r = 1 the logs themselves are round-off sized
        (1.0, 1.0000000000000002),
        (1e-9, 1e-8, 1.0000000000000002e-6),
    ],
)
def test_radii_only_round_off_apart_are_refused(radii):
    with pytest.raises(asymptotics.SpreadError, match="round-off"):
        _clamped_radii(radii)
    f = standard_crosscap()
    for report in (verify_convergence, umbilic_gap, asymptotics.ray_reports):
        with pytest.raises(asymptotics.SpreadError, match="round-off"):
            report(f, 0.3, radii=radii)


def test_radii_apart_by_more_than_round_off_are_kept():
    radii = (0.5, 0.5 * (1.0 + 2.0**-40))
    assert _clamped_radii(radii) == radii[::-1]
    report = umbilic_gap(standard_crosscap(), 0.3, radii=radii)
    assert math.isfinite(report.order)


def test_fit_order_reads_a_pure_power_law():
    radii = (0.5, 0.2, 0.1, 0.05)
    assert asymptotics._fit_order(radii, [3.0 * r**1.5 for r in radii]) == pytest.approx(1.5, rel=1e-13)
    assert asymptotics._fit_order(radii, [1e-14] * 4) == math.inf
    assert asymptotics._fit_order(radii, [0.0, 0.0, 0.0, 1.0]) == 0.0


def test_mirrored_surface_uses_flipped_parameters():
    mirrored = surface_from_polynomial(
        {(1, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 2): [0, 0, -1.0]}, order=6
    )
    rep = verify_convergence(mirrored, 0.0)
    assert rep.passed
    assert all(val == pytest.approx(1.0, abs=1e-12) for val in rep.r2h)


def assert_same_report(a, b):
    assert type(a) is type(b)
    for name in a._fields:
        x, y = getattr(a, name), getattr(b, name)
        # GapReport.order is nan on the rays theta = +-pi/2
        if isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), name
        else:
            assert x == y, name


def test_ray_reports_read_each_ray_in_one_derivative_jets_call(monkeypatch):
    calls = []
    n = len(_clamped_radii(None))
    for f in (standard_crosscap(), build_crosscap(deformation_family(2.0, 0.3, (0.5, -0.4)))):
        tables = type(f).derivative_jets

        def counted(self, us, vs, order=2, tables=tables):
            calls.append(len(us))
            return tables(self, us, vs, order)

        monkeypatch.setattr(type(f), "derivative_jets", counted)
        for theta in (0.7, -1.2, math.pi / 2.0):
            calls.clear()
            asymptotics.ray_reports(f, theta)
            # every radius of the ray, each at its own v, in one call
            assert calls == [n], (f, theta)


@pytest.mark.parametrize("radii", [None, (1e-2,), (1e-2, 1e-2, 1e-9, 1e-8)])
def test_ray_reports_match_the_two_reports_from_one_sampling(radii, monkeypatch):
    calls = []
    sampled = surface._forms

    def counted(f, us, vs):
        calls.extend(zip(us, vs))
        return sampled(f, us, vs)

    monkeypatch.setattr(surface, "_forms", counted)
    # (u, uv, -v^2) has a negative bracket, so its rays are sampled flipped
    mirrored = surface_from_polynomial({(1, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 2): [0, 0, -1.0]})
    member = build_crosscap(deformation_family(2.0, 0.0, 1.0))
    half = math.pi / 2.0
    rays = [(standard_crosscap(), t) for t in (0.0, math.pi / 4.0, half, -half)]
    rays += [(mirrored, 0.7), (mirrored, half), (member, 0.7), (member, -half)]
    n = len(_clamped_radii(radii))
    for f, theta in rays:
        for triple in (None, intrinsic_from_map(f)):
            conv = verify_convergence(f, theta, radii, triple)
            gap = umbilic_gap(f, theta, radii, triple)
            calls.clear()
            both = asymptotics.ray_reports(f, theta, radii, triple)
            assert len(calls) == n, (theta, calls)
            assert_same_report(both[0], conv)
            assert_same_report(both[1], gap)
