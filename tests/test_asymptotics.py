"""Polar curvature asymptotics near the singular point."""
from __future__ import annotations

import math
from dataclasses import fields

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
from crosscap import asymptotics
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


def test_mirrored_surface_uses_flipped_parameters():
    mirrored = surface_from_polynomial(
        {(1, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 2): [0, 0, -1.0]}, order=6
    )
    rep = verify_convergence(mirrored, 0.0)
    assert rep.passed
    assert all(val == pytest.approx(1.0, abs=1e-12) for val in rep.r2h)


def assert_same_report(a, b):
    assert type(a) is type(b)
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        # GapReport.order is nan on the rays theta = +-pi/2
        if isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("radii", [None, (1e-2,), (1e-2, 1e-2, 1e-9, 1e-8)])
def test_ray_reports_match_the_two_reports_from_one_sampling(radii, monkeypatch):
    calls = []
    sampled = asymptotics.curvatures_at

    def counted(f, u, v):
        calls.append((u, v))
        return sampled(f, u, v)

    monkeypatch.setattr(asymptotics, "curvatures_at", counted)
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
