"""Ruled surfaces: normalization, frame data, redeployment, classification."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from crosscap import (
    SingularPointError,
    curvatures_at,
    deformation_family,
    reduce_to_normal_form,
    ruled,
    verify_isometry,
)
from crosscap.deformation import SphericalCurve, build_crosscap, circle_family
from crosscap.jets import Jet2, Jet3, vpoly
from crosscap.ruled import (
    FrameCoefficients,
    RuledSurface,
    classify_singularity,
    frame_coefficients,
    from_deformation,
    from_frame,
    from_polynomials,
    is_normalized,
    normalize,
    reconstruct_directrix,
    redeploy,
)
from crosscap.specio import build_surface, parse_spec, write_obj

COS_ROWS = [1.0, 0.0, -1 / 2, 0.0, 1 / 24, 0.0, -1 / 720, 0.0, 1 / 40320]
SIN_ROWS = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040]


def unit_circle_jet(order: int = 8) -> Jet3:
    return Jet3(
        vpoly(COS_ROWS[: order + 1], order),
        vpoly(SIN_ROWS[: order + 1], order),
        Jet2.zero(order),
    )


def standard_ruled() -> RuledSurface:
    # (u, uv, v^2) = (0,0,v^2) + u (1, v, 0)
    return from_polynomials(
        gamma=[[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        xi=[[1, 0, 0], [0, 1, 0]],
        order=8,
    )


def test_normalize_standard_ruling_is_circle():
    rsn = normalize(standard_ruled())
    assert is_normalized(rsn)
    circle = unit_circle_jet(rsn.xi.order)
    assert rsn.xi.max_coeff_diff(circle.truncated(rsn.xi.order)) <= 1e-12


def test_standard_frame_coefficients():
    rsn = normalize(standard_ruled())
    fc = frame_coefficients(rsn)
    assert fc.a.max_abs() <= 1e-12
    assert fc.b.max_abs() <= 1e-12
    expect = [0.0, 2.0, 0.0, 8.0 / 3.0, 0.0, 34.0 / 15.0]
    for k, val in enumerate(expect):
        assert fc.c.coeff(0, k) == pytest.approx(val, abs=1e-12)


def test_normalize_is_idempotent():
    rsn = normalize(standard_ruled())
    assert normalize(rsn) is rsn


def test_normalize_scaled_circle():
    rows = [[2 * c, 2 * s, 0.0] for c, s in zip(COS_ROWS, list(SIN_ROWS) + [0.0])]
    rs = from_polynomials(gamma=[[0, 0, 0]], xi=rows, order=8)
    assert not is_normalized(rs)
    rsn = normalize(rs)
    assert is_normalized(rsn)
    assert np.allclose(rsn.xi.coeff_vector(0, 0), [1.0, 0.0, 0.0], atol=1e-12)


def test_normalize_constant_ruling_fails():
    rs = from_polynomials(gamma=[[0, 0, 0], [0, 1, 0]], xi=[[1, 0, 0]], order=6)
    with pytest.raises(SingularPointError):
        normalize(rs)


def test_frame_coefficients_require_normalized():
    with pytest.raises(ValueError):
        frame_coefficients(standard_ruled())


def test_tangent_directrix_coefficients():
    rs = from_frame(circle_family(0.0), a=1.0)
    fc = frame_coefficients(rs)
    one = Jet2.constant(1.0, fc.a.order)
    assert fc.a.max_coeff_diff(one) <= 1e-12
    assert fc.b.max_abs() <= 1e-12
    assert fc.c.max_abs() <= 1e-12


def test_reconstruct_directrix_roundtrip():
    rsn = normalize(standard_ruled())
    fc = frame_coefficients(rsn)
    gp = reconstruct_directrix(fc, rsn)
    direct = rsn.gamma.deriv_v()
    n = min(gp.order, direct.order)
    assert gp.truncated(n).max_coeff_diff(direct.truncated(n)) <= 1e-10


def test_classification_exemplars():
    assert classify_singularity(standard_ruled()) == "cross_cap"
    assert classify_singularity(from_frame(circle_family(0.0), a=1.0)) == "cuspidal_edge"
    assert classify_singularity(from_frame(circle_family(0.0), a=[0.0, 1.0])) == "swallowtail"
    assert (
        classify_singularity(from_frame(SphericalCurve(kappa_poly=(0.0, 1.0)), a=1.0))
        == "cuspidal_cross_cap"
    )
    cylinder = from_polynomials(
        gamma=[[c, s, 0.0] for c, s in zip(COS_ROWS, list(SIN_ROWS) + [0.0])],
        xi=[[0, 0, 1]],
        order=8,
    )
    assert classify_singularity(cylinder) == "regular"
    cone = from_polynomials(
        gamma=[[0, 0, 0]],
        xi=[[c, s, 0.0] for c, s in zip(COS_ROWS, list(SIN_ROWS) + [0.0])],
        order=8,
    )
    assert classify_singularity(cone) == "unclassified"


def test_family_members_classify_as_cross_caps():
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        for kappa in (0.0, 1.0, 3.0):
            rs = from_deformation(deformation_family(a02, a11, kappa))
            assert classify_singularity(rs) == "cross_cap"


def test_family_ruled_surface_is_exact_off_origin():
    # the ruled presentation is backed by the family, not its truncated jets
    fam = deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))
    ruled_map = from_deformation(fam, 8).as_surface_map()
    built = build_crosscap(fam)
    for u, v in ((0.5, 0.7), (-0.3, -0.6), (0.8, 0.2)):
        assert np.linalg.norm(ruled_map(u, v) - built(u, v)) <= 1e-12
        lr, lb = ruled_map.local_jet(u, v, 2), built.local_jet(u, v, 2)
        assert lr.order == lb.order == 2
        assert lr.max_coeff_diff(lb) <= 1e-12


def test_redeploy_preserves_first_form(rng):
    curves = [
        circle_family(1.0),
        circle_family(3.0),
        SphericalCurve(kappa_poly=(0.0, 1.0)),
        SphericalCurve(kappa_poly=(0.5, -1.0)),
        SphericalCurve(
            kappa_poly=(1.0,),
            point0=(0.0, 0.0, 1.0),
            tangent0=(math.sqrt(0.5), math.sqrt(0.5), 0.0),
        ),
    ]
    from crosscap import first_form

    for _ in range(4):
        fc = FrameCoefficients(
            a=vpoly(rng.uniform(-0.5, 0.5, 3), 7),
            b=vpoly(rng.uniform(-0.5, 0.5, 3), 7),
            c=vpoly(rng.uniform(-0.5, 0.5, 3), 7),
        )
        forms = [
            first_form(redeploy(fc, curve, order=8).as_surface_map()) for curve in curves
        ]
        base = forms[0]
        for other in forms[1:]:
            n = min(base.E.order, other.E.order)
            assert base.E.truncated(n).max_coeff_diff(other.E.truncated(n)) <= 1e-9
            assert base.F.truncated(n).max_coeff_diff(other.F.truncated(n)) <= 1e-9
            assert base.G.truncated(n).max_coeff_diff(other.G.truncated(n)) <= 1e-9


def test_redeploy_identity_on_same_ruling():
    fam0 = deformation_family(2.0, 0.0, 0.0)
    rs0 = normalize(from_deformation(fam0, order=8))
    fc = frame_coefficients(rs0)
    back = redeploy(fc, circle_family(0.0), order=8)
    n = min(rs0.xi.order, back.xi.order)
    assert rs0.xi.truncated(n).max_coeff_diff(back.xi.truncated(n)) <= 1e-10
    n = min(rs0.gamma.order, back.gamma.order)
    assert rs0.gamma.truncated(n).max_coeff_diff(back.gamma.truncated(n)) <= 1e-10


def test_redeploy_jet_ruling_validation():
    rsn = normalize(standard_ruled())
    fc = frame_coefficients(rsn)
    with pytest.raises(ValueError):
        redeploy(fc, Jet3(Jet2.constant(1.0, 6), vpoly([0.0, 1.0], 6), Jet2.zero(6)))
    out = redeploy(fc, unit_circle_jet(8))
    assert is_normalized(out)


def test_redeploy_standard_onto_curved_circle():
    # the standard cross cap and the curvature-1 family member share (a, b, c)
    rs0 = normalize(standard_ruled())
    fc = frame_coefficients(rs0)
    redeployed = redeploy(fc, circle_family(1.0), order=8)
    nf_r = reduce_to_normal_form(redeployed.as_surface_map(), order=3)
    member = build_crosscap(deformation_family(2.0, 0.0, 1.0), order=5)
    nf_m = reduce_to_normal_form(member, order=3)
    dev = max(
        abs(v1 - v2) for (_, _, v1), (_, _, v2) in zip(nf_r.a_table(), nf_m.a_table())
    )
    devb = max(abs(v1 - v2) for (_, v1), (_, v2) in zip(nf_r.b_table(), nf_m.b_table()))
    assert max(dev, devb) <= 1e-8

    # redeploying back onto the flat circle recovers the standard tables
    again = redeploy(fc, circle_family(0.0), order=8)
    nf_s = reduce_to_normal_form(again.as_surface_map(), order=3)
    assert nf_s.a_coeff(0, 2) == pytest.approx(2.0, abs=1e-8)
    for j, k, val in nf_s.a_table():
        if (j, k) != (0, 2):
            assert val == pytest.approx(0.0, abs=1e-8)
    for _, val in nf_s.b_table():
        assert val == pytest.approx(0.0, abs=1e-8)


def test_redeploy_rotated_frame_is_congruent():
    kappa = 1.0
    fam = deformation_family(2.0, 0.0, kappa)
    rs = normalize(from_deformation(fam, order=8))
    fc = frame_coefficients(rs)
    theta = 0.9
    axis = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(theta), -math.sin(theta)],
            [0.0, math.sin(theta), math.cos(theta)],
        ]
    )
    rotated = SphericalCurve(
        kappa_poly=(kappa,),
        point0=tuple(axis @ np.array([1.0, 0.0, 0.0])),
        tangent0=tuple(axis @ np.array([0.0, 1.0, 0.0])),
    )
    nf1 = reduce_to_normal_form(redeploy(fc, circle_family(kappa), order=8).as_surface_map(), order=3)
    nf2 = reduce_to_normal_form(redeploy(fc, rotated, order=8).as_surface_map(), order=3)
    dev = max(
        abs(v1 - v2) for (_, _, v1), (_, _, v2) in zip(nf1.a_table(), nf2.a_table())
    )
    assert dev <= 1e-8


def test_developables_have_zero_gauss_curvature():
    surfaces = [
        from_frame(circle_family(0.0), a=1.0),
        from_frame(circle_family(0.0), a=[0.0, 1.0]),
        from_frame(SphericalCurve(kappa_poly=(0.0, 1.0)), a=1.0),
    ]
    for rs in surfaces:
        f = rs.as_surface_map()
        count = 0
        for u in np.linspace(0.2, 1.0, 10):
            for v in np.linspace(-0.4, 0.4, 5):
                K, _ = curvatures_at(f, float(u), float(v))
                assert abs(K) < 1e-8, (u, v, K)
                count += 1
        assert count == 50


# ----------------------------------------------------------------------
# column evaluation: one directrix Taylor path per surface, read per v column

def _column_surfaces():
    member = build_crosscap(deformation_family(1.3, -0.4, (0.7, -0.5, 0.3)))
    above_order = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [9, 9, 1, 1, 1]]}
    return [member, standard_ruled().as_surface_map(), build_surface(parse_spec(above_order)).surface]


def _reference_point(f, u: float, v: float) -> np.ndarray:
    """f(u, v) point by point, each on a freshly built surface whose
    directrix and frame paths have grown no node yet."""
    rs = f.ruling
    if rs is None:
        return f.jet(u, v)
    if rs.backing is None:
        return rs.gamma(0.0, v) + u * rs.xi(0.0, v)
    fam = rs.backing
    fresh = replace(rs, backing=replace(fam, curve=replace(fam.curve)))
    return fresh.grid([u], [v])[0, 0]


def test_evaluate_grid_matches_pointwise():
    us, vs = [-0.9, 0.0, 0.35, 1.0], [-0.8, -0.1, 0.0, 0.6, 0.95]
    for f in _column_surfaces():
        grid = f.evaluate_grid(us, vs)
        assert grid.shape == (len(us), len(vs), 3)
        assert np.array_equal(grid, np.array([[f(u, v) for v in vs] for u in us]))
        assert np.array_equal(grid, np.array([[_reference_point(f, u, v) for v in vs] for u in us]))


def test_local_jets_match_local_jet():
    us = [-0.7, 0.0, 0.45]
    for f in _column_surfaces():
        for v0, order in ((0.0, 2), (-0.55, 1), (0.8, 3)):
            for column, u0 in zip(f.local_jets(us, v0, order), us):
                single = f.local_jet(u0, v0, order)
                assert column.order == single.order
                for a, b in zip(column.components(), single.components()):
                    assert np.array_equal(a.c, b.c)


def test_quadrature_runs_once_per_column(monkeypatch, tmp_path):
    # the directrix is integrated once per surface: every Taylor node of
    # its path grows once, and later columns inside its range grow none
    grown = []
    block = ruled._directrix_block

    def counted(backing, v0, y):
        grown.append((id(backing), v0))
        return block(backing, v0, y)

    monkeypatch.setattr(ruled, "_directrix_block", counted)
    f = build_crosscap(deformation_family(1.3, -0.4, 0.8))
    g = build_crosscap(deformation_family(1.3, -0.4, (0.7, -0.5, 0.3)))
    for h, name in ((f, "f.obj"), (g, "g.obj")):
        write_obj(h, str(tmp_path / name), 6)
    assert len(set(grown)) == len(grown) > 2
    nodes = len(grown)
    write_obj(f, str(tmp_path / "again.obj"), 6)
    assert verify_isometry(f, g, grid=(5, 4)).passed
    assert len(grown) == nodes
