"""Ruled surfaces: normalization, frame data, redeployment, classification."""
from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np
import pytest

from crosscap import (
    JetDomainError,
    SingularPointError,
    curvatures_at,
    deformation,
    deformation_family,
    jets,
    reduce_to_normal_form,
    ruled,
    second_form_at,
    verify_isometry,
)
from crosscap.deformation import SphericalCurve, build_crosscap, circle_family
from crosscap.jets import Jet2, Jet3
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

from helpers import horner_bound, reference_cross, reference_dot, reference_point, reference_reverted, stack, vpoly

COS_ROWS = [1.0, 0.0, -1 / 2, 0.0, 1 / 24, 0.0, -1 / 720, 0.0, 1 / 40320]
SIN_ROWS = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040]


def unit_circle_jet(order: int = 8) -> Jet3:
    return stack(
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
    assert np.max(np.abs(fc.a)) <= 1e-12
    assert np.max(np.abs(fc.b)) <= 1e-12
    expect = [0.0, 2.0, 0.0, 8.0 / 3.0, 0.0, 34.0 / 15.0]
    for k, val in enumerate(expect):
        assert fc.c[k] == pytest.approx(val, abs=1e-12)


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
    one = np.zeros(len(fc.a))
    one[0] = 1.0
    assert np.max(np.abs(fc.a - one)) <= 1e-12
    assert np.max(np.abs(fc.b)) <= 1e-12
    assert np.max(np.abs(fc.c)) <= 1e-12


def test_reconstruct_directrix_roundtrip():
    rsn = normalize(standard_ruled())
    fc = frame_coefficients(rsn)
    gp = reconstruct_directrix(fc, rsn)
    direct = _rows(rsn.gamma.deriv_v())
    n = min(len(gp), len(direct))
    assert np.max(np.abs(gp[:n] - direct[:n])) <= 1e-10


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


def test_classification_refuses_jets_below_order_3():
    # the cuspidal criteria read nu''(0), a third derivative of the ruling
    for order in (1, 2):
        with pytest.raises(JetDomainError):
            classify_singularity(from_frame(circle_family(0.0), a=1.0, order=order))
    assert classify_singularity(from_frame(circle_family(0.0), a=1.0, order=3)) == "cuspidal_edge"


def test_family_members_classify_as_cross_caps():
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        for kappa in (0.0, 1.0, 3.0):
            rs = from_deformation(deformation_family(a02, a11, kappa))
            assert classify_singularity(rs) == "cross_cap"


def test_family_ruled_surface_is_exact_off_origin():
    # the ruled presentation is backed by the family, not its truncated jets
    fam = deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))
    ruled_map = from_deformation(fam, 8)
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
            a=rng.uniform(-0.5, 0.5, 3),
            b=rng.uniform(-0.5, 0.5, 3),
            c=rng.uniform(-0.5, 0.5, 3),
        )
        forms = [
            first_form(redeploy(fc, curve, order=8)) for curve in curves
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
        redeploy(fc, stack(Jet2.from_terms({(0, 0): 1.0}, 6), vpoly([0.0, 1.0], 6), Jet2.zero(6)))
    out = redeploy(fc, unit_circle_jet(8))
    assert is_normalized(out)


def test_redeploy_standard_onto_curved_circle():
    # the standard cross cap and the curvature-1 family member share (a, b, c)
    rs0 = normalize(standard_ruled())
    fc = frame_coefficients(rs0)
    redeployed = redeploy(fc, circle_family(1.0), order=8)
    nf_r = reduce_to_normal_form(redeployed, order=3)
    member = build_crosscap(deformation_family(2.0, 0.0, 1.0), order=5)
    nf_m = reduce_to_normal_form(member, order=3)
    dev = max(
        abs(v1 - v2) for (_, _, v1), (_, _, v2) in zip(nf_r.a_table(), nf_m.a_table())
    )
    devb = max(abs(v1 - v2) for (_, v1), (_, v2) in zip(nf_r.b_table(), nf_m.b_table()))
    assert max(dev, devb) <= 1e-8

    # redeploying back onto the flat circle recovers the standard tables
    again = redeploy(fc, circle_family(0.0), order=8)
    nf_s = reduce_to_normal_form(again, order=3)
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
    nf1 = reduce_to_normal_form(redeploy(fc, circle_family(kappa), order=8), order=3)
    nf2 = reduce_to_normal_form(redeploy(fc, rotated, order=8), order=3)
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
        count = 0
        for u in np.linspace(0.2, 1.0, 10):
            for v in np.linspace(-0.4, 0.4, 5):
                K, _ = curvatures_at(rs, float(u), float(v))
                assert abs(K) < 1e-8, (u, v, K)
                count += 1
        assert count == 50


# ----------------------------------------------------------------------
# column evaluation: one directrix Taylor path per surface, read per v column

def _column_surfaces():
    member = build_crosscap(deformation_family(1.3, -0.4, (0.7, -0.5, 0.3)))
    above_order = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [9, 9, 1, 1, 1]]}
    return [member, standard_ruled(), build_surface(parse_spec(above_order)).surface]


def _reference_point(f, u: float, v: float) -> np.ndarray:
    """f(u, v) point by point.  A polynomial or unbacked ruled point is
    f(u, v) once it lies within horner_bound of the per-table kernel
    reference_point; a backed point is evaluated on a freshly built surface
    whose directrix and frame paths have grown no node yet."""
    if not isinstance(f, RuledSurface):
        ref, bound = reference_point(f.jet.c, u, v), horner_bound(f.jet.c, u, v)
    elif f.backing is None:
        ref = reference_point(f.gamma.c, 0.0, v) + u * reference_point(f.xi.c, 0.0, v)
        bound = horner_bound(f.gamma.c, 0.0, v) + abs(u) * horner_bound(f.xi.c, 0.0, v)
    else:
        fam = f.backing
        curve = SphericalCurve(fam.curve.kappa_poly, fam.curve.point0, fam.curve.tangent0)
        fresh = RuledSurface(f.gamma, f.xi, fam._replace(curve=curve))
        return fresh.evaluate_grid([u], [v])[0, 0]
    point = f(u, v)
    assert np.all(np.abs(point - ref) <= bound), (u, v, point - ref, bound)
    return point


def test_evaluate_grid_matches_pointwise():
    us, vs = [-0.9, 0.0, 0.35, 1.0], [-0.8, -0.1, 0.0, 0.6, 0.95]
    for f in _column_surfaces():
        grid = f.evaluate_grid(us, vs)
        assert grid.shape == (len(us), len(vs), 3)
        assert np.array_equal(grid, np.array([[f(u, v) for v in vs] for u in us]))
        assert np.array_equal(grid, np.array([[_reference_point(f, u, v) for v in vs] for u in us]))


def test_local_jets_match_local_jet():
    us = [-0.7, 0.0, 0.45]
    circle = build_crosscap(deformation_family(0.9, 0.35, 1.2))
    cases = ((0.0, 2), (0.0, 9), (-0.55, 1), (0.8, 3), (0.37, 2), (-0.37, 1), (0.9, 3), (-0.9, 2))
    for f in _column_surfaces() + [circle]:
        for v0, order in cases:
            for u0 in us:
                jet = f.local_jet(u0, v0, order)
                derivatives = f.derivative_jets([u0], v0, order)[0]
                assert jet.order == derivatives.shape[-1] - 1
                # the local jet is the point f(u0, v0) and derivative_jets' derivatives
                assert np.array_equal(jet.c[:, 0, 0], f(u0, v0))
                table = jet.c.copy()
                table[:, 0, 0] = derivatives[:, 0, 0]
                assert np.array_equal(table, derivatives)
    # derivative readers grow no directrix node on a backed surface
    for kappa in (1.2, (0.7, -0.5, 0.3)):
        f = build_crosscap(deformation_family(0.9, 0.35, kappa))
        g = build_crosscap(deformation_family(0.9, 0.35, 0.0))
        curvatures_at(f, 0.3, -0.6)
        second_form_at(f, -0.2, 0.9)
        assert verify_isometry(f, g).passed
        assert "_path" not in f.__dict__ and "_path" not in g.__dict__


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


def _rows(jet: Jet3) -> np.ndarray:
    return np.array([comp.c[0] for comp in jet.components()]).T


def _integrate_v(p: Jet2) -> Jet2:
    # termwise integral from 0 in v; the order grows by one
    n = p.order + 1
    out = np.zeros((n + 1, n + 1))
    out[:n, 1:] = p.c / np.arange(1, n + 1)
    return Jet2(n, out)


def _family_series_by_jets(fam, v0: float, order: int) -> tuple[Jet3, Jet3]:
    # the member's xi and gamma' as bivariate jet algebra, term by term the
    # formulas of the module docstring
    m = fam.m
    w2 = vpoly([1.0 + m * v0 * v0, 2.0 * m * v0, m], order)
    shat = _integrate_v(w2.recip() * math.sqrt(m)).truncated(order)
    C, _, _ = fam.curve.series(fam.arc_parameter(v0), order)
    chat = stack(*(vpoly(C[:, i], order) for i in range(3))).compose(Jet2.zero(order), shat)
    xi = chat * w2.sqrt()
    xi_d = xi.deriv_v()
    B = xi.truncated(order - 1).cross(xi_d) + xi_d * fam.a11
    return xi, B * vpoly([v0, 1.0], order - 1) * (fam.a02 / m)


def _frame_series_by_jets(fc, backing, v0: float, order: int) -> tuple[Jet3, Jet3]:
    # gamma' = a xi + b xi' + c (xi x xi') as bivariate jet algebra, from the
    # coefficients fc the backing was built from
    xi, xid, nu = (
        stack(*(vpoly(X[:, i], order) for i in range(3)))
        for X in backing.curve.series(v0, order)
    )
    a, b, c = (
        vpoly(p, len(p) - 1).shifted_origin(0.0, v0).truncated(order)
        for p in (fc.a, fc.b, fc.c)
    )
    return xi, (xi * a + xid * b + nu * c).truncated(order - 1)


def test_ruling_series_arrays_match_jet_algebra():
    members = [deformation_family(1.3, -0.4, 0.8), deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))]
    cases = []
    for fam in members:
        cases.append((fam, _family_series_by_jets))
        frame = from_frame(fam.curve, a=[0.4, -0.2, 0.1], b=0.3, c=[0.0, 0.5], order=8)
        by_frame = partial(_frame_series_by_jets, FrameCoefficients([0.4, -0.2, 0.1], [0.3], [0.0, 0.5]))
        cases.append((frame.backing, by_frame))
        fc = frame_coefficients(normalize(from_deformation(fam, order=8)))
        cases.append((redeploy(fc, circle_family(0.6), order=8).backing, partial(_frame_series_by_jets, fc)))
    for backing, by_jets in cases:
        for v0 in (0.0, -0.55, 0.3, 0.9):
            for order in (2, 3, 8, 20):
                xi, gp = backing.ruling_series(v0, order)
                assert xi.shape == (order + 1, 3) and gp.shape == (order, 3)
                for got, jet in zip((xi, gp), by_jets(backing, v0, order)):
                    want = _rows(jet)
                    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_ruling_series_pads_unequal_frame_coefficients_once():
    # the padded (a, b, c) rows are built with the backing; each call must give
    # the bits of padding a, b and c to one length with zeros at that call
    curve = circle_family(0.6)
    fc = FrameCoefficients(np.array([0.4, -0.2, 0.1, 0.05]), np.array([0.3]), np.array([0.0, 0.5]))
    turned = FrameCoefficients(fc.c, fc.a, fc.b)
    backings = [(from_frame(curve, a=fc.a, b=fc.b, c=fc.c, order=8).backing, fc), (redeploy(fc, curve).backing, fc)]
    backings.append((redeploy(turned, curve).backing, turned))
    for backing, (a, b, c) in backings:
        assert backing.abc.shape == (max(len(a), len(b), len(c)), 3)
        abc = np.array(list(itertools.zip_longest(a, b, c, fillvalue=0.0)))
        for v0 in (0.0, -0.55, np.array([0.3, 0.9])):
            for order in (1, 2, 8):
                xi, gp = backing.ruling_series(v0, order)
                frame = np.stack(curve.series(v0, order))
                want = ruled._directrix_derivative(frame, jets.series_shift(abc, v0), order - 1)
                assert np.array_equal(xi, frame[0]) and np.array_equal(gp, want), (v0, order)


def test_ruling_series_of_an_array_stacks_the_columns():
    # curvature of degree 0, 2 and 7, the last above orders 1, 2 and 6
    members = [deformation_family(1.3, -0.4, 0.8), deformation_family(1.3, -0.4, (0.7, -0.5, 0.3)),
               deformation_family(2.4, -0.9, (0.3, -0.6, 0.5, 0.8, -0.4, 0.2, -0.7, 0.35))]
    backings = list(members)
    for fam in members:
        backings.append(from_frame(fam.curve, a=[0.4, -0.2, 0.1], b=0.3, c=[0.0, 0.5], order=8).backing)
        fc = frame_coefficients(normalize(from_deformation(fam, order=8)))
        backings.append(redeploy(fc, circle_family(0.6), order=8).backing)
    v0s = [-0.55, 0.0, 0.3, 0.9, 0.3]
    for backing in backings:
        for order in (1, 2, 6, 20):
            columns = backing.ruling_series(np.array(v0s), order)
            for got, want in zip(columns, zip(*(backing.ruling_series(v0, order) for v0 in v0s))):
                assert got.shape == (len(v0s),) + want[0].shape
                assert np.array_equal(got, np.stack(want)), (backing, order)


def test_directrix_path_grows_without_jet_algebra(monkeypatch, tmp_path):
    # growing a backed member's Taylor path, a grid of local jets and the
    # ruled chain are series arithmetic in v alone: no bivariate product,
    # square root, reciprocal or composition
    frame = from_frame(SphericalCurve(kappa_poly=(0.5, -1.0)), a=[0.4, -0.2], b=0.3, c=0.1)
    surfaces = [
        build_crosscap(deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))),
        frame,
    ]
    pair = [build_crosscap(deformation_family(1.3, -0.4, k)) for k in (0.8, (0.7, -0.5, 0.3))]
    # the coefficient-wise half of verify_isometry multiplies the origin
    # jets by design; only its grid, read from local jets, is counted
    forms = {id(f): deformation.first_form(f) for f in pair}
    monkeypatch.setattr(deformation, "first_form", lambda f: forms[id(f)])
    member = from_deformation(deformation_family(1.3, -0.4, (0.7, -0.5, 0.3)), order=8)
    developable = from_frame(SphericalCurve(kappa_poly=(0.5, -1.0)), a=[1.0, 0.3])
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((Jet2, "__mul__"), (Jet2, "sqrt"), (Jet2, "recip"), (jets, "_compose")):
        counting(owner, name)
    for i, f in enumerate(surfaces):
        write_obj(f, str(tmp_path / f"{i}.obj"), 16)
        assert len(f._path._nodes[1][0]) > 2
    assert verify_isometry(*pair, grid=(6, 5)).passed
    moved = redeploy(frame_coefficients(normalize(member)), circle_family(0.6))
    assert classify_singularity(moved) == "cross_cap"
    assert classify_singularity(developable) == "cuspidal_edge"
    assert calls == []


# ----------------------------------------------------------------------
# the ruled chain on arrays against the same chain in bivariate jet algebra

def _invert_by_jets(sigma: Jet2) -> Jet2:
    # n fixed-point steps, each a full composition
    n = sigma.order
    s1 = sigma.coeff(0, 1)
    v = Jet2.variable("v", n)
    tail = sigma - v * s1
    w = v * (1.0 / s1)
    for _ in range(n):
        w = (v - tail.compose(Jet2.zero(n), w)) * (1.0 / s1)
    return w


def _normalize_by_jets(rs: RuledSurface) -> tuple[Jet3, Jet3]:
    # u rescaled by 1 / |xi| through sqrt and recip, v by the arc length
    xi1 = rs.xi * rs.xi.dot(rs.xi).sqrt().recip()
    d = xi1.deriv_v()
    w = _invert_by_jets(_integrate_v(d.dot(d).sqrt()))
    zero = Jet2.zero(w.order)
    return rs.gamma.compose(zero, w), xi1.compose(zero, w)


def _frame_coefficients_by_jets(gamma: Jet3, xi: Jet3) -> tuple[Jet2, Jet2, Jet2]:
    xid = xi.deriv_v()
    xit = xi.truncated(xid.order)
    gp = gamma.deriv_v()
    return gp.dot(xit), gp.dot(xid), gp.dot(xit.cross(xid))


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_ruled_chain_arrays_match_jet_algebra():
    tilted = from_polynomials([[0, 0, 0], [0.5, 0, 0.2]], [[1, 0, 0], [0, 1, 0.3], [0, 0, 0.5]])
    surfaces = [standard_ruled(), tilted]
    for order in (6, 8, 10, 12):
        for kappa in (0.7, (0.7, -0.5, 0.3)):
            surfaces.append(from_deformation(deformation_family(1.3, -0.4, kappa), order=order))
    for rs in surfaces:
        rsn = normalize(rs)
        gamma, xi = _normalize_by_jets(rs)
        assert _close(_rows(rsn.gamma), _rows(gamma)) and _close(_rows(rsn.xi), _rows(xi))
        fc = frame_coefficients(rsn)
        for got, want in zip((fc.a, fc.b, fc.c), _frame_coefficients_by_jets(gamma, xi)):
            assert _close(got, want.c[0])


def test_reverted_series_inverts(rng):
    for n in (1, 6, 12):
        sigma = rng.uniform(-1.0, 1.0, n + 1)
        sigma[:2] = 0.0, 1.3
        w = ruled._reverted(sigma)
        t = np.zeros(n + 1)
        t[1] = 1.0
        assert np.max(np.abs(jets.series_compose(sigma, w, n) - t)) <= 1e-13
        assert _close(w, _invert_by_jets(vpoly(sigma, n)).c[0])


def test_reverted_matches_the_fixed_point_reference(rng):
    # the grown power table against the former n compositions, to round-off
    # relative to the largest |w_j| up to each coefficient (worst seen 3.3e-14
    # in 4,000 draws)
    for n in range(1, 21):
        for _ in range(20):
            sigma = rng.uniform(-1.0, 1.0, n + 1)
            sigma[:2] = 0.0, rng.uniform(0.5, 2.0)
            got, want = ruled._reverted(sigma), reference_reverted(sigma)
            scale = np.maximum.accumulate(np.abs(want))
            assert got.shape == want.shape and got[0] == 0.0
            assert np.all(np.abs(got - want)[1:] <= 2e-13 * scale[1:]), (n, sigma)


def test_vector_series_kernels_match_per_component_products(rng):
    # _dot (single and stacked) and series_cross are bit for bit the sums of
    # per-component series_product calls; so is frame_coefficients
    for n in range(0, 21):
        x, y, z = rng.normal(size=(3, n + 3, 3))
        assert np.array_equal(ruled._dot(x, y, n), reference_dot(x, y, n))
        stacked = ruled._dot(x, np.stack([y, z]), n)
        assert np.array_equal(stacked, np.stack([reference_dot(x, y, n), reference_dot(x, z, n)]))
        assert np.array_equal(jets.series_cross(x, y, n), reference_cross(x, y, n))
    for order in (4, 8, 12, 20):
        for kappa in (0.7, (0.7, -0.5, 0.3)):
            rsn = normalize(from_deformation(deformation_family(1.3, -0.4, kappa), order=order))
            xi, gamma = _rows(rsn.xi), _rows(rsn.gamma)
            xid = jets.series_derivative(xi)
            n = len(xid) - 1
            frame = (xi[: n + 1], xid, reference_cross(xi[: n + 1], xid, n))
            gp = jets.series_derivative(gamma)
            fc = frame_coefficients(rsn)
            for got, X in zip((fc.a, fc.b, fc.c), frame):
                assert np.array_equal(got, reference_dot(gp, X, min(len(gp), len(X)) - 1))


def test_ruled_kernels_make_one_product_each(monkeypatch, rng):
    real, calls = jets._product_matrix, []

    def counted(b, n):
        calls.append(b.shape)
        return real(b, n)

    def refused(*args):
        raise AssertionError("series_compose called")

    monkeypatch.setattr(jets, "_product_matrix", counted)
    sigma = np.array([0.0, 1.2, *rng.uniform(-1.0, 1.0, 11)])
    with monkeypatch.context() as m:
        m.setattr(ruled, "series_compose", refused)
        ruled._reverted(sigma)
    assert calls == []
    x, y = rng.normal(size=(2, 9, 3))
    ruled._dot(x, y, 8)
    ruled._dot(x, np.stack([x, y, y]), 8)
    jets.series_cross(x, y, 8)
    assert len(calls) == 3
    rsn = normalize(from_deformation(deformation_family(1.3, -0.4, 0.7), order=10))
    calls.clear()
    frame_coefficients(rsn)
    # two for is_normalized, one for xi x xi', one projection onto the stacked frame
    assert len(calls) == 4


def _ruled_tables(rs: RuledSurface) -> np.ndarray:
    return (rs.gamma + rs.xi * Jet2.variable("u", rs.order)).c


def test_ruled_jet_writes_the_ruled_table():
    fam = deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))
    rsn = normalize(from_deformation(fam, order=8))
    fc = frame_coefficients(rsn)
    tilted = from_polynomials([[0, 0, 0], [0.5, -0.25, 0.2], [0.1, 0, -0.3]], [[1, 0, 0], [0, 1, 0.3]], order=8)
    surfaces = [
        standard_ruled(),
        tilted,
        rsn,
        from_deformation(fam, order=8),
        redeploy(fc, circle_family(0.6)),
        redeploy(fc, unit_circle_jet(6)),
        RuledSurface(gamma=tilted.gamma.truncated(5), xi=tilted.xi),
        RuledSurface(gamma=rsn.gamma, xi=rsn.xi.truncated(4), backing=None),
    ]
    for rs in surfaces:
        want = _ruled_tables(rs)
        assert rs.jet.order == rs.order
        assert rs.jet.c.shape == want.shape and rs.jet.c.tobytes() == want.tobytes()


def test_classify_singularity_caches_the_table_and_origin_on_the_surface():
    tangent = from_polynomials([[0, 0, 0], [1, 0, 0], [0, 0.5, 0], [0, 0, 1 / 6]], [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]])
    for rs, want in ((standard_ruled(), "cross_cap"), (tangent, "cuspidal_edge")):
        assert classify_singularity(rs) == want
        assert {"jet", "_origin"} <= set(vars(rs))
        jet, origin = rs.jet, rs._origin
        assert classify_singularity(rs) == want
        assert rs.jet is jet and rs._origin is origin


def test_ruled_constructors_build_no_table_until_it_is_read():
    fam = deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))
    fc = frame_coefficients(normalize(from_deformation(fam, order=8)))
    surfaces = [
        normalize(from_deformation(fam, order=8)),
        redeploy(fc, circle_family(0.6)),
        redeploy(fc, unit_circle_jet(6)),
        from_frame(SphericalCurve(kappa_poly=(0.5, -1.0)), a=[0.4, -0.2], b=0.3, c=0.1),
    ]
    for rs in surfaces:
        assert rs.order >= 2 and "jet" not in vars(rs)
        assert rs.jet.order == rs.order and "jet" in vars(rs)


def test_redeploy_onto_a_lower_order_jet_ruling_caps_the_order():
    fam = deformation_family(1.3, -0.4, (0.7, -0.5, 0.3))
    fc = frame_coefficients(normalize(from_deformation(fam, order=8)))
    assert len(fc.a) == 8
    full = redeploy(fc, unit_circle_jet(8))
    for order in (2, 4, 6):
        low = redeploy(fc, unit_circle_jet(order))
        # the ruling supports gamma to its own order, not to len(fc.a)
        assert low.order == low.gamma.order == low.xi.order == order
        assert np.max(np.abs(_rows(low.gamma) - _rows(full.gamma)[: order + 1])) <= 1e-15
    assert redeploy(fc, unit_circle_jet(8), order=12).order == 8


def test_order_zero_ruling_is_refused():
    rs = from_polynomials([[0, 0, 0]], [[1, 0, 0]], order=0)
    for call in (is_normalized, normalize, frame_coefficients):
        with pytest.raises(JetDomainError, match="order 0"):
            call(rs)
    with pytest.raises(ValueError):
        normalize(rs)
    with pytest.raises(JetDomainError, match="order 0"):
        redeploy(FrameCoefficients(np.zeros(1), np.zeros(1), np.zeros(1)), rs.xi)
