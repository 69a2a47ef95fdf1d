"""Surface germs: fundamental forms, curvatures, detection, limiting normals."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from crosscap import (
    JetDomainError,
    NotACrossCapError,
    SingularPointError,
    curvatures_at,
    detect_crosscap,
    first_form,
    limiting_normal,
    quadratic_crosscap,
    require_crosscap,
    second_form_at,
    standard_crosscap,
    surface_from_polynomial,
)
from crosscap.deformation import build_crosscap, circle_family, deformation_family, degenerate_quadratic
from crosscap.jets import Jet2, Jet3
from crosscap.ruled import frame_coefficients, from_deformation, from_polynomials, normalize, redeploy
from crosscap import surface
from crosscap.surface import SurfaceMap, canonical_crosscap, cross, det3, dot, norm

from helpers import fd_first_form_at, jet_first_form_at, random_canonical, reference_derivative_jets
from helpers import reference_forms_at, reference_kernels, scramble


def immersion():
    return surface_from_polynomial({(1, 0): [1, 0, 0], (0, 1): [0, 1, 0]}, order=4)


def test_standard_first_form_closed():
    forms = first_form(standard_crosscap())
    # E = 1 + v^2, F = u v, G = u^2 + 4 v^2
    assert forms.E.max_coeff_diff(Jet2.from_terms({(0, 0): 1.0, (0, 2): 1.0}, 5)) == 0.0
    assert forms.F.max_coeff_diff(Jet2.from_terms({(1, 1): 1.0}, 5)) == 0.0
    assert forms.G.max_coeff_diff(Jet2.from_terms({(2, 0): 1.0, (0, 2): 4.0}, 5)) == 0.0


def test_first_form_is_computed_once_per_map():
    f = quadratic_crosscap(0.5, -0.3, 1.2)
    assert first_form(f) is first_form(f)
    g = SurfaceMap(f.jet, ((-2.0, 2.0), (-1.0, 1.0)))
    assert first_form(g) is not first_form(f)
    assert first_form(g).max_coeff_diff(first_form(f)) == 0.0


def test_detect_standard():
    test = detect_crosscap(standard_crosscap())
    assert test.is_crosscap
    assert test.delta == pytest.approx(2.0, abs=1e-14)
    assert test.fv_norm == 0.0


def test_detect_rejects_immersion_and_degenerate():
    t1 = detect_crosscap(immersion())
    assert not t1.is_crosscap and t1.fv_norm == pytest.approx(1.0)
    # f_v = 0 but the bracket vanishes too
    t2 = detect_crosscap(surface_from_polynomial({(1, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 3): [0, 0, 1]}, order=4))
    assert not t2.is_crosscap and abs(t2.delta) <= 1e-12
    with pytest.raises(NotACrossCapError) as err:
        require_crosscap(immersion())
    assert err.value.fv_norm == pytest.approx(1.0)
    require_crosscap(standard_crosscap())


def surfaces_for_fd(rng):
    yield standard_crosscap()
    yield quadratic_crosscap(1.0, 0.5, 2.0)
    yield scramble(quadratic_crosscap(-1.0, 0.3, 1.5), rng)
    yield build_crosscap(deformation_family(2.0, 0.0, 1.0))


def test_first_form_against_finite_differences(rng):
    for f in surfaces_for_fd(rng):
        for _ in range(20):
            u, v = rng.uniform(-0.6, 0.6, size=2)
            jet_vals = jet_first_form_at(f, u, v)
            fd_vals = fd_first_form_at(f, u, v)
            scale = max(1.0, *map(abs, jet_vals))
            for a, b in zip(jet_vals, fd_vals):
                assert abs(a - b) <= 1e-6 * scale


def test_metric_determinant_nonnegative(rng):
    for f in surfaces_for_fd(rng):
        for _ in range(30):
            u, v = rng.uniform(-0.8, 0.8, size=2)
            E, F, G = jet_first_form_at(f, u, v)
            assert E * G - F * F >= -1e-12


def test_standard_gauss_curvature_closed_form():
    f = standard_crosscap()
    for t in (0.4, -0.25, 0.1):
        K, H = curvatures_at(f, 0.0, t)
        assert K == pytest.approx(-1.0 / (4.0 * t * t * (1.0 + t * t) ** 2), rel=1e-10)
        assert H == pytest.approx(0.0, abs=1e-10)
    # along the u axis: flat direction, H = sign(u)/u^2 for the chosen normal
    for t in (0.5, -0.3):
        K, H = curvatures_at(f, t, 0.0)
        assert K == pytest.approx(0.0, abs=1e-12)
        assert H == pytest.approx(math.copysign(1.0, t) / (t * t), rel=1e-10)


def test_second_form_standard():
    f = standard_crosscap()
    for t in (0.3, -0.3):
        L, M, N = second_form_at(f, 0.0, t)
        assert L == pytest.approx(0.0, abs=1e-12)
        assert M == pytest.approx(-math.copysign(1.0, t) / math.sqrt(1.0 + t * t), rel=1e-10)
        assert N == pytest.approx(0.0, abs=1e-12)


def test_stacked_forms_are_the_one_point_forms_bit_for_bit():
    # germs of every order with both bracket signs, a circle and a
    # polynomial-kappa member; points on the rays the asymptotics samples
    rng = np.random.default_rng(2027)
    maps = [build_crosscap(deformation_family(1.3, -0.4, 1.2))]
    maps.append(build_crosscap(deformation_family(1.5, 0.25, (0.5, -0.4, 0.2)), order=8))
    for order in range(2, 13):
        a = {(j, d - j): float(rng.uniform(-1.0, 1.0)) for d in range(2, order + 1) for j in range(d + 1)}
        a[(0, 2)] = float(rng.uniform(0.5, 2.5))
        b = {i: float(rng.uniform(-1.0, 1.0)) for i in range(3, order + 1)}
        base = canonical_crosscap(a, b, order=order)
        maps += [scramble(base, rng), scramble(base, rng, flip=True)]
    assert {f.order for f in maps} >= set(range(2, 13))
    assert {math.copysign(1.0, f._origin.bracket) for f in maps} == {1.0, -1.0}
    half = math.pi / 2.0
    for f in maps:
        points = []
        for theta in (0.0, math.pi / 4.0, half, -half):
            rs = rng.uniform(1e-3, 0.3, 4)
            ray = list(zip((rs * math.cos(theta)).tolist(), (rs * math.sin(theta)).tolist()))
            points += ray
            # one call per ray, as the asymptotics samples it
            forms = np.array(surface._forms(f, *zip(*ray)))
            for i, (u, v) in enumerate(ray):
                assert forms[:, i].tobytes() == np.array(reference_forms_at(f, u, v)).tobytes(), (f.order, u, v)
        # all rays in one shuffled call: several points per column and single points
        points = [points[i] for i in rng.permutation(len(points))]
        forms = np.array(surface._forms(f, *zip(*points)))
        for i, (u, v) in enumerate(points):
            E, F, G, W2, L, M, N = reference = reference_forms_at(f, u, v)
            assert forms[:, i].tobytes() == np.array(reference).tobytes(), (f.order, u, v)
            assert second_form_at(f, u, v) == (float(L), float(M), float(N))
            K, H = (L * N - M * M) / W2, (E * N - 2.0 * F * M + G * L) / (2.0 * W2)
            assert curvatures_at(f, u, v) == (float(K), float(H))


def test_curvatures_raise_at_singular_point():
    cases = [(standard_crosscap(), 0.0, 0.0)]
    # f_u = (1, b, 0) and f_v = (a, a b, 0) at v = 0: E G - F^2 rounds to 3e-18
    # or more, whose root passes 1e-14, while f_u x f_v is exactly zero
    for a, b in ((0.1, 0.3), (0.7, 0.3), (1 / 3, 0.9)):
        f = surface_from_polynomial({(1, 0): [1, b, 0], (0, 1): [a, a * b, 0], (0, 2): [0, 0, 1]}, order=2)
        cases.append((f, 0.2, 0.0))
    for f, u, v in cases:
        with pytest.raises(SingularPointError):
            curvatures_at(f, u, v)
        with pytest.raises(SingularPointError):
            second_form_at(f, u, v)


def test_curvatures_refuse_a_point_that_is_not_finite():
    for f in (degenerate_quadratic(1.3, -0.4), build_crosscap(deformation_family(1.3, -0.4, 1.2))):
        for u, v in ((math.nan, 0.1), (0.2, math.nan), (math.inf, 0.1), (0.2, -math.inf)):
            with pytest.raises(ValueError, match="not finite"):
                curvatures_at(f, u, v)
            with pytest.raises(ValueError, match="not finite"):
                second_form_at(f, u, v)
    # a nan in the table, or an overflow at a regular point, is no singular point
    f = surface_from_polynomial({(1, 0): [1, 0, 0], (0, 1): [0, 1, math.nan]}, order=2)
    g = degenerate_quadratic(1.3, -0.4)
    for h, u, v in ((f, 0.1, 0.2), (g, 1e200, 0.1)):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="derivatives at .* are not finite"):
                curvatures_at(h, u, v)
            with pytest.raises(ValueError, match="derivatives at .* are not finite"):
                second_form_at(h, u, v)


def test_negative_derivative_order_is_a_jet_domain_error():
    ruled = from_polynomials([[0, 0, 0], [0.1, 0.2, 0.3]], [[1, 0, 0], [0, 1, 0.2]])
    for f in (standard_crosscap(), build_crosscap(deformation_family(1.3, -0.4, 1.2)), ruled):
        with pytest.raises(JetDomainError, match="nonnegative"):
            f.local_jet(0.2, 0.1, -1)
        with pytest.raises(JetDomainError, match="nonnegative"):
            f.derivative_jets([0.2, -0.3], 0.1, -1)


# paired points (us[i], vs[i]): repeated v values, v = 0 among others, a
# scalar v for every u, and no points
PAIRED_POINTS = [
    ([-0.8, -0.25, 0.0, 0.4, 0.95, 0.1], [0.35, -0.6, 0.35, 0.0, -0.6, 0.0]),
    ([-0.8, 0.4, 0.95], 0.0),
    ([-0.25, 0.1], -0.6),
    ([], []),
]


def assert_paired_tables_are_columns(f: SurfaceMap, order: int):
    """One paired derivative_jets call against the one-point column call of
    each point, table for table and bit for bit."""
    for us, vs in PAIRED_POINTS:
        tables = f.derivative_jets(us, vs, order)
        points = list(zip(*np.broadcast_arrays(us, vs)))
        assert tables.shape == (len(points),) + f.derivative_jets([], 0.3, order).shape[1:]
        for table, (u, v) in zip(tables, points):
            assert np.array_equal(table, f.derivative_jets([u], v, order)[0]), (order, u, v)


def test_polynomial_derivative_columns_match_pointwise_shifts(rng):
    us = [-0.8, -0.25, 0.0, 0.4, 0.95]
    maps = (
        surface_from_polynomial({(1, 0): [1, 0, 0], (0, 1): [0.5, 1, 0]}, order=1),
        standard_crosscap(),
        SurfaceMap(jet=Jet3(12, rng.normal(size=(3, 13, 13)))),
    )
    for f in maps:
        # orders 0 to 12, past the order of the first two maps
        for order in range(13):
            for v0 in (0.0, -0.6, 0.35):
                tables = f.derivative_jets(us, v0, order)
                assert np.array_equal(tables, reference_derivative_jets(f, us, v0, order))
            assert_paired_tables_are_columns(f, order)
        empty = f.derivative_jets([], 0.3, 4)
        assert empty.shape == (0, 3, min(4, f.order) + 1, min(4, f.order) + 1)
        assert np.array_equal(empty, reference_derivative_jets(f, [], 0.3, 4))
    # an order-1 map has no second derivatives, so no curvature
    assert curvatures_at(maps[0], 0.3, -0.2) == (0.0, 0.0)
    # ruled maps: unbacked, a circle member, a polynomial-curvature member
    # and a redeployed surface
    fam = deformation_family(1.5, 0.25, (0.5, -0.4, 0.2))
    fc = frame_coefficients(normalize(from_deformation(fam, order=8)))
    ruled_maps = (
        from_polynomials([[0, 0, 0], [0.1, 0.2, 0.3], [0.0, -0.4, 0.5]], [[1, 0, 0], [0, 1, 0.2]]),
        build_crosscap(deformation_family(1.3, -0.4, 1.2), order=8),
        build_crosscap(fam, order=8),
        redeploy(fc, circle_family(0.6), order=8),
    )
    for f in ruled_maps:
        # order 9 is past the surfaces' own, where v = 0 takes no shortcut
        for order in (0, 1, 2, 6, 9):
            assert_paired_tables_are_columns(f, order)


def test_limiting_normal_standard():
    f = standard_crosscap()
    n0 = limiting_normal(f, 0.0)
    assert np.allclose(n0.vector, [0.0, 0.0, 1.0], atol=1e-12)
    assert n0.leading_order == 1
    n1 = limiting_normal(f, math.pi / 2.0)
    assert np.allclose(n1.vector, [0.0, -1.0, 0.0], atol=1e-12)
    assert n1.orientation == pytest.approx(2.0)


def test_limiting_normal_unit_length(rng):
    for f in (standard_crosscap(), quadratic_crosscap(1.0, 0.5, 2.0), scramble(standard_crosscap(), rng)):
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            nu = limiting_normal(f, float(theta))
            assert abs(np.linalg.norm(nu.vector) - 1.0) <= 1e-10


def test_limiting_normal_degenerate_direction():
    flat = surface_from_polynomial({(1, 0): [1, 0, 0], (0, 1): [2, 0, 0]}, order=3)
    with pytest.raises(SingularPointError):
        limiting_normal(flat, 0.3)


@pytest.mark.parametrize("order", range(2, 13))
def test_float_kernels_match_numpy(order):
    # each side is within a few eps of the exact value, so they differ by at
    # most 8 eps |a| |b| for dot and for each component of cross, 4 eps |a|
    # for norm and 16 eps |a| |b| |c| for det3 (Hadamard's bound)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(order)
    for flip in (False, True):
        a, b = random_canonical(rng, order)[1:]
        o = scramble(canonical_crosscap(a, b, order=order), rng, flip=flip)._origin
        for x, y, z in itertools.permutations((o.fu, o.fuu, o.fuv, o.fvv), 3):
            ref_dot, ref_cross, ref_norm, ref_det = reference_kernels(x, y, z)
            nx, ny, nz = ref_norm, np.linalg.norm(y), np.linalg.norm(z)
            assert abs(dot(x, y) - ref_dot) <= 8 * eps * nx * ny
            assert np.abs(np.subtract(cross(x, y), ref_cross)).max() <= 8 * eps * nx * ny
            assert abs(norm(x) - ref_norm) <= 4 * eps * nx
            assert abs(det3(x, y, z) - ref_det) <= 16 * eps * nx * ny * nz
        assert o.bracket == det3(o.fu, o.fuv, o.fvv)
        assert (o.bracket < 0) == flip


def test_detect_invariant_under_scrambling(rng):
    base = quadratic_crosscap(0.7, -0.4, 1.8)
    delta0 = detect_crosscap(base).delta
    for _ in range(10):
        g = scramble(base, rng)
        test = detect_crosscap(g)
        assert test.is_crosscap
        assert test.fv_norm <= 1e-12
        # the bracket changes only by positive reparametrization factors
        assert test.delta > 0.0 or delta0 < 0.0


def test_grid_entries_are_one_point_values_bit_for_bit():
    """Horner's rule gives a point the same bits in any grid as alone, for
    Jet3 and Jet2 tables of orders 0 to 20 on grids of 1 to 70 points a side."""
    rng = np.random.default_rng(23)
    for order in range(21):
        c = rng.normal(size=(3, order + 1, order + 1))
        f, jet2 = SurfaceMap(Jet3(order, c)), Jet2(order, c[1])
        us, vs = (rng.uniform(-1.5, 1.5, size=rng.integers(1, 71)).tolist() for _ in "uv")
        grid = f.evaluate_grid(us, vs)
        assert grid.shape == (len(us), len(vs), 3)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert np.array_equal(grid[i, j], f.jet(u, v))
                assert grid[i, j, 1] == jet2(u, v)


def test_local_jet_polynomial_fallback():
    f = standard_crosscap()
    jet = f.local_jet(0.2, -0.3, order=2)
    assert np.allclose(jet.coeff_vector(0, 0), f(0.2, -0.3))
    assert np.allclose(jet.coeff_vector(0, 1), [0.0, 0.2, -0.6])


def test_domain_hint_carried():
    dom = ((-2.0, 2.0), (0.0, 1.0))
    f = surface_from_polynomial({(1, 0): [1, 0, 0]}, order=2, domain=dom)
    assert f.domain_hint == dom
