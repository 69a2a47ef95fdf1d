"""Acceptance suite: one test per numbered criterion.

Each test computes its own quantities, asserts the stated tolerance and
reports a one-line verdict through the ``acceptance`` fixture; criterion
10 (full suite green within the runtime budget) is appended by the
terminal hook in conftest.
"""
from __future__ import annotations

import functools
import math
import time

import numpy as np

from crosscap import (
    build_crosscap,
    deformation_family,
    degenerate_first_form,
    degenerate_quadratic,
    extrinsic_invariants,
    first_form,
    focal_conic,
    intrinsic_from_map,
    intrinsic_from_metric,
    isometry_combos,
    quadratic_crosscap,
    reduce_to_normal_form,
    route_discrepancy,
    standard_crosscap,
    umbilic_gap,
    verify_convergence,
)
from crosscap.deformation import SphericalCurve, circle_family
from crosscap.ruled import (
    FrameCoefficients,
    classify_singularity,
    from_frame,
    from_polynomials,
    redeploy,
)
from crosscap.surface import curvatures_at

from helpers import random_canonical, scramble, table_dev

FAMILY_KAPPAS = (0.0, 1.0, 3.0)


@functools.lru_cache(maxsize=None)
def member_normal_form(a02: float, a11: float, kappa: float):
    fam = deformation_family(a02, a11, kappa)
    return reduce_to_normal_form(build_crosscap(fam, order=5), order=3)


def test_criterion_1_family_isometry(acceptance):
    t0 = time.perf_counter()
    closed = degenerate_first_form(2.0, 0.0, order=7)
    dev_jet = 0.0
    dev_grid = 0.0
    points = 0
    for kappa in FAMILY_KAPPAS:
        f = build_crosscap(deformation_family(2.0, 0.0, kappa), order=7)
        forms = first_form(f)
        n = forms.E.order
        dev_jet = max(
            dev_jet,
            forms.E.max_coeff_diff(closed.E.truncated(n)),
            forms.F.max_coeff_diff(closed.F.truncated(n)),
            forms.G.max_coeff_diff(closed.G.truncated(n)),
        )
        for v in np.linspace(-0.9, 0.9, 10):
            jet = f.local_jet(0.0, float(v), order=2)
            xi = jet.coeff_vector(1, 0)
            gp = jet.coeff_vector(0, 1)
            xip = jet.coeff_vector(1, 1)
            for u in np.linspace(-0.9, 0.9, 10):
                fv = gp + u * xip
                dev_grid = max(
                    dev_grid,
                    abs(xi @ xi - (1.0 + v * v)),
                    abs(xi @ fv - u * v),
                    abs(fv @ fv - (u * u + 4.0 * v * v)),
                )
                points += 1
    elapsed = time.perf_counter() - t0
    ok = dev_jet <= 1e-9 and dev_grid <= 1e-6 and elapsed < 1.0
    acceptance(
        1,
        ok,
        f"family (E,F,G) jet dev {dev_jet:.2e} (tol 1e-9), "
        f"grid dev {dev_grid:.2e} at {points} points (tol 1e-6), {elapsed:.2f}s < 1s",
    )


def test_criterion_2_intrinsic_invariance(acceptance, rng):
    triples = []
    for kappa in FAMILY_KAPPAS:
        f = build_crosscap(deformation_family(2.0, 0.0, kappa), order=4)
        tm = intrinsic_from_map(f)
        tg = intrinsic_from_metric(first_form(f))
        triples.extend([tm, tg])
    target_dev = max(
        max(abs(t.a02 - 2.0), abs(t.a20), abs(t.a11)) for t in triples
    )
    cross_dev = max(route_discrepancy(a, b) for a in triples for b in triples)

    random_dev = 0.0
    for _ in range(25):
        f = quadratic_crosscap(
            float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.5, 2.5)),
        )
        random_dev = max(
            random_dev,
            route_discrepancy(intrinsic_from_map(f), intrinsic_from_metric(first_form(f))),
        )
    scramble_dev = 0.0
    for _ in range(10):
        f, _, _ = random_canonical(rng, order=4)
        g = scramble(f, rng)
        scramble_dev = max(
            scramble_dev,
            route_discrepancy(intrinsic_from_map(g), intrinsic_from_metric(first_form(g))),
        )
    ok = target_dev < 1e-8 and cross_dev < 1e-8 and max(random_dev, scramble_dev) <= 1e-8
    acceptance(
        2,
        ok,
        f"family triples at (2,0,0) within {target_dev:.2e}, cross-member {cross_dev:.2e}, "
        f"25 random quadratics {random_dev:.2e}, 10 scrambled {scramble_dev:.2e} (tol 1e-8)",
    )


def test_criterion_3_extrinsic_variation(acceptance):
    dev = 0.0
    min_sep = math.inf
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        b3s = []
        for kappa in (0.0, 0.5, 1.0, 3.0):
            nf = member_normal_form(a02, a11, kappa)
            a12, a03, b3 = extrinsic_invariants(kappa, a02, a11)
            dev = max(
                dev,
                abs(nf.a_coeff(1, 2) - a12),
                abs(nf.a_coeff(0, 3) - a03),
                abs(nf.b_coeff(3) - b3),
            )
            b3s.append(nf.b_coeff(3))
        for i in range(len(b3s)):
            for j in range(i + 1, len(b3s)):
                min_sep = min(min_sep, abs(b3s[i] - b3s[j]))
    ok = dev <= 1e-7 and min_sep > 0.1
    acceptance(
        3,
        ok,
        f"(a12, a03, b3) closed-form dev {dev:.2e} (tol 1e-7), "
        f"b3 pairwise separation {min_sep:.3f} > 0.1",
    )


def test_criterion_4_combination_invariance(acceptance):
    spread = 0.0
    size = 0.0
    for a02, a11 in ((2.0, 0.0), (1.0, 1.0)):
        base_nf = reduce_to_normal_form(degenerate_quadratic(a02, a11, order=5), order=3)
        base = np.array(tuple(isometry_combos(base_nf)))
        quads = [base]
        for kappa in FAMILY_KAPPAS:
            quads.append(np.array(tuple(isometry_combos(member_normal_form(a02, a11, kappa)))))
        for q in quads:
            spread = max(spread, float(np.max(np.abs(q - base))))
            size = max(size, float(np.max(np.abs(q))))
    ok = spread < 1e-7 and size <= 1e-8
    acceptance(
        4,
        ok,
        f"combo quadruples agree across members within {spread:.2e} (tol 1e-7); "
        f"degenerate family combos all |c| <= {size:.2e} (tol 1e-8)",
    )


def test_criterion_5_normal_form_roundtrip(acceptance, rng):
    dev = 0.0
    residual = 0.0
    for _ in range(20):
        f, a, b = random_canonical(rng, order=4)
        nf = reduce_to_normal_form(scramble(f, rng), order=4)
        dev = max(dev, table_dev(nf, a, b))
        residual = max(residual, nf.residual)
    ok = dev <= 1e-7 and residual < 1e-9
    acceptance(
        5,
        ok,
        f"20 scrambled cross caps: table recovery dev {dev:.2e} (tol 1e-7), "
        f"max residual {residual:.2e} (tol 1e-9)",
    )


def test_criterion_6_metric_identities(acceptance, rng):
    surfaces = [
        standard_crosscap(),
        quadratic_crosscap(1.0, 0.0, 1.0),
        quadratic_crosscap(-1.0, 0.0, 1.0),
        quadratic_crosscap(0.8, -0.6, 1.7),
    ]
    f, _, _ = random_canonical(rng, order=4)
    surfaces += [f, scramble(f, rng)]
    for kappa in (0.0, 1.0):
        surfaces.append(build_crosscap(deformation_family(2.0, 0.0, kappa), order=4))
    hess_dev = 0.0
    a02_dev = 0.0
    for g in surfaces:
        t = intrinsic_from_metric(first_form(g))
        hess_dev = max(
            hess_dev,
            abs(t.delta_sq - t.delta_sq_hessian) / max(1.0, abs(t.delta_sq)),
        )
        a02_dev = max(
            a02_dev,
            abs(t.a02_from_height_hessian - t.a02) / max(1.0, t.a02),
        )
    ok = hess_dev <= 1e-9 and a02_dev <= 1e-9
    acceptance(
        6,
        ok,
        f"bracket^2 vs h-Hessian dev {hess_dev:.2e}, a02 identity with the (h_vv/2)^(3/2) "
        f"normalization dev {a02_dev:.2e} on {len(surfaces)} surfaces (tol 1e-9)",
    )


def test_criterion_7_asymptotics(acceptance):
    f = standard_crosscap()
    side = verify_convergence(f, math.pi / 2.0)
    axis = verify_convergence(f, 0.0)
    gap = umbilic_gap(f, 0.0, radii=(1e-3,))
    gap_err = abs(gap.r4gap[0] - 1.0)
    ok = (
        side.passed
        and side.k_order >= 0.9
        and abs(side.k_limit + 0.25) <= 1e-12
        and axis.passed
        and max(abs(val - 1.0) for val in axis.r2h) <= 1e-12
        and gap_err <= 1e-3
    )
    acceptance(
        7,
        ok,
        f"r2K(r, pi/2) -> -0.25 with slope {side.k_order:.2f} >= 0.9; "
        f"r2H(r, 0) = 1 exactly; r4(H^2-K)(1e-3, 0) off by {gap_err:.2e} (tol 1e-3)",
    )


def test_criterion_8_ruled_classification(acceptance, rng):
    std_ruled = from_polynomials(
        gamma=[[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        xi=[[1, 0, 0], [0, 1, 0]],
        order=8,
    )
    got = (
        classify_singularity(std_ruled),
        classify_singularity(from_frame(circle_family(0.0), a=1.0)),
        classify_singularity(from_frame(circle_family(0.0), a=[0.0, 1.0])),
        classify_singularity(from_frame(SphericalCurve(kappa_poly=(0.0, 1.0)), a=1.0)),
    )
    want = ("cross_cap", "cuspidal_edge", "swallowtail", "cuspidal_cross_cap")

    curves = (circle_family(1.0), SphericalCurve(kappa_poly=(0.0, 1.0)))
    metric_dev = 0.0
    for _ in range(10):
        fc = FrameCoefficients(
            a=rng.uniform(-0.5, 0.5, 3),
            b=rng.uniform(-0.5, 0.5, 3),
            c=rng.uniform(-0.5, 0.5, 3),
        )
        forms = [
            first_form(redeploy(fc, curve, order=8)) for curve in curves
        ]
        n = min(forms[0].E.order, forms[1].E.order)
        metric_dev = max(
            metric_dev,
            forms[0].E.truncated(n).max_coeff_diff(forms[1].E.truncated(n)),
            forms[0].F.truncated(n).max_coeff_diff(forms[1].F.truncated(n)),
            forms[0].G.truncated(n).max_coeff_diff(forms[1].G.truncated(n)),
        )

    k_max = 0.0
    for rs in (
        from_frame(circle_family(0.0), a=1.0),
        from_frame(SphericalCurve(kappa_poly=(0.0, 1.0)), a=1.0),
    ):
        for u in np.linspace(0.2, 1.0, 10):
            for v in np.linspace(-0.4, 0.4, 5):
                K, _ = curvatures_at(rs, float(u), float(v))
                k_max = max(k_max, abs(K))
    ok = got == want and metric_dev <= 1e-9 and k_max < 1e-8
    acceptance(
        8,
        ok,
        f"exemplars {got}; 10 redeployments metric dev {metric_dev:.2e} (tol 1e-9); "
        f"developable |K| max {k_max:.2e} over 100 points (tol 1e-8)",
    )


def test_criterion_9_focal_conic(acceptance):
    cases = [
        (quadratic_crosscap(1.0, 0.0, 1.0), "hyperbola", (1.0, 0.0, -1.0, 1.0)),
        (quadratic_crosscap(-1.0, 0.0, 1.0), "ellipse", (1.0, 0.0, 1.0, 1.0)),
        (quadratic_crosscap(1.0, 0.5, 2.0), "hyperbola", (1.0, 1.0, -1.75, 2.0)),
    ]
    dev = 0.0
    kinds_ok = True
    for f, kind, coeffs in cases:
        conic = focal_conic(intrinsic_from_map(f))
        kinds_ok = kinds_ok and conic.kind == kind
        dev = max(
            dev,
            abs(conic.yy - coeffs[0]),
            abs(conic.yz - coeffs[1]),
            abs(conic.zz - coeffs[2]),
            abs(conic.z - coeffs[3]),
        )
    ok = kinds_ok and dev <= 1e-12
    acceptance(
        9,
        ok,
        f"kinds by sign of a20 correct; conic coefficient dev {dev:.2e} (tol 1e-12)",
    )
