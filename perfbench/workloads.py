"""The three benchmark workloads: seeded inputs, operations and their checks.

A workload builds one round at a time.  A round is a fixed list of
operations with inputs drawn from ``default_rng([seed, round])``, so the
same seed gives the same inputs, every round of every run attempts the
same operations, and no two rounds share a spec.  Each operation drives
crosscap through ``cli.main(argv)`` on spec files written to the work
directory, or through public library calls where the CLI has no verb, and
each is checked against ``oracle`` afterwards, outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from crosscap import cli, deformation, ruled, specio

import oracle


@dataclass
class Op:
    kind: str  # operation class, e.g. "analyze.o12"; groups the trace summary
    run: Callable[[], Any]  # the timed call into crosscap
    check: Callable[[Any], str | None]  # None when the output is right, else why not
    items: int = 0  # output units counted by items_per_s
    latency: str | None = None  # "light" or "heavy": feeds light_ms / heavy_ms
    per: int = 1  # units one latency sample is divided by (members of a sweep)
    fault: str | None = None  # tracked program fault this operation hits today


def call_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_json(path: str, doc: Any) -> str:
    return write_text(path, json.dumps(doc))


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rejection(want: tuple[int, ...]) -> Callable[[int], str | None]:
    def check(rc: int) -> str | None:
        return None if rc in want else f"exit {rc}, want one of {want}"

    return check


def finite_floats(obj: Any) -> bool:
    """No null and no non-finite float anywhere in a decoded report."""
    if obj is None:
        return False
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(finite_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite_floats(v) for v in obj)
    return True


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ----------------------------------------------------------------------
# germ_reports: analyze --json on scrambled canonical cross caps

GERM_ORDERS = (6, 6, 6, 6, 6, 6, 8, 8, 10, 12, 12)
# monomial-unit tolerance of the reduced tables; the observed error is
# about 1e-13 at order 12, a wrong reduction is off by O(1)
TABLE_TOL = 1e-9
TRIPLE_TOL = 1e-9

# Faults in crosscap kept as failing operations until they are mended.
# Inputs are fixed, so every round fails them the same way.
NAN_SPEC = '{"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0, NaN]]}'
HUGE_SPEC = {"polynomial": [[1, 0, 1e307, 0, 0], [1, 1, 0, 1e307, 0], [0, 2, 0, 0, 1e307]]}

# Domain changes: MILD scrambles every seeded germ.  HALVED, with P_u(0)
# and Q_v(0) near 1/2, is just as admissible, but reduce_to_normal_form
# compares its residuals with an absolute tolerance, and the reduction
# scales degree-d coefficients by about 2^d; on the fixed order-12 germ
# below it exits 2, so that germ is tracked as a fault.
MILD = ((0.8, 1.25), 0.2)
HALVED = ((0.45, 0.55), 0.3)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def scrambled_germ(rng: np.random.Generator, n: int, flip: bool, scramble=MILD):
    """Polynomial spec of a random canonical cross cap after an admissible
    domain change, an optional (u,v) -> (-u,-v), a rotation and a
    translation; returns (spec, a table, b table).

    ``scramble`` is ((lo, hi) of P_u(0) and Q_v(0), half-width of the
    degree-2 and degree-3 terms of P and Q)."""
    (lo, hi), spread = scramble
    a = {(0, 2): rng.uniform(0.5, 2.5), (1, 1): rng.uniform(-1.0, 1.0)}
    a[(2, 0)] = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
    for d in range(3, n + 1):
        for j in range(d + 1):
            a[(j, d - j)] = rng.uniform(-0.5, 0.5) * math.factorial(j) * math.factorial(d - j)
    b = {i: rng.uniform(-0.5, 0.5) * math.factorial(i) for i in range(3, n + 1)}

    canon = [np.zeros((n + 1, n + 1)) for _ in range(3)]
    canon[0][1, 0] = 1.0
    canon[1][1, 1] = 1.0
    for i, bi in b.items():
        canon[1][0, i] = bi / math.factorial(i)
    for (j, k), ajk in a.items():
        canon[2][j, k] = ajk / (math.factorial(j) * math.factorial(k))

    # admissible: P_v(0) = 0, P_u(0) > 0, Q_v(0) > 0, cubic at most
    p = np.zeros((n + 1, n + 1))
    q = np.zeros((n + 1, n + 1))
    p[1, 0] = rng.uniform(lo, hi)
    q[0, 1] = rng.uniform(lo, hi)
    q[1, 0] = rng.uniform(-0.3, 0.3)
    for d in (2, 3):
        for j in range(d + 1):
            p[j, d - j] = rng.uniform(-spread, spread)
            q[j, d - j] = rng.uniform(-spread, spread)
    comps = oracle.compose3(canon, p, q, n)
    if flip:
        idx = np.arange(n + 1)
        sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
        comps = [c * sign for c in comps]
    rot = random_rotation(rng)
    stack = np.einsum("ij,jkl->ikl", rot, np.array(comps))
    stack[:, 0, 0] += rng.uniform(-1.0, 1.0, 3)
    rows = [
        [j, k, *map(float, stack[:, j, k])]
        for j in range(n + 1)
        for k in range(n + 1 - j)
        if np.any(stack[:, j, k] != 0.0)
    ]
    return {"polynomial": rows, "order": n}, a, b


def check_germ(out_path: str, n: int, flip: bool, a: dict, b: dict, tol: float = TABLE_TOL):
    """``tol`` is in monomial units; a domain change that shrinks u and v
    by a factor c magnifies rounding by up to c^-n, and a caller may scale
    ``tol`` by that."""

    def check(rc: int) -> str | None:
        if rc != 0:
            return f"analyze exit {rc}"
        rep = read_json(out_path)
        if not finite_floats(rep):
            return "non-finite field in report"
        nf = rep["normal_form"]
        if nf["order"] != n or nf["flipped"] != flip:
            return "order or flip mismatch"
        seen_a = {(j, k): val for j, k, val in nf["a"]}
        if set(seen_a) != set(a):
            return "a table has the wrong monomials"
        for (j, k), want in a.items():
            if abs(seen_a[(j, k)] - want) > tol * math.factorial(j) * math.factorial(k):
                return f"a[{j},{k}] = {seen_a[(j, k)]!r}, want {want!r}"
        seen_b = dict(nf["b"])
        if set(seen_b) != set(b):
            return "b table has the wrong indices"
        for i, want in b.items():
            if abs(seen_b[i] - want) > tol * math.factorial(i):
                return f"b[{i}] = {seen_b[i]!r}, want {want!r}"
        for route in ("map_route", "metric_route"):
            t = rep["intrinsic"][route]
            for key, jk in (("a20", (2, 0)), ("a11", (1, 1)), ("a02", (0, 2))):
                if not close(t[key], a[jk], TRIPLE_TOL):
                    return f"{route}.{key} = {t[key]!r}, want {a[jk]!r}"
        want_sign = "elliptic" if a[(2, 0)] > 0 else "hyperbolic"
        if rep["classification"]["sign_class"] != want_sign:
            return "wrong sign class"
        return None

    return check


def germ_round(rng: np.random.Generator, work: str, tag: str) -> list[Op]:
    ops = []
    for i, n in enumerate(GERM_ORDERS):
        flip = i % 2 == 1
        spec, a, b = scrambled_germ(rng, n, flip)
        path = write_json(os.path.join(work, f"{tag}-germ{i}.json"), spec)
        out = os.path.join(work, f"{tag}-germ{i}.out.json")
        latency = {6: "light", 12: "heavy"}.get(n)
        ops.append(
            Op(
                kind=f"analyze.o{n}",
                run=lambda p=path, o=out: call_cli(["analyze", p, "--json", "--out", o]),
                check=check_germ(out, n, flip, a, b),
                items=1,
                latency=latency,
            )
        )

    # an immersion: f_v(0) != 0, so no cross cap (exit 2)
    basis = random_rotation(rng)
    rows = [[1, 0, *basis[:, 0]], [0, 1, *basis[:, 1]]]
    rows += [[j, 2 - j, *rng.uniform(-1.0, 1.0, 3)] for j in range(3)]
    path = write_json(os.path.join(work, f"{tag}-immersion.json"), {"polynomial": rows})
    ops.append(Op("reject.immersion", lambda p=path: call_cli(["analyze", p, "--json"]), rejection((2,))))

    # malformed JSON: a germ spec cut short (exit 1)
    text = json.dumps(scrambled_germ(rng, 6, False)[0])[:-1]
    path = write_text(os.path.join(work, f"{tag}-malformed.json"), text)
    ops.append(Op("reject.malformed", lambda p=path: call_cli(["analyze", p, "--json"]), rejection((1,))))

    path = write_text(os.path.join(work, f"{tag}-nan.json"), NAN_SPEC)
    ops.append(
        Op("reject.nan", lambda p=path: call_cli(["analyze", p, "--json"]), rejection((1, 2)),
           fault="a: NaN coefficient accepted, analyze exits 0")
    )
    path = write_json(os.path.join(work, f"{tag}-huge.json"), HUGE_SPEC)
    ops.append(
        Op("reject.huge", lambda p=path: call_cli(["analyze", p, "--json"]), rejection((1, 2)),
           fault="b: coefficients near 1e308 raise ZeroDivisionError")
    )

    spec, a, b = HALVED_GERM
    path = write_json(os.path.join(work, f"{tag}-halved.json"), spec)
    out = os.path.join(work, f"{tag}-halved.out.json")
    ops.append(
        Op("analyze.halved", lambda: call_cli(["analyze", path, "--json", "--out", out]),
           check_germ(out, 12, False, a, b, tol=TABLE_TOL * 2.0**12),
           fault="r: absolute RESIDUAL_TOL rejects a valid order-12 germ")
    )
    return ops


# fixed, not seeded: the same input every round of every run
HALVED_GERM = scrambled_germ(np.random.default_rng(0), 12, False, HALVED)


# ----------------------------------------------------------------------
# family_sweep: deform --kappas, then each member's ruled presentation

SWEEP_ORDERS = (6, 6, 8, 8, 10, 10)
SWEEP_KAPPAS = 3
SWEEP_TOL = 1e-8
METRIC_TOL = 1e-9
RULED_TOL = 1e-9


def ruled_series(rs) -> np.ndarray:
    gamma = np.array([comp.c[0] for comp in rs.gamma.components()])
    xi = np.array([comp.c[0] for comp in rs.xi.components()])
    return oracle.ruled_first_form(gamma, xi, min(gamma.shape[1], xi.shape[1]) - 2)


def sweep_member_chain(a02, a11, kappa_poly, n, kappa_new):
    """from_deformation -> normalize -> frame_coefficients -> redeploy -> classify."""
    fam = deformation.deformation_family(a02, a11, kappa_poly)
    rsn = ruled.normalize(ruled.from_deformation(fam, order=n))
    fc = ruled.frame_coefficients(rsn)
    moved = ruled.redeploy(fc, deformation.circle_family(kappa_new))
    return rsn, moved, ruled.classify_singularity(moved)


def check_sweep(out_path, member, kappas):
    def check(result) -> str | None:
        rc, chains = result
        if rc != 0:
            return f"deform exit {rc}"
        rep = read_json(out_path)
        if not finite_floats(rep):
            return "non-finite field in report"
        if max(max(row) for row in rep["metric_deviation"]) > METRIC_TOL:
            return "metric deviation between members"
        if [m["kappa"] for m in rep["members"]] != kappas:
            return "members do not follow --kappas"
        for kap, rec in zip(kappas, rep["members"]):
            for route in ("map_route", "metric_route"):
                t = rec["intrinsic"][route]
                for key, want in (("a20", 0.0), ("a11", member.a11), ("a02", member.a02)):
                    if not close(t[key], want, SWEEP_TOL):
                        return f"kappa {kap}: {route}.{key} = {t[key]!r}, want {want!r}"
            table = {(j, k): val for j, k, val in rec["normal_form"]["a"]}
            got = (table[(1, 2)], table[(0, 3)], dict(rec["normal_form"]["b"])[3])
            for name, g, w in zip(("a12", "a03", "b3"), got, member.third_order(kap)):
                if not close(g, w, SWEEP_TOL):
                    return f"kappa {kap}: {name} = {g!r}, want {w!r}"
        for rsn, moved, cls in chains:
            if cls != "cross_cap":
                return f"redeployed member classifies as {cls}"
            src, dst = ruled_series(rsn), ruled_series(moved)
            d = min(src.shape[1], dst.shape[1])
            if np.max(np.abs(src[:, :d] - dst[:, :d])) > RULED_TOL:
                return "redeployment changed the first fundamental form"
            unit = np.zeros(d)
            unit[0] = 1.0
            if max(np.max(np.abs(src[0, :d] - unit)), np.max(np.abs(src[5, :d] - unit))) > RULED_TOL:
                return "normalized ruling is not unit speed on the sphere"
        return None

    return check


def sweep_round(rng: np.random.Generator, work: str, tag: str) -> list[Op]:
    ops = []
    for i, n in enumerate(SWEEP_ORDERS):
        a02, a11 = rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)
        kappas = [float(k) for k in np.sort(rng.uniform(-2.0, 2.0, SWEEP_KAPPAS))]
        if i % 2 == 0:
            tail = ()
            spec = {"circle_deformation": {"kappa": 0.0, "a02": a02, "a11": a11}, "order": n}
        else:
            tail = tuple(rng.uniform(-1.0, 1.0, 2))
            spec = {"spherical_deformation": {"kappa_poly": [0.0, *tail], "a02": a02, "a11": a11},
                    "order": n}
        kappa_new = rng.uniform(-2.0, 2.0)
        path = write_json(os.path.join(work, f"{tag}-family{i}.json"), spec)
        out = os.path.join(work, f"{tag}-family{i}.out.json")
        arg = ",".join(repr(k) for k in kappas)

        def run(p=path, o=out, arg=arg, a02=a02, a11=a11, kappas=kappas, tail=tail, n=n, kn=kappa_new):
            rc = call_cli(["deform", p, f"--kappas={arg}", "--json", "--out", o])
            chains = [sweep_member_chain(a02, a11, (k,) + tail, n, kn) for k in kappas]
            return rc, chains

        member = oracle.FamilyMember(a02, a11)
        ops.append(
            Op(
                kind=f"sweep.o{n}",
                run=run,
                check=check_sweep(out, member, kappas),
                items=len(kappas),
                latency={6: "light", 10: "heavy"}.get(n),
                per=len(kappas),
            )
        )
    return ops


# ----------------------------------------------------------------------
# off_origin: mesh, grid isometry and radius sweeps away from the origin

# the resolution of a mesh a user looks at, and verify_isometry's default grid
MESH_RES = 16
ISO_GRID = 10
RADII = "0.5,0.2,0.1,0.05"
RULING_TOL = 1e-8
DIRECTRIX_TOL = 1e-8
FORM_TOL = 1e-8
LIMIT_TOL = 1e-9
# a u^9 v^9 term above the spec's order 6: the surface passes (2,2,2) at (1,1)
HIGH_TERM_SPEC = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [9, 9, 1, 1, 1]]}


def read_obj(path: str):
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tag, *vals = line.split()
            if tag == "v":
                verts.append([float(x) for x in vals])
            elif tag == "f":
                faces.append([int(x) for x in vals])
    return np.array(verts), np.array(faces)


def grid_axis(res: int) -> list[float]:
    return [-1.0 + 2.0 * i / res for i in range(res + 1)]


def check_obj_shape(verts, faces, res) -> str | None:
    if verts.shape != ((res + 1) ** 2, 3) or faces.shape != (2 * res * res, 3):
        return f"OBJ has {len(verts)} vertices and {len(faces)} faces"
    if faces.min() < 1 or faces.max() > len(verts):
        return "face index out of range"
    return None


def check_member_mesh(obj: str, member: oracle.FamilyMember):
    def check(rc: int) -> str | None:
        if rc != 0:
            return f"mesh exit {rc}"
        verts, faces = read_obj(obj)
        bad = check_obj_shape(verts, faces, MESH_RES)
        if bad:
            return bad
        axis = grid_axis(MESH_RES)
        grid = verts.reshape(MESH_RES + 1, MESH_RES + 1, 3)  # [u index, v index]
        zero = MESH_RES // 2  # axis[zero] == 0.0
        xi, gamma = member.reference(axis)
        for j, v in enumerate(axis):
            base = grid[zero, j]
            if np.max(np.abs(base - gamma[j])) > DIRECTRIX_TOL:
                return f"f(0, {v}) is off the directrix quadrature"
            for i, u in enumerate(axis):
                if i != zero and np.max(np.abs((grid[i, j] - base) / u - xi[j])) > RULING_TOL:
                    return f"ruling at ({u}, {v}) is off the spherical curve"
        return None

    return check


def check_high_term(obj: str):
    def check(rc: int) -> str | None:
        if rc != 0:
            return f"mesh exit {rc}"
        verts, faces = read_obj(obj)
        bad = check_obj_shape(verts, faces, 2)
        if bad:
            return bad
        axis = grid_axis(2)
        want = np.array([[u, u * v, v * v] for u in axis for v in axis])
        want += np.array([[u**9 * v**9] for u in axis for v in axis])
        if np.max(np.abs(verts - want)) > 1e-12:
            return "vertices miss the term above the spec's order"
        return None

    return check


def check_isometry(members):
    def check(result) -> str | None:
        rep, surfaces = result
        if not (rep.passed and rep.jet_max_dev <= 1e-9 and rep.grid_max_dev <= 1e-6):
            return f"verify_isometry failed: {rep}"
        for f, member in zip(surfaces, members):
            for u, v in ((-0.8, -0.8), (0.6, 0.8)):
                jet = f.local_jet(u, v, order=1)
                fu, fv = jet.coeff_vector(1, 0), jet.coeff_vector(0, 1)
                got = (fu @ fu, fu @ fv, fv @ fv)
                if not all(close(g, w, FORM_TOL) for g, w in zip(got, member.first_form(u, v))):
                    return f"first form at ({u}, {v}) is off the closed form"
        return None

    return check


def check_asymptotics(out_path: str, a02: float, a11: float):
    def check(rc: int) -> str | None:
        if rc != 0:
            return f"asymptotics exit {rc}"
        rep = read_json(out_path)
        if rep["radii"] != sorted(map(float, RADII.split(",")), reverse=True):
            return "radii do not follow --radii"
        for ray in rep["rays"]:
            if not all(math.isfinite(x) for x in ray["r2k"] + ray["r2h"]):
                return "non-finite curvature sample"
            k_lim, h_lim = oracle.curvature_limits(0.0, a11, a02, ray["theta"])
            if not (close(ray["k_limit"], k_lim, LIMIT_TOL) and close(ray["h_limit"], h_lim, LIMIT_TOL)):
                return f"limits at theta {ray['theta']} are off the closed form"
            if abs(math.cos(ray["theta"])) > 1e-12 and not close(ray["gap_limit"], h_lim * h_lim, LIMIT_TOL):
                return f"umbilic gap limit at theta {ray['theta']} is off the closed form"
        return None

    return check


def antithetic(rng: np.random.Generator, lo: float, hi: float, signed: bool = False):
    """(x, lo + hi - x) for x uniform in [lo, hi], with random signs if ``signed``.

    Evaluation cost grows with |kappa0| (a circle meshes 2.3 times faster
    at |kappa0| = 0.25 than at 2) and changes with a02 and |a11|, so a
    pair of operations that takes one value from each end of each range
    costs about the same whatever x is drawn, and a round's time is not
    left to chance.
    """
    x = rng.uniform(lo, hi)
    pair = np.array([x, lo + hi - x])
    if signed:
        pair *= rng.choice((-1.0, 1.0), 2)
    return [float(v) for v in pair]


def off_origin_round(rng: np.random.Generator, work: str, tag: str) -> list[Op]:
    """Every operation gets family members of its own: circle members and
    members with geodesic curvature k0 + k1 s + k2 s^2."""
    count = itertools.count()

    def member(kind: str, kappa0: float, a02: float, a11: float):
        if kind == "circle":
            kappa_poly = [kappa0]
            spec = {"circle_deformation": {"kappa": kappa0, "a02": a02, "a11": a11}}
        else:
            kappa_poly = [kappa0, *map(float, rng.uniform(-0.75, 0.75, 2))]
            spec = {"spherical_deformation": {"kappa_poly": kappa_poly, "a02": a02, "a11": a11}}
        path = write_json(os.path.join(work, f"{tag}-member{next(count)}.json"), spec)
        return path, oracle.FamilyMember(a02, a11, kappa_poly)

    def quadratic_pair():
        """Two (a02, a11): a02 in [0.5, 2.5] and |a11| in [0, 1], antithetic."""
        return list(zip(antithetic(rng, 0.5, 2.5), antithetic(rng, 0.0, 1.0, signed=True)))

    def asymptotics_op(kind, kappa0, data):
        path, fam = member(kind, kappa0, *data)
        out = path.replace(".json", ".out.json")
        argv = ["asymptotics", path, "--radii", RADII, "--json", "--out", out]
        return Op(f"asymptotics.{kind}", lambda: call_cli(argv),
                  check_asymptotics(out, fam.a02, fam.a11), latency="light")

    def mesh_op(kind, kappa0, data):
        path, fam = member(kind, kappa0, *data)
        obj = path.replace(".json", ".obj")
        argv = ["mesh", path, "--out", obj, "--resolution", str(MESH_RES)]
        return Op(f"mesh.{kind}", lambda: call_cli(argv), check_member_mesh(obj, fam),
                  items=(MESH_RES + 1) ** 2)

    def isometry_op(kappa_circle, kappa_poly0, data):
        pair = [member("circle", kappa_circle, *data), member("poly", kappa_poly0, *data)]

        def run():
            surfaces = [specio.build_surface(specio.load_spec(path)).surface for path, _ in pair]
            return deformation.verify_isometry(*surfaces, grid=(ISO_GRID, ISO_GRID)), surfaces

        return Op("verify_isometry", run, check_isometry([fam for _, fam in pair]), latency="heavy")

    # like operations come in pairs, antithetic in every cost driver; the
    # two members compared by one verify_isometry call are such a pair too
    def kappa_pair():
        return antithetic(rng, 0.25, 2.0, signed=True)

    asym_k, asym_q = [kappa_pair(), kappa_pair()], [quadratic_pair(), quadratic_pair()]
    mesh_k, mesh_q = kappa_pair(), quadratic_pair()
    iso_k, iso_q = [kappa_pair(), kappa_pair()], quadratic_pair()
    ops = [
        asymptotics_op("circle", asym_k[0][0], asym_q[0][0]),
        mesh_op("circle", mesh_k[0], mesh_q[0]),
        asymptotics_op("poly", asym_k[0][1], asym_q[0][1]),
        isometry_op(*iso_k[0], iso_q[0]),
        asymptotics_op("circle", asym_k[1][0], asym_q[1][0]),
        mesh_op("poly", mesh_k[1], mesh_q[1]),
        asymptotics_op("poly", asym_k[1][1], asym_q[1][1]),
        isometry_op(*iso_k[1], iso_q[1]),
    ]
    high = write_json(os.path.join(work, f"{tag}-highterm.json"), HIGH_TERM_SPEC)
    high_obj = os.path.join(work, f"{tag}-highterm.obj")
    return ops + [
        Op("mesh.high_term", lambda: call_cli(["mesh", high, "--out", high_obj, "--resolution", "2"]),
           check_high_term(high_obj), fault="c: polynomial term above order dropped by mesh"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: Callable[[np.random.Generator, str, str], list[Op]]
    # workload's own name for a metric: metric -> (name, unit, conversion)
    aliases: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("germ_reports", germ_round, {
            "items_per_s": ("reports_per_s", "1/s", None),
            "light_ms": ("analyze_ms.o6", "ms", None),
            "heavy_ms": ("analyze_ms.o12", "ms", None),
        }),
        Workload("family_sweep", sweep_round, {
            "items_per_s": ("members_per_s", "1/s", None),
            "light_ms": ("member_ms.o6", "ms", None),
            "heavy_ms": ("member_ms.o10", "ms", None),
        }),
        Workload("off_origin", off_origin_round, {
            "items_per_s": ("vertices_per_s", "1/s", None),
            "light_ms": ("asymptotics_ms", "ms", None),
            "heavy_ms": ("isometry_points_per_s", "1/s", lambda ms: ISO_GRID**2 * 1000.0 / ms),
        }),
    )
}
