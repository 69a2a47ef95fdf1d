"""Surface spec documents, invariant reports, and mesh export.

A surface spec is a JSON object naming exactly one construction:

    {"polynomial": [[j, k, x, y, z], ...]}
    {"quadratic_crosscap": {"a20": 1, "a11": 0, "a02": 2}}
    {"circle_deformation": {"kappa": 1, "a02": 2, "a11": 0}}
    {"spherical_deformation": {"kappa_poly": [0, 1], "a02": 2, "a11": 0}}
    {"ruled": {"gamma_poly": [[x,y,z], ...], "xi_poly": [[x,y,z], ...]}}

with optional "order" (jet order in 2..12, default 6) and "domain"
([[u0, u1], [v0, v1]], default [[-1, 1], [-1, 1]]).  Polynomial terms
above "order" are kept for evaluation, up to degree 64.

Reports are plain dicts serialized deterministically: keys sorted,
floats printed at 17 significant digits, so identical inputs yield
byte-identical output and reports survive a parse/serialize round trip
unchanged.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Sequence

from . import asymptotics, deformation, invariants, normalform, ruled, surface
from .errors import SpecFormatError
from .surface import SurfaceMap

__all__ = [
    "SurfaceSpec",
    "BuiltSurface",
    "parse_spec",
    "load_spec",
    "build_surface",
    "invariant_report",
    "report_text",
    "dumps_report",
    "write_obj",
]

SPEC_KINDS = (
    "polynomial",
    "quadratic_crosscap",
    "circle_deformation",
    "spherical_deformation",
    "ruled",
)
DEFAULT_DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))
ORDERS = range(2, 13)
# polynomial specs keep every term, so their jets grow to the top degree
MAX_DEGREE = 64
REPORT_THETAS = (0.0, math.pi / 4.0, math.pi / 2.0)


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str
    payload: Any
    order: int = 6
    domain: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_DOMAIN


@dataclass(frozen=True)
class BuiltSurface:
    surface: SurfaceMap
    family: deformation.DeformationFamily | None = None


def _require(cond: bool, field: str, detail: str):
    if not cond:
        raise SpecFormatError(f"field '{field}': {detail}")


def _number(obj: Any, field: str) -> float:
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool), field, "expected a number")
    # json accepts NaN and Infinity; NaN fails every comparison
    _require(abs(obj) <= sys.float_info.max, field, "expected a finite number")
    return float(obj)


def parse_spec(doc: Any) -> SurfaceSpec:
    """Validate a decoded JSON document into a SurfaceSpec."""
    _require(isinstance(doc, dict), "<root>", "spec must be a JSON object")
    present = [k for k in SPEC_KINDS if k in doc]
    _require(
        len(present) == 1,
        "<root>",
        f"exactly one of {', '.join(SPEC_KINDS)} required, found {len(present)}",
    )
    kind = present[0]
    payload = doc[kind]
    order = doc.get("order", 6)
    bounds = f"{ORDERS[0]}..{ORDERS[-1]}"
    _require(isinstance(order, int) and order in ORDERS, "order", f"expected an integer in {bounds}")

    domain = DEFAULT_DOMAIN
    if "domain" in doc:
        raw = doc["domain"]
        _require(
            isinstance(raw, (list, tuple)) and len(raw) == 2,
            "domain",
            "expected [[u0, u1], [v0, v1]]",
        )
        spans = []
        for axis, pair in zip("uv", raw):
            _require(
                isinstance(pair, (list, tuple)) and len(pair) == 2,
                f"domain.{axis}",
                "expected [lo, hi]",
            )
            lo = _number(pair[0], f"domain.{axis}[0]")
            hi = _number(pair[1], f"domain.{axis}[1]")
            _require(lo < hi, f"domain.{axis}", "needs lo < hi")
            spans.append((lo, hi))
        domain = (spans[0], spans[1])

    if kind == "polynomial":
        _require(isinstance(payload, list) and payload, kind, "expected a nonempty list of entries")
        for i, entry in enumerate(payload):
            _require(
                isinstance(entry, (list, tuple)) and len(entry) == 5,
                f"{kind}[{i}]",
                "expected [j, k, x, y, z]",
            )
            j, k = entry[0], entry[1]
            _require(
                isinstance(j, int) and isinstance(k, int) and j >= 0 and k >= 0,
                f"{kind}[{i}]",
                "monomial powers must be nonnegative integers",
            )
            _require(j + k <= MAX_DEGREE, f"{kind}[{i}]", f"monomial degree above {MAX_DEGREE}")
            for c, name in zip(entry[2:], "xyz"):
                _number(c, f"{kind}[{i}].{name}")
    elif kind == "quadratic_crosscap":
        _require(isinstance(payload, dict), kind, "expected an object")
        for f in ("a20", "a11", "a02"):
            _require(f in payload, f"{kind}.{f}", "missing")
            _number(payload[f], f"{kind}.{f}")
        _require(_number(payload["a02"], f"{kind}.a02") > 0.0, f"{kind}.a02", "must be positive")
    elif kind in ("circle_deformation", "spherical_deformation"):
        _require(isinstance(payload, dict), kind, "expected an object")
        for f in ("a02", "a11"):
            _require(f in payload, f"{kind}.{f}", "missing")
            _number(payload[f], f"{kind}.{f}")
        _require(_number(payload["a02"], f"{kind}.a02") > 0.0, f"{kind}.a02", "must be positive")
        if kind == "circle_deformation":
            _require("kappa" in payload, f"{kind}.kappa", "missing")
            _number(payload["kappa"], f"{kind}.kappa")
        else:
            kp = payload.get("kappa_poly")
            _require(
                isinstance(kp, list) and kp,
                f"{kind}.kappa_poly",
                "expected a nonempty list of numbers",
            )
            for i, c in enumerate(kp):
                _number(c, f"{kind}.kappa_poly[{i}]")
    else:
        _require(isinstance(payload, dict), kind, "expected an object")
        for f in ("gamma_poly", "xi_poly"):
            rows = payload.get(f)
            _require(isinstance(rows, list) and rows, f"{kind}.{f}", "expected a nonempty list")
            for i, row in enumerate(rows):
                _require(
                    isinstance(row, (list, tuple)) and len(row) == 3,
                    f"{kind}.{f}[{i}]",
                    "expected an [x, y, z] triple",
                )
                for c, name in zip(row, "xyz"):
                    _number(c, f"{kind}.{f}[{i}].{name}")

    return SurfaceSpec(kind=kind, payload=payload, order=order, domain=domain)


def load_spec(path: str) -> SurfaceSpec:
    """Read and validate a spec file; malformed JSON reports its position."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_spec(doc)


def build_surface(spec: SurfaceSpec) -> BuiltSurface:
    if spec.kind == "polynomial":
        terms = {}
        for j, k, x, y, z in spec.payload:
            vec = terms.setdefault((int(j), int(k)), [0.0, 0.0, 0.0])
            vec[0] += x
            vec[1] += y
            vec[2] += z
        # every term is kept for evaluation; analysis truncates to its order
        order = max(spec.order, *(j + k for j, k in terms))
        f = surface.surface_from_polynomial(terms, order=order, domain=spec.domain)
        return BuiltSurface(surface=f)
    if spec.kind == "quadratic_crosscap":
        p = spec.payload
        f = surface.quadratic_crosscap(p["a20"], p["a11"], p["a02"], order=spec.order)
        return BuiltSurface(surface=replace(f, domain_hint=spec.domain))
    if spec.kind in ("circle_deformation", "spherical_deformation"):
        p = spec.payload
        kap = float(p["kappa"]) if spec.kind == "circle_deformation" else tuple(p["kappa_poly"])
        fam = deformation.deformation_family(p["a02"], p["a11"], kap)
        f = deformation.build_crosscap(fam, order=spec.order)
        return BuiltSurface(surface=replace(f, domain_hint=spec.domain), family=fam)
    rs = ruled.from_polynomials(
        spec.payload["gamma_poly"], spec.payload["xi_poly"], order=max(spec.order, 6)
    )
    return BuiltSurface(surface=replace(rs.as_surface_map(), domain_hint=spec.domain))


# ----------------------------------------------------------------------
# reports

def _triple_dict(t: invariants.IntrinsicTriple) -> dict:
    return {"a02": t.a02, "a20": t.a20, "a11": t.a11, "delta_sq": t.delta_sq}


def invariant_report(
    built: BuiltSurface,
    order: int = 6,
    tol: float = surface.DEFAULT_TOL,
    with_asymptotics: bool = True,
) -> dict:
    """Full cross cap report for a built surface; raises NotACrossCapError
    when the origin fails the criterion."""
    f = built.surface
    test = surface.require_crosscap(f, tol=tol)
    nf = normalform.reduce_to_normal_form(f, order=order, tol=tol)
    t_map = invariants.intrinsic_from_map(f, tol=tol)
    forms = surface.first_form(f)
    t_metric = invariants.intrinsic_from_metric(forms)
    conic = invariants.focal_conic(t_map, tol=tol)
    combos = invariants.isometry_combos(nf)
    flags = normalform.classify(nf, tol=max(tol, 1e-7))
    report = {
        "crosscap": {
            "is_crosscap": test.is_crosscap,
            "delta": test.delta,
            "fv_norm": test.fv_norm,
            "tol": test.tol,
        },
        "normal_form": {
            "order": nf.order,
            "flipped": nf.flipped,
            "residual": nf.residual,
            "a": [[j, k, val] for j, k, val in nf.a_table()],
            "b": [[i, val] for i, val in nf.b_table()],
        },
        "intrinsic": {
            "map_route": _triple_dict(t_map),
            "metric_route": _triple_dict(t_metric),
            "max_discrepancy": invariants.route_discrepancy(t_map, t_metric),
            "a02_from_height_hessian": invariants.a02_from_height_hessian(forms),
        },
        "focal_conic": {
            "yy": conic.yy,
            "yz": conic.yz,
            "zz": conic.zz,
            "z": conic.z,
            "kind": conic.kind,
        },
        "combos": {"c1": combos.c1, "c2": combos.c2, "c3": combos.c3, "c4": combos.c4},
        "classification": {
            "sign_class": invariants.classify_sign(t_map, tol=tol),
            **flags,
        },
    }
    if with_asymptotics:
        entries = []
        for theta in REPORT_THETAS:
            lead = asymptotics.leading(t_map, theta)
            entries.append(
                {
                    "theta": lead.theta,
                    "a_theta": lead.a_theta,
                    "h_lead": lead.h_lead,
                    "k_lead": lead.k_lead,
                    "gap_lead": lead.gap_lead,
                }
            )
        report["asymptotics"] = entries
    return report


def report_text(report: dict) -> str:
    """Fixed-layout human-readable rendering of an invariant report."""
    g = lambda x: format_float(x)
    lines = []
    cc = report["crosscap"]
    lines.append(f"cross cap          yes  delta={g(cc['delta'])}  |f_v|={g(cc['fv_norm'])}")
    nf = report["normal_form"]
    lines.append(
        f"normal form        order {nf['order']}  residual={g(nf['residual'])}"
        f"  flipped={'yes' if nf['flipped'] else 'no'}"
    )
    tri = report["intrinsic"]
    for label, key in (("intrinsic (map)", "map_route"), ("intrinsic (metric)", "metric_route")):
        t = tri[key]
        lines.append(
            f"{label:<19}a02={g(t['a02'])}  a20={g(t['a20'])}  a11={g(t['a11'])}"
        )
    lines.append(f"route discrepancy  {g(tri['max_discrepancy'])}")
    fc = report["focal_conic"]
    lines.append(
        f"focal conic        {fc['kind']}: {g(fc['yy'])} y^2 + {g(fc['yz'])} yz"
        f" + {g(fc['zz'])} z^2 + {g(fc['z'])} z = 0"
    )
    cl = report["classification"]
    flags = " ".join(k for k, val in cl.items() if val is True)
    lines.append(f"sign class         {cl['sign_class']}")
    if flags:
        lines.append(f"shape flags        {flags}")
    cb = report["combos"]
    lines.append(
        f"combos             c1={g(cb['c1'])}  c2={g(cb['c2'])}  c3={g(cb['c3'])}  c4={g(cb['c4'])}"
    )
    for entry in report.get("asymptotics", ()):
        lines.append(
            f"ray theta={g(entry['theta'])}  A={g(entry['a_theta'])}"
            f"  r2H->{g(entry['h_lead'])}  r2K->{g(entry['k_lead'])}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# deterministic serialization

def format_float(x: float) -> str:
    if isinstance(x, bool) or not isinstance(x, float):
        return str(x)
    if not math.isfinite(x):
        return "null"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def dumps_report(obj: Any) -> str:
    """Serialize with sorted keys and floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _emit(obj: Any, out: list[str], depth: int):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _emit(obj[key], out, depth + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _emit(item, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ----------------------------------------------------------------------
# mesh export

def write_obj(f: SurfaceMap, path: str, resolution: int, domain=None):
    """Triangulated Wavefront OBJ over an n x n parameter grid.

    Vertices are emitted row-major in u, (n+1)^2 of them, then 2 n^2
    triangular faces with 1-based indices.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    (u0, u1), (v0, v1) = domain if domain is not None else f.domain_hint
    n = resolution
    lines = []
    for i in range(n + 1):
        uu = u0 + (u1 - u0) * i / n
        for j in range(n + 1):
            vv = v0 + (v1 - v0) * j / n
            x, y, z = f(uu, vv)
            lines.append(f"v {format_float(float(x))} {format_float(float(y))} {format_float(float(z))}")
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j + 1
            b = (i + 1) * (n + 1) + j + 1
            c = (i + 1) * (n + 1) + j + 2
            d = i * (n + 1) + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
