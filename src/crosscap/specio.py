"""Surface spec documents, invariant reports, and mesh export.

A surface spec is a JSON object naming exactly one construction:

    {"polynomial": [[j, k, x, y, z], ...]}
    {"quadratic_crosscap": {"a20": 1, "a11": 0, "a02": 2}}
    {"circle_deformation": {"kappa": 1, "a02": 2, "a11": 0}}
    {"spherical_deformation": {"kappa_poly": [0, 1], "a02": 2, "a11": 0}}
    {"ruled": {"gamma_poly": [[x,y,z], ...], "xi_poly": [[x,y,z], ...]}}

with optional "order" (jet order in 2..12, default 6) and "domain"
([[u0, u1], [v0, v1]], default [[-1, 1], [-1, 1]]).  Polynomial terms
above "order" are kept for evaluation, up to degree 64; series in v
("kappa_poly", "gamma_poly", "xi_poly") stop at v^64 as well.

``parse_spec`` hands the three named-number constructions on with their
numbers as floats, and both family kinds as one payload
{"a02", "a11", "kappa_poly"}: a circle_deformation spec is read as a
spherical_deformation spec with "kappa_poly": [kappa].  Every malformed
field raises SpecFormatError, which the command line reports as one
"spec error:" line with exit code 1; so does a file that is not UTF-8
(naming the byte offset), nests too deep for the JSON decoder, or holds an
integer past Python's digit limit.  Polynomial entries and the rows of
"gamma_poly" and "xi_poly" are checked by one reader, all rows at once, by
exact types (a JSON true is a bool, not a power or a number) and one pass
per column; only when that check fails are they checked row by row, so
that the error names the first bad field.

Reports are plain dicts serialized deterministically: keys sorted,
floats printed at 17 significant digits, so identical inputs yield
byte-identical output and reports survive a parse/serialize round trip
unchanged.  The writer dispatches on the exact types float, int, bool,
None, str, dict, list and tuple and writes a list of leaves in one join;
a subclass such as np.float64 is written as its base type, and any other
value raises TypeError.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

import numpy as np

from . import asymptotics, deformation, invariants, normalform, ruled, surface
from .errors import CrosscapError, SpecFormatError
from .jets import Jet3
from .surface import DEFAULT_DOMAIN, SurfaceMap

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
FAMILY_KINDS = ("circle_deformation", "spherical_deformation")
# the numbers each named-number construction requires
FIELDS = {
    "quadratic_crosscap": ("a20", "a11", "a02"),
    "circle_deformation": ("a02", "a11", "kappa"),
    "spherical_deformation": ("a02", "a11"),
}
ORDERS = range(2, 13)
# the top degree of polynomial terms and of series in v (kappa_poly, ruled rows)
MAX_DEGREE = 64
# a mesh is one array of (n+1)^2 points
MAX_RESOLUTION = 1024
REPORT_THETAS = (0.0, math.pi / 4.0, math.pi / 2.0)


class SurfaceSpec(NamedTuple):
    kind: str
    payload: Any
    order: int = 6
    domain: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_DOMAIN


class BuiltSurface(NamedTuple):
    surface: SurfaceMap


def _require(cond: bool, field: str, detail: str):
    if not cond:
        raise SpecFormatError(f"field '{field}': {detail}")


def _number(obj: Any, field: str) -> float:
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool), field, "expected a number")
    # json accepts NaN and Infinity; NaN fails every comparison
    _require(abs(obj) <= sys.float_info.max, field, "expected a finite number")
    return float(obj)


def _rows(rows: list, field: str, shape: str, width: int, powers: int = 0):
    """Check a nonempty list of rows of width entries: the first ``powers``
    of them monomial powers (j, k), the rest the coefficients x, y, z.

    All rows are checked at once, by exact types and one pass per column,
    types before values; only when that check fails are they checked row by
    row, so that the error names the first bad field as ``shape`` or
    ``field[i].x``."""
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {width}:
        columns = tuple(zip(*rows))
        exps, coeffs = sum(columns[:powers], ()), sum(columns[powers:], ())
        if (
            set(map(type, exps)) <= {int}
            and (not powers or (min(exps) >= 0 and max(map(operator.add, *columns[:powers])) <= MAX_DEGREE))
            and set(map(type, coeffs)) <= {int, float}
            # abs(c) <= max as _number compares, exact for an int past the float range
            and all(map(operator.le, map(abs, coeffs), repeat(sys.float_info.max)))
        ):
            return
    for i, row in enumerate(rows):
        _require(isinstance(row, (list, tuple)) and len(row) == width, f"{field}[{i}]", shape)
        exps = row[:powers]
        _require(
            all(isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in exps),
            f"{field}[{i}]",
            "monomial powers must be nonnegative integers",
        )
        _require(sum(exps) <= MAX_DEGREE, f"{field}[{i}]", f"monomial degree above {MAX_DEGREE}")
        for c, name in zip(row[powers:], "xyz"):
            _number(c, f"{field}[{i}].{name}")


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
            _require(math.isfinite(hi - lo), f"domain.{axis}", "width hi - lo overflows")
            spans.append((lo, hi))
        domain = (spans[0], spans[1])

    if kind == "polynomial":
        _require(isinstance(payload, list) and payload, kind, "expected a nonempty list of entries")
        _rows(payload, kind, "expected [j, k, x, y, z]", 5, powers=2)
    elif kind in FIELDS:
        _require(isinstance(payload, dict), kind, "expected an object")
        values = {}
        for f in FIELDS[kind]:
            _require(f in payload, f"{kind}.{f}", "missing")
            values[f] = _number(payload[f], f"{kind}.{f}")
        _require(values["a02"] > 0.0, f"{kind}.a02", "must be positive")
        if kind in FAMILY_KINDS:
            # the family's ruling speed is sqrt(1 + a11^2)
            a11 = values["a11"]
            _require(math.isfinite(1.0 + a11 * a11), f"{kind}.a11", "too large: 1 + a11^2 overflows")
            kp = [values.pop("kappa")] if "kappa" in values else payload.get("kappa_poly")
            _require(
                isinstance(kp, list) and 0 < len(kp) <= MAX_DEGREE + 1,
                f"{kind}.kappa_poly",
                f"expected a list of 1 to {MAX_DEGREE + 1} numbers",
            )
            values["kappa_poly"] = tuple(_number(c, f"{kind}.kappa_poly[{i}]") for i, c in enumerate(kp))
        payload = values
    else:
        _require(isinstance(payload, dict), kind, "expected an object")
        for f in ("gamma_poly", "xi_poly"):
            rows = payload.get(f)
            _require(
                isinstance(rows, list) and 0 < len(rows) <= MAX_DEGREE + 1,
                f"{kind}.{f}",
                f"expected a list of 1 to {MAX_DEGREE + 1} rows",
            )
            _rows(rows, f"{kind}.{f}", "expected an [x, y, z] triple", 3)

    return SurfaceSpec(kind=kind, payload=payload, order=order, domain=domain)


def load_spec(path: str) -> SurfaceSpec:
    """Read and validate a spec file; malformed JSON reports its position,
    a byte that is not UTF-8 its offset."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec: {exc}") from exc
    try:
        # universal newlines, as a text-mode read gives them, so that a JSON
        # error names the line and column an editor shows
        doc = json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"cannot read spec: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise SpecFormatError(f"cannot read spec: {exc}") from exc
    except RecursionError:
        raise SpecFormatError("cannot read spec: arrays or objects nested too deep") from None
    return parse_spec(doc)


def build_surface(spec: SurfaceSpec) -> BuiltSurface:
    p = spec.payload
    if spec.kind == "polynomial":
        rows = np.array(p, dtype=float)
        j, k = rows[:, 0].astype(int), rows[:, 1].astype(int)
        # every term is kept for evaluation; analysis truncates to its order
        order = max(spec.order, int((j + k).max()))
        # np.add.at adds entry by entry, so a repeated monomial sums from 0.0
        # in entry order
        c = np.zeros((3, order + 1, order + 1))
        np.add.at(c, (slice(None), j, k), rows[:, 2:].T)
        return BuiltSurface(SurfaceMap(Jet3(order, c), spec.domain))
    if spec.kind == "quadratic_crosscap":
        jet = surface.quadratic_crosscap(p["a20"], p["a11"], p["a02"], order=spec.order).jet
        return BuiltSurface(SurfaceMap(jet, spec.domain))
    if spec.kind in FAMILY_KINDS:
        fam = deformation.deformation_family(p["a02"], p["a11"], p["kappa_poly"])
        rs = deformation.build_crosscap(fam, order=spec.order)
    else:
        rs = ruled.from_polynomials(p["gamma_poly"], p["xi_poly"], order=max(spec.order, 6))
    return BuiltSurface(ruled.RuledSurface(rs.gamma, rs.xi, rs.backing, spec.domain))


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
    """Full cross cap report for a built surface, read from its jet to order
    alone; raises NotACrossCapError when the origin fails the criterion."""
    f = built.surface
    if f.order > order:  # the normal form, both routes and the combos read one map
        f = surface.SurfaceMap(f.jet.truncated(order), f.domain_hint)
    test = surface.require_crosscap(f, tol=tol)
    nf = normalform.reduce_to_normal_form(f, order=order, tol=tol)
    t_map = invariants.intrinsic_from_map(f, tol=tol)
    t_metric = invariants.intrinsic_from_metric(surface.first_form(f))
    conic = invariants.focal_conic(t_map, tol=tol)
    combos = invariants.isometry_combos(nf)
    sign_class = invariants.classify_sign(t_map, tol=tol)  # also the one degeneracy verdict
    flags = {"degenerate": sign_class == "degenerate", **normalform.classify(nf, tol=max(tol, 1e-7))}
    report = {
        "crosscap": test._asdict(),
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
            "a02_from_height_hessian": t_metric.a02_from_height_hessian,
        },
        "focal_conic": conic._asdict(),
        "combos": combos._asdict(),
        "classification": {
            "sign_class": sign_class,
            **flags,
        },
    }
    if with_asymptotics:
        leads = [asymptotics.leading(t_map, theta) for theta in REPORT_THETAS]
        report["asymptotics"] = [{**lead._asdict(), "gap_lead": lead.gap_lead} for lead in leads]
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
    return _float_text(x)


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


# the text of a leaf of each exact type; a subclass (np.float64) is
# written by the isinstance tests of _subclass_text
_TEXT = {
    float: _float_text,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
}


def dumps_report(obj: Any) -> str:
    """Serialize with sorted keys and floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _subclass_text(obj: Any):
    """The text function of a leaf of a subclass type, None for a dict,
    list or tuple; TypeError for anything else."""
    if isinstance(obj, int):  # bool has no subclasses
        return str
    if isinstance(obj, float):
        return format_float
    if isinstance(obj, str):
        return encode_basestring_ascii
    if isinstance(obj, (dict, list, tuple)):
        return None
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj: Any, out: list[str], nl: str):
    """Append the text of obj, whose line starts after nl (a newline and
    its indent); a list of leaves is one join."""
    kind = type(obj)
    text = _TEXT.get(kind)
    if text is None and kind is not dict and kind is not list and kind is not tuple:
        text = _subclass_text(obj)
    if text is not None:
        out.append(text(obj))
        return
    inner = nl + "  "
    sep = "," + inner
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        head = "{" + inner
        for key in sorted(obj):
            val = obj[key]
            text = _TEXT.get(type(val))
            if text is None:
                out.append(f"{head}{encode_basestring_ascii(str(key))}: ")
                _emit(val, out, inner)
            else:
                out.append(f"{head}{encode_basestring_ascii(str(key))}: {text(val)}")
            head = sep
        out.append(nl + "}")
    else:
        try:
            out.append(f"[{inner}{sep.join([_TEXT[type(item)](item) for item in obj])}{nl}]")
        except KeyError:  # an item that is not a leaf of one of the exact types
            head = "[" + inner
            for item in obj:
                out.append(head)
                _emit(item, out, inner)
                head = sep
            out.append(nl + "]")


# ----------------------------------------------------------------------
# mesh export

def write_obj(f: SurfaceMap, path: str, resolution: int):
    """Triangulated Wavefront OBJ over an n x n parameter grid.

    The grid covers ``f.domain_hint``.  Vertices are emitted row-major in
    u, (n+1)^2 of them, then 2 n^2 triangular faces with 1-based indices.
    They come from one evaluate_grid call: Horner's rule over the grid for
    a polynomial map, one (gamma, xi) value per v column for a ruled one.
    A vertex that is not finite raises CrosscapError, naming its (u, v),
    before the file is opened.
    """
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be an integer in 1..{MAX_RESOLUTION}")
    (u0, u1), (v0, v1) = f.domain_hint
    n = resolution
    us = [u0 + (u1 - u0) * i / n for i in range(n + 1)]
    vs = [v0 + (v1 - v0) * j / n for j in range(n + 1)]
    # + 0.0 writes -0.0 as 0, as format_float does
    points = f.evaluate_grid(us, vs).reshape(-1, 3) + 0.0
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        i, j = divmod(int(bad[0]), n + 1)
        raise CrosscapError(f"mesh vertex at (u, v) = ({format_float(us[i])}, {format_float(vs[j])}) is not finite")
    vertices = "v %.17g %.17g %.17g\n" * len(points) % tuple(points.ravel().tolist())
    # cell (i, j) has corners a, b = a + n + 1 one row on, and their successors in j
    i, j = np.divmod(np.arange(n * n), n)
    a = i * (n + 1) + j + 1
    b = a + n + 1
    faces = np.column_stack([a, b, b + 1, a, b + 1, a + 1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(vertices + "f %d %d %d\n" * (2 * n * n) % tuple(faces.ravel().tolist()))
