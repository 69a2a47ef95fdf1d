"""Command-line interface.

    crosscap analyze     spec.json [--json] [--out F] [--order N]
    crosscap deform      spec.json [--kappas a,b,c] [--json] [--out F] [--order N]
    crosscap classify    spec.json [--json] [--out F]
    crosscap mesh        spec.json --out F.obj [--resolution n]
    crosscap asymptotics spec.json [--theta t,...] [--radii r,...] [--json] [--out F]

Exit codes: 0 success, 1 usage or parse error, 2 mathematical
precondition failure (the spec parsed but the surface fails a
requirement, e.g. no cross cap at the origin).  The environment
variable CROSSCAP_TOL overrides the default tolerance 1e-9.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, deformation, invariants, ruled, specio, surface
from .errors import CrosscapError, NotACrossCapError, SpecFormatError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a comma list such as "-1,2" is a value, not an option; argparse
        # only lets a single negative number through
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.,eE+-]*$")

    # argparse exits 2 on usage errors by default; the CLI contract
    # reserves 2 for mathematical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crosscap", description="cross cap singularity analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False):
        p.add_argument("spec", help="surface spec JSON file")
        p.add_argument("--json", action="store_true", help="emit the structured report")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if order:
            p.add_argument("--order", type=int, choices=specio.ORDERS, metavar="N", help="jet order override")

    p = sub.add_parser("analyze", help="full invariant report")
    common(p, order=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("deform", help="isometric family sweep")
    common(p, order=True)
    p.add_argument("--kappas", help="comma-separated curvature values replacing the spec's")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("classify", help="ruled-surface singularity class")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("mesh", help="export a triangulated OBJ mesh")
    p.add_argument("spec", help="surface spec JSON file")
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--resolution", type=int, default=32, help="grid cells per side")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("asymptotics", help="radial curvature convergence report")
    common(p)
    p.add_argument("--theta", help="comma-separated ray angles (radians)")
    p.add_argument("--radii", help="comma-separated sample radii")
    p.set_defaults(func=cmd_asymptotics)

    return parser


def _floats(text: str, flag: str) -> list[float]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        values = [float(s) for s in items]
    except ValueError as exc:
        raise SpecFormatError(f"{flag}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise SpecFormatError(f"{flag}: values must be finite")
    return values


def _deliver(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_report(report, args) -> int:
    payload = specio.dumps_report(report) if args.json else specio.report_text(report)
    _deliver(payload, args.out)
    return 0


def cmd_analyze(args, tol: float) -> int:
    spec = specio.load_spec(args.spec)
    order = args.order if args.order is not None else spec.order
    built = specio.build_surface(spec)
    report = specio.invariant_report(built, order=order, tol=tol)
    return _emit_report(report, args)


def cmd_deform(args, tol: float) -> int:
    spec = specio.load_spec(args.spec)
    if spec.kind not in ("circle_deformation", "spherical_deformation"):
        sys.stderr.write("deform needs a circle_deformation or spherical_deformation spec\n")
        return 1
    order = args.order if args.order is not None else spec.order
    p = spec.payload
    if args.kappas is not None:
        kappas = _floats(args.kappas, "--kappas")
        if not kappas:
            sys.stderr.write("--kappas must list at least one value\n")
            return 1
    elif spec.kind == "circle_deformation":
        kappas = [float(p["kappa"])]
    else:
        kappas = [float(p["kappa_poly"][0])]

    tail = tuple(float(c) for c in p.get("kappa_poly", [0.0])[1:])
    members = []
    surfaces = []
    for kap in kappas:
        fam = deformation.deformation_family(p["a02"], p["a11"], (kap,) + tail)
        f = deformation.build_crosscap(fam, order=order)
        rep = specio.invariant_report(
            specio.BuiltSurface(surface=f, family=fam),
            order=order,
            tol=tol,
            with_asymptotics=False,
        )
        b3 = next((val for i, val in rep["normal_form"]["b"] if i == 3), 0.0)
        rep = {"kappa": kap, "b3": b3, **rep}
        members.append(rep)
        surfaces.append(f)

    forms = [surface.first_form(f) for f in surfaces]
    matrix = [[fa.max_coeff_diff(fb) for fb in forms] for fa in forms]
    report = {"members": members, "metric_deviation": matrix}

    if args.json:
        _deliver(specio.dumps_report(report), args.out)
        return 0
    ff = specio.format_float
    lines = ["kappa        a02          a20          a11          b3"]
    for rep in members:
        t = rep["intrinsic"]["map_route"]
        lines.append(
            f"{ff(rep['kappa']):<12} {ff(t['a02']):<12} {ff(t['a20']):<12}"
            f" {ff(t['a11']):<12} {ff(rep['b3'])}"
        )
    lines.append("pairwise metric deviation (jet coefficients):")
    for row in matrix:
        lines.append("  " + "  ".join(ff(x) for x in row))
    _deliver("\n".join(lines) + "\n", args.out)
    return 0


def cmd_classify(args, tol: float) -> int:
    spec = specio.load_spec(args.spec)
    if spec.kind != "ruled":
        sys.stderr.write("classify needs a ruled spec\n")
        return 1
    built = specio.build_surface(spec)
    cls = ruled.classify_singularity(built.surface.ruling, tol=tol)
    if args.json:
        _deliver(specio.dumps_report({"classification": cls}), args.out)
    else:
        _deliver(cls + "\n", args.out)
    return 0


def cmd_mesh(args, tol: float) -> int:
    if not 1 <= args.resolution <= specio.MAX_RESOLUTION:
        sys.stderr.write(f"--resolution must be an integer in 1..{specio.MAX_RESOLUTION}\n")
        return 1
    built = specio.build_surface(specio.load_spec(args.spec))
    specio.write_obj(built.surface, args.out, args.resolution)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def cmd_asymptotics(args, tol: float) -> int:
    spec = specio.load_spec(args.spec)
    built = specio.build_surface(spec)
    f = built.surface
    thetas = _floats(args.theta, "--theta") if args.theta else list(specio.REPORT_THETAS)
    if not thetas:
        sys.stderr.write("--theta must list at least one angle\n")
        return 1
    radii = _floats(args.radii, "--radii") if args.radii else None
    triple = invariants.intrinsic_from_map(f, tol=tol)
    entries = []
    for theta in thetas:
        conv, gap = asymptotics.ray_reports(f, theta, radii, triple=triple)
        entries.append(
            {
                "theta": theta,
                "r2k": list(conv.r2k),
                "r2h": list(conv.r2h),
                "k_limit": conv.k_limit,
                "h_limit": conv.h_limit,
                "k_extrapolated": conv.k_extrapolated,
                "h_extrapolated": conv.h_extrapolated,
                "k_order": None if not math.isfinite(conv.k_order) else conv.k_order,
                "h_order": None if not math.isfinite(conv.h_order) else conv.h_order,
                "converged": conv.passed,
                "gap_limit": gap.limit,
                "gap_negative_k_mode": gap.negative_k_mode,
                "gap_passed": gap.passed,
            }
        )
    report = {"radii": list(conv.radii), "rays": entries}
    if args.json:
        _deliver(specio.dumps_report(report), args.out)
        return 0
    ff = specio.format_float
    lines = []
    for e in entries:
        status = "ok" if e["converged"] and e["gap_passed"] else "FAIL"
        if e["gap_negative_k_mode"]:
            gap_txt = "K<0 along ray"
        else:
            gap_txt = f"r4(H^2-K)->{ff(e['gap_limit'])}"
        lines.append(
            f"theta={ff(e['theta'])}  r2K->{ff(e['k_limit'])}"
            f" (measured {ff(e['k_extrapolated'])})  r2H->{ff(e['h_limit'])}"
            f" (measured {ff(e['h_extrapolated'])})  {gap_txt}  [{status}]"
        )
    _deliver("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    raw_tol = os.environ.get("CROSSCAP_TOL")
    tol = surface.DEFAULT_TOL
    if raw_tol is not None:
        try:
            tol = float(raw_tol)
        except ValueError:
            sys.stderr.write(f"CROSSCAP_TOL is not a number: {raw_tol!r}\n")
            return 1
        if tol <= 0.0:
            sys.stderr.write("CROSSCAP_TOL must be positive\n")
            return 1

    try:
        # overflow and invalid values fail loudly, like the arithmetic errors
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args, tol)
    except SpecFormatError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 1
    except NotACrossCapError as exc:
        sys.stderr.write(f"not a cross cap: {exc}\n")
        return 2
    except (CrosscapError, ArithmeticError) as exc:
        sys.stderr.write(f"analysis failed: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
