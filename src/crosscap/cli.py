"""Command-line interface.

    crosscap analyze     spec.json [--json] [--out F] [--order N]
    crosscap deform      spec.json [--kappas a,b,c] [--json] [--out F] [--order N]
    crosscap classify    spec.json [--json] [--out F]
    crosscap mesh        spec.json --out F.obj [--resolution n]
    crosscap asymptotics spec.json [--theta t,...] [--radii r,...] [--json] [--out F]

``main`` is the one path from spec to output.  It loads the spec, sets
its order to ``--order`` where given, so that analyze and deform build and
reduce the surface at that order, and checks that the command accepts
the spec's kind.  A report command returns its report and a text
renderer; ``main`` writes the report as JSON under ``--json``, else as
text, to ``--out`` or stdout.  mesh writes its OBJ file itself.

Exit codes: 0 success, 1 usage or parse error, 2 mathematical
precondition failure (the spec parsed but the surface fails a
requirement, e.g. no cross cap at the origin).  After argument parsing,
a spec or flag value that cannot be used (a malformed spec, a spec of a
kind the command does not take, an empty or non-finite comma list, a
radius that is not positive, fewer than two distinct radii once clamped
to asymptotics.MIN_RADIUS, radii only round-off apart, a resolution out
of range) exits 1 with one ``spec error:`` line on stderr.  The
environment variable CROSSCAP_TOL overrides the default tolerance 1e-9
and must be positive and finite.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, invariants, ruled, specio, surface
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crosscap", description="cross cap singularity analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, kinds=specio.SPEC_KINDS, order=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="surface spec JSON file")
        p.add_argument("--json", action="store_true", help="emit the structured report")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if order:
            p.add_argument(
                "--order", type=int, choices=specio.ORDERS, metavar="N",
                help="jet order at which the surface is built and reduced",
            )
        p.set_defaults(func=func, kinds=kinds, order=None)
        return p

    command("analyze", cmd_analyze, "full invariant report", order=True)
    p = command("deform", cmd_deform, "isometric family sweep", specio.FAMILY_KINDS, order=True)
    p.add_argument("--kappas", help="comma-separated curvature values replacing the spec's")
    command("classify", cmd_classify, "ruled-surface singularity class", ("ruled",))

    p = sub.add_parser("mesh", help="export a triangulated OBJ mesh")
    p.add_argument("spec", help="surface spec JSON file")
    # the OBJ path, not where the report goes: mesh prints one line to stdout
    p.add_argument("--out", dest="obj", metavar="OUT", required=True, help="output OBJ path")
    p.add_argument("--resolution", type=int, default=32, help="grid cells per side")
    p.set_defaults(func=cmd_mesh, kinds=specio.SPEC_KINDS, order=None, json=False, out=None)

    p = command("asymptotics", cmd_asymptotics, "radial curvature convergence report")
    p.add_argument("--theta", help="comma-separated ray angles (radians)")
    p.add_argument("--radii", help="comma-separated sample radii")

    return parser


def _floats(text: str, flag: str) -> list[float]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        values = [float(s) for s in items]
    except ValueError as exc:
        raise SpecFormatError(f"{flag}: {exc}") from exc
    if not values:
        raise SpecFormatError(f"{flag}: expected at least one value")
    if not all(map(math.isfinite, values)):
        raise SpecFormatError(f"{flag}: values must be finite")
    return values


def cmd_analyze(spec: specio.SurfaceSpec, args, tol: float):
    report = specio.invariant_report(specio.build_surface(spec), order=spec.order, tol=tol)
    return report, specio.report_text


def cmd_deform(spec: specio.SurfaceSpec, args, tol: float):
    kappa_poly = spec.payload["kappa_poly"]
    kappas = kappa_poly[:1] if args.kappas is None else _floats(args.kappas, "--kappas")
    members = []
    forms = []
    for kap in kappas:
        member = spec._replace(payload={**spec.payload, "kappa_poly": (kap, *kappa_poly[1:])})
        built = specio.build_surface(member)
        rep = specio.invariant_report(built, order=spec.order, tol=tol, with_asymptotics=False)
        b3 = next((val for i, val in rep["normal_form"]["b"] if i == 3), 0.0)
        members.append({"kappa": kap, "b3": b3, **rep})
        forms.append(surface.first_form(built.surface))
    tables = np.array([[ff.E.c, ff.F.c, ff.G.c] for ff in forms])  # members share the spec order
    matrix = np.abs(tables[:, None] - tables[None, :]).max(axis=(2, 3, 4)).tolist()
    return {"members": members, "metric_deviation": matrix}, _deform_text


def _deform_text(report: dict) -> str:
    ff = specio.format_float
    lines = ["kappa        a02          a20          a11          b3"]
    for rep in report["members"]:
        t = rep["intrinsic"]["map_route"]
        lines.append(
            f"{ff(rep['kappa']):<12} {ff(t['a02']):<12} {ff(t['a20']):<12}"
            f" {ff(t['a11']):<12} {ff(rep['b3'])}"
        )
    lines.append("pairwise metric deviation (jet coefficients):")
    for row in report["metric_deviation"]:
        lines.append("  " + "  ".join(ff(x) for x in row))
    return "\n".join(lines) + "\n"


def cmd_classify(spec: specio.SurfaceSpec, args, tol: float):
    cls = ruled.classify_singularity(specio.build_surface(spec).surface, tol=tol)
    return {"classification": cls}, lambda report: report["classification"] + "\n"


def cmd_mesh(spec: specio.SurfaceSpec, args, tol: float):
    if not 1 <= args.resolution <= specio.MAX_RESOLUTION:
        raise SpecFormatError(f"--resolution must be an integer in 1..{specio.MAX_RESOLUTION}")
    specio.write_obj(specio.build_surface(spec).surface, args.obj, args.resolution)
    return None, lambda report: f"wrote {args.obj}\n"


def cmd_asymptotics(spec: specio.SurfaceSpec, args, tol: float):
    f = specio.build_surface(spec).surface
    thetas = specio.REPORT_THETAS if args.theta is None else _floats(args.theta, "--theta")
    radii = None if args.radii is None else _floats(args.radii, "--radii")
    if radii is not None and min(radii) <= 0.0:
        raise SpecFormatError("--radii: values must be positive")
    if radii is not None and len({max(r, asymptotics.MIN_RADIUS) for r in radii}) < 2:
        raise SpecFormatError(f"--radii: need two distinct radii of at least {asymptotics.MIN_RADIUS:g}")
    triple = invariants.intrinsic_from_map(f, tol=tol)
    try:
        rays = [asymptotics.ray_reports(f, theta, radii, triple=triple) for theta in thetas]
    except asymptotics.SpreadError:
        raise SpecFormatError("--radii: radii only round-off apart fix no decay line") from None
    entries = [
        {
            "theta": theta,
            "r2k": list(conv.r2k),
            "r2h": list(conv.r2h),
            "k_limit": conv.k_limit,
            "h_limit": conv.h_limit,
            "k_extrapolated": conv.k_extrapolated,
            "h_extrapolated": conv.h_extrapolated,
            "k_order": conv.k_order,
            "h_order": conv.h_order,
            "converged": conv.passed,
            "gap_limit": gap.limit,
            "gap_negative_k_mode": gap.negative_k_mode,
            "gap_passed": gap.passed,
        }
        for theta, (conv, gap) in zip(thetas, rays)
    ]
    return {"radii": list(rays[0][0].radii), "rays": entries}, _asymptotics_text


def _asymptotics_text(report: dict) -> str:
    ff = specio.format_float
    lines = []
    for e in report["rays"]:
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
    return "\n".join(lines) + "\n"


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
        if not 0.0 < tol < math.inf:
            sys.stderr.write("CROSSCAP_TOL must be positive and finite\n")
            return 1

    try:
        # overflow and invalid values fail loudly, like the arithmetic errors
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            spec = specio.load_spec(args.spec)
            if args.order is not None:
                spec = spec._replace(order=args.order)
            if spec.kind not in args.kinds:
                raise SpecFormatError(f"{args.command} needs a {' or '.join(args.kinds)} spec")
            report, render = args.func(spec, args, tol)
            payload = specio.dumps_report(report) if args.json else render(report)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            else:
                sys.stdout.write(payload)
        return 0
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
