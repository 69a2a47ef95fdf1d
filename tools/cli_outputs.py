"""Write the output of every crosscap command on fixed specs to a directory,
compare two such directories number by number, or record a tree's digests.

    python tools/cli_outputs.py ROOT OUTDIR
    python tools/cli_outputs.py --compare OUT_A OUT_B
    python tools/cli_outputs.py --digest OUTDIR

imports crosscap from ROOT/src and runs each command through
``cli.main`` inside OUTDIR, with relative paths, so that two checkouts
give byte-identical trees exactly when their outputs agree:

    python tools/cli_outputs.py parent out-parent
    python tools/cli_outputs.py .      out-change
    diff -r out-parent out-change

For each run, ``NAME.txt`` holds its stdout and ``NAME.json`` or
``NAME.obj`` the file written with ``--out``; ``status.txt`` lists each
run's exit code and stderr.

``--compare`` prints, for each file that differs between two trees, how
many numbers changed and the worst relative change |a - b| / max(|a|, |b|).
Round-off figures are counted apart, with their largest absolute change
and that change over the largest number in the file: numbers below TINY
on both sides, and the figures that measure a difference of quantities
equal in exact arithmetic (a normal form residual, a route discrepancy,
a metric deviation), whatever their size.  A number's label is the last
line with a letter in the text before it, so the entries of a list or
matrix share the label of the key or heading above them.  For a JSON
document (a ``--out`` report, the stdout of a ``--json`` run) it also names the key
paths of the changed values, list indices left out, so that
``metric_deviation`` stands for any of its entries.  It exits 1 if
anything other than numbers differs: a word, a layout, a file present in
one tree only.

``--digest`` writes this checkout's tree to OUTDIR and its manifest to
``tools/cli_outputs.sha256``: a header line with the Python and numpy
versions, then one ``SHA256  PATH`` line per file, sorted by path, as
``sha256sum -c`` reads them inside the tree.  ``check`` names each file of
a tree that differs from the manifest, is missing from the tree or is not
in the manifest, and says so when the versions differ too.  A change that
moves report bytes writes the manifest again and names each moved file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

# the standard cross cap (u, uv, v^2) with terms up to degree 6
GERM = [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0.25, -0.5],
        [0, 3, 0.1, 0, 0.3], [1, 2, 0, -0.2, 0.15], [2, 2, 0.05, 0, -0.1], [0, 6, 0, 0, 0.01]]

# an order-8 germ with f_u off every axis, coefficients that are not short
# binary fractions and a negative bracket, so that the domain flip runs and
# round-off in either intrinsic route shows in the last digits
OFF_AXIS = [[1, 0, 0.6, -0.55, 0.45], [1, 1, 0.35, 0.55, -0.3], [0, 2, 0.25, -0.3, -0.45],
            [2, 0, -0.35, 0.1, 0.7], [0, 3, 0.3, 0.1, -0.2], [2, 1, 0.1, -0.3, 0.15],
            [1, 2, -0.15, 0.2, 0.1], [3, 0, 0.05, 0.1, -0.1], [2, 2, 0.1, 0.05, -0.3],
            [0, 4, -0.1, 0.3, 0.05], [1, 3, 0.07, -0.02, 0.11], [3, 2, -0.03, 0.09, 0.01],
            [0, 5, 0.02, -0.06, 0.04], [4, 4, 0.01, 0.03, -0.02], [0, 8, -0.01, 0.02, 0.03]]

# an order-8 germ with modest coefficients whose domain change grows to
# about 1e11 at degree 11, so that the normal form refuses at order 11
STEEP = [[1, 0, 0.3, -0.7, 0.45], [1, 1, 0.2, 0.55, -0.35], [0, 2, 0.15, -0.4, -0.6],
         [2, 0, -0.35, 0.1, 0.7], [0, 3, 0.3, 0.1, -0.2], [2, 1, 0.1, -0.3, 0.15],
         [1, 2, -0.15, 0.2, 0.1], [3, 0, 0.05, 0.1, -0.1], [2, 2, 0.1, 0.05, -0.3],
         [0, 4, -0.1, 0.3, 0.05], [1, 3, 0.07, -0.02, 0.11], [3, 2, -0.03, 0.09, 0.01],
         [0, 5, 0.02, -0.06, 0.04], [4, 4, 0.01, 0.03, -0.02], [0, 8, -0.01, 0.02, 0.03]]

# a cross cap whose u v, v^2 and u^2 terms are split across entries
DUP_TERMS = [[1, 0, 1, 0, 0], [1, 1, 0, 0.5, 0], [0, 2, 0, 0, 1], [1, 1, 0.25, 0.5, 0], [2, 0, 0, 1, -0.5],
             [0, 2, 0.125, 0, 0], [2, 0, 0.3, -0.75, 0.2], [1, 1, -0.25, 0, 0.1], [0, 3, 0, 0.2, 0.3],
             [0, 7, 0.01, 0, -0.02]]

# the germ scaled by 1e110, every entry or only those of degree >= 3: its
# bracket overflows at the origin on Python floats, or the normal form's
# basis overflows in a matrix product
SCALED = [[j, k, *(1e110 * x for x in xyz)] for j, k, *xyz in GERM]
SCALED_TAIL = [[j, k, *(1e110 * x if j + k >= 3 else x for x in xyz)] for j, k, *xyz in GERM]

# cos v and sin v to degree 8
COS = [1.0, 0.0, -1 / 2, 0.0, 1 / 24, 0.0, -1 / 720, 0.0, 1 / 40320]
SIN = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040, 0.0]

SPECS = {
    "quadratic": {"quadratic_crosscap": {"a20": -1, "a11": 0, "a02": 1}},
    "circle": {"circle_deformation": {"kappa": 0.7, "a02": 2, "a11": -0.3},
               "domain": [[-0.5, 0.75], [-1, 1.25]]},
    "poly_kappa": {"spherical_deformation": {"kappa_poly": [0.5, -0.4, 0.2], "a02": 1.5, "a11": 0.25},
                   "order": 8},
    "germ12": {"polynomial": GERM, "order": 12},
    "ruled": {"ruled": {"gamma_poly": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "xi_poly": [[1, 0, 0], [0, 1, 0]]}},
    # the same unbacked ruled surface on a domain other than the default,
    # which its mesh covers
    "ruled_domain": {"ruled": {"gamma_poly": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "xi_poly": [[1, 0, 0], [0, 1, 0]]},
                     "domain": [[-0.5, 0.75], [-1.2, 0.9]]},
    # the tangent developable of (v, v^2/2, v^3/6): its classify goes
    # through normalize and frame_coefficients to a cuspidal edge
    "tangent": {"ruled": {"gamma_poly": [[0, 0, 0], [1, 0, 0], [0, 0.5, 0], [0, 0, 1 / 6]],
                          "xi_poly": [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]]}},
    "off_axis": {"polynomial": OFF_AXIS, "order": 8},
    # analyze.above.json (order 11) exits 2: a residual survives at degree 11
    "steep": {"polynomial": STEEP, "order": 8},
    # a quartic curvature: its curvature series in v takes powers of the
    # arc length above the square that a quadratic needs
    "quartic_kappa": {"spherical_deformation": {"kappa_poly": [-0.3, 0.5, 0.2, -0.15, 0.1], "a02": 0.9, "a11": 0.6},
                      "order": 7, "domain": [[-0.6, 0.9], [-0.8, 1.0]]},
    # monomials repeated across entries, whose coefficients are summed,
    # int and float coefficients mixed, and a term above the order
    "dup_terms": {"polynomial": DUP_TERMS, "order": 5},
    # one bad entry: the entry-by-entry checks name it (every run exits 1)
    "bad_terms": {"polynomial": [*DUP_TERMS[:3], [2, -1, 0, 0, 1], *DUP_TERMS[3:]]},
    # the ruled spec with a JSON true in a row: the row-by-row checks name it
    "bad_rows": {"ruled": {"gamma_poly": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "xi_poly": [[1, 0, 0], [0, True, 0]]}},
    # overflow refusals, one for each kind of check: Python floats at the
    # origin, a matrix product in the normal form, and the frame recurrence
    # on Python floats
    "scaled": {"polynomial": SCALED, "order": 12},
    "scaled_tail": {"polynomial": SCALED_TAIL, "order": 12},
    "steep_kappa": {"spherical_deformation": {"kappa_poly": [0, 1e50], "a02": 2, "a11": 0}},
    # a cylinder and a cone over the unit circle: classify finds a regular
    # point on the first and leaves the apex of the second unclassified
    "cylinder": {"ruled": {"gamma_poly": [[c, s, 0] for c, s in zip(COS, SIN)], "xi_poly": [[0, 0, 1]]}},
    "cone": {"ruled": {"gamma_poly": [[0, 0, 0]], "xi_poly": [[c, s, 0] for c, s in zip(COS, SIN)]}},
    # a directrix of speed 1e200, whose |f_v| overflows at the origin on
    # Python floats: every command that reads the origin refuses alike
    "ruled_overflow": {"ruled": {"gamma_poly": [[0, 0, 0], [1e200, 0, 0], [0, 0, 1]],
                                 "xi_poly": [[1, 0, 0], [0, 1, 0]]}},
}
FAMILY = ("circle", "poly_kappa", "quartic_kappa", "steep_kappa")
# specs with terms above degree 2, analyzed at order 2, where the metric route refuses
ORDER2 = ("dup_terms", "ruled")


def runs(name: str, doc: dict) -> dict[str, list[str]]:
    """Run name -> argv of every command that accepts this spec."""
    spec = f"{name}.spec.json"
    order = doc.get("order", 6)
    out = {
        "analyze": ["analyze", spec],
        "analyze.json": ["analyze", spec, "--json", "--out", f"{name}.analyze.json"],
        "analyze.below.json": ["analyze", spec, "--json", "--order", str(order - 2)],
        "analyze.above.json": ["analyze", spec, "--json", "--order", str(min(order + 3, 12))],
        "asymptotics": ["asymptotics", spec],
        "asymptotics.json": ["asymptotics", spec, "--json", "--theta=-0.5,1.2", "--radii", "0.1,0.01,0.001"],
        # both axis rays, where the gap report records K < 0, on the fewest radii a fit takes
        "asymptotics.axis.json": ["asymptotics", spec, "--json",
                                  "--theta=1.5707963267948966,-1.5707963267948966,0", "--radii", "0.01,0.001"],
        "mesh": ["mesh", spec, "--out", f"{name}.mesh.obj", "--resolution", "24"],
    }
    if name in ORDER2:
        out["analyze.order2"] = ["analyze", spec, "--order", "2"]
    if order == 12:  # no order above the largest
        del out["analyze.above.json"]
    if name in FAMILY:
        out["deform"] = ["deform", spec]
        out["deform.json"] = ["deform", spec, "--kappas=-1,0.5,2", "--json", "--out", f"{name}.deform.json"]
        out["deform.order.json"] = ["deform", spec, "--kappas", "0.3", "--json", "--order", "10"]
    if "ruled" in doc:
        out["classify"] = ["classify", spec]
        out["classify.json"] = ["classify", spec, "--json"]
    return out


# a number that is not part of a name such as a02 or r2K
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# numbers below this size on both sides are round-off: their change is
# reported absolutely
TINY = 1e-12

# labels of round-off figures of any size: a residual grows with the
# coefficients it is the round-off of, so its relative change is noise
ROUNDOFF_LABEL = re.compile(r"residual|discrepancy|deviation")
LETTER = re.compile(r"[A-Za-z]")


def _roundoff_labels(text: str) -> list[bool]:
    """For each number in text, whether its label names a round-off figure."""
    flags, roundoff = [], False
    for piece in NUMBER.split(text)[:-1]:
        lines = [line for line in piece.splitlines() if LETTER.search(line)]
        if lines:
            roundoff = bool(ROUNDOFF_LABEL.search(lines[-1]))
        flags.append(roundoff)
    return flags


def _describe(ta: str, tb: str) -> str:
    """How the numbers of two texts of one layout differ."""
    numbers = [
        (x, y, float(x), float(y), labelled)
        for x, y, labelled in zip(NUMBER.findall(ta), NUMBER.findall(tb), _roundoff_labels(ta))
    ]
    scale = max(max(abs(a), abs(b)) for _, _, a, b, _ in numbers)
    changed = [(x, y, a, b, labelled or max(abs(a), abs(b)) < TINY) for x, y, a, b, labelled in numbers if x != y]
    roundoff = [abs(a - b) for _, _, a, b, is_roundoff in changed if is_roundoff]
    sized = [(abs(a - b) / max(abs(a), abs(b)), x, y) for x, y, a, b, is_roundoff in changed if not is_roundoff]
    parts = [f"{len(changed)} numbers changed"]
    if sized:
        worst, x, y = max(sized)
        parts.append(f"worst relative change {worst:.2g} ({x} -> {y})")
    if roundoff:
        worst = max(roundoff)
        share = worst / scale if worst else 0.0
        parts.append(f"{len(roundoff)} round-off figures changed by at most {worst:.2g} ({share:.2g} of the largest number)")
    return ", ".join(parts)


def _leaves(doc, path: str = ""):
    """(key path, value) for every value in a JSON document, in order."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for val in doc:
            yield from _leaves(val, path)
    else:
        yield path, doc


def _fields(ta: str, tb: str) -> str:
    """"; fields: PATH, ..." for the values that differ between two JSON
    documents of the same layout, or "" if either is not JSON."""
    try:
        pairs = zip(_leaves(json.loads(ta)), _leaves(json.loads(tb)))
    except ValueError:
        return ""
    # only numbers differ, so a NaN (which equals nothing) stands on both sides
    paths = [p for (p, x), (_, y) in pairs if x != y and x == x and p]
    return "; fields: " + ", ".join(dict.fromkeys(paths)) if paths else ""


def compare(tree_a: str, tree_b: str) -> int:
    """Report numeric changes file by file; 1 if any other text differs."""
    a_dir, b_dir = Path(tree_a), Path(tree_b)
    names = sorted(
        {p.relative_to(d).as_posix() for d in (a_dir, b_dir) for p in d.rglob("*") if p.is_file()}
    )
    text_differs = False
    for name in names:
        pa, pb = a_dir / name, b_dir / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {tree_a if pa.is_file() else tree_b}")
            text_differs = True
            continue
        ta, tb = pa.read_text(encoding="utf-8"), pb.read_text(encoding="utf-8")
        if ta == tb:
            continue
        if NUMBER.split(ta) != NUMBER.split(tb):
            print(f"{name}: text differs")
            text_differs = True
            continue
        print(f"{name}: {_describe(ta, tb)}{_fields(ta, tb)}")
    return 1 if text_differs else 0


MANIFEST = Path(__file__).resolve().with_suffix(".sha256")


def versions() -> str:
    """The manifest's header: the Python and numpy versions of this process."""
    import numpy

    return f"# python {platform.python_version()} numpy {numpy.__version__}"


def digests(tree) -> dict[str, str]:
    """Relative path -> SHA-256 of every file of a tree, sorted by path."""
    root = Path(tree)
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files}


def write_manifest(tree, manifest: Path = MANIFEST) -> None:
    lines = [versions()] + [f"{sha}  {name}" for name, sha in digests(tree).items()]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check(tree, manifest: Path = MANIFEST) -> list[str]:
    """One line per file of a tree that differs from the manifest, is
    missing or is extra, then whether the versions differ; empty if none."""
    header, *lines = manifest.read_text(encoding="utf-8").splitlines()
    want = dict(reversed(line.split("  ", 1)) for line in lines)
    have = digests(tree)
    problems = [f"{name}: {'differs' if name in have else 'missing'}" for name in want if want[name] != have.get(name)]
    problems += [f"{name}: not in the manifest" for name in have if name not in want]
    if problems and header != versions():
        problems.append(f"the versions differ: the manifest has {header[2:]!r}, this process {versions()[2:]!r}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "--digest":
        outdir = Path(argv[1]).resolve()
        main([str(MANIFEST.parent.parent), str(outdir)])
        write_manifest(outdir)
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    root, outdir = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    from crosscap import cli

    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    status = []
    for name, doc in SPECS.items():
        Path(f"{name}.spec.json").write_text(json.dumps(doc), encoding="utf-8")
        for tag, args in runs(name, doc).items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(args)
            Path(f"{name}.{tag}.txt").write_text(stdout.getvalue(), encoding="utf-8")
            status.append(f"{name}.{tag} {rc} {stderr.getvalue()!r}\n")
    Path("status.txt").write_text("".join(status), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
