"""tools/cli_outputs.py: its runs give the same tree twice, that tree is
the one its manifest records, every report they write is the former
writer's text, and --compare lets numbers move but nothing else."""
from __future__ import annotations

import sys

import pytest

from crosscap import specio
from crosscap.specio import dumps_report

from helpers import CLI_OUTPUTS as TOOL
from helpers import load_cli_outputs, reference_dumps


@pytest.fixture(scope="module")
def tool():
    return load_cli_outputs()


def trees(tmp_path, a: dict, b: dict) -> tuple[str, str]:
    for name, files in (("a", a), ("b", b)):
        root = tmp_path / name
        root.mkdir()
        for rel, text in files.items():
            (root / rel).write_text(text, encoding="utf-8")
    return str(tmp_path / "a"), str(tmp_path / "b")


# the ufunc that reports each overflow: the bracket or |f_v| at the origin
# and the frame recurrence on Python floats (multiply, by jets._checked), the
# normal form's basis (matmul) and the curvatures along asymptotic rays (vecdot)
OVERFLOWS = {
    "scaled.analyze": "multiply",
    "scaled.asymptotics": "multiply",
    "ruled_overflow.analyze": "multiply",
    "ruled_overflow.asymptotics": "multiply",
    "ruled_overflow.classify": "multiply",
    "scaled_tail.analyze": "matmul",
    "scaled_tail.asymptotics": "vecdot",
    "steep_kappa.asymptotics": "multiply",
    "steep_kappa.mesh": "multiply",
}
RESIDUALS = {"steep_kappa.deform.json": 6, "steep_kappa.deform.order.json": 9}
# runs at order 2 on specs with terms above degree 2: the metric route refuses
ORDER2 = {"dup_terms.analyze.order2", "ruled.analyze.order2"}
# ruled specs whose origin is no cross cap
NOT_CROSS_CAPS = {f"{name}.{c}" for name in ("tangent", "cylinder", "cone") for c in ("analyze", "asymptotics")}


def test_two_runs_write_byte_identical_trees(tool, tmp_path, monkeypatch):
    # main puts ROOT/src on sys.path and changes the working directory
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert tool.main([str(TOOL.parent.parent), str(out)]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and files[0]
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    # the tangent developable has a cuspidal edge, the cylinder a regular
    # point and the cone an apex, not a cross cap, at the origin, which
    # classify names; the steep germ's normal form refuses at order 11;
    # bad_terms has a negative power in its fourth entry, bad_rows a true in
    # a row; the scaled germs, kappa' = 1e50 and the ruled speed 1e200
    # overflow in the runs OVERFLOWS names, and the deform sweeps of
    # kappa' = 1e50 refuse by residual, analyze at order 2 refuses the metric
    # route; their other runs exit 0
    lines = (outs[0] / "status.txt").read_text(encoding="utf-8").splitlines()
    runs = [line.split(" ", 1)[0] for line in lines]
    assert set(OVERFLOWS) <= {".".join(run.split(".")[:2]) for run in runs} and set(RESIDUALS) | ORDER2 <= set(runs)
    for line in lines:
        run, rc, err = line.split(" ", 2)
        command = ".".join(run.split(".")[:2])
        if command in OVERFLOWS:
            assert rc == "2" and err == repr(f"analysis failed: overflow encountered in {OVERFLOWS[command]}\n"), line
        elif run in RESIDUALS:
            message = f"analysis failed: second-component residual survived at degree {RESIDUALS[run]}\n"
            assert rc == "2" and err == repr(message), line
        elif run in ORDER2:
            message = "analysis failed: metric route needs first-form order >= 2 (germ order >= 3), got 1\n"
            assert rc == "2" and err == repr(message), line
        elif command in NOT_CROSS_CAPS:
            assert rc == "2" and "not a cross cap" in err, line
        elif run == "steep.analyze.above.json":
            assert rc == "2" and err == repr("analysis failed: second-component residual survived at degree 11\n"), line
        elif run.startswith("bad_terms."):
            assert rc == "1" and err.startswith('"spec error: field \'polynomial[3]\''), line
        elif run.startswith("bad_rows."):
            assert rc == "1" and err == repr("spec error: field 'ruled.xi_poly[1].y': expected a number\n"), line
        else:
            assert rc == "0" and err == "''", line
    for name, verdict in (("cylinder", "regular"), ("cone", "unclassified")):
        assert (outs[0] / f"{name}.classify.txt").read_text(encoding="utf-8") == f"{verdict}\n"


def test_tree_matches_the_manifest(tool, tmp_path, monkeypatch):
    # a change that moves report bytes writes the manifest again
    # (tools/cli_outputs.py --digest OUTDIR) and names each moved file
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(TOOL.parent.parent), str(tmp_path / "out")]) == 0
    problems = tool.check(tmp_path / "out")
    assert not problems, "tree differs from tools/cli_outputs.sha256:\n" + "\n".join(problems)


def test_manifest_check_names_each_file(tool, tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    for name in ("kept.json", "moved.json", "gone.json"):
        (tree / name).write_text(REPORT, encoding="utf-8")
    manifest = tmp_path / "tree.sha256"
    tool.write_manifest(tree, manifest)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == tool.versions() and len(lines) == 4 and lines[1].endswith("  gone.json")
    assert tool.check(tree, manifest) == []
    (tree / "moved.json").write_text(REPORT.replace("-0.5", "-0.6"), encoding="utf-8")
    (tree / "gone.json").unlink()
    (tree / "extra.json").write_text(REPORT, encoding="utf-8")
    assert tool.check(tree, manifest) == ["gone.json: missing", "moved.json: differs", "extra.json: not in the manifest"]
    # other versions alone pass; with a mismatch the message names them
    manifest.write_text("# python 0.0 numpy 0.0\n" + "\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert tool.check(tree, manifest)[-1].startswith("the versions differ: the manifest has 'python 0.0 numpy 0.0'")
    (tree / "moved.json").write_text(REPORT, encoding="utf-8")
    (tree / "gone.json").write_text(REPORT, encoding="utf-8")
    (tree / "extra.json").unlink()
    assert tool.check(tree, manifest) == []


def test_writer_matches_the_former_writer_on_every_report(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    reports = []

    def recording(report):
        reports.append(report)
        return dumps_report(report)

    monkeypatch.setattr(specio, "dumps_report", recording)
    assert tool.main([str(TOOL.parent.parent), str(tmp_path / "out")]) == 0
    status = (tmp_path / "out" / "status.txt").read_text(encoding="utf-8").splitlines()
    assert len(reports) == sum(".json " in line and " 0 " in line for line in status) > 0
    for report in reports:
        assert dumps_report(report) == reference_dumps(report)


REPORT = '{"a02": 2.0, "a20": -0.5, "residual": 1e-15}\n'


def test_identical_trees_print_nothing(tool, tmp_path, capsys):
    files = {"x.analyze.json": REPORT, "status.txt": "x.analyze 0 ''\n"}
    assert tool.compare(*trees(tmp_path, files, files)) == 0
    assert capsys.readouterr().out == ""


def test_changed_number_prints_one_line(tool, tmp_path, capsys):
    moved = REPORT.replace("-0.5", "-0.50000000000000011")
    assert tool.compare(*trees(tmp_path, {"x.json": REPORT}, {"x.json": moved})) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("x.json: 1 numbers changed, worst relative change 2.2e-16")


@pytest.mark.parametrize(
    "a, b, line",
    [
        ({"x.json": REPORT}, {"x.json": REPORT.replace("a20", "a21")}, "x.json: text differs"),
        ({"x.json": REPORT}, {"x.json": REPORT, "y.json": REPORT}, "y.json: only in "),
        ({"x.json": REPORT, "y.json": REPORT}, {"x.json": REPORT}, "y.json: only in "),
    ],
    ids=["changed word", "only in second", "only in first"],
)
def test_other_differences_exit_one(tool, tmp_path, capsys, a, b, line):
    assert tool.compare(*trees(tmp_path, a, b)) == 1
    assert capsys.readouterr().out.startswith(line)


def test_json_line_names_the_changed_fields(tool, tmp_path, capsys):
    # a JSON document names the key paths of its changed values, list
    # indices left out; a text file keeps the line of counts alone
    report = '{"members": [{"a02": 2.0, "residual": 1e-15}], "metric_deviation": [[0, 1e-16], [1e-16, 0]]}\n'
    text = "a02 = 2.0\nresidual 1e-15\n"
    a = {"x.json": report, "x.txt": text}
    b = {"x.json": report.replace("1e-16]", "3e-16]").replace("1e-15", "2e-15"), "x.txt": text.replace("1e-15", "2e-15")}
    assert tool.compare(*trees(tmp_path, a, b)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x.json: 2 numbers changed, 2 round-off figures changed by at most 1e-15 (5e-16 of the largest number);"
        " fields: members.residual, metric_deviation",
        "x.txt: 1 numbers changed, 1 round-off figures changed by at most 1e-15 (5e-16 of the largest number)",
    ]


@pytest.mark.parametrize(
    "text, moved, line",
    [
        # a residual on a germ with large coefficients: counted apart, not
        # as a relative change of 0.17
        ('{"a": [2.2e12, 0.5], "residual": 2.79e-09}\n', ("2.79e-09", "2.33e-09"),
         "x: 1 numbers changed, 1 round-off figures changed by at most 4.6e-10 (2.1e-22 of the largest number);"
         " fields: residual"),
        ("a02=7.5\nroute discrepancy  5.3e-15\n", ("5.3e-15", "1.1e-15"),
         "x: 1 numbers changed, 1 round-off figures changed by at most 4.2e-15 (5.6e-16 of the largest number)"),
        # the entries of a matrix share the heading above them
        ("kappa a02\n0.7 2\npairwise metric deviation (jet coefficients):\n  0  3e-12\n  3e-12  0\n",
         ("3e-12\n", "5e-12\n"),
         "x: 1 numbers changed, 1 round-off figures changed by at most 2e-12 (1e-12 of the largest number)"),
        # a number after a round-off figure has a label of its own
        ('{"residual": 1e-09, "a20": 0.5}\n', ("0.5", "0.25"),
         "x: 1 numbers changed, worst relative change 0.5 (0.5 -> 0.25); fields: a20"),
    ],
    ids=["json residual", "text discrepancy", "text matrix", "label ends"],
)
def test_roundoff_figures_are_counted_apart(tool, tmp_path, capsys, text, moved, line):
    assert tool.compare(*trees(tmp_path, {"x": text}, {"x": text.replace(*moved)})) == 0
    assert capsys.readouterr().out.splitlines() == [line]
