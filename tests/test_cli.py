"""End-to-end command-line checks driven through main(argv)."""
from __future__ import annotations

import json
import math
import time

import pytest

from crosscap.cli import main
from crosscap.specio import dumps_report

COS_ROWS = [1.0, 0.0, -1 / 2, 0.0, 1 / 24, 0.0, -1 / 720, 0.0, 1 / 40320]
SIN_ROWS = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040, 0.0]
ONE_MINUS_COS = [1.0 - c if k == 0 else -c for k, c in enumerate(COS_ROWS)]
ONE_MINUS_COS[0] = 0.0

STD_RULED = {
    "ruled": {
        "gamma_poly": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        "xi_poly": [[1, 0, 0], [0, 1, 0]],
    }
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def quadratic_spec(a20=0.0, a11=0.0, a02=2.0, **extra):
    return {"quadratic_crosscap": {"a20": a20, "a11": a11, "a02": a02}, **extra}


def test_analyze_text_classification(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec(a20=-1.0, a11=0.0, a02=1.0))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "hyperbolic" in out
    assert "ellipse" in out
    assert "cross cap" in out


def test_analyze_json_is_deterministic_and_roundtrips(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec(a20=0.7, a11=-0.3, a02=1.9))
    assert main(["analyze", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert dumps_report(parsed) == first
    assert parsed["crosscap"]["is_crosscap"] is True


def test_analyze_order_override(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    assert main(["analyze", path, "--json", "--order", "3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["normal_form"]["order"] == 3


def test_analyze_out_file(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    target = tmp_path / "report.json"
    assert main(["analyze", path, "--json", "--out", str(target)]) == 0
    parsed = json.loads(target.read_text(encoding="utf-8"))
    assert parsed["intrinsic"]["map_route"]["a02"] == pytest.approx(2.0, abs=1e-9)


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "quadratic_crosscap: {}\n}', encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "spec error" in capsys.readouterr().err


def test_spec_validation_failures(tmp_path, capsys):
    two = {**quadratic_spec(), "polynomial": [[1, 0, 1.0, 0.0, 0.0]]}
    assert main(["analyze", write_spec(tmp_path, two, "two.json")]) == 1
    assert "exactly one" in capsys.readouterr().err

    assert main(["analyze", write_spec(tmp_path, quadratic_spec(order=0), "ord.json")]) == 1
    assert "order" in capsys.readouterr().err

    assert main(["analyze", write_spec(tmp_path, quadratic_spec(a02=-1.0), "neg.json")]) == 1
    assert "positive" in capsys.readouterr().err

    nan = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0, math.nan]]}
    assert main(["analyze", write_spec(tmp_path, nan, "nan.json"), "--json"]) == 1
    assert "polynomial[3].z" in capsys.readouterr().err


def test_overflowing_coefficients_exit_two(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1e307, 0, 0], [1, 1, 0, 1e307, 0], [0, 2, 0, 0, 1e307]]}
    assert main(["analyze", write_spec(tmp_path, doc), "--json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("analysis failed")


def test_immersion_exits_two(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1.0, 0.0, 0.0], [0, 1, 0.0, 1.0, 0.0]]}
    assert main(["analyze", write_spec(tmp_path, doc)]) == 2
    assert "not a cross cap" in capsys.readouterr().err


def test_deform_sweep_json(tmp_path, capsys):
    doc = {"circle_deformation": {"kappa": 0.0, "a02": 2.0, "a11": 0.0}}
    path = write_spec(tmp_path, doc)
    assert main(["deform", path, "--kappas", "0,1,3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    b3s = [m["b3"] for m in report["members"]]
    for got, expect in zip(b3s, (0.0, -4.0, -12.0)):
        assert got == pytest.approx(expect, abs=1e-6)
    for row in report["metric_deviation"]:
        for entry in row:
            assert entry < 1e-9


def test_deform_rejections(tmp_path, capsys):
    doc = {"circle_deformation": {"kappa": 0.0, "a02": 2.0, "a11": 0.0}}
    assert main(["deform", write_spec(tmp_path, doc), "--kappas", ","]) == 1
    capsys.readouterr()
    assert main(["deform", write_spec(tmp_path, doc), "--kappas=nan"]) == 1
    assert "finite" in capsys.readouterr().err
    poly = {"polynomial": [[1, 0, 1.0, 0.0, 0.0]]}
    assert main(["deform", write_spec(tmp_path, poly, "p.json")]) == 1
    assert "deform needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("deform", "--kappas", "-1,2"), ("asymptotics", "--theta", "-0.5,1"), ("asymptotics", "--radii", "-0.2,0.1")],
)
def test_comma_list_may_start_negative(tmp_path, capsys, command, flag, value):
    doc = {"circle_deformation": {"kappa": 0.0, "a02": 2.0, "a11": 0.0}}
    path = write_spec(tmp_path, doc if command == "deform" else quadratic_spec())
    joined = (main([command, path, f"{flag}={value}", "--json"]), capsys.readouterr())
    split = (main([command, path, flag, value, "--json"]), capsys.readouterr())
    assert joined[0] == 0
    assert split == joined


def test_classify_cross_cap(tmp_path, capsys):
    assert main(["classify", write_spec(tmp_path, STD_RULED)]) == 0
    assert capsys.readouterr().out.strip() == "cross_cap"


def test_classify_cuspidal_edge(tmp_path, capsys):
    doc = {
        "ruled": {
            "gamma_poly": [[s, c, 0.0] for s, c in zip(SIN_ROWS, ONE_MINUS_COS)],
            "xi_poly": [[c, s, 0.0] for c, s in zip(COS_ROWS, SIN_ROWS)],
        }
    }
    assert main(["classify", write_spec(tmp_path, doc)]) == 0
    assert capsys.readouterr().out.strip() == "cuspidal_edge"


def test_classify_regular_and_unclassified(tmp_path, capsys):
    cylinder = {
        "ruled": {
            "gamma_poly": [[c, s, 0.0] for c, s in zip(COS_ROWS, SIN_ROWS)],
            "xi_poly": [[0, 0, 1]],
        }
    }
    assert main(["classify", write_spec(tmp_path, cylinder, "cyl.json")]) == 0
    assert capsys.readouterr().out.strip() == "regular"

    cone = {
        "ruled": {
            "gamma_poly": [[0, 0, 0]],
            "xi_poly": [[c, s, 0.0] for c, s in zip(COS_ROWS, SIN_ROWS)],
        }
    }
    assert main(["classify", write_spec(tmp_path, cone, "cone.json")]) == 0
    assert capsys.readouterr().out.strip() == "unclassified"


def test_classify_json_and_non_ruled(tmp_path, capsys):
    assert main(["classify", write_spec(tmp_path, STD_RULED), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"classification": "cross_cap"}
    assert main(["classify", write_spec(tmp_path, quadratic_spec(), "q.json")]) == 1
    assert "ruled spec" in capsys.readouterr().err


def test_mesh_small_grid(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    target = tmp_path / "out.obj"
    assert main(["mesh", path, "--out", str(target), "--resolution", "2"]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    lines = target.read_text(encoding="utf-8").splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 9
    assert len(faces) == 8
    assert verts[4] == "v 0 0 0"


def test_mesh_resolution_validation(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    assert main(["mesh", path, "--out", str(tmp_path / "x.obj"), "--resolution", "0"]) == 1
    assert "resolution" in capsys.readouterr().err


def test_mesh_family_member_obj_is_valid(tmp_path, capsys):
    doc = {"circle_deformation": {"kappa": 3.0, "a02": 2.0, "a11": 0.0}}
    path = write_spec(tmp_path, doc)
    target = tmp_path / "member.obj"
    assert main(["mesh", path, "--out", str(target), "--resolution", "8"]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 81 and len(faces) == 128
    for face in faces:
        idx = [int(tok) for tok in face.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(verts) for i in idx)
    for vert in verts:
        assert all(math.isfinite(float(tok)) for tok in vert.split()[1:])


def test_mesh_refuses_stiff_curvature_quickly(tmp_path, capsys):
    doc = {"spherical_deformation": {"kappa_poly": [0, 1e6], "a02": 2, "a11": 0}}
    start = time.perf_counter()
    rc = main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "x.obj"), "--resolution", "4"])
    assert rc == 2
    assert time.perf_counter() - start < 2.0
    assert "curvature too large" in capsys.readouterr().err


def test_asymptotics_json_and_text(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    assert main(["asymptotics", path, "--theta", "0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    ray = report["rays"][0]
    assert ray["converged"] is True
    assert ray["k_order"] is None  # exact along this ray, no finite decay fit
    assert len(report["radii"]) == len(ray["r2k"])

    assert main(["asymptotics", path]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out

    assert main(["asymptotics", path, "--theta", ","]) == 1
    assert "--theta" in capsys.readouterr().err


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, quadratic_spec())
    monkeypatch.setenv("CROSSCAP_TOL", "1e-7")
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CROSSCAP_TOL", "abc")
    assert main(["analyze", path]) == 1
    assert "not a number" in capsys.readouterr().err
    monkeypatch.setenv("CROSSCAP_TOL", "-1")
    assert main(["analyze", path]) == 1
    assert "positive" in capsys.readouterr().err


def test_no_arguments_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()
