"""End-to-end command-line checks driven through main(argv)."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosscap.cli import cmd_deform, main
from crosscap.deformation import degenerate_first_form, degenerate_quadratic, verify_isometry
from crosscap.errors import CrosscapError
from crosscap.specio import (
    MAX_DEGREE,
    MAX_RESOLUTION,
    build_surface,
    dumps_report,
    format_float,
    parse_spec,
    write_obj,
)
from crosscap.surface import SurfaceMap, first_form

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


FAMILY_SPEC = {"circle_deformation": {"kappa": 0.0, "a02": 2.0, "a11": 0.0}}


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


def test_order_2_refuses_the_metric_route(tmp_path, capsys):
    # an order-2 germ has an order-1 first form, too short for the metric route
    for command, doc in (("analyze", quadratic_spec(a20=0.5, a11=0.3, a02=1.0)), ("deform", FAMILY_SPEC)):
        assert main([command, write_spec(tmp_path, doc), "--order", "2"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("analysis failed") and "order >= 2" in err


def test_main_calls_share_no_flag_values(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec(order=5))
    assert main(["analyze", path, "--json", "--order", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"]["order"] == 3
    assert main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"]["order"] == 5
    obj = tmp_path / "m.obj"
    assert main(["mesh", path, "--out", str(obj), "--resolution", "2"]) == 0
    assert capsys.readouterr().out == f"wrote {obj}\n"
    assert main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"]["order"] == 5


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


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"quadratic_crosscap": {"a20": 1, "a11": 0, "a02": 2}, "note": "\xff"}', "byte 64 is not UTF-8"),
        (b'{"polynomial": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "nested too deep"),
        (b'{"quadratic_crosscap": {"a20": 1, "a11": 0, "a02": ' + b"9" * 4301 + b"}}", "4301 digits"),
    ],
    ids=["not-utf8", "nested-100000-deep", "integer-of-4301-digits"],
)
def test_unreadable_spec_is_one_spec_error_line(tmp_path, capsys, raw, message):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("spec error: cannot read spec:") and message in err


def test_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "spec error" in capsys.readouterr().err


def test_spec_validation_failures(tmp_path, capsys):
    two = {**quadratic_spec(), "polynomial": [[1, 0, 1.0, 0.0, 0.0]]}
    assert main(["analyze", write_spec(tmp_path, two, "two.json")]) == 1
    assert "exactly one" in capsys.readouterr().err

    for order in (0, 1, 13):
        assert main(["analyze", write_spec(tmp_path, quadratic_spec(order=order), "ord.json")]) == 1
        assert "order" in capsys.readouterr().err
    for order in ("0", "1", "13", "x"):
        assert main(["analyze", write_spec(tmp_path, quadratic_spec()), "--order", order]) == 1
        assert "order" in capsys.readouterr().err

    high = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [60, 5, 1, 0, 0]]}
    assert main(["analyze", write_spec(tmp_path, high, "high.json")]) == 1
    assert "polynomial[3]" in capsys.readouterr().err

    assert main(["analyze", write_spec(tmp_path, quadratic_spec(a02=-1.0), "neg.json")]) == 1
    assert "positive" in capsys.readouterr().err

    nan = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0, math.nan]]}
    assert main(["analyze", write_spec(tmp_path, nan, "nan.json"), "--json"]) == 1
    assert "polynomial[3].z" in capsys.readouterr().err

    # 1 + a11^2 overflows, which would leave the family without a tangent
    for kind, extra in (("circle_deformation", {"kappa": 0}), ("spherical_deformation", {"kappa_poly": [0]})):
        huge = {kind: {"a11": 1e300, "a02": 1, **extra}}
        assert main(["analyze", write_spec(tmp_path, huge, "huge.json"), "--json"]) == 1
        assert f"{kind}.a11" in capsys.readouterr().err


def scaled_germ(s: float) -> dict:
    """The cross cap (u, uv, v^2) plus u^2 and v^3 terms, times s."""
    rows = [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0.25, -0.5], [0, 3, 0.1, 0, 0.3]]
    return {"polynomial": [[j, k, *(s * x for x in vec)] for j, k, *vec in rows]}


def test_overflowing_coefficients_exit_two(tmp_path, capsys, monkeypatch):
    doc = {"polynomial": [[1, 0, 1e307, 0, 0], [1, 1, 0, 1e307, 0], [0, 2, 0, 0, 1e307]]}
    assert main(["analyze", write_spec(tmp_path, doc), "--json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("analysis failed")
    # the map route's quantities overflow: a02 through |f_u x f_vv|^3, and
    # the squared bracket, which would leave a02 = 0
    cases = [
        ("analyze", {"circle_deformation": {"kappa": 1, "a02": 1e150, "a11": 0.5}}, "a02"),
        ("asymptotics", {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1e200, 0], [0, 2, 0, 0, 0.5]]}, "delta_sq"),
        # a finite triple whose leading polar coefficients overflow: a^4 in k_lead
        ("analyze", quadratic_spec(a20=0.5, a11=0.3, a02=1e80), "k_lead"),
        ("asymptotics", quadratic_spec(a20=0.5, a11=0.3, a02=1e80), "k_lead"),
        # the bracket 2e330, on Python floats, which overflow silently
        ("analyze", scaled_germ(1e110), "overflow"),
        ("asymptotics", scaled_germ(1e110), "overflow"),
    ]
    for command, doc, quantity in cases:
        assert main([command, write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("analysis failed") and quantity in err
    # the bracket 2e-171 passes this tolerance, and its square underflows
    # in the map route, which refuses rather than divide by zero
    monkeypatch.setenv("CROSSCAP_TOL", "1e-320")
    assert main(["asymptotics", write_spec(tmp_path, scaled_germ(1e-57))]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("analysis failed: map route gives a02 ")


@pytest.fixture
def origin_readings(monkeypatch):
    """The maps whose origin derivatives are read, one entry per reading."""
    prop = SurfaceMap.__dict__["_origin"]
    read, func = [], prop.func

    def counted(f):
        read.append(f)
        return func(f)

    monkeypatch.setattr(prop, "func", counted)
    return read


@pytest.mark.parametrize(
    "args, doc, readings",
    [
        (["analyze"], quadratic_spec(a20=0.5, a11=0.3, a02=1.0), 1),
        (["deform", "--kappas=-1,0.5,2"], FAMILY_SPEC, 3),
        (["asymptotics", "--theta=0,0.5,1,1.5707963267948966"], quadratic_spec(a20=0.5, a11=0.3, a02=1.0), 1),
    ],
    ids=["analyze", "deform", "asymptotics"],
)
def test_origin_is_read_once_per_map(tmp_path, capsys, origin_readings, args, doc, readings):
    assert main([args[0], write_spec(tmp_path, doc), *args[1:]]) == 0
    assert len(origin_readings) == readings
    assert len({id(f) for f in origin_readings}) == readings


def test_overflowing_frame_recurrence_exits_two(tmp_path, capsys):
    # the frame's Taylor recurrence runs on Python floats, which overflow
    # silently; the overflow must still be what the command reports
    doc = {"spherical_deformation": {"kappa_poly": [0, 1e100], "a02": 2, "a11": 0}}
    out = tmp_path / "m.obj"
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("analysis failed") and "overflow" in err
    assert not out.exists()


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


def test_deform_metric_deviation_is_the_pairwise_max_coeff_diff():
    # the stacked table against FundamentalForms.max_coeff_diff of each pair, bit for bit
    kappas = (-1.5, 0.25, 2.0)
    docs = [{"spherical_deformation": {"kappa_poly": [0.0, 0.4, -0.7], "a02": 1.7, "a11": -0.3}, "order": 8},
            {"circle_deformation": {"kappa": 0.0, "a02": 0.8, "a11": 0.6}, "order": 6}]
    for doc in docs:
        spec = parse_spec(doc)
        report, _ = cmd_deform(spec, argparse.Namespace(kappas=",".join(map(repr, kappas))), 1e-9)
        tail = spec.payload["kappa_poly"][1:]
        members = [replace(spec, payload={**spec.payload, "kappa_poly": (k, *tail)}) for k in kappas]
        forms = [first_form(build_surface(m).surface) for m in members]
        assert report["metric_deviation"] == [[fa.max_coeff_diff(fb) for fb in forms] for fa in forms]
        assert all(type(x) is float for row in report["metric_deviation"] for x in row)


def test_deform_rejections(tmp_path, capsys):
    doc = {"circle_deformation": {"kappa": 0.0, "a02": 2.0, "a11": 0.0}}
    assert main(["deform", write_spec(tmp_path, doc), "--kappas", ","]) == 1
    capsys.readouterr()
    assert main(["deform", write_spec(tmp_path, doc), "--kappas=nan"]) == 1
    assert "finite" in capsys.readouterr().err
    assert main(["deform", write_spec(tmp_path, doc), "--order", "30"]) == 1
    assert "order" in capsys.readouterr().err
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
    assert split == joined
    if flag == "--radii":
        # parsed as a value, then refused: a radius must be positive
        assert joined[0] == 1
        assert joined[1].err == "spec error: --radii: values must be positive\n"
    else:
        assert joined[0] == 0


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


def test_mesh_keeps_terms_above_order(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [9, 9, 1, 1, 1]]}
    target = tmp_path / "out.obj"
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(target), "--resolution", "2"]) == 0
    verts = [l for l in target.read_text(encoding="utf-8").splitlines() if l.startswith("v ")]
    assert verts[-1] == "v 2 2 2"  # (u, v) = (1, 1), the u^9 v^9 term included


def test_mesh_of_a_large_domain_is_its_finite_points(tmp_path):
    # the jet has order 6, but no coordinate of (u, uv, v^2) leaves the float
    # range on |u|, |v| <= 1e60, and Horner's rule forms no power of u or v
    doc = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1]],
           "domain": [[-1e60, 1e60], [-1e60, 1e60]]}
    target = tmp_path / "out.obj"
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(target), "--resolution", "4"]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    verts = np.array([l.split()[1:] for l in lines if l.startswith("v ")], dtype=float)
    ticks = [-1e60 + 2e60 * i / 4 for i in range(5)]  # write_obj's grid
    u, v = np.meshgrid(ticks, ticks, indexing="ij")
    expected = np.stack([u, u * v, v * v], axis=-1).reshape(-1, 3)
    assert np.all(np.abs(verts - expected) <= 2 * np.finfo(float).eps * np.abs(expected))


def test_mesh_whose_points_overflow_is_refused(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [2, 0, 0, 0, 1]],
           "domain": [[-1e200, 1e200], [-1, 1]]}
    rc = main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "x.obj"), "--resolution", "4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("analysis failed:")


def test_mesh_resolution_validation(tmp_path, capsys):
    path = write_spec(tmp_path, quadratic_spec())
    for res in (0, MAX_RESOLUTION + 1):
        target = tmp_path / "x.obj"
        assert main(["mesh", path, "--out", str(target), "--resolution", str(res)]) == 1
        assert "resolution" in capsys.readouterr().err
        assert not target.exists()
    with pytest.raises(ValueError, match="resolution"):
        write_obj(build_surface(parse_spec(quadratic_spec())).surface, str(target), MAX_RESOLUTION + 1)
    assert not target.exists()


def test_obj_text_matches_the_per_float_writer(tmp_path):
    # write_obj formats in one pass; the reference writes each float and
    # face alone, with format_float, which prints -0.0 as 0; a vertex that
    # is not finite is refused, the first one named by its (u, v), and no
    # file is written
    class Grid:
        domain_hint = ((-1.0, 1.0), (-1.0, 1.0))

        def __init__(self, points):
            self.points = points

        def evaluate_grid(self, us, vs):
            return self.points.reshape(len(us), len(vs), 3)

    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-300, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]
    for n in (1, 3, 7):
        values = rng.standard_normal(3 * (n + 1) ** 2) * 10.0 ** rng.integers(-20, 20, 3 * (n + 1) ** 2)
        values[: len(special)] = special[: len(values)]
        expected = [f"v {' '.join(map(format_float, p))}" for p in values.reshape(-1, 3).tolist()]
        for i in range(n):
            for j in range(n):
                a, b = i * (n + 1) + j + 1, (i + 1) * (n + 1) + j + 1
                expected += [f"f {a} {b} {b + 1}", f"f {a} {b + 1} {a + 1}"]
        write_obj(Grid(values), str(tmp_path / "g.obj"), n)
        assert (tmp_path / "g.obj").read_bytes() == ("\n".join(expected) + "\n").encode()
        target = tmp_path / "bad.obj"
        for bad in (math.inf, -math.inf, math.nan):
            points = values.copy()
            points[-1] = bad
            with pytest.raises(CrosscapError) as last:
                write_obj(Grid(points), str(target), n)
            assert str(last.value) == "mesh vertex at (u, v) = (1, 1) is not finite"
            # vertex n + 1, at (u_1, v_0), comes first in row-major order
            points[3 * (n + 1) + 1] = bad
            with pytest.raises(CrosscapError) as first:
                write_obj(Grid(points), str(target), n)
            assert str(first.value) == f"mesh vertex at (u, v) = ({format_float(-1.0 + 2.0 / n)}, -1) is not finite"
            assert not target.exists()


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


def test_mesh_refuses_unreachable_quadrature_quickly(tmp_path, capsys):
    # gamma is of size 1e300, far past the quadrature's absolute tolerance
    doc = {"circle_deformation": {"kappa": 1, "a02": 1e300, "a11": 0.5}, "domain": [[-1, 1], [-100, 100]]}
    start = time.perf_counter()
    rc = main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "x.obj"), "--resolution", "4"])
    assert rc == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "does not converge near v = 0.000000:" in err
    assert "-0.000000" not in err


def test_isometry_check_of_a_member_past_the_directrix_path(tmp_path, capsys):
    # the first form reads no position, so verify_isometry of a member
    # whose directrix path refuses at v = 0 still reports, and mesh refuses
    a02, a11 = 1e80, 0.5
    doc = {"circle_deformation": {"kappa": 1, "a02": a02, "a11": a11}}
    f = build_surface(parse_spec(doc)).surface
    report = verify_isometry(f, degenerate_quadratic(a02, a11))
    closed = degenerate_first_form(a02, a11)
    us = vs = [-1.0 + 2.0 * (i + 0.5) / 10 for i in range(10)]
    ours, ref = [], []
    for v in vs:
        for u, table in zip(us, f.derivative_jets(us, v, 1)):
            fu, fv = table[:, 1, 0], table[:, 0, 1]
            ours.append((fu @ fu, fu @ fv, fv @ fv))
            ref.append((closed.E(u, v), closed.F(u, v), closed.G(u, v)))
    ours, ref = np.array(ours), np.array(ref)
    # each of E, F, G to 1e-13 of its largest value on the grid
    assert np.all(np.max(np.abs(ours - ref), axis=0) <= 1e-13 * np.max(np.abs(ref), axis=0))
    assert report.grid_max_dev <= 1e-13 * np.max(np.abs(ref))
    rc = main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "x.obj"), "--resolution", "4"])
    assert rc == 2
    assert "does not converge near v = 0.000000:" in capsys.readouterr().err


def test_mesh_of_large_member_scales_with_a02(tmp_path):
    # gamma is linear in a02, and the directrix path's steps follow its size
    def member(a02):
        return {"circle_deformation": {"kappa": 1, "a02": a02, "a11": 0.5}, "domain": [[-1, 1], [-3, 3]]}

    doc = member(1e6)
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "x.obj"), "--resolution", "8"]) == 0
    vs = [-3.0, -2.2, -0.7, 0.0, 0.4, 1.9, 3.0]
    big = build_surface(parse_spec(doc)).surface.ruling.grid([0.0], vs)[0]
    unit = build_surface(parse_spec(member(1.0))).surface.ruling.grid([0.0], vs)[0]
    assert np.max(np.abs(big - 1e6 * unit)) <= 1e-13 * np.max(np.abs(big))


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


@pytest.mark.parametrize("radii", ["0.01", "0.01,0.01", "1e-7,1e-8"])
def test_asymptotics_refuses_fewer_than_two_usable_radii(tmp_path, capsys, radii):
    # a decay order is fitted over two radii at least; radii below
    # MIN_RADIUS = 1e-6 are sampled at it, so 1e-7 and 1e-8 are one radius
    assert main(["asymptotics", write_spec(tmp_path, quadratic_spec()), f"--radii={radii}", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spec error: --radii: need two distinct radii of at least 1e-06\n"


def test_asymptotics_takes_two_radii_once_clamped(tmp_path, capsys):
    assert main(["asymptotics", write_spec(tmp_path, quadratic_spec()), "--radii=0.01,1e-9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["radii"] == [0.01, 1e-6]


@pytest.mark.parametrize("radii", ["0.5,0.5000000000000001", "0.05,0.05000000000000001,0.05000000000000002"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_asymptotics_refuses_radii_only_round_off_apart(tmp_path, capsys, radii, json_flag):
    # radii a unit in the last place apart sample the same curvatures, so
    # a decay line through them is round-off: refused, with no warning
    path = write_spec(tmp_path, quadratic_spec())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["asymptotics", path, "--theta=0.3", f"--radii={radii}", *json_flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spec error: --radii: radii only round-off apart fix no decay line\n"


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("deform", quadratic_spec(), []),
        ("classify", quadratic_spec(), []),
        ("deform", FAMILY_SPEC, ["--kappas=,"]),
        ("asymptotics", quadratic_spec(), ["--theta=,"]),
        ("asymptotics", quadratic_spec(), ["--radii=,"]),
        ("asymptotics", quadratic_spec(), ["--theta="]),
        ("asymptotics", quadratic_spec(), ["--radii="]),
        ("asymptotics", quadratic_spec(), ["--radii=-0.5,0"]),
        ("mesh", quadratic_spec(), ["--resolution", "0"]),
        # one entry more than a series in v up to MAX_DEGREE has
        ("analyze", {"ruled": {**STD_RULED["ruled"], "gamma_poly": [[0, 0, 1]] * (MAX_DEGREE + 2)}}, []),
        ("mesh", {"spherical_deformation": {"kappa_poly": [0.5] * (MAX_DEGREE + 2), "a02": 2, "a11": 0}},
         ["--resolution", "4"]),
        # JSON true is a Python int, but not a monomial power
        ("analyze", {"polynomial": [[True, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1]]}, []),
    ],
    ids=[
        "deform-kind", "classify-kind", "kappas-empty", "theta-empty", "radii-empty",
        "theta-blank", "radii-blank", "radii-nonpositive", "resolution-0",
        "gamma-rows-above-max-degree", "kappa-poly-above-max-degree", "boolean-power",
    ],
)
def test_unusable_spec_or_flag_is_one_spec_error_line(tmp_path, capsys, command, doc, flags):
    out = ["--out", str(tmp_path / "x.obj")] if command == "mesh" else []
    assert main([command, write_spec(tmp_path, doc), *flags, *out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("spec error:")


def test_series_in_v_up_to_max_degree_parse():
    rows = [[0.0, 0.0, 1.0]] * (MAX_DEGREE + 1)
    spec = parse_spec({"ruled": {"gamma_poly": rows, "xi_poly": rows}})
    assert len(spec.payload["gamma_poly"]) == len(spec.payload["xi_poly"]) == MAX_DEGREE + 1
    spec = parse_spec({"spherical_deformation": {"kappa_poly": [0.5] * (MAX_DEGREE + 1), "a02": 2, "a11": 0}})
    assert len(spec.payload["kappa_poly"]) == MAX_DEGREE + 1


def test_order_flag_sets_build_and_reduction_order(tmp_path, capsys):
    path = write_spec(tmp_path, {"circle_deformation": {"kappa": 0.7, "a02": 2.0, "a11": -0.3}})
    assert main(["analyze", path, "--order", "12", "--json"]) == 0
    analyzed = json.loads(capsys.readouterr().out)["normal_form"]
    assert main(["deform", path, "--order", "12", "--json"]) == 0
    member = json.loads(capsys.readouterr().out)["members"][0]
    assert member["kappa"] == 0.7
    assert analyzed["order"] == 12
    assert analyzed == member["normal_form"]


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, quadratic_spec())
    monkeypatch.setenv("CROSSCAP_TOL", "1e-7")
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CROSSCAP_TOL", "abc")
    assert main(["analyze", path]) == 1
    assert "not a number" in capsys.readouterr().err
    for raw in ("-1", "nan", "inf", "-inf"):
        monkeypatch.setenv("CROSSCAP_TOL", raw)
        assert main(["analyze", path]) == 1
        assert "positive" in capsys.readouterr().err


def test_no_arguments_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


# ----------------------------------------------------------------------
# fuzzing the spec and CLI contract

SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300]
PLAIN = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))
EXTREME = st.one_of(PLAIN, st.sampled_from(SPECIAL))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3))
KINDS = ["polynomial", "quadratic_crosscap", "circle_deformation", "spherical_deformation", "ruled"]
JSON = st.recursive(
    st.one_of(EXTREME, JUNK),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(KINDS + ["a02"]), inner, max_size=2)),
    max_leaves=6,
)


def _payload(kind: str, num):
    if kind == "polynomial":
        power = st.one_of(st.integers(-1, 4), st.sampled_from([9, 65]))
        term = st.tuples(power, power, num, num, num).map(list)
        # the standard cross cap plus a few terms, so that analysis goes deep
        return st.lists(term, max_size=3).map(lambda extra: [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], *extra])
    if kind == "ruled":
        rows = st.lists(st.lists(num, min_size=3, max_size=3), min_size=1, max_size=3)
        return st.fixed_dictionaries({"gamma_poly": rows, "xi_poly": rows})
    fields = {"a20": num} if kind == "quadratic_crosscap" else {}
    if kind == "circle_deformation":
        fields["kappa"] = num
    if kind == "spherical_deformation":
        fields["kappa_poly"] = st.lists(num, min_size=1, max_size=3)
    a02 = st.floats(0.25, 3.0) if num is PLAIN else num
    return st.fixed_dictionaries({**fields, "a11": num, "a02": a02})


@st.composite
def spec_documents(draw):
    """A spec of each kind with plain or extreme numbers, or with one field
    dropped or replaced by junk; or any small JSON value."""
    kind = draw(st.sampled_from(KINDS + [None]))
    if kind is None:
        return draw(JSON)
    mode = draw(st.sampled_from(["plain", "extreme", "broken"]))
    num = PLAIN if mode == "plain" else EXTREME
    doc = {kind: draw(_payload(kind, num))}
    if draw(st.booleans()):
        doc["order"] = draw(st.integers(2, 12) if mode == "plain" else st.integers(-1, 14))
    if draw(st.booleans()):
        span = st.lists(num, min_size=2, max_size=2).map(sorted)
        doc["domain"] = draw(st.lists(span, min_size=2, max_size=2))
    if mode == "broken":
        payload = doc[kind]
        if isinstance(payload, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(payload)))
            doc[kind] = {k: v for k, v in payload.items() if k != key}
            if draw(st.booleans()):
                doc[kind][key] = draw(JUNK)
        else:
            doc[draw(st.sampled_from([kind, "order", "domain"]))] = draw(JUNK)
    return doc


def _floats_in(obj):
    if isinstance(obj, dict):
        for val in obj.values():
            yield from _floats_in(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _floats_in(val)
    elif obj is None or isinstance(obj, float):
        yield obj


# comma lists for deform and asymptotics; None leaves the flag out
LISTS = st.one_of(st.none(), st.sampled_from(["", ",", "nan", "1e400", "x", "-1,2"]))


@given(
    doc=spec_documents(),
    command=st.sampled_from(["analyze", "deform", "classify", "asymptotics", "mesh"]),
    flag=st.sampled_from(["--theta", "--radii"]),
    values=LISTS,
)
@example(doc={"circle_deformation": {"a11": 1e300, "kappa": 0, "a02": 1}}, command="analyze", flag="--theta", values=None)
def test_cli_contract_holds_for_any_spec(tmp_path_factory, doc, command, flag, values):
    """Exit 0, 1 or 2 with at most one stderr line; exit-0 analyze reports are finite."""
    work = tmp_path_factory.mktemp("fuzz", numbered=True)
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "analyze": ["analyze", str(spec), "--json"],
        "deform": ["deform", str(spec), "--json"],
        "classify": ["classify", str(spec), "--json"],
        "asymptotics": ["asymptotics", str(spec), "--json"],
        "mesh": ["mesh", str(spec), "--resolution", "2", "--out", str(work / "m.obj")],
    }[command]
    if values is not None and command in ("deform", "asymptotics"):
        # the = form, so that argparse never reads the list as an option
        argv.append(f"{'--kappas' if command == 'deform' else flag}={values}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if rc == 0 and command == "analyze":
        assert all(x is not None and math.isfinite(x) for x in _floats_in(json.loads(out.getvalue())))
