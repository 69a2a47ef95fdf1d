"""End-to-end command-line checks driven through main(argv)."""
from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosscap.cli import main
from crosscap.specio import MAX_RESOLUTION, build_surface, dumps_report, parse_spec, write_obj

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


def test_overflowing_coefficients_exit_two(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1e307, 0, 0], [1, 1, 0, 1e307, 0], [0, 2, 0, 0, 1e307]]}
    assert main(["analyze", write_spec(tmp_path, doc), "--json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("analysis failed")


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


def test_mesh_keeps_terms_above_order(tmp_path, capsys):
    doc = {"polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1], [9, 9, 1, 1, 1]]}
    target = tmp_path / "out.obj"
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(target), "--resolution", "2"]) == 0
    verts = [l for l in target.read_text(encoding="utf-8").splitlines() if l.startswith("v ")]
    assert verts[-1] == "v 2 2 2"  # (u, v) = (1, 1), the u^9 v^9 term included


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
    assert "does not converge" in capsys.readouterr().err


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


@given(doc=spec_documents(), command=st.sampled_from(["analyze", "asymptotics", "mesh"]))
@example(doc={"circle_deformation": {"a11": 1e300, "kappa": 0, "a02": 1}}, command="analyze")
def test_cli_contract_holds_for_any_spec(tmp_path_factory, doc, command):
    """Exit 0, 1 or 2 with at most one stderr line; exit-0 analyze reports are finite."""
    work = tmp_path_factory.mktemp("fuzz", numbered=True)
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "analyze": ["analyze", str(spec), "--json"],
        "asymptotics": ["asymptotics", str(spec), "--json"],
        "mesh": ["mesh", str(spec), "--resolution", "2", "--out", str(work / "m.obj")],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if rc == 0 and command == "analyze":
        assert all(x is not None and math.isfinite(x) for x in _floats_in(json.loads(out.getvalue())))
