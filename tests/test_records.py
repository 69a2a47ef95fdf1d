"""Record types: field-only records are NamedTuples, the three classes that
cache (SurfaceMap, RuledSurface, SphericalCurve) are immutable plain classes,
and importing the CLI loads no dataclass machinery."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crosscap
from crosscap import asymptotics, deformation, invariants, normalform, numerics, ruled, specio, surface

SPEC = {"quadratic_crosscap": {"a20": 0.3, "a11": -0.2, "a02": 1.1}, "order": 5}


def records() -> list:
    """One instance of every record class of the package."""
    built = specio.build_surface(specio.parse_spec(SPEC))
    f = built.surface
    triple = invariants.intrinsic_from_map(f)
    nf = normalform.reduce_to_normal_form(f, order=5)
    fam = deformation.deformation_family(1.1, -0.2, 0.4)
    member = deformation.build_crosscap(fam, order=5)
    backed = ruled.from_frame(fam.curve, a=[0.2, 0.1], b=0.3, order=5)
    unit = ruled.normalize(ruled.from_polynomials([[0, 0, 0], [0.1, 0, 0]], [[1, 0, 0], [0, 1, 0]], order=5))
    return [
        asymptotics.leading(triple, 0.3),
        *asymptotics.ray_reports(f, 0.3),
        fam,
        deformation.verify_isometry(member, deformation.degenerate_quadratic(1.1, -0.2, order=5)),
        triple,
        invariants.focal_conic(triple),
        invariants.isometry_combos(nf),
        nf,
        normalform.frame(f),
        ruled.frame_coefficients(unit),
        backed.backing,
        specio.parse_spec(SPEC),
        built,
        surface.first_form(f),
        surface.detect_crosscap(f),
        surface.limiting_normal(f, 0.3),
        f,
        backed,
        fam.curve,
    ]


def test_every_record_class_is_covered_once():
    assert len({type(r) for r in records()}) == len(records()) == 20


@pytest.mark.parametrize("index", range(20))
def test_assigning_a_field_raises(index):
    record = records()[index]
    name = record._fields[0] if isinstance(record, tuple) else next(iter(vars(record)))
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_field_only_records_are_tuples_and_cache_holders_are_not():
    kinds = {type(r).__name__: isinstance(r, tuple) for r in records()}
    assert [name for name, is_tuple in kinds.items() if not is_tuple] == [
        "SurfaceMap",
        "RuledSurface",
        "SphericalCurve",
    ]


def test_caching_writes_past_the_immutable_guard():
    f = surface.quadratic_crosscap(0.3, -0.2, 1.1)
    assert surface.first_form(f) is surface.first_form(f)
    assert f._origin is f._origin
    assert set(vars(f)) == {"jet", "domain_hint", "_first_form", "_origin"}


def test_replace_keeps_the_other_fields():
    spec = specio.parse_spec(SPEC)
    changed = spec._replace(order=8)
    assert changed.order == 8 and spec.order == 5
    assert (changed.kind, changed.payload, changed.domain) == (spec.kind, spec.payload, spec.domain)


def test_spherical_curve_validates_in_init():
    with pytest.raises(ValueError, match="unit sphere"):
        deformation.SphericalCurve((0.1,), point0=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="orthogonal"):
        deformation.SphericalCurve((0.1,), tangent0=(1.0, 0.0, 0.0))


def _round_trips(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("evaluated", [False, True])
def test_surface_map_copies_and_pickles(evaluated):
    fam = deformation.deformation_family(1.1, -0.2, (0.4, -0.3))
    f = deformation.build_crosscap(fam, order=5)
    us, vs = [0.1, -0.2], [0.3, 0.45]
    want = f.evaluate_grid(us, vs), f.derivative_jets(us, vs, 3), surface.first_form(f).E.c
    if not evaluated:
        f = deformation.build_crosscap(fam, order=5)
    for g in _round_trips(f):
        assert type(g) is ruled.RuledSurface and g is not f
        assert g.domain_hint == f.domain_hint
        np.testing.assert_array_equal(g.jet.c, f.jet.c)
        got = g.evaluate_grid(us, vs), g.derivative_jets(us, vs, 3), surface.first_form(g).E.c
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("evaluated", [False, True])
def test_ruled_surface_copies_and_pickles(evaluated):
    def build():
        curve = deformation.SphericalCurve((0.5, 0.2))
        return ruled.from_frame(curve, a=[0.2, 0.1], b=[0.3], c=[0.0, 0.0, 0.4], order=6)

    rs = build()
    want = rs.evaluate_grid([0.2], [0.7, -0.5])
    if not evaluated:
        rs = build()
    for copied in _round_trips(rs):
        assert type(copied) is ruled.RuledSurface and copied is not rs
        assert type(copied.backing) is type(rs.backing)
        np.testing.assert_array_equal(copied.evaluate_grid([0.2], [0.7, -0.5]), want)
        with pytest.raises(AttributeError):
            copied.backing = None


def test_spherical_curve_is_its_frame_path_and_copies_and_pickles():
    assert issubclass(deformation.SphericalCurve, numerics.FrenetPath)
    curve = deformation.SphericalCurve((0.5, 0.2))
    assert not hasattr(curve, "path")
    want = curve.state(1.2)
    for copied in _round_trips(curve):
        assert type(copied) is deformation.SphericalCurve and copied is not curve
        assert len(copied._nodes[1][0]) == len(curve._nodes[1][0]) > 1
        assert copied.state(1.2).tobytes() == want.tobytes()
        with pytest.raises(AttributeError):
            copied.kappa_poly = (0.0,)


def test_import_loads_no_dataclasses():
    src = str(Path(crosscap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, crosscap.cli; print(sorted(m for m in ('dataclasses', 'crosscap.cli') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[0] == "['crosscap.cli']"
