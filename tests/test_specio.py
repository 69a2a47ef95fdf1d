"""The spec reader, the polynomial builder and the report writer against
their former, per-entry and isinstance-ladder versions (``tests/helpers.py``)."""
from __future__ import annotations

import math
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap import SpecFormatError
from crosscap.ruled import RuledSurface
from crosscap.specio import FAMILY_KINDS, build_surface, dumps_report, invariant_report, parse_spec
from crosscap.surface import SurfaceMap

from helpers import load_cli_outputs, reference_dumps, reference_parse_spec, reference_polynomial_jet

EDGE_VALUES = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    1.7976931348623157e308,
    np.float64(0.1),
    np.float64(-0.0),
    np.float64(math.nan),
    [True, False, None, 1, 0.5],
    {},
    [],
    (),
    (1.5, "x", (2, [])),
    {3: 1.0, 1: [True]},
    OrderedDict([("b", 1), ("a", np.float64(2.5))]),
    'quote " backslash \\ tab \t newline \n é é   \x00 \U0001f600',
    {"rows": [[0, 2, 1.25], [1, 1, np.float64(-0.5)], [2, 0, math.nan]], "empty": {"a": [], "b": {}}},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_writer_matches_the_former_writer_on_edge_values(value):
    assert dumps_report(value) == reference_dumps(value)
    assert dumps_report({"k": value, "l": [value, value]}) == reference_dumps({"k": value, "l": [value, value]})


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, [1.0, {2}], {"a": [np.int64(1)]}, b"x"])
def test_writer_refuses_what_the_former_writer_refused(value):
    with pytest.raises(TypeError) as new:
        dumps_report(value)
    with pytest.raises(TypeError) as old:
        reference_dumps(value)
    assert str(new.value) == str(old.value)


# powers and coefficients the all-entries check must refuse as the
# per-entry checks do: a bool (a Python int), a string, an int past the
# float range by a little or a lot, non-finite floats, a float power
BAD_POWERS = [-1, 65, 2.0, True, "1", 10**400]
BAD_COEFFS = [True, "1.5", 10**400, -(10**400), int(sys.float_info.max) + 1, math.nan, math.inf, -math.inf]
POWER = st.one_of(st.integers(0, 40), st.sampled_from(BAD_POWERS))
GOOD_COEFF = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), st.sampled_from([1e308, -1e308]))
COEFF = st.one_of(GOOD_COEFF, st.sampled_from(BAD_COEFFS))
GOOD_ENTRY = st.tuples(st.integers(0, 32), st.integers(0, 32), GOOD_COEFF, GOOD_COEFF, GOOD_COEFF).map(list)
ENTRY = st.one_of(
    GOOD_ENTRY,
    st.tuples(POWER, POWER, COEFF, COEFF, COEFF).map(list),
    st.tuples(POWER, POWER, COEFF, COEFF, COEFF),
    st.lists(COEFF, min_size=4, max_size=4),
    st.lists(COEFF, min_size=6, max_size=6),
    st.lists(st.lists(GOOD_COEFF, max_size=2), max_size=5),
    COEFF,
)


@st.composite
def polynomial_documents(draw):
    """A polynomial spec of valid entries, of valid entries but for one
    field, or of entries of every kind."""
    mode = draw(st.sampled_from(["valid", "one bad field", "any"]))
    if mode == "any":
        entries = draw(st.lists(ENTRY, max_size=6))
    else:
        entries = draw(st.lists(GOOD_ENTRY, min_size=1, max_size=6))
    if mode == "one bad field":
        i, field = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, 4))
        entries[i][field] = draw(st.sampled_from(BAD_POWERS if field < 2 else BAD_COEFFS))
    doc = {"polynomial": entries}
    if draw(st.booleans()):
        doc["order"] = draw(st.integers(1, 13))
    return doc


def _outcome(parse, doc):
    try:
        return parse(doc)
    except SpecFormatError as exc:
        return f"spec error: {exc}"


@settings(max_examples=200)
@given(doc=polynomial_documents())
@example(doc={"polynomial": [[1, 0, 1, 0, 0], [0, 2, 0, True, 1]]})
@example(doc={"polynomial": [[1, 0, 1, 0, 0], [33, 32, 0.5, 0, 0]]})
@example(doc={"polynomial": [[1, 0, 1, 0, 0], [0, 2, 0, 0, int(sys.float_info.max) + 1]]})
@example(doc={"polynomial": [(1, 0, 1, 0, 0), [0, 2, 0, 0, 1.5]]})
def test_reader_matches_the_former_reader(doc):
    assert _outcome(parse_spec, doc) == _outcome(reference_parse_spec, doc)


GOOD_ROW = st.lists(GOOD_COEFF, min_size=3, max_size=3)
ROW = st.one_of(
    GOOD_ROW,
    st.tuples(GOOD_COEFF, GOOD_COEFF, GOOD_COEFF),
    st.lists(GOOD_COEFF, min_size=2, max_size=2),
    st.lists(GOOD_COEFF, min_size=4, max_size=4),
)


@st.composite
def ruled_documents(draw):
    """A ruled spec of valid rows, of valid rows but for one field of
    gamma_poly or xi_poly, of rows of any shape (tuples, width 2 or 4), or
    with 0 or 66 rows in one list."""
    mode = draw(st.sampled_from(["valid", "one bad field", "any shape", "bad length"]))
    rows = st.lists(ROW if mode == "any shape" else GOOD_ROW, min_size=1, max_size=8)
    payload = {"gamma_poly": draw(rows), "xi_poly": draw(rows)}
    f = draw(st.sampled_from(["gamma_poly", "xi_poly"]))
    if mode == "one bad field":
        i, field = draw(st.integers(0, len(payload[f]) - 1)), draw(st.integers(0, 2))
        payload[f][i][field] = draw(st.sampled_from(BAD_COEFFS))
    elif mode == "bad length":
        payload[f] = [[0, 0, 1]] * draw(st.sampled_from([0, 66]))
    doc = {"ruled": payload}
    if draw(st.booleans()):
        doc["order"] = draw(st.integers(1, 13))
    return doc


@settings(max_examples=200)
@given(doc=ruled_documents())
@example(doc={"ruled": {"gamma_poly": [[0, 0, 0], [0, 0, 1]], "xi_poly": [[1, 0, 0], [0, True, 0]]}})
@example(doc={"ruled": {"gamma_poly": [[0, 0, 0], (0, 0, 1)], "xi_poly": [[1, 0, 0], [0, 1, 0]]}})
def test_ruled_reader_matches_the_former_reader(doc):
    assert _outcome(parse_spec, doc) == _outcome(reference_parse_spec, doc)


# few monomials, so that entries repeat them, with int and float coefficients
# mixed up to the float range, where sums overflow
BUILD_COEFF = st.one_of(st.floats(-3.0, 3.0), st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False))
BUILD_ENTRY = st.tuples(st.integers(0, 3), st.integers(0, 3), BUILD_COEFF, BUILD_COEFF, BUILD_COEFF).map(list)


@settings(max_examples=200)
@given(entries=st.lists(BUILD_ENTRY, min_size=1, max_size=12), order=st.integers(2, 12))
@example(entries=load_cli_outputs().DUP_TERMS, order=5)
@example(entries=[[1, 0, 1e308, 0, 0], [1, 0, 1e308, 0, 0], [1, 0, -1e308, 0, 0]], order=2)
def test_polynomial_build_matches_the_former_build(entries, order):
    # the same additions from 0.0 in the same order, so the same bits
    spec = parse_spec({"polynomial": entries, "order": order})
    with np.errstate(all="ignore"):  # a sum past the float range is inf on both sides
        got = build_surface(spec).surface.jet
        want = reference_polynomial_jet(spec.payload, spec.order)
    assert got.order == want.order
    assert np.array_equal(got.c, want.c, equal_nan=True)


BUILD_PAYLOADS = {
    "polynomial": [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 2, 0, 0, 1]],
    "quadratic_crosscap": {"a20": -1, "a11": 0, "a02": 1},
    "circle_deformation": {"kappa": 0.7, "a02": 2, "a11": -0.3},
    "spherical_deformation": {"kappa_poly": [0.5, -0.4], "a02": 1.5, "a11": 0.25},
    "ruled": {"gamma_poly": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "xi_poly": [[1, 0, 0], [0, 1, 0]]},
}


@pytest.mark.parametrize("kind", sorted(BUILD_PAYLOADS))
def test_build_surface_makes_one_surface_on_the_spec_domain(kind):
    # a ruled or family spec is built as a ruled surface, any other as a
    # plain surface map; each is the final object, on the spec's domain
    f = build_surface(parse_spec({kind: BUILD_PAYLOADS[kind], "domain": [[-0.5, 0.75], [-1.2, 0.9]]})).surface
    assert isinstance(f, SurfaceMap)
    assert type(f) is (RuledSurface if kind == "ruled" or kind in FAMILY_KINDS else SurfaceMap)
    assert f.domain_hint == ((-0.5, 0.75), (-1.2, 0.9))


@pytest.mark.parametrize("kind", ["polynomial", "ruled"])
def test_report_below_the_map_order_reads_the_truncated_map(kind):
    # the report reads the jet to its order alone: no first form of the
    # built map, at the map's own higher order, is formed
    payload = BUILD_PAYLOADS[kind]
    if kind == "polynomial":
        payload = [*payload, [0, 3, 0, 0, 0.1], [2, 5, 0.01, 0, 0.02]]
    built = build_surface(parse_spec({kind: payload, "order": 3}))
    assert built.surface.order > 3
    report = invariant_report(built, order=3)
    assert report["normal_form"]["order"] == 3
    assert "_first_form" not in vars(built.surface)
