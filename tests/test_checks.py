from __future__ import annotations

import math
import re

import pytest

from stereorig import check_range
from stereorig.guidance import GuidanceError
from stereorig.merge import MergeError
from stereorig.registry import RegistryError, json_field
from stereorig.templates import TemplateError

_TINY = 5e-324  # the smallest positive float
_HUGE = 1e308

# each range: the words that refuse a value failing its test, the table's values that pass
# it, and the bound, with its unit, that refuses a value past it
_RANGES = {
    "finite": ("finite", {-1.0, 0.0, _TINY, _HUGE}, None),
    "non-negative": ("finite and non-negative", {0.0, _TINY, _HUGE}, None),
    "positive": ("positive and finite", {_TINY, _HUGE}, None),
    "length": ("positive and finite", {_TINY, _HUGE}, "1e+09 mm"),
    "non-negative length": ("finite and non-negative", {0.0, _TINY, _HUGE}, "1e+09 mm"),
    "time": ("finite", {-1.0, 0.0, _TINY, _HUGE}, "1e+10 ms"),
    "non-negative time": ("finite and non-negative", {0.0, _TINY, _HUGE}, "1e+10 ms"),
    "pixels": ("positive and finite", {_TINY, _HUGE}, "100000 px"),
    "rate": ("positive and finite", {_TINY, _HUGE}, "1000 fps"),
    "probability": ("in [0, 1]", {0.0, _TINY}, None),
}


@pytest.mark.parametrize("error", [ValueError, TemplateError, MergeError, GuidanceError,
                                   RegistryError])
@pytest.mark.parametrize("kind", list(_RANGES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0, _TINY, _HUGE])
def test_check_range_admits_its_range_and_names_the_rest(kind, value, error):
    words, passing, bound = _RANGES[kind]
    if value not in passing:
        message = f"width must be {words}, got {value}"
    elif bound and value == _HUGE:
        message = f"width must be at most {bound}, got {value}"
    else:
        assert check_range("width", value, kind, error) is None
        return
    with pytest.raises(error) as err:
        check_range("width", value, kind, error)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("kind, bound", [
    ("length", 1e9), ("non-negative length", 1e9), ("time", 1e10), ("non-negative time", 1e10),
    ("pixels", 1e5), ("rate", 1e3),
])
def test_check_range_admits_its_bound_and_refuses_the_next_float(kind, bound):
    words, _, text = _RANGES[kind]
    sides = [(bound, "at most")] + ([(-bound, "at least")] if words == "finite" else [])
    for edge, limit in sides:
        assert check_range("width", edge, kind) is None
        past = math.nextafter(edge, math.copysign(math.inf, edge))
        message = f"width must be {limit} {'-' if edge < 0 else ''}{text}, got {past}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_range("width", past, kind)


@pytest.mark.parametrize("kind", list(_RANGES))
@pytest.mark.parametrize("value", [10**400, -10**400])
def test_check_range_refuses_an_integer_too_big_for_a_float(kind, value):
    # `0 < 10**400 < inf` holds, but float(10**400) raises OverflowError
    words, _, _ = _RANGES[kind]
    with pytest.raises(ValueError, match=f"^width must be {re.escape(words)}, got {value}$"):
        check_range("width", value, kind)


# the JSON kinds in json_field's messages, and the annotations that read them
_HINTS = {"string": str, "integer": int, "number": float}


@pytest.mark.parametrize("kind, value, read", [
    ("string", "auto", "auto"),
    ("integer", 720, 720),
    ("integer", 720.0, 720),
    ("number", 30, 30.0),
    ("number", 2.5, 2.5),
])
def test_json_value_admits_its_kind(kind, value, read):
    got = json_field("field", value, _HINTS[kind])
    assert got == read and type(got) is type(read)


@pytest.mark.parametrize("kind, value, got", [
    ("string", None, "NoneType"),
    ("string", 1, "int"),
    ("integer", 720.9, "720.9"),
    ("integer", math.inf, "inf"),
    ("string", 1.5, "1.5"),
    ("integer", True, "bool"),
    ("integer", "720", "str"),
    ("number", True, "bool"),
    ("number", None, "NoneType"),
    ("number", "1.5", "str"),
])
def test_json_value_names_the_field_and_the_type_it_got(kind, value, got):
    with pytest.raises(ValueError, match=f"^field must be a JSON {kind}, got {got}$"):
        json_field("field", value, _HINTS[kind])


@pytest.mark.parametrize("hint, value, read", [
    (tuple[float, float], [1, 2.5], (1.0, 2.5)),
    (frozenset[str], ["auto", "auto"], frozenset({"auto"})),
    (frozenset[tuple[int, int]], [[1280, 720.0]], frozenset({(1280, 720)})),
])
def test_json_field_reads_arrays_by_their_annotation(hint, value, read):
    assert json_field("field", value, hint) == read


@pytest.mark.parametrize("hint, value, message", [
    (tuple[float, float], "12", "field must be an array of 2 items, got str"),
    (tuple[float, float], [1, 2, 3], "field must be an array of 2 items, got 3 items"),
    (tuple[float, float], [1, None], "field must be a JSON number, got NoneType"),
    (frozenset[str], {"auto": 1}, "field must be an array, got dict"),
    (frozenset[str], ["auto", 1], "each of field must be a JSON string, got int"),
    (frozenset[tuple[int, int]], [[1280]],
     "each of field must be an array of 2 items, got 1 items"),
    (frozenset[tuple[int, int]], [[1280, 7.5]], "each of field must be a JSON integer, got 7.5"),
])
def test_json_field_names_each_item_of_a_set(hint, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        json_field("field", value, hint)
