from __future__ import annotations

import math

import pytest

from stereorig import check_range
from stereorig.guidance import GuidanceError
from stereorig.merge import MergeError
from stereorig.registry import RegistryError
from stereorig.templates import TemplateError

_TINY = 5e-324  # the smallest positive float
_HUGE = 1e308

# each range: the words that reject a value, and the table's values it admits
_RANGES = {
    "finite": ("finite", {-1.0, 0.0, _TINY, _HUGE}),
    "non-negative": ("finite and non-negative", {0.0, _TINY, _HUGE}),
    "positive": ("positive and finite", {_TINY, _HUGE}),
}


@pytest.mark.parametrize("error", [ValueError, TemplateError, MergeError, GuidanceError,
                                   RegistryError])
@pytest.mark.parametrize("kind", list(_RANGES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0, _TINY, _HUGE])
def test_check_range_admits_its_range_and_names_the_rest(kind, value, error):
    words, admitted = _RANGES[kind]
    if value in admitted:
        assert check_range("width", value, kind, error) is None
        return
    with pytest.raises(error) as err:
        check_range("width", value, kind, error)
    assert type(err.value) is error
    assert str(err.value) == f"width must be {words}, got {value}"
