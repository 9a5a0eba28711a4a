"""Mangled JSON documents for the readers' properties, and a check of what they read.

`mangled(doc)` is a valid `doc`, such as `CATALOG` or `READINGS`, after one
to three edits: a value replaced by a JSON value a reader may not expect
(null, a bool, a string, a fraction, an integer too big for a float, NaN or
Infinity, a nested array or an object), a key or array item dropped, or one
added. `assert_read_as_written(record, entry)` checks what a reader made of
one object of such a document.
"""

from __future__ import annotations

import copy
import json
import typing
from importlib import resources

from hypothesis import strategies as st

# valid documents to start from: the shipped catalog with one entry annotated, and
# two reading pairs, the second without its optional times
CATALOG = json.loads(resources.files("stereorig.data").joinpath("devices.json").read_text("utf-8"))
CATALOG[0]["metadata"] = {"notes": "ignored"}
READINGS = [
    {"a": {"magnetometer": [20.1, -5.3, 42.0], "gyroscope": [0.0, 0.1, 0.0], "timestamp_ms": 1000},
     "b": {"magnetometer": [20.4, -5.0, 41.2], "gyroscope": [0.1, 0.0, 0.0], "timestamp_ms": 1003}},
    {"a": {"magnetometer": [1.0, 2.0, 3.0], "gyroscope": [0, 0, 0]},
     "b": {"magnetometer": [1.0, 2.0, 3.0], "gyroscope": [0, 0, 0]}},
]

_ODD_VALUES = st.sampled_from([
    None, True, False, "", "12", 1.5, 10**400, -10**400, float("nan"), float("inf"),
    float("-inf"), [], [[1.0]], [[[]]], {}, {"x": [1]},
]).map(copy.deepcopy)  # a drawn list must not be the one a later draw appends to

# keys an edit adds: the readers' optional keys, a near miss and a stranger
_NEW_KEYS = st.sampled_from(["metadata", "timestamp_ms", "timestamp", "extra"])


def _slots(holder: list) -> list:
    """Every (container, key) in the document held in `holder`, the root first."""
    slots = [(holder, 0)]
    stack = [holder[0]]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                stack.append(node[key])
    return slots


@st.composite
def mangled(draw, doc) -> str:
    """`doc` after one to three edits, as JSON text (NaN and Infinity included)."""
    holder = [copy.deepcopy(doc)]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(holder)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "replace" or container is holder:
            container[key] = draw(_ODD_VALUES)
        elif edit == "drop":
            del container[key]
        elif isinstance(container, dict):
            container[draw(_NEW_KEYS)] = draw(_ODD_VALUES)
        else:
            container.append(draw(_ODD_VALUES))
    return json.dumps(holder[0])


def typed(value, hint) -> bool:
    """Whether `value` is exactly of the annotated type `hint`, item by item."""
    kind = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if kind is tuple:
        return type(value) is tuple and len(value) == len(args) and all(map(typed, value, args))
    if kind is frozenset:
        return type(value) is frozenset and all(typed(v, args[0]) for v in value)
    return type(value) is kind


def _scalars(value) -> set:
    """Every scalar in a JSON value or a record's field, numbers as floats; a bool or null apart."""
    if isinstance(value, (list, tuple, frozenset)):
        return set().union(*map(_scalars, value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {("number", float(value))}
    return {(type(value).__name__, value)}


def assert_read_as_written(record, entry: dict) -> None:
    """The dataclass `record`, read from the JSON object `entry`, holds what `entry` says.

    Every field holds its annotated type, and the fields `entry` gives hold the
    scalars written there: no bool or null read as a number or a string, no
    number rounded, no string read letter by letter and no array cut short.
    """
    for name, hint in typing.get_type_hints(type(record)).items():
        assert typed(getattr(record, name), hint), (name, getattr(record, name))
    names = [name for name in entry if name != "metadata"]
    assert _scalars([entry[n] for n in names]) == _scalars([getattr(record, n) for n in names])
