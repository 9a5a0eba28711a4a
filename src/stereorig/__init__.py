"""Tools for building phone-based stereo capture rigs.

Covers the full path from a device catalog to a working rig: body/camera
geometry and placement solving, printable cut/fold templates (SVG),
on-screen alignment guidance, a simulated pairing and capture-sync
protocol, and stereo frame merging (side-by-side and anaglyph).
"""

import math

__version__ = "0.1.0"

DEFAULT_IPD_MM = 65.0

# the CLI's option defaults, kept here so that building its parser imports no
# other module; `templates` and `guidance` take theirs from here
DEFAULT_VELCRO_MM = 20.0
DEFAULT_CARDBOARD_MM = 2.0
DEFAULT_STRAP_WIDTH_MM = 20.0
DEFAULT_MAG_TOLERANCE_UT = 5.0
DEFAULT_GYRO_TOLERANCE_DPS = 2.0
DEFAULT_GRID_PITCH_MM = 10.0

# each range a number may be held to: its test and the words that reject it
_RANGES = {
    "finite": (math.isfinite, "finite"),
    "non-negative": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "positive": (lambda v: 0 < v < math.inf, "positive and finite"),
}


def check_range(name: str, value: float, kind: str = "finite", error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is finite and, by `kind`, >= 0 or > 0."""
    test, words = _RANGES[kind]
    if not test(value):
        raise error(f"{name} must be {words}, got {value}")


def json_array(name: str, value, length: int | None = None) -> list:
    """`value` if it is a JSON array, of `length` items when given; else a ValueError naming `name`.

    Iterating a string or an object instead would read its characters or keys.
    """
    if not isinstance(value, list) or length not in (None, len(value)):
        want = "an array" if length is None else f"an array of {length} items"
        got = f"{len(value)} items" if isinstance(value, list) else type(value).__name__
        raise ValueError(f"{name} must be {want}, got {got}")
    return value


# the Python types a JSON value of each kind parses to, and the type it is read as
_JSON_KINDS = {
    "string": (str, str), "integer": ((int, float), int), "number": ((int, float), float)}


def json_value(name: str, value, kind: str):
    """`value` read as a JSON string, integer or number by `kind`; else a ValueError naming `name`.

    A bool is no number, and an integer may be written 720.0 but not 720.9: `str()`,
    `int()` and `float()` would read a null as 'None', a true as 1 and 720.9 as 720.
    """
    types, read = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) or (
            read is int and isinstance(value, float) and not value.is_integer()):
        got = value if isinstance(value, float) else type(value).__name__
        raise ValueError(f"{name} must be a JSON {kind}, got {got}")
    return read(value)


def round_floats(obj, ndigits: int):
    """JSON data with every float rounded to `ndigits`; tuples become lists."""
    if isinstance(obj, float):
        return round(obj, ndigits)
    if isinstance(obj, dict):
        return {k: round_floats(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, ndigits) for v in obj]
    return obj


# a strip of this many pixels keeps one worker's buffers in cache
STRIP_PIXELS = 1 << 16


def strip_rows(height: int, width: int) -> int:
    """Rows in each strip of a frame: `STRIP_PIXELS // width`, at least 1, at most `height`."""
    return max(1, min(height, STRIP_PIXELS // max(width, 1)))
