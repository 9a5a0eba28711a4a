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

# each range a finite number may be held to: its test and the words that reject it
_RANGES = {
    "finite": (math.isfinite, "finite"),
    "non-negative": (lambda v: v >= 0, "finite and non-negative"),
    "positive": (lambda v: v > 0, "positive and finite"),
}


def check_range(name: str, value: float, kind: str = "finite", error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is finite and, by `kind`, >= 0 or > 0."""
    test, words = _RANGES[kind]
    try:
        ok = math.isfinite(value) and test(value)
    except OverflowError:  # an integer too big for a float, which float() would refuse later
        ok = False
    if not ok:
        raise error(f"{name} must be {words}, got {value}")


def read_text(path: str, error: type) -> str:
    """The UTF-8 text of the file at `path`, newlines as `\\n`; other text is an `error`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from exc


def parse_json(text: str, what: str, error: type):
    """The JSON document `text`; malformed or too deeply nested, it is an `error` naming `what`."""
    import json  # here, so that importing the CLI loads no json

    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4,300 digits
        raise error(f"malformed {what}: {exc}") from exc
    except RecursionError as exc:
        raise error(f"malformed {what}: nested too deeply") from exc


def dump_json(doc) -> str:
    """`doc` as a JSON document: indented by 2, keys sorted, no NaN or Infinity, a final newline."""
    import json  # here, so that importing the CLI loads no json

    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
