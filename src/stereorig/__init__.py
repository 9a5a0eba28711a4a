"""Tools for building phone-based stereo capture rigs.

Covers the full path from a device catalog to a working rig: body/camera
geometry and placement solving, printable cut/fold templates (SVG),
on-screen alignment guidance, a simulated pairing and capture-sync
protocol, and stereo frame merging (side-by-side and anaglyph).
"""

import math
import os
import stat

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

# the largest length: a float's step at it, 1.2e-7 mm, is far below the 0.001 mm an SVG prints
MAX_LENGTH_MM = 1e9
# the largest latency, jitter, clock offset, capture delay or duration, in ms: a run reaches
# about 67 times it, below 2**40 ms, where a float's step is 0.12 us, far below a frame period
MAX_TIME_MS = 1e10

# each range a finite number may be held to: its test, the words that refuse a value failing
# it, and the largest magnitude it admits, with its unit.  A screen or frame side is at most
# 1e5 px, 13 times an 8K frame's, so a 1 px grid stays 1e5 lines a side; a frame rate is at
# most 1,000 fps, past the fastest phone's 960, so a run at MAX_TIME_MS counts its 1e10 ticks;
# a pixel density is at most 1,000 px/mm, about 30 times the densest phone screen's 32 (806 ppi)
_FINITE = (math.isfinite, "finite")
_NON_NEGATIVE = (lambda v: v >= 0, "finite and non-negative")
_POSITIVE = (lambda v: v > 0, "positive and finite")
_RANGES = {
    "finite": (*_FINITE, math.inf, ""),
    "non-negative": (*_NON_NEGATIVE, math.inf, ""),
    "positive": (*_POSITIVE, math.inf, ""),
    "length": (*_POSITIVE, MAX_LENGTH_MM, "mm"),
    "non-negative length": (*_NON_NEGATIVE, MAX_LENGTH_MM, "mm"),
    "time": (*_FINITE, MAX_TIME_MS, "ms"),
    "non-negative time": (*_NON_NEGATIVE, MAX_TIME_MS, "ms"),
    "pixels": (*_POSITIVE, 1e5, "px"),
    "rate": (*_POSITIVE, 1e3, "fps"),
    "density": (*_POSITIVE, 1e3, "px/mm"),
    "probability": (lambda v: 0 <= v <= 1, "in [0, 1]", math.inf, ""),
}


def check_range(name: str, value: float, kind: str = "finite", error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is finite and meets `kind`'s test and bound."""
    test, words, bound, unit = _RANGES[kind]
    try:
        ok = math.isfinite(value) and test(value)
    except OverflowError:  # an integer too big for a float, which float() would refuse later
        ok = False
    if not ok:
        raise error(f"{name} must be {words}, got {value}")
    if abs(value) > bound:
        limit = f"at most {bound:g}" if value > 0 else f"at least {-bound:g}"
        raise error(f"{name} must be {limit} {unit}, got {value}")


def read_text(path: str, error: type) -> str:
    """The UTF-8 text of the file at `path`, newlines as `\\n`; other text is an `error`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, where a regular file appears only once complete.

    The text goes to `<path>.tmp` in the same directory, which then replaces
    `path`; on any exception the temporary file is removed, and an error
    opening it names `path`.  A path that exists and is no regular file (a
    FIFO, a device, a symlink) is written in place and never renamed over.
    """
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
            exc.filename = path
        try:
            os.unlink(tmp)
        except OSError:  # never made, or not removable: the first error matters
            pass
        raise


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
