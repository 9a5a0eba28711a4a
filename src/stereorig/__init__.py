"""Tools for building phone-based stereo capture rigs.

Covers the full path from a device catalog to a working rig: body/camera
geometry and placement solving, printable cut/fold templates (SVG),
on-screen alignment guidance, a simulated pairing and capture-sync
protocol, and stereo frame merging (side-by-side and anaglyph).
"""

import math
import os
import threading

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


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def strip_rows(height: int, width: int) -> int:
    """Rows in each strip of a frame: `STRIP_PIXELS // width`, at least 1, at most `height`."""
    return max(1, min(height, STRIP_PIXELS // max(width, 1)))


def share_items(n: int, worker) -> None:
    """Run items 0 .. n-1 on one worker per CPU, item 0 alone on the calling thread first.

    Each worker calls `worker()` once for its own `run`, which owns that
    worker's buffers, then `run(i)` on each item it takes from one shared
    range iterator.  After item 0 the caller starts one helper thread per
    further CPU this process may run on, never more workers than items
    left: a helper started sooner would slow item 0 down.  Once a worker
    has failed, the others take no further item.  Helpers are joined before
    this returns, and the first exception is raised only then; with one
    CPU, or one item, no thread starts.
    """
    items = iter(range(n))
    errors: list[BaseException] = []
    helpers = []

    def work() -> None:
        try:
            run = worker()
            for i in items:
                if errors:
                    break
                run(i)
                if i == 0:  # on the caller, alone so far: the helpers join it now
                    for _ in range(min(_cpus(), n - 1) - 1):
                        thread = threading.Thread(target=work)
                        thread.start()
                        helpers.append(thread)
        except BaseException as exc:  # raised by the caller once every helper is joined
            errors.append(exc)

    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
