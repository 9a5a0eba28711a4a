"""Pixel kernels: the anaglyph and side-by-side composers, in numpy.

The anaglyph works through the frame in strips of about `_STRIP_PIXELS`
pixels, so each worker's float64 work space stays in cache.  The strips
are shared among one worker per CPU the process may run on: the calling
thread and one helper thread per further CPU, but no more workers than
strips.  Each worker takes the next strip's start row from one shared
range iterator (`next` on it is one step under the interpreter lock) and
owns its work space, and numpy releases the lock inside each strip's
loops.  Every output byte depends only on the pixel under it, and the
float64 operations run in the order of the BT.601 formula in
`tests/oracles.py`, so the output is bit-identical to it whichever worker
made a strip.  Helpers start on each call and are joined before it
returns, so no thread outlives a call; with one CPU, or a frame of one
strip, no thread starts at all.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# BT.601 luma weights; byte value = floor(luma + 0.5), which is at most 255
_WR, _WG, _WB = 0.299, 0.587, 0.114

_STRIP_PIXELS = 1 << 16  # two float64 planes of this size take about 1 MB


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def anaglyph_pixels(
    left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Anaglyph of two (h, w, 3) uint8 frames, written into `out` (h, w, 3) uint8.

    `out` is allocated when not given; passing it lets a caller reuse it
    across frames.  Red is the right frame's BT.601 luma, blue the left
    frame's, green is 0.  Each luma is summed left to right in float64, as
    `anaglyph_oracle` does.  `luma + 0.5` lies in [0.5, 255.5], so the store
    into uint8 truncates it to floor(luma + 0.5) with no clamp needed.
    An exception in a helper thread is raised again here, after every
    helper has been joined.
    """
    h, w = left.shape[:2]
    if out is None:
        out = np.empty((h, w, 3), dtype=np.uint8)
    if left.shape[2:] != (3,) or right.shape != left.shape or out.shape != left.shape:
        raise ValueError(
            f"anaglyph needs (h, w, 3) frames of one shape: "
            f"left {left.shape}, right {right.shape}, out {out.shape}"
        )
    rows = max(1, _STRIP_PIXELS // max(w, 1))
    strips = range(0, h, rows)
    starts = iter(strips)
    errors: list[BaseException] = []

    def work() -> None:
        lum_strip, term_strip = np.empty((2, rows, w), dtype=np.float64)
        for y0 in starts:
            y1 = min(y0 + rows, h)
            lum, term = lum_strip[: y1 - y0], term_strip[: y1 - y0]
            for src, channel in ((right, 0), (left, 2)):
                strip = src[y0:y1]
                np.multiply(strip[..., 0], _WR, out=lum)
                np.multiply(strip[..., 1], _WG, out=term)
                lum += term
                np.multiply(strip[..., 2], _WB, out=term)
                lum += term
                lum += 0.5
                out[y0:y1, :, channel] = lum
            out[y0:y1, :, 1] = 0

    def helper() -> None:
        try:
            work()
        except BaseException as exc:  # handed to the caller, which raises it
            errors.append(exc)

    helpers = []
    try:
        for _ in range(min(_cpus(), len(strips)) - 1):
            thread = threading.Thread(target=helper)
            thread.start()
            helpers.append(thread)
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return out


def sbs_pixels(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Left and right (h, w, 3) frames side by side in a new (h, 2w, 3) array."""
    return np.concatenate([left, right], axis=1)
