"""Stereo stream merging: timestamp pairing and frame composition.

Color convention for anaglyphs: the LEFT eye feed lands in the blue
channel and the RIGHT eye feed in the red channel (green is zero).  Pick
glasses accordingly; this is the reverse of the common red-left habit.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import check_range, share_strips
from .ppmio import (
    raster_reader,
    raster_writer,
    read_manifest,
    read_ppm,
    read_ppm_header,
    write_manifest,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported only by the ndarray APIs (Frame, the composers,
# load_stream) and by an anaglyph merge; an sbs merge moves bytes only.


class MergeError(ValueError):
    """Raised for unsorted or non-finite timestamps, dimension mismatches, or bad frames."""


@dataclass(eq=False)
class Frame:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8
    timestamp: float  # ms
    source: str  # "left" | "right" for captures; composers mark their output

    def __post_init__(self):
        if self.pixels.dtype != "uint8":
            raise MergeError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.shape != (self.height, self.width, 3):
            raise MergeError(
                f"pixel buffer {self.pixels.shape} does not match "
                f"{self.width}x{self.height}x3"
            )

    @classmethod
    def from_pixels(cls, pixels: np.ndarray, timestamp: float, source: str) -> "Frame":
        h, w = pixels.shape[:2]
        return cls(width=w, height=h, pixels=pixels, timestamp=timestamp, source=source)


@dataclass(frozen=True)
class FrameRef:
    """A frame known by its manifest entry and PPM header; its pixels stay on disk."""

    timestamp: float  # ms
    path: str
    width: int
    height: int


@dataclass(frozen=True)
class FramePair:
    left: Frame | FrameRef
    right: Frame | FrameRef
    timestamp_skew: float


@dataclass
class PairingResult:
    pairs: list[FramePair] = field(default_factory=list)
    dropped_left: list[Frame | FrameRef] = field(default_factory=list)
    dropped_right: list[Frame | FrameRef] = field(default_factory=list)


def _check_timestamps(frames: list[Frame | FrameRef], name: str) -> None:
    for i, frame in enumerate(frames):
        if not math.isfinite(frame.timestamp):
            raise MergeError(
                f"{name} stream has non-finite timestamp {frame.timestamp} at index {i}"
            )
        if i and frame.timestamp < frames[i - 1].timestamp:
            raise MergeError(
                f"{name} stream not timestamp-sorted at index {i}: "
                f"{frames[i].timestamp} after {frames[i - 1].timestamp}"
            )


def pair_frames(
    left_stream: list[Frame | FrameRef],
    right_stream: list[Frame | FrameRef],
    tolerance: float,
) -> PairingResult:
    """Greedy nearest-timestamp pairing.

    Walking the left stream in order, each frame takes the not-yet-matched
    right frame closest in time within the tolerance (earlier frame wins a
    tie).  Unmatched frames on either side are reported, never silently
    discarded.  Only each frame's `timestamp` is read, so `FrameRef`s pair
    without their pixels being loaded.
    """
    check_range("tolerance", tolerance, "non-negative", MergeError)
    _check_timestamps(left_stream, "left")
    _check_timestamps(right_stream, "right")

    right_ts = [f.timestamp for f in right_stream]
    taken = [False] * len(right_stream)
    result = PairingResult()
    for lf in left_stream:
        pos = bisect.bisect_left(right_ts, lf.timestamp)
        best = -1
        best_key = None
        # nearest unmatched neighbor; scan outward from the insertion point
        for j in range(pos - 1, -1, -1):
            if lf.timestamp - right_ts[j] > tolerance:
                break
            if not taken[j]:
                best = j
                best_key = (lf.timestamp - right_ts[j], right_ts[j])
                break
        for j in range(pos, len(right_ts)):
            if right_ts[j] - lf.timestamp > tolerance:
                break
            if not taken[j]:
                key = (right_ts[j] - lf.timestamp, right_ts[j])
                if best_key is None or key < best_key:
                    best, best_key = j, key
                break
        if best >= 0:
            taken[best] = True
            result.pairs.append(
                FramePair(lf, right_stream[best], abs(lf.timestamp - right_ts[best]))
            )
        else:
            result.dropped_left.append(lf)
    result.dropped_right = [f for f, t in zip(right_stream, taken) if not t]
    return result


def _check_dims(pair: FramePair) -> None:
    l, r = pair.left, pair.right
    if (l.width, l.height) != (r.width, r.height):
        raise MergeError(
            f"dimension mismatch: left {l.width}x{l.height} vs right {r.width}x{r.height}"
        )


def side_by_side(pair: FramePair) -> Frame:
    """Double-width frame: left view in columns [0, w), right in [w, 2w)."""
    from . import _kernels

    _check_dims(pair)
    px = _kernels.sbs_pixels(pair.left.pixels, pair.right.pixels)
    return Frame.from_pixels(px, pair.left.timestamp, "sbs")


def anaglyph(pair: FramePair) -> Frame:
    """Blue = left luminance, red = right luminance, green = 0 (BT.601)."""
    from . import _kernels

    _check_dims(pair)
    px = _kernels.anaglyph_pixels(pair.left.pixels, pair.right.pixels)
    return Frame.from_pixels(px, pair.left.timestamp, "anaglyph")


def _composer(mode: str):
    if mode == "sbs":
        return side_by_side
    if mode == "anaglyph":
        return anaglyph
    raise MergeError(f"merge mode must be 'sbs' or 'anaglyph', got {mode!r}")


def merge_pairs(pairs: list[FramePair], mode: str) -> list[Frame]:
    compose = _composer(mode)
    return [compose(p) for p in pairs]


def load_stream(manifest_path: str, source: str) -> list[Frame]:
    frames = []
    for ts, ppm_path in read_manifest(manifest_path):
        px = read_ppm(ppm_path)
        frames.append(Frame.from_pixels(px, ts, source))
    return frames


def scan_stream(manifest_path: str) -> list[FrameRef]:
    """A manifest's frames with every PPM header checked; no pixels are read."""
    return [
        FrameRef(ts, path, *read_ppm_header(path)) for ts, path in read_manifest(manifest_path)
    ]


# what an earlier merge left: its manifest, or a frame of either mode
_MERGE_OUTPUT = re.compile(r"pairs\.txt|(sbs|anaglyph)_\d{4,}\.ppm")


def write_merged(pairs: list[FramePair], mode: str, out_dir: str) -> None:
    """Write the merged frames of `FrameRef` pairs, then `pairs.txt`, into `out_dir`.

    The mode, every pair's dimensions and `out_dir` are checked before any
    directory is made or pixel read: an `out_dir` holding `pairs.txt` or a
    merged frame of either mode is refused.  Each pair is then merged into
    `<mode>_NNNN.ppm` strip by strip (`_merge_pair`).  On any exception,
    every frame written or begun and every directory made (unless it holds
    other files) is removed before the exception is re-raised.
    """
    _composer(mode)  # rejects an unknown mode
    for pair in pairs:
        _check_dims(pair)
    names = os.listdir(out_dir) if os.path.exists(out_dir) else []
    stale = sorted(n for n in names if _MERGE_OUTPUT.fullmatch(n))
    if stale:
        raise MergeError(f"output directory {out_dir} already holds an earlier {stale[0]}")
    made, missing = [], out_dir  # the missing directories, deepest first
    while missing and not os.path.exists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    entries, spare = [], []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for i, pair in enumerate(pairs):
            path = os.path.join(out_dir, f"{mode}_{i:04d}.ppm")
            entries.append((pair.left.timestamp, path))
            _merge_pair(pair.left, pair.right, mode, path, spare)
        write_manifest(os.path.join(out_dir, "pairs.txt"), entries)
    except BaseException:  # a failed or interrupted run leaves no partial output
        for _, path in entries:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        for d in made:
            with contextlib.suppress(OSError):  # one holding other files stays
                os.rmdir(d)
        raise


def _merge_pair(left: FrameRef, right: FrameRef, mode: str, path: str, spare: list) -> None:
    """Merge one pair of frames into the P6 file `path`, strip by strip.

    Both inputs are opened and their headers parsed again: a frame whose
    size has changed since `scan_stream` is a `PpmError`.  The strips are
    shared among one worker per CPU (`stereorig.share_strips`).  Each
    worker owns strip-sized buffers; for each strip it takes, it reads the
    left and the right rows at their raster offsets, composes them and
    writes the result at its output offset, so the I/O of one strip
    overlaps the compute of another and no frame-sized buffer exists.  sbs
    writes the row views of its input buffers; anaglyph writes the output
    of its worker's `_kernels.anaglyph_composer`.  A worker takes its
    buffers from `spare` (which only ever holds buffers of this `mode`)
    when they fit the strip, and every worker's buffers go back there once
    the pair is done, so a stream of one frame size allocates them once
    per worker, not once per pair.
    """
    w, h = left.width, left.height
    row = 3 * w
    out_row = 2 * row if mode == "sbs" else row
    taken = []
    with (
        raster_reader(left.path, w, h) as read_left,
        raster_reader(right.path, w, h) as read_right,
        raster_writer(path, out_row // 3, h) as write,
    ):

        def worker(rows: int):
            try:
                buffers = spare.pop()
            except IndexError:  # `pop` is atomic, so workers never share buffers
                buffers = None
            if buffers is None or buffers[0] != (rows, w):
                buffers = (rows, w), *_strip_buffers(mode, rows, w)
            taken.append(buffers)
            _, left_buf, right_buf, compose = buffers

            def strip(y0: int, y1: int) -> None:
                n = y1 - y0
                read_left(left_buf[: n * row], y0 * row)
                read_right(right_buf[: n * row], y0 * row)
                write(compose(n), y0 * out_row)

            return strip

        share_strips(h, w, worker)
    spare.extend(taken)


def _strip_buffers(mode: str, rows: int, w: int):
    """One worker's left and right strip buffers, and its `compose(n)`.

    `compose(n)` merges the first n rows of the buffers and returns the
    flat views to write, in order.
    """
    row = 3 * w
    left, right = memoryview(bytearray(rows * row)), memoryview(bytearray(rows * row))
    if mode == "sbs":
        views = [side[y * row : (y + 1) * row] for y in range(rows) for side in (left, right)]
        return left, right, lambda n: views[: 2 * n]
    import numpy as np

    from . import _kernels

    out = bytearray(rows * row)  # green stays 0
    left_px, right_px, out_px = (
        np.frombuffer(buf, dtype=np.uint8).reshape(rows, w, 3) for buf in (left, right, out)
    )
    anaglyph = _kernels.anaglyph_composer(rows, w)

    def compose(n: int) -> list:
        anaglyph(left_px[:n], right_px[:n], out_px[:n])
        return [memoryview(out)[: n * row]]

    return left, right, compose
