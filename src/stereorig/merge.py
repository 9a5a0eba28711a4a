"""Stereo stream merging: timestamp pairing and frame composition.

Color convention for anaglyphs: the LEFT eye feed lands in the blue
channel and the RIGHT eye feed in the red channel (green is zero).  Pick
glasses accordingly; this is the reverse of the common red-left habit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from . import check_range
from .ppmio import read_manifest, read_ppm, read_ppm_header

if TYPE_CHECKING:
    import numpy as np

# numpy is imported only by the ndarray APIs (Frame, the composers,
# load_stream) and by an anaglyph stream; an sbs stream moves bytes only.


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


@dataclass(frozen=True)
class Raster:
    """A merged frame as the flat byte chunks of its P6 raster, in order."""

    timestamp: float  # ms, the left frame's
    width: int
    height: int
    chunks: list


def stream_merge(pairs: list[FramePair], mode: str) -> Iterator[Raster]:
    """Merged rasters of `FrameRef` pairs, each pair read only when its turn comes.

    The mode and every pair's dimensions are checked before this returns,
    so a caller that writes output while iterating writes none for a bad
    input.  While the frame size stays the same, every pair is read into the
    same two buffers: a yielded raster is valid only until the next one is
    requested.  An sbs raster's chunks are the input rows themselves (left
    row y, then right row y), so it is written with no compose copy; an
    anaglyph raster's one chunk is the kernel's reused output array.
    """
    _composer(mode)  # rejects an unknown mode
    for pair in pairs:
        _check_dims(pair)
    return _stream(pairs, mode)


def _stream(pairs: list[FramePair], mode: str) -> Iterator[Raster]:
    size = None
    for pair in pairs:
        lref, rref = pair.left, pair.right
        if (lref.width, lref.height) != size:
            size = w, h = lref.width, lref.height
            left_buf, right_buf = bytearray(w * h * 3), bytearray(w * h * 3)
            if mode == "sbs":
                out_width, row = 2 * w, 3 * w
                views = memoryview(left_buf), memoryview(right_buf)
                chunks = [v[y * row : (y + 1) * row] for y in range(h) for v in views]
            else:
                import numpy as np

                from . import _kernels

                out_width = w
                left_px, right_px = (
                    np.frombuffer(b, dtype=np.uint8).reshape(h, w, 3)
                    for b in (left_buf, right_buf)
                )
                out = np.empty((h, w, 3), dtype=np.uint8)
                chunks = [memoryview(out).cast("B")]
        read_ppm(lref.path, left_buf)
        read_ppm(rref.path, right_buf)
        if mode == "anaglyph":
            _kernels.anaglyph_pixels(left_px, right_px, out)
        yield Raster(lref.timestamp, out_width, h, chunks)
