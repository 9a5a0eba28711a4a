"""Stereo stream merging: timestamp pairing and frame composition.

Color convention for anaglyphs: the LEFT eye feed lands in the blue
channel and the RIGHT eye feed in the red channel (green is zero).  Pick
glasses accordingly; this is the reverse of the common red-left habit.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import os
import re
import tempfile
from typing import TYPE_CHECKING, NamedTuple

from . import check_range, strip_rows
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

# numpy is imported only by the ndarray APIs (the composers, load_stream)
# and by an anaglyph merge; an sbs merge moves bytes only.  The records
# below are plain classes, not dataclasses: `dataclasses` imports
# `inspect`, which costs a merge's start about 12 ms.


class MergeError(ValueError):
    """Raised for unsorted or non-finite timestamps, dimension mismatches, or bad frames."""


class Frame:
    """A frame's pixels in memory, checked to be a (height, width, 3) uint8 array."""

    __slots__ = ("width", "height", "pixels", "timestamp", "source")

    def __init__(self, width: int, height: int, pixels: np.ndarray, timestamp: float,
                 source: str):
        if pixels.dtype != "uint8":
            raise MergeError(f"pixels must be uint8, got {pixels.dtype}")
        if pixels.shape != (height, width, 3):
            raise MergeError(f"pixel buffer {pixels.shape} does not match {width}x{height}x3")
        self.width = width
        self.height = height
        self.pixels = pixels
        self.timestamp = timestamp  # ms
        self.source = source  # "left" | "right" for captures; composers mark their output

    @classmethod
    def from_pixels(cls, pixels: np.ndarray, timestamp: float, source: str) -> "Frame":
        h, w = pixels.shape[:2]
        return cls(width=w, height=h, pixels=pixels, timestamp=timestamp, source=source)


class FrameRef(NamedTuple):
    """A frame known by its manifest entry and PPM header; its pixels stay on disk."""

    timestamp: float  # ms
    path: str
    width: int
    height: int


class FramePair(NamedTuple):
    left: Frame | FrameRef
    right: Frame | FrameRef
    timestamp_skew: float


class PairingResult(NamedTuple):
    pairs: list[FramePair]
    dropped_left: list[Frame | FrameRef]
    dropped_right: list[Frame | FrameRef]


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


def _root(parent: list[int], j: int) -> int:
    """The root of `j` in the union-find `parent`, halving the path walked."""
    while parent[j] != j:
        parent[j] = parent[parent[j]]
        j = parent[j]
    return j


def pair_frames(
    left_stream: list[Frame | FrameRef],
    right_stream: list[Frame | FrameRef],
    tolerance: float,
) -> PairingResult:
    """Greedy nearest-timestamp pairing.

    Walking the left stream in order, each frame takes the not-yet-matched
    right frame with the least (|Δt|, t_right), Δt as computed in floats,
    within the tolerance: the nearest, the earlier on a tie, and of right
    frames with one timestamp the first in the stream.  Unmatched frames
    on either side are reported, never silently discarded.  Only each
    frame's `timestamp` is read, so `FrameRef`s pair without their pixels
    being loaded.  The untaken right frames are kept in two union-finds
    (Tarjan 1975), so pairing n left and m right frames costs
    O((n + m) log m) at any tolerance.
    """
    check_range("tolerance", tolerance, "non-negative", MergeError)
    _check_timestamps(left_stream, "left")
    _check_timestamps(right_stream, "right")

    ts = [f.timestamp for f in right_stream]
    m = len(ts)
    # _root(up, j) is the first untaken index >= j (m if none); _root(down, j) - 1 the
    # last untaken index < j (-1 if none)
    up, down = list(range(m + 1)), list(range(m + 1))
    pairs, dropped_left = [], []
    for lf in left_stream:
        t = lf.timestamp
        pos = bisect.bisect_left(ts, t)
        j, k = _root(up, pos), _root(down, pos) - 1
        if k >= 0 and t - ts[k] <= tolerance and (j == m or t - ts[k] <= ts[j] - t):
            # of the untaken frames as near to t as k (one timestamp, or ones whose
            # distances to t round to one float), the first has the least key
            j = _root(up, bisect.bisect_left(ts, ts[k] - t, 0, k, key=lambda v: v - t))
        elif j == m or ts[j] - t > tolerance:
            dropped_left.append(lf)
            continue
        up[j], down[j + 1] = j + 1, j
        pairs.append(FramePair(lf, right_stream[j], abs(t - ts[j])))
    dropped_right = [f for j, f in enumerate(right_stream) if up[j] == j]  # still a root
    return PairingResult(pairs, dropped_left, dropped_right)


def _check_dims(pair: FramePair) -> None:
    l, r = pair.left, pair.right
    if (l.width, l.height) != (r.width, r.height):
        raise MergeError(
            f"dimension mismatch: left {l.width}x{l.height} vs right {r.width}x{r.height}"
        )


def side_by_side(pair: FramePair) -> Frame:
    """Double-width frame: left view in columns [0, w), right in [w, 2w)."""
    return merge_pairs([pair], "sbs")[0]


def anaglyph(pair: FramePair) -> Frame:
    """Blue = left luminance, red = right luminance, green = 0 (BT.601)."""
    return merge_pairs([pair], "anaglyph")[0]


def merge_pairs(pairs: list[FramePair], mode: str) -> list[Frame]:
    merge = _frame_merger(mode)
    frames = []
    for pair in pairs:
        _check_dims(pair)
        px = _merge_pixels(mode, pair.left.pixels, pair.right.pixels, merge)
        frames.append(Frame.from_pixels(px, pair.left.timestamp, mode))
    return frames


def _merge_pixels(mode: str, left: np.ndarray, right: np.ndarray, merge=None) -> np.ndarray:
    """Two uint8 (h, w, 3) frames merged into a new array by `merge`, a `_frame_merger(mode)`."""
    import numpy as np

    merge = merge or _frame_merger(mode)
    if not (left.dtype == right.dtype == np.uint8 and left.ndim == 3 and left.shape[2] == 3
            and right.shape == left.shape):
        raise MergeError(f"{mode} needs uint8 (h, w, 3) frames of one shape: "
                         f"left {left.dtype} {left.shape}, right {right.dtype} {right.shape}")
    h, w = left.shape[:2]
    out = np.empty((h, 2 * w if mode == "sbs" else w, 3), dtype=np.uint8)
    flat_out = memoryview(out.reshape(-1))

    def reader(pixels):
        flat = memoryview(np.ascontiguousarray(pixels).reshape(-1))  # copied only if strided

        def read(buf, offset: int) -> None:
            buf[:] = flat[offset : offset + len(buf)]
        return read

    def write(views, offset: int) -> None:
        for view in views:
            flat_out[offset : offset + len(view)] = view
            offset += len(view)

    merge(w, h, reader(left), reader(right), write)
    return out


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
    merged frame of either mode is refused.  The pairs are then shared
    among one worker per CPU, pair 0 alone on the caller first, the others
    forked helper processes (`share_items`, so meant for a
    single-threaded process such as the CLI), and a worker merges each
    pair it takes into `<mode>_NNNN.ppm` by itself, through `raster_reader`
    (a frame whose size has changed since `scan_stream` is a `PpmError`),
    `raster_writer` and the one `_frame_merger` made first.  So a one-pair
    stream merges on one CPU, a trade made for video streams of many
    pairs.  On any exception, `KeyboardInterrupt` included, every frame
    written or begun and every directory made (unless it holds other
    files) is removed, after every helper has been reaped, before the
    exception is re-raised.
    """
    merge = _frame_merger(mode)
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
    # named before any pair starts, so that cleanup reaches every worker's frames
    paths = [os.path.join(out_dir, f"{mode}_{i:04d}.ppm") for i in range(len(pairs))]

    def merge_pair(i: int) -> None:
        left, right = pairs[i].left, pairs[i].right
        w, h = left.width, left.height
        with (
            raster_reader(left.path, w, h) as read_left,
            raster_reader(right.path, w, h) as read_right,
            raster_writer(paths[i], 2 * w if mode == "sbs" else w, h) as write,
        ):
            merge(w, h, read_left, read_right, write)

    try:
        os.makedirs(out_dir, exist_ok=True)
        share_items(len(pairs), merge_pair)
        write_manifest(os.path.join(out_dir, "pairs.txt"),
                       [(pair.left.timestamp, path) for pair, path in zip(pairs, paths)])
    except BaseException:  # a failed or interrupted run leaves no partial output
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        for d in made:
            with contextlib.suppress(OSError):  # one holding other files stays
                os.rmdir(d)
        raise


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_items(n: int, run) -> None:
    """Run `run(i)` for items 0 .. n-1 on one worker per CPU, item 0 alone on the caller first.

    After item 0 the caller forks one helper process per further CPU this
    process may run on, never more workers than items left: a helper
    started sooner would slow item 0 down.  A helper is a copy of the
    caller, so it calls its own copy of `run`, with whatever `run` holds
    (its buffers, say) as item 0 left it.  Forking copies only the calling
    thread, so this is meant for a single-threaded process such as the
    CLI, and a helper's work reaches the caller only through files.
    Once a worker has failed, no worker takes a further item, and a helper
    whose parent is gone takes none either.  Every helper is reaped before
    this returns; then the first exception is raised, the caller's before
    the helpers', and a helper killed by a signal is a `MergeError` naming
    it.  With one CPU, one item, or no `os.fork`, every item runs on the
    caller and no process starts.
    """
    if n < 1:
        return
    run(0)
    forks = min(_cpus(), n - 1) - 1 if hasattr(os, "fork") else 0
    # items 1 .. n-1 as 8-byte records in a file whose one open description,
    # and so whose offset, every worker shares: each read takes the next
    # record whole, and a failed worker stops the rest by seeking to the end
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(i.to_bytes(8, "little") for i in range(1, n)))
        queue.seek(0)  # flushes every record to the file
        records = iter(lambda: os.read(queue.fileno(), 8), b"")
        items = (int.from_bytes(record, "little") for record in records)

        def stop() -> None:
            os.lseek(queue.fileno(), 0, os.SEEK_END)

        helpers, errors = [], []
        try:
            for _ in range(forks):
                helpers.append(_fork_helper(run, items, stop))
            for i in items:
                run(i)
        except BaseException as exc:  # raised once every helper is reaped
            stop()
            errors.append(exc)
        for pid, pipe in helpers:
            try:
                error = _reap(pid, pipe)
            except BaseException as exc:  # an interrupt: reap the others all the same
                error = exc
            if error is not None:
                stop()
                errors.append(error)
    if errors:
        raise errors[0]


def _fork_helper(run, items, stop) -> tuple[int, int]:
    """Fork a helper that runs `run` on `items`; its pid and the pipe it reports on.

    A failed helper sends its exception, pickled, and every helper leaves
    through `os._exit`, so it flushes none of the stdio buffers it
    inherited and runs none of the caller's exit code.
    """
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        while os.getppid() == parent and (i := next(items, None)) is not None:
            run(i)
        status = 0
    except BaseException as exc:
        import pickle  # only a failure needs it, here and in `_reap`

        stop()
        with open(write_end, "wb") as report:
            report.write(pickle.dumps(exc))
    finally:
        os._exit(status)


def _reap(pid: int, pipe: int) -> BaseException | None:
    """Wait for helper `pid` to end; the exception it reported through `pipe`, if any."""
    try:
        with open(pipe, "rb") as report:
            sent = report.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if sent:
        import pickle

        return pickle.loads(sent)
    if code == 0:
        return None
    if code < 0:
        import signal

        return MergeError(f"merge helper {pid} was killed by {signal.Signals(-code).name}")
    return MergeError(f"merge helper {pid} exited with status {code} and no report")


def _frame_merger(mode: str):
    """`merge(w, h, read_left, read_right, write)`, which merges one w x h frame pair.

    Strip by strip in row order, `merge` fills its strip buffers through
    `read_left(buf, offset)` and `read_right`, composes them and hands the
    views to `write(views, offset)`; offsets count raster bytes, as for
    `ppmio.raster_reader` and `raster_writer`.  It keeps its buffers until
    the strip size changes.  An unknown mode is a `MergeError` at once.
    """
    if mode not in ("sbs", "anaglyph"):
        raise MergeError(f"merge mode must be 'sbs' or 'anaglyph', got {mode!r}")
    buffers = functools.lru_cache(maxsize=1)(_strip_buffers)

    def merge(w: int, h: int, read_left, read_right, write) -> None:
        rows = strip_rows(h, w)
        left_buf, right_buf, compose = buffers(mode, rows, w)
        row = 3 * w
        out_row = 2 * row if mode == "sbs" else row
        for y0 in range(0, h, rows):
            n = min(rows, h - y0)
            read_left(left_buf[: n * row], y0 * row)
            read_right(right_buf[: n * row], y0 * row)
            write(compose(n), y0 * out_row)

    return merge


def _strip_buffers(mode: str, rows: int, w: int):
    """Left and right strip buffers of `rows` rows of `w` pixels, and a `compose(n)`.

    `compose(n)` merges the first n rows of the buffers and returns the
    flat views to write, in order: sbs the row views of its input buffers,
    anaglyph its output strip.  The anaglyph kernel owns all three of its
    strips: they come from `_kernels.anaglyph_strips`.
    """
    if mode == "anaglyph":
        from . import _kernels

        return _kernels.anaglyph_strips(rows, w)
    row = 3 * w
    left, right = memoryview(bytearray(rows * row)), memoryview(bytearray(rows * row))
    views = [side[y * row : (y + 1) * row] for y in range(rows) for side in (left, right)]
    return left, right, lambda n: views[: 2 * n]
