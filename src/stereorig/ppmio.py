"""Binary PPM (P6, maxval 255) reading/writing and stream manifests.

A stream manifest is a text file with one `<timestamp_ms> <ppm_path>` line
per frame; relative paths resolve against the manifest's directory.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one os.pwritev call accepts
_TOKEN_MAX = 20  # bytes of a header token; a P6 width, height or maxval needs far fewer


class PpmError(ValueError):
    """Raised for malformed PPM files or manifests."""


def _next_token(fh, path: str) -> bytes:
    """The next header token, consuming the one whitespace byte that ends it.

    A token longer than `_TOKEN_MAX` bytes is refused as soon as its next
    byte is read, so a file of digits is rejected after a few bytes.
    """
    c = fh.read(1)
    while c == b"#" or c.isspace():
        if c == b"#":
            while c not in (b"\n", b""):
                c = fh.read(1)
        c = fh.read(1)
    token = bytearray()
    while c and not c.isspace():
        if len(token) == _TOKEN_MAX:
            raise PpmError(f"{path}: header token longer than {_TOKEN_MAX} bytes")
        token += c
        c = fh.read(1)
    if not token:
        raise PpmError(f"{path}: truncated header")
    return bytes(token)


def _read_header(fh, path: str) -> tuple[int, int]:
    """Parse the P6 header at the start of `fh`, leaving `fh` at the raster.

    Returns (width, height) once the file size shows the whole raster is
    there; headers may hold `#` comments, so their length is not fixed.
    """
    magic = _next_token(fh, path)
    if magic != b"P6":
        raise PpmError(f"{path}: unsupported magic {magic!r}; only binary P6 is handled")
    tokens = [_next_token(fh, path) for _ in range(3)]
    for token in tokens:
        if not token.isdigit():  # ASCII digits only: int() would take "+1" and "1_0"
            raise PpmError(f"malformed header in {path}: {token!r} is not a decimal number")
    w, h, maxval = map(int, tokens)
    if w <= 0 or h <= 0:
        raise PpmError(f"bad dimensions {w}x{h} in {path}")
    if maxval != 255:
        raise PpmError(f"{path}: maxval {maxval} unsupported; expected 255")
    need = w * h * 3
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got < need:
        raise PpmError(f"{path}: expected {need} raster bytes, got {got}")
    return w, h


def read_ppm_header(path: str) -> tuple[int, int]:
    """(width, height) of a P6 file, checked as `read_ppm` checks it; reads no pixels."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_ppm(path: str) -> np.ndarray:
    """Pixels of a P6 file as (height, width, 3) uint8."""
    import numpy as np

    with open(path, "rb") as fh:
        w, h = _read_header(fh, path)
        out = np.empty((h, w, 3), dtype=np.uint8)
        got = fh.readinto(out)
    if got != w * h * 3:
        raise PpmError(f"{path}: expected {w * h * 3} raster bytes, got {got}")
    return out


@contextlib.contextmanager
def raster_reader(path: str, width: int, height: int):
    """Open a P6 file and yield `read(buf, offset)`, which fills `buf` from its raster.

    The header is parsed again and must still give `width` x `height`, or
    the file is refused with a `PpmError`.  Each read is one `os.preadv`
    at `offset` bytes into the raster, so reads need not come in order; a
    short read is a `PpmError` naming the file.
    """
    with open(path, "rb") as fh:
        size = _read_header(fh, path)
        if size != (width, height):
            raise PpmError(f"{path}: frame is now {size[0]}x{size[1]}, not {width}x{height}")
        fd, start = fh.fileno(), fh.tell()

        def read(buf, offset: int) -> None:
            got = os.preadv(fd, [buf], start + offset)
            if got != len(buf):
                raise PpmError(
                    f"{path}: expected {len(buf)} raster bytes at {offset}, got {got}"
                )

        yield read


@contextlib.contextmanager
def raster_writer(path: str, width: int, height: int):
    """Create the P6 file `path`, write its header and yield `write(views, offset)`.

    `write` puts flat bytes-like `views` back to back at `offset` bytes into
    the raster, through `_write_at`, so writes need not come in order.
    """
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_at(fd, [header], 0, path)
        yield lambda views, offset: _write_at(fd, views, len(header) + offset, path)
    finally:
        os.close(fd)


def _write_at(fd: int, views: list, offset: int, path: str) -> None:
    """Write flat bytes-like `views` back to back at `offset` of `fd`.

    Each `os.pwritev` call takes at most `_IOV_MAX` buffers, with no copy
    into one buffer; a short write resumes where it stopped.  Only a short
    write is accounted view by view.
    """
    views = list(views)
    while views:
        batch = views[:_IOV_MAX]
        n = os.pwritev(fd, batch, offset)
        if n == 0:
            raise OSError(f"{path}: write made no progress")
        offset += n
        if n == sum(map(len, batch)):  # the whole batch, the usual case
            del views[:_IOV_MAX]
            continue
        k = 0
        while n >= len(batch[k]):  # n is short of the batch, so k stays in it
            n -= len(batch[k])
            k += 1
        del views[:k]
        if n:
            views[0] = memoryview(views[0])[n:]


def write_ppm(path: str, pixels: np.ndarray) -> None:
    """Write (h, w, 3) uint8 `pixels` as a P6 file."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != "uint8":
        raise PpmError(f"pixels must be (h, w, 3) uint8, got {pixels.shape} {pixels.dtype}")
    import numpy as np

    h, w = pixels.shape[:2]
    with raster_writer(path, w, h) as write:
        write([memoryview(np.ascontiguousarray(pixels)).cast("B")], 0)


def read_manifest(path: str) -> list[tuple[float, str]]:
    """(timestamp_ms, absolute ppm path) per line, in file order."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise PpmError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise PpmError(f"{path}:{lineno}: expected '<timestamp_ms> <ppm_path>'")
            try:
                ts = float(parts[0])
            except ValueError as exc:
                raise PpmError(f"{path}:{lineno}: bad timestamp {parts[0]!r}") from exc
            if not math.isfinite(ts):
                raise PpmError(f"{path}:{lineno}: timestamp {parts[0]!r} is not finite")
            p = parts[1]
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            entries.append((ts, p))
    return entries


def write_manifest(path: str, entries: list[tuple[float, str]]) -> None:
    """Write `entries` as a manifest at `path`, which appears only once complete.

    The lines go to `<path>.tmp` in the same directory, which then replaces
    `path`; on any exception the temporary file is removed.
    """
    base = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for ts, p in entries:
                rel = os.path.relpath(p, base)
                fh.write(f"{_format_timestamp(ts)} {rel}\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # never made, or not removable: the first error matters
            pass
        raise


def _format_timestamp(ts: float) -> str:
    """Short `%g` text where it reads back as the same float, else `repr`."""
    text = f"{ts:g}"
    return text if float(text) == ts else repr(float(ts))
