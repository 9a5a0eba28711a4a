"""Binary PPM (P6, maxval 255) reading/writing and stream manifests.

A stream manifest is a text file with one `<timestamp_ms> <ppm_path>` line
per frame; relative paths resolve against the manifest's directory.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one os.writev call accepts


class PpmError(ValueError):
    """Raised for malformed PPM files or manifests."""


def _next_token(fh) -> bytes:
    """The next header token, consuming the one whitespace byte that ends it."""
    c = fh.read(1)
    while c == b"#" or c.isspace():
        if c == b"#":
            while c not in (b"\n", b""):
                c = fh.read(1)
        c = fh.read(1)
    token = b""
    while c and not c.isspace():
        token += c
        c = fh.read(1)
    if not token:
        raise PpmError("truncated header")
    return token


def _read_header(fh, path: str) -> tuple[int, int]:
    """Parse the P6 header at the start of `fh`, leaving `fh` at the raster.

    Returns (width, height) once the file size shows the whole raster is
    there; headers may hold `#` comments, so their length is not fixed.
    """
    try:
        magic = _next_token(fh)
        if magic != b"P6":
            raise PpmError(f"unsupported magic {magic!r}; only binary P6 is handled")
        tokens = [_next_token(fh) for _ in range(3)]
        w, h, maxval = (int(t) for t in tokens)
    except PpmError:
        raise
    except ValueError as exc:
        raise PpmError(f"malformed header in {path}: {exc}") from exc
    if w <= 0 or h <= 0:
        raise PpmError(f"bad dimensions {w}x{h} in {path}")
    if maxval != 255:
        raise PpmError(f"maxval {maxval} unsupported; expected 255")
    need = w * h * 3
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got < need:
        raise PpmError(f"{path}: expected {need} raster bytes, got {got}")
    return w, h


def read_ppm_header(path: str) -> tuple[int, int]:
    """(width, height) of a P6 file, checked as `read_ppm` checks it; reads no pixels."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_ppm(path: str, out: np.ndarray | bytearray | None = None) -> np.ndarray | bytearray:
    """Pixels of a P6 file as (height, width, 3) uint8, read into `out` when given.

    `out` must be a C-contiguous uint8 array of exactly the file's shape, or
    a bytearray of exactly its raster's size; it is returned filled.
    """
    with open(path, "rb") as fh:
        w, h = _read_header(fh, path)
        if out is None:
            import numpy as np

            out = np.empty((h, w, 3), dtype=np.uint8)
        elif isinstance(out, bytearray):
            if len(out) != w * h * 3:
                raise PpmError(f"{path}: {w}x{h} frame does not fit a {len(out)}-byte buffer")
        elif out.shape != (h, w, 3) or out.dtype != "uint8" or not out.flags.c_contiguous:
            raise PpmError(
                f"{path}: {w}x{h} frame does not fit a {out.shape} {out.dtype} buffer"
            )
        got = fh.readinto(out)
    if got != w * h * 3:
        raise PpmError(f"{path}: expected {w * h * 3} raster bytes, got {got}")
    return out


def write_raster(path: str, width: int, height: int, chunks: list) -> None:
    """Write a P6 file whose raster is the concatenation of `chunks`.

    Each chunk is a flat bytes-like object (bytes, bytearray or a one-byte
    memoryview), so its len() is its size in bytes.  The chunks must hold
    exactly width * height * 3 bytes, which is checked before the file is
    opened.  The header and chunks go out through `os.writev`, at most
    `_IOV_MAX` buffers per call, with no copy into one buffer; a short write
    resumes where it stopped.
    """
    need = width * height * 3
    got = sum(map(len, chunks))
    if got != need:
        raise PpmError(f"{width}x{height} raster needs {need} bytes, got {got}")
    views = [f"P6\n{width} {height}\n255\n".encode("ascii"), *chunks]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while views:
            batch = views[:_IOV_MAX]
            n = os.writev(fd, batch)
            if n == sum(map(len, batch)):
                del views[:_IOV_MAX]
                continue
            if n == 0:
                raise OSError(f"{path}: write made no progress")
            k = 0
            while n >= len(views[k]):
                n -= len(views[k])
                k += 1
            del views[:k]
            views[0] = memoryview(views[0])[n:]
    finally:
        os.close(fd)


def write_ppm(path: str, pixels: np.ndarray) -> None:
    """Write (h, w, 3) uint8 `pixels` as a P6 file."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != "uint8":
        raise PpmError(f"pixels must be (h, w, 3) uint8, got {pixels.shape} {pixels.dtype}")
    import numpy as np

    h, w = pixels.shape[:2]
    write_raster(path, w, h, [memoryview(np.ascontiguousarray(pixels)).cast("B")])


def read_manifest(path: str) -> list[tuple[float, str]]:
    """(timestamp_ms, absolute ppm path) per line, in file order."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as fh:
        for ts, p in entries:
            rel = os.path.relpath(p, base)
            fh.write(f"{_format_timestamp(ts)} {rel}\n")


def _format_timestamp(ts: float) -> str:
    """Short `%g` text where it reads back as the same float, else `repr`."""
    text = f"{ts:g}"
    return text if float(text) == ts else repr(float(ts))
