"""Binary PPM (P6, maxval 255) reading/writing and stream manifests.

A stream manifest is a text file with one `<timestamp_ms> <ppm_path>` line
per frame; relative paths resolve against the manifest's directory.
"""

from __future__ import annotations

import math
import os

import numpy as np


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


def read_ppm(path: str, out: np.ndarray | None = None) -> np.ndarray:
    """Pixels of a P6 file as (height, width, 3) uint8, read into `out` when given.

    `out` must be a C-contiguous uint8 array of exactly the file's shape.
    """
    with open(path, "rb") as fh:
        w, h = _read_header(fh, path)
        if out is None:
            out = np.empty((h, w, 3), dtype=np.uint8)
        elif out.shape != (h, w, 3) or out.dtype != np.uint8 or not out.flags.c_contiguous:
            raise PpmError(
                f"{path}: {w}x{h} frame does not fit a {out.shape} {out.dtype} buffer"
            )
        got = fh.readinto(out)
    if got != out.nbytes:
        raise PpmError(f"{path}: expected {out.nbytes} raster bytes, got {got}")
    return out


def write_ppm(path: str, pixels: np.ndarray) -> None:
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise PpmError(f"pixels must be (h, w, 3) uint8, got {pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(memoryview(np.ascontiguousarray(pixels)))


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
