"""Pixel kernels: numba fast path with a pure-numpy fallback.

The numba path is used when numba imports cleanly and the environment
variable STEREORIG_NO_NUMBA is not "1".  Both implementations run the
same float64 operations in the same order, so their outputs are
bit-identical; callers may rely on that.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None

_FORCE_NUMPY = os.environ.get("STEREORIG_NO_NUMBA", "") == "1"

# BT.601 luma weights; byte value = floor(luma + 0.5), clamped at 255
_WR, _WG, _WB = 0.299, 0.587, 0.114


def anaglyph_numpy(
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Anaglyph of two (h, w, 3) uint8 frames, written into `out` (h, w, 3) uint8.

    `scratch` is float64 of shape (2, h, w).  Either buffer is allocated when
    not given; passing them lets a caller reuse both across frames.  Each
    luma is summed left to right in float64, as `anaglyph_oracle` does.
    """
    h, w = left.shape[:2]
    if out is None:
        out = np.empty((h, w, 3), dtype=np.uint8)
    if scratch is None:
        scratch = np.empty((2, h, w), dtype=np.float64)
    lum, term = scratch
    for src, channel in ((right, 0), (left, 2)):
        np.multiply(src[..., 0], _WR, out=lum)
        np.multiply(src[..., 1], _WG, out=term)
        lum += term
        np.multiply(src[..., 2], _WB, out=term)
        lum += term
        lum += 0.5
        np.floor(lum, out=lum)
        np.minimum(lum, 255.0, out=lum)
        out[..., channel] = lum
    out[..., 1] = 0
    return out


def sbs_numpy(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Left and right (h, w, 3) frames side by side in `out` (h, 2w, 3), allocated if not given."""
    return np.concatenate([left, right], axis=1, out=out)


def _anaglyph_loops(left, right, out):
    h, w = left.shape[0], left.shape[1]
    for y in range(h):
        for x in range(w):
            lum_l = left[y, x, 0] * 0.299 + left[y, x, 1] * 0.587 + left[y, x, 2] * 0.114
            lum_r = right[y, x, 0] * 0.299 + right[y, x, 1] * 0.587 + right[y, x, 2] * 0.114
            r = np.floor(lum_r + 0.5)
            b = np.floor(lum_l + 0.5)
            if r > 255.0:
                r = 255.0
            if b > 255.0:
                b = 255.0
            out[y, x, 0] = r
            out[y, x, 1] = 0
            out[y, x, 2] = b
    return out


def _sbs_loops(left, right, out):
    h, w = left.shape[0], left.shape[1]
    for y in range(h):
        for x in range(w):
            for c in range(3):
                out[y, x, c] = left[y, x, c]
                out[y, w + x, c] = right[y, x, c]
    return out


if numba is not None:
    _anaglyph_jit = numba.njit(cache=False)(_anaglyph_loops)
    _sbs_jit = numba.njit(cache=False)(_sbs_loops)
else:
    _anaglyph_jit = None
    _sbs_jit = None


def numba_available() -> bool:
    return numba is not None


def active_backend() -> str:
    return "numpy" if (_FORCE_NUMPY or numba is None) else "numba"


def anaglyph_numba(
    left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    if _anaglyph_jit is None:
        raise RuntimeError("numba is not available")
    if out is None:
        out = np.zeros(left.shape, dtype=np.uint8)
    return _anaglyph_jit(left, right, out)


def sbs_numba(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if _sbs_jit is None:
        raise RuntimeError("numba is not available")
    if out is None:
        h, w = left.shape[0], left.shape[1]
        out = np.zeros((h, 2 * w, 3), dtype=np.uint8)
    return _sbs_jit(left, right, out)


def anaglyph_pixels(
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Anaglyph through the active backend; see `anaglyph_numpy` for the buffers."""
    if active_backend() == "numba":
        return anaglyph_numba(left, right, out)
    return anaglyph_numpy(left, right, out, scratch)


def sbs_pixels(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Side by side through the active backend, into `out` when given."""
    if active_backend() == "numba":
        return sbs_numba(left, right, out)
    return sbs_numpy(left, right, out)
