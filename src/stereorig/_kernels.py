"""Pixel kernels: the anaglyph and side-by-side composers, in numpy.

The anaglyph works a strip at a time, each worker in its own float32 work
space (`anaglyph_composer`), and `anaglyph_pixels` shares a frame's strips
among one worker per CPU through `stereorig.share_strips`.  It is exact:

- A luma in thousandths, `v = 299 R + 587 G + 114 B`, is an integer of at
  most 255,000.  Every product and partial sum is an integer below 2^24,
  so float32 holds `v` exactly whatever order BLAS sums it in, with or
  without FMA.  Each strip is cast to float32 in one contiguous pass per
  eye, and `v` of both eyes comes from one `np.matmul` call whose every
  block of `_GEMV_PIXELS` pixels is one gemv, small enough that OpenBLAS
  starts no threads of its own to compete with the workers.
- `y = fl32((v + 500) / 1000)` is correctly rounded, so `trunc(y)` is
  floor((v + 500) / 1000), the BT.601 byte floor(luma + 0.5) in exact
  arithmetic: off a tie the quotient is at least 0.001 from a whole
  number, far more than float32's error below 256.  The float64 formula
  of `tests/oracles.py`, ((R 0.299 + G 0.587) + B 0.114) + 0.5, agrees
  with it except at a tie, where v + 500 is a multiple of 1000 (16,782 of
  the 2^24 colours) and its own rounding may give one less.
- At a tie `y` is exactly a whole number, so each strip finds its ties
  where `trunc(y) == y` (about 140 of the 2 x 65,536 values of a strip of
  noise) and recomputes just those with the float64 formula, term by term.
  The output is bit-identical to the oracle whichever worker made a strip.
"""

from __future__ import annotations

import numpy as np

from . import share_strips

# BT.601 luma weights in thousandths, and the float64 weights of the formula itself
_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)
_BT601 = np.array([0.299, 0.587, 0.114])
# pixels one gemv takes: OpenBLAS runs a gemv of this size on the calling
# thread alone, while one of 2^18 pixels ran on two threads of its own
_GEMV_PIXELS = 2048


def anaglyph_composer(rows: int, width: int):
    """A function that composes anaglyph strips of up to `rows` rows in its own work space.

    It is called as `compose(left, right, out)` on (n, width, 3) uint8
    strips, n <= rows, and writes red from `right` and blue from `left`
    into `out`; it leaves green as it is.  Both eyes go through each step
    in one buffer, the right eye's values first, so that every numpy call
    does the work of two.  One composer serves one thread.
    """
    colours = np.empty((2 * rows * width, 3), dtype=np.float32)
    values, whole = np.empty((2, 2 * rows * width), dtype=np.float32)
    tie = np.empty(2 * rows * width, dtype=bool)
    luma = np.empty(2 * rows * width, dtype=np.uint8)

    def compose(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
        k = len(left) * width
        c, v, t, ties, bytes_ = (a[: 2 * k] for a in (colours, values, whole, tie, luma))
        np.copyto(c[:k].reshape(right.shape), right)
        np.copyto(c[k:].reshape(left.shape), left)
        full = 2 * k - 2 * k % _GEMV_PIXELS
        np.matmul(
            c[:full].reshape(-1, _GEMV_PIXELS, 3), _WEIGHTS,
            out=v[:full].reshape(-1, _GEMV_PIXELS),
        )
        np.matmul(c[full:], _WEIGHTS, out=v[full:])
        v += 500
        np.divide(v, 1000, out=v)
        np.trunc(v, out=t)
        np.equal(t, v, out=ties)
        at = np.flatnonzero(ties)
        if at.size:  # the float64 formula itself, term by term
            terms = c[at] * _BT601
            t[at] = np.floor((terms[:, 0] + terms[:, 1]) + terms[:, 2] + 0.5)
        np.copyto(bytes_, t, casting="unsafe")
        out[..., 0] = bytes_[:k].reshape(left.shape[:2])
        out[..., 2] = bytes_[k:].reshape(left.shape[:2])

    return compose


def anaglyph_pixels(
    left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Anaglyph of two (h, w, 3) uint8 frames, written into `out` (h, w, 3) uint8.

    `out` is allocated when not given.  Red is the right frame's BT.601
    luma, blue the left frame's, green is 0, each byte equal to the float64
    formula's.  The strips are shared among one worker per CPU, and an
    exception in any worker is raised here once every helper has been
    joined.
    """
    h, w = left.shape[:2]
    if out is None:
        out = np.empty((h, w, 3), dtype=np.uint8)
    if left.shape[2:] != (3,) or right.shape != left.shape or out.shape != left.shape:
        raise ValueError(
            f"anaglyph needs (h, w, 3) frames of one shape: "
            f"left {left.shape}, right {right.shape}, out {out.shape}"
        )

    def worker(rows: int):
        compose = anaglyph_composer(rows, w)

        def strip(y0: int, y1: int) -> None:
            compose(left[y0:y1], right[y0:y1], out[y0:y1])
            out[y0:y1, :, 1] = 0

        return strip

    share_strips(h, w, worker)
    return out


def sbs_pixels(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Left and right (h, w, 3) frames side by side in a new (h, 2w, 3) array."""
    return np.concatenate([left, right], axis=1)
