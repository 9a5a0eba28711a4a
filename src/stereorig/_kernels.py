"""The anaglyph kernel, which owns its strip buffers and its float32 work space.

`merge._strip_buffers` takes its anaglyph strips from `anaglyph_strips`,
and `anaglyph_pixels` and `sbs_pixels` exist only for the benchmark's
traced run.  It is exact:

- A luma in thousandths, `v = 299 R + 587 G + 114 B`, is an integer of at
  most 255,000.  Every product and partial sum is an integer below 2^24,
  so float32 holds `v` exactly whatever order BLAS sums it in, with or
  without FMA.  Each strip is cast to float32 in one contiguous pass per
  eye, and `v` of both eyes comes from one `np.matmul` call whose every
  block of `_GEMV_PIXELS` pixels is one gemv, small enough that OpenBLAS
  starts no threads of its own to compete with the merge workers.
- `y = fl32((v + 500) / 1000)` is correctly rounded, and 0.5 <= y <= 255.5,
  so the cast to bytes, which truncates, gives floor((v + 500) / 1000),
  the BT.601 byte floor(luma + 0.5) in exact arithmetic: off a tie the
  quotient is at least 0.001 from a whole number, far more than float32's
  error below 256.  The float64 formula of `tests/oracles.py`,
  ((R 0.299 + G 0.587) + B 0.114) + 0.5, agrees with it except at a tie,
  where v + 500 is a multiple of 1000 (16,782 of the 2^24 colours) and its
  own rounding may give one less.
- At a tie `y` is exactly a whole number, so each strip finds its ties
  where the byte equals `y` (about 140 of the 2 x 65,536 values of a strip
  of noise) and recomputes just those bytes with the float64 formula, term
  by term.  The output is bit-identical to the oracle.
"""

from __future__ import annotations

import numpy as np

from . import merge

# BT.601 luma weights in thousandths, and the float64 weights of the formula itself
_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)
_BT601 = np.array([0.299, 0.587, 0.114])
# pixels one gemv takes: OpenBLAS runs a gemv of this size on the calling
# thread alone, while one of 2^18 pixels ran on two threads of its own
_GEMV_PIXELS = 2048


def anaglyph_strips(rows: int, width: int):
    """Flat uint8 `left` and `right` strips of `rows` rows of `width` pixels, and `compose(n)`.

    `compose(n)` writes red from the first n rows of `right` and blue from
    those of `left` into its own output strip, whose green stays 0, and
    returns `[flat view of those n rows]`.  Both eyes go through each step
    in one buffer, the right eye's values first, so that every numpy call
    does the work of two.  One set of strips serves one caller at a time.
    """
    left, right, out = np.zeros((3, 3 * rows * width), dtype=np.uint8)
    colours = np.empty((2 * rows * width, 3), dtype=np.float32)
    values = np.empty(2 * rows * width, dtype=np.float32)
    tie = np.empty(2 * rows * width, dtype=bool)
    luma = np.empty(2 * rows * width, dtype=np.uint8)

    def compose(n: int) -> list:
        k = n * width
        c, v, ties, bytes_ = (a[: 2 * k] for a in (colours, values, tie, luma))
        np.copyto(c[:k], right[: 3 * k].reshape(k, 3))
        np.copyto(c[k:], left[: 3 * k].reshape(k, 3))
        full = 2 * k - 2 * k % _GEMV_PIXELS
        np.matmul(
            c[:full].reshape(-1, _GEMV_PIXELS, 3), _WEIGHTS,
            out=v[:full].reshape(-1, _GEMV_PIXELS),
        )
        np.matmul(c[full:], _WEIGHTS, out=v[full:])
        v += 500
        np.divide(v, 1000, out=v)
        np.copyto(bytes_, v, casting="unsafe")
        np.equal(bytes_, v, out=ties)
        at = np.flatnonzero(ties)
        if at.size:  # the float64 formula itself, term by term
            terms = c[at] * _BT601
            bytes_[at] = np.floor((terms[:, 0] + terms[:, 1]) + terms[:, 2] + 0.5)
        px = out[: 3 * k].reshape(k, 3)
        px[:, 0] = bytes_[:k]
        px[:, 2] = bytes_[k:]
        return [out[: 3 * k]]

    return left, right, compose


def anaglyph_pixels(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return merge._merge_pixels("anaglyph", left, right)


def sbs_pixels(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return merge._merge_pixels("sbs", left, right)
