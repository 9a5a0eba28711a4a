"""Mangled files for the readers' properties, in the manner of Miller, Fredriksen and So's fuzzing.

`mangled_bytes(valid)` is random bytes, or `valid` after one to three byte
flips, cuts, insertions or duplications; with `noise=False`, always the
latter.
"""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def mangled_bytes(draw, valid: bytes, noise: bool = True) -> bytes:
    """Random bytes, or `valid` after one to three byte flips, cuts, insertions or duplications."""
    if noise and draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "cut", "insert", "duplicate"]))
        if kind == "flip" and i < len(data):
            data[i] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del data[i:]
        elif kind == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "duplicate":
            j = draw(st.integers(i, len(data)))
            data[j:j] = data[i:j]
    return bytes(data)
