from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

import stereorig
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stereorig import _kernels
from stereorig.merge import (
    Frame,
    FramePair,
    FrameRef,
    MergeError,
    _merge_pixels,
    anaglyph,
    load_stream,
    merge_pairs,
    pair_frames,
    scan_stream,
    share_items,
    side_by_side,
    write_merged,
)
from stereorig.ppmio import read_ppm, write_manifest, write_ppm

import forked
from oracles import (
    anaglyph_oracle,
    greedy_pairs_oracle,
    optimal_pairs_oracle,
    sbs_oracle,
)
from profiles import examples


def _frame(ts: float, source: str, fill=0, w=4, h=4) -> Frame:
    pixels = np.full((h, w, 3), fill, dtype=np.uint8)
    return Frame.from_pixels(pixels, ts, source)


def _stream(times, source="left"):
    return [_frame(t, source) for t in times]


def _refs(times):
    """Frames known only by their timestamps, each a distinct object."""
    return [FrameRef(t, f"{i}.ppm", 1, 1) for i, t in enumerate(times)]


def _rand_frame(rng: random.Random, ts: float, source: str, w=8, h=8) -> Frame:
    data = bytes(rng.randrange(256) for _ in range(w * h * 3))
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()
    return Frame.from_pixels(pixels, ts, source)


class TestPairFrames:
    def test_reference_instance(self):
        result = pair_frames(_stream([0, 33, 66]), _stream([5, 38, 71], "right"), 10.0)
        got = [(p.left.timestamp, p.right.timestamp) for p in result.pairs]
        assert got == [(0, 5), (33, 38), (66, 71)]
        assert [p.timestamp_skew for p in result.pairs] == [5, 5, 5]
        assert result.dropped_left == [] and result.dropped_right == []
        # the optimal matcher finds nothing better on this instance
        count, _ = optimal_pairs_oracle([0, 33, 66], [5, 38, 71], 10.0)
        assert count == 3

    def test_identical_streams_self_pair(self):
        times = [0.0, 33.3, 66.7, 100.0]
        result = pair_frames(_stream(times), _stream(times, "right"), 10.0)
        assert len(result.pairs) == 4
        assert all(p.timestamp_skew == 0.0 for p in result.pairs)

    def test_empty_right_drops_all_left(self):
        result = pair_frames(_stream([0, 33]), [], 10.0)
        assert result.pairs == []
        assert len(result.dropped_left) == 2

    def test_unsorted_left_rejected(self):
        with pytest.raises(MergeError, match="not timestamp-sorted"):
            pair_frames(_stream([33, 0]), _stream([5], "right"), 10.0)

    def test_unsorted_right_rejected(self):
        with pytest.raises(MergeError, match="right stream"):
            pair_frames(_stream([0]), _stream([38, 5], "right"), 10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected(self, bad):
        with pytest.raises(MergeError, match="left stream has non-finite timestamp"):
            pair_frames(_stream([0.0, bad]), _stream([0.0, 33.0], "right"), 10.0)
        with pytest.raises(MergeError, match="right stream has non-finite timestamp"):
            pair_frames(_stream([0.0]), _stream([bad], "right"), 10.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(MergeError, match="non-negative"):
            pair_frames([], [], -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, bad):
        with pytest.raises(MergeError, match=f"tolerance must be finite and non-negative, got {bad}"):
            pair_frames(_stream([0.0, 1000.0]), _stream([500.0, 5000.0], "right"), bad)

    def test_tie_goes_to_earlier_right_frame(self):
        result = pair_frames(_stream([10.0]), _stream([5.0, 15.0], "right"), 10.0)
        assert len(result.pairs) == 1
        assert result.pairs[0].right.timestamp == 5.0
        assert [f.timestamp for f in result.dropped_right] == [15.0]

    def test_out_of_tolerance_not_paired(self):
        result = pair_frames(_stream([0.0]), _stream([25.0], "right"), 10.0)
        assert result.pairs == []
        assert len(result.dropped_left) == len(result.dropped_right) == 1

    def test_tolerance_boundary_inclusive(self):
        result = pair_frames(_stream([0.0]), _stream([10.0], "right"), 10.0)
        assert len(result.pairs) == 1

    def test_accounting_identity_random_streams(self):
        rng = random.Random(12)
        for _ in range(50):
            lts = sorted(rng.uniform(0, 2000) for _ in range(rng.randrange(0, 60)))
            rts = sorted(rng.uniform(0, 2000) for _ in range(rng.randrange(0, 60)))
            tol = rng.uniform(0, 40)
            result = pair_frames(_stream(lts), _stream(rts, "right"), tol)
            assert len(result.pairs) + len(result.dropped_left) == len(lts)
            assert len(result.pairs) + len(result.dropped_right) == len(rts)
            assert all(p.timestamp_skew <= tol for p in result.pairs)
            lefts = [p.left.timestamp for p in result.pairs]
            assert lefts == sorted(lefts)

    @settings(max_examples=examples(300), deadline=None)
    @given(pool=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
           left=st.lists(st.integers(0, 5), max_size=30),
           right=st.lists(st.integers(0, 5), max_size=30),
           tol=st.sampled_from([0.0, 5.0, 16.7, 1e9]))
    @example(pool=[10.0, 20.0], left=[0, 0, 0, 1], right=[0, 0, 1, 1], tol=0.0)
    @example(pool=[0.0, 10.0, 20.0], left=[1, 1], right=[0, 0, 2, 2], tol=16.7)
    # 1 - 0 and 1 - 7.9e-182 round to one float, so the key picks 0.0; the scan took the
    # nearer 7.9e-182
    @example(pool=[0.0, 7.90855567794431e-182, 1.0], left=[2], right=[0, 1], tol=5.0)
    def test_matches_independent_greedy_oracle(self, pool, left, right, tol):
        # timestamps from a small pool, so that many repeat; frames are told apart by
        # identity, since equal timestamps make a frame's value ambiguous
        lts = sorted(pool[i % len(pool)] for i in left)
        rts = sorted(pool[i % len(pool)] for i in right)
        left_frames, right_frames = _refs(lts), _refs(rts)
        result = pair_frames(left_frames, right_frames, tol)
        index = {id(f): i for frames in (left_frames, right_frames) for i, f in enumerate(frames)}
        want = greedy_pairs_oracle(lts, rts, tol)
        assert [(index[id(p.left)], index[id(p.right)]) for p in result.pairs] == want
        assert [index[id(f)] for f in result.dropped_left] == sorted(
            set(range(len(lts))) - {i for i, _ in want})
        assert [index[id(f)] for f in result.dropped_right] == sorted(
            set(range(len(rts))) - {j for _, j in want})

    def test_any_tolerance_pairs_in_near_linear_time(self):
        # every right frame is within the tolerance of every left frame; a scan over the
        # taken frames near each left frame took 11 s here
        n = 20_000
        left, right = _refs([33.3 * i for i in range(n)]), _refs([33.3 * i + 5 for i in range(n)])
        start = time.perf_counter()
        result = pair_frames(left, right, 1e9)
        assert time.perf_counter() - start < 2.0
        assert [(p.left, p.right) for p in result.pairs] == list(zip(left, right))

    def test_matched_cadence_streams_are_optimally_paired(self):
        # both cameras at ~30 fps with small jitter: greedy equals optimal
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randrange(5, 60)
            lts = [33.3 * i + rng.uniform(-5, 5) for i in range(n)]
            rts = [33.3 * i + rng.uniform(-5, 5) for i in range(n)]
            lts.sort(), rts.sort()
            result = pair_frames(_stream(lts), _stream(rts, "right"), 16.0)
            best_count, best_skew = optimal_pairs_oracle(lts, rts, 16.0)
            assert len(result.pairs) == best_count
            assert sum(p.timestamp_skew for p in result.pairs) >= best_skew - 1e-9

    def test_adversarial_streams_bounded_shortfall(self):
        # on arbitrary streams greedy may pair fewer than the optimum;
        # the shortfall stays small and is never an over-count
        rng = random.Random(2718)
        total_best = total_got = 0
        for _ in range(50):
            lts = sorted(rng.uniform(0, 300) for _ in range(rng.randrange(0, 50)))
            rts = sorted(rng.uniform(0, 300) for _ in range(rng.randrange(0, 50)))
            result = pair_frames(_stream(lts), _stream(rts, "right"), 20.0)
            best_count, _ = optimal_pairs_oracle(lts, rts, 20.0)
            assert len(result.pairs) <= best_count
            total_best += best_count
            total_got += len(result.pairs)
        assert total_got >= 0.9 * total_best


class TestSideBySide:
    def test_dimensions(self):
        pair = FramePair(_frame(0, "left"), _frame(0, "right"), 0.0)
        out = side_by_side(pair)
        assert (out.width, out.height) == (8, 4)
        assert out.source == "sbs"
        assert out.timestamp == 0

    def test_exhaustive_pixel_placement(self):
        rng = random.Random(1)
        left = _rand_frame(rng, 0.0, "left", w=5, h=3)
        right = _rand_frame(rng, 1.0, "right", w=5, h=3)
        out = side_by_side(FramePair(left, right, 1.0))
        for y in range(3):
            for x in range(10):
                expected = left.pixels[y, x] if x < 5 else right.pixels[y, x - 5]
                assert (out.pixels[y, x] == expected).all()

    def test_same_frame_mirrors(self):
        rng = random.Random(2)
        f = _rand_frame(rng, 0.0, "left")
        out = side_by_side(FramePair(f, f, 0.0))
        assert (out.pixels[:, :8] == out.pixels[:, 8:]).all()

    def test_matches_loop_oracle(self):
        rng = random.Random(3)
        left = _rand_frame(rng, 0.0, "left")
        right = _rand_frame(rng, 0.0, "right")
        out = side_by_side(FramePair(left, right, 0.0))
        assert (out.pixels == sbs_oracle(left.pixels, right.pixels)).all()

    def test_dimension_mismatch_rejected(self):
        pair = FramePair(_frame(0, "left", w=4), _frame(0, "right", w=5, h=4), 0.0)
        with pytest.raises(MergeError, match="dimension"):
            side_by_side(pair)


class TestAnaglyph:
    def test_white_left_black_right(self):
        pair = FramePair(_frame(0, "left", fill=255), _frame(0, "right", fill=0), 0.0)
        out = anaglyph(pair)
        assert (out.pixels == np.array([0, 0, 255], dtype=np.uint8)).all()

    def test_black_left_white_right(self):
        pair = FramePair(_frame(0, "left", fill=0), _frame(0, "right", fill=255), 0.0)
        out = anaglyph(pair)
        assert (out.pixels == np.array([255, 0, 0], dtype=np.uint8)).all()

    def test_green_channel_identically_zero(self):
        rng = random.Random(4)
        for _ in range(10):
            pair = FramePair(
                _rand_frame(rng, 0.0, "left"), _rand_frame(rng, 0.0, "right"), 0.0
            )
            assert (anaglyph(pair).pixels[:, :, 1] == 0).all()

    def test_random_frames_match_per_pixel_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            left = _rand_frame(rng, 0.0, "left")
            right = _rand_frame(rng, 0.0, "right")
            out = anaglyph(FramePair(left, right, 0.0))
            assert (out.pixels == anaglyph_oracle(left.pixels, right.pixels)).all()

    def test_output_takes_left_timestamp(self):
        pair = FramePair(_frame(10.0, "left"), _frame(12.0, "right"), 2.0)
        out = anaglyph(pair)
        assert out.timestamp == 10.0
        assert out.source == "anaglyph"

    def test_dimension_mismatch_rejected(self):
        pair = FramePair(_frame(0, "left", h=4), _frame(0, "right", w=4, h=5), 0.0)
        with pytest.raises(MergeError, match="dimension"):
            anaglyph(pair)


class TestMergePairs:
    def test_count_preserved(self):
        pairs = [
            FramePair(_frame(t, "left"), _frame(t, "right"), 0.0)
            for t in (0.0, 33.0, 66.0)
        ]
        for mode in ("sbs", "anaglyph"):
            out = merge_pairs(pairs, mode)
            assert len(out) == 3
            assert [f.timestamp for f in out] == [0.0, 33.0, 66.0]

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="mode"):
            merge_pairs([], "cross-eye")
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        with pytest.raises(MergeError, match="^merge mode must be 'sbs' or 'anaglyph', got 'x'$"):
            _merge_pixels("x", frame, frame)
        with pytest.raises(MergeError, match="mode"):
            write_merged([], "cross-eye", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestFrameValidation:
    def test_wrong_dtype_rejected(self):
        with pytest.raises(MergeError, match="uint8"):
            Frame.from_pixels(np.zeros((2, 2, 3), dtype=np.float32), 0.0, "left")

    def test_wrong_shape_rejected(self):
        with pytest.raises(MergeError, match="does not match"):
            Frame(width=3, height=2, pixels=np.zeros((2, 2, 3), dtype=np.uint8),
                  timestamp=0.0, source="left")

    def test_positional_and_keyword_construction_agree(self):
        px = np.zeros((2, 3, 3), dtype=np.uint8)
        frame = Frame(3, 2, px, 5.0, "left")
        assert (frame.width, frame.height, frame.pixels, frame.timestamp, frame.source) == (
            3, 2, px, 5.0, "left")
        with pytest.raises(MergeError, match=r"^pixel buffer \(2, 3, 3\) does not match 2x3x3$"):
            Frame(2, 3, px, 5.0, "left")
        with pytest.raises(MergeError, match="^pixels must be uint8, got int16$"):
            Frame(3, 2, px.astype(np.int16), 5.0, "left")


class TestRecords:
    """The pairing records: their fields in order, and which of them are frozen."""

    def test_frame_ref_and_pair_are_immutable(self):
        ref = FrameRef(1.0, "a.ppm", 4, 2)
        pair = FramePair(ref, ref, 0.0)
        for record, field in ((ref, "timestamp"), (ref, "path"), (pair, "left"),
                              (pair, "timestamp_skew")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            ref.extra = 1
        assert ref == FrameRef(timestamp=1.0, path="a.ppm", width=4, height=2)
        assert pair == FramePair(left=ref, right=ref, timestamp_skew=0.0)

    def test_field_order(self):
        assert FrameRef._fields == ("timestamp", "path", "width", "height")
        assert FramePair._fields == ("left", "right", "timestamp_skew")

    @settings(max_examples=examples(200), deadline=None)
    @given(st.lists(st.integers(0, 400), max_size=30), st.lists(st.integers(0, 400), max_size=30),
           st.integers(0, 40))
    @example([175, 176], [174, 174], 2)  # pairs (0, 1), (1, 0) would cross
    def test_frame_ref_streams_pair_as_the_greedy_oracle(self, lts, rts, tol):
        # whole milliseconds make ties common: equal right timestamps, and
        # a left frame midway between two right ones
        lts, rts = sorted(map(float, lts)), sorted(map(float, rts))
        left = [FrameRef(t, f"l{i}.ppm", 4, 4) for i, t in enumerate(lts)]
        right = [FrameRef(t, f"r{i}.ppm", 4, 4) for i, t in enumerate(rts)]
        result = pair_frames(left, right, float(tol))
        got = [(int(p.left.path[1:-4]), int(p.right.path[1:-4])) for p in result.pairs]
        assert got == greedy_pairs_oracle(lts, rts, float(tol))
        assert all(p.timestamp_skew == abs(p.left.timestamp - p.right.timestamp)
                   for p in result.pairs)
        paired_right = {j for _, j in got}
        assert [r.path for r in result.dropped_right] == [
            r.path for j, r in enumerate(right) if j not in paired_right]
        paired_left = {i for i, _ in got}
        assert [l.path for l in result.dropped_left] == [
            l.path for i, l in enumerate(left) if i not in paired_left]


@st.composite
def _same_shape_frame_pairs(draw):
    """1-3 (left, right) uint8 frame pairs of one random shape; some all-0 or all-255."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)), 3)
    frame = st.one_of(
        arrays(np.uint8, shape),
        st.sampled_from([0, 255]).map(lambda v: np.full(shape, v, dtype=np.uint8)),
    )
    return draw(st.lists(st.tuples(frame, frame), min_size=1, max_size=3))


class TestKernelBuffers:
    """The in-memory driver, `_merge_pixels`, which runs the CLI's frame merger over arrays."""

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_merge_pairs_remakes_buffers_only_when_the_size_changes(self, monkeypatch, mode):
        from stereorig import merge

        # (3, 4) is one strip; (5, 21846) is strips of 2, 2 and 1 rows
        sizes = [(3, 4), (3, 4), (5, 21846), (3, 4)]
        pairs = [FramePair(*(Frame.from_pixels(_rand_pixels(2 * i + k, *size), 33.0 * i, side)
                             for k, side in enumerate(("left", "right"))), 0.0)
                 for i, size in enumerate(sizes)]
        made, real = [], merge._strip_buffers

        def strip_buffers(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(merge, "_strip_buffers", strip_buffers)
        out = merge_pairs(pairs, mode)
        assert made == [(mode, 3, 4), (mode, 2, 21846), (mode, 3, 4)]
        oracle = anaglyph_oracle if mode == "anaglyph" else sbs_oracle
        for pair, frame in zip(pairs, out):
            assert (frame.pixels == oracle(pair.left.pixels, pair.right.pixels)).all()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_strided_inputs_match_oracle(self, mode):
        left, right = _rand_pixels(40, 5, 21846), _rand_pixels(41, 5, 21846)
        oracle = anaglyph_oracle if mode == "anaglyph" else sbs_oracle
        for l, r in ((left[:, ::-1], right[:, ::-1]), (left[::-1], right),
                     (left, right[..., ::-1])):
            assert (_merge_pixels(mode, l, r) == oracle(l, r)).all()

    def test_contiguous_inputs_are_read_in_place(self):
        import tracemalloc

        left, right = _rand_pixels(42, 20, 21846), _rand_pixels(43, 20, 21846)

        def extra_bytes(l, r):
            """Peak bytes a merge allocates beyond its 2.6 MB output."""
            tracemalloc.start()
            try:
                out = _merge_pixels("sbs", l, r)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        assert extra_bytes(left, right) < left.nbytes // 2  # the strip buffers, 0.26 MB
        # a strided input is copied whole, so the measure sees a copy
        assert extra_bytes(left[:, ::-1], right) > left.nbytes

    @settings(max_examples=examples(60), deadline=None)
    @given(_same_shape_frame_pairs())
    def test_anaglyph_matches_oracle_fresh_and_reused(self, pairs):
        for left, right in pairs:
            assert (_merge_pixels("anaglyph", left, right) == anaglyph_oracle(left, right)).all()

    @settings(max_examples=examples(60), deadline=None)
    @given(_same_shape_frame_pairs())
    def test_sbs_matches_oracle_fresh_and_reused(self, pairs):
        for left, right in pairs:
            assert (_merge_pixels("sbs", left, right) == sbs_oracle(left, right)).all()

    def test_kernels_names_return_the_drivers_bytes(self):
        left, right = _rand_pixels(30, 5, 21846), _rand_pixels(31, 5, 21846)
        for mode, kernel in (("anaglyph", _kernels.anaglyph_pixels), ("sbs", _kernels.sbs_pixels)):
            out = kernel(left, right)
            assert out.dtype == np.uint8
            assert out.tobytes() == _merge_pixels(mode, left, right).tobytes()

    def test_anaglyph_rejects_mismatched_shapes(self):
        frame = np.zeros((4, 5, 3), dtype=np.uint8)
        four_channel = np.zeros((4, 5, 4), dtype=np.uint8)
        for left, right in (
            (frame, np.zeros((5, 5, 3), dtype=np.uint8)),
            (four_channel, four_channel),
            (frame[0], frame[0]),
        ):
            with pytest.raises(MergeError, match="one shape"):
                _merge_pixels("anaglyph", left, right)

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_rejects_non_uint8_2d_and_mismatched_inputs(self, mode):
        frame = np.zeros((4, 5, 3), dtype=np.uint8)
        for left, right in (
            (frame.astype(np.uint16), frame.astype(np.uint16)),
            (frame.astype(np.float32), frame),
            (frame, frame.astype(np.int8)),
            (frame[..., 0], frame[..., 0]),
            (frame[None], frame[None]),
            (frame, np.zeros((4, 6, 3), dtype=np.uint8)),
            (frame, frame[:3]),
        ):
            with pytest.raises(MergeError, match=f"^{mode} needs uint8 .* of one shape"):
                _merge_pixels(mode, left, right)


def _rand_pixels(seed: int, h: int, w: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


# A strip holds 2**16 // w rows: 4 at w=13108, 2 at w=21846 and 1 at
# w=65537.  The heights reach past one strip while the looped oracle stays
# under half a second a frame.
_EDGE_SHAPES = st.one_of(
    st.tuples(st.integers(1, 9), st.just(13108)),
    st.tuples(st.integers(1, 5), st.just(21846)),
    st.tuples(st.integers(1, 2), st.just(65537)),
)


class TestAnaglyphTiling:
    def test_every_colour_matches_bt601_formula(self):
        # big-endian 0x00RRGGBB words: bytes 1-3 of word i are colour i
        words = np.arange(1 << 24, dtype=">u4").reshape(4096, 4096, 1)
        colours = words.view(np.uint8)[..., 1:]
        flipped = colours[::-1, ::-1]
        # through the public API, and so through the CLI's strip composer
        out = anaglyph(FramePair(Frame.from_pixels(colours, 0.0, "left"),
                                 Frame.from_pixels(flipped, 0.0, "right"), 0.0)).pixels
        for src, channel in ((flipped, 0), (colours, 2)):
            for y in range(0, 4096, 512):
                rgb = src[y : y + 512]
                r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
                want = np.minimum(np.floor(((r * 0.299 + g * 0.587) + b * 0.114) + 0.5), 255)
                assert (out[y : y + 512, :, channel] == want).all()
        assert not out[..., 1].any()

    @settings(max_examples=examples(6), deadline=None)
    @given(shape=_EDGE_SHAPES, seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1), seed=0)
    @example(shape=(1, 65537), seed=1)
    @example(shape=(7, 13108), seed=2)
    @example(shape=(5, 21846), seed=3)
    def test_strip_edges_match_oracle(self, shape, seed):
        left, right = _rand_pixels(seed, *shape), _rand_pixels(seed + 1, *shape)
        want = anaglyph_oracle(left, right)
        assert (_merge_pixels("anaglyph", left, right) == want).all()
        # the oracle works pixel by pixel, so reversing both inputs reverses it
        assert (_merge_pixels("anaglyph", left[:, ::-1], right[:, ::-1]) == want[:, ::-1]).all()
        assert (_merge_pixels("anaglyph", left[::-1], right[::-1]) == want[::-1]).all()

    def test_concurrent_calls_each_get_the_oracle_output(self):
        # two strips a frame; each call has its own composer and output, so
        # calls from more threads than CPUs must not see each other's strips
        frames = [(_rand_pixels(2 * i, 2, 65537), _rand_pixels(2 * i + 1, 2, 65537))
                  for i in range(3)]
        wants = [anaglyph_oracle(left, right) for left, right in frames]
        start = threading.Barrier(len(frames))
        matched = [[] for _ in frames]

        def work(i):
            left, right = frames[i]
            start.wait(timeout=30)
            for _ in range(5):
                out = _merge_pixels("anaglyph", left, right)
                matched[i].append(bool((out == wants[i]).all()))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(frames))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert matched == [[True] * 5] * len(frames)

    def test_import_and_composers_start_no_thread(self, subprocess_env):
        script = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import numpy as np\n"
            "import stereorig._kernels, stereorig.cli\n"
            "from stereorig.merge import Frame, FramePair, anaglyph, side_by_side\n"
            "px = np.zeros((1080, 1920, 3), dtype=np.uint8)\n"
            "frame = Frame.from_pixels(px, 0.0, 'left')\n"
            "side_by_side(FramePair(frame, frame, 0.0))\n"
            "anaglyph(FramePair(frame, frame, 0.0))\n"
            "print(before, threading.active_count())\n"
        )
        res = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.split() == ["1", "1"]


def _affinity(cpus: int):
    """Patch the process's affinity mask to `cpus` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", create=True,
                             new=lambda pid: set(range(cpus)))


def _recorded_strips(height: int, width: int) -> list:
    """Share a frame's strips with `share_items`, recording (pid, rows, y0, y1) per strip."""
    rows = stereorig.strip_rows(height, width)
    with forked.Records() as done:
        share_items(-(-height // rows),
                    lambda i: done.add(rows, i * rows, min(i * rows + rows, height)))
        return done.read()


class TestShareStrips:
    def test_one_cpu_starts_no_thread(self):
        # 2 rows a strip at w=21846, so three rows make two strips
        with _affinity(1), forked.forks() as started:
            done = _recorded_strips(3, 21846)
        assert started == []
        assert [d[1:] for d in done] == [(2, 0, 2), (2, 2, 3)]

    @pytest.mark.parametrize("cpu_count, helpers", [(2, 1), (None, 0)])
    def test_cpu_count_stands_in_for_the_affinity_mask(self, monkeypatch, cpu_count, helpers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        # three strips, so one helper beside the caller on two CPUs
        with forked.forks() as started:
            done = _recorded_strips(5, 21846)
        assert len(started) == helpers
        assert sorted(d[2:] for d in done) == [(0, 2), (2, 4), (4, 5)]

    def test_without_fork_every_item_runs_on_the_caller(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with _affinity(2):
            done = _recorded_strips(5, 21846)
        assert [d[0] for d in done] == [os.getpid()] * 3
        assert [d[2:] for d in done] == [(0, 2), (2, 4), (4, 5)]

    def test_one_strip_frame_starts_no_thread(self):
        with _affinity(2), forked.forks() as started:
            done = _recorded_strips(2, 21846)
        assert started == []
        assert [d[1:] for d in done] == [(2, 0, 2)]

    def test_a_strip_has_no_more_rows_than_the_frame(self):
        with _affinity(2):
            assert [d[1:] for d in _recorded_strips(3, 2)] == [(3, 0, 3)]

    @settings(max_examples=examples(30), deadline=None)
    @given(height=st.integers(1, 40), width=st.integers(1, 70000), cpus=st.integers(1, 8))
    @example(height=9, width=13108, cpus=2)
    @example(height=1, width=1, cpus=2)
    @example(height=2, width=65537, cpus=2)
    def test_every_row_is_in_one_strip_taken_once(self, height, width, cpus):
        rows = max(1, min(height, stereorig.STRIP_PIXELS // width))
        strips = -(-height // rows)
        with _affinity(cpus), forked.forks() as started:
            done = _recorded_strips(height, width)
        # one helper per further CPU, but no more workers than strips
        assert len(started) == min(cpus, strips) - 1
        assert forked.no_child_left()
        assert sorted(d[2:] for d in done) == [
            (y, min(y + rows, height)) for y in range(0, height, rows)]
        assert {d[1] for d in done} == {rows}

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failing_strip_reaches_the_caller_and_leaves_no_thread(self, failing):
        caller = os.getpid()
        with forked.Event() as failed, forked.Records() as records:
            def strip(i):
                if (os.getpid() == caller) == (failing == "caller"):
                    failed.set()
                    raise RuntimeError(f"strip failed in the {failing}")
                # the other worker waits in its first strip, which leaves the
                # next strip to the failing one; on one CPU it may run first
                # once woken, so it waits a little longer for the failed
                # worker to stop the items
                if not failed.wait(timeout=30):
                    raise AssertionError(f"the {failing} took no strip")
                time.sleep(0.1)
                records.add(i)

            with _affinity(2), forked.forks() as started:
                with pytest.raises(RuntimeError, match=f"strip failed in the {failing}"):
                    share_items(8, strip)
            done = records.read()
        assert len(started) == 1
        assert forked.no_child_left()
        # once a worker has failed, the other finishes the strip it holds, if
        # any, and takes no more
        assert len(done) <= 1

    @pytest.mark.parametrize("end, message", [
        ("signal", "merge helper [0-9]+ was killed by SIGKILL"),
        ("exit", "merge helper [0-9]+ exited with status 3 and no report"),
    ])
    def test_helper_that_ends_without_a_report_is_a_merge_error(self, end, message):
        caller = os.getpid()
        with forked.Event() as took:
            def run(i):
                if os.getpid() == caller:  # wait for the helper
                    assert took.wait(timeout=30), "no helper took an item"
                    return
                took.set()
                if end == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)

            with _affinity(2), pytest.raises(MergeError, match=message):
                share_items(4, run)
        assert forked.no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_the_kernel(self, subprocess_env):
        # the parent runs a four-strip frame, then forks; the child must find
        # no kernel state left behind and run it again
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from stereorig.merge import _merge_pixels\n"
            "rng = np.random.default_rng(0)\n"
            "left, right = rng.integers(0, 256, (2, 4, 65537, 3), dtype=np.uint8)\n"
            "want = _merge_pixels('anaglyph', left, right)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    same = (_merge_pixels('anaglyph', left, right) == want).all()\n"
            "    os._exit(0 if same else 3)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr


class TestAnaglyphWorkers:
    """The in-memory driver runs its strips on the calling thread, whatever the CPUs."""

    @settings(max_examples=examples(6), deadline=None)
    @given(shape=_EDGE_SHAPES, seed=st.integers(0, 2**32 - 1), cpus=st.integers(1, 8))
    @example(shape=(9, 13108), seed=4, cpus=2)
    @example(shape=(2, 65537), seed=5, cpus=2)
    @example(shape=(5, 21846), seed=6, cpus=8)
    @example(shape=(3, 21846), seed=7, cpus=1)
    def test_several_cpus_match_oracle(self, shape, seed, cpus):
        left, right = _rand_pixels(seed, *shape), _rand_pixels(seed + 1, *shape)
        with _affinity(cpus), forked.forks() as started:
            out = _merge_pixels("anaglyph", left, right)
        assert started == []
        assert (out == anaglyph_oracle(left, right)).all()

    def test_failing_strip_reaches_the_caller(self, monkeypatch):
        real = _kernels.anaglyph_strips

        def anaglyph_strips(rows, width):
            left, right, compose = real(rows, width)
            strips = iter(range(4))

            def failing(n):
                if next(strips) == 2:
                    raise RuntimeError("strip 2 failed")
                return compose(n)
            return left, right, failing

        monkeypatch.setattr(_kernels, "anaglyph_strips", anaglyph_strips)
        left = _rand_pixels(26, 4, 65537)  # one row a strip
        with _affinity(2), forked.forks() as started, \
                pytest.raises(RuntimeError, match="strip 2 failed"):
            _merge_pixels("anaglyph", left, left)
        assert started == []


class TestLoadStream:
    def test_manifest_round_trip(self, tmp_path):
        rng = random.Random(6)
        times = [0.0, 33.3, 66.7]
        entries = []
        for i, t in enumerate(times):
            p = tmp_path / f"f{i}.ppm"
            write_ppm(str(p), _rand_frame(rng, t, "left").pixels)
            entries.append((t, str(p)))
        manifest = tmp_path / "left.txt"
        write_manifest(str(manifest), entries)
        frames = load_stream(str(manifest), "left")
        assert [f.timestamp for f in frames] == times
        assert all(f.source == "left" for f in frames)
        assert frames[0].pixels.shape == (8, 8, 3)

    def test_scan_stream_reads_headers_only(self, tmp_path):
        entries = []
        for i, (w, h) in enumerate([(8, 8), (3, 5)]):
            p = tmp_path / f"f{i}.ppm"
            write_ppm(str(p), np.zeros((h, w, 3), dtype=np.uint8))
            entries.append((i * 33.3, str(p)))
        manifest = tmp_path / "s.txt"
        write_manifest(str(manifest), entries)
        refs = scan_stream(str(manifest))
        assert [(r.timestamp, r.path, r.width, r.height) for r in refs] == [
            (0.0, entries[0][1], 8, 8),
            (33.3, entries[1][1], 3, 5),
        ]

    def test_write_merged_checks_every_pair_before_reading(self, tmp_path):
        # the first pair's files do not exist: the mismatch on the second
        # pair is reported before any file is opened or directory made
        refs = [
            (FrameRef(0.0, str(tmp_path / "missing"), 4, 4),
             FrameRef(1.0, str(tmp_path / "missing"), 4, 4)),
            (FrameRef(33.0, str(tmp_path / "missing"), 4, 4),
             FrameRef(34.0, str(tmp_path / "missing"), 5, 4)),
        ]
        pairs = [FramePair(l, r, 1.0) for l, r in refs]
        with pytest.raises(MergeError, match="dimension mismatch: left 4x4 vs right 5x4"):
            write_merged(pairs, "sbs", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_write_merged_makes_strip_buffers_once_per_worker_and_size(
            self, tmp_path, monkeypatch, mode):
        from stereorig import merge

        sizes = [(4, 6), (4, 6), (4, 6), (3, 5), (3, 5), (4, 6)]
        pairs = []
        for i, (h, w) in enumerate(sizes):
            refs = []
            for side in ("left", "right"):
                p = tmp_path / f"{side}{i}.ppm"
                write_ppm(str(p), _rand_pixels(2 * i + (side == "right"), h, w))
                refs.append(FrameRef(33.0 * i, str(p), w, h))
            pairs.append(FramePair(*refs, 0.0))
        caller = os.getpid()
        real_buffers, real_writer = merge._strip_buffers, merge.raster_writer

        def strip_buffers(*args):
            records.add("made", args)
            return real_buffers(*args)

        def raster_writer(path, *args):
            records.add("took", int(path[-8:-4]))
            if os.getpid() != caller:
                helper_took_a_pair.set()
            elif cpus > 1:  # the caller lets a helper take a pair first
                assert helper_took_a_pair.wait(timeout=30), "no helper took a pair"
            return real_writer(path, *args)

        monkeypatch.setattr(merge, "_strip_buffers", strip_buffers)
        monkeypatch.setattr(merge, "raster_writer", raster_writer)
        for cpus in (1, 2):
            out = tmp_path / f"out{cpus}"
            with forked.Records() as records, forked.Event() as helper_took_a_pair:
                with _affinity(cpus), forked.forks() as started:
                    write_merged(pairs, mode, str(out))
                log = records.read()
            assert len(started) == cpus - 1
            taken = [(pid, i) for pid, what, i in log if what == "took"]
            made = [(pid, args) for pid, what, args in log if what == "made"]
            workers = {pid for pid, _ in taken}
            assert len(workers) == cpus
            # each worker makes new buffers only where the size of the pairs it
            # takes changes; with one worker that is (4, 6), (3, 5), (4, 6).  A
            # helper is forked before any pair, so it starts with none
            for worker in workers:
                seq = [sizes[i] for pid, i in taken if pid == worker]
                before = [None, *seq[:-1]]
                assert [args for pid, args in made if pid == worker] == [
                    (mode, *size) for size, last in zip(seq, before) if size != last]
            for i, pair in enumerate(pairs):
                composed = (anaglyph_oracle if mode == "anaglyph" else sbs_oracle)(
                    *(read_ppm(ref.path) for ref in (pair.left, pair.right)))
                assert (read_ppm(str(out / f"{mode}_{i:04d}.ppm")) == composed).all()
