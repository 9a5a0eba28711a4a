from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
import threading
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
    anaglyph,
    load_stream,
    merge_pairs,
    pair_frames,
    scan_stream,
    side_by_side,
    write_merged,
)
from stereorig.ppmio import read_ppm, write_manifest, write_ppm

from oracles import (
    anaglyph_oracle,
    greedy_pairs_oracle,
    optimal_pairs_oracle,
    sbs_oracle,
)


def _frame(ts: float, source: str, fill=0, w=4, h=4) -> Frame:
    pixels = np.full((h, w, 3), fill, dtype=np.uint8)
    return Frame.from_pixels(pixels, ts, source)


def _stream(times, source="left"):
    return [_frame(t, source) for t in times]


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

    def test_matches_independent_greedy_oracle(self):
        rng = random.Random(77)
        for _ in range(100):
            lts = sorted(round(rng.uniform(0, 500), 3) for _ in range(rng.randrange(0, 40)))
            rts = sorted(round(rng.uniform(0, 500), 3) for _ in range(rng.randrange(0, 40)))
            tol = rng.choice([5.0, 16.7, 33.3])
            result = pair_frames(_stream(lts), _stream(rts, "right"), tol)
            got = [
                (lts.index(p.left.timestamp), rts.index(p.right.timestamp))
                for p in result.pairs
            ]
            want = greedy_pairs_oracle(lts, rts, tol)
            assert got == want

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
    @settings(max_examples=60, deadline=None)
    @given(_same_shape_frame_pairs())
    def test_anaglyph_matches_oracle_fresh_and_reused(self, pairs):
        h, w = pairs[0][0].shape[:2]
        out = np.full((h, w, 3), 0xAB, dtype=np.uint8)
        for left, right in pairs:
            want = anaglyph_oracle(left, right)
            assert (_kernels.anaglyph_pixels(left, right) == want).all()
            assert _kernels.anaglyph_pixels(left, right, out) is out
            assert (out == want).all()

    @settings(max_examples=60, deadline=None)
    @given(_same_shape_frame_pairs())
    def test_sbs_matches_oracle_fresh_and_reused(self, pairs):
        for left, right in pairs:
            assert (_kernels.sbs_pixels(left, right) == sbs_oracle(left, right)).all()

    def test_anaglyph_rejects_mismatched_shapes(self):
        frame = np.zeros((4, 5, 3), dtype=np.uint8)
        four_channel = np.zeros((4, 5, 4), dtype=np.uint8)
        for left, right, out in (
            (frame, np.zeros((5, 5, 3), dtype=np.uint8), None),
            (frame, frame, np.zeros((3, 5, 3), dtype=np.uint8)),
            (four_channel, four_channel, None),
        ):
            with pytest.raises(ValueError, match="one shape"):
                _kernels.anaglyph_pixels(left, right, out)


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
        out = _kernels.anaglyph_pixels(colours, flipped)
        for src, channel in ((flipped, 0), (colours, 2)):
            for y in range(0, 4096, 512):
                rgb = src[y : y + 512]
                r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
                want = np.minimum(np.floor(((r * 0.299 + g * 0.587) + b * 0.114) + 0.5), 255)
                assert (out[y : y + 512, :, channel] == want).all()
        assert not out[..., 1].any()

    @settings(max_examples=6, deadline=None)
    @given(shape=_EDGE_SHAPES, seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1), seed=0)
    @example(shape=(1, 65537), seed=1)
    @example(shape=(7, 13108), seed=2)
    @example(shape=(5, 21846), seed=3)
    def test_strip_edges_match_oracle(self, shape, seed):
        left, right = _rand_pixels(seed, *shape), _rand_pixels(seed + 1, *shape)
        want = anaglyph_oracle(left, right)
        out = np.full(want.shape, 0xAB, dtype=np.uint8)
        assert (_kernels.anaglyph_pixels(left, right) == want).all()
        assert _kernels.anaglyph_pixels(left, right, out) is out
        assert (out == want).all()
        # the oracle works pixel by pixel, so reversing both inputs reverses it
        out.fill(0xAB)
        _kernels.anaglyph_pixels(left[:, ::-1], right[:, ::-1], out)
        assert (out == want[:, ::-1]).all()
        _kernels.anaglyph_pixels(left[::-1], right[::-1], out)
        assert (out == want[::-1]).all()

    def test_concurrent_calls_each_get_the_oracle_output(self):
        # two strips a frame; each worker of each call has its own work
        # space, so calls from more threads than CPUs must not see each
        # other's strips
        frames = [(_rand_pixels(2 * i, 2, 65537), _rand_pixels(2 * i + 1, 2, 65537))
                  for i in range(3)]
        wants = [anaglyph_oracle(left, right) for left, right in frames]
        start = threading.Barrier(len(frames))
        matched = [[] for _ in frames]

        def work(i):
            left, right = frames[i]
            out = np.empty_like(left)
            start.wait(timeout=30)
            for _ in range(5):
                _kernels.anaglyph_pixels(left, right, out)
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


@contextlib.contextmanager
def _started_threads():
    """Yields the list of the threads started inside the block."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    with mock.patch.object(threading.Thread, "start", start):
        yield started


def _affinity(cpus: int):
    """Patch the process's affinity mask to `cpus` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", create=True,
                             new=lambda pid: set(range(cpus)))


def _recorded_strips(height: int, width: int) -> list:
    """Share a frame's strips with `share_items`, recording (thread, rows, y0, y1) per strip."""
    rows = stereorig.strip_rows(height, width)
    done = []

    def worker():
        return lambda i: done.append(
            (threading.current_thread(), rows, i * rows, min(i * rows + rows, height)))

    stereorig.share_items(-(-height // rows), worker)
    return done


class TestShareStrips:
    def test_one_cpu_starts_no_thread(self):
        # 2 rows a strip at w=21846, so three rows make two strips
        with _affinity(1), _started_threads() as started:
            done = _recorded_strips(3, 21846)
        assert started == []
        assert [d[1:] for d in done] == [(2, 0, 2), (2, 2, 3)]

    @pytest.mark.parametrize("cpu_count, helpers", [(2, 1), (None, 0)])
    def test_cpu_count_stands_in_for_the_affinity_mask(self, monkeypatch, cpu_count, helpers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        # three strips: strip 0 alone, then two left for two workers
        with _started_threads() as started:
            done = _recorded_strips(5, 21846)
        assert len(started) == helpers
        assert sorted(d[2:] for d in done) == [(0, 2), (2, 4), (4, 5)]

    def test_one_strip_frame_starts_no_thread(self):
        with _affinity(2), _started_threads() as started:
            done = _recorded_strips(2, 21846)
        assert started == []
        assert [d[1:] for d in done] == [(2, 0, 2)]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_item_0_runs_alone_on_the_caller(self, cpus):
        seen = []
        with _affinity(cpus), _started_threads() as started:
            def worker():
                return lambda i: seen.append((i, threading.current_thread(), len(started)))

            stereorig.share_items(6, worker)
        assert len(started) == cpus - 1
        # no helper had started when item 0 ran
        assert seen[0] == (0, threading.current_thread(), 0)
        assert sorted(i for i, *_ in seen) == list(range(6))

    def test_a_strip_has_no_more_rows_than_the_frame(self):
        with _affinity(2):
            assert [d[1:] for d in _recorded_strips(3, 2)] == [(3, 0, 3)]

    @settings(max_examples=30, deadline=None)
    @given(height=st.integers(1, 40), width=st.integers(1, 70000), cpus=st.integers(1, 8))
    @example(height=9, width=13108, cpus=2)
    @example(height=1, width=1, cpus=2)
    @example(height=2, width=65537, cpus=2)
    def test_every_row_is_in_one_strip_taken_once(self, height, width, cpus):
        rows = max(1, min(height, stereorig.STRIP_PIXELS // width))
        strips = -(-height // rows)
        with _affinity(cpus), _started_threads() as started:
            done = _recorded_strips(height, width)
        # strip 0 alone, then one helper per further CPU, but no more workers
        # than strips left
        assert len(started) == max(0, min(cpus, strips - 1) - 1)
        assert not any(t.is_alive() for t in started)
        assert sorted(d[2:] for d in done) == [
            (y, min(y + rows, height)) for y in range(0, height, rows)]
        assert {d[1] for d in done} == {rows}

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failing_strip_reaches_the_caller_and_leaves_no_thread(self, failing):
        caller = threading.current_thread()
        failed = threading.Event()
        done = []

        def worker():
            def strip(i):
                if i == 0:  # runs alone, before any helper starts
                    return
                if (threading.current_thread() is caller) == (failing == "caller"):
                    failed.set()
                    raise RuntimeError(f"strip failed in the {failing}")
                # the other worker waits in its first strip, which leaves the next
                # strip to the failing one
                if not failed.wait(timeout=30):
                    raise AssertionError(f"the {failing} took no strip")
                done.append(i)
            return strip

        before = threading.active_count()
        with _affinity(2), _started_threads() as started:
            with pytest.raises(RuntimeError, match=f"strip failed in the {failing}"):
                stereorig.share_items(8, worker)
        assert len(started) == 1
        assert threading.active_count() == before
        # once a worker has failed, the other finishes the strip it holds, if
        # any, and takes no more
        assert len(done) <= 1

    def test_failing_worker_setup_reaches_the_caller(self):
        def worker():
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no buffers")
            return lambda i: None

        with _affinity(2), pytest.raises(MemoryError, match="no buffers"):
            stereorig.share_items(4, worker)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_the_kernel(self, subprocess_env):
        # the parent runs a four-strip frame on two workers, then forks; the
        # child must find no worker state left behind and run it again
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from stereorig import _kernels\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "rng = np.random.default_rng(0)\n"
            "left, right = rng.integers(0, 256, (2, 4, 65537, 3), dtype=np.uint8)\n"
            "want = _kernels.anaglyph_pixels(left, right)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    same = (_kernels.anaglyph_pixels(left, right) == want).all()\n"
            "    os._exit(0 if same else 3)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr


class TestAnaglyphWorkers:
    @settings(max_examples=6, deadline=None)
    @given(shape=_EDGE_SHAPES, seed=st.integers(0, 2**32 - 1), cpus=st.integers(1, 8))
    @example(shape=(9, 13108), seed=4, cpus=2)
    @example(shape=(2, 65537), seed=5, cpus=2)
    @example(shape=(5, 21846), seed=6, cpus=8)
    @example(shape=(3, 21846), seed=7, cpus=1)
    def test_several_cpus_match_oracle(self, shape, seed, cpus):
        left, right = _rand_pixels(seed, *shape), _rand_pixels(seed + 1, *shape)
        out = np.full((*shape, 3), 0xAB, dtype=np.uint8)
        with _affinity(cpus):
            assert _kernels.anaglyph_pixels(left, right, out) is out
        assert (out == anaglyph_oracle(left, right)).all()

    def test_failing_strip_reaches_the_caller(self):
        class Out(np.ndarray):
            def __setitem__(self, key, value):
                raise RuntimeError("store failed")

        left = _rand_pixels(26, 4, 65537)
        before = threading.active_count()
        with _affinity(2), pytest.raises(RuntimeError, match="store failed"):
            _kernels.anaglyph_pixels(left, left, np.empty_like(left).view(Out))
        assert threading.active_count() == before


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
        caller = threading.current_thread()
        helper_took_a_pair = threading.Event()
        made, taken = [], []
        real_buffers, real_writer = merge._strip_buffers, merge.raster_writer

        def strip_buffers(*args):
            made.append((threading.current_thread(), args))
            return real_buffers(*args)

        def raster_writer(path, *args):
            thread = threading.current_thread()
            taken.append((thread, int(path[-8:-4])))
            if thread is not caller:
                helper_took_a_pair.set()
            elif cpus > 1 and len(taken) > 1:
                # past pair 0 the caller lets a helper take a pair first
                assert helper_took_a_pair.wait(timeout=30), "no helper took a pair"
            return real_writer(path, *args)

        monkeypatch.setattr(merge, "_strip_buffers", strip_buffers)
        monkeypatch.setattr(merge, "raster_writer", raster_writer)
        for cpus in (1, 2):
            made.clear()
            taken.clear()
            out = tmp_path / f"out{cpus}"
            with _affinity(cpus):
                write_merged(pairs, mode, str(out))
            workers = {thread for thread, _ in taken}
            assert len(workers) == cpus
            # each worker makes new buffers only where the size of the pairs it
            # takes changes; with one worker that is (4, 6), (3, 5), (4, 6)
            for worker in workers:
                seq = [sizes[i] for thread, i in taken if thread is worker]
                assert [args for thread, args in made if thread is worker] == [
                    (mode, *size) for k, size in enumerate(seq) if not k or seq[k - 1] != size]
            for i, pair in enumerate(pairs):
                composed = (anaglyph_oracle if mode == "anaglyph" else sbs_oracle)(
                    *(read_ppm(ref.path) for ref in (pair.left, pair.right)))
                assert (read_ppm(str(out / f"{mode}_{i:04d}.ppm")) == composed).all()
