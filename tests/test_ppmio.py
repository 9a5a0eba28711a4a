from __future__ import annotations

import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stereorig import ppmio
from stereorig.ppmio import (
    PpmError,
    read_manifest,
    read_ppm,
    read_ppm_header,
    write_manifest,
    write_ppm,
)

from bytefuzz import mangled_bytes
from oracles import sbs_oracle
from profiles import examples


def _random_pixels(seed=0, w=6, h=4):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestPpmRoundTrip:
    def test_random_image_round_trips(self, tmp_path):
        pixels = _random_pixels()
        p = tmp_path / "img.ppm"
        write_ppm(str(p), pixels)
        back = read_ppm(str(p))
        assert back.shape == pixels.shape
        assert back.dtype == np.uint8
        assert (back == pixels).all()

    def test_written_header_is_plain_p6(self, tmp_path):
        p = tmp_path / "img.ppm"
        write_ppm(str(p), np.zeros((2, 3, 3), dtype=np.uint8))
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 18

    def test_1x1_extremes(self, tmp_path):
        for val in (0, 255):
            pix = np.full((1, 1, 3), val, dtype=np.uint8)
            p = tmp_path / f"v{val}.ppm"
            write_ppm(str(p), pix)
            assert (read_ppm(str(p)) == val).all()


class TestPpmHeaderParsing:
    def test_comments_and_whitespace_tolerated(self, tmp_path):
        pixels = _random_pixels(1, w=2, h=2)
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6 # magic\n# a full comment line\n  2\t2 # dims\n255\n"
                      + pixels.tobytes())
        assert (read_ppm(str(p)) == pixels).all()

    def test_comment_longer_than_a_read_chunk(self, tmp_path):
        pixels = _random_pixels(2, w=3, h=2)
        p = tmp_path / "long.ppm"
        p.write_bytes(b"P6\n# " + b"x" * 5000 + b"\n3 # " + b"y" * 70 + b"\n2\n255\n"
                      + pixels.tobytes())
        assert read_ppm_header(str(p)) == (3, 2)
        assert (read_ppm(str(p)) == pixels).all()

    def test_header_pass_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 11)
        with pytest.raises(PpmError, match="expected 12 raster bytes, got 11"):
            read_ppm_header(str(p))

    def test_p3_rejected(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(PpmError, match="only binary P6"):
            read_ppm(str(p))

    def test_wide_maxval_rejected(self, tmp_path):
        p = tmp_path / "m.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\0" * 6)
        with pytest.raises(PpmError, match="maxval 65535"):
            read_ppm(str(p))

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 11)
        with pytest.raises(PpmError, match="expected 12 raster bytes, got 11"):
            read_ppm(str(p))

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "h.ppm"
        p.write_bytes(b"P6\n2")
        with pytest.raises(PpmError, match="truncated header"):
            read_ppm(str(p))

    def test_non_numeric_dimension_rejected(self, tmp_path):
        p = tmp_path / "n.ppm"
        # int() reads "1_0" as 10 and "+1" as 1; a header number is ASCII digits only
        for header in (b"P6\nzz 2\n255\n", b"P6\n1_0 1\n255\n", b"P6\n+1 1\n255\n",
                       b"P6\n1 -1\n255\n", b"P6\n1 1\n+255\n", b"P6\n\xd9\xa1 1\n255\n"):
            p.write_bytes(header + b"\0" * 30)
            with pytest.raises(PpmError, match="malformed header"):
                read_ppm(str(p))
            with pytest.raises(PpmError, match="malformed header"):
                read_ppm_header(str(p))

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "z.ppm"
        p.write_bytes(b"P6\n0 2\n255\n")
        with pytest.raises(PpmError, match="bad dimensions"):
            read_ppm(str(p))


class TestHeaderTokens:
    def test_twenty_byte_token_is_read(self, tmp_path):
        p = tmp_path / "zeros.ppm"
        p.write_bytes(b"P6\n" + b"0" * 19 + b"2 2\n255\n" + bytes(12))
        assert read_ppm_header(str(p)) == (2, 2)

    @pytest.mark.parametrize("where", ["magic", "width", "height", "maxval"])
    def test_long_token_stops_the_reader_within_the_cap(self, tmp_path, where):
        tokens = {"magic": b"P6", "width": b"2", "height": b"2", "maxval": b"255"}
        tokens[where] = b"7" * 1_000_000
        p = tmp_path / "long.ppm"
        p.write_bytes(b"\n".join(tokens.values()) + b"\n" + bytes(12))
        before = sum(len(t) + 1 for t in list(tokens.values())[: list(tokens).index(where)])
        with open(p, "rb") as fh:
            with pytest.raises(PpmError, match=f"^{re.escape(str(p))}: header token longer than 20 bytes$"):
                ppmio._read_header(fh, str(p))
            assert fh.tell() <= before + ppmio._TOKEN_MAX + 1
        with pytest.raises(PpmError, match="header token longer than 20 bytes"):
            read_ppm_header(str(p))


class TestRasterReader:
    def test_reads_rows_at_their_offsets(self, tmp_path):
        pixels = _random_pixels(5, w=3, h=4)
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n# rows\n3 4\n255\n" + pixels.tobytes())
        buf = bytearray(2 * 9)
        with ppmio.raster_reader(str(p), 3, 4) as read:
            read(buf, 9)
            assert bytes(buf) == pixels[1:3].tobytes()
            read(memoryview(buf)[:9], 27)
            assert bytes(buf[:9]) == pixels[3].tobytes()

    @pytest.mark.parametrize("size", [(4, 3), (2, 6)])
    def test_other_size_than_expected_rejected(self, tmp_path, size):
        p = tmp_path / "img.ppm"
        write_ppm(str(p), _random_pixels(4, w=3, h=4))
        with pytest.raises(PpmError, match=f"{re.escape(str(p))}: frame is now 3x4, not {size[0]}x{size[1]}"):
            with ppmio.raster_reader(str(p), *size):
                pass

    def test_short_read_names_the_file(self, tmp_path):
        p = tmp_path / "img.ppm"
        write_ppm(str(p), _random_pixels(4, w=3, h=4))
        with ppmio.raster_reader(str(p), 3, 4) as read:
            os.truncate(p, os.path.getsize(p) - 5)  # shrinks after its header was checked
            read(bytearray(9), 0)
            with pytest.raises(PpmError, match=f"{re.escape(str(p))}: expected 9 raster bytes at 27, got 4"):
                read(bytearray(9), 27)


def _sbs_rows(left: np.ndarray, right: np.ndarray) -> list[memoryview]:
    """Left row y, then right row y, for every y: the chunks of an sbs raster."""
    return [memoryview(side[y]).cast("B") for y in range(left.shape[0]) for side in (left, right)]


class TestWriteRaster:
    def test_row_chunks_write_the_sbs_oracle(self, tmp_path):
        left, right = _random_pixels(1, w=5, h=7), _random_pixels(2, w=5, h=7)
        p = tmp_path / "sbs.ppm"
        with ppmio.raster_writer(str(p), 10, 7) as write:
            write(_sbs_rows(left, right), 0)
        assert p.read_bytes() == b"P6\n10 7\n255\n" + sbs_oracle(left, right).tobytes()

    def test_short_writes_resume(self, tmp_path, monkeypatch):
        # every pwritev call writes at most 1000 bytes and takes few buffers,
        # so writes stop inside chunks and a frame needs many batches
        real_pwritev = os.pwritev
        calls = []

        def short_pwritev(fd, buffers, offset):
            calls.append(len(buffers))
            take, room = [], 1000
            for b in buffers:
                b = memoryview(b)[:room]
                take.append(b)
                room -= len(b)
                if not room:
                    break
            return real_pwritev(fd, take, offset)

        monkeypatch.setattr(os, "pwritev", short_pwritev)
        monkeypatch.setattr(ppmio, "_IOV_MAX", 5)
        left, right = _random_pixels(3, w=37, h=23), _random_pixels(4, w=37, h=23)
        p = tmp_path / "sbs.ppm"
        with ppmio.raster_writer(str(p), 74, 23) as write:
            write(_sbs_rows(left, right), 0)
        assert p.read_bytes() == b"P6\n74 23\n255\n" + sbs_oracle(left, right).tobytes()
        assert max(calls) == 5 and len(calls) > 2 * 23 * 37 * 3 / 1000

        q = tmp_path / "whole.ppm"
        write_ppm(str(q), left)
        assert q.read_bytes() == b"P6\n37 23\n255\n" + left.tobytes()

    @pytest.mark.parametrize("stops", [
        [8],  # at a view boundary, past two whole views
        [9],  # inside a view, past two whole views
        [3, 6, 6, 2],  # at a boundary, inside a view, at a boundary, then 2 bytes a call
    ])
    def test_short_write_resumes_at_its_first_unwritten_byte(self, tmp_path, monkeypatch,
                                                               stops):
        # views of 3, 5, 7, ... bytes; the k-th pwritev call writes at most
        # stops[k] bytes (the last stop repeats), and the next call starts
        # where it stopped
        real_pwritev, calls = os.pwritev, []

        def short_pwritev(fd, buffers, offset):
            room = stops[min(len(calls), len(stops) - 1)]
            data = b"".join(bytes(b) for b in buffers)[:room]
            calls.append((offset, data))
            return real_pwritev(fd, [data], offset)

        views = [memoryview(bytes(range(10 * i, 10 * i + 2 * i + 3))) for i in range(6)]
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(os, "pwritev", short_pwritev)
            ppmio._write_at(fd, views, 4, "f")
        finally:
            os.close(fd)
        want = b"".join(views)
        assert (tmp_path / "f").read_bytes() == bytes(4) + want
        assert b"".join(data for _, data in calls) == want
        assert [offset for offset, _ in calls] == [
            4 + sum(len(data) for _, data in calls[:k]) for k in range(len(calls))]

    @pytest.mark.parametrize("umask", [0, 0o077])
    def test_written_frame_has_the_mode_the_umask_allows(self, tmp_path, umask):
        was = os.umask(umask)
        try:
            write_ppm(str(tmp_path / "f.ppm"), _random_pixels())
        finally:
            os.umask(was)
        assert os.stat(tmp_path / "f.ppm").st_mode & 0o777 == 0o666 & ~umask

    def test_more_chunks_than_one_pwritev_takes(self, tmp_path):
        h = ppmio._IOV_MAX  # 2h row chunks, two pwritev calls' worth
        left, right = _random_pixels(5, w=2, h=h), _random_pixels(6, w=2, h=h)
        p = tmp_path / "tall.ppm"
        with ppmio.raster_writer(str(p), 4, h) as write:
            write(_sbs_rows(left, right), 0)
        assert p.read_bytes() == f"P6\n4 {h}\n255\n".encode() + sbs_oracle(left, right).tobytes()


class TestWriteValidation:
    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(PpmError, match="uint8"):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3), dtype=np.uint16))

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(PpmError, match=r"\(h, w, 3\)"):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2), dtype=np.uint8))


class TestManifest:
    def test_round_trip_uses_relative_paths(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        entries = []
        for i in range(3):
            p = frames / f"f{i}.ppm"
            write_ppm(str(p), _random_pixels(i, w=2, h=2))
            entries.append((i * 33.3, str(p)))
        manifest = tmp_path / "stream.txt"
        write_manifest(str(manifest), entries)

        text = manifest.read_text()
        assert "frames/f0.ppm" in text
        assert str(tmp_path) not in text  # stored relative, not absolute

        back = read_manifest(str(manifest))
        assert [(ts, p) for ts, p in back] == [
            (0.0, str(frames / "f0.ppm")),
            (33.3, str(frames / "f1.ppm")),
            (66.6, str(frames / "f2.ppm")),
        ]

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("0 sub/frame.ppm\n")
        (ts, p), = read_manifest(str(manifest))
        assert ts == 0.0
        assert p == str(tmp_path / "sub" / "frame.ppm")

    def test_absolute_paths_kept(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("5 /elsewhere/frame.ppm\n")
        (_, p), = read_manifest(str(manifest))
        assert p == "/elsewhere/frame.ppm"

    def test_blank_lines_skipped(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("\n0 a.ppm\n\n  \n33 b.ppm\n")
        assert len(read_manifest(str(manifest))) == 2

    def test_integer_formatting_of_whole_timestamps(self, tmp_path):
        manifest = tmp_path / "m.txt"
        write_manifest(str(manifest), [(100.0, str(tmp_path / "a.ppm"))])
        assert manifest.read_text() == "100 a.ppm\n"

    def test_timestamps_round_trip_exactly(self, tmp_path):
        manifest = tmp_path / "m.txt"
        times = [33.0, 2166.667, 123456.789, 0.1, 1e-7]
        entries = [(t, str(tmp_path / f"{i}.ppm")) for i, t in enumerate(times)]
        write_manifest(str(manifest), entries)
        assert manifest.read_text().splitlines()[0] == "33 0.ppm"
        assert [ts for ts, _ in read_manifest(str(manifest))] == times

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_timestamp_rejected(self, tmp_path, text):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"0 a.ppm\n{text} b.ppm\n")
        with pytest.raises(PpmError, match="m.txt:2: .*not finite"):
            read_manifest(str(manifest))

    def test_missing_path_column_rejected(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("42\n")
        with pytest.raises(PpmError, match="m.txt:1"):
            read_manifest(str(manifest))

    def test_non_utf8_manifest_names_the_file(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"0 a.ppm\n1 b\xff.ppm\n")
        with pytest.raises(PpmError, match=f"{re.escape(str(manifest))}: not UTF-8 text"):
            read_manifest(str(manifest))

    def test_nul_byte_in_a_path_rejected(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"0 a.ppm\n1 a\x00b.ppm\n")
        with pytest.raises(PpmError, match=r"m.txt:2: ppm path 'a\\x00b.ppm' holds a NUL byte$"):
            read_manifest(str(manifest))

    @pytest.mark.parametrize("name", ["a\x0cb.ppm", "a\x1cb.ppm", "a\u2028b.ppm"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_lines_end_only_at_newlines(self, tmp_path, name, newline):
        """A form feed, `\\x1c` or `\\u2028` stays inside its path; CRLF reads as LF."""
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(newline.join(["0 a.ppm", f"1 {name}", "2 c.ppm", ""]).encode())
        assert read_manifest(str(manifest)) == [
            (0.0, str(tmp_path / "a.ppm")),
            (1.0, str(tmp_path / name)),
            (2.0, str(tmp_path / "c.ppm")),
        ]
        manifest.write_bytes(newline.join([f"0 {name}", "42", ""]).encode())
        with pytest.raises(PpmError, match="m.txt:2: expected"):
            read_manifest(str(manifest))

    def test_bad_timestamp_rejected(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("soon a.ppm\n")
        with pytest.raises(PpmError, match="bad timestamp"):
            read_manifest(str(manifest))

    @pytest.mark.parametrize("where", ["write", "replace"])
    def test_failed_write_keeps_the_old_manifest_and_no_temporary(
            self, tmp_path, manifest_fault, where):
        manifest = tmp_path / "m.txt"
        manifest.write_text("0 old.ppm\n")
        manifest_fault(where)
        entries = [(float(i), str(tmp_path / f"{i}.ppm")) for i in range(3)]
        with pytest.raises(OSError):
            write_manifest(str(manifest), entries)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]
        assert manifest.read_text() == "0 old.ppm\n"

    def test_paths_with_spaces_survive(self, tmp_path):
        d = tmp_path / "my frames"
        d.mkdir()
        target = d / "frame 0.ppm"
        write_ppm(str(target), _random_pixels(9, w=1, h=1))
        manifest = tmp_path / "m.txt"
        write_manifest(str(manifest), [(0.0, str(target))])
        (_, p), = read_manifest(str(manifest))
        assert p == str(target)
        assert read_ppm(p).shape == (1, 1, 3)

    @pytest.mark.parametrize("name", [
        "f.ppm ", " f.ppm", "f.ppm\x0c", "a\nb.ppm", "f.ppm\n", "a\rb.ppm", "a\x00b.ppm",
        "\ud800", "a\udcffb.ppm",
    ])
    def test_path_that_would_read_back_differently_is_refused(self, tmp_path, name):
        manifest = tmp_path / "m.txt"
        entries = [(0.0, str(tmp_path / "a.ppm")), (33.0, str(tmp_path / name))]
        with pytest.raises(PpmError, match=f"ppm path {re.escape(repr(entries[1][1]))}"):
            write_manifest(str(manifest), entries)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=examples(100), deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.text(st.one_of(st.sampled_from(" \t\n\r\x00\x0b\x0c\x1c\x85\u2028./"),
                                  st.characters()), min_size=1, max_size=8))
    @example(name="//")  # the root, which POSIX lets abspath keep as "//"
    @example(name="\ud800")  # a lone surrogate, which UTF-8 cannot encode
    def test_written_path_reads_back_or_is_refused(self, tmp_path, name):
        manifest = tmp_path / "m.txt"
        frame = os.path.join(str(tmp_path), name)
        try:
            write_manifest(str(manifest), [(0.0, frame)])
        except PpmError:
            assert not manifest.exists()
            return
        (_, back), = read_manifest(str(manifest))
        manifest.unlink()
        assert os.path.realpath(back) == os.path.realpath(frame)


_FUZZ = settings(max_examples=examples(250), deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReadersUnderMangledInput:
    """A mangled file either parses or is a `PpmError`, never another exception."""

    @_FUZZ
    @given(data=mangled_bytes(b"P6 # size\n3 2\n255\n" + bytes(range(18))))
    @example(data=b"P6\n1_0 1\n255\n" + bytes(30))
    def test_read_ppm_header(self, tmp_path, data):
        p = tmp_path / "f.ppm"
        p.write_bytes(data)
        try:
            w, h = read_ppm_header(str(p))
        except PpmError:
            return
        assert w > 0 and h > 0 and len(data) >= 3 * w * h

    @_FUZZ
    @given(data=mangled_bytes(b"0 a.ppm\n33.3 frames/b.ppm\n\n  66.7 c d.ppm\n"))
    @example(data=b"0 a\xff.ppm\n")
    def test_read_manifest(self, tmp_path, data):
        p = tmp_path / "m.txt"
        p.write_bytes(data)
        try:
            entries = read_manifest(str(p))
        except PpmError:
            return
        assert all(math.isfinite(ts) and os.path.isabs(path) for ts, path in entries)
