from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stereorig
from stereorig import alignment, merge, svgio
from stereorig.cli import build_parser, main
from stereorig.merge import load_stream, merge_pairs, pair_frames
from stereorig.ppmio import read_ppm, write_manifest, write_ppm

import forked
from bytefuzz import mangled_bytes
from jsonfuzz import CATALOG, READINGS, mangled
from oracles import anaglyph_oracle, merge_outcome_oracle, sbs_oracle
from profiles import examples


def _write_stream(dirpath, name, times, fill):
    frames_dir = dirpath / name
    frames_dir.mkdir()
    entries = []
    for i, t in enumerate(times):
        p = frames_dir / f"{i}.ppm"
        write_ppm(str(p), np.full((4, 4, 3), fill, dtype=np.uint8))
        entries.append((t, str(p)))
    manifest = dirpath / f"{name}.txt"
    write_manifest(str(manifest), entries)
    return str(manifest)


class TestUsageErrors:
    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                     "--sideways"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "base-model" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, rc, err", [
        (["gen-template", "--mode", "two", "--device", "J7-fixture", "-o", "-1.5"], 0,
         "wrote -1.5\n"),
        # argparse alone reads `-inf` as an option, not as the file name
        (["gen-template", "--mode", "two", "--device", "J7-fixture", "-o", "-inf"], 0,
         "wrote -inf\n"),
        (["base-model", "--a", "J7-fixture", "--b", "A5-fixture", "--specs", "-nan"], 1,
         "error: [Errno 2] No such file or directory: '-nan'\n"),
    ], ids=["-o -1.5", "-o -inf", "--specs -nan"])
    def test_string_option_takes_a_value_that_reads_as_a_number(
            self, capsys, tmp_path, monkeypatch, argv, rc, err):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == rc
        assert capsys.readouterr().err == err
        assert sorted(os.listdir(tmp_path)) == ([argv[-1]] if rc == 0 else [])
        if rc == 0:
            assert (tmp_path / argv[-1]).read_text().startswith("<svg")


GOLDEN_DIR = Path(__file__).parent / "golden"
HELP_DIR = GOLDEN_DIR / "help"
SUBCOMMANDS = ("base-model", "gen-template", "align-check", "grid-overlay",
               "simulate-sync", "merge")


class TestHelpText:
    """`--help` output and parser defaults, frozen: moving a default must not change it."""

    @pytest.mark.parametrize("command", ("",) + SUBCOMMANDS)
    def test_help_matches_frozen_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        assert main([command, "--help"] if command else ["--help"]) == 0
        name = f"{command or 'stereorig'}.txt"
        # argparse 3.13 wraps usage lines otherwise and prints "-o, --output DIR" for
        # "-o DIR, --output DIR", so three of the texts have a 3.13 copy
        variant = HELP_DIR / "py313" / name
        golden = variant if sys.version_info >= (3, 13) and variant.exists() else HELP_DIR / name
        want = golden.read_text()
        assert capsys.readouterr().out == want

    # argparse's help shows no defaults, so they are pinned here
    DEFAULTS = {
        "base-model": ({"specs": None, "ipd": 65.0, "layout": "vertical", "stack": "coplanar",
                        "orientation": "portrait", "rotate_b": 180}, ["--a", "X", "--b", "Y"]),
        "gen-template": ({"specs": None, "ipd": 65.0, "velcro": 20.0, "cardboard": 2.0,
                          "strap_width": 20.0, "fillet": 0.0, "layout": "vertical",
                          "stack": "coplanar", "orientation": "portrait", "rotate_b": 180},
                         ["--mode", "two", "--device", "X", "-o", "f"]),
        "align-check": ({"mag_tol": 5.0, "gyro_tol": 2.0}, ["--readings", "r"]),
        "grid-overlay": ({"specs": None, "ipd": 65.0, "layout": "vertical",
                          "stack": "depth-stacked", "orientation": "portrait", "rotate_b": 180,
                          "pitch": 10.0, "svg": None}, ["--device", "X"]),
        "simulate-sync": ({"specs": None, "a": "J7-fixture", "b": "A5-fixture",
                           "latency": 10.0, "jitter": 0.0, "loss": 0.0, "seed": 0,
                           "capture": None, "duration": 0.0, "offset_a": 0.0,
                           "offset_b": 0.0}, []),
        "merge": ({"tol": 20.0}, ["--left", "l", "--right", "r", "--mode", "sbs", "-o", "d"]),
    }

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_parser_defaults(self, command):
        want, required = self.DEFAULTS[command]
        args = vars(build_parser().parse_args([command, *required]))
        assert {k: args[k] for k in want} == want
        assert [type(args[k]) for k in want] == [type(v) for v in want.values()]


class TestGoldenOutput:
    """Output frozen byte for byte: rig JSON and sync transcripts on stdout, and the SVGs."""

    J7 = ("--device", "J7-fixture")
    STDOUT = {
        "base_model_default.json": ["base-model", "--a", "J7-fixture", "--b", "J7-fixture"],
        "base_model_landscape_depth.json": [
            "base-model", "--a", "J7-fixture", "--b", "J7-fixture", "--layout", "horizontal",
            "--stack", "depth", "--orientation", "landscape", "--rotate-b", "90",
            "--ipd", "71.2345"],
        "grid_overlay_pitch.json": ["grid-overlay", *J7, "--pitch", "3.14159"],
        # the README example, a lossy run that stops after pairing, and a lossless run
        # through frame sync that reaches every entry kind but drop and apply
        "simulate_sync_readme.txt": [
            "simulate-sync", "--a", "J7-fixture", "--b", "A5-fixture", "--latency", "10",
            "--jitter", "5", "--loss", "0.1", "--seed", "42", "--capture", "50",
            "--duration", "1000", "--offset-a", "3", "--offset-b", "-4"],
        "simulate_sync_pairing.txt": [
            "simulate-sync", "--latency", "10", "--jitter", "5", "--loss", "0.3", "--seed", "3"],
        "simulate_sync_frames.txt": ["simulate-sync", "--capture", "50", "--duration", "200"],
    }

    @pytest.mark.parametrize("name", sorted(STDOUT))
    def test_stdout_matches_frozen_file(self, capsys, name):
        assert main(self.STDOUT[name]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("mode, name", [("two", "j7_two_phone.svg"),
                                            ("three", "j7_three_phone.svg"),
                                            ("mirror", "j7_mirror.svg")])
    def test_template_matches_frozen_file(self, capsys, tmp_path, mode, name):
        out = tmp_path / "t.svg"
        assert main(["gen-template", "--mode", mode, *self.J7, "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestBaseModel:
    def test_success_prints_model_json(self, capsys, registry, j7):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture"])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = json.loads(out)
        ax, ay = parsed["camera_a"]
        bx, by = parsed["camera_b_target"]
        assert ((bx - ax) ** 2 + (by - ay) ** 2) ** 0.5 == pytest.approx(65.0, abs=1e-6)

        # thin adapter: byte-identical to calling the module directly
        layout = alignment.LayoutConfig(axis="vertical", stacking="coplanar",
                                        rotation_b=180)
        model = alignment.compute_base_model(j7, j7, layout)
        assert out == alignment.model_to_json(model)

    def test_infeasible_reports_min_separation(self, capsys):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                   "--layout", "horizontal", "--stack", "coplanar",
                   "--rotate-b", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "78.0" in captured.err

    def test_unknown_device_exits_1(self, capsys):
        rc = main(["base-model", "--a", "Nokia-3310", "--b", "J7-fixture"])
        assert rc == 1
        assert "Nokia-3310" in capsys.readouterr().err

    def test_custom_registry_file(self, capsys, tmp_path, registry):
        from stereorig.registry import serialize_device_specs
        custom = tmp_path / "devices.json"
        custom.write_text(serialize_device_specs(registry))
        rc = main(["base-model", "--specs", str(custom),
                   "--a", "J7-fixture", "--b", "A5-fixture"])
        assert rc == 0

    @pytest.mark.parametrize("ipd", ["inf", "nan"])
    def test_non_finite_ipd_exits_1_with_empty_stdout(self, capsys, ipd):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture", "--ipd", ipd])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"ipd must be positive and finite, got {ipd}" in captured.err

    def test_depth_stack_flag_alias(self, capsys):
        rc = main(["base-model", "--a", "J7-fixture", "--b", "J7-fixture",
                   "--stack", "depth", "--rotate-b", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["layout"]["stacking"] == "depth-stacked"


class TestGenTemplate:
    @pytest.mark.parametrize("mode", ["two", "three", "mirror"])
    def test_writes_parseable_svg(self, capsys, tmp_path, mode):
        out = tmp_path / f"{mode}.svg"
        rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture",
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"wrote {out}" in captured.err
        text = out.read_text()
        assert text.startswith("<svg")
        layout = svgio.parse_svg(text)
        assert svgio.render_svg(layout) == text

    @pytest.mark.parametrize("mode", ["three", "mirror"])
    @pytest.mark.parametrize("ipd, message", [
        ("nan", "ipd must be positive and finite, got nan"),
        ("inf", "ipd must be positive and finite, got inf"),
        ("-inf", "ipd must be positive and finite, got -inf"),
    ])
    def test_non_finite_ipd_exits_1_without_output(self, capsys, tmp_path, mode, ipd, message):
        out = tmp_path / "t.svg"
        for flag in ([f"--ipd={ipd}"], ["--ipd", ipd]):
            rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture",
                       *flag, "-o", str(out)])
            assert rc == 1
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("mode, flag, message", [
        ("two", "--velcro=inf", "velcro length must be positive and finite, got inf"),
        ("two", "--velcro=nan", "velcro length must be positive and finite, got nan"),
        ("two", "--cardboard=inf", "cardboard thickness must be positive and finite, got inf"),
        ("two", "--strap-width=nan", "strap width must be positive and finite, got nan"),
        ("two", "--strap-width=inf", "strap width must be positive and finite, got inf"),
        ("two", "--strap-width=-5", "strap width must be positive and finite, got -5.0"),
        ("two", "--fillet=-inf", "fillet radius must be finite and non-negative, got -inf"),
        ("mirror", "--fillet=nan", "fillet radius must be finite and non-negative, got nan"),
        ("mirror", "--fillet=inf", "fillet radius must be finite and non-negative, got inf"),
        ("mirror", "--fillet=-5", "fillet radius must be finite and non-negative, got -5.0"),
        # modes that do not draw a quantity still check its flag
        ("three", "--velcro=inf", "velcro length must be positive and finite, got inf"),
        ("three", "--cardboard=nan", "cardboard thickness must be positive and finite, got nan"),
        ("three", "--strap-width=0", "strap width must be positive and finite, got 0.0"),
        ("three", "--fillet=nan", "fillet radius must be finite and non-negative, got nan"),
        ("mirror", "--velcro=-1", "velcro length must be positive and finite, got -1.0"),
        ("mirror", "--cardboard=inf", "cardboard thickness must be positive and finite, got inf"),
        ("mirror", "--strap-width=nan", "strap width must be positive and finite, got nan"),
        # above the 1e9 mm bound: two-phone --strap-width 1e308 named a piece's infinite
        # bbox, and the others wrote SVGs of 309-digit coordinates
        ("two", "--strap-width=1e308", "strap width must be at most 1e+09 mm, got 1e+308"),
        ("two", "--velcro=1e308", "velcro length must be at most 1e+09 mm, got 1e+308"),
        ("three", "--cardboard=1e308",
         "cardboard thickness must be at most 1e+09 mm, got 1e+308"),
        ("mirror", "--fillet=1e308", "fillet radius must be at most 1e+09 mm, got 1e+308"),
    ])
    def test_bad_material_value_exits_1_without_output(self, capsys, tmp_path, mode, flag,
                                                       message):
        # all but --velcro=nan wrote an SVG with `infmm`, `rx="inf"` or nan sizes before, and
        # modes three and mirror wrote one for every flag they do not draw
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", mode, "--device", "J7-fixture", flag,
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_ipd_too_big_for_the_layout_exits_1_without_output(self, capsys, tmp_path):
        # a finite ipd whose panel width would overflow: the IPD bound refuses it by name
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", "three", "--device", "J7-fixture",
                   "--ipd", "1e308", "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: ipd must be at most 1e+09 mm, got 1e+308\n"
        assert not out.exists()

    def test_huge_ipd_three_phone_layout_is_finite(self, capsys, tmp_path):
        # the largest ipd accepted
        from stereorig.templates import aperture_separations

        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", "three", "--device", "J7-fixture",
                   "--ipd", "1e9", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        layout = svgio.parse_svg(text)
        assert svgio.render_svg(layout) == text
        assert aperture_separations(layout) == pytest.approx([1e9] * 3, rel=1e-9)

    def test_tiny_ipd_three_phone_layout_names_the_camera_offset(self, capsys, tmp_path):
        # (c / ipd) ** 2 would raise OverflowError; (c / ipd) * (c / ipd) is inf
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", "three", "--device", "J7-fixture",
                   "--ipd", "1e-160", "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: camera offset 39.0 mm is too large")
        assert not out.exists()

    def test_infeasible_layout_exits_1(self, capsys, tmp_path):
        out = tmp_path / "t.svg"
        rc = main(["gen-template", "--mode", "two", "--device", "J7-fixture",
                   "--layout", "horizontal", "--rotate-b", "0", "-o", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_repeat_run_is_byte_identical(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.svg"
            assert main(["gen-template", "--mode", "two", "--device",
                         "J7-fixture", "-o", str(p)]) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAlignCheck:
    def _fixture(self, tmp_path, pairs):
        p = tmp_path / "readings.json"
        p.write_text(json.dumps(pairs))
        return str(p)

    @staticmethod
    def _entry(mag_a, mag_b, ts=0.0):
        zero = [0.0, 0.0, 0.0]
        return {
            "a": {"magnetometer": mag_a, "gyroscope": zero, "timestamp_ms": ts},
            "b": {"magnetometer": mag_b, "gyroscope": zero, "timestamp_ms": ts},
        }

    def test_converging_run_exits_0(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, -20.0], [30.0, 0.0, -8.0], 0),
            self._entry([30.0, 0.0, -20.0], [30.0, 0.0, -19.0], 100),
        ])
        rc = main(["align-check", "--readings", path])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("[0] misaligned: move second device")
        assert out[1] == "[1] aligned: aligned"

    def test_misaligned_final_pair_exits_1(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, 0.0], [40.0, 0.0, 0.0]),
        ])
        rc = main(["align-check", "--readings", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[0] misaligned:" in out
        assert "+x" in out

    def test_custom_tolerance_changes_verdict(self, capsys, tmp_path):
        path = self._fixture(tmp_path, [
            self._entry([30.0, 0.0, 0.0], [22.0, 0.0, 0.0]),
        ])
        assert main(["align-check", "--readings", path]) == 1
        assert main(["align-check", "--readings", path, "--mag-tol", "10"]) == 0

    def test_nan_tolerances_exit_1(self, capsys, tmp_path):
        # 50 uT and 90 deg/s apart: a nan tolerance used to report "aligned", exit 0
        entry = self._entry([30.0, 0.0, -20.0], [80.0, 0.0, -20.0])
        entry["b"]["gyroscope"] = [90.0, 0.0, 0.0]
        path = self._fixture(tmp_path, [entry])
        rc = main(["align-check", "--readings", path, "--mag-tol", "nan", "--gyro-tol", "nan"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: mag_tolerance must be finite and non-negative, got nan" in captured.err

    def test_non_finite_reading_names_its_field_and_exits_1(self, capsys, tmp_path):
        # json.dumps writes Infinity, which the readings reader reads back as inf
        zero = [0.0, 0.0, 0.0]
        path = self._fixture(tmp_path, [self._entry(zero, zero, float("inf"))])
        rc = main(["align-check", "--readings", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: timestamp_ms must be finite, got inf\n"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        assert main(["align-check", "--readings", str(tmp_path / "nope.json")]) == 1


class TestGridOverlay:
    def test_prints_overlay_json(self, capsys):
        rc = main(["grid-overlay", "--device", "J7-fixture"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["screen_px"] == [720, 1480]
        assert data["target_marker"] == [390.0, 750.0]
        assert data["target_marker_px"] == [390, 750]

    def test_writes_debug_svg(self, capsys, tmp_path):
        svg = tmp_path / "grid.svg"
        rc = main(["grid-overlay", "--device", "J7-fixture", "--svg", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("flag, message", [
        ("--ipd", "ipd must be positive and finite, got inf"),
        ("--pitch", "grid pitch must be positive and finite, got inf"),
    ])
    def test_infinite_value_exits_1_with_empty_stdout(self, capsys, tmp_path, flag, message):
        svg = tmp_path / "grid.svg"
        rc = main(["grid-overlay", "--device", "J7-fixture", flag, "inf", "--svg", str(svg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert message in captured.err
        assert not svg.exists()

    def test_unwritable_svg_leaves_no_output(self, capsys, tmp_path):
        svg = tmp_path / "missing" / "grid.svg"
        rc = main(["grid-overlay", "--device", "J7-fixture", "--svg", str(svg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""  # the whole JSON document was printed first
        assert captured.err.startswith("error: [Errno 2] ")
        assert not svg.exists()

    def test_infinite_pixel_density_in_registry_exits_1(self, capsys, tmp_path, j7):
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7]))
        doc[0]["pixel_density"] = float("inf")
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))  # writes Infinity
        rc = main(["grid-overlay", "--specs", str(specs), "--device", "J7-fixture"])
        captured = capsys.readouterr()
        assert rc == 1  # an OverflowError traceback before
        assert captured.out == ""
        assert "error: J7-fixture: pixel_density must be positive and finite" in captured.err

    def test_huge_pixel_density_in_registry_exits_1(self, capsys, tmp_path, j7):
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7]))
        doc[0]["pixel_density"] = 1e308  # finite, but the target marker overflows
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))
        rc = main(["grid-overlay", "--specs", str(specs), "--device", "J7-fixture"])
        captured = capsys.readouterr()
        assert rc == 1  # an OverflowError traceback before
        assert captured.out == ""
        assert captured.err.startswith("error: J7-fixture: pixel_density 1e+308 ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("field", ["body_width", "body_length"])
    def test_body_past_its_bound_in_registry_exits_1(self, capsys, tmp_path, j7, a5, field):
        # at 1e300 mm, body_length failed the solver's own check ("base model invalid:
        # ipd: separation 1.000 mm != 65.000 mm") and body_width wrote a 300-digit width
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7, a5]))
        for spec in doc:
            spec[field], spec["camera_center"] = 1e300, [1.0, 1.0]
        specs, svg = tmp_path / "devices.json", tmp_path / "t.svg"
        specs.write_text(json.dumps(doc))
        rc = main(["gen-template", "--mode", "two", "--device", "J7-fixture", "-o", str(svg),
                   "--specs", str(specs)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: J7-fixture: {field} must be at most 1e+09 mm, got 1e+300\n"
        assert not svg.exists()

    def test_screen_width_too_big_for_a_float_exits_1(self, capsys, tmp_path, j7):
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7]))
        doc[0]["screen_width_px"] = 10**400  # 401 digits: an int, but no float
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))
        rc = main(["grid-overlay", "--specs", str(specs), "--device", "J7-fixture"])
        captured = capsys.readouterr()
        assert rc == 1  # an OverflowError traceback from float(screen[0]) before
        assert captured.out == ""
        assert captured.err.startswith(
            "error: J7-fixture: screen_width_px must be positive and finite, got 1000")

    def test_pitch_under_one_pixel_exits_1(self, capsys, tmp_path):
        # 0.001 mm on 10 px/mm printed 2.6 MB of grid lines; 1e-9 would ask for 1e11
        svg = tmp_path / "grid.svg"
        for pitch in ("0.001", "1e-9"):
            rc = main(["grid-overlay", "--device", "J7-fixture", "--pitch", pitch,
                       "--svg", str(svg)])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err == (
                f"error: grid pitch {float(pitch)} mm is under one pixel on J7-fixture "
                f"(10.0 px/mm)\n"
            )
            assert not svg.exists()
        assert main(["grid-overlay", "--device", "J7-fixture", "--pitch", "0.1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["vertical_lines"]) == 720

    def test_pitch_not_under_the_screen_exits_1(self, capsys, tmp_path):
        # 1e308 printed a grid with no lines at all, and 1e17 one line at 0
        svg = tmp_path / "grid.svg"
        for pitch in ("72", "1e17", "1e308"):
            rc = main(["grid-overlay", "--device", "J7-fixture", "--pitch", pitch,
                       "--svg", str(svg)])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err == (
                f"error: grid pitch {float(pitch)} mm is not under the shorter side of the "
                f"720 x 1480 px screen on J7-fixture (10.0 px/mm)\n"
            )
            assert not svg.exists()
        assert main(["grid-overlay", "--device", "J7-fixture", "--pitch", "71.9"]) == 0
        assert len(json.loads(capsys.readouterr().out)["vertical_lines"]) == 2

    def test_coplanar_stack_exits_1(self, capsys):
        rc = main(["grid-overlay", "--device", "J7-fixture", "--stack", "coplanar"])
        assert rc == 1
        assert "depth-stacked" in capsys.readouterr().err


# a child that runs the CLI with files limited to argv[1] bytes, where a longer write
# fails with EFBIG rather than killing the process
_LIMITED_FILES = """\
import resource, signal, sys
from stereorig.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


class TestSvgFile:
    """`gen-template -o` and `grid-overlay --svg` write a whole SVG or none."""

    @staticmethod
    def _argv(command: str, svg: Path) -> list[str]:
        if command == "gen-template":
            return [command, "--mode", "two", "--device", "J7-fixture", "-o", str(svg)]
        return [command, "--device", "J7-fixture", "--svg", str(svg)]

    @pytest.mark.parametrize("command, limit", [("gen-template", 2000), ("grid-overlay", 100)])
    def test_a_failed_write_leaves_no_file(self, tmp_path, subprocess_env, command, limit):
        # each left a file of exactly `limit` bytes before
        res = subprocess.run(
            [sys.executable, "-c", _LIMITED_FILES, str(limit),
             *self._argv(command, tmp_path / "out.svg")],
            env=subprocess_env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: [Errno 27] File too large\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["gen-template", "grid-overlay"])
    def test_a_missing_directory_is_refused_naming_the_file_asked_for(
            self, capsys, tmp_path, command):
        svg = tmp_path / "missing" / "out.svg"
        assert main(self._argv(command, svg)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{svg}'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["gen-template", "grid-overlay"])
    def test_a_fifo_is_written_in_place(self, capsys, tmp_path, command):
        assert main(self._argv(command, tmp_path / "file.svg")) == 0
        fifo = tmp_path / "fifo.svg"
        os.mkfifo(fifo)
        got = []
        # opening a FIFO blocks until both ends are open, so the reader opens it apart
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(self._argv(command, fifo)) == 0
        reader.join(timeout=30)
        assert got == [(tmp_path / "file.svg").read_text()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["fifo.svg", "file.svg"]

    @pytest.mark.parametrize("command", ["gen-template", "grid-overlay"])
    def test_a_symlink_is_written_through(self, capsys, tmp_path, command):
        assert main(self._argv(command, tmp_path / "file.svg")) == 0
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        target.write_text("old")
        link.symlink_to(target)
        assert main(self._argv(command, link)) == 0
        assert link.is_symlink()
        assert target.read_text() == (tmp_path / "file.svg").read_text()


class TestSimulateSync:
    def test_full_chain_lossless(self, capsys):
        rc = main(["simulate-sync", "--capture", "50", "--duration", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=done B=done" in out
        assert "capture start skew: 0.000 ms" in out
        assert "pair_request" in out
        assert "frame_tick" in out

    def test_capture_without_duration_stops_at_capturing(self, capsys):
        # --duration defaults to 0 ms, which runs no frame-sync stage at all
        rc = main(["simulate-sync", "--capture", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=capturing B=capturing" in out
        assert "frame_tick" not in out

    def test_pairing_only_reaches_configured(self, capsys):
        rc = main(["simulate-sync"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=configured B=configured" in out
        assert "capture start skew" not in out

    def test_total_loss_exits_1(self, capsys):
        rc = main(["simulate-sync", "--loss", "1.0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "final: A=failed B=failed" in out
        assert "give_up" in out

    def test_clock_offsets_reported_in_skew(self, capsys):
        rc = main(["simulate-sync", "--capture", "50",
                   "--offset-a", "3", "--offset-b", "-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "capture start skew: 7.000 ms" in out

    @pytest.mark.parametrize("seed", ["2", "3", "7"])
    def test_lost_capture_start_fails_both_ends_and_exits_1(self, capsys, seed):
        # each run's first CaptureStart is lost; they ended "final: A=capturing
        # B=configured" and exited 0 while CaptureStart was sent once and never resent
        rc = main(["simulate-sync", "--loss", "0.3", "--jitter", "5", "--capture", "50",
                   "--duration", "200", "--seed", seed])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.endswith("final: A=failed B=failed\n")
        assert "A->B   drop    capture_start" in out

    def test_same_seed_same_transcript(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["simulate-sync", "--jitter", "5", "--seed", "42",
                         "--capture", "60", "--duration", "500"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_invalid_loss_rate_exits_1(self, capsys):
        assert main(["simulate-sync", "--loss", "1.5"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--latency=nan"], "latency must be finite and non-negative, got nan"),
        (["--jitter=inf"], "jitter must be finite and non-negative, got inf"),
        (["--offset-a=nan"], "clock offsets must be finite"),
        (["--capture=50", "--offset-b=-inf"], "clock offsets must be finite"),
        (["--capture=nan"], "capture delay must be finite, got nan"),
        (["--capture=inf"], "capture delay must be finite, got inf"),
        (["--capture=50", "--duration=nan"], "duration must be finite and non-negative, got nan"),
        (["--capture=50", "--duration=inf"], "duration must be finite and non-negative, got inf"),
        # checked before pairing, though no stage would use them
        (["--duration=nan"], "duration must be finite and non-negative, got nan"),
        (["--loss=1.0", "--capture=nan"], "capture delay must be finite, got nan"),
        # ran as no duration at all, ending "final: A=capturing B=capturing"
        (["--capture=50", "--duration=-1e308"],
         "duration must be finite and non-negative, got -1e+308"),
    ])
    def test_non_finite_value_exits_1_with_empty_stdout(self, capsys, flags, message):
        rc = main(["simulate-sync", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("flags, message", [
        # the transcript reached inf before, and the run failed only after printing it
        (["--latency", "1e308"], "latency must be at most 1e+10 ms, got 1e+308"),
        # every tick was stamped 1e+308, and the skew was printed as inf with exit 0
        (["--offset-a", "1e308", "--offset-b", "-1e308"],
         "clock offsets must be at most 1e+10 ms, got 1e+308"),
    ], ids=["latency", "offsets"])
    def test_time_beyond_the_bound_exits_1_with_empty_stdout(self, capsys, flags, message):
        rc = main(["simulate-sync", *flags, "--capture", "50", "--duration", "100"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_every_time_at_the_bound_gives_a_finite_skew(self, capsys):
        rc = main(["simulate-sync", "--offset-a", "1e10", "--offset-b", "-1e10", "--capture",
                   "1e10", "--latency", "1e10", "--jitter", "1e10", "--duration", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("final: A=done B=done\ncapture start skew: 20000000000.000 ms\n")

    @pytest.mark.parametrize("duration", ["1e17", "1e154", "1e308"])
    def test_duration_beyond_the_bound_exits_1_at_once(self, capsys, duration):
        # 1e17 scheduled 3e15 tick events, and 1e308 held too many ticks to count
        rc = main(["simulate-sync", "--capture", "50", "--duration", duration])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: duration must be at most 1e+10 ms, got {float(duration)}\n")

    def test_duration_too_long_to_count_its_ticks_exits_1(self, capsys, tmp_path, j7, a5):
        # at 1e305 fps, duration * fps overflows even within the duration bound; such a
        # catalog is refused as it loads, before any frame sync
        from stereorig.registry import serialize_device_specs
        doc = json.loads(serialize_device_specs([j7, a5]))
        for spec in doc:
            spec["frame_rates"] = [1e305]
        specs = tmp_path / "devices.json"
        specs.write_text(json.dumps(doc))
        rc = main(["simulate-sync", "--specs", str(specs), "--capture", "50",
                   "--duration", "1e10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: J7-fixture: frame_rates must be at most 1000 fps, got 1e+305\n")

    def test_ipd_is_a_usage_error(self, capsys):
        assert main(["simulate-sync", "--ipd", "60"]) == 2
        assert "unrecognized arguments: --ipd" in capsys.readouterr().err


class TestMerge:
    def test_anaglyph_pipeline_writes_frames(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"paired 3 frames (dropped 0 left, 0 right) -> {outdir}" in out
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["anaglyph_0000.ppm", "anaglyph_0001.ppm",
                         "anaglyph_0002.ppm", "pairs.txt"]
        pixels = read_ppm(str(outdir / "anaglyph_0000.ppm"))
        assert (pixels == np.array([0, 0, 255], dtype=np.uint8)).all()

    def test_sbs_pipeline_doubles_width(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0], 7)
        right = _write_stream(tmp_path, "right", [1.0], 9)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "-o", str(outdir)])
        assert rc == 0
        assert read_ppm(str(outdir / "sbs_0000.ppm")).shape == (4, 8, 3)

    def test_drops_reported(self, capsys, tmp_path):
        left = _write_stream(tmp_path, "left", [0.0, 500.0], 1)
        right = _write_stream(tmp_path, "right", [2.0], 2)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "--tol", "10", "-o", str(outdir)])
        assert rc == 0
        assert "paired 1 frames (dropped 1 left, 0 right)" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_1_without_output(self, capsys, tmp_path, tol):
        # a tolerance that every comparison passes paired these far-apart frames
        left = _write_stream(tmp_path, "left", [0.0, 1000.0], 1)
        right = _write_stream(tmp_path, "right", [500.0, 5000.0], 2)
        outdir = tmp_path / "out"
        for flag in ([f"--tol={tol}"], ["--tol", tol], ["--to", tol]):
            rc = main(["merge", "--left", left, "--right", right,
                       "--mode", "sbs", *flag, "-o", str(outdir)])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert "error: tolerance must be " in captured.err
            assert f"got {float(tol)}" in captured.err
            assert not outdir.exists()

    def test_missing_manifest_exits_1(self, capsys, tmp_path):
        rc = main(["merge", "--left", str(tmp_path / "no.txt"),
                   "--right", str(tmp_path / "no2.txt"),
                   "--mode", "sbs", "-o", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_timestamp_exits_1_without_output(self, capsys, tmp_path):
        for name, times in (("left", ("0.0", "nan")), ("right", ("0.0", "33.0"))):
            manifest = tmp_path / f"{name}.txt"
            _write_stream(tmp_path, name, [0.0, 33.0], 1)
            manifest.write_text("".join(f"{t} {name}/{i}.ppm\n" for i, t in enumerate(times)))
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", str(tmp_path / "left.txt"),
                   "--right", str(tmp_path / "right.txt"),
                   "--mode", "sbs", "--tol", "10", "-o", str(outdir)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("where", ["write", "replace"])
    def test_failed_manifest_write_leaves_no_pairs_txt(
            self, capsys, tmp_path, manifest_fault, where):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        outdir = tmp_path / "out"
        manifest_fault(where)
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno")
        # neither pairs.txt nor its temporary file, nor the frames and their directory
        assert not outdir.exists()

    @staticmethod
    def _fail_at(monkeypatch, target: str, k: int, exc: BaseException) -> list:
        """Make the k-th call of `target` ("module.name") raise `exc`; returns its call log."""
        module, name = target.rsplit(".", 1)
        real = getattr(sys.modules[module], name)
        calls = []

        def faulty(*args, **kwargs):
            calls.append(args)
            if len(calls) == k:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(target, faulty)
        return calls

    @staticmethod
    def _tree(path: Path) -> dict | None:
        """Every entry under `path` with a file's bytes, or None if `path` does not exist."""
        if not path.exists():
            return None
        return {str(p.relative_to(path)): p.is_file() and p.read_bytes()
                for p in path.rglob("*")}

    @staticmethod
    def _two_strips_a_frame(monkeypatch, cpus: int) -> None:
        """Make every 4x4 frame two strips of two rows, shared among `cpus` workers."""
        monkeypatch.setattr(stereorig, "STRIP_PIXELS", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    # on one worker a 3-pair stream of two-strip frames makes 12 strip reads
    # (os.preadv), then 3 header and 6 strip writes (os.pwritev)
    FAULTS = [("os.preadv", k) for k in range(1, 13)] + [("os.pwritev", k) for k in range(1, 10)]

    @pytest.mark.parametrize("before", [
        "absent", "absent, with missing parents", "empty", "holding a file"])
    @pytest.mark.parametrize("target, k", FAULTS)
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_io_fault_leaves_output_as_it_was(
            self, capsys, tmp_path, monkeypatch, mode, target, k, before):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        nested = before == "absent, with missing parents"
        top = tmp_path / ("a" if nested else "out")
        outdir = top / "b" / "out" if nested else top
        if before in ("empty", "holding a file"):
            outdir.mkdir()
        if before == "holding a file":
            (outdir / "notes.txt").write_text("kept\n")
        was = self._tree(top)
        self._two_strips_a_frame(monkeypatch, cpus=1)
        calls = self._fail_at(monkeypatch, target, k, OSError(errno.EIO, "Input/output error"))
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert len(calls) == k  # the fault fired, and the run stopped there
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: [Errno 5] Input/output error\n"
        assert self._tree(top) == was

    @pytest.mark.parametrize("name", ["preadv", "pwritev"])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_io_fault_in_a_helper_thread_leaves_no_output(
            self, capsys, tmp_path, monkeypatch, mode, name):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        self._two_strips_a_frame(monkeypatch, cpus=2)
        real = getattr(os, name)
        caller = os.getpid()

        def faulty(fd, buffers, offset):
            if os.getpid() != caller and not failed.is_set():
                raised_in.add()
                failed.set()
                raise OSError(errno.EIO, "Input/output error")
            # the helper starts before any pair; the caller waits in its
            # pair, which leaves the next pair to the helper
            if helpers and not failed.wait(timeout=30):
                raise AssertionError("no helper took a pair")
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, name, faulty)
        with forked.Event() as failed, forked.Records() as raised_in, \
                forked.forks() as helpers:
            rc = main(["merge", "--left", left, "--right", right,
                       "--mode", mode, "--tol", "10", "-o", str(tmp_path / "out")])
            raisers = raised_in.read()
        captured = capsys.readouterr()
        assert len(helpers) == 1 and raisers == [(helpers[0],)]
        assert forked.no_child_left()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: [Errno 5] Input/output error\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["out", "a/b/out"])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_interrupt_leaves_no_output(self, capsys, tmp_path, monkeypatch, mode, out):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        self._two_strips_a_frame(monkeypatch, cpus=1)
        self._fail_at(monkeypatch, "os.preadv", 5, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["merge", "--left", left, "--right", right,
                  "--mode", mode, "--tol", "10", "-o", str(tmp_path / out)])
        assert capsys.readouterr().out == ""
        assert not (tmp_path / out.split("/")[0]).exists()

    @pytest.mark.parametrize("where", ["caller", "helper"])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_interrupt_beside_a_helper_leaves_no_output_and_no_child(
            self, capsys, tmp_path, monkeypatch, mode, where):
        # the caller waits until the helper holds a pair; then one of them
        # is interrupted while the other is still merging its pair
        left = _write_stream(tmp_path, "left", [33.0 * i for i in range(6)], 255)
        right = _write_stream(tmp_path, "right", [33.0 * i + 1 for i in range(6)], 0)
        self._two_strips_a_frame(monkeypatch, cpus=2)
        caller, real = os.getpid(), merge.raster_writer

        def raster_writer(path, *args):
            if os.getpid() != caller:
                helper_took.set()
                if where == "helper":
                    raise KeyboardInterrupt
                time.sleep(0.2)  # still merging when the caller is interrupted
            else:
                assert helper_took.wait(timeout=30), "no helper took a pair"
                if where == "caller":
                    raise KeyboardInterrupt
            return real(path, *args)

        monkeypatch.setattr(merge, "raster_writer", raster_writer)
        with forked.Event() as helper_took, forked.forks() as helpers:
            with pytest.raises(KeyboardInterrupt):
                main(["merge", "--left", left, "--right", right,
                      "--mode", mode, "--tol", "10", "-o", str(tmp_path / "out")])
        assert len(helpers) == 1
        assert forked.no_child_left()
        assert capsys.readouterr().out == ""
        # the helper's frame too: it was removed after the helper was reaped
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_rerun_into_earlier_output_is_refused(self, capsys, tmp_path, monkeypatch, mode):
        outdir = tmp_path / "out"
        five = [_write_stream(tmp_path, name, [33.0 * i + skew for i in range(5)], fill)
                for name, skew, fill in (("left5", 0.0, 255), ("right5", 2.0, 0))]
        assert main(["merge", "--left", five[0], "--right", five[1],
                     "--mode", "sbs", "--tol", "10", "-o", str(outdir)]) == 0
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 1)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 2)
        was = self._tree(outdir)
        capsys.readouterr()
        # the 0th call never comes, so this only records the reads
        reads = self._fail_at(monkeypatch, "os.preadv", 0, AssertionError("never raised"))
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: output directory {outdir} already holds an earlier pairs.txt\n"
        assert reads == []
        assert self._tree(outdir) == was

    # each case rewrites right/2.ppm after the streams were scanned, before
    # the merge reads it; the error names the file
    CHANGED_FRAME = {
        "shrunk raster": (b"P6\n4 4\n255\n" + b"\0" * 47, "expected 48 raster bytes, got 47"),
        "other size, same raster bytes": (
            b"P6\n8 2\n255\n" + b"\0" * 48, "frame is now 8x2, not 4x4"),
        "bad magic": (b"P5\n4 4\n255\n" + b"\0" * 48, "only binary P6 is handled"),
        "long header token": (b"P6\n" + b"4" * 100 + b" 4\n255\n", "header token longer than"),
    }

    @pytest.mark.parametrize("case", sorted(CHANGED_FRAME))
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_frame_changed_after_the_scan_leaves_no_output(
            self, capsys, tmp_path, monkeypatch, mode, case):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        data, reason = self.CHANGED_FRAME[case]
        real = merge.write_merged

        def write_merged(pairs, *args):
            (tmp_path / "right" / "2.ppm").write_bytes(data)
            return real(pairs, *args)

        monkeypatch.setattr(merge, "write_merged", write_merged)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'right' / '2.ppm'}")
        assert reason in captured.err
        assert not outdir.exists()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_frame_shrunk_after_its_header_was_read_leaves_no_output(
            self, capsys, tmp_path, monkeypatch, mode):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        shrunk = tmp_path / "right" / "2.ppm"
        real = os.preadv

        def preadv(fd, buffers, offset):
            if os.fstat(fd).st_ino == shrunk.stat().st_ino:
                os.truncate(shrunk, shrunk.stat().st_size - 1)
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", preadv)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {shrunk}: expected 48 raster bytes at 0, got 47\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_directory_holding_a_merged_frame_is_refused(self, capsys, tmp_path, mode):
        left = _write_stream(tmp_path, "left", [0.0, 33.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0], 0)
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "anaglyph_0003.ppm").write_bytes(b"an earlier frame")
        was = self._tree(outdir)
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        assert rc == 1
        assert "already holds an earlier anaglyph_0003.ppm" in capsys.readouterr().err
        assert self._tree(outdir) == was

    @pytest.mark.parametrize("name", ["notes.txt", "pairs.txt.bak", "sbs_1.ppm", "sbs_0000.png"])
    def test_unrelated_files_are_kept(self, capsys, tmp_path, name):
        left = _write_stream(tmp_path, "left", [0.0, 33.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0], 0)
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / name).write_text("kept\n")
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "--tol", "10", "-o", str(outdir)])
        assert rc == 0
        assert sorted(os.listdir(outdir)) == sorted([name, "pairs.txt", "sbs_0000.ppm",
                                                     "sbs_0001.ppm"])
        assert (outdir / name).read_text() == "kept\n"

    # each case rewrites the last frame of a 3-pair stream, or adds a dropped one
    BAD_LAST_FRAME = {
        "other dimensions": ("right/2.ppm", b"P6\n5 4\n255\n" + b"\0" * 60, 1),
        "truncated raster": ("right/2.ppm", b"P6\n4 4\n255\n" + b"\0" * 47, 1),
        "bad magic": ("left/2.ppm", b"P5\n4 4\n255\n" + b"\0" * 16, 1),
        "dropped frame bad magic": ("left/3.ppm", b"P3\n4 4\n255\n", 1),
        "long comment": (
            "right/2.ppm",
            b"P6\n# " + b"c" * 100 + b"\n4 4\n255\n" + b"\0" * 48,
            0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LAST_FRAME))
    def test_bad_last_frame_leaves_no_output(self, capsys, tmp_path, case):
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0, 500.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        rel, data, want_rc = self.BAD_LAST_FRAME[case]
        (tmp_path / rel).write_bytes(data)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "anaglyph", "--tol", "10", "-o", str(outdir)])
        captured = capsys.readouterr()
        assert rc == want_rc
        if want_rc:
            assert "error:" in captured.err
            assert not outdir.exists()
        else:
            assert "paired 3 frames (dropped 1 left, 0 right)" in captured.out
            assert (read_ppm(str(outdir / "anaglyph_0002.ppm")) == [0, 0, 255]).all()

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_streamed_frames_match_merge_pairs(self, capsys, tmp_path, mode):
        # three frame sizes, so the streaming buffers are replaced twice; the
        # 600-row frame has more sbs rows than one os.writev call may take
        rng = np.random.default_rng(41)
        sizes = [(4, 6), (4, 6), (3, 5), (3, 5), (3, 5), (600, 2)]
        manifests = {}
        for name, times in (("left", [0.0, 33.3, 66.7, 100.0, 133.3, 400.0]),
                            ("right", [2.0, 35.1, 64.9, 101.5, 300.0, 401.0])):
            (tmp_path / name).mkdir()
            entries = []
            for i, ((h, w), t) in enumerate(zip(sizes, times)):
                p = tmp_path / name / f"{i}.ppm"
                write_ppm(str(p), rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
                entries.append((t, str(p)))
            manifests[name] = str(tmp_path / f"{name}.txt")
            write_manifest(manifests[name], entries)
        outdir = tmp_path / "out"
        rc = main(["merge", "--left", manifests["left"], "--right", manifests["right"],
                   "--mode", mode, "--tol", "10", "-o", str(outdir)])
        assert rc == 0
        assert "paired 5 frames (dropped 1 left, 1 right)" in capsys.readouterr().out

        result = pair_frames(load_stream(manifests["left"], "left"),
                             load_stream(manifests["right"], "right"), 10.0)
        frames = merge_pairs(result.pairs, mode)
        assert len(frames) == 5
        for i, frame in enumerate(frames):
            want = tmp_path / f"want_{i}.ppm"
            write_ppm(str(want), frame.pixels)
            assert (outdir / f"{mode}_{i:04d}.ppm").read_bytes() == want.read_bytes()


def _oracle_file(mode: str, left: np.ndarray, right: np.ndarray) -> bytes:
    """The merged P6 file of one pair, by the oracles."""
    want = (anaglyph_oracle if mode == "anaglyph" else sbs_oracle)(left, right)
    return f"P6\n{want.shape[1]} {want.shape[0]}\n255\n".encode() + want.tobytes()


@functools.lru_cache(maxsize=None)
def _edge_case(shape: tuple[int, int], mode: str) -> tuple[list, list[bytes]]:
    """Three random pairs of `shape`, the second one mirrored, and the oracle's merged files."""
    rng = np.random.default_rng(shape[0] * 100_003 + shape[1])
    left, right = rng.integers(0, 256, size=(2, *shape, 3), dtype=np.uint8)
    frames = [(left, right), (right, left), (left, right)]
    return frames, [_oracle_file(mode, *pair) for pair in frames]


def _write_streams(work: Path, frames: list) -> None:
    """(left, right) frame pairs as two streams with manifests in `work`, pair i at 33 i ms."""
    for side in (0, 1):
        name = ("left", "right")[side]
        (work / name).mkdir()
        entries = []
        for i, pair in enumerate(frames):
            write_ppm(str(work / name / f"{i}.ppm"), pair[side])
            entries.append((33.0 * i + side, str(work / name / f"{i}.ppm")))
        write_manifest(str(work / f"{name}.txt"), entries)


def _merge_in(work: Path, mode: str, cpus: int) -> list[Path]:
    """The merged files of the streams in `work`, run through `main` with `cpus` CPUs."""
    out = work / "out"
    with mock.patch.object(os, "sched_getaffinity", create=True,
                           new=lambda pid: set(range(cpus))):
        rc = main(["merge", "--left", str(work / "left.txt"), "--right", str(work / "right.txt"),
                   "--mode", mode, "-o", str(out)])
    assert rc == 0
    return sorted(out.glob(f"{mode}_*.ppm"))


class TestStripPipeline:
    """`merge` output equals the oracles' at every strip edge and worker count."""

    # streams of 1-4 pairs of any sizes on 1-3 CPUs: some have fewer pairs
    # than workers, and a helper's buffers change size with its pairs
    @settings(max_examples=examples(40), deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                          min_size=1, max_size=4),
           strip_pixels=st.integers(1, 40), cpus=st.integers(1, 3),
           mode=st.sampled_from(["sbs", "anaglyph"]), seed=st.integers(0, 2**32 - 1))
    def test_small_strips_match_the_oracles(self, sizes, strip_pixels, cpus, mode, seed):
        rng = np.random.default_rng(seed)
        frames = [rng.integers(0, 256, size=(2, h, w, 3), dtype=np.uint8) for h, w in sizes]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(stereorig, "STRIP_PIXELS", strip_pixels), \
                contextlib.redirect_stdout(io.StringIO()):
            _write_streams(Path(tmp), frames)
            got = [p.read_bytes() for p in _merge_in(Path(tmp), mode, cpus)]
        assert got == [_oracle_file(mode, *pair) for pair in frames]

    # 1x1; one row a strip at width 65537; strips of two rows, the last one
    # partial, at width 21846
    @pytest.mark.parametrize("shape", [(1, 1), (2, 65537), (3, 21846)])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_frame_edges_match_the_oracles(self, capsys, tmp_path, shape, cpus, mode):
        frames, want = _edge_case(shape, mode)
        _write_streams(tmp_path, frames)
        assert [p.read_bytes() for p in _merge_in(tmp_path, mode, cpus)] == want

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_merge_allocates_no_frame_sized_buffer(self, capsys, tmp_path, monkeypatch, mode):
        # 720 kB frames in strips of at most 2048 pixels: two workers' buffers
        # take about 300 kB in anaglyph mode, and one frame buffer would show
        rng = np.random.default_rng(3)
        frames = rng.integers(0, 256, size=(3, 2, 600, 400, 3), dtype=np.uint8)
        monkeypatch.setattr(stereorig, "STRIP_PIXELS", 2048)
        warm, work = tmp_path / "warm", tmp_path / "work"
        warm.mkdir()
        work.mkdir()
        _write_streams(warm, [(left[:1, :1], right[:1, :1]) for left, right in frames])
        _merge_in(warm, mode, 2)  # imports every module
        _write_streams(work, frames)
        tracemalloc.start()
        try:
            _merge_in(work, mode, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frames[0, 0].nbytes


class TestPairWorkers:
    """`merge` gives each pair to one worker: the caller or a helper forked before any pair."""

    @pytest.mark.parametrize("pairs", [1, 2, 3, 4])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_each_frame_has_one_writer_in_row_order(
            self, capsys, tmp_path, monkeypatch, mode, cpus, pairs):
        rng = np.random.default_rng(pairs * 10 + cpus)
        frames = rng.integers(0, 256, size=(pairs, 2, 4, 4, 3), dtype=np.uint8)
        _write_streams(tmp_path, frames)
        monkeypatch.setattr(stereorig, "STRIP_PIXELS", 8)  # two strips a frame
        real = os.pwritev

        def pwritev(fd, buffers, offset):
            records.add(os.fstat(fd).st_ino, offset)
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "pwritev", pwritev)
        with forked.Records() as records, forked.forks() as helpers:
            got = [p.read_bytes() for p in _merge_in(tmp_path, mode, cpus)]
            writes = records.read()  # (pid, inode, offset), in call order
        assert got == [_oracle_file(mode, *pair) for pair in frames]
        names = {(tmp_path / "out" / f"{mode}_{i:04d}.ppm").stat().st_ino: i for i in range(pairs)}
        by_frame = {i: [(pid, offset) for pid, ino, offset in writes if names[ino] == i]
                    for i in range(pairs)}
        caller = os.getpid()
        for i, frame_writes in by_frame.items():
            # the header, then two strips at increasing offsets, all by one process
            assert len(frame_writes) == 3
            assert len({pid for pid, _ in frame_writes}) == 1
            offsets = [offset for _, offset in frame_writes]
            assert offsets == sorted(set(offsets))
        # one helper per further CPU, but no more workers than pairs; every
        # write is the caller's or a helper's
        assert len(helpers) == min(cpus, pairs) - 1
        assert {pid for pid, _, _ in writes} <= {caller, *helpers}
        assert forked.no_child_left()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_fault_on_a_pair_stops_the_workers(
            self, capsys, tmp_path, monkeypatch, cpus, k):
        # a worker that opens a pair past k waits until pair k has failed, and
        # a little longer for the failed worker to stop the pairs (on one CPU
        # the woken worker may run first): it then merges the pair it holds,
        # and takes no other
        left = _write_stream(tmp_path, "left", [33.0 * i for i in range(8)], 255)
        right = _write_stream(tmp_path, "right", [33.0 * i + 1 for i in range(8)], 0)
        real = merge.raster_reader

        def raster_reader(path, *args):
            if Path(path).parent.name == "left":
                i = int(Path(path).stem)
                opened.add(i)
                if i == k:
                    failed.set()
                    raise OSError(errno.EIO, "Input/output error")
                if i > k:
                    if not failed.wait(timeout=30):
                        raise AssertionError(f"pair {k} was never opened")
                    time.sleep(0.1)
            return real(path, *args)

        monkeypatch.setattr(merge, "raster_reader", raster_reader)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        with forked.Event() as failed, forked.Records() as opened:
            rc = main(["merge", "--left", left, "--right", right,
                       "--mode", "sbs", "--tol", "10", "-o", str(tmp_path / "out")])
            pairs = [i for _, i in opened.read()]
        assert rc == 1
        assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
        assert k in pairs
        assert max(pairs) <= k + cpus - 1
        assert not (tmp_path / "out").exists()
        assert forked.no_child_left()


# the merge CLI on two CPUs, in a process of its own; the caller opens each
# of its pairs 50 ms late, which leaves pairs to the helper
_TWO_CPU_MERGE = """\
import errno, os, sys, time
from stereorig import merge
from stereorig.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
caller, fail, real = os.getpid(), sys.argv[1] == "fail", merge.raster_reader


def raster_reader(path, *args):
    if os.getpid() == caller:
        time.sleep(0.05)
    elif fail:
        raise OSError(errno.EIO, "Input/output error")
    return real(path, *args)


merge.raster_reader = raster_reader
print("before the merge")  # still in stdout's buffer when the helper forks
sys.exit(main(sys.argv[2:]))
"""

# the merge CLI on two CPUs, each worker logging its pid as it opens a frame,
# which takes 100 ms
_SLOW_MERGE = """\
import os, sys, time
from stereorig import merge
from stereorig.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
real = merge.raster_reader


def raster_reader(path, *args):
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()}\\n")
    time.sleep(0.1)
    return real(path, *args)


merge.raster_reader = raster_reader
sys.exit(main(sys.argv[2:]))
"""


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestForkedMergeProcess:
    """The merge CLI in a process of its own, with a helper process beside it."""

    @staticmethod
    def _argv(tmp_path: Path, mode: str, pairs: int = 8) -> list[str]:
        left = _write_stream(tmp_path, "left", [33.0 * i for i in range(pairs)], 255)
        right = _write_stream(tmp_path, "right", [33.0 * i + 1 for i in range(pairs)], 0)
        return ["merge", "--left", left, "--right", right, "--mode", mode,
                "--tol", "10", "-o", str(tmp_path / "out")]

    @pytest.mark.parametrize("fail", ["ok", "fail"])
    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_output_is_written_once(self, tmp_path, subprocess_env, mode, fail):
        # stdout and stderr are files, so block-buffered: a helper that
        # flushed what it inherited would write "before the merge" again
        with open(tmp_path / "stdout", "w+") as out, open(tmp_path / "stderr", "w+") as err:
            res = subprocess.run(
                [sys.executable, "-c", _TWO_CPU_MERGE, fail, *self._argv(tmp_path, mode)],
                env=subprocess_env, stdout=out, stderr=err, timeout=60)
        stdout, stderr = ((tmp_path / name).read_text() for name in ("stdout", "stderr"))
        if fail == "ok":
            assert res.returncode == 0, stderr
            assert stdout == ("before the merge\n"
                              f"paired 8 frames (dropped 0 left, 0 right) -> {tmp_path / 'out'}\n")
            assert stderr == ""
        else:
            assert res.returncode == 1
            assert stdout == "before the merge\n"
            assert stderr == "error: [Errno 5] Input/output error\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_no_helper_outlives_a_killed_merge(self, tmp_path, subprocess_env):
        log = tmp_path / "pids"
        log.touch()
        proc = subprocess.Popen([sys.executable, "-c", _SLOW_MERGE, str(log),
                                 *self._argv(tmp_path, "sbs", 60)], env=subprocess_env)
        try:
            deadline = time.monotonic() + 30
            while not (helpers := {int(pid) for pid in log.read_text().split()} - {proc.pid}):
                assert time.monotonic() < deadline, "no helper opened a pair"
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        # each helper finishes the pair it holds, then finds its parent gone;
        # merging all 60 pairs would take it 12 s
        deadline = time.monotonic() + 5
        while any(map(_running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, helpers))


_RASTER_2X2 = bytes(range(12))
_MANIFEST_FAULTS = {  # each fault, and the exit code it must give
    "unsorted timestamps": 1, "duplicate timestamps": 0, "non-finite timestamp": 1,
    "missing file": 1, "bad magic": 1, "header with comments": 0, "short raster": 1,
    "other size, paired": 1, "other size, dropped": 0,
}


@st.composite
def _faulty_streams(draw):
    """(fault, {side: [(timestamp text, frame bytes or None)]}) for a merge at --tol 10.

    Left and right frame i are 0-5 ms either side of 40 i, so the first n of
    each side pair; one side has one more frame, 500 ms after the rest,
    which is dropped.  One fault is injected into one frame or timestamp.
    """
    n = draw(st.integers(2, 3))
    extra = draw(st.sampled_from(["left", "right"]))
    streams = {}
    for side in ("left", "right"):
        times = [40 * i + draw(st.integers(0, 5)) for i in range(n)]
        times += [40 * n + 500] * (side == extra)
        streams[side] = [[f"{t:g}", b"P6\n2 2\n255\n" + _RASTER_2X2] for t in times]
    fault = draw(st.sampled_from(sorted(_MANIFEST_FAULTS)))
    if fault.endswith("timestamps"):  # frames k and k + 1 of one side
        side = draw(st.sampled_from(["left", "right"]))
        k = draw(st.integers(0, len(streams[side]) - 2))
    elif fault == "other size, dropped" or (fault != "other size, paired" and draw(st.booleans())):
        side, k = extra, n  # the dropped frame
    else:
        side, k = draw(st.sampled_from(["left", "right"])), draw(st.integers(0, n - 1))
    entries = streams[side]
    frame = entries[k]
    if fault == "unsorted timestamps":
        frame[0], entries[k + 1][0] = entries[k + 1][0], frame[0]
    elif fault == "duplicate timestamps":
        entries[k + 1][0] = frame[0]
    elif fault == "non-finite timestamp":
        frame[0] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif fault == "missing file":
        frame[1] = None
    elif fault == "bad magic":
        frame[1] = draw(st.sampled_from([b"P3", b"P5", b"p6", b"P7"])) + frame[1][2:]
    elif fault == "header with comments":
        frame[1] = draw(st.sampled_from([
            b"P6 # from a test\n2 2\n255\n",
            b"P6\n# width\n2\n# height\n2 #\n255\n",
        ])) + _RASTER_2X2
    elif fault == "short raster":
        frame[1] = frame[1][: -draw(st.integers(1, 12))]
    else:
        w, h = draw(st.sampled_from([(3, 2), (2, 3), (1, 1)]))
        frame[1] = f"P6\n{w} {h}\n255\n".encode() + bytes(w * h * 3)
    return fault, {side: [tuple(e) for e in entries] for side, entries in streams.items()}


class TestManifestFaults:
    @settings(max_examples=examples(200), deadline=None)
    @given(case=_faulty_streams(), mode=st.sampled_from(["sbs", "anaglyph"]))
    def test_exit_code_and_output_match_the_oracle(self, case, mode):
        fault, streams = case
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for side, entries in streams.items():
                lines = []
                for i, (ts, data) in enumerate(entries):
                    if data is not None:
                        (work / f"{side}{i}.ppm").write_bytes(data)
                    lines.append(f"{ts} {side}{i}.ppm\n")
                (work / f"{side}.txt").write_text("".join(lines))
            outdir = work / "out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(["merge", "--left", str(work / "left.txt"),
                           "--right", str(work / "right.txt"),
                           "--mode", mode, "--tol", "10", "-o", str(outdir)])
            names = set(os.listdir(outdir)) if outdir.exists() else None
        want_rc, want_names = merge_outcome_oracle(streams["left"], streams["right"], 10.0, mode)
        assert want_rc == _MANIFEST_FAULTS[fault]
        assert rc == want_rc, stderr.getvalue()
        if rc:
            assert names is None  # -o was never made
            assert stdout.getvalue() == ""
        else:
            assert names == want_names

    def test_nul_byte_in_a_path_exits_1(self, capsys, tmp_path):
        manifest = tmp_path / "l.txt"
        manifest.write_bytes(b"0 a\x00b.ppm\n")
        rc = main(["merge", "--left", str(manifest), "--right", str(manifest),
                   "--mode", "sbs", "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {manifest}:1: ppm path 'a\\x00b.ppm' holds a NUL byte\n"
        assert not (tmp_path / "out").exists()


def _float_options() -> list[tuple[str, str]]:
    """(subcommand, option) for every float-typed option of the parser."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(
        (command, action.option_strings[-1])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is float
    )


# every spelling reads as nan, inf or -inf through float()
_NON_FINITE = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "+inf", "Infinity", "1e999", "-inf", "-Infinity", "-1e999"]
)


class TestDeeplyNestedJson:
    """A JSON input nested past the parser's recursion limit is a domain error."""

    @pytest.mark.parametrize("argv", [
        ["base-model", "--a", "J7-fixture", "--b", "A5-fixture", "--specs", "{file}"],
        ["simulate-sync", "--specs", "{file}"],
        ["align-check", "--readings", "{file}"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_with_an_error_line(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        rc = main([a.format(file=deep) for a in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: malformed ")
        assert captured.err.endswith(": nested too deeply\n")


class TestNonUtf8Input:
    """A text input that is not UTF-8 is a domain error naming the file."""

    @pytest.mark.parametrize("argv", [
        ["base-model", "--a", "J7-fixture", "--b", "A5-fixture", "--specs", "{file}"],
        ["align-check", "--readings", "{file}"],
        ["merge", "--left", "{file}", "--right", "{file}", "--mode", "sbs", "-o", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_with_an_error_line(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"[0 a\xff.ppm]\n")
        rc = main([a.format(file=bad, out=tmp_path / "out") for a in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode")
        assert not (tmp_path / "out").exists()


class TestMangledJsonInput:
    """A mangled catalog or readings file exits 0, or 1 with an error line; nothing else escapes."""

    @staticmethod
    def _run(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, err.getvalue()

    @settings(max_examples=examples(100), deadline=None)
    @given(text=mangled(CATALOG))
    def test_base_model_specs(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mangled_specs.json"
        path.write_text(text)
        rc, err = self._run(["base-model", "--a", "J7-fixture", "--b", "A5-fixture",
                             "--specs", str(path)])
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (rc, err)

    @settings(max_examples=examples(100), deadline=None)
    @given(text=mangled(READINGS))
    def test_align_check_readings(self, tmp_path_factory, text):
        # tolerances under which every finite pair is aligned: exit 1 means an error
        path = tmp_path_factory.getbasetemp() / "mangled_readings.json"
        path.write_text(text)
        rc, err = self._run(["align-check", "--readings", str(path),
                             "--mag-tol", "1e300", "--gyro-tol", "1e300"])
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (rc, err)


def _ppm(seed: int) -> bytes:
    """A 3x2 P6 file of random pixels."""
    return b"P6\n3 2\n255\n" + np.random.default_rng(seed).bytes(18)


# a 2-pair stream: each manifest, and each PPM it names, by file name
_MERGE_INPUTS = {
    "left.txt": b"0 l0.ppm\n33.3 l1.ppm\n",
    "right.txt": b"1.5 r0.ppm\n34 r1.ppm\n",
    **{f"{side}{i}.ppm": _ppm(2 * i + (side == "r")) for side in "lr" for i in range(2)},
}


class TestMangledMergeInput:
    """A mangled manifest or PPM exits 0, or 1 with an error line and no output directory."""

    @settings(max_examples=examples(150), deadline=None)
    @given(mangled=st.sampled_from(sorted(_MERGE_INPUTS)).flatmap(
               lambda name: st.tuples(st.just(name), mangled_bytes(_MERGE_INPUTS[name]))),
           mode=st.sampled_from(["sbs", "anaglyph"]))
    # a smaller frame that still holds its whole raster: a dimension mismatch
    @example(mangled=("l1.ppm", b"P6\n1 2\n255\n" + bytes(18)), mode="sbs")
    # a manifest line duplicated: three left frames, so on two CPUs a helper merges one
    @example(mangled=("left.txt", b"0 l0.ppm\n33.3 l1.ppm\n33.3 l1.ppm\n"), mode="anaglyph")
    def test_merge(self, tmp_path_factory, mangled, mode):
        work = tmp_path_factory.getbasetemp() / "mangled_merge"
        out = work / "out"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        for file, valid in _MERGE_INPUTS.items():
            (work / file).write_bytes(valid)
        name, data = mangled
        (work / name).write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["merge", "--left", str(work / "left.txt"), "--right",
                       str(work / "right.txt"), "--mode", mode, "-o", str(out)])
        err = stderr.getvalue()
        if rc == 0:
            assert (out / "pairs.txt").exists()
        else:
            assert rc == 1 and err.startswith("error: "), (rc, err)
            assert not out.exists()


# the values every float option is tried with: zeros, the least subnormal, a plain
# value, magnitudes whose square or product overflows, and the non-finite ones
_EXTREMES = ["0", "-0.0", "5e-324", "1.5", "1e17", "1e154", "1e308", "-1e308",
             "nan", "inf", "-inf"]
# a number printed as nan or inf; `infinity` alone is a focus mode
_NON_FINITE_TEXT = re.compile(r"\b(?:nan|inf)\b|\bInfinity\b", re.IGNORECASE)
# how a refusal names an option, where that is not its name with spaces for dashes
_NAMED_AS = {"--offset-a": "clock offsets", "--offset-b": "clock offsets",
             "--mag-tol": "mag_tolerance", "--gyro-tol": "gyro_tolerance"}


class TestNonFiniteFlags:
    """Every float option, set to a non-finite value, fails the run and writes nothing;
    set to any of `_EXTREMES`, the run ends in one of the stated ways."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """A directory holding the inputs of a run of each subcommand that succeeds."""
        work = tmp_path_factory.mktemp("non_finite")
        _write_stream(work, "left", [0.0, 33.0], 1)
        _write_stream(work, "right", [2.0, 35.0], 2)
        zero = [0.0, 0.0, 0.0]
        (work / "readings.json").write_text(json.dumps(
            [{"a": {"magnetometer": zero, "gyroscope": zero},
              "b": {"magnetometer": zero, "gyroscope": zero}}]))
        return work

    @staticmethod
    def _runs(work: Path, out: Path, command: str) -> list[list[str]]:
        """Arguments of each run that reads its inputs from `work` and writes under `out`."""
        if command == "gen-template":  # every mode checks every material flag
            return [[command, "--mode", mode, "--device", "J7-fixture", "-o", str(out / "t.svg")]
                    for mode in ("two", "three", "mirror")]
        return [[command, *{
            "base-model": ["--a", "J7-fixture", "--b", "A5-fixture"],
            "align-check": ["--readings", str(work / "readings.json")],
            "grid-overlay": ["--device", "J7-fixture", "--svg", str(out / "grid.svg")],
            "simulate-sync": ["--capture", "50", "--duration", "100"],
            "merge": ["--left", str(work / "left.txt"), "--right", str(work / "right.txt"),
                      "--mode", "sbs", "-o", str(out / "out")],
        }[command]]]

    @pytest.mark.parametrize("command", sorted({c for c, _ in _float_options()}))
    def test_each_run_succeeds_with_its_defaults(self, work, tmp_path, command):
        for argv in self._runs(work, tmp_path, command):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(argv) == 0, argv

    @pytest.mark.parametrize("command, option", _float_options())
    @settings(max_examples=examples(12), deadline=None)
    @given(value=_NON_FINITE)
    def test_non_finite_value_exits_1_with_no_output(self, work, command, option, value):
        before = sorted(os.listdir(work))
        for argv in self._runs(work, work, command):
            for flag in ([f"{option}={value}"], [option, value]):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main([*argv, *flag])
                assert rc == 1, (argv, flag, stderr.getvalue())
                assert stdout.getvalue() == ""
                assert stderr.getvalue().startswith("error: ")
                assert sorted(os.listdir(work)) == before

    @pytest.mark.parametrize("command, option", _float_options())
    def test_every_extreme_value_ends_in_a_stated_way(self, work, tmp_path, command, option):
        out = tmp_path / "out"
        for value in _EXTREMES:
            for argv in self._runs(work, out, command):
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main([*argv, f"{option}={value}"])
                text, err = stdout.getvalue(), stderr.getvalue()
                case = (argv, option, value, rc, text[-200:], err)
                if rc == 0:  # every number it prints is finite
                    assert not _NON_FINITE_TEXT.search(text), case
                elif rc == 2:
                    assert "usage" in err, case
                elif command == "simulate-sync" and not err:  # a failed session
                    final = text.splitlines()[-1]
                    assert rc == 1 and final.startswith("final: ") and "=failed" in final, case
                else:  # a refusal that names the option and writes nothing
                    assert rc == 1 and text == "" and err.startswith("error: "), case
                    assert _NAMED_AS.get(option, option[2:].replace("-", " ")) in err, case
                    assert list(out.iterdir()) == [], case

    @pytest.mark.parametrize("command", ["base-model", "gen-template", "grid-overlay"])
    def test_ipd_above_the_bound_exits_1_naming_it(self, work, tmp_path, command):
        # a float's step at 2e17 mm (32 mm) is wider than the 10 mm sheet margin
        for argv in self._runs(work, tmp_path, command):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([*argv, "--ipd", "2e17"])
            assert rc == 1, argv
            assert stdout.getvalue() == ""
            assert stderr.getvalue() == "error: ipd must be at most 1e+09 mm, got 2e+17\n"
            assert os.listdir(tmp_path) == []


# a child that imports the CLI, runs one command and prints sys.modules; it
# imports nothing else itself, so json shows up only if the command loaded it
_MODULES_AT_EXIT = """\
import sys
from stereorig.cli import main
rc = main(sys.argv[1:])
print("\\nMODULES " + " ".join(sorted(sys.modules)))
sys.exit(rc)
"""

# the merge CLI on two CPUs, printing at each fork whether numpy is loaded
_MODULES_AT_FORK = """\
import os, sys
from stereorig.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
real = os.fork


def fork():
    loaded = "numpy" in sys.modules
    pid = real()
    if pid:
        print("FORK numpy" if loaded else "FORK")
    return pid


os.fork = fork
sys.exit(main(sys.argv[1:]))
"""

_ONLY_MERGE_NEEDS = {"numpy"}
_NOTHING_NEEDS = {"xml.sax", "xml.sax.saxutils", "urllib.request", "http.client", "email"}


class TestImportFootprint:
    """Each subcommand loads its own modules and no others."""

    @pytest.fixture
    def modules_after(self, tmp_path, subprocess_env):
        def run(*argv: str, rc: int = 0) -> set[str]:
            res = subprocess.run([sys.executable, "-c", _MODULES_AT_EXIT, *argv],
                                 env=subprocess_env, cwd=tmp_path,
                                 capture_output=True, text=True)
            assert res.returncode == rc, res.stderr
            return set(res.stdout.rsplit("\nMODULES ", 1)[1].split())
        return run

    @staticmethod
    def _own(modules: set[str]) -> set[str]:
        return {m for m in modules if m.startswith("stereorig.")}

    def test_importing_the_cli_loads_no_submodule(self, modules_after):
        loaded = modules_after("--help")  # import, then build the parser
        assert self._own(loaded) == {"stereorig.cli"}
        assert not loaded & (_ONLY_MERGE_NEEDS | _NOTHING_NEEDS)
        # every merge pays for this import; dataclasses and the inspect it imports
        # take 13-14 ms under -X importtime on a 2-vCPU Xeon
        assert not loaded & {"json", "dataclasses", "inspect"}

    def _merge(self, tmp_path, modules_after, mode: str) -> set[str]:
        left = _write_stream(tmp_path, "left", [0.0, 33.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0], 0)
        loaded = modules_after("merge", "--left", left, "--right", right,
                               "--mode", mode, "-o", str(tmp_path / "out"))
        assert (tmp_path / "out" / f"{mode}_0001.ppm").exists()
        assert not loaded & _NOTHING_NEEDS
        return loaded

    def test_merge_loads_only_the_merge_path(self, tmp_path, modules_after):
        # sbs only moves bytes: no kernel module and no numpy
        loaded = self._merge(tmp_path, modules_after, "sbs")
        assert self._own(loaded) == {"stereorig.cli", "stereorig.merge", "stereorig.ppmio"}
        assert not loaded & _ONLY_MERGE_NEEDS
        # nor dataclasses (which imports inspect) or json, which a merge never runs
        assert not loaded & {"dataclasses", "inspect", "json"}

    def test_anaglyph_merge_also_loads_the_kernels(self, tmp_path, modules_after):
        loaded = self._merge(tmp_path, modules_after, "anaglyph")
        assert self._own(loaded) == {
            "stereorig.cli", "stereorig.merge", "stereorig.ppmio", "stereorig._kernels"}
        assert "numpy" in loaded

    @pytest.mark.parametrize("mode", ["sbs", "anaglyph"])
    def test_anaglyph_merge_loads_numpy_once_before_the_fork(
            self, tmp_path, subprocess_env, mode):
        # the caller imports the kernel, so a helper inherits it and imports nothing
        left = _write_stream(tmp_path, "left", [0.0, 33.0, 66.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0, 71.0], 0)
        res = subprocess.run(
            [sys.executable, "-c", _MODULES_AT_FORK, "merge", "--left", left, "--right", right,
             "--mode", mode, "-o", str(tmp_path / "out")],
            env=subprocess_env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        forks = [line for line in res.stdout.splitlines() if line.startswith("FORK")]
        assert forks == ["FORK numpy" if mode == "anaglyph" else "FORK"]

    def test_refused_anaglyph_merge_loads_no_numpy(self, tmp_path, modules_after):
        left = _write_stream(tmp_path, "left", [0.0, 33.0], 255)
        right = _write_stream(tmp_path, "right", [5.0, 38.0], 0)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "sbs_0000.ppm").touch()  # an earlier merge's frame
        loaded = modules_after("merge", "--left", left, "--right", right,
                               "--mode", "anaglyph", "-o", str(tmp_path / "out"), rc=1)
        assert not loaded & (_ONLY_MERGE_NEEDS | {"stereorig._kernels"})

    def test_sbs_merge_runs_without_numpy(self, tmp_path, subprocess_env):
        rng = np.random.default_rng(7)
        frames = {}
        for name, t in (("left", 0.0), ("right", 3.0)):
            (tmp_path / name).mkdir()
            frames[name] = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
            write_ppm(str(tmp_path / name / "0.ppm"), frames[name])
            write_manifest(str(tmp_path / f"{name}.txt"), [(t, str(tmp_path / name / "0.ppm"))])
        # a None entry makes every `import numpy` in the child raise ImportError
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from stereorig.cli import main; sys.exit(main(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "merge", "--left", "left.txt", "--right", "right.txt",
             "--mode", "sbs", "-o", "out"],
            env=subprocess_env, cwd=tmp_path, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        want = b"P6\n6 5\n255\n" + sbs_oracle(frames["left"], frames["right"]).tobytes()
        assert (tmp_path / "out" / "sbs_0000.ppm").read_bytes() == want

    RIG_COMMANDS = {
        "base-model": (["--a", "J7-fixture", "--b", "A5-fixture"],
                       {"registry", "data", "alignment"}),
        "gen-template": (["--mode", "two", "--device", "J7-fixture", "-o", "t.svg"],
                         {"registry", "data", "alignment", "templates", "svgio"}),
        "align-check": (["--readings", "readings.json"],
                        {"registry", "alignment", "guidance"}),
        "grid-overlay": (["--device", "J7-fixture", "--svg", "grid.svg"],
                         {"registry", "data", "alignment", "guidance"}),
        "simulate-sync": (["--capture", "50", "--duration", "100"],
                          {"registry", "data", "syncproto"}),
    }

    @pytest.mark.parametrize("command", sorted(RIG_COMMANDS))
    def test_rig_command_loads_only_its_modules(self, tmp_path, modules_after, command):
        (tmp_path / "readings.json").write_text(json.dumps([TestAlignCheck._entry(
            [30.0, 0.0, -20.0], [30.0, 0.0, -20.0])]))
        args, own = self.RIG_COMMANDS[command]
        loaded = modules_after(command, *args)
        assert self._own(loaded) == {"stereorig.cli"} | {f"stereorig.{m}" for m in own}
        assert not loaded & (_ONLY_MERGE_NEEDS | _NOTHING_NEEDS)
