from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stereorig
from stereorig import alignment, merge, svgio
from stereorig.cli import build_parser, main
from stereorig.merge import load_stream, merge_pairs, pair_frames
from stereorig.ppmio import read_ppm, write_manifest, write_ppm

from oracles import anaglyph_oracle, merge_outcome_oracle, sbs_oracle


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
        want = (HELP_DIR / f"{command or 'stereorig'}.txt").read_text()
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
        # the README example, and a lossy run that stops after pairing
        "simulate_sync_readme.txt": [
            "simulate-sync", "--a", "J7-fixture", "--b", "A5-fixture", "--latency", "10",
            "--jitter", "5", "--loss", "0.1", "--seed", "42", "--capture", "50",
            "--duration", "1000", "--offset-a", "3", "--offset-b", "-4"],
        "simulate_sync_pairing.txt": [
            "simulate-sync", "--latency", "10", "--jitter", "5", "--loss", "0.3", "--seed", "3"],
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

    def test_coplanar_stack_exits_1(self, capsys):
        rc = main(["grid-overlay", "--device", "J7-fixture", "--stack", "coplanar"])
        assert rc == 1
        assert "depth-stacked" in capsys.readouterr().err


class TestSimulateSync:
    def test_full_chain_lossless(self, capsys):
        rc = main(["simulate-sync", "--capture", "50", "--duration", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final: A=done B=done" in out
        assert "capture start skew: 0.000 ms" in out
        assert "pair_request" in out
        assert "frame_tick" in out

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
        (["--capture=50", "--duration=nan"], "duration must be finite, got nan"),
        (["--capture=50", "--duration=inf"], "duration must be finite, got inf"),
        # checked before pairing, though no stage would use them
        (["--duration=nan"], "duration must be finite, got nan"),
        (["--loss=1.0", "--capture=nan"], "capture delay must be finite, got nan"),
    ])
    def test_non_finite_value_exits_1_with_empty_stdout(self, capsys, flags, message):
        rc = main(["simulate-sync", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"error: {message}" in captured.err

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
        caller = threading.current_thread()
        before = threading.active_count()
        failed = threading.Event()
        raised_in = []

        def faulty(fd, buffers, offset):
            if threading.current_thread() is not caller and not failed.is_set():
                raised_in.append(threading.current_thread())
                failed.set()
                raise OSError(errno.EIO, "Input/output error")
            # pair 0 runs alone; once the helper has started, the caller waits
            # in its pair, which leaves the next pair to the helper
            if threading.active_count() > before and not failed.wait(timeout=30):
                raise AssertionError("no helper took a pair")
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, name, faulty)
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", mode, "--tol", "10", "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert len(raised_in) == 1 and raised_in[0] is not caller
        assert not raised_in[0].is_alive()
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
    @settings(max_examples=40, deadline=None)
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
    """`merge` gives each pair to one worker, pair 0 to the caller before any helper starts."""

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
        writes = []  # (thread, inode, offset), in call order

        def pwritev(fd, buffers, offset):
            writes.append((threading.current_thread(), os.fstat(fd).st_ino, offset))
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "pwritev", pwritev)
        got = [p.read_bytes() for p in _merge_in(tmp_path, mode, cpus)]
        assert got == [_oracle_file(mode, *pair) for pair in frames]
        names = {(tmp_path / "out" / f"{mode}_{i:04d}.ppm").stat().st_ino: i for i in range(pairs)}
        by_frame = {i: [(t, offset) for t, ino, offset in writes if names[ino] == i]
                    for i in range(pairs)}
        caller = threading.current_thread()
        for i, frame_writes in by_frame.items():
            # the header, then two strips at increasing offsets, all by one thread
            assert len(frame_writes) == 3
            assert len({t for t, _ in frame_writes}) == 1
            offsets = [offset for _, offset in frame_writes]
            assert offsets == sorted(set(offsets))
        assert {t for t, _ in by_frame[0]} == {caller}
        helper_writes = [k for k, (t, _, _) in enumerate(writes) if t is not caller]
        if helper_writes:
            frame_0_writes = [k for k, (_, ino, _) in enumerate(writes) if names[ino] == 0]
            assert max(frame_0_writes) < min(helper_writes)
        # no more workers than CPUs, nor than the pairs left after pair 0
        assert len({t for t, _, _ in writes}) <= max(1, min(cpus, pairs - 1))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_fault_on_a_pair_stops_the_workers(
            self, capsys, tmp_path, monkeypatch, cpus, k):
        # a worker that opens a pair past k waits until pair k has failed:
        # it then merges the pair it holds, and takes no other
        left = _write_stream(tmp_path, "left", [33.0 * i for i in range(8)], 255)
        right = _write_stream(tmp_path, "right", [33.0 * i + 1 for i in range(8)], 0)
        real = merge.raster_reader
        failed = threading.Event()
        opened = []

        def raster_reader(path, *args):
            if Path(path).parent.name == "left":
                i = int(Path(path).stem)
                opened.append(i)
                if i == k:
                    failed.set()
                    raise OSError(errno.EIO, "Input/output error")
                if i > k and not failed.wait(timeout=30):
                    raise AssertionError(f"pair {k} was never opened")
            return real(path, *args)

        monkeypatch.setattr(merge, "raster_reader", raster_reader)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        rc = main(["merge", "--left", left, "--right", right,
                   "--mode", "sbs", "--tol", "10", "-o", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
        assert k in opened
        assert max(opened) <= k + cpus - 1
        assert not (tmp_path / "out").exists()


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
    @settings(max_examples=200, deadline=None)
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


class TestNonFiniteFlags:
    """Every float option, set to a non-finite value, fails the run and writes nothing."""

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
    @settings(max_examples=12, deadline=None)
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


# a child that imports the CLI, runs one command and prints sys.modules as JSON
_MODULES_AT_EXIT = """\
import json, sys
from stereorig.cli import main
rc = main(sys.argv[1:])
print("\\nMODULES " + json.dumps(sorted(sys.modules)))
sys.exit(rc)
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
            return set(json.loads(res.stdout.rsplit("\nMODULES ", 1)[1]))
        return run

    @staticmethod
    def _own(modules: set[str]) -> set[str]:
        return {m for m in modules if m.startswith("stereorig.")}

    def test_importing_the_cli_loads_no_submodule(self, modules_after):
        loaded = modules_after("--help")  # import, then build the parser
        assert self._own(loaded) == {"stereorig.cli"}
        assert not loaded & (_ONLY_MERGE_NEEDS | _NOTHING_NEEDS)

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

    def test_anaglyph_merge_also_loads_the_kernels(self, tmp_path, modules_after):
        loaded = self._merge(tmp_path, modules_after, "anaglyph")
        assert self._own(loaded) == {
            "stereorig.cli", "stereorig.merge", "stereorig.ppmio", "stereorig._kernels"}
        assert "numpy" in loaded

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
